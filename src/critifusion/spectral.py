"""2-D spectra, the confidence-controlled low-pass mask, and spectral fusion.

Only the public ``Spectrum`` API is DC-centered, with the zero frequency at
(H//2, W//2).  Fusion runs in the FFT's own order, shifting only the mask: it
keeps the low band of the base latent and the high band of the refined one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .latents import LatentField


class SpectralError(ValueError):
    pass


class SymmetryViolationError(SpectralError):
    """Inverse transform produced an imaginary residue above tolerance."""


class MaskRangeError(SpectralError):
    pass


@dataclass(frozen=True)
class Spectrum:
    """Complex C x H x W frequency representation, DC at (H//2, W//2)."""

    channels: int
    height: int
    width: int
    coefficients: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coefficients, dtype=np.complex128)
        if arr.shape != (self.channels, self.height, self.width):
            raise SpectralError(
                f"coefficient shape {arr.shape} does not match "
                f"({self.channels}, {self.height}, {self.width})"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coefficients", arr)


@dataclass(frozen=True)
class TaperSpec:
    """Cosine transition width as a fraction of the passband half-width."""

    taper_fraction: float = 0.10

    def __post_init__(self):
        if not (0.0 <= self.taper_fraction <= 0.5):
            raise SpectralError(
                f"taper_fraction must be in [0, 0.5], got {self.taper_fraction}"
            )


@dataclass(frozen=True)
class MaskPlane:
    """Real DC-centered weights in [0, 1], 4-fold symmetric about center."""

    height: int
    width: int
    weights: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.weights, dtype=np.float64)
        if arr.shape != (self.height, self.width):
            raise SpectralError("mask shape mismatch")
        if arr.min() < -1e-12 or arr.max() > 1 + 1e-12:
            raise SpectralError("mask weights must lie in [0, 1]")
        arr = np.clip(arr, 0.0, 1.0)
        arr.flags.writeable = False
        object.__setattr__(self, "weights", arr)


def forward_spectrum(field: LatentField) -> Spectrum:
    """Per-channel 2-D DFT with the DC bin shifted to (H//2, W//2)."""
    coeffs = np.fft.fft2(field.values, axes=(-2, -1))
    return Spectrum(*field.shape, np.fft.fftshift(coeffs, axes=(-2, -1)))


def _real_inverse(coefficients: np.ndarray) -> np.ndarray:
    """Real part of the per-channel inverse DFT of FFT-ordered coefficients.

    Raises SymmetryViolationError when the imaginary residue exceeds
    1e-6 * ||coefficients||_2, the sign of a non-Hermitian spectrum.
    """
    complex_field = np.fft.ifft2(coefficients, axes=(-2, -1))
    tol = 1e-6 * max(float(np.linalg.norm(coefficients)), 1e-30)
    residue = float(np.abs(complex_field.imag).max())
    if residue > tol:
        raise SymmetryViolationError(
            f"imaginary residue {residue:.3e} exceeds tolerance {tol:.3e}"
        )
    return complex_field.real


def inverse_spectrum(spec: Spectrum) -> LatentField:
    """Invert a centered spectrum back to a real field (see _real_inverse)."""
    coeffs = np.fft.ifftshift(spec.coefficients, axes=(-2, -1))
    return LatentField(spec.channels, spec.height, spec.width, _real_inverse(coeffs))


def _axis_profile(size: int, half_width: int, taper_fraction: float) -> np.ndarray:
    """Per-axis mask profile over centered distance d = |index - size//2|.

    Weight 1 for d <= h - t, cosine ramp 1 -> 0 over the last
    t = ceil(taper_fraction * h) bins inside the rectangle, 0 outside.
    """
    center = size // 2
    d = np.abs(np.arange(size) - center).astype(np.float64)
    h = float(half_width)
    t = int(np.ceil(taper_fraction * half_width))
    profile = np.zeros(size, dtype=np.float64)
    profile[d <= h] = 1.0
    if t > 0:
        ramp = (d > h - t) & (d <= h)
        profile[ramp] = 0.5 * (1.0 + np.cos(np.pi * (d[ramp] - (h - t)) / t))
    return profile


def build_lowpass_mask(
    height: int, width: int, rho: float, taper: TaperSpec
) -> MaskPlane:
    """Centered rectangular low-pass mask whose passband grows with rho.

    Half-widths are floor(rho * dim / 2); rho = 0 gives the all-zero mask
    and rho = 1 the all-one mask.  Any rho > 0 keeps at least the DC bin.
    """
    if not np.isfinite(rho) or not (0.0 <= rho <= 1.0):
        raise MaskRangeError(f"rho must be in [0, 1], got {rho}")
    if rho == 0.0:
        return MaskPlane(height, width, np.zeros((height, width)))
    if rho == 1.0:
        return MaskPlane(height, width, np.ones((height, width)))
    h_u = int(np.floor(rho * height / 2))
    h_v = int(np.floor(rho * width / 2))
    pu = _axis_profile(height, h_u, taper.taper_fraction)
    pv = _axis_profile(width, h_v, taper.taper_fraction)
    return MaskPlane(height, width, np.outer(pu, pv))


def spec_fuse(
    z_ref: LatentField,
    z_base: LatentField,
    rho: float,
    taper: TaperSpec,
    clamp: bool,
) -> LatentField:
    """Keep the low band of z_base and the high band of z_ref.

    The same mask plane is applied to every channel.  With clamp on, each
    output value is clipped to the per-channel [min, max] of z_base.
    """
    if z_ref.shape != z_base.shape:
        raise SpectralError(
            f"shape mismatch: z_ref {z_ref.shape} vs z_base {z_base.shape}"
        )
    mask = build_lowpass_mask(z_base.height, z_base.width, rho, taper).weights
    mask = np.fft.ifftshift(mask)
    fused = np.fft.fft2(z_base.values, axes=(-2, -1))
    fused *= mask
    high = np.fft.fft2(z_ref.values, axes=(-2, -1))
    high *= 1.0 - mask
    fused += high
    del high  # frees two fields before the inverse allocates two more
    out = _real_inverse(fused)
    if clamp:
        flat = z_base.values.reshape(z_base.channels, -1)
        lo = flat.min(axis=1)[:, None, None]
        hi = flat.max(axis=1)[:, None, None]
        np.clip(out, lo, hi, out=out)
    return z_base.with_values(out)
