"""2-D spectra, the confidence-controlled low-pass mask, and spectral fusion.

Only the public ``Spectrum`` API is DC-centered, with the zero frequency at
(H//2, W//2).  Fusion keeps the low band of the base latent and the high
band of the refined one.  It runs in the FFT's own order on rfft2's real
half plane, under a mask built from two 1-D profiles in that order, so it
builds no H x W mask and no full complex spectrum.  Since
mask*B + (1 - mask)*R is R + mask*(B - R), it low-passes the difference of
the two latents and adds the refined one back: one forward and one inverse
transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .latents import LatentField


class SpectralError(ValueError):
    pass


class SymmetryViolationError(SpectralError):
    """A spectrum that is not Hermitian: an inverse transform's imaginary
    residue above tolerance."""


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
            # Named after the config key that sets it.
            raise SpectralError(f"taper must be in [0, 0.5], got {self.taper_fraction}")


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


def inverse_spectrum(spec: Spectrum) -> LatentField:
    """Invert a centered spectrum back to a real field.

    An imaginary residue above 1e-6 * the L2 norm of the coefficients is the
    sign of a non-Hermitian spectrum and raises SymmetryViolationError.
    """
    coeffs = np.fft.ifftshift(spec.coefficients, axes=(-2, -1))
    complex_field = np.fft.ifft2(coeffs, axes=(-2, -1))
    residue = float(np.abs(complex_field.imag).max())
    tol = 1e-6 * max(float(np.linalg.norm(coeffs)), 1e-30)
    if residue > tol:
        raise SymmetryViolationError(
            f"imaginary residue {residue:.3e} exceeds tolerance {tol:.3e}"
        )
    return LatentField(spec.channels, spec.height, spec.width, complex_field.real)


def _axis_profile(size: int, half_width: int, taper_fraction: float) -> np.ndarray:
    """Per-axis mask profile in FFT order, over the distance d = min(k, size - k)
    of bin k from the DC bin 0.

    Weight 1 for d <= h - t, cosine ramp 1 -> 0 over the last
    t = ceil(taper_fraction * h) bins inside the rectangle, 0 outside.  A
    function of d alone, so even about the DC bin, p[k] == p[-k], and in
    [0, 1] by construction.
    """
    k = np.arange(size)
    d = np.minimum(k, size - k).astype(np.float64)
    h = float(half_width)
    t = int(np.ceil(taper_fraction * half_width))
    profile = np.zeros(size, dtype=np.float64)
    profile[d <= h] = 1.0
    if t > 0:
        # d >= h - t would select the same weights: at d = h - t the ramp
        # reads 0.5 * (1 + cos 0) = 1, the weight already set.
        ramp = (d > h - t) & (d <= h)
        profile[ramp] = 0.5 * (1.0 + np.cos(np.pi * (d[ramp] - (h - t)) / t))
    return profile


def _profiles(
    height: int, width: int, rho: float, taper: TaperSpec
) -> tuple[np.ndarray, np.ndarray]:
    """The low-pass mask's two axis profiles in FFT order; the mask is their
    outer product.

    Half-widths are floor(rho * dim / 2); rho = 0 gives the all-zero mask
    and rho = 1 the all-one mask.  Any rho > 0 keeps at least the DC bin.
    """
    if not np.isfinite(rho) or not (0.0 <= rho <= 1.0):
        raise MaskRangeError(f"rho must be in [0, 1], got {rho}")
    if rho in (0.0, 1.0):
        return np.full(height, float(rho)), np.full(width, float(rho))
    h_u = int(np.floor(rho * height / 2))
    h_v = int(np.floor(rho * width / 2))
    return (
        _axis_profile(height, h_u, taper.taper_fraction),
        _axis_profile(width, h_v, taper.taper_fraction),
    )


def build_lowpass_mask(
    height: int, width: int, rho: float, taper: TaperSpec
) -> MaskPlane:
    """Centered rectangular low-pass mask whose passband grows with rho."""
    mask = np.outer(*_profiles(height, width, rho, taper))
    return MaskPlane(height, width, np.fft.fftshift(mask))


def _half_plane_mask(height: int, width: int, rho: float, taper: TaperSpec) -> np.ndarray:
    """The low-pass mask in FFT order on rfft2's half plane, H x (W//2 + 1).

    Both profiles are even about the DC bin, so the whole mask is real and
    even, the half plane of a real input's fused spectrum determines the
    rest, and irfft2 returns exactly the fusion of the full spectra.
    """
    pu, pv = _profiles(height, width, rho, taper)
    return np.outer(pu, pv[: width // 2 + 1])


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
    Both inputs are real, so fusion runs on rfft2's half plane (see
    _half_plane_mask), as z_ref + irfft2(mask * rfft2(z_base - z_ref)).
    """
    if z_ref.shape != z_base.shape:
        raise SpectralError(
            f"shape mismatch: z_ref {z_ref.shape} vs z_base {z_base.shape}"
        )
    height, width = z_base.height, z_base.width
    low = _half_plane_mask(height, width, rho, taper)
    # Given an out array, rfft2 runs its second pass in place.
    spectrum = np.empty((z_base.channels, *low.shape), complex)
    np.fft.rfft2(z_base.values - z_ref.values, out=spectrum)
    spectrum *= low
    # irfft2's two passes, the first in place.
    np.fft.ifft(spectrum, axis=-2, out=spectrum)
    out = np.fft.irfft(spectrum, n=width, axis=-1)
    del spectrum  # before the output's copy
    out += z_ref.values
    if clamp:
        flat = z_base.values.reshape(z_base.channels, -1)
        lo = flat.min(axis=1)[:, None, None]
        hi = flat.max(axis=1)[:, None, None]
        np.clip(out, lo, hi, out=out)
    return z_base.with_values(out)
