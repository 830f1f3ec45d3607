"""2-D spectra, the confidence-controlled low-pass mask, and spectral fusion.

Only the public ``Spectrum`` API is DC-centered, with the zero frequency at
(H//2, W//2).  Fusion runs in the FFT's own order, shifting only the mask: it
keeps the low band of the base latent and the high band of the refined one.
Each channel is transformed on its own, so fusion runs over blocks of whole
channels and holds the complex spectra of one block at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .latents import LatentField

# Values per fusion block: whole channels, at least one, up to this many.
FUSE_BLOCK = 1 << 14


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


def _imag_residue(complex_field: np.ndarray) -> float:
    """Largest |imaginary part|, without an array of absolute values."""
    imag = complex_field.imag
    return max(float(imag.max()), -float(imag.min()))


def _check_residue(residue: float, norm: float) -> None:
    """Reject an inverse DFT whose imaginary residue exceeds 1e-6 * the L2
    norm of its coefficients, the sign of a non-Hermitian spectrum."""
    tol = 1e-6 * max(norm, 1e-30)
    if residue > tol:
        raise SymmetryViolationError(
            f"imaginary residue {residue:.3e} exceeds tolerance {tol:.3e}"
        )


def inverse_spectrum(spec: Spectrum) -> LatentField:
    """Invert a centered spectrum back to a real field (see _check_residue)."""
    coeffs = np.fft.ifftshift(spec.coefficients, axes=(-2, -1))
    complex_field = np.fft.ifft2(coeffs, axes=(-2, -1))
    _check_residue(_imag_residue(complex_field), float(np.linalg.norm(coeffs)))
    return LatentField(spec.channels, spec.height, spec.width, complex_field.real)


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


# numpy transforms a real input through a complex copy of the whole input,
# and its in-place ifft2 rounds differently.  These two forms hold only
# their result (and, for the inverse, its input) and give fft2's and
# ifft2's bits.


def _spectrum(values: np.ndarray) -> np.ndarray:
    """Per-channel fft2 of real values, in place in one complex copy."""
    coefficients = values.astype(np.complex128)
    return np.fft.fft2(coefficients, axes=(-2, -1), out=coefficients)


def _inverse(coefficients: np.ndarray) -> np.ndarray:
    """Per-channel ifft2: the last axis into a new array, then the other in place."""
    field = np.fft.ifft(coefficients, axis=-1)
    return np.fft.ifft(field, axis=-2, out=field)


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
    Channels are fused in blocks of at most FUSE_BLOCK values (one channel
    at least), so only one block's spectra are held at a time; the largest
    imaginary residue over all blocks is judged against the norm of the
    whole fused spectrum (see _check_residue).
    """
    if z_ref.shape != z_base.shape:
        raise SpectralError(
            f"shape mismatch: z_ref {z_ref.shape} vs z_base {z_base.shape}"
        )
    low = np.fft.ifftshift(
        build_lowpass_mask(z_base.height, z_base.width, rho, taper).weights
    )
    high = 1.0 - low
    out = None  # allocated once the first block's spectra are freed
    residue = sqnorm = 0.0
    step = max(1, FUSE_BLOCK // (z_base.height * z_base.width))
    for first in range(0, z_base.channels, step):
        block = slice(first, first + step)
        fused = _spectrum(z_base.values[block])
        fused *= low
        ref = _spectrum(z_ref.values[block])
        ref *= high
        fused += ref
        del ref  # frees its spectrum before the inverse allocates another
        sqnorm += np.vdot(fused, fused).real
        fused = _inverse(fused)
        residue = max(residue, _imag_residue(fused))
        if out is None:
            out = np.empty(z_base.shape)
        out[block] = fused.real
        del fused  # before the next block's spectra
    _check_residue(residue, float(np.sqrt(sqnorm)))
    if clamp:
        flat = z_base.values.reshape(z_base.channels, -1)
        lo = flat.min(axis=1)[:, None, None]
        hi = flat.max(axis=1)[:, None, None]
        np.clip(out, lo, hi, out=out)
    return z_base.with_values(out)
