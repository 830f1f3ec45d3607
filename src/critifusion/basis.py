"""Cosine basis bank backing the analytic toy backend.

Targets are mixtures of 16 separable 2-D cosine patterns.  Frequencies sit
just below Nyquist.  On square grids of 60 x 60 and up that puts pattern
content entirely in the high band of any low-pass mask with rho <= 0.85,
so fusion carries clause content from the refined latent; below 60 x 60
the largest passbands reach some patterns.  Patterns are mutually
orthogonal on the sample grid, so mixture coefficients can be read back by
projection.
"""

from __future__ import annotations

import functools

import numpy as np

N_BASIS = 16
MIN_TOY_DIM = 16


def _check_toy_dims(height: int, width: int) -> None:
    if height < MIN_TOY_DIM or width < MIN_TOY_DIM:
        raise ValueError(
            f"toy basis requires height/width >= {MIN_TOY_DIM}, "
            f"got {height}x{width}"
        )


def basis_frequencies(index: int, height: int, width: int) -> tuple[int, int]:
    """Integer (vertical, horizontal) cycle counts for pattern ``index``."""
    if not (0 <= index < N_BASIS):
        raise ValueError(f"basis index must be in [0, {N_BASIS}), got {index}")
    _check_toy_dims(height, width)
    return (height // 2 - 1 - index // 4, width // 2 - 1 - index % 4)


# A grid uses two 16-column tables and up to eight single columns, about
# 1.3 MB at 4096 x 4096; 16 entries hold at most 8 MB at that size.
@functools.lru_cache(maxsize=16)
def _cosines(freqs: tuple[int, ...], size: int) -> np.ndarray:
    """size x len(freqs) columns cos(2*pi*f*n/size), n = 0 .. size - 1.

    Memoised per (freqs, size) and read-only: every grid asks for the same
    few tables on every call.
    """
    n = np.arange(size, dtype=np.float64)[:, None]
    table = np.cos(2.0 * np.pi * np.asarray(freqs, dtype=np.float64) * n / size)
    table.flags.writeable = False
    return table


def basis_plane(index: int, height: int, width: int) -> np.ndarray:
    """H x W pattern cos(2*pi*a*y/H) * cos(2*pi*b*x/W)."""
    a, b = basis_frequencies(index, height, width)
    return np.outer(_cosines((a,), height), _cosines((b,), width))


def synthesize_target(
    weights: np.ndarray, channels: int, height: int, width: int
) -> np.ndarray:
    """C x H x W mixture of basis patterns, identical across channels.

    The result is a read-only broadcast of one H x W plane: a caller that
    keeps or writes it makes its own copy.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (N_BASIS,):
        raise ValueError(f"weights must have length {N_BASIS}")
    plane = np.zeros((height, width), dtype=np.float64)
    for j in np.flatnonzero(weights):
        plane += weights[j] * basis_plane(int(j), height, width)
    return np.broadcast_to(plane, (channels, height, width))


def pattern_coefficients(values: np.ndarray) -> np.ndarray:
    """Projections of a C x H x W field onto every pattern of the bank.

    Entry j is <x, p_j> / <p_j, p_j> averaged over channels; exact for
    mixtures of the bank because distinct patterns are orthogonal on the
    grid.  The patterns are separable, so the channel mean meets one H x N
    and one W x N cosine matrix and no H x W plane is built.
    """
    _, height, width = values.shape
    a, b = zip(*(basis_frequencies(j, height, width) for j in range(N_BASIS)))
    cos_y, cos_x = _cosines(a, height), _cosines(b, width)
    inner = np.sum(cos_y * (values.mean(axis=0) @ cos_x), axis=0)
    return inner / (np.sum(cos_y**2, axis=0) * np.sum(cos_x**2, axis=0))
