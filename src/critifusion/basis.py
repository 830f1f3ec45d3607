"""Cosine basis bank backing the analytic toy backend.

Targets are mixtures of 16 separable 2-D cosine patterns.  Frequencies sit
just below Nyquist so that pattern content lives entirely in the high band
of any low-pass mask with rho <= 0.85; fusion therefore carries clause
content from the refined latent.  Patterns are mutually orthogonal on the
sample grid, so mixture coefficients can be read back by projection.
"""

from __future__ import annotations

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


def basis_plane(index: int, height: int, width: int) -> np.ndarray:
    """H x W pattern cos(2*pi*a*y/H) * cos(2*pi*b*x/W)."""
    a, b = basis_frequencies(index, height, width)
    y = np.arange(height, dtype=np.float64)
    x = np.arange(width, dtype=np.float64)
    return np.outer(
        np.cos(2.0 * np.pi * a * y / height), np.cos(2.0 * np.pi * b * x / width)
    )


def synthesize_target(
    weights: np.ndarray, channels: int, height: int, width: int
) -> np.ndarray:
    """C x H x W mixture of basis patterns, identical across channels."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (N_BASIS,):
        raise ValueError(f"weights must have length {N_BASIS}")
    plane = np.zeros((height, width), dtype=np.float64)
    for j in np.flatnonzero(weights):
        plane += weights[j] * basis_plane(int(j), height, width)
    return np.broadcast_to(plane, (channels, height, width)).copy()


def pattern_coefficient(values: np.ndarray, index: int) -> float:
    """Projection of a C x H x W field onto pattern ``index``.

    Returns <x, p> / <p, p> averaged over channels; exact for mixtures of
    the bank because distinct patterns are orthogonal on the grid.
    """
    _, height, width = values.shape
    plane = basis_plane(index, height, width)
    norm = float(np.sum(plane * plane))
    per_channel = np.tensordot(values, plane, axes=([1, 2], [0, 1]))
    return float(per_channel.mean() / norm)
