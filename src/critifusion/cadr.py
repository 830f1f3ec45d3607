"""Confidence-adaptive scheduling: alignment score -> corrective parameters.

The map is affine in (1 - s): low confidence raises the img2img strength,
guidance, step count, and low-band preservation together; scores above the
skip threshold disable the corrective pass entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


# A mean of clause scores lands a few ULPs off a tie such as 0.9 or 0.75;
# rounding first keeps the skip test and the half-up T' off that noise.
SCORE_DECIMALS = 12


class AlignmentInputError(ValueError):
    pass


@dataclass(frozen=True)
class CadrConfig:
    """Endpoint A (values at s = 1) and the spans added as s falls to 0."""

    lam_min: float = 0.12
    g_min: float = 3.6
    t_min: int = 16
    rho_min: float = 0.60
    lam_span: float = 0.18
    g_span: float = 1.4
    t_span: int = 14
    rho_span: float = 0.25
    skip_threshold: float = 0.9

    def __post_init__(self):
        spans = ("lam_span", "g_span", "t_span", "rho_span")
        for name in ("lam_min", "g_min", "t_min", "rho_min") + spans:
            if not math.isfinite(getattr(self, name)):
                raise AlignmentInputError(f"{name} must be finite")
        for name in ("t_min", "t_span"):
            value = getattr(self, name)
            # Step counts: a float would reach the schedule, a bool is no count.
            if not isinstance(value, int) or isinstance(value, bool):
                raise AlignmentInputError(f"{name} must be an integer, got {value!r}")
        for name in spans:
            if getattr(self, name) < 0:
                raise AlignmentInputError(f"{name} must be >= 0")
        # lambda is an img2img strength and rho a mask ratio: each of their
        # affine ranges, endpoint to endpoint + span, must lie in [0, 1].
        for name in ("lam", "rho"):
            low = getattr(self, f"{name}_min")
            span = getattr(self, f"{name}_span")
            if not (0.0 <= low <= 1.0):
                raise AlignmentInputError(f"{name}_min must be in [0, 1], got {low}")
            if low + span > 1.0:
                raise AlignmentInputError(
                    f"{name}_span must be at most 1 - {name}_min = {1.0 - low}, "
                    f"got {span}"
                )
        if self.t_min < 1:
            raise AlignmentInputError(f"t_min must be >= 1, got {self.t_min}")
        if not (0.0 < self.skip_threshold <= 1.0):
            raise AlignmentInputError(
                f"skip_threshold must be in (0, 1], got {self.skip_threshold}"
            )

    @property
    def t_max(self) -> int:
        """The longest corrective schedule, reached at s = 0."""
        return self.t_min + self.t_span


@dataclass(frozen=True)
class CadrParams:
    """Corrective-pass hyperparameters: strength, guidance, steps, mask ratio."""

    lam: float
    g: float
    T_prime: int
    rho: float


def cadr_from_alignment(s: float, config: CadrConfig = CadrConfig()) -> CadrParams:
    """Affine interpolation of the corrective hyperparameters from score s.

    s is rounded to 12 decimals and clamped to [0, 1] first.  Above the skip
    threshold the step count is 0 and the remaining fields report their
    s = 1 endpoints so records stay schema-complete.  T' rounds half-up.
    """
    if not math.isfinite(s):
        raise AlignmentInputError(f"alignment score must be finite, got {s}")
    s = min(max(round(s, SCORE_DECIMALS), 0.0), 1.0)
    if s > config.skip_threshold:
        return CadrParams(
            lam=config.lam_min,
            g=config.g_min,
            T_prime=0,
            rho=config.rho_min,
        )
    # u lies in [0, 1], so each value lies between its endpoints already.
    u = 1.0 - s
    return CadrParams(
        lam=config.lam_min + u * config.lam_span,
        g=config.g_min + u * config.g_span,
        T_prime=int(math.floor(config.t_min + u * config.t_span + 0.5)),
        rho=config.rho_min + u * config.rho_span,
    )
