"""Variance schedules, reverse samplers, and the analytic toy denoiser.

Conventions: a schedule with T steps stores beta[0..T-1].  Chain steps are
1-based (t = T .. 1) with abar(t) = alpha_bar[t-1] and the boundary
abar(0) := 1, which makes the terminal DDIM step return the x0 estimate
and gives the terminal DDPM step zero posterior variance.  forward_noise
and toy_denoiser index alpha_bar directly (0-based t in [0, T)).

The samplers return their chains in closed form.  DDIM and the img2img
pass end on the target.  The DDPM chain and the blend pass are Gaussian:
each step is affine in z and in the target, plus scaled noise, so a whole
chain is one scaled draw.  The step functions are the chains' oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .basis import N_BASIS, synthesize_target
from .latents import (
    LatentField,
    _check_dims,
    sample_gaussian_latent,
)
from .latents import _gaussian_stream  # noqa: F401  perfbench's probes patch it


SAMPLERS = ("ddim", "ddpm")
REFINE_MODES = ("img2img", "blend")
# The blend corrective pass draws its noise from the (seed + offset, 0) stream.
CORRECTIVE_SEED_OFFSET = 999
MAX_STEPS = 1000  # the longest schedule, for sampling and for the corrective T'


class ScheduleError(ValueError):
    pass


class StepRangeError(ValueError):
    pass


@dataclass(frozen=True)
class VarianceSchedule:
    """T steps whose every alpha_bar lies in (0, 1), checked when built, so
    the steps and chains divide by sqrt(abar) and sqrt(1 - abar) unchecked."""

    steps: int
    beta: np.ndarray
    alpha_bar: np.ndarray
    beta_start: float
    beta_end: float

    def __post_init__(self):
        # alpha_bar never rises, so its two ends bound every step's.
        if not self.alpha_bar[0] < 1.0:  # no noise to predict
            raise ScheduleError(
                f"beta_start = {self.beta_start} is so small that alpha_bar == 1"
            )
        if not self.alpha_bar[-1] > 0.0:  # x0 not recoverable
            raise ScheduleError(
                f"alpha_bar underflows to 0 in {self.steps} steps from "
                f"beta_start = {self.beta_start} to beta_end = {self.beta_end}"
            )

    def abar(self, t: int) -> float:
        """alpha_bar for 1-based chain step t, with abar(0) := 1."""
        if t == 0:
            return 1.0
        return float(self.alpha_bar[t - 1])


@dataclass(frozen=True)
class Conditioning:
    """Toy conditioning: basis mixing weights plus a CFG guidance scale."""

    embedding: np.ndarray
    guidance_scale: float = 0.0

    def __post_init__(self):
        emb = np.asarray(self.embedding, dtype=np.float64)
        if emb.shape != (N_BASIS,):
            raise ValueError(f"embedding must have length {N_BASIS}")
        if not (np.isfinite(emb).all() and math.isfinite(self.guidance_scale)):
            raise ValueError("embedding and guidance scale must be finite")
        if self.guidance_scale < 0:
            raise ValueError("guidance scale must be >= 0")
        emb = emb.copy()
        emb.flags.writeable = False
        object.__setattr__(self, "embedding", emb)


def null_conditioning() -> Conditioning:
    """CFG's unconditional branch: the zero embedding."""
    return Conditioning(np.zeros(N_BASIS))


@dataclass(frozen=True)
class StrengthMap:
    k: int
    T_prime: int
    strength: float
    t0: int


def make_schedule(
    T: int, beta_start: float, beta_end: float, name: str = "T"
) -> VarianceSchedule:
    """Linearly spaced betas; alpha_bar accumulated in 64-bit, and checked
    to lie in (0, 1) by VarianceSchedule.

    ``name`` is what the schedule's step count is called in the errors: a
    rejected step count, or an alpha_bar out of range.  The schedule is
    memoised per (T, beta_start, beta_end) and its arrays are read-only: a
    run, its corrective pass and its config's checks ask for the same few
    schedules over and over.
    """
    if not (1 <= T <= MAX_STEPS):
        raise ScheduleError(f"{name} must be in [1, {MAX_STEPS}], got {T}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ScheduleError(
            f"need 0 < beta_start <= beta_end < 1, got [{beta_start}, {beta_end}]"
        )
    try:
        return _schedule(T, beta_start, beta_end)
    except ScheduleError as exc:
        raise ScheduleError(f"{name}: {exc}") from exc


# An entry holds at most 2 x MAX_STEPS floats, 16 KB; a default config asks
# for its sampling schedule and the 15 corrective lengths t_min .. t_max.
# Typed, so a float T still fails in linspace after the int T is cached.
@lru_cache(maxsize=64, typed=True)
def _schedule(T: int, beta_start: float, beta_end: float) -> VarianceSchedule:
    beta = np.linspace(beta_start, beta_end, T, dtype=np.float64)
    alpha_bar = np.cumprod(1.0 - beta)
    beta.flags.writeable = alpha_bar.flags.writeable = False
    return VarianceSchedule(T, beta, alpha_bar, beta_start, beta_end)


def _check_shapes(a: LatentField, b: LatentField) -> None:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")


def forward_noise(
    x0: LatentField, t: int, sched: VarianceSchedule, noise: LatentField
) -> LatentField:
    """sqrt(abar_t) * x0 + sqrt(1 - abar_t) * noise, t indexing alpha_bar."""
    _check_shapes(x0, noise)
    if not (0 <= t < sched.steps):
        raise StepRangeError(f"t must be in [0, {sched.steps}), got {t}")
    abar = float(sched.alpha_bar[t])
    out = np.sqrt(abar) * x0.values + np.sqrt(1.0 - abar) * noise.values
    return x0.with_values(out)


def target_field(
    cond: Conditioning, channels: int, height: int, width: int
) -> LatentField:
    """The fixed point the toy chain converges to under ``cond``."""
    _check_dims(channels, height, width)  # before the field is allocated
    values = synthesize_target(cond.embedding, channels, height, width)
    return LatentField(channels, height, width, values)  # the one copy


def toy_denoiser(
    z_t: LatentField, t: int, cond: Conditioning, sched: VarianceSchedule
) -> LatentField:
    """Exact noise prediction pulling toward the conditioning's pattern.

    Returns (z_t - sqrt(abar_t) * anchor) / sqrt(1 - abar_t) where the
    anchor is target / (1 + w), zero for the zero (null) embedding.  The
    1/(1+w) factor pre-compensates classifier-free guidance: the (1+w)/-w
    combination of the conditional and null branches reproduces the
    unscaled target for every guidance scale.  The sampler chains take
    that combination in closed form; this form is their test oracle.
    """
    if not (0 <= t < sched.steps):
        raise StepRangeError(f"t must be in [0, {sched.steps}), got {t}")
    abar = float(sched.alpha_bar[t])
    anchor = synthesize_target(cond.embedding, *z_t.shape) / (1.0 + cond.guidance_scale)
    eps = (z_t.values - np.sqrt(abar) * anchor) / np.sqrt(1.0 - abar)
    return z_t.with_values(eps)


def cfg_combine(
    eps_cond: LatentField, eps_uncond: LatentField, w: float
) -> LatentField:
    """(1 + w) * eps_cond - w * eps_uncond, elementwise."""
    _check_shapes(eps_cond, eps_uncond)
    if w < 0:
        raise ValueError(f"guidance scale must be >= 0, got {w}")
    out = (1.0 + w) * eps_cond.values - w * eps_uncond.values
    return eps_cond.with_values(out)


def predict_x0(
    z_t: LatentField, t: int, eps_hat: LatentField, sched: VarianceSchedule
) -> LatentField:
    """(z_t - sqrt(1 - abar_t) * eps_hat) / sqrt(abar_t), t 1-based."""
    _check_shapes(z_t, eps_hat)
    if not (1 <= t <= sched.steps):
        raise StepRangeError(f"t must be in [1, {sched.steps}], got {t}")
    abar = sched.abar(t)
    out = (z_t.values - np.sqrt(1.0 - abar) * eps_hat.values) / np.sqrt(abar)
    return z_t.with_values(out)


def ddim_step(
    z_t: LatentField, t: int, eps_hat: LatentField, sched: VarianceSchedule
) -> LatentField:
    """Deterministic (eta = 0) update to step t-1; predict_x0 checks t."""
    x0 = predict_x0(z_t, t, eps_hat, sched)
    abar_prev = sched.abar(t - 1)
    out = np.sqrt(abar_prev) * x0.values + np.sqrt(1.0 - abar_prev) * eps_hat.values
    return z_t.with_values(out)


def ddpm_step(
    z_t: LatentField,
    t: int,
    eps_hat: LatentField,
    sched: VarianceSchedule,
    noise: LatentField,
) -> LatentField:
    """(z_t - beta_t * eps_hat) / sqrt(1 - beta_t) + sigma_t * noise."""
    if not (1 <= t <= sched.steps):
        raise StepRangeError(f"t must be in [1, {sched.steps}], got {t}")
    _check_shapes(z_t, eps_hat)
    _check_shapes(z_t, noise)
    beta = float(sched.beta[t - 1])
    abar_t = sched.abar(t)
    abar_prev = sched.abar(t - 1)
    sigma2 = beta * (1.0 - abar_prev) / (1.0 - abar_t)
    out = (z_t.values - beta * eps_hat.values) / np.sqrt(1.0 - beta)
    out += np.sqrt(sigma2) * noise.values
    return z_t.with_values(out)


# Under the toy's guided prediction (z - sqrt(abar) * T) / sqrt(1 - abar),
# in which CFG cancels, a DDPM or blend step is z <- a * z + b * T + sigma * n
# for scalars (a, b, sigma^2) and a fresh standard draw n.


def _ddpm_coefficients(beta: float, abar: float, abar_prev: float):
    """(a, b, sigma^2) of ddpm_step under the guided prediction."""
    keep = math.sqrt(1.0 - beta)
    a = (1.0 - beta / math.sqrt(1.0 - abar)) / keep
    b = beta * math.sqrt(abar) / (math.sqrt(1.0 - abar) * keep)
    return a, b, beta * (1.0 - abar_prev) / (1.0 - abar)


def _blend_coefficients(alpha: float, beta: float, abar: float, abar_prev: float):
    """(a, b, sigma^2) of (1 - alpha) * z + alpha * ddim_step(z) + sqrt(beta) * n
    under the guided prediction.  x0 is the target, so the DDIM step is
    p * z + (sqrt(abar_prev) - p * sqrt(abar)) * T."""
    p = math.sqrt(1.0 - abar_prev) / math.sqrt(1.0 - abar)
    b = alpha * (math.sqrt(abar_prev) - p * math.sqrt(abar))
    return 1.0 - alpha + alpha * p, b, beta


def _gaussian_chain(sched: VarianceSchedule, step) -> tuple[float, float, float]:
    """(A, c, v) of the chain t = T .. 1 of ``step(beta, abar, abar_prev)``
    updates: z_0 = A * z_T + c * T + sqrt(v) * n for one standard draw n."""
    A, c, v = 1.0, 0.0, 0.0
    for t in range(sched.steps, 0, -1):
        a, b, var = step(float(sched.beta[t - 1]), sched.abar(t), sched.abar(t - 1))
        A, c, v = a * A, a * c + b, a * a * v + var
    return A, c, v


def _affine(cond: Conditioning, c: float, *terms) -> np.ndarray:
    """c * cond's target plus scale * field for each (scale, field) of
    ``terms``, summed in place in that order: three fields at the peak."""
    out = c * synthesize_target(cond.embedding, *terms[0][1].shape)
    for scale, field in terms:
        out += scale * field.values
    return out


def base_sample(
    cond: Conditioning,
    sched: VarianceSchedule,
    sampler: str,
    seed: int,
    channels: int,
    height: int,
    width: int,
) -> LatentField:
    """Full reverse chain from seeded noise; cond.guidance_scale cancels.

    DDIM returns the target in closed form and reads neither ``sched`` nor
    ``seed``: the toy's x0 estimate is the target at every step, and the
    last DDIM step returns that estimate.  DDPM returns its chain in closed
    form: from z_T ~ N(0, I) the chain ends on A * z_T + c * T + sqrt(v) * n,
    which is c * T + sqrt(A^2 + v) * n for one N(0, I) latent n, the seed's
    latent (the (seed, 0) stream).
    """
    if sampler not in SAMPLERS:
        raise ValueError(f"sampler must be one of {SAMPLERS}, got {sampler!r}")
    if sampler == "ddim":
        return target_field(cond, channels, height, width)
    noise = sample_gaussian_latent(channels, height, width, seed)
    A, c, v = _gaussian_chain(sched, _ddpm_coefficients)
    return noise.with_values(_affine(cond, c, (math.sqrt(A * A + v), noise)))


def strength_to_start(k: int, T_prime: int) -> StrengthMap:
    """clip(k/T', 0.01, 0.95) and the derived denoising start index.

    The paper's img2img strength map.  The toy's img2img pass lands on the
    target from every start, so it is the oracles' map, not the pass's.
    """
    if T_prime < 1:
        raise StepRangeError(f"T' must be >= 1, got {T_prime}")
    if not (0 <= k <= T_prime):
        raise StepRangeError(f"k must be in [0, {T_prime}], got {k}")
    strength = min(max(k / T_prime, 0.01), 0.95)
    # The epsilon keeps the floor exact when (1 - strength) * T' is an
    # integer up to float rounding (e.g. k=45, T'=50 -> 4.999999999999998).
    t0 = int(np.floor((1.0 - strength) * T_prime + 1e-9))
    return StrengthMap(k=k, T_prime=T_prime, strength=strength, t0=t0)


def img2img_refine(
    z_base: LatentField,
    cond: Conditioning,
    params,
    sched: VarianceSchedule,
    seed: int,
    mode: str = "img2img",
) -> LatentField:
    """Corrective pass under cond over a T'-step schedule built from the
    base schedule's beta endpoints.  T' == 0 returns z_base unchanged.

    In ``img2img`` mode the paper re-noises z_base to strength
    strength_to_start(round(lambda * T'), T') and denoises the rest of the
    way with deterministic DDIM (eta = 0) steps.  Every such chain ends on
    its last x0 estimate, which in the toy is cond's target, so the pass
    returns that target: it reads neither lambda, g, the seed nor z_base's
    values.  In ``blend`` mode the update is the per-step convex
    combination (1 - a) * z + a * ddim_step(z) + sqrt(beta_t) * eps with
    a = lambda, run over all T' steps from z_base under the guided
    prediction, in which g cancels.  That chain is returned in closed form,
    A * z_base + c * T + sqrt(v) * n, with n the latent of the seed
    seed + CORRECTIVE_SEED_OFFSET (its (seed + offset, 0) stream).
    """
    T_prime = int(params.T_prime)
    if T_prime == 0:
        return z_base
    if mode not in REFINE_MODES:
        raise ValueError(f"mode must be one of {REFINE_MODES}, got {mode!r}")
    # Built in either mode, so an out-of-range T' is rejected in both.
    sub = make_schedule(T_prime, sched.beta_start, sched.beta_end, "T'")
    if mode == "img2img":
        return target_field(cond, *z_base.shape)
    noise = sample_gaussian_latent(*z_base.shape, seed + CORRECTIVE_SEED_OFFSET)
    A, c, v = _gaussian_chain(sub, partial(_blend_coefficients, float(params.lam)))
    return z_base.with_values(_affine(cond, c, (A, z_base), (math.sqrt(v), noise)))
