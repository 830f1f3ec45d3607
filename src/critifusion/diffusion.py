"""Variance schedules, reverse samplers, and the analytic toy denoiser.

Conventions: a schedule with T steps stores beta[0..T-1].  Chain steps are
1-based (t = T .. 1) with abar(t) = alpha_bar[t-1] and the boundary
abar(0) := 1, which makes the terminal DDIM step return the x0 estimate
and gives the terminal DDPM step zero posterior variance.  forward_noise
and toy_denoiser index alpha_bar directly (0-based t in [0, T)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import N_BASIS, synthesize_target
from .latents import (
    LatentField,
    _gaussian_stream,
    gaussian_chunks,
    sample_gaussian_latent,
)


SAMPLERS = ("ddim", "ddpm")
REFINE_MODES = ("img2img", "blend")
# The corrective pass draws its noise from the (seed + offset, 0) stream.
CORRECTIVE_SEED_OFFSET = 999
MAX_STEPS = 1000  # the longest schedule, for sampling and for the corrective T'


class ScheduleError(ValueError):
    pass


class StepRangeError(ValueError):
    pass


class DegenerateStepError(ValueError):
    """alpha_bar at the requested step is 1 (no noise to predict)."""


class SingularStepError(ValueError):
    """alpha_bar at the requested step is 0 (x0 not recoverable)."""


@dataclass(frozen=True)
class VarianceSchedule:
    steps: int
    beta: np.ndarray
    alpha_bar: np.ndarray
    beta_start: float
    beta_end: float

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


def make_schedule(T: int, beta_start: float, beta_end: float) -> VarianceSchedule:
    """Linearly spaced betas; alpha_bar accumulated in 64-bit."""
    if not (1 <= T <= MAX_STEPS):
        raise ScheduleError(f"T must be in [1, {MAX_STEPS}], got {T}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ScheduleError(
            f"need 0 < beta_start <= beta_end < 1, got [{beta_start}, {beta_end}]"
        )
    beta = np.linspace(beta_start, beta_end, T, dtype=np.float64)
    alpha_bar = np.cumprod(1.0 - beta)
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
    out = np.sqrt(abar) * x0.values.astype(np.float64) + np.sqrt(
        1.0 - abar
    ) * noise.values.astype(np.float64)
    return x0.with_values(out)


def target_field(
    cond: Conditioning, channels: int, height: int, width: int
) -> LatentField:
    """The fixed point the toy chain converges to under ``cond``."""
    values = synthesize_target(cond.embedding, channels, height, width)
    return LatentField(channels, height, width, values)


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
    if abar >= 1.0:
        raise DegenerateStepError("alpha_bar == 1: nothing to predict")
    anchor = target_field(
        cond, z_t.channels, z_t.height, z_t.width
    ).values.astype(np.float64) / (1.0 + cond.guidance_scale)
    eps = (z_t.values.astype(np.float64) - np.sqrt(abar) * anchor) / np.sqrt(
        1.0 - abar
    )
    return z_t.with_values(eps)


def cfg_combine(
    eps_cond: LatentField, eps_uncond: LatentField, w: float
) -> LatentField:
    """(1 + w) * eps_cond - w * eps_uncond, elementwise."""
    _check_shapes(eps_cond, eps_uncond)
    if w < 0:
        raise ValueError(f"guidance scale must be >= 0, got {w}")
    out = (1.0 + w) * eps_cond.values.astype(np.float64) - w * eps_uncond.values.astype(
        np.float64
    )
    return eps_cond.with_values(out)


def predict_x0(
    z_t: LatentField, t: int, eps_hat: LatentField, sched: VarianceSchedule
) -> LatentField:
    """(z_t - sqrt(1 - abar_t) * eps_hat) / sqrt(abar_t), t 1-based."""
    _check_shapes(z_t, eps_hat)
    if not (1 <= t <= sched.steps):
        raise StepRangeError(f"t must be in [1, {sched.steps}], got {t}")
    abar = sched.abar(t)
    if abar <= 0.0:
        raise SingularStepError("alpha_bar == 0: x0 not recoverable")
    out = (
        z_t.values.astype(np.float64)
        - np.sqrt(1.0 - abar) * eps_hat.values.astype(np.float64)
    ) / np.sqrt(abar)
    return z_t.with_values(out)


def ddim_step(
    z_t: LatentField, t: int, eps_hat: LatentField, sched: VarianceSchedule
) -> LatentField:
    """Deterministic (eta = 0) update to step t-1."""
    if not (1 <= t <= sched.steps):
        raise StepRangeError(f"t must be in [1, {sched.steps}], got {t}")
    x0 = predict_x0(z_t, t, eps_hat, sched)
    abar_prev = sched.abar(t - 1)
    out = np.sqrt(abar_prev) * x0.values.astype(np.float64) + np.sqrt(
        1.0 - abar_prev
    ) * eps_hat.values.astype(np.float64)
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
    out = (
        z_t.values.astype(np.float64) - beta * eps_hat.values.astype(np.float64)
    ) / np.sqrt(1.0 - beta) + np.sqrt(sigma2) * noise.values.astype(np.float64)
    return z_t.with_values(out)


# The chains below run the step functions' arithmetic on plain float64
# arrays, in the same floating-point order, so their bits equal a chain of
# toy_denoiser (at guidance scale 0) -> ddim_step / ddpm_step calls: CFG
# cancels in the toy, so neither w nor CADR's g reaches their bits.  Only the
# result is wrapped (and checked finite) as a LatentField: every update
# divides by a positive scalar, never by an array, so a non-finite
# intermediate stays non-finite until the end.


def _abar_pair(sched: VarianceSchedule, t: int) -> tuple[float, float]:
    """(abar(t), abar(t - 1)), with toy_denoiser's check."""
    abar = sched.abar(t)
    if abar >= 1.0:
        raise DegenerateStepError("alpha_bar == 1: nothing to predict")
    return abar, sched.abar(t - 1)


def _eps_into(eps, z, target, abar: float) -> None:
    """eps <- (z - sqrt(abar) * target) / sqrt(1 - abar), CFG's closed form."""
    np.multiply(target, np.sqrt(abar), out=eps)
    np.subtract(z, eps, out=eps)
    np.divide(eps, np.sqrt(1.0 - abar), out=eps)


def _ddim_into(out, z, eps, abar: float, abar_prev: float) -> None:
    """out <- ddim_step(z, eps); ``out`` must not be ``z``; eps is clobbered."""
    if abar <= 0.0:
        raise SingularStepError("alpha_bar == 0: x0 not recoverable")
    np.multiply(eps, np.sqrt(1.0 - abar), out=out)
    np.subtract(z, out, out=out)
    np.divide(out, np.sqrt(abar), out=out)
    np.multiply(out, np.sqrt(abar_prev), out=out)
    np.multiply(eps, np.sqrt(1.0 - abar_prev), out=eps)
    np.add(out, eps, out=out)


def _ddim_chain(z, target, sched: VarianceSchedule, t_start: int):
    """Guided DDIM updates t_start .. 1 on the float64 array z (clobbered)."""
    eps, out = np.empty_like(z), np.empty_like(z)
    for t in range(t_start, 0, -1):
        abar, abar_prev = _abar_pair(sched, t)
        _eps_into(eps, z, target, abar)
        _ddim_into(out, z, eps, abar, abar_prev)
        z, out = out, z
    return z


def _noise_steps(seed: int, stream: int, shape):
    """Per-step noise fields, rounded to float32 like every drawn latent.

    Field i is draws [i*n, (i+1)*n) of the (seed, stream) Gaussian stream;
    each is drawn when its step asks for it.
    """
    for draws in gaussian_chunks(seed, int(np.prod(shape)), stream):
        yield draws.astype(np.float32).reshape(shape)


def base_sample(
    cond: Conditioning,
    sched: VarianceSchedule,
    sampler: str,
    seed: int,
    channels: int,
    height: int,
    width: int,
) -> LatentField:
    """Full reverse chain from seeded noise; cond.guidance_scale cancels."""
    if sampler not in SAMPLERS:
        raise ValueError(f"sampler must be one of {SAMPLERS}, got {sampler!r}")
    z = sample_gaussian_latent(channels, height, width, seed).values.copy()
    target = synthesize_target(cond.embedding, *z.shape)
    if sampler == "ddim":
        z = _ddim_chain(z, target, sched, sched.steps)
    else:
        eps = np.empty_like(z)
        noises = _noise_steps(seed, 1, z.shape)
        for t, noise in zip(range(sched.steps, 0, -1), noises):
            abar, abar_prev = _abar_pair(sched, t)
            _eps_into(eps, z, target, abar)
            beta = float(sched.beta[t - 1])
            sigma2 = beta * (1.0 - abar_prev) / (1.0 - abar)
            np.multiply(eps, beta, out=eps)
            np.subtract(z, eps, out=z)
            np.divide(z, np.sqrt(1.0 - beta), out=z)
            np.multiply(noise, np.sqrt(sigma2), out=eps, dtype=np.float64)
            np.add(z, eps, out=z)
    return LatentField(channels, height, width, z)


def strength_to_start(k: int, T_prime: int) -> StrengthMap:
    """clip(k/T', 0.01, 0.95) and the derived denoising start index."""
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
    forced_k: int | None = None,
) -> LatentField:
    """Corrective pass: re-noise z_base part-way, then denoise under cond.

    Builds a T'-step schedule from the base schedule's beta endpoints,
    maps lambda to k = round(lambda * T') (or uses ``forced_k``), derives
    (strength, t0) through strength_to_start, forward-noises z_base with
    the first noise field of the Philox stream (seed +
    CORRECTIVE_SEED_OFFSET, 0), and runs the remaining reverse steps as
    deterministic DDIM (eta = 0) updates, whatever sampler drew z_base,
    under the guided prediction in closed form, in which g cancels.
    T' == 0 returns z_base unchanged.
    In ``blend`` mode the update is the per-step convex combination
    (1 - a) * z + a * step(z) + sqrt(beta_t) * eps with a = lambda, run
    over all T' steps from z_base; the i-th step's eps is the i-th field of
    the same stream, drawn when that step runs.
    """
    T_prime = int(params.T_prime)
    if T_prime == 0:
        return z_base
    if mode not in REFINE_MODES:
        raise ValueError(f"mode must be one of {REFINE_MODES}, got {mode!r}")
    sub = make_schedule(T_prime, sched.beta_start, sched.beta_end)
    target = synthesize_target(cond.embedding, *z_base.shape)
    corr_seed = seed + CORRECTIVE_SEED_OFFSET

    if mode == "blend":
        alpha = float(params.lam)
        z = z_base.values.copy()
        eps, out = np.empty_like(z), np.empty_like(z)
        noises = _noise_steps(corr_seed, 0, z.shape)
        for t, noise in zip(range(T_prime, 0, -1), noises):
            abar, abar_prev = _abar_pair(sub, t)
            _eps_into(eps, z, target, abar)
            _ddim_into(out, z, eps, abar, abar_prev)
            np.multiply(z, 1.0 - alpha, out=z)
            np.multiply(out, alpha, out=out)
            np.add(z, out, out=z)
            sd = np.sqrt(float(sub.beta[t - 1]))
            np.multiply(noise, sd, out=out, dtype=np.float64)
            np.add(z, out, out=z)
        return z_base.with_values(z)

    if forced_k is None:
        k = int(np.floor(float(params.lam) * T_prime + 0.5))
    else:
        k = forced_k
    sm = strength_to_start(k, T_prime)
    t_start = T_prime - sm.t0
    abar = float(sub.alpha_bar[t_start - 1])
    renoise = _gaussian_stream(corr_seed, z_base.values.size).astype(np.float32)
    z = np.sqrt(abar) * z_base.values
    z += np.sqrt(1.0 - abar) * renoise.astype(np.float64).reshape(z_base.shape)
    return z_base.with_values(_ddim_chain(z, target, sub, t_start))
