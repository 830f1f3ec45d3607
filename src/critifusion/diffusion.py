"""Variance schedules, reverse samplers, and the analytic toy denoiser.

Conventions: a schedule with T steps stores beta[0..T-1].  Chain steps are
1-based (t = T .. 1) with abar(t) = alpha_bar[t-1] and the boundary
abar(0) := 1, which makes the terminal DDIM step return the x0 estimate
and gives the terminal DDPM step zero posterior variance.  forward_noise
and toy_denoiser index alpha_bar directly (0-based t in [0, T)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import N_BASIS, synthesize_target
from .latents import LatentField, _gaussian_stream, sample_gaussian_latent


SAMPLERS = ("ddim", "ddpm")
REFINE_MODES = ("img2img", "blend")


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
    is_null: bool = False

    def __post_init__(self):
        emb = np.asarray(self.embedding, dtype=np.float64)
        if emb.shape != (N_BASIS,):
            raise ValueError(f"embedding must have length {N_BASIS}")
        if self.guidance_scale < 0:
            raise ValueError("guidance scale must be >= 0")
        emb = emb.copy()
        emb.flags.writeable = False
        object.__setattr__(self, "embedding", emb)


def null_conditioning() -> Conditioning:
    return Conditioning(np.zeros(N_BASIS), 0.0, is_null=True)


@dataclass(frozen=True)
class StrengthMap:
    k: int
    T_prime: int
    strength: float
    t0: int


def make_schedule(T: int, beta_start: float, beta_end: float) -> VarianceSchedule:
    """Linearly spaced betas; alpha_bar accumulated in 64-bit."""
    if T < 1:
        raise ScheduleError(f"T must be >= 1, got {T}")
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
    if cond.is_null:
        values = np.zeros((channels, height, width), dtype=np.float32)
    else:
        values = synthesize_target(cond.embedding, channels, height, width)
    return LatentField(channels, height, width, values)


def toy_denoiser(
    z_t: LatentField, t: int, cond: Conditioning, sched: VarianceSchedule
) -> LatentField:
    """Exact noise prediction pulling toward the conditioning's pattern.

    Returns (z_t - sqrt(abar_t) * anchor) / sqrt(1 - abar_t) where the
    anchor is the zero field for null conditioning and otherwise
    target / (1 + w).  The 1/(1+w) factor pre-compensates classifier-free
    guidance: the (1+w)/-w combination of the conditional and null branches
    reproduces the unscaled target, so the guided chain converges to
    target(cond) for every guidance scale.
    """
    if not (0 <= t < sched.steps):
        raise StepRangeError(f"t must be in [0, {sched.steps}), got {t}")
    abar = float(sched.alpha_bar[t])
    if abar >= 1.0:
        raise DegenerateStepError("alpha_bar == 1: nothing to predict")
    if cond.is_null:
        anchor = 0.0
    else:
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


def _noise_fields(
    seed: int, stream: int, count: int, channels: int, height: int, width: int
):
    """Per-step noise fields from one documented Philox stream."""
    n = channels * height * width
    draws = _gaussian_stream(seed, count * n, stream=stream).astype(np.float32)
    return [
        LatentField(channels, height, width, draws[i * n : (i + 1) * n].reshape(
            channels, height, width
        ))
        for i in range(count)
    ]


def _guided_eps(
    z: LatentField, t: int, cond: Conditioning, w: float, sched: VarianceSchedule
) -> LatentField:
    eps_c = toy_denoiser(z, t - 1, cond, sched)
    eps_u = toy_denoiser(z, t - 1, null_conditioning(), sched)
    return cfg_combine(eps_c, eps_u, w)


def base_sample(
    cond: Conditioning,
    sched: VarianceSchedule,
    sampler: str,
    seed: int,
    channels: int,
    height: int,
    width: int,
) -> LatentField:
    """Full reverse chain from seeded noise with CFG at every step."""
    if sampler not in SAMPLERS:
        raise ValueError(f"sampler must be one of {SAMPLERS}, got {sampler!r}")
    z = sample_gaussian_latent(channels, height, width, seed)
    noises = (
        _noise_fields(seed, 1, sched.steps, channels, height, width)
        if sampler == "ddpm"
        else None
    )
    w = cond.guidance_scale
    for t in range(sched.steps, 0, -1):
        eps = _guided_eps(z, t, cond, w, sched)
        if sampler == "ddim":
            z = ddim_step(z, t, eps, sched)
        else:
            z = ddpm_step(z, t, eps, sched, noises[sched.steps - t])
    return z


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
    noise seeded by seed + 999, and runs the remaining reverse steps as
    deterministic DDIM (eta = 0) updates, whatever sampler drew z_base, with
    CFG scale w = max(g - 1, 0).  T' == 0 returns z_base unchanged.
    In ``blend`` mode the update is the per-step convex combination
    (1 - a) * z + a * step(z) + sqrt(beta_t) * eps with a = lambda, run
    over all T' steps from z_base.
    """
    T_prime = int(params.T_prime)
    if T_prime == 0:
        return z_base
    if mode not in REFINE_MODES:
        raise ValueError(f"mode must be one of {REFINE_MODES}, got {mode!r}")
    sub = make_schedule(T_prime, sched.beta_start, sched.beta_end)
    w = max(float(params.g) - 1.0, 0.0)
    guided = Conditioning(cond.embedding, w, is_null=cond.is_null)
    c, h, wd = z_base.shape
    corr_seed = seed + 999

    if mode == "blend":
        alpha = float(params.lam)
        noises = _noise_fields(corr_seed, 0, T_prime, c, h, wd)
        z = z_base
        for t in range(T_prime, 0, -1):
            eps = _guided_eps(z, t, guided, w, sub)
            stepped = ddim_step(z, t, eps, sub)
            beta = float(sub.beta[t - 1])
            out = (
                (1.0 - alpha) * z.values.astype(np.float64)
                + alpha * stepped.values.astype(np.float64)
                + np.sqrt(beta) * noises[T_prime - t].values.astype(np.float64)
            )
            z = z.with_values(out)
        return z

    if forced_k is None:
        k = int(np.floor(float(params.lam) * T_prime + 0.5))
    else:
        k = forced_k
    sm = strength_to_start(k, T_prime)
    t_start = T_prime - sm.t0
    if t_start <= 0:
        return z_base
    renoise = _noise_fields(corr_seed, 0, 1, c, h, wd)[0]
    z = forward_noise(z_base, t_start - 1, sub, renoise)
    for t in range(t_start, 0, -1):
        z = ddim_step(z, t, _guided_eps(z, t, guided, w, sub), sub)
    return z
