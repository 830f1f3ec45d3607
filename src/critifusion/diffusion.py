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
    _check_dims,
    _fill_gaussians,
    _philox,
    sample_gaussian_latent,
)
from .latents import _gaussian_stream  # noqa: F401  perfbench's probes patch it


SAMPLERS = ("ddim", "ddpm")
REFINE_MODES = ("img2img", "blend")
# The blend corrective pass draws its noise from the (seed + offset, 0) stream.
CORRECTIVE_SEED_OFFSET = 999
MAX_STEPS = 1000  # the longest schedule, for sampling and for the corrective T'
# The chains walk the flat latent in tiles of this many values, so that their
# step buffers and noise draws stay in cache and cost no full field each.
TILE = 1 << 14


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


def make_schedule(
    T: int, beta_start: float, beta_end: float, name: str = "T"
) -> VarianceSchedule:
    """Linearly spaced betas; alpha_bar accumulated in 64-bit.

    ``name`` is what a rejected step count is called in the error.
    """
    if not (1 <= T <= MAX_STEPS):
        raise ScheduleError(f"{name} must be in [1, {MAX_STEPS}], got {T}")
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
    _check_dims(channels, height, width)  # before the field is allocated
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


# The DDPM and blend chains below run the step functions' arithmetic on
# plain float64 arrays, in the same floating-point order, so their bits
# equal a chain of toy_denoiser (at guidance scale 0) -> ddim_step /
# ddpm_step calls: CFG cancels in the toy, so neither w nor CADR's g
# reaches their bits.  Only the result is wrapped (and checked finite) as a
# LatentField: every update divides by a positive scalar, never by an
# array, so a non-finite intermediate stays non-finite until the end.
#
# Every update is elementwise, so the chains run tile by tile over the flat
# latent.  Each runs step outer, tile inner: each step reads its tiles'
# noise in stream order, which is the order of one whole-field draw.  A
# pure DDIM chain needs no code: it ends on the target (base_sample).


def _abar_pair(sched: VarianceSchedule, t: int) -> tuple[float, float]:
    """(abar(t), abar(t - 1)), with toy_denoiser's check."""
    abar = sched.abar(t)
    if abar >= 1.0:
        raise DegenerateStepError("alpha_bar == 1: nothing to predict")
    return abar, sched.abar(t - 1)


def _tiles(size: int) -> list[slice]:
    """Slices of [0, size), TILE values each but the last."""
    return [slice(lo, min(lo + TILE, size)) for lo in range(0, size, TILE)]


def _scratch(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Two float64 tile buffers, reused by every tile of a chain."""
    n = min(TILE, size)
    return np.empty(n), np.empty(n)


def _noise_into(out, gen, scale: float):
    """out <- scale * the next out.size draws of gen, each first rounded to
    float32 like every drawn latent."""
    _fill_gaussians(gen, out)
    return np.multiply(out.astype(np.float32), scale, out=out, dtype=np.float64)


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


def _ddpm_chain(z, target, sched: VarianceSchedule, gen) -> None:
    """Guided DDPM updates T .. 1 on the float64 array z, in place; step t
    adds the next field of ``gen``'s stream."""
    flat, target = z.reshape(-1), target.reshape(-1)
    eps, noise = _scratch(flat.size)
    tiles = _tiles(flat.size)
    for t in range(sched.steps, 0, -1):
        abar, abar_prev = _abar_pair(sched, t)
        beta = float(sched.beta[t - 1])
        keep = np.sqrt(1.0 - beta)
        sigma = np.sqrt(beta * (1.0 - abar_prev) / (1.0 - abar))
        for tile in tiles:
            n = tile.stop - tile.start
            zt, e = flat[tile], eps[:n]
            _eps_into(e, zt, target[tile], abar)
            np.multiply(e, beta, out=e)
            np.subtract(zt, e, out=zt)
            np.divide(zt, keep, out=zt)
            np.add(zt, _noise_into(noise[:n], gen, sigma), out=zt)


def _blend_chain(z, target, sched: VarianceSchedule, gen, alpha: float) -> None:
    """Blend updates (1 - alpha) * z + alpha * ddim(z) + sqrt(beta_t) * noise,
    T .. 1, on the float64 array z, in place; step t's noise is the next
    field of ``gen``'s stream."""
    flat, target = z.reshape(-1), target.reshape(-1)
    eps, out = _scratch(flat.size)
    tiles = _tiles(flat.size)
    for t in range(sched.steps, 0, -1):
        abar, abar_prev = _abar_pair(sched, t)
        sd = np.sqrt(float(sched.beta[t - 1]))
        for tile in tiles:
            n = tile.stop - tile.start
            zt, e, o = flat[tile], eps[:n], out[:n]
            _eps_into(e, zt, target[tile], abar)
            _ddim_into(o, zt, e, abar, abar_prev)
            np.multiply(zt, 1.0 - alpha, out=zt)
            np.multiply(o, alpha, out=o)
            np.add(zt, o, out=zt)
            np.add(zt, _noise_into(o, gen, sd), out=zt)


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
    last DDIM step returns that estimate.  DDPM runs its chain from the
    seed's latent and adds step t's noise from the next field of the
    (seed, 1) stream.
    """
    if sampler not in SAMPLERS:
        raise ValueError(f"sampler must be one of {SAMPLERS}, got {sampler!r}")
    if sampler == "ddim":
        return target_field(cond, channels, height, width)
    z = sample_gaussian_latent(channels, height, width, seed).values.copy()
    target = synthesize_target(cond.embedding, *z.shape)
    _ddpm_chain(z, target, sched, _philox(seed, 1))
    del target  # freed before the result is copied
    return LatentField(channels, height, width, z)


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
    prediction in closed form, in which g cancels; the i-th step's eps is
    the i-th field of the Philox stream (seed + CORRECTIVE_SEED_OFFSET, 0),
    drawn when that step runs.
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
    z = z_base.values.copy()
    target = synthesize_target(cond.embedding, *z.shape)
    gen = _philox(seed + CORRECTIVE_SEED_OFFSET, 0)
    _blend_chain(z, target, sub, gen, float(params.lam))
    del target  # freed before the result is copied
    return z_base.with_values(z)
