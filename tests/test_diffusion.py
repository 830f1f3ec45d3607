"""Schedules, samplers, guidance, and the corrective pass.

The sampler checks run against an independent step-by-step trace oracle
that re-derives each update from the raw formulas using plain Python
floats, sharing no code with the implementation.  The DDPM and blend array
chains are also checked bit for bit against a reference chain of the
public step functions that takes the guided prediction in closed form,
within 1e-12 against one that builds both CFG branches, at shapes and tile
sizes where the chains' tiles cut fields and Philox blocks unevenly, and
for memory that does not grow with the step count.  DDIM sampling and the
img2img pass return the prompt's target, which the reference DDIM chains
reach within 1e-12.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from critifusion import basis, diffusion
from critifusion.basis import basis_plane, pattern_coefficients
from critifusion.diffusion import (
    Conditioning,
    MAX_STEPS,
    DegenerateStepError,
    ScheduleError,
    StepRangeError,
    VarianceSchedule,
    base_sample,
    cfg_combine,
    ddim_step,
    ddpm_step,
    forward_noise,
    img2img_refine,
    make_schedule,
    null_conditioning,
    predict_x0,
    strength_to_start,
    target_field,
    toy_denoiser,
)
from critifusion.cadr import CadrConfig, CadrParams
from critifusion.latents import LatentField, _gaussian_stream, sample_gaussian_latent


def const_field(value, c=1, h=2, w=2):
    return LatentField(c, h, w, np.full((c, h, w), float(value)))


def embedding(*indices):
    e = np.zeros(16)
    for j in indices:
        e[j] = 1.0
    return e


class TestSchedule:
    def test_single_step(self):
        s = make_schedule(1, 0.1, 0.1)
        assert np.allclose(s.alpha_bar, [0.9], atol=1e-15)

    def test_two_step_hand_product(self):
        s = make_schedule(2, 0.1, 0.2)
        assert np.allclose(s.beta, [0.1, 0.2], atol=1e-15)
        assert np.allclose(s.alpha_bar, [0.9, 0.72], atol=1e-15)

    def test_matches_independent_recomputation(self):
        s = make_schedule(50, 1e-4, 0.02)
        betas = [1e-4 + (0.02 - 1e-4) * i / 49 for i in range(50)]
        acc = 1.0
        for i, b in enumerate(betas):
            acc *= 1.0 - b
            assert abs(s.alpha_bar[i] - acc) < 1e-12
        assert all(s.alpha_bar[i + 1] < s.alpha_bar[i] for i in range(49))

    def test_range_errors(self):
        with pytest.raises(ScheduleError):
            make_schedule(0, 0.1, 0.2)
        with pytest.raises(ScheduleError):
            make_schedule(MAX_STEPS + 1, 0.1, 0.2)
        assert make_schedule(MAX_STEPS, 0.1, 0.2).steps == MAX_STEPS
        with pytest.raises(ScheduleError):
            make_schedule(5, 0.0, 0.2)
        with pytest.raises(ScheduleError):
            make_schedule(5, 0.3, 0.2)
        with pytest.raises(ScheduleError):
            make_schedule(5, 0.5, 1.0)

    def test_abar_boundary(self):
        s = make_schedule(3, 0.1, 0.1)
        assert s.abar(0) == 1.0
        assert s.abar(1) == pytest.approx(0.9, abs=1e-15)


class TestForwardNoise:
    def test_zero_noise(self):
        s = make_schedule(2, 0.1, 0.2)
        x0 = const_field(2.0)
        out = forward_noise(x0, 1, s, const_field(0.0))
        assert np.abs(out.values - math.sqrt(0.72) * 2.0).max() < 1e-12

    def test_identity_limit(self):
        s = make_schedule(1, 1e-12, 1e-12)
        x0 = sample_gaussian_latent(1, 4, 4, 0)
        out = forward_noise(x0, 0, s, sample_gaussian_latent(1, 4, 4, 1))
        assert np.abs(out.values - x0.values).max() < 1e-5

    def test_hand_sqrt028(self):
        s = make_schedule(2, 0.1, 0.2)
        out = forward_noise(const_field(0.0), 1, s, const_field(1.0))
        assert np.abs(out.values - math.sqrt(0.28)).max() < 1e-12

    def test_step_range(self):
        s = make_schedule(2, 0.1, 0.2)
        with pytest.raises(StepRangeError):
            forward_noise(const_field(0.0), 2, s, const_field(0.0))


class TestConditioning:
    @pytest.mark.parametrize(
        "embedding, scale",
        [
            (np.zeros(16), math.nan),
            (np.zeros(16), math.inf),
            (np.full(16, math.nan), 0.0),
        ],
        ids=["nan_scale", "inf_scale", "nan_embedding"],
    )
    def test_non_finite_rejected(self, embedding, scale):
        with pytest.raises(ValueError):
            Conditioning(embedding, scale)


class TestToyDenoiser:
    def test_recovers_injected_noise(self):
        s = make_schedule(5, 0.05, 0.2)
        cond = Conditioning(embedding(0, 3), 0.0)
        tgt = target_field(cond, 1, 16, 16)
        n = sample_gaussian_latent(1, 16, 16, 4)
        for t in range(5):
            z_t = forward_noise(tgt, t, s, n)
            eps = toy_denoiser(z_t, t, cond, s)
            assert np.abs(eps.values - n.values).max() < 1e-9

    def test_null_conditioning(self):
        s = make_schedule(2, 0.1, 0.2)
        z = const_field(1.5)
        eps = toy_denoiser(z, 1, null_conditioning(), s)
        assert np.abs(eps.values - 1.5 / math.sqrt(0.28)).max() < 1e-12

    def test_compose_with_predict_x0(self):
        s = make_schedule(1, 0.1, 0.1)  # alpha_bar = 0.9
        cond = Conditioning(embedding(2), 0.0)
        z = sample_gaussian_latent(1, 16, 16, 7)
        eps = toy_denoiser(z, 0, cond, s)
        x0 = predict_x0(z, 1, eps, s)
        tgt = target_field(cond, 1, 16, 16)
        assert np.abs(x0.values - tgt.values).max() < 1e-7

    def test_degenerate_step(self):
        beta = np.array([1e-300])
        s = VarianceSchedule(1, beta, np.array([1.0]), 1e-300, 1e-300)
        with pytest.raises(DegenerateStepError):
            toy_denoiser(const_field(0.0), 0, null_conditioning(), s)


class TestCfg:
    def test_w_zero(self):
        a, b = const_field(2.0), const_field(1.0)
        out = cfg_combine(a, b, 0.0)
        assert np.array_equal(out.values, a.values)

    def test_equal_predictions_cancel(self):
        a = sample_gaussian_latent(1, 4, 4, 3)
        out = cfg_combine(a, LatentField(1, 4, 4, a.values), 7.5)
        assert np.abs(out.values - a.values).max() < 1e-12

    def test_hand_case(self):
        out = cfg_combine(const_field(2.0), const_field(1.0), 3.0)
        assert np.abs(out.values - 5.0).max() < 1e-12

    def test_negative_w(self):
        with pytest.raises(ValueError):
            cfg_combine(const_field(1.0), const_field(1.0), -0.5)


class TestPredictX0:
    def test_inverts_forward(self):
        s = make_schedule(50, 1e-4, 0.02)
        x0 = sample_gaussian_latent(2, 8, 8, 5)
        n = sample_gaussian_latent(2, 8, 8, 6)
        for t in range(50):
            z_t = forward_noise(x0, t, s, n)
            back = predict_x0(z_t, t + 1, n, s)
            assert np.abs(back.values - x0.values).max() < 1e-9

    def test_zero_eps(self):
        s = make_schedule(1, 0.19, 0.19)  # alpha_bar = 0.81
        out = predict_x0(const_field(1.0), 1, const_field(0.0), s)
        assert np.abs(out.values - 1.0 / 0.9).max() < 1e-12

    def test_hand_case(self):
        # alpha_bar = 0.64: (1 - sqrt(0.36) * 0.5) / 0.8 = 0.875
        s = make_schedule(1, 0.36, 0.36)
        out = predict_x0(const_field(1.0), 1, const_field(0.5), s)
        assert np.abs(out.values - 0.875).max() < 1e-9


def two_step_64_81():
    """Schedule with alpha_bar = [0.81, 0.64]."""
    beta = np.array([0.19, 1.0 - 0.64 / 0.81])
    return VarianceSchedule(2, beta, np.cumprod(1.0 - beta), beta[0], beta[1])


class TestDdimStep:
    def test_terminal_returns_x0(self):
        s = make_schedule(1, 0.36, 0.36)
        out = ddim_step(const_field(1.0), 1, const_field(0.5), s)
        assert np.abs(out.values - 0.875).max() < 1e-9

    def test_hand_case(self):
        s = two_step_64_81()
        out = ddim_step(const_field(1.0), 2, const_field(0.5), s)
        expected = 0.9 * 0.875 + math.sqrt(0.19) * 0.5
        assert np.abs(out.values - expected).max() < 1e-9

    def test_full_chain_converges(self):
        s = make_schedule(20, 1e-4, 0.02)
        cond = Conditioning(embedding(1, 4), 0.0)
        z = sample_gaussian_latent(1, 16, 16, 13)
        for t in range(20, 0, -1):
            eps = toy_denoiser(z, t - 1, cond, s)
            z = ddim_step(z, t, eps, s)
        tgt = target_field(cond, 1, 16, 16)
        assert np.abs(z.values - tgt.values).max() < 1e-6


class TestDdpmStep:
    def test_hand_case(self):
        s = make_schedule(1, 0.1, 0.1)
        out = ddpm_step(const_field(1.0), 1, const_field(1.0), s, const_field(0.0))
        assert np.abs(out.values - 0.9 / math.sqrt(0.9)).max() < 1e-9

    def test_terminal_variance_zero(self):
        s = make_schedule(2, 0.1, 0.2)
        huge = const_field(1e6)
        a = ddpm_step(const_field(1.0), 1, const_field(0.2), s, huge)
        b = ddpm_step(const_field(1.0), 1, const_field(0.2), s, const_field(0.0))
        assert np.abs(a.values - b.values).max() < 1e-9

    def test_deterministic(self):
        s = make_schedule(3, 0.1, 0.2)
        z = sample_gaussian_latent(1, 4, 4, 1)
        eps = sample_gaussian_latent(1, 4, 4, 2)
        n = sample_gaussian_latent(1, 4, 4, 3)
        a = ddpm_step(z, 2, eps, s, n)
        b = ddpm_step(z, 2, eps, s, n)
        assert np.array_equal(a.values, b.values)

    def test_against_trace_oracle(self):
        s = make_schedule(4, 0.05, 0.3)
        z = sample_gaussian_latent(1, 4, 4, 9)
        eps = sample_gaussian_latent(1, 4, 4, 10)
        n = sample_gaussian_latent(1, 4, 4, 11)
        t = 3
        out = ddpm_step(z, t, eps, s, n)
        beta = float(s.beta[t - 1])
        abar_t = float(s.alpha_bar[t - 1])
        abar_prev = float(s.alpha_bar[t - 2])
        sigma = math.sqrt(beta * (1 - abar_prev) / (1 - abar_t))
        expected = (z.values - beta * eps.values) / math.sqrt(1 - beta) + sigma * n.values
        assert np.abs(out.values - expected).max() < 1e-12


class TestBaseSample:
    def test_ddim_converges_for_any_seed(self):
        s = make_schedule(5, 1e-4, 0.02)
        cond = Conditioning(embedding(0), 0.0)
        tgt = target_field(cond, 1, 16, 16)
        for seed in (0, 1, 99):
            out = base_sample(cond, s, "ddim", seed, 1, 16, 16)
            assert np.abs(out.values - tgt.values).max() < 1e-6

    def test_ddpm_deterministic(self):
        s = make_schedule(10, 1e-4, 0.02)
        cond = Conditioning(embedding(3), 0.0)
        a = base_sample(cond, s, "ddpm", 5, 1, 16, 16)
        b = base_sample(cond, s, "ddpm", 5, 1, 16, 16)
        assert np.array_equal(a.values, b.values)

    def test_guidance_invariant_fixed_point(self):
        s = make_schedule(10, 1e-4, 0.02)
        tgt = target_field(Conditioning(embedding(2), 0.0), 1, 16, 16)
        for w in (0.0, 4.0):
            cond = Conditioning(embedding(2), w)
            out = base_sample(cond, s, "ddim", 7, 1, 16, 16)
            assert np.abs(out.values - tgt.values).max() < 1e-5

    def test_unknown_sampler(self):
        s = make_schedule(2, 0.1, 0.2)
        with pytest.raises(ValueError):
            base_sample(null_conditioning(), s, "euler", 0, 1, 4, 4)

    def test_ddim_trace_oracle(self):
        """Replay the guided chain step by step from the raw formulas."""
        T = 4
        s = make_schedule(T, 1e-3, 0.05)
        cond = Conditioning(embedding(1), 2.0)
        out = base_sample(cond, s, "ddim", 3, 1, 16, 16)

        z = sample_gaussian_latent(1, 16, 16, 3).values.copy()
        w = 2.0
        tgt = target_field(Conditioning(embedding(1), 0.0), 1, 16, 16).values
        for t in range(T, 0, -1):
            abar_t = float(s.alpha_bar[t - 1])
            eps_c = (z - math.sqrt(abar_t) * tgt / (1 + w)) / math.sqrt(1 - abar_t)
            eps_u = z / math.sqrt(1 - abar_t)
            eps = (1 + w) * eps_c - w * eps_u
            x0 = (z - math.sqrt(1 - abar_t) * eps) / math.sqrt(abar_t)
            abar_prev = 1.0 if t == 1 else float(s.alpha_bar[t - 2])
            z = math.sqrt(abar_prev) * x0 + math.sqrt(1 - abar_prev) * eps
        assert np.abs(out.values - z).max() < 1e-9


class TestStrengthMap:
    def test_upper_clamp(self):
        m = strength_to_start(30, 30)
        assert m.strength == 0.95
        assert m.t0 == 1

    def test_lower_clamp(self):
        m = strength_to_start(0, 30)
        assert m.strength == 0.01
        assert m.t0 == 29

    def test_k45_t50(self):
        m = strength_to_start(45, 50)
        assert m.strength == pytest.approx(0.9, abs=1e-15)
        assert m.t0 == 5

    def test_exhaustive_grid(self):
        from fractions import Fraction

        for T in range(1, 51):
            prev = -1.0
            for k in range(T + 1):
                m = strength_to_start(k, T)
                exact = min(max(Fraction(k, T), Fraction(1, 100)), Fraction(95, 100))
                assert m.strength == pytest.approx(float(exact), abs=1e-15)
                assert m.t0 == math.floor((1 - exact) * T)
                assert m.strength >= prev
                prev = m.strength

    def test_range_errors(self):
        with pytest.raises(StepRangeError):
            strength_to_start(5, 0)
        with pytest.raises(StepRangeError):
            strength_to_start(31, 30)


class TestImg2Img:
    def test_skip_bit_exact(self):
        z = sample_gaussian_latent(1, 16, 16, 0)
        params = CadrParams(lam=0.12, g=3.6, T_prime=0, rho=0.6)
        s = make_schedule(50, 1e-4, 0.02)
        out = img2img_refine(z, Conditioning(embedding(0), 0.0), params, s, 0)
        assert out is z

    def test_full_strength_reaches_target(self):
        z = sample_gaussian_latent(1, 16, 16, 12)
        cond = Conditioning(embedding(0, 5), 5.0)
        params = CadrParams(lam=0.30, g=5.0, T_prime=30, rho=0.85)
        s = make_schedule(50, 1e-4, 0.02)
        out = img2img_refine(z, cond, params, s, 12)
        tgt = target_field(Conditioning(embedding(0, 5), 0.0), 1, 16, 16)
        assert np.abs(out.values - tgt.values).max() < 1e-4

    def test_deterministic(self):
        z = sample_gaussian_latent(1, 16, 16, 2)
        cond = Conditioning(embedding(1), 4.0)
        params = CadrParams(lam=0.2, g=4.0, T_prime=20, rho=0.7)
        s = make_schedule(50, 1e-4, 0.02)
        a = img2img_refine(z, cond, params, s, 2)
        b = img2img_refine(z, cond, params, s, 2)
        assert np.array_equal(a.values, b.values)

    def test_layout_preservation_small_lambda(self):
        from critifusion.spectral import TaperSpec, build_lowpass_mask, forward_spectrum

        cond0 = Conditioning(embedding(0), 0.0)
        s = make_schedule(50, 1e-4, 0.02)
        z_base = base_sample(cond0, s, "ddpm", 3, 1, 32, 32)
        params = CadrParams(lam=0.12, g=3.6, T_prime=16, rho=0.6)
        z_ref = img2img_refine(z_base, Conditioning(embedding(0, 1), 3.6), params, s, 3)
        mask = build_lowpass_mask(32, 32, 0.25, TaperSpec(0.0)).weights
        d = forward_spectrum(z_ref).coefficients - forward_spectrum(z_base).coefficients
        low = np.linalg.norm(mask * d[0])
        high = np.linalg.norm((1 - mask) * d[0])
        assert low <= high

    def test_blend_mode_runs(self):
        z = sample_gaussian_latent(1, 16, 16, 8)
        cond = Conditioning(embedding(3), 4.0)
        params = CadrParams(lam=0.25, g=4.0, T_prime=10, rho=0.7)
        s = make_schedule(50, 1e-4, 0.02)
        out = img2img_refine(z, cond, params, s, 8, mode="blend")
        assert out.shape == z.shape
        assert not np.array_equal(out.values, z.values)

    def test_bad_mode(self):
        z = sample_gaussian_latent(1, 16, 16, 8)
        params = CadrParams(lam=0.25, g=4.0, T_prime=10, rho=0.7)
        s = make_schedule(50, 1e-4, 0.02)
        with pytest.raises(ValueError):
            img2img_refine(z, null_conditioning(), params, s, 8, mode="banana")


class TestGuidanceIsExact:
    """The toy's guidance scale does not move a chain's bits.

    With the anchor T / (1 + w), the guided prediction
    (1 + w)(z - sqrt(abar) T / (1 + w)) / sqrt(1 - abar) - w z / sqrt(1 - abar)
    is (z - sqrt(abar) T) / sqrt(1 - abar) for every w, and the chains
    compute that closed form, which reads neither w nor CADR's g.
    """

    @pytest.mark.parametrize("sampler", ["ddim", "ddpm"])
    def test_base_guidance(self, sampler):
        s = make_schedule(50, 1e-4, 0.02)
        a, b = (
            base_sample(Conditioning(embedding(0, 2, 8), w), s, sampler, 3, 4, 32, 32)
            for w in (0.0, 7.5)
        )
        assert a.values.tobytes() == b.values.tobytes()

    @pytest.mark.parametrize("mode", ["img2img", "blend"])
    @pytest.mark.parametrize("sampler", ["ddim", "ddpm"])
    def test_refine_guidance(self, sampler, mode):
        s = make_schedule(50, 1e-4, 0.02)
        z_base = base_sample(Conditioning(embedding(0, 2, 8)), s, sampler, 3, 4, 32, 32)
        cond = Conditioning(embedding(0, 1, 2, 3, 8, 9))
        a, b = (
            img2img_refine(
                z_base, cond, CadrParams(lam=0.3, g=g, T_prime=20, rho=0.85), s, 3,
                mode=mode,
            )
            for g in (1.0, 5.0)
        )
        assert a.values.tobytes() == b.values.tobytes()


class TestTargetField:
    def test_null_is_zero(self):
        f = target_field(null_conditioning(), 2, 16, 16)
        assert np.array_equal(f.values, np.zeros((2, 16, 16)))

    def test_coefficients_readable(self):
        cond = Conditioning(embedding(0, 7), 0.0)
        f = target_field(cond, 1, 32, 32)
        coefs = pattern_coefficients(f.values)
        for j in range(16):
            want = 1.0 if j in (0, 7) else 0.0
            assert abs(coefs[j] - want) < 1e-9

    def test_basis_orthogonality(self):
        planes = [basis_plane(j, 32, 32) for j in range(16)]
        for i in range(16):
            for j in range(i + 1, 16):
                assert abs(np.sum(planes[i] * planes[j])) < 1e-9


def reference_coefficients(values):
    """<x, p_j> / <p_j, p_j> per channel, then averaged, one plane at a time."""
    _, h, w = values.shape
    out = []
    for j in range(16):
        plane = basis_plane(j, h, w)
        per_channel = np.tensordot(values, plane, axes=([1, 2], [0, 1]))
        out.append(per_channel.mean() / np.sum(plane * plane))
    return np.array(out)


class TestPatternCoefficients:
    @pytest.mark.parametrize("shape", [(1, 16, 16), (4, 17, 23), (4, 64, 64)])
    def test_matches_per_pattern_projection(self, shape):
        values = np.random.default_rng(sum(shape)).standard_normal(shape)
        got, want = pattern_coefficients(values), reference_coefficients(values)
        assert got.shape == (16,)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_cosine_tables_are_built_once_and_read_only(self):
        # Every caller gets the same memoised table, so none may write to it.
        table = basis._cosines((7, 6), 16)
        assert basis._cosines((7, 6), 16) is table
        with pytest.raises(ValueError):
            table[0, 0] = 0.0


# Reference chains: one LatentField per step-function call, all noise drawn
# up front.  With the closed-form prediction the DDPM and blend chains must
# reproduce these bits exactly; with the two-branch CFG prediction, to
# within 1e-12.  DDIM sampling and the img2img pass return the target in
# closed form: the reference DDIM chain ends on its last x0 estimate, which
# is the target up to rounding, so they agree within 1e-12.


def ref_noise_fields(seed, stream, count, c, h, w):
    n = c * h * w
    draws = _gaussian_stream(seed, count * n, stream=stream).astype(np.float32)
    return [
        LatentField(c, h, w, draws[i * n : (i + 1) * n].reshape(c, h, w))
        for i in range(count)
    ]


def ref_guided_eps(z, t, cond, w, sched):
    """The guided prediction in closed form: toy_denoiser at scale 0."""
    return toy_denoiser(z, t - 1, Conditioning(cond.embedding), sched)


def two_branch_eps(z, t, cond, w, sched):
    """CFG as written: (1 + w) * eps_cond - w * eps_null."""
    eps_c = toy_denoiser(z, t - 1, cond, sched)
    eps_u = toy_denoiser(z, t - 1, null_conditioning(), sched)
    return cfg_combine(eps_c, eps_u, w)


def ref_base_sample(cond, sched, sampler, seed, c, h, w, guided_eps=ref_guided_eps):
    z = sample_gaussian_latent(c, h, w, seed)
    noises = ref_noise_fields(seed, 1, sched.steps, c, h, w)
    for t in range(sched.steps, 0, -1):
        eps = guided_eps(z, t, cond, cond.guidance_scale, sched)
        if sampler == "ddim":
            z = ddim_step(z, t, eps, sched)
        else:
            z = ddpm_step(z, t, eps, sched, noises[sched.steps - t])
    return z


def ref_refine(
    z_base, cond, params, sched, seed, mode, guided_eps=ref_guided_eps, k=None
):
    """The paper's corrective pass; img2img starts at k = round(lam * T')
    unless ``k`` is given."""
    T_prime = params.T_prime
    sub = make_schedule(T_prime, sched.beta_start, sched.beta_end)
    w = max(params.g - 1.0, 0.0)
    guided = Conditioning(cond.embedding, w)
    c, h, wd = z_base.shape
    noises = ref_noise_fields(seed + 999, 0, T_prime, c, h, wd)
    if mode == "blend":
        z = z_base
        for t in range(T_prime, 0, -1):
            stepped = ddim_step(z, t, guided_eps(z, t, guided, w, sub), sub)
            out = (
                (1.0 - params.lam) * z.values
                + params.lam * stepped.values
                + np.sqrt(float(sub.beta[t - 1])) * noises[T_prime - t].values
            )
            z = z.with_values(out)
        return z
    if k is None:
        k = int(np.floor(params.lam * T_prime + 0.5))
    t_start = T_prime - strength_to_start(k, T_prime).t0
    z = forward_noise(z_base, t_start - 1, sub, noises[0])
    for t in range(t_start, 0, -1):
        z = ddim_step(z, t, guided_eps(z, t, guided, w, sub), sub)
    return z


def conditioning(kind, w):
    if kind == "null":
        return Conditioning(np.zeros(16), w)
    return Conditioning(embedding(1, 6, 11), w)


# 3 x 17 x 18 = 918 values per field, not a multiple of Philox's 4-word
# block, so consecutive noise steps start mid-block.
DIMS = (3, 17, 18)

# DDIM sampling and the img2img pass are closed forms of a reference chain.
CLOSED_FORMS = {"ddim", "img2img"}
CLOSED_FORM_TOL = 1e-12


def assert_matches_reference(out, ref, sampler_or_mode):
    """Bit for bit for a chain; within CLOSED_FORM_TOL for a closed form."""
    if sampler_or_mode in CLOSED_FORMS:
        assert np.abs(out.values - ref.values).max() <= CLOSED_FORM_TOL
    else:
        assert out.values.tobytes() == ref.values.tobytes()


class TestChainsMatchStepFunctions:
    @pytest.mark.parametrize("kind", ["prompt", "null"])
    @pytest.mark.parametrize("w", [0.0, 3.0])
    @pytest.mark.parametrize("sampler", ["ddim", "ddpm"])
    def test_base_sample(self, sampler, w, kind):
        s = make_schedule(12, 1e-3, 0.05)
        cond = conditioning(kind, w)
        out = base_sample(cond, s, sampler, 4, *DIMS)
        ref = ref_base_sample(cond, s, sampler, 4, *DIMS)
        assert_matches_reference(out, ref, sampler)
        cfg = ref_base_sample(cond, s, sampler, 4, *DIMS, guided_eps=two_branch_eps)
        assert np.abs(out.values - cfg.values).max() < 1e-12

    @pytest.mark.parametrize("kind", ["prompt", "null"])
    @pytest.mark.parametrize("g", [1.0, 4.0])  # w = 0 and w = 3
    @pytest.mark.parametrize("mode", ["img2img", "blend"])
    def test_refine(self, mode, g, kind):
        s = make_schedule(50, 1e-4, 0.02)
        z_base = base_sample(conditioning("prompt", 0.0), s, "ddpm", 2, *DIMS)
        params = CadrParams(lam=0.3, g=g, T_prime=14, rho=0.7)
        cond = conditioning(kind, 0.0)
        out = img2img_refine(z_base, cond, params, s, 2, mode=mode)
        ref = ref_refine(z_base, cond, params, s, 2, mode)
        assert not np.array_equal(out.values, z_base.values)
        assert_matches_reference(out, ref, mode)
        cfg = ref_refine(z_base, cond, params, s, 2, mode, guided_eps=two_branch_eps)
        assert np.abs(out.values - cfg.values).max() < 1e-12


# The chains walk the flat latent in tiles of diffusion.TILE values; the
# reference chains walk whole fields.  Neither shape below is a multiple of
# the tile, and tiles of 5 and 918 values (not multiples of 4) make each
# tile's noise start mid-way through a Philox block.
TILED = [
    ((3, 17, 23), None),
    ((3, 17, 23), 5),
    ((3, 17, 23), 918),
    ((4, 130, 130), None),
    ((4, 130, 130), 918),
]


def tiled_id(case):
    dims, tile = case
    return "x".join(map(str, dims)) + f"-tile{tile or diffusion.TILE}"


class TestTiledChains:
    @pytest.fixture(params=TILED, ids=tiled_id)
    def dims(self, request, monkeypatch):
        dims, tile = request.param
        if tile is not None:
            monkeypatch.setattr(diffusion, "TILE", tile)
        return dims

    @pytest.mark.parametrize("sampler", ["ddim", "ddpm"])
    def test_base_sample(self, dims, sampler):
        s = make_schedule(6, 1e-3, 0.05)
        cond = conditioning("prompt", 3.0)
        out = base_sample(cond, s, sampler, 4, *dims)
        ref = ref_base_sample(cond, s, sampler, 4, *dims)
        assert_matches_reference(out, ref, sampler)

    @pytest.mark.parametrize("mode", ["img2img", "blend"])
    def test_refine(self, dims, mode):
        s = make_schedule(50, 1e-4, 0.02)
        z_base = sample_gaussian_latent(*dims, 8)
        params = CadrParams(lam=0.5, g=4.0, T_prime=6, rho=0.7)
        cond = conditioning("prompt", 0.0)
        out = img2img_refine(z_base, cond, params, s, 2, mode=mode)
        ref = ref_refine(z_base, cond, params, s, 2, mode)
        assert_matches_reference(out, ref, mode)


class TestChainDraws:
    """A chain draws one field per step that adds noise, through
    ``diffusion._fill_gaussians``; the seed latent is drawn apart."""

    def test_ddpm_skips_the_last_step_and_blend_draws_every_step(self, monkeypatch):
        dims = (4, 130, 130)  # several tiles, the last one short
        s = make_schedule(6, 1e-3, 0.05)
        cond = conditioning("prompt", 3.0)
        params = CadrParams(lam=0.5, g=4.0, T_prime=5, rho=0.7)
        plain_base = base_sample(cond, s, "ddpm", 4, *dims)
        plain_ref = img2img_refine(plain_base, cond, params, s, 2, mode="blend")

        draws, fill = [], diffusion._fill_gaussians

        def counting(gen, out):
            draws.append(out.size)
            return fill(gen, out)

        monkeypatch.setattr(diffusion, "_fill_gaussians", counting)
        z_base = base_sample(cond, s, "ddpm", 4, *dims)
        # sigma_1 = 0, so step 1 draws nothing.
        assert sum(draws) == (s.steps - 1) * math.prod(dims)
        draws.clear()
        z_ref = img2img_refine(z_base, cond, params, s, 2, mode="blend")
        assert sum(draws) == params.T_prime * math.prod(dims)
        assert z_base.values.tobytes() == plain_base.values.tobytes()
        assert z_ref.values.tobytes() == plain_ref.values.tobytes()


class TestImg2ImgClosedForm:
    """The img2img pass is the enhanced target for every lambda, T', k, g,
    seed and base sampler: the paper's chain from any start lands there."""

    @settings(max_examples=60, deadline=None)
    @given(
        lam=st.floats(0.0, 1.0),
        T_prime=st.integers(1, CadrConfig().t_max),
        k_share=st.floats(0.0, 1.0),
        g=st.floats(1.0, 8.0),
        seed=st.integers(0, 2**32 - 1),
        sampler=st.sampled_from(["ddim", "ddpm"]),
        dims=st.sampled_from([(3, 17, 23), (1, 16, 16), (2, 19, 31)]),
        enhanced=st.sets(st.integers(0, 15), min_size=1),
    )
    def test_matches_the_chain_from_every_start(
        self, lam, T_prime, k_share, g, seed, sampler, dims, enhanced
    ):
        k = 1 + int(k_share * (T_prime - 1))  # in [1, T']
        s = make_schedule(12, 1e-4, 0.02)
        z_base = base_sample(conditioning("prompt", 0.0), s, sampler, seed, *dims)
        cond = Conditioning(embedding(*enhanced))
        params = CadrParams(lam=lam, g=g, T_prime=T_prime, rho=0.7)
        z_ref = img2img_refine(z_base, cond, params, s, seed)
        ref = ref_refine(z_base, cond, params, s, seed, "img2img", k=k)
        assert np.abs(z_ref.values - ref.values).max() <= CLOSED_FORM_TOL
        target = target_field(cond, *dims).values
        assert np.array_equal(
            pattern_coefficients(z_ref.values), pattern_coefficients(target)
        )


def peak_bytes(fn):
    """Peak traced allocation of ``fn()``.  numpy imports ``numpy.random``
    on first use, so one draw is made first and a first Gaussian draw does
    not count that import as field memory."""
    _gaussian_stream(0, 1)
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """Peak memory is a few fields, whatever the step count.

    Both chains peak at 2.76 fields here: the latent, the target, the
    result's copy and the tiles' buffers.  The limit adds about three
    quarters of a field.
    """

    C, H, W = 4, 128, 128
    FIELD = 8 * C * H * W  # one float64 field
    LIMIT = 3.5 * FIELD

    def base_peak(self, steps):
        s = make_schedule(steps, 1e-4, 0.02)
        cond = Conditioning(embedding(1, 5), 3.0)
        dims = (self.C, self.H, self.W)
        return peak_bytes(lambda: base_sample(cond, s, "ddpm", 0, *dims))

    def blend_peak(self, steps):
        s = make_schedule(50, 1e-4, 0.02)
        z = sample_gaussian_latent(self.C, self.H, self.W, 1)
        params = CadrParams(lam=0.25, g=4.0, T_prime=steps, rho=0.7)
        cond = Conditioning(embedding(1, 5), 0.0)
        return peak_bytes(lambda: img2img_refine(z, cond, params, s, 0, mode="blend"))

    @pytest.mark.parametrize("peak", ["base_peak", "blend_peak"])
    def test_peak_is_bounded_and_flat_in_steps(self, peak):
        short, long = getattr(self, peak)(10), getattr(self, peak)(100)
        assert short < self.LIMIT
        assert long < self.LIMIT
        assert long < short + self.FIELD // 8
