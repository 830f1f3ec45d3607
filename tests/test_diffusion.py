"""Schedules, samplers, guidance, and the corrective pass.

The sampler checks run against an independent step-by-step trace oracle
that re-derives each update from the raw formulas using plain Python
floats, sharing no code with the implementation.  The DDPM sample and the
blend pass are returned in closed form, A * z + c * T + sqrt(v) * n for one
standard draw n: chains of the public step functions check (A, c, v)
within 1e-12, with the guided prediction in closed form and with both CFG
branches, and each entry point equals the step functions' chain driven by
multiples of its one draw within 1e-12.  DDIM sampling and the img2img
pass return the prompt's target, which the reference DDIM chains reach
within 1e-12.  Memory does not grow with the step count.
"""

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from critifusion import basis, diffusion, latents
from critifusion.basis import basis_plane, pattern_coefficients
from critifusion.diffusion import (
    CORRECTIVE_SEED_OFFSET,
    Conditioning,
    MAX_STEPS,
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
        # alpha_bar must lie in (0, 1).  1 - beta_start rounds to 1 up to
        # 2**-54, about 5.6e-17, so such a first step adds no noise.
        for beta_start in (1e-17, 2.0**-54):
            with pytest.raises(ScheduleError, match="beta_start"):
                make_schedule(5, beta_start, 0.02)
        assert make_schedule(5, 6e-17, 0.02).alpha_bar[0] < 1.0
        # 262 steps of betas near 1 take alpha_bar below the least double.
        with pytest.raises(ScheduleError, match="underflows"):
            make_schedule(262, 0.99, 0.999)
        assert make_schedule(100, 0.99, 0.999).alpha_bar[-1] > 0.0

    @settings(max_examples=20, deadline=None)
    @given(betas=st.tuples(st.floats(0.05, 1.0 - 1e-16), st.floats(0.05, 1.0 - 1e-16)))
    def test_underflow_is_monotone_in_the_step_count(self, betas):
        """Past the first T at which alpha_bar underflows, every longer
        schedule underflows too: a config that builds its longest
        corrective schedule builds every shorter T'."""
        builds = []
        for T in range(1, MAX_STEPS + 1):
            try:
                make_schedule(T, *sorted(betas))
            except ScheduleError:
                builds.append(False)
            else:
                builds.append(True)
        assert builds == sorted(builds, reverse=True)

    def test_memoised_per_key_and_read_only(self):
        s = make_schedule(37, 1e-4, 0.02)
        # The error label is not part of the key.
        assert make_schedule(37, 1e-4, 0.02, "T'") is s
        assert make_schedule(38, 1e-4, 0.02) is not s
        for values in (s.beta, s.alpha_bar):
            with pytest.raises(ValueError):
                values[0] = 0.5

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

    def test_shape_mismatch(self):
        s = make_schedule(2, 0.1, 0.2)
        with pytest.raises(ValueError, match="shape mismatch"):
            forward_noise(const_field(0.0), 1, s, const_field(0.0, h=3))


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

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            Conditioning(np.zeros(15))

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            Conditioning(np.zeros(16), -1.0)


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

    def test_step_range(self):
        s = make_schedule(2, 0.1, 0.2)
        for t in (-1, 2):  # toy_denoiser indexes alpha_bar from 0
            with pytest.raises(StepRangeError):
                toy_denoiser(const_field(0.0), t, null_conditioning(), s)

    def test_degenerate_step(self):
        # alpha_bar == 1 leaves nothing to predict: no such schedule builds.
        beta = np.array([1e-300])
        with pytest.raises(ScheduleError):
            VarianceSchedule(1, beta, np.array([1.0]), 1e-300, 1e-300)


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

    def test_step_range(self):
        s = two_step_64_81()
        for t in (0, 3):
            with pytest.raises(StepRangeError):
                ddim_step(const_field(1.0), t, const_field(0.5), s)

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

    def test_step_range(self):
        s = make_schedule(2, 0.1, 0.2)
        for t in (0, 3):
            with pytest.raises(StepRangeError):
                ddpm_step(const_field(1.0), t, const_field(0.2), s, const_field(0.0))

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

    def test_weights_of_the_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            basis.synthesize_target(np.zeros(15), 1, 16, 16)

    @pytest.mark.parametrize("index", [-1, 16])
    def test_basis_index_out_of_range_rejected(self, index):
        with pytest.raises(ValueError, match="basis index"):
            basis.basis_frequencies(index, 16, 16)

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


# Reference chains: one LatentField per step-function call.  DDIM sampling
# and the img2img pass return the target in closed form: the reference DDIM
# chain ends on its last x0 estimate, which is the target up to rounding,
# so they agree within 1e-12.  The DDPM and blend chains are affine in z,
# in the target and in each step's noise, so they are returned as
# A * z + c * T + sqrt(v) * n for one standard draw n; the step-function
# chains check (A, c, v) within 1e-12, and the closed form reaches the
# entry points' bits.


def ref_guided_eps(z, t, cond, w, sched):
    """The guided prediction in closed form: toy_denoiser at scale 0."""
    return toy_denoiser(z, t - 1, Conditioning(cond.embedding), sched)


def two_branch_eps(z, t, cond, w, sched):
    """CFG as written: (1 + w) * eps_cond - w * eps_null."""
    eps_c = toy_denoiser(z, t - 1, cond, sched)
    eps_u = toy_denoiser(z, t - 1, null_conditioning(), sched)
    return cfg_combine(eps_c, eps_u, w)


def ddpm_chain(z, cond, sched, noises, guided_eps=ref_guided_eps):
    """DDPM steps T .. 1 from z; step t adds noises[T - t]."""
    for t in range(sched.steps, 0, -1):
        eps = guided_eps(z, t, cond, cond.guidance_scale, sched)
        z = ddpm_step(z, t, eps, sched, noises[sched.steps - t])
    return z


def blend_chain(z, cond, lam, sched, noises, guided_eps=ref_guided_eps):
    """The blend pass's steps T' .. 1 from z; step t adds
    sqrt(beta_t) * noises[T' - t]."""
    for t in range(sched.steps, 0, -1):
        eps = guided_eps(z, t, cond, cond.guidance_scale, sched)
        stepped = ddim_step(z, t, eps, sched)
        out = (
            (1.0 - lam) * z.values
            + lam * stepped.values
            + np.sqrt(float(sched.beta[t - 1])) * noises[sched.steps - t].values
        )
        z = z.with_values(out)
    return z


def zero_noise(steps, c, h, w):
    return [LatentField(c, h, w, np.zeros((c, h, w)))] * steps


def unit_gains(chain, steps):
    """(A, gains) of a chain ``chain(z, noises)`` under the null
    conditioning, from one run: channel 0 starts at 1 and gets no noise,
    channel i starts at 0 and gets unit noise at the i-th step only."""
    eye = np.eye(steps + 1)[:, :, None, None] * np.ones((steps + 1, 2, 2))
    fields = [LatentField(steps + 1, 2, 2, values) for values in eye]
    out = chain(fields[0], fields[1:])
    return out.values[0, 0, 0], out.values[1:, 0, 0]


def ref_img2img(z_base, cond, params, sched, seed, guided_eps=ref_guided_eps, k=None):
    """The paper's img2img pass: re-noise to k = round(lam * T') unless
    ``k`` is given, then DDIM steps."""
    T_prime = params.T_prime
    sub = make_schedule(T_prime, sched.beta_start, sched.beta_end)
    w = max(params.g - 1.0, 0.0)
    guided = Conditioning(cond.embedding, w)
    noise = sample_gaussian_latent(*z_base.shape, seed + CORRECTIVE_SEED_OFFSET)
    if k is None:
        k = int(np.floor(params.lam * T_prime + 0.5))
    t_start = T_prime - strength_to_start(k, T_prime).t0
    z = forward_noise(z_base, t_start - 1, sub, noise)
    for t in range(t_start, 0, -1):
        z = ddim_step(z, t, guided_eps(z, t, guided, w, sub), sub)
    return z


def ref_ddim_sample(cond, sched, seed, c, h, w, guided_eps=ref_guided_eps):
    z = sample_gaussian_latent(c, h, w, seed)
    for t in range(sched.steps, 0, -1):
        z = ddim_step(z, t, guided_eps(z, t, cond, cond.guidance_scale, sched), sched)
    return z


def conditioning(kind, w):
    if kind == "null":
        return Conditioning(np.zeros(16), w)
    return Conditioning(embedding(1, 6, 11), w)


DIMS = (3, 17, 18)  # odd sizes

CLOSED_FORM_TOL = 1e-12


class TestChainsMatchStepFunctions:
    """Each entry point is a run of the public step functions within 1e-12.

    For DDPM and blend that run is the one whose starting latent (DDPM)
    and step noises are multiples of the entry point's single draw n:
    with z_T = (A / s) n and step i's noise (g_i / s) n, where g_i is step
    i's gain and s^2 = A^2 + sum g_i^2 (or sum g_i^2 for blend), the chain
    ends on c * T + s * n, the closed form.
    """

    @pytest.mark.parametrize("kind", ["prompt", "null"])
    @pytest.mark.parametrize("w", [0.0, 3.0])
    @pytest.mark.parametrize("sampler", ["ddim", "ddpm"])
    def test_base_sample(self, sampler, w, kind):
        s = make_schedule(12, 1e-3, 0.05)
        cond = conditioning(kind, w)
        out = base_sample(cond, s, sampler, 4, *DIMS)
        if sampler == "ddpm":
            A, gains = unit_gains(
                lambda z, noises: ddpm_chain(z, null_conditioning(), s, noises), s.steps
            )
            n = sample_gaussian_latent(*DIMS, 4)
            scale = math.sqrt(A * A + np.sum(gains**2))
            z_T = n.with_values(A / scale * n.values)
            noises = [n.with_values(g / scale * n.values) for g in gains]
        for guided_eps in (ref_guided_eps, two_branch_eps):
            if sampler == "ddim":
                ref = ref_ddim_sample(cond, s, 4, *DIMS, guided_eps=guided_eps)
            else:
                ref = ddpm_chain(z_T, cond, s, noises, guided_eps)
            assert np.abs(out.values - ref.values).max() <= CLOSED_FORM_TOL

    @pytest.mark.parametrize("kind", ["prompt", "null"])
    @pytest.mark.parametrize("g", [1.0, 4.0])  # w = 0 and w = 3
    @pytest.mark.parametrize("mode", ["img2img", "blend"])
    def test_refine(self, mode, g, kind):
        s = make_schedule(50, 1e-4, 0.02)
        z_base = base_sample(conditioning("prompt", 0.0), s, "ddpm", 2, *DIMS)
        params = CadrParams(lam=0.3, g=g, T_prime=14, rho=0.7)
        cond = conditioning(kind, 0.0)
        out = img2img_refine(z_base, cond, params, s, 2, mode=mode)
        assert not np.array_equal(out.values, z_base.values)
        if mode == "blend":
            sub = make_schedule(params.T_prime, s.beta_start, s.beta_end)
            _, gains = unit_gains(
                lambda z, noises: blend_chain(
                    z, null_conditioning(), params.lam, sub, noises
                ),
                sub.steps,
            )
            n = sample_gaussian_latent(*DIMS, 2 + CORRECTIVE_SEED_OFFSET)
            scale = math.sqrt(np.sum(gains**2))
            noises = [n.with_values(g_i / scale * n.values) for g_i in gains]
            guided = Conditioning(cond.embedding, g - 1.0)
        for guided_eps in (ref_guided_eps, two_branch_eps):
            if mode == "img2img":
                ref = ref_img2img(z_base, cond, params, s, 2, guided_eps)
            else:
                ref = blend_chain(z_base, guided, params.lam, sub, noises, guided_eps)
            assert np.abs(out.values - ref.values).max() <= CLOSED_FORM_TOL


BETAS = st.tuples(st.floats(1e-6, 0.99), st.floats(1e-6, 0.99)).map(sorted)
ODD_SHAPES = st.sampled_from([(1, 16, 17), (3, 17, 23), (2, 19, 31), (5, 21, 16)])


class TestGaussianChain:
    """``_gaussian_chain``'s (A, c, v) against chains of the public step
    functions, and the entry points against the closed form over the draw."""

    @settings(max_examples=40, deadline=None)
    @given(
        T=st.integers(1, 200),
        betas=BETAS,
        lam=st.floats(0.0, 1.0),
        w=st.floats(0.0, 8.0),
        dims=ODD_SHAPES,
        sampler=st.sampled_from(["ddpm", "blend"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_coefficients_match_the_step_functions(
        self, T, betas, lam, w, dims, sampler, seed
    ):
        abar = 1.0  # the schedule's last alpha_bar, in plain floats
        for beta in np.linspace(*betas, T):
            abar *= 1.0 - float(beta)
        if abar == 0.0:
            with pytest.raises(ScheduleError, match="underflows"):
                make_schedule(T, *betas)
            return
        s = make_schedule(T, *betas)
        cond = Conditioning(embedding(1, 6, 11), w)

        def chain(z, cond, noises, eps=ref_guided_eps):
            if sampler == "ddpm":
                return ddpm_chain(z, cond, s, noises, eps)
            return blend_chain(z, cond, lam, s, noises, eps)

        if sampler == "ddpm":
            step = diffusion._ddpm_coefficients
        else:
            step = partial(diffusion._blend_coefficients, lam)
        A, c, v = diffusion._gaussian_chain(s, step)
        z = sample_gaussian_latent(*dims, seed)
        target = target_field(cond, *dims).values
        for eps in (ref_guided_eps, two_branch_eps):
            out = chain(z, cond, zero_noise(T, *dims), eps)
            assert np.abs(out.values - (A * z.values + c * target)).max() <= 1e-12
        A_ref, gains = unit_gains(
            lambda z, noises: chain(z, null_conditioning(), noises), T
        )
        assert abs(A_ref - A) <= 1e-12
        assert abs(np.sum(gains**2) - v) <= 1e-12 * max(1.0, v)  # v reaches sum(beta)

        if sampler == "ddpm":
            out = base_sample(cond, s, "ddpm", seed, *dims)
            n = sample_gaussian_latent(*dims, seed)
            want = c * target + math.sqrt(A * A + v) * n.values
        else:
            params = CadrParams(lam=lam, g=w + 1.0, T_prime=T, rho=0.7)
            out = img2img_refine(z, cond, params, s, seed, mode="blend")
            n = sample_gaussian_latent(*dims, seed + CORRECTIVE_SEED_OFFSET)
            want = c * target + A * z.values + math.sqrt(v) * n.values
        assert out.values.tobytes() == want.tobytes()


class TestChainDraws:
    """A DDPM base sample and a blend refine each draw one field, counted
    through ``latents._gaussian_stream``; DDIM and img2img draw nothing."""

    def test_each_chain_draws_one_field(self, monkeypatch):
        dims = (4, 17, 19)
        s = make_schedule(6, 1e-3, 0.05)
        cond = conditioning("prompt", 3.0)
        params = CadrParams(lam=0.5, g=4.0, T_prime=5, rho=0.7)
        draws, stream = [], latents._gaussian_stream

        def counting(seed, count, stream_id=0):
            draws.append((seed, count, stream_id))
            return stream(seed, count, stream_id)

        monkeypatch.setattr(latents, "_gaussian_stream", counting)
        z_base = base_sample(cond, s, "ddpm", 4, *dims)
        assert draws == [(4, math.prod(dims), 0)]
        draws.clear()
        img2img_refine(z_base, cond, params, s, 2, mode="blend")
        assert draws == [(2 + CORRECTIVE_SEED_OFFSET, math.prod(dims), 0)]
        draws.clear()
        z_ddim = base_sample(cond, s, "ddim", 4, *dims)
        img2img_refine(z_ddim, cond, params, s, 2, mode="img2img")
        assert draws == []


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
        ref = ref_img2img(z_base, cond, params, s, seed, k=k)
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

    Both chains peak at 3.0 fields here: the drawn latent, the target and
    one scaled term, then the draw, the sum and the result's copy.  The
    limit adds half a field.
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

    @pytest.mark.parametrize("stage", ["base_sample", "img2img_refine"])
    def test_target_is_copied_once(self, stage):
        # A DDIM sample and an img2img correction are the prompt's target:
        # one H x W plane and the field's one copy, 1.25 fields.  The first
        # call at a size fills basis._cosines' tables, so one runs untraced.
        s = make_schedule(50, 1e-4, 0.02)
        cond = Conditioning(embedding(1, 5), 3.0)
        if stage == "base_sample":
            def run():
                return base_sample(cond, s, "ddim", 0, self.C, self.H, self.W)
        else:
            z = sample_gaussian_latent(self.C, self.H, self.W, 1)
            params = CadrParams(lam=0.25, g=4.0, T_prime=20, rho=0.7)

            def run():
                return img2img_refine(z, cond, params, s, 0, mode="img2img")
        run()
        assert peak_bytes(run) < 1.5 * self.FIELD
