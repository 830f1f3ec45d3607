"""Confidence-adaptive scheduling map tests."""

import math

import pytest
from hypothesis import given, reject, settings, strategies as st

from critifusion.cadr import (
    SCORE_DECIMALS,
    AlignmentInputError,
    CadrConfig,
    CadrParams,
    cadr_from_alignment,
)
from critifusion.diffusion import MAX_STEPS
from critifusion.pipeline import PipelineConfig


class TestEndpoints:
    def test_s_zero(self):
        p = cadr_from_alignment(0.0)
        assert p == CadrParams(lam=0.30, g=5.0, T_prime=30, rho=0.85)

    def test_s_one(self):
        # s = 1 exceeds the 0.9 skip threshold: T' = 0, endpoints reported
        p = cadr_from_alignment(1.0)
        assert p == CadrParams(lam=0.12, g=3.6, T_prime=0, rho=0.60)

    def test_s_one_without_skip(self):
        cfg = CadrConfig(skip_threshold=1.0)
        p = cadr_from_alignment(1.0, cfg)
        assert p == CadrParams(lam=0.12, g=3.6, T_prime=16, rho=0.60)

    def test_midpoint(self):
        p = cadr_from_alignment(0.5)
        assert p.lam == pytest.approx(0.21, abs=1e-15)
        assert p.g == pytest.approx(4.3, abs=1e-15)
        assert p.T_prime == 23
        assert p.rho == pytest.approx(0.725, abs=1e-15)

    def test_skip(self):
        p = cadr_from_alignment(0.95)
        assert p.T_prime == 0
        assert (p.lam, p.g, p.rho) == (0.12, 3.6, 0.60)


class TestRounding:
    def test_half_up(self):
        # u = 0.25: T' = 16 + 3.5 -> rounds half-up to 20
        p = cadr_from_alignment(0.75)
        assert p.T_prime == 20

    def test_last_ulp_noise_is_rounded_away(self):
        # A mean of clause scores lands a few ULPs off the decimal it means.
        assert cadr_from_alignment(0.9000000000000004) == cadr_from_alignment(0.9)
        assert cadr_from_alignment(0.7500000000000002).T_prime == 20
        assert cadr_from_alignment(0.7499999999999998).T_prime == 20

    def test_independent_recomputation(self):
        for i in range(91):
            s = i / 100
            p = cadr_from_alignment(s)
            u = 1.0 - s
            assert p.lam == pytest.approx(0.12 + u * 0.18, abs=1e-12)
            assert p.g == pytest.approx(3.6 + u * 1.4, abs=1e-12)
            assert p.rho == pytest.approx(0.60 + u * 0.25, abs=1e-12)
            assert p.T_prime == min(max(math.floor(16 + u * 14 + 0.5), 16), 30)


class TestValidation:
    def test_non_finite_rejected(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(AlignmentInputError):
                cadr_from_alignment(bad)

    def test_out_of_range_clamps(self):
        assert cadr_from_alignment(-3.0) == cadr_from_alignment(0.0)
        assert cadr_from_alignment(7.0) == cadr_from_alignment(1.0)

    def test_config_validation(self):
        with pytest.raises(AlignmentInputError):
            CadrConfig(lam_span=-0.1)
        with pytest.raises(AlignmentInputError):
            CadrConfig(skip_threshold=0.0)
        with pytest.raises(AlignmentInputError):
            CadrConfig(skip_threshold=1.5)

    @pytest.mark.parametrize(
        "name",
        ["lam_min", "g_min", "t_min", "rho_min"]
        + ["lam_span", "g_span", "t_span", "rho_span"],
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_config_rejected(self, name, bad):
        with pytest.raises(AlignmentInputError):
            CadrConfig(**{name: bad})

    @pytest.mark.parametrize("name", ["t_min", "t_span"])
    @pytest.mark.parametrize("bad", [16.5, 16.0, True])
    def test_non_integer_step_count_rejected(self, name, bad):
        with pytest.raises(AlignmentInputError, match=f"^{name} must be an integer"):
            CadrConfig(**{name: bad})
        with pytest.raises(AlignmentInputError, match=f"^{name} must be an integer"):
            PipelineConfig(cadr=CadrConfig(**{name: bad}))

    def test_t_min_below_one_rejected(self):
        for t_min in (0, -40):
            with pytest.raises(AlignmentInputError):
                CadrConfig(t_min=t_min)
        assert cadr_from_alignment(0.0, CadrConfig(t_min=1, t_span=0)).T_prime == 1


class TestProperties:
    @given(
        s1=st.floats(min_value=0.0, max_value=0.9),
        s2=st.floats(min_value=0.0, max_value=0.9),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_nonincreasing(self, s1, s2):
        if s1 > s2:
            s1, s2 = s2, s1
        lo, hi = cadr_from_alignment(s2), cadr_from_alignment(s1)
        assert hi.lam >= lo.lam - 1e-12
        assert hi.g >= lo.g - 1e-12
        assert hi.T_prime >= lo.T_prime
        assert hi.rho >= lo.rho - 1e-12

    @given(s=st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_range_containment(self, s):
        p = cadr_from_alignment(s)
        assert 0.12 - 1e-12 <= p.lam <= 0.30 + 1e-12
        assert 3.6 - 1e-12 <= p.g <= 5.0 + 1e-12
        assert p.T_prime == 0 or 16 <= p.T_prime <= 30
        assert 0.60 - 1e-12 <= p.rho <= 0.85 + 1e-12

    def test_continuity_below_threshold(self):
        eps = 1e-9
        for s in (0.2, 0.5, 0.8):
            a = cadr_from_alignment(s - eps)
            b = cadr_from_alignment(s + eps)
            assert abs(a.lam - b.lam) < 1e-6
            assert abs(a.g - b.g) < 1e-6
            assert abs(a.rho - b.rho) < 1e-6

    def test_skip_discontinuity(self):
        assert cadr_from_alignment(0.9).T_prime >= 16
        assert cadr_from_alignment(0.9000001).T_prime == 0


def clamped_cadr(s, config):
    """cadr_from_alignment as written before its clamps were found dead."""
    s = min(max(round(s, SCORE_DECIMALS), 0.0), 1.0)
    if s > config.skip_threshold:
        return CadrParams(
            lam=config.lam_min, g=config.g_min, T_prime=0, rho=config.rho_min
        )
    u = 1.0 - s
    lam = min(config.lam_min + u * config.lam_span, config.lam_min + config.lam_span)
    g = min(config.g_min + u * config.g_span, config.g_min + config.g_span)
    rho = min(config.rho_min + u * config.rho_span, config.rho_min + config.rho_span)
    t_prime = int(math.floor(config.t_min + u * config.t_span + 0.5))
    t_prime = min(max(t_prime, config.t_min), config.t_max)
    return CadrParams(lam=lam, g=g, T_prime=t_prime, rho=rho)


def bits(params):
    """Every field, floats by their exact hex form, so -0.0 differs from 0.0."""
    return tuple(
        v.hex() if isinstance(v, float) else (type(v), v)
        for v in (params.lam, params.g, params.T_prime, params.rho)
    )


@st.composite
def cadr_configs(draw):
    unit = st.floats(min_value=0.0, max_value=1.0)
    lam_min, rho_min = draw(unit), draw(unit)
    try:
        return CadrConfig(
            lam_min=lam_min,
            g_min=draw(st.floats(min_value=-50.0, max_value=50.0)),
            t_min=draw(st.integers(min_value=1, max_value=MAX_STEPS)),
            rho_min=rho_min,
            lam_span=draw(st.floats(min_value=0.0, max_value=1.0 - lam_min)),
            g_span=draw(st.floats(min_value=0.0, max_value=50.0)),
            t_span=draw(st.integers(min_value=0, max_value=MAX_STEPS)),
            rho_span=draw(st.floats(min_value=0.0, max_value=1.0 - rho_min)),
            skip_threshold=draw(
                st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
            ),
        )
    except AlignmentInputError:  # min + span rounded above 1
        reject()


class TestClampsWereDead:
    @given(
        s=st.floats(min_value=0.0, max_value=1.0),
        config=st.one_of(st.just(CadrConfig()), cadr_configs()),
    )
    @settings(max_examples=500, deadline=None)
    def test_equals_the_clamped_formula_bit_for_bit(self, s, config):
        assert bits(cadr_from_alignment(s, config)) == bits(clamped_cadr(s, config))
