"""Spectral transforms, masks, and fusion, checked against a brute-force
O(N^4) direct-sum DFT oracle that shares no code with the implementation."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from critifusion import spectral
from critifusion.latents import LatentField, sample_gaussian_latent
from critifusion.spectral import (
    MaskPlane,
    MaskRangeError,
    SpectralError,
    Spectrum,
    SymmetryViolationError,
    TaperSpec,
    build_lowpass_mask,
    forward_spectrum,
    inverse_spectrum,
    spec_fuse,
)
from test_diffusion import peak_bytes


def brute_centered_dft(plane):
    """Direct-sum DFT with the DC bin at (H//2, W//2); O(N^4), pure Python."""
    H, W = plane.shape
    out = np.zeros((H, W), dtype=complex)
    for p in range(H):
        for q in range(W):
            u = p - H // 2
            v = q - W // 2
            acc = 0j
            for y in range(H):
                for x in range(W):
                    acc += plane[y, x] * cmath.exp(-2j * math.pi * (u * y / H + v * x / W))
            out[p, q] = acc
    return out


class TestForward:
    def test_constant_field_is_dc_only(self):
        c = 2.5
        f = LatentField(1, 4, 4, np.full((1, 4, 4), c))
        spec = forward_spectrum(f).coefficients[0]
        assert abs(spec[2, 2] - 16 * c) < 1e-9
        rest = spec.copy()
        rest[2, 2] = 0
        assert np.abs(rest).max() < 1e-9

    def test_impulse_flat_spectrum(self):
        vals = np.zeros((1, 4, 4))
        vals[0, 0, 0] = 1.0
        spec = forward_spectrum(LatentField(1, 4, 4, vals)).coefficients[0]
        assert np.allclose(np.abs(spec), 1.0, atol=1e-9)

    def test_matches_brute_force_oracle(self):
        f = sample_gaussian_latent(1, 8, 8, 11)
        spec = forward_spectrum(f).coefficients[0]
        oracle = brute_centered_dft(f.values[0])
        assert np.abs(spec - oracle).max() < 1e-9

    def test_parseval(self):
        f = sample_gaussian_latent(4, 16, 16, 2)
        spec = forward_spectrum(f).coefficients
        spatial = float(np.sum(f.values ** 2))
        spectral = float(np.sum(np.abs(spec) ** 2)) / (16 * 16)
        assert abs(spatial - spectral) / spatial < 1e-6


class TestInverse:
    def test_round_trip(self):
        f = sample_gaussian_latent(4, 64, 64, 5)
        back = inverse_spectrum(forward_spectrum(f))
        assert np.abs(back.values - f.values).max() < 1e-5

    def test_broken_symmetry_raises(self):
        f = sample_gaussian_latent(1, 8, 8, 6)
        coeffs = forward_spectrum(f).coefficients.copy()
        coeffs[0, 1, 2] += 200.0j
        with pytest.raises(SymmetryViolationError):
            inverse_spectrum(Spectrum(1, 8, 8, coeffs))

    def test_coefficient_shape_must_match(self):
        with pytest.raises(SpectralError, match="does not match"):
            Spectrum(1, 4, 4, np.zeros((1, 4, 5), dtype=complex))

    def test_dc_only_inverse_is_constant(self):
        coeffs = np.zeros((1, 4, 4), dtype=complex)
        c = 1.75
        coeffs[0, 2, 2] = 16 * c
        out = inverse_spectrum(Spectrum(1, 4, 4, coeffs))
        assert np.abs(out.values - c).max() < 1e-9

    @given(seed=st.integers(min_value=0, max_value=2**31), c=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, seed, c):
        f = sample_gaussian_latent(c, 8, 8, seed)
        back = inverse_spectrum(forward_spectrum(f))
        assert np.abs(back.values - f.values).max() < 1e-5


class TestMask:
    def test_rho_one_all_ones(self):
        m = build_lowpass_mask(8, 8, 1.0, TaperSpec(0.25))
        assert np.array_equal(m.weights, np.ones((8, 8)))

    def test_rho_zero_all_zeros(self):
        m = build_lowpass_mask(8, 8, 0.0, TaperSpec(0.25))
        assert np.array_equal(m.weights, np.zeros((8, 8)))

    def test_half_rho_block(self):
        m = build_lowpass_mask(8, 8, 0.5, TaperSpec(0.0))
        # h = floor(0.5 * 4) = 2 per axis -> centered 5x5 block of ones
        assert int(np.sum(m.weights == 1.0)) == 25
        assert int(np.sum(m.weights == 0.0)) == 39
        assert np.array_equal(np.unique(m.weights), [0.0, 1.0])
        assert m.weights[4, 4] == 1.0

    def test_tiny_rho_keeps_dc(self):
        m = build_lowpass_mask(8, 8, 0.05, TaperSpec(0.0))
        assert m.weights[4, 4] == 1.0
        assert np.sum(m.weights) == 1.0

    def test_out_of_range_rho(self):
        for rho in (-0.1, 1.5, float("nan")):
            with pytest.raises(MaskRangeError):
                build_lowpass_mask(8, 8, rho, TaperSpec(0.0))

    def test_monotone_passband(self):
        taper = TaperSpec(0.0)
        prev = build_lowpass_mask(16, 16, 0.0, taper).weights
        for rho in (0.2, 0.4, 0.6, 0.8, 1.0):
            cur = build_lowpass_mask(16, 16, rho, taper).weights
            assert np.all(cur >= prev)
            prev = cur

    def test_four_fold_symmetry(self):
        w = build_lowpass_mask(9, 9, 0.7, TaperSpec(0.3)).weights
        # odd dims: exact reflection about the center index
        assert np.allclose(w, w[::-1, :], atol=1e-12)
        assert np.allclose(w, w[:, ::-1], atol=1e-12)

    def test_taper_bounds(self):
        with pytest.raises(SpectralError):
            TaperSpec(0.6)
        with pytest.raises(SpectralError):
            TaperSpec(-0.1)

    def test_weights_in_unit_interval(self):
        w = build_lowpass_mask(12, 10, 0.66, TaperSpec(0.5)).weights
        assert w.min() >= 0.0 and w.max() <= 1.0

    @pytest.mark.parametrize("dims", [(2, 2), (3, 5), (17, 23), (16, 16), (31, 64), (9, 9)])
    def test_half_plane_mask_is_the_shifted_centered_mask(self, dims):
        h, w = dims
        for rho in (0.0, 0.05, 0.2, 0.5, 0.6625, 0.85, 1.0):
            for taper in (TaperSpec(0.0), TaperSpec(0.1), TaperSpec(0.5)):
                full = build_lowpass_mask(h, w, rho, taper).weights
                want = np.fft.ifftshift(full)[:, : w // 2 + 1]
                got = spectral._half_plane_mask(h, w, rho, taper)
                assert got.tobytes() == want.tobytes(), (rho, taper)

    def test_mask_plane_rejects_a_shape_mismatch(self):
        with pytest.raises(SpectralError, match="shape"):
            MaskPlane(2, 2, np.zeros((2, 3)))

    def test_mask_plane_rejects_out_of_range(self):
        with pytest.raises(SpectralError):
            MaskPlane(2, 2, np.array([[0.0, 2.0], [0.0, 0.0]]))


class TestFusion:
    def test_identical_inputs(self):
        f = sample_gaussian_latent(2, 16, 16, 8)
        for rho in (0.0, 0.3, 0.7, 1.0):
            out = spec_fuse(f, f, rho, TaperSpec(0.1), clamp=False)
            assert np.abs(out.values - f.values).max() < 1e-5

    def test_rho_zero_returns_ref(self):
        ref = sample_gaussian_latent(1, 8, 8, 1)
        base = sample_gaussian_latent(1, 8, 8, 2)
        out = spec_fuse(ref, base, 0.0, TaperSpec(0.0), clamp=False)
        assert np.abs(out.values - ref.values).max() < 1e-5

    def test_rho_one_returns_base(self):
        ref = sample_gaussian_latent(1, 8, 8, 3)
        base = sample_gaussian_latent(1, 8, 8, 4)
        out = spec_fuse(ref, base, 1.0, TaperSpec(0.0), clamp=False)
        assert np.abs(out.values - base.values).max() < 1e-5

    @pytest.mark.parametrize("dims", [(1, 4, 4), (1, 8, 8)])
    def test_against_brute_force_oracle(self, dims):
        c, h, w = dims
        ref = sample_gaussian_latent(c, h, w, 21)
        base = sample_gaussian_latent(c, h, w, 22)
        fused = spec_fuse(ref, base, 0.5, TaperSpec(0.0), clamp=False)
        spec_fused = forward_spectrum(fused).coefficients[0]

        z_lo = brute_centered_dft(base.values[0])
        z_hi = brute_centered_dft(ref.values[0])
        half = h // 2 // 2  # floor(rho * dim / 2) with rho = 0.5
        expected = z_hi.copy()
        for p in range(h):
            for q in range(w):
                if abs(p - h // 2) <= half and abs(q - w // 2) <= half:
                    expected[p, q] = z_lo[p, q]
        assert np.abs(spec_fused - expected).max() < 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(SpectralError):
            spec_fuse(
                sample_gaussian_latent(1, 8, 8, 0),
                sample_gaussian_latent(1, 4, 4, 0),
                0.5,
                TaperSpec(0.0),
                clamp=False,
            )

    def test_clamp_containment(self):
        ref = sample_gaussian_latent(3, 16, 16, 31)
        base = sample_gaussian_latent(3, 16, 16, 32)
        out = spec_fuse(ref, base, 0.4, TaperSpec(0.1), clamp=True)
        for ch in range(3):
            lo, hi = base.values[ch].min(), base.values[ch].max()
            assert out.values[ch].min() >= lo - 1e-12
            assert out.values[ch].max() <= hi + 1e-12

    def test_same_mask_every_channel(self):
        # a channel pair fused separately must match the multichannel fuse
        ref = sample_gaussian_latent(2, 8, 8, 41)
        base = sample_gaussian_latent(2, 8, 8, 42)
        both = spec_fuse(ref, base, 0.6, TaperSpec(0.2), clamp=False)
        for ch in range(2):
            single = spec_fuse(
                LatentField(1, 8, 8, ref.values[ch : ch + 1]),
                LatentField(1, 8, 8, base.values[ch : ch + 1]),
                0.6,
                TaperSpec(0.2),
                clamp=False,
            )
            assert np.abs(both.values[ch] - single.values[0]).max() < 1e-10


def clamped(out, base, clamp):
    if clamp:
        flat = base.values.reshape(base.channels, -1)
        lo = flat.min(axis=1)[:, None, None]
        out = np.clip(out, lo, flat.max(axis=1)[:, None, None])
    return out


def centered_fuse(ref, base, rho, taper, clamp):
    """Fusion of the full spectra composed through the centered Spectrum API."""
    mask = build_lowpass_mask(base.height, base.width, rho, taper).weights
    low = mask * forward_spectrum(base).coefficients
    high = (1.0 - mask) * forward_spectrum(ref).coefficients
    out = inverse_spectrum(Spectrum(*base.shape, low + high)).values
    return clamped(out, base, clamp)


def half_plane_fuse(ref, base, rho, taper, clamp):
    """The low pass of base - ref on the rfft2 half plane, under the centered
    mask shifted to FFT order and cut to W//2 + 1 columns, added to ref: the
    bit-exact reference for spec_fuse."""
    mask = np.fft.ifftshift(build_lowpass_mask(base.height, base.width, rho, taper).weights)
    mask = mask[:, : base.width // 2 + 1]
    low = np.fft.irfft2(mask * np.fft.rfft2(base.values - ref.values), s=(base.height, base.width))
    return clamped(ref.values + low, base, clamp)


# How far the half-plane fusion may land from the full-spectrum one, as a
# share of the largest output value; measured up to 6.5e-16.
HALF_PLANE_TOL = 1e-12


def assert_fuses_as_composed(got, ref, base, rho, taper, clamp):
    assert got.tobytes() == half_plane_fuse(ref, base, rho, taper, clamp).tobytes()
    want = centered_fuse(ref, base, rho, taper, clamp)
    assert np.abs(got - want).max() <= HALF_PLANE_TOL * np.abs(want).max()


class TestFftOrderFusion:
    """spec_fuse works in unshifted FFT order on rfft2's half plane.  It is
    bit-identical to the half-plane composition under the centered mask, and
    within HALF_PLANE_TOL of the full-spectrum centered composition.  Odd
    sizes are where fftshift and ifftshift differ, and where the half plane
    has no Nyquist column, so they are where a wrong shift or cut would
    show."""

    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize(
        "dims",
        [(1, 2, 2), (1, 3, 5), (2, 17, 23), (3, 16, 16), (4, 31, 64), (4, 64, 64),
         (3, 130, 130), (5, 16, 16)],
    )
    def test_bit_identical_to_centered_composition(self, dims, clamp):
        ref = sample_gaussian_latent(*dims, 51)
        base = sample_gaussian_latent(*dims, 52)
        for rho in (0.0, 0.2, 0.5, 0.6625, 0.85, 1.0):
            for taper in (TaperSpec(0.0), TaperSpec(0.1), TaperSpec(0.5)):
                got = spec_fuse(ref, base, rho, taper, clamp).values
                assert_fuses_as_composed(got, ref, base, rho, taper, clamp)

    # Odd and even sizes on each axis, including odd x odd.
    EXACT_DIMS = [(1, 2, 2), (1, 3, 5), (2, 17, 23), (3, 16, 16), (2, 31, 64)]
    TAPERS = (TaperSpec(0.0), TaperSpec(0.1), TaperSpec(0.5))

    @pytest.mark.parametrize("dims", EXACT_DIMS)
    def test_rho_zero_returns_ref_bit_for_bit(self, dims):
        ref = sample_gaussian_latent(*dims, 71)
        base = sample_gaussian_latent(*dims, 72)
        for taper in self.TAPERS:
            got = spec_fuse(ref, base, 0.0, taper, clamp=False).values
            assert got.tobytes() == ref.values.tobytes(), taper

    @pytest.mark.parametrize("dims", EXACT_DIMS)
    def test_identical_inputs_return_the_input_bit_for_bit(self, dims):
        field = sample_gaussian_latent(*dims, 73)
        for rho in (0.0, 0.05, 0.2, 0.5, 0.6625, 0.85, 1.0):
            for taper in self.TAPERS:
                got = spec_fuse(field, field, rho, taper, clamp=False).values
                assert got.tobytes() == field.values.tobytes(), (rho, taper)

    # Traced peaks of a warm fusion: 2.18 fields at 4 x 64 x 64 and 2.13 at
    # 4 x 256 x 256, where the output and its copy dominate.  The first
    # fusion of a process reads about one field more at 64 x 64, so one
    # untraced fusion runs first.  Each bound adds about half a field.
    PEAK_FIELDS = {64: 2.7, 256: 2.6}

    @pytest.mark.parametrize("size", [64, 256])
    def test_peak_memory_within_seven_fields(self, size):
        ref = sample_gaussian_latent(4, size, size, 61)
        base = sample_gaussian_latent(4, size, size, 62)
        field = 8 * 4 * size * size

        def fuse():
            return spec_fuse(ref, base, 0.6, TaperSpec(0.1), True)

        fuse()
        assert peak_bytes(fuse) < self.PEAK_FIELDS[size] * field


class TestFusionKeepsClauseContent:
    """README, "What the toy can show": with the clamp off, fusion passes
    z_ref's pattern coefficients through for every rho <= 0.85, because
    every basis pattern lies outside the passband.  On square grids that
    holds from 60 x 60 up (checked to 1024 x 1024); below 60 the largest
    passbands reach some patterns."""

    @settings(max_examples=40, deadline=None)
    @given(
        rho=st.floats(0.0, 0.85),
        taper=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**32 - 1),
        dims=st.sampled_from([(4, 64, 64), (3, 47, 61), (1, 128, 96)]),
        enhanced=st.sets(st.integers(0, 15), min_size=1),
    )
    def test_fused_coefficients_are_z_refs(self, rho, taper, seed, dims, enhanced):
        from critifusion.basis import pattern_coefficients, synthesize_target

        weights = np.zeros(16)
        weights[sorted(enhanced)] = 1.0
        z_ref = LatentField(*dims, synthesize_target(weights, *dims))
        z_base = sample_gaussian_latent(*dims, seed)
        fused = spec_fuse(z_ref, z_base, rho, TaperSpec(taper), clamp=False)
        gap = pattern_coefficients(fused.values) - pattern_coefficients(z_ref.values)
        assert np.abs(gap).max() <= 1e-12
