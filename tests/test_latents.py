"""Latent tensor, sampling, scaling, and serialization tests.

Statistical values are cross-checked against independent second-pass
recomputations (math.fsum accumulations) rather than the library's own
helpers.
"""

import io
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from critifusion.latents import (
    MAGIC,
    MAX_DIM,
    READ_CHUNK,
    BadMagicError,
    DimensionBoundsError,
    DimensionOverflowError,
    LatentError,
    LatentField,
    TrailingBytesError,
    TruncatedStreamError,
    VaeScale,
    _check_dims,
    _gaussian_stream,
    latent_bytes,
    latent_digest,
    read_latent,
    sample_gaussian_latent,
    write_latent,
)


def make_field(values, c=1, h=2, w=2):
    return LatentField(c, h, w, np.asarray(values, dtype=float).reshape(c, h, w))


class TestLatentField:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(LatentError):
            LatentField(1, 2, 2, np.zeros((1, 2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(LatentError):
            make_field([1.0, np.nan, 0.0, 0.0])

    def test_bounds(self):
        with pytest.raises(DimensionBoundsError):
            LatentField(0, 2, 2, np.zeros((0, 2, 2)))
        with pytest.raises(DimensionBoundsError):
            LatentField(1, 1, 2, np.zeros((1, 1, 2)))
        with pytest.raises(DimensionBoundsError):
            LatentField(1, 2, 5000, np.zeros((1, 2, 5000)))
        with pytest.raises(DimensionBoundsError):
            LatentField(2**16 + 1, 2, 2, np.zeros((2**16 + 1, 2, 2)))

    def test_element_cap(self):
        # 4 x 4096 x 4096 is the largest field; one channel more is rejected,
        # by the rule that configs and file headers share.  Nothing is
        # allocated: the dims are checked alone.
        _check_dims(4, MAX_DIM, MAX_DIM)
        with pytest.raises(DimensionBoundsError, match="channels"):
            _check_dims(5, MAX_DIM, MAX_DIM)

    def test_values_immutable(self):
        f = make_field([1, 2, 3, 4])
        with pytest.raises(ValueError):
            f.values[0, 0, 0] = 9.0


class TestSampling:
    def test_deterministic(self):
        a = sample_gaussian_latent(1, 2, 2, 7)
        b = sample_gaussian_latent(1, 2, 2, 7)
        assert np.array_equal(a.values, b.values)
        assert latent_bytes(a) == latent_bytes(b)

    def test_moments(self):
        f = sample_gaussian_latent(4, 64, 64, 1)
        flat = [float(v) for v in f.values.ravel()]
        n = len(flat)
        mean = math.fsum(flat) / n
        var = math.fsum((v - mean) ** 2 for v in flat) / n
        assert abs(mean) < 0.05
        assert abs(var - 1.0) < 0.1

    def test_zero_channels_rejected(self):
        with pytest.raises(DimensionBoundsError):
            sample_gaussian_latent(0, 2, 2, 0)

    def test_seeds_differ(self):
        a = sample_gaussian_latent(1, 8, 8, 0)
        b = sample_gaussian_latent(1, 8, 8, 1)
        assert not np.array_equal(a.values, b.values)

    def test_stream_is_numpys_ziggurat_on_philox(self):
        gen = np.random.Generator(np.random.Philox(key=[3, 1]))
        got = _gaussian_stream(3, 1001, 1)
        assert got.tobytes() == gen.standard_normal(1001).tobytes()
        # Literal pins: a numpy release that changes the ziggurat (NEP 19
        # allows it) fails here, by name, and not only in the digests.
        assert [float(x).hex() for x in got[:4]] == [
            "-0x1.7c0b49e0d7231p+1",
            "0x1.ba6c504fa339dp-2",
            "-0x1.df4028ebdf818p-1",
            "-0x1.a6a81ed66a640p-4",
        ]


class TestVaeScale:
    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(LatentError):
            VaeScale(0.0)


class TestSerialization:
    def test_byte_layout(self):
        f = make_field([1.0, 2.0, 3.0, 4.0])
        blob = latent_bytes(f)
        # 8 magic + 3 * 4 dim words + 4 * 4 payload floats
        assert len(blob) == 36
        assert blob[:8] == MAGIC
        assert struct.unpack("<III", blob[8:20]) == (1, 2, 2)
        assert struct.unpack("<4f", blob[20:]) == (1.0, 2.0, 3.0, 4.0)

    def test_round_trip_many(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            c = int(rng.integers(1, 4))
            h = int(rng.integers(2, 7))
            w = int(rng.integers(2, 7))
            vals = rng.normal(size=(c, h, w)).astype(np.float32)
            f = LatentField(c, h, w, vals)
            g = read_latent(io.BytesIO(latent_bytes(f)))
            assert np.array_equal(f.values, g.values)
            assert g.shape == f.shape

    def test_bad_magic(self):
        blob = b"NOTMAGIC" + latent_bytes(make_field([1, 2, 3, 4]))[8:]
        with pytest.raises(BadMagicError):
            read_latent(io.BytesIO(blob))

    def test_truncated_header(self):
        with pytest.raises(TruncatedStreamError):
            read_latent(io.BytesIO(MAGIC + b"\x01\x00"))

    def test_truncated_payload(self):
        blob = latent_bytes(make_field([1, 2, 3, 4]))
        with pytest.raises(TruncatedStreamError):
            read_latent(io.BytesIO(blob[:-4]))

    @pytest.mark.parametrize("source", ["path", "file"])
    def test_bytes_after_the_payload_rejected(self, tmp_path, source):
        # A padded file is not the file its digest names, whichever way it
        # is opened.
        path = tmp_path / "padded.crtf"
        path.write_bytes(latent_bytes(make_field([1, 2, 3, 4])) + b"junk")
        with pytest.raises(TrailingBytesError):
            if source == "path":
                read_latent(path)
            else:
                with open(path, "rb") as fh:
                    read_latent(fh)

    @pytest.mark.parametrize("source", ["path", "file"])
    def test_oversized_header_allocates_only_what_the_stream_holds(
        self, tmp_path, source
    ):
        # The header declares 4 x 4096 x 4096 floats (256 MiB), the most
        # MAX_ELEMENTS allows; 16 bytes follow.
        path = tmp_path / "huge.crtf"
        path.write_bytes(MAGIC + struct.pack("<III", 4, 4096, 4096) + bytes(16))
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedStreamError, match="got 16"):
                if source == "path":
                    read_latent(path)
                else:
                    with open(path, "rb") as fh:
                        read_latent(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * READ_CHUNK

    def test_signalling_nan_raises_only_a_latent_error(self):
        # 0x7f800001 is a float32 signalling NaN: widening it to float64
        # warns, so it must be rejected before the cast.
        payload = struct.pack("<4I", 0, 0, 0x7F800001, 0)
        blob = MAGIC + struct.pack("<III", 1, 2, 2) + payload
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LatentError, match="finite"):
                read_latent(io.BytesIO(blob))

    def test_dimension_overflow(self):
        # Over MAX_DIM, over MAX_CHANNELS, and each in range but 2**40 values
        # in all, over MAX_ELEMENTS.
        for dims in ((1, 5000, 2), (2**16 + 1, 2, 2), (2**16, 4096, 4096)):
            header = MAGIC + struct.pack("<III", *dims)
            with pytest.raises(DimensionOverflowError):
                read_latent(io.BytesIO(header + b"\x00" * 16))

    def test_path_round_trip(self, tmp_path):
        f = sample_gaussian_latent(2, 4, 4, 9)
        p = tmp_path / "x.crtf"
        write_latent(f, p)
        g = read_latent(p)
        assert np.array_equal(f.values, g.values)

    def test_digest_stability(self):
        a = sample_gaussian_latent(1, 4, 4, 3)
        b = sample_gaussian_latent(1, 4, 4, 3)
        c = sample_gaussian_latent(1, 4, 4, 4)
        assert latent_digest(a) == latent_digest(b)
        assert latent_digest(a) != latent_digest(c)
        assert len(latent_digest(a)) == 64


@st.composite
def latent_streams(draw):
    """CRTFLAT1-like byte strings: small dims (any u32 at times) and a
    payload within two bytes of the declared size."""
    dims = st.one_of(st.integers(0, 6), st.integers(0, 2**32 - 1))
    c, h, w = draw(dims), draw(dims), draw(dims)
    n = 4 * c * h * w if c * h * w <= 256 else 0
    payload = draw(st.binary(min_size=max(n - 2, 0), max_size=n + 2))
    return MAGIC + struct.pack("<III", c, h, w) + payload


class TestReadLatentFuzz:
    @given(
        st.one_of(
            st.binary(max_size=64),
            st.binary(max_size=64).map(lambda b: MAGIC + b),
            latent_streams(),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_raise_only_latent_errors(self, blob):
        try:
            field = read_latent(io.BytesIO(blob))
        except LatentError:
            return
        encoded = latent_bytes(field)
        assert blob[: len(encoded)] == encoded
