"""Core latent tensor type, seeded Gaussian sampling, and serialization.

Latents are C x H x W float32 arrays.  Randomness uses the Philox4x64
counter-based generator keyed by (seed, stream).  A Gaussian draw is
numpy's 256-layer float64 ziggurat (``Generator.standard_normal``, after
Marsaglia & Tsang) over the generator's 64-bit words: most draws read one
word and take a table lookup and a multiply, and a rejected candidate reads
more words.  Every draw is finite whatever the words: the tail takes the
log of a uniform in [0, 1).

NEP 19 lets a numpy release change a ``Generator`` distribution, and with
it every drawn bit.  ``tests/test_latents.py`` pins the first draws of one
stream as literals, so such a change fails that one named test.
"""

from __future__ import annotations

import hashlib
import io
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"CRTFLAT1"
MIN_DIM = 2
MAX_DIM = 4096
MAX_CHANNELS = 2**16
# Values per field, 4 x MAX_DIM x MAX_DIM: one float64 field is 537 MB.
MAX_ELEMENTS = 2**26
# Payload read size: a header can declare up to 256 MiB, so the payload is
# read in chunks and memory follows what the stream really holds.
READ_CHUNK = 1 << 20


class LatentError(ValueError):
    """Base class for latent construction/parsing failures."""


class DimensionBoundsError(LatentError):
    """Requested dimensions fall outside the supported range."""


class BadMagicError(LatentError):
    """Serialized stream does not start with the CRTFLAT1 magic."""


class TruncatedStreamError(LatentError):
    """Serialized stream ended before the declared payload was read."""


class DimensionOverflowError(LatentError):
    """Serialized header declares dimensions outside the supported range."""


class TrailingBytesError(LatentError):
    """Serialized stream holds bytes after the declared payload."""


def _check_dims(channels: int, height: int, width: int, error=DimensionBoundsError):
    """The one bounds rule for latent dims; a file header passes its own error."""
    if not (1 <= channels <= MAX_CHANNELS):
        raise error(f"channels must be in [1, {MAX_CHANNELS}], got {channels}")
    for name, value in (("height", height), ("width", width)):
        if not (MIN_DIM <= value <= MAX_DIM):
            raise error(f"{name} must be in [{MIN_DIM}, {MAX_DIM}], got {value}")
    if channels * height * width > MAX_ELEMENTS:
        raise error(
            f"channels * height * width must be at most {MAX_ELEMENTS} "
            f"(4 x {MAX_DIM} x {MAX_DIM}), got {channels} x {height} x {width}"
        )


@dataclass(frozen=True)
class LatentField:
    """Real-valued C x H x W latent tensor.

    ``values`` has shape (channels, height, width) and is frozen after
    construction.  In-memory arithmetic is 64-bit; the serialized format
    stores 32-bit floats, so fields built from float32-representable
    values round-trip bit-exactly.
    """

    channels: int
    height: int
    width: int
    values: np.ndarray

    def __post_init__(self):
        _check_dims(self.channels, self.height, self.width)
        values = np.asarray(self.values)
        if values.shape != (self.channels, self.height, self.width):
            raise LatentError(
                f"values shape {values.shape} does not match "
                f"({self.channels}, {self.height}, {self.width})"
            )
        # Checked before the cast: widening a float32 signalling NaN warns.
        if not np.isfinite(values).all():
            raise LatentError("latent values must be finite")
        arr = values.astype(np.float64)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.channels, self.height, self.width)

    def with_values(self, values: np.ndarray) -> "LatentField":
        return LatentField(self.channels, self.height, self.width, values)


@dataclass(frozen=True)
class VaeScale:
    """Latent scale factor applied on encode (multiply) / decode (divide)."""

    gamma: float

    def __post_init__(self):
        if not (self.gamma > 0):
            raise LatentError(f"gamma must be positive, got {self.gamma}")


def _philox(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), stream]))


def ndtri(x, out=None):
    """scipy.special.ndtri, the inverse normal CDF; scipy loads on the first call.

    Nothing in the package calls it: the draws are numpy's ziggurat.  It
    stays only because perfbench's ``layers.WRAPPED`` binds it by name
    (``tests/test_perfbench_guard.py`` checks that it exists); it goes when
    the benchmark's probes point at the draws that run.
    """
    from scipy.special import ndtri as scipy_ndtri

    return scipy_ndtri(x, out=out)


def _gaussian_stream(seed: int, count: int, stream: int = 0) -> np.ndarray:
    """The first ``count`` standard-normal draws of the (seed, stream) stream.

    Philox4x64 keyed by (seed, stream), drawn by numpy's ziggurat.
    """
    return _philox(seed, stream).standard_normal(count)


def sample_gaussian_latent(
    channels: int, height: int, width: int, seed: int
) -> LatentField:
    """Draw a seeded N(0, I) latent; identical (dims, seed) give identical bits."""
    _check_dims(channels, height, width)
    n = channels * height * width
    draws = _gaussian_stream(seed, n).astype(np.float32)
    return LatentField(channels, height, width, draws.reshape(channels, height, width))


def write_latent(field: LatentField, sink) -> None:
    """Serialize: magic, three u32le dims, then float32le values (C outermost).

    ``sink`` is a binary file object or a path.
    """
    if not hasattr(sink, "write"):
        with open(sink, "wb") as fh:
            write_latent(field, fh)
        return
    sink.write(MAGIC)
    sink.write(struct.pack("<III", field.channels, field.height, field.width))
    sink.write(field.values.astype("<f4").tobytes())


def read_latent(source) -> LatentField:
    """Parse a CRTFLAT1 stream from a binary file object or a path.

    The stream must end with the declared payload: a file with bytes after
    it is not the file its digest names.
    """
    if not hasattr(source, "read"):
        with open(source, "rb") as fh:
            return read_latent(fh)
    magic = source.read(len(MAGIC))
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    header = source.read(12)
    if len(header) != 12:
        raise TruncatedStreamError("truncated header")
    channels, height, width = struct.unpack("<III", header)
    _check_dims(channels, height, width, DimensionOverflowError)
    n = channels * height * width
    payload = bytearray()
    while len(payload) < 4 * n:
        chunk = source.read(min(READ_CHUNK, 4 * n - len(payload)))
        if not chunk:
            break
        payload += chunk
    if len(payload) != 4 * n:
        raise TruncatedStreamError(
            f"expected {4 * n} payload bytes, got {len(payload)}"
        )
    if source.read(1):
        raise TrailingBytesError(f"bytes follow the {4 * n}-byte payload")
    values = np.frombuffer(payload, dtype="<f4").reshape(channels, height, width)
    return LatentField(channels, height, width, values)


def latent_bytes(field: LatentField) -> bytes:
    buf = io.BytesIO()
    write_latent(field, buf)
    return buf.getvalue()


def latent_digest(field: LatentField) -> str:
    """SHA-256 of the serialized bytes; stable content identity for records."""
    return hashlib.sha256(latent_bytes(field)).hexdigest()
