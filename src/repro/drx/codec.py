"""Per-chunk compression codecs for DRX chunk payloads.

Coalesced vectored I/O optimizes *how* bytes move; this layer reduces
*how many* bytes move.  A codec transforms one raw chunk payload (always exactly
``chunk_nbytes`` bytes) into a variable-length compressed payload and
back.  The design follows the HDF5-filter / ArrayBridge model: the chunk
is the unit of compression, the codec choice is a per-array property
persisted in the meta-data, and the physical placement of compressed
chunks is decoupled from the logical address through a slot-allocation
table (:mod:`repro.drx.chunkalloc`).

Available codecs (registry names):

``none``
    Identity.  An array created with ``codec="none"`` stores raw chunks
    with no frame: its :class:`~repro.drx.chunkstore.ChunkStore` runs no
    codec, keeps no :class:`CodecStats` and places chunks at the
    historical direct-placement layout (``offset = F*(index) *
    chunk_nbytes``) bit for bit.
``zlib`` / ``zlib:<level>``
    DEFLATE over the raw chunk bytes (level 6 unless given).
``delta+zlib`` / ``delta+zlib:<level>``
    Element-wise integer delta (on the dtype-width words, wrapping
    arithmetic, so the transform is exactly invertible for any bit
    pattern) followed by DEFLATE — the classic trick for smooth numeric
    data, where neighbouring elements share high-order bytes.

Stored payload frame
--------------------

Every stored payload is ``tag byte + body``.  Tag ``1`` means "codec
output"; tag ``0`` means "raw chunk bytes" — the escape hatch taken when
compression would *grow* the chunk (incompressible data), bounding the
worst case at one byte of overhead per chunk.  The frame is what the
per-chunk CRC32 covers, so integrity checking, replica arbitration and
scrubbing operate on the stored (compressed) bytes without decoding.

:class:`CodecStats` aggregates the byte and wall-time accounting that
the compression benchmark and the ``DRXFile.codec_stats`` surface
report.
"""

from __future__ import annotations

import os
import threading
import time
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from ..core.errors import DRXFileError, DRXFormatError

__all__ = ["Codec", "NoneCodec", "ZlibCodec", "DeltaZlibCodec",
           "CodecStats", "get_codec", "codec_names", "default_codec_name",
           "CODEC_ENV", "TAG_RAW", "TAG_CODED"]

#: Environment variable naming the codec test/bench sweeps should use.
CODEC_ENV = "DRX_CODEC"

#: Frame tags (first byte of every stored payload).
TAG_RAW = 0      #: body is the raw chunk bytes (codec would have grown it)
TAG_CODED = 1    #: body is the codec's encoded output


def default_codec_name() -> str:
    """The codec named by ``DRX_CODEC`` (``"none"`` when unset/empty).

    Tests and benchmarks use this to sweep the same scenario over the
    CI codec matrix; the library itself never consults the environment
    when creating arrays.
    """
    name = os.environ.get(CODEC_ENV, "").strip()
    return name if name else "none"


# ---------------------------------------------------------------------------
# codecs
# ---------------------------------------------------------------------------

class Codec:
    """One chunk-payload transform.

    ``encode`` maps the raw chunk bytes to a compressed body; ``decode``
    inverts it given the expected raw size.  Codecs are stateless and
    thread-safe — the executor offload encodes/decodes different chunks
    on different threads through one shared instance.
    """

    #: canonical registry name (persisted in the meta-data)
    name = "abstract"

    def encode(self, raw) -> bytes:
        raise NotImplementedError

    def decode(self, body, out_nbytes: int) -> bytes:
        raise NotImplementedError

    # -- framing -----------------------------------------------------------
    def frame_encode(self, raw) -> bytes:
        """Encode ``raw`` into a stored payload (tag + body).

        Falls back to storing the raw bytes (tag 0) whenever the codec
        output would be no smaller, so incompressible chunks cost one
        byte, never a blow-up.
        """
        mv = memoryview(raw)
        body = self.encode(mv)
        if len(body) >= len(mv):
            return b"\x00" + bytes(mv)
        return b"\x01" + body

    def frame_decode(self, payload, out_nbytes: int) -> bytes:
        """Decode a stored payload back to the raw chunk bytes."""
        mv = memoryview(payload)
        if len(mv) < 1:
            raise DRXFormatError("empty compressed chunk payload")
        tag = mv[0]
        body = mv[1:]
        if tag == TAG_RAW:
            if len(body) != out_nbytes:
                raise DRXFormatError(
                    f"raw-tagged chunk payload holds {len(body)} bytes, "
                    f"expected {out_nbytes}"
                )
            return bytes(body)
        if tag != TAG_CODED:
            raise DRXFormatError(f"unknown chunk payload tag {tag}")
        out = self.decode(body, out_nbytes)
        if len(out) != out_nbytes:
            raise DRXFormatError(
                f"codec {self.name!r} decoded {len(out)} bytes, "
                f"expected {out_nbytes}"
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class NoneCodec(Codec):
    """Identity codec (present for registry completeness; ``codec="none"``
    arrays never route through the compression layer at all)."""

    name = "none"

    def encode(self, raw) -> bytes:
        return bytes(raw)

    def decode(self, body, out_nbytes: int) -> bytes:
        return bytes(body)


class ZlibCodec(Codec):
    """DEFLATE over the raw chunk bytes."""

    def __init__(self, level: int = 6) -> None:
        if not 1 <= level <= 9:
            raise DRXFileError(f"zlib level must be in 1..9, got {level}")
        self.level = level
        self.name = "zlib" if level == 6 else f"zlib:{level}"

    def encode(self, raw) -> bytes:
        return zlib.compress(bytes(raw), self.level)

    def decode(self, body, out_nbytes: int) -> bytes:
        try:
            return zlib.decompress(bytes(body))
        except zlib.error as exc:
            raise DRXFormatError(f"corrupt zlib chunk body: {exc}") from exc


class DeltaZlibCodec(Codec):
    """Word-wise wrapping delta, then DEFLATE.

    The delta runs over fixed-width integer words (``word_nbytes`` — the
    element itemsize, or 8 for wider types such as complex128).  All
    arithmetic wraps mod ``2**(8*word)``, so any bit pattern (including
    float payloads reinterpreted as integers) round-trips exactly.
    Payloads whose size is not a multiple of the word width keep an
    uncompressed remainder tail.
    """

    _WORD_DTYPES = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}

    def __init__(self, level: int = 6, word_nbytes: int = 8) -> None:
        if not 1 <= level <= 9:
            raise DRXFileError(f"zlib level must be in 1..9, got {level}")
        if word_nbytes not in self._WORD_DTYPES:
            word_nbytes = 8
        self.level = level
        self.word_nbytes = word_nbytes
        self.name = "delta+zlib" if level == 6 else f"delta+zlib:{level}"

    def _split(self, mv: memoryview) -> tuple[np.ndarray, bytes]:
        w = self.word_nbytes
        head = len(mv) - (len(mv) % w)
        words = np.frombuffer(mv[:head], dtype=self._WORD_DTYPES[w])
        return words, bytes(mv[head:])

    def encode(self, raw) -> bytes:
        words, tail = self._split(memoryview(raw))
        if words.size:
            delta = np.empty_like(words)
            delta[0] = words[0]
            np.subtract(words[1:], words[:-1], out=delta[1:])
            body = delta.tobytes() + tail
        else:
            body = tail
        return zlib.compress(body, self.level)

    def decode(self, body, out_nbytes: int) -> bytes:
        try:
            flat = zlib.decompress(bytes(body))
        except zlib.error as exc:
            raise DRXFormatError(f"corrupt delta chunk body: {exc}") from exc
        if len(flat) != out_nbytes:
            raise DRXFormatError(
                f"delta chunk decoded {len(flat)} bytes, "
                f"expected {out_nbytes}"
            )
        words, tail = self._split(memoryview(flat))
        if not words.size:
            return flat
        return np.cumsum(words, dtype=words.dtype).tobytes() + tail


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _parse_level(spec: str, base: str) -> int:
    """Decode ``base`` / ``base:<level>`` codec names."""
    if spec == base:
        return 6
    level = spec[len(base) + 1:]
    try:
        return int(level)
    except ValueError:
        raise DRXFileError(f"bad codec level in {spec!r}") from None


def get_codec(name: str, word_nbytes: int = 8) -> Codec:
    """Resolve a registry name to a codec instance.

    ``word_nbytes`` parameterizes the delta transform (pass the array's
    element itemsize); other codecs ignore it.
    """
    spec = str(name).strip().lower()
    if spec in ("", "none"):
        return NoneCodec()
    if spec == "zlib" or spec.startswith("zlib:"):
        return ZlibCodec(_parse_level(spec, "zlib"))
    if spec in ("delta", "delta+zlib") or spec.startswith("delta+zlib:"):
        level = 6 if spec == "delta" else _parse_level(spec, "delta+zlib")
        return DeltaZlibCodec(level, word_nbytes=word_nbytes)
    raise DRXFileError(
        f"unknown codec {name!r}; known: {', '.join(codec_names())}"
    )


def codec_names() -> list[str]:
    """The canonical registry names (levels elided)."""
    return ["none", "zlib", "zlib:<level>", "delta+zlib",
            "delta+zlib:<level>"]


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------

@dataclass
class CodecStats:
    """Cumulative compression counters for one array handle.

    ``raw_bytes`` / ``stored_bytes`` compare the logical chunk bytes
    against the framed payload bytes actually moved through the backing
    store; their quotient is the achieved compression ``ratio``.  The
    wall-time counters sum the CPU spent inside encode/decode (across
    executor threads, so they can exceed elapsed time when the offload
    overlaps).  The ``note_*`` helpers serialize on a private lock —
    executor batches report from worker threads.
    """

    encoded_chunks: int = 0
    decoded_chunks: int = 0
    raw_bytes: int = 0        #: uncompressed chunk bytes through the codec
    stored_bytes: int = 0     #: framed payload bytes (what the store moves)
    stored_raw: int = 0       #: chunks stored with the raw-passthrough tag
    encode_time: float = 0.0  #: seconds inside encode (summed over threads)
    decode_time: float = 0.0  #: seconds inside decode (summed over threads)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  init=False, repr=False, compare=False)

    @property
    def ratio(self) -> float:
        """Compression ratio raw/stored (1.0 when nothing moved yet)."""
        return self.raw_bytes / self.stored_bytes if self.stored_bytes \
            else 1.0

    @property
    def compressed_bytes(self) -> int:
        """Alias for ``stored_bytes`` (the Stats field name of the
        benchmark surface)."""
        return self.stored_bytes

    @property
    def codec_time(self) -> float:
        return self.encode_time + self.decode_time

    def note_encode(self, raw_nbytes: int, stored_nbytes: int,
                    seconds: float, passthrough: bool) -> None:
        with self._lock:
            self.encoded_chunks += 1
            self.raw_bytes += raw_nbytes
            self.stored_bytes += stored_nbytes
            self.encode_time += seconds
            if passthrough:
                self.stored_raw += 1

    def note_decode(self, raw_nbytes: int, stored_nbytes: int,
                    seconds: float) -> None:
        with self._lock:
            self.decoded_chunks += 1
            self.decode_time += seconds

    def snapshot(self) -> "CodecStats":
        return replace(self)


def timed_frame_encode(codec: Codec, raw, stats: CodecStats | None) -> bytes:
    """``frame_encode`` with stats accounting (helper for the store)."""
    t0 = time.perf_counter()
    payload = codec.frame_encode(raw)
    if stats is not None:
        stats.note_encode(len(memoryview(raw)), len(payload),
                          time.perf_counter() - t0,
                          passthrough=payload[0] == TAG_RAW)
    return payload


def timed_frame_decode(codec: Codec, payload, out_nbytes: int,
                       stats: CodecStats | None) -> bytes:
    """``frame_decode`` with stats accounting (helper for the store)."""
    t0 = time.perf_counter()
    raw = codec.frame_decode(payload, out_nbytes)
    if stats is not None:
        stats.note_decode(out_nbytes, len(memoryview(payload)),
                          time.perf_counter() - t0)
    return raw
