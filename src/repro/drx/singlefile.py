"""Single-file DRX format: meta-data embedded as the file header.

The paper's §V: "It is possible to combine the meta-data file and the
principal array file as a single file in which the meta-data information
is kept as the header content of the DRXMP file but this is left for
future work."  This module implements that future work.

Layout of a version-2 ``.drx`` single file::

    [ 0.. 8  )  magic  b"DRXSF\\x02\\x00\\x00"
    [ 8..40  )  header slot 0   <u64 generation, u64 meta offset,
    [40..72  )  header slot 1    u64 meta length, u32 meta CRC32,
                                 u32 slot CRC32>
    [72..R   )  meta-data blob regions (double-buffered while they fit)
    [ R..    )  chunk payloads: chunk q at R + q * chunk_nbytes

Commits are crash-consistent: each flush writes the new meta-data blob
into the *shadow* blob region (the one the current header does not point
at), makes it durable, then flips the generation-stamped, CRC-guarded
header slot ``generation % 2``.  A crash at any byte of the sequence
leaves at least one slot whose CRC validates and whose blob's CRC
validates — the reader picks the highest valid generation, so it sees
either the old or the new committed state, never garbage.

``R`` (``header_reserve``, default 64 KiB) fixes where chunks start, so
the array stays append-only.  While the blob fits half the reserve the
two regions alternate inside it; once it outgrows the reserve it
*relocates to the tail* of the file — past the chunk region — with the
slot pointer updated (the HDF5-superblock trick), the new tail copy
staggered past the previous one so the commit never tears the blob it is
replacing.  Chunk appends then overwrite stale tail copies, and the next
flush writes a fresh one.

Any other header version (``b"DRXSF\\x01"`` was a single unguarded
offset/length pointer) is refused with a
:class:`~repro.core.errors.DRXFormatError` naming it.

:class:`DRXSingleFile` *is a* :class:`~repro.drx.drxfile.DRXFile` — same
API, same chunk bytes, same create/open bodies and commit sequence.  It
differs in the three places the container shows: one physical store
(decorated once, in the role ``"data"``) serves both regions — the
handle's data store is an offset view past the reserve, its meta store
the whole file; the commit's landing step is the shadow-slot flip
above instead of an atomic replace; and ``extend`` recommits a
tail-resident blob past the projected chunk-region end first.
"""

from __future__ import annotations

import pathlib
import struct
import zlib
from functools import partial
from math import prod
from typing import Sequence

import numpy as np

from ..core.chunking import chunk_bounds_for
from ..core.errors import (
    DRXFileExistsError,
    DRXFileError,
    DRXFileNotFoundError,
    DRXFormatError,
)
from ..core.faultsites import crash_point
from ..core.metadata import DRXMeta, DRXType
from .codec import get_codec
from .drxfile import DRXFile, StoreWrapper, repackage
from .storage import (ByteStore, MemoryByteStore, PosixByteStore,
                      StoreDecorator)

__all__ = ["DRXSingleFile", "SINGLE_MAGIC", "DEFAULT_HEADER_RESERVE"]

SINGLE_MAGIC = b"DRXSF\x02\x00\x00"
#: One header slot: generation, meta offset, meta length, meta CRC32 —
#: followed by the CRC32 of those four fields (the slot's own guard).
_SLOT_BODY_FMT = "<QQQI"
_SLOT_BODY_SIZE = struct.calcsize(_SLOT_BODY_FMT)
_SLOT_SIZE = _SLOT_BODY_SIZE + 4
_SLOT0_OFF = len(SINGLE_MAGIC)
_HEADER_END = _SLOT0_OFF + 2 * _SLOT_SIZE
DEFAULT_HEADER_RESERVE = 64 * 1024


def _pack_slot(generation: int, offset: int, length: int,
               meta_crc: int) -> bytes:
    body = struct.pack(_SLOT_BODY_FMT, generation, offset, length, meta_crc)
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def _check_reserve(header_reserve: int) -> None:
    """Reject a header reserve too small for the header and a blob; the
    create path calls this before any store is opened, so a bad value
    cannot truncate an array."""
    if header_reserve < _HEADER_END + 64:
        raise DRXFileError(
            f"header reserve {header_reserve} too small "
            f"(need >= {_HEADER_END + 64})"
        )


def _unpack_slot(raw: bytes) -> tuple[int, int, int, int] | None:
    """Decode one header slot; ``None`` when its guard CRC fails."""
    body, (guard,) = raw[:_SLOT_BODY_SIZE], struct.unpack(
        "<I", raw[_SLOT_BODY_SIZE:_SLOT_SIZE])
    if zlib.crc32(body) & 0xFFFFFFFF != guard:
        return None
    return struct.unpack(_SLOT_BODY_FMT, body)


class _OffsetByteStore(StoreDecorator):
    """A byte store view shifted by a fixed base offset.

    Presents the chunk region of the single file as a zero-based store,
    so the chunk engine addresses it exactly like an ``.xta``.  Nothing
    reaches below ``base`` through the view: offsets are shifted, and
    whole-store ``replace`` (which would overwrite the header) is
    refused.  ``close`` is a no-op — the file's lifetime belongs to the
    handle's meta store, the undecorated view of the same file.
    """

    def __init__(self, inner: ByteStore, base: int) -> None:
        super().__init__(inner)
        self._base = base

    def _shift(self, extents) -> list[tuple[int, int]]:
        return [(self._base + off, length) for off, length in extents]

    def read(self, offset: int, length: int) -> bytes:
        return self._inner.read(self._base + offset, length)

    def write(self, offset: int, data) -> None:
        self._inner.write(self._base + offset, data)

    def readv(self, extents) -> bytes:
        return self._inner.readv(self._shift(extents))

    def writev(self, extents, data) -> None:
        self._inner.writev(self._shift(extents), data)

    def replace(self, data) -> None:
        raise DRXFileError(
            "replace() is not supported on the chunk region of a single "
            "file (it would overwrite the header)"
        )

    def read_alternates(self, offset: int, length: int) -> list[bytes]:
        return self._inner.read_alternates(self._base + offset, length)

    def repair(self, offset: int, data) -> None:
        self._inner.repair(self._base + offset, data)

    @property
    def size(self) -> int:
        return max(0, self._inner.size - self._base)

    def truncate(self, size: int) -> None:
        self._inner.truncate(self._base + size)

    def close(self) -> None:
        pass


class DRXSingleFile(DRXFile):
    """A DRX array stored as one self-describing file."""

    SUFFIX = ".drx"

    def __init__(self, meta: DRXMeta, raw: ByteStore, writable: bool,
                 header_reserve: int, generation: int = 0,
                 blob_span: tuple[int, int] | None = None,
                 **handle) -> None:
        _check_reserve(header_reserve)
        self._reserve = header_reserve
        #: generation of the last committed header slot (0 = none yet)
        self._generation = generation
        #: (offset, length) of the committed meta blob, for overlap
        #: avoidance when commits relocate to the tail
        self._blob_span = blob_span
        #: lower bound (relative to the chunk region) for tail-resident
        #: blob placement; raised during extend() so the committed copy
        #: is recommitted past the *projected* chunk-region end before
        #: new chunk payloads can clobber it
        self._tail_floor = 0
        meta.extra["container"] = "single-file"
        meta.extra["header_reserve"] = header_reserve
        super().__init__(meta, _OffsetByteStore(raw, header_reserve),
                         meta_store=raw, writable=writable, **handle)
        self._fence_tail_blob()

    def _fence_tail_blob(self) -> None:
        """A compressed array's slot allocator must route around a
        tail-resident committed meta blob (offsets are chunk-region
        relative): fence its span off from future chunk-slot
        allocations.  The stale previous copy's span is released by the
        reserve swap; re-registering the same span is a no-op."""
        table, span = self._store.table, self._blob_span
        if table is not None and span is not None \
                and span[0] >= self._reserve:
            table.mark_committed()
            table.reserve(span[0] - self._reserve, span[1])
            table.mark_committed()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def _mount(cls, meta: DRXMeta | None, raw: ByteStore, _meta_store,
               store_wrapper: StoreWrapper | None, writable: bool,
               header_reserve: int | None = None,
               **handle) -> "DRXSingleFile":
        """One physical store, decorated once in the role ``"data"``.
        ``meta=None`` (open) recovers the document through the decorated
        store, as every later header access goes."""
        if store_wrapper is not None:
            raw = store_wrapper(raw, "data")
        if meta is None:
            meta, header_reserve, generation, span = cls._read_header(raw)
        else:
            # magic + zeroed (hence invalid-CRC) slots, so a crash before
            # the first commit is recognizable as an uncommitted file
            raw.write(0, SINGLE_MAGIC + bytes(2 * _SLOT_SIZE))
            generation, span = 0, None
        return cls(meta, raw, writable, header_reserve, generation, span,
                   **handle)

    @classmethod
    def create(cls, path: str | pathlib.Path | None,
               bounds: Sequence[int], chunk_shape: Sequence[int],
               dtype: str | np.dtype | type = DRXType.DOUBLE,
               overwrite: bool = False,
               header_reserve: int = DEFAULT_HEADER_RESERVE,
               cache_pages: int = 64, checksums: bool = False,
               codec: str = "none",
               store_wrapper: StoreWrapper | None = None) -> "DRXSingleFile":
        _check_reserve(header_reserve)

        def place():
            if path is None:
                return MemoryByteStore(), None, lambda: None
            drx = cls._with_suffix(path)
            if drx.exists() and not overwrite:
                raise DRXFileExistsError(f"array {drx} already exists")
            return PosixByteStore(drx, "w+"), None, drx.unlink
        return cls._create(place, bounds, chunk_shape, dtype, checksums,
                           codec, store_wrapper,
                           header_reserve=header_reserve,
                           cache_pages=cache_pages)

    @classmethod
    def open(cls, path: str | pathlib.Path, mode: str = "r",
             cache_pages: int = 64,
             store_wrapper: StoreWrapper | None = None) -> "DRXSingleFile":
        def resolve():
            drx = cls._with_suffix(path)
            if not drx.exists():
                raise DRXFileNotFoundError(f"no array named {drx}")
            return None, PosixByteStore(drx, mode), None
        return cls._open(mode, resolve, store_wrapper,
                         cache_pages=cache_pages)

    @classmethod
    def create_pfs(cls, *_args, **_kwargs):
        raise DRXFileError("a single-file array lives in one POSIX file "
                           "(or in memory), not on the simulated PFS")

    open_pfs = create_pfs

    @classmethod
    def _with_suffix(cls, path: str | pathlib.Path) -> pathlib.Path:
        path = pathlib.Path(path)
        if path.suffix != cls.SUFFIX:
            path = path.with_name(path.name + cls.SUFFIX)
        return path

    @classmethod
    def _read_header(cls, raw: ByteStore
                     ) -> tuple[DRXMeta, int, int, tuple[int, int]]:
        """Decode the header: ``(meta, reserve, generation, blob span)``.

        It is recovered from whichever slot holds the highest generation
        that validates end to end (slot CRC *and* blob CRC *and* a
        parseable document) — a torn commit therefore falls back to the
        previous generation instead of failing.
        """
        head = raw.read(0, _HEADER_END)
        magic = head[:len(SINGLE_MAGIC)]
        if magic != SINGLE_MAGIC:
            if magic[:5] == SINGLE_MAGIC[:5]:
                raise DRXFormatError(
                    f"unsupported single-file header version {magic[5]} "
                    f"(this library reads version {SINGLE_MAGIC[5]})"
                )
            raise DRXFormatError("not a single-file DRX array (bad magic)")
        candidates = []
        for i in range(2):
            base = _SLOT0_OFF + i * _SLOT_SIZE
            slot = _unpack_slot(head[base:base + _SLOT_SIZE])
            if slot is not None and slot[0] > 0:
                candidates.append(slot)
        candidates.sort(key=lambda s: s[0], reverse=True)
        for gen, off, length, crc in candidates:
            if length == 0 or off < _HEADER_END:
                continue
            blob = raw.read(off, length)
            if zlib.crc32(blob) & 0xFFFFFFFF != crc:
                continue
            try:
                meta = DRXMeta.from_bytes(blob)
            except DRXFormatError:
                continue
            reserve = int(meta.extra.get("header_reserve",
                                         DEFAULT_HEADER_RESERVE))
            return meta, reserve, gen, (off, length)
        raise DRXFormatError(
            "corrupt single-file header (no slot commits a valid "
            "meta-data blob)"
        )

    # ------------------------------------------------------------------
    # meta persistence (shadow-slot commit; reserve while it fits, tail
    # once it doesn't)
    # ------------------------------------------------------------------
    def _blob_offset(self, generation: int, blob_len: int,
                     data_nbytes: int) -> int:
        """Where generation ``generation``'s meta blob goes.

        Inside the reserve the two generations alternate between the two
        halves, so a commit never writes over the blob the live header
        slot points at.  In the tail the new copy starts at the
        chunk-region end (or ``_tail_floor`` if an extension is in
        flight) and is staggered past the previous committed copy when
        the two would overlap.
        """
        half = (self._reserve - _HEADER_END) // 2
        if blob_len <= half:
            return _HEADER_END + (generation % 2) * half
        offset = self._reserve + max(data_nbytes, self._tail_floor)
        if self._blob_span is not None:
            prev_off, prev_len = self._blob_span
            if prev_off < offset + blob_len and offset < prev_off + prev_len:
                offset = prev_off + prev_len
        return offset

    def _land_meta(self, blob: bytes) -> None:
        """The shadow-slot commit: blob into the region the live slot
        does not point at, durable, then the slot flip."""
        raw = self._meta_store              # the whole file, header at 0
        blob_crc = zlib.crc32(blob) & 0xFFFFFFFF
        gen = self._generation + 1
        # tail placement must clear the *physical* chunk-region extent —
        # for a compressed array that is the slot table's high-water
        # mark, which can sit above or below the logical data_nbytes
        offset = self._blob_offset(gen, len(blob),
                                   self.data_extent_nbytes())
        crash_point("sf.meta.before_blob")
        raw.write(offset, blob)
        crash_point("sf.meta.after_blob")
        raw.flush()                  # blob durable before the slot flips
        slot = _pack_slot(gen, offset, len(blob), blob_crc)
        crash_point("sf.header.before_slot")
        raw.write(_SLOT0_OFF + (gen % 2) * _SLOT_SIZE, slot)
        crash_point("sf.header.after_slot")
        raw.flush()
        self._generation = gen
        self._blob_span = (offset, len(blob))
        self._fence_tail_blob()

    def extend(self, dim: int, by: int) -> None:
        self._require_open()
        if self._writable and self._blob_span is not None \
                and self._store.table is None \
                and self._blob_span[0] >= self._reserve:
            # The committed blob lives in the tail, where the extension
            # is about to materialize chunk payloads.  Recommit it past
            # the *projected* chunk-region end first, so a crash during
            # the extension still leaves a readable file.  (Compressed
            # arrays skip this: their slot allocator routes new payloads
            # around the blob's reserved span instead.)
            meta = self.meta
            bounds = list(meta.element_bounds)
            bounds[dim] += by
            new_chunks = prod(chunk_bounds_for(bounds, meta.chunk_shape))
            new_end = new_chunks * meta.chunk_nbytes
            try:
                if self._blob_span[0] < self._reserve + new_end:
                    self._tail_floor = new_end
                    self._persist_meta()
                super().extend(dim, by)
            finally:
                self._tail_floor = 0
            return
        super().extend(dim, by)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DRXSingleFile(shape={self.shape}, "
                f"chunks={self.chunk_shape}, reserve={self._reserve})")

    # ------------------------------------------------------------------
    # conversion to/from the two-file format
    # ------------------------------------------------------------------
    @classmethod
    def from_pair(cls, pair: DRXFile, path: str | pathlib.Path | None,
                  header_reserve: int = DEFAULT_HEADER_RESERVE,
                  codec: str | None = None) -> "DRXSingleFile":
        """Repackage a two-file array into a single file (chunk bytes,
        axial vectors and checksumming are carried verbatim; the codec
        follows the source unless overridden — payloads cross the
        boundary decompressed, so conversions can also recompress with a
        different codec)."""
        return repackage(pair, partial(cls.create, path, overwrite=True,
                                       header_reserve=header_reserve),
                         codec)

    def to_pair(self, path: str | pathlib.Path,
                overwrite: bool = False,
                codec: str | None = None) -> DRXFile:
        """Repackage into the classic ``.xmd``/``.xta`` pair (codec
        carried over unless overridden)."""
        return repackage(self, partial(DRXFile.create, path,
                                       overwrite=overwrite), codec)
