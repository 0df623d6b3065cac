"""MPI derived datatypes, reduced to their essence: byte typemaps.

An MPI datatype is a recipe describing which bytes of a buffer (or of a
file, when used as a *filetype* in ``MPI_File_set_view``) carry data and
in what order.  We represent a committed datatype by

* a **typemap**: sorted, non-overlapping byte runs ``(offset, length)``
  relative to the datatype's origin, stored as NumPy arrays;
* a **size**: the number of data bytes (sum of run lengths);
* an **extent** and **lower bound**: the span the datatype occupies, used
  to tile it (``Create_contiguous``, file views, counts > 1).

Every standard constructor the paper's code listing needs is provided —
``Create_contiguous``, ``Create_vector``, ``Create_indexed`` (the listing
builds both its filetype and its memtype with ``MPI_Type_indexed``),
``Create_hindexed``, ``Create_indexed_block``, ``Create_subarray``,
``Create_struct`` and ``Create_resized`` — with MPI's extent semantics
(e.g. a subarray's extent is the full enclosing array, so tiling works).

``pack``/``unpack`` implement the gather/scatter between a typed buffer
and a contiguous data stream; they are what ``MPI_File_read_all`` uses to
honour the in-memory datatype ("inMemoryMap") of the paper's listing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from math import prod
from typing import Sequence

import numpy as np

from ..core.errors import MPIDatatypeError

__all__ = ["Datatype", "DatatypeStats", "DATATYPE_STATS", "BYTE", "INT",
           "INT32", "INT64", "FLOAT", "DOUBLE", "COMPLEX",
           "from_numpy_dtype"]


@dataclass
class DatatypeStats:
    """Process-wide cache counters for derived-datatype hot paths.

    Every repeated zone/box transfer re-tiles the same datatype with the
    same count; the memoized run tables and scatter indices turn that
    re-derivation into a dictionary hit.  The counters make the hit rate
    observable (tests pin it, the tuning advisor reads it).
    """

    tiled_hits: int = 0       #: memoized ``_tiled_runs`` reuses
    tiled_misses: int = 0     #: ``_tiled_runs`` built fresh
    index_hits: int = 0       #: memoized scatter/gather index reuses
    index_misses: int = 0     #: scatter/gather indices built fresh
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  init=False, repr=False, compare=False)

    def note(self, counter: str, by: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + by)

    def snapshot(self) -> "DatatypeStats":
        return replace(self)


#: Process-wide datatype cache counters.
DATATYPE_STATS = DatatypeStats()

#: Memoized entries kept per datatype instance (counts in flight vary
#: little; the bound only guards pathological callers).
_TILE_CACHE_MAX = 8

#: Runs at or below this mean length use the expanded per-byte
#: scatter/gather index (the interpreter-bound regime); longer runs are
#: plain ``memmove``-sized slice copies where a Python loop is already
#: memory-bound.
_VECTOR_RUN_CUTOFF = 512


def _coalesce_runs(offsets: np.ndarray, lengths: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Merge consecutive adjacent byte runs, preserving data order.

    MPI typemaps are ordered: the i-th data byte of the type corresponds
    to walking the runs in map order, *not* in offset order (e.g.
    ``Type_indexed`` with decreasing displacements scatters consecutive
    data backwards through the buffer).  So we must never sort — only
    merge a run that starts exactly where its predecessor ends.
    Overlapping runs are rejected (illegal as receive/read targets,
    and unused by this library as send types).
    """
    keep = lengths > 0
    if not np.all(keep):
        offsets = offsets[keep]
        lengths = lengths[keep]
    if offsets.size == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    ends = offsets + lengths
    new_group = np.empty(offsets.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = offsets[1:] != ends[:-1]
    group = np.cumsum(new_group) - 1
    n = int(group[-1]) + 1
    out_off = offsets[new_group]
    out_len = np.zeros(n, dtype=np.int64)
    np.add.at(out_len, group, lengths)
    # overlap check on a sorted copy (order itself stays untouched)
    order = np.argsort(out_off, kind="stable")
    so = out_off[order]
    se = so + out_len[order]
    if np.any(so[1:] < se[:-1]):
        raise MPIDatatypeError("datatype typemap has overlapping runs")
    return out_off, out_len


class Datatype:
    """An (optionally derived) MPI datatype.  See module docstring."""

    __slots__ = ("offsets", "lengths", "lb", "extent", "name",
                 "_committed", "_freed", "_cumlen", "_tiled_cache",
                 "_index_cache")

    def __init__(self, offsets: np.ndarray, lengths: np.ndarray,
                 lb: int, extent: int, name: str = "derived",
                 committed: bool = False) -> None:
        self.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        self.lengths = np.ascontiguousarray(lengths, dtype=np.int64)
        if self.offsets.shape != self.lengths.shape:
            raise MPIDatatypeError("offsets/lengths shape mismatch")
        if np.any(self.lengths < 0):
            raise MPIDatatypeError("negative run length")
        self.lb = int(lb)
        self.extent = int(extent)
        self.name = name
        self._committed = committed
        self._freed = False
        self._cumlen: np.ndarray | None = None
        #: count -> (offsets, lengths) of that many tiled instances
        self._tiled_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        #: count -> per-byte scatter/gather index (small-run regime)
        self._index_cache: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of data bytes in one instance of the type."""
        return int(self.lengths.sum())

    @property
    def ub(self) -> int:
        return self.lb + self.extent

    @property
    def num_runs(self) -> int:
        return int(self.offsets.size)

    @property
    def is_contiguous(self) -> bool:
        """True when one instance is a single run starting at offset 0."""
        return (self.num_runs == 1 and int(self.offsets[0]) == 0
                and int(self.lengths[0]) == self.size == self.extent)

    @property
    def cumlen(self) -> np.ndarray:
        """Exclusive prefix sums of run lengths (data offset of each run)."""
        if self._cumlen is None:
            c = np.zeros(self.num_runs + 1, dtype=np.int64)
            np.cumsum(self.lengths, out=c[1:])
            self._cumlen = c
        return self._cumlen

    def Commit(self) -> "Datatype":
        """Mark the type usable in communication and I/O (MPI_Type_commit)."""
        self._check_alive()
        self._committed = True
        return self

    def Free(self) -> None:
        """Invalidate the type (MPI_Type_free)."""
        self._freed = True

    def _check_alive(self) -> None:
        if self._freed:
            raise MPIDatatypeError(f"datatype {self.name!r} has been freed")

    def _check_usable(self) -> None:
        self._check_alive()
        if not self._committed:
            raise MPIDatatypeError(
                f"datatype {self.name!r} used before Commit()"
            )

    def Get_size(self) -> int:
        return self.size

    def Get_extent(self) -> tuple[int, int]:
        return self.lb, self.extent

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Datatype({self.name!r}, size={self.size}, "
                f"extent={self.extent}, runs={self.num_runs})")

    # ------------------------------------------------------------------
    # derived-type constructors
    # ------------------------------------------------------------------
    def Create_contiguous(self, count: int) -> "Datatype":
        """``count`` copies laid end to end (MPI_Type_contiguous)."""
        self._check_alive()
        if count < 0:
            raise MPIDatatypeError(f"negative count {count}")
        reps = np.arange(count, dtype=np.int64) * self.extent
        offsets = (self.offsets[None, :] + reps[:, None]).ravel()
        lengths = np.broadcast_to(self.lengths, (count, self.num_runs)).ravel()
        offsets, lengths = _coalesce_runs(offsets.copy(), lengths.copy())
        return Datatype(offsets, lengths, lb=self.lb,
                        extent=self.extent * count,
                        name=f"contig({count})x{self.name}")

    def Create_vector(self, count: int, blocklength: int,
                      stride: int) -> "Datatype":
        """``count`` blocks of ``blocklength`` items, ``stride`` items apart."""
        return self._strided(count, blocklength, stride * self.extent,
                             f"vector({count},{blocklength},{stride})")

    def Create_hvector(self, count: int, blocklength: int,
                       stride_bytes: int) -> "Datatype":
        """Like :meth:`Create_vector` but the stride is in bytes."""
        return self._strided(count, blocklength, stride_bytes,
                             f"hvector({count},{blocklength},{stride_bytes}B)")

    def _strided(self, count: int, blocklength: int, stride_bytes: int,
                 name: str) -> "Datatype":
        self._check_alive()
        if count < 0 or blocklength < 0:
            raise MPIDatatypeError("negative count/blocklength")
        block = self.Create_contiguous(blocklength)
        starts = np.arange(count, dtype=np.int64) * stride_bytes
        offsets = (block.offsets[None, :] + starts[:, None]).ravel()
        lengths = np.broadcast_to(
            block.lengths, (count, block.num_runs)).ravel()
        offsets, lengths = _coalesce_runs(offsets.copy(), lengths.copy())
        if count == 0:
            extent = 0
            lb = 0
        else:
            lb = min(int(starts[0]) + block.lb, int(starts[-1]) + block.lb)
            ub = max(int(s) + block.ub for s in (starts[0], starts[-1]))
            extent = ub - lb
        return Datatype(offsets, lengths, lb=lb, extent=extent,
                        name=f"{name}x{self.name}")

    def Create_indexed(self, blocklengths: Sequence[int],
                       displacements: Sequence[int]) -> "Datatype":
        """Blocks at item displacements (MPI_Type_indexed).

        This is the constructor the paper's listing uses twice: once with
        the sorted chunk linear addresses (the filetype) and once with the
        in-memory destination positions (the memtype).
        """
        disp_bytes = [d * self.extent for d in displacements]
        return self.Create_hindexed(blocklengths, disp_bytes)

    def Create_indexed_block(self, blocklength: int,
                             displacements: Sequence[int]) -> "Datatype":
        """Equal-length blocks at item displacements."""
        return self.Create_indexed([blocklength] * len(displacements),
                                   displacements)

    def Create_hindexed(self, blocklengths: Sequence[int],
                        displacements: Sequence[int]) -> "Datatype":
        """Blocks at byte displacements (MPI_Type_create_hindexed)."""
        self._check_alive()
        if len(blocklengths) != len(displacements):
            raise MPIDatatypeError(
                f"{len(blocklengths)} blocklengths vs "
                f"{len(displacements)} displacements"
            )
        bl = np.asarray(blocklengths, dtype=np.int64).reshape(-1)
        disp = np.asarray(displacements, dtype=np.int64).reshape(-1)
        if np.any(bl < 0):
            raise MPIDatatypeError(f"negative blocklength {bl.min()}")
        if self.is_contiguous:
            # each block is one run (a byte-level filetype over thousands
            # of extents costs one vectorized step)
            offsets, lengths = disp, bl * self.extent
        else:
            # block b tiles bl[b] instances of the type from disp[b]
            item = np.arange(int(bl.sum())) - np.repeat(np.cumsum(bl) - bl,
                                                         bl)
            starts = np.repeat(disp, bl) + item * self.extent
            offsets = (starts[:, None] + self.offsets[None, :]).ravel()
            lengths = np.tile(self.lengths, len(starts))
        ends = disp + self.lb + bl * self.extent
        lb = min(0, int((disp + self.lb).min())) if disp.size else 0
        ub = max(0, int(ends.max())) if disp.size else 0
        offsets, lengths = _coalesce_runs(offsets, lengths)
        return Datatype(offsets, lengths, lb=lb, extent=ub - lb,
                        name=f"indexed({len(bl)})x{self.name}")

    def Create_subarray(self, sizes: Sequence[int], subsizes: Sequence[int],
                        starts: Sequence[int], order: str = "C") -> "Datatype":
        """A k-dimensional sub-block of a k-dimensional array.

        The extent is the *full* array (MPI semantics), so consecutive
        counts tile whole arrays.  ``order`` is ``"C"`` (row-major) or
        ``"F"`` (column-major) and describes the *enclosing* array layout.
        """
        self._check_alive()
        k = len(sizes)
        if len(subsizes) != k or len(starts) != k:
            raise MPIDatatypeError("sizes/subsizes/starts rank mismatch")
        for n, s, st in zip(sizes, subsizes, starts):
            if n < 1 or s < 1 or st < 0 or st + s > n:
                raise MPIDatatypeError(
                    f"invalid subarray: sizes={tuple(sizes)} "
                    f"subsizes={tuple(subsizes)} starts={tuple(starts)}"
                )
        if order not in ("C", "F"):
            raise MPIDatatypeError(f"order must be 'C' or 'F', got {order!r}")
        if order == "F":
            sizes = list(reversed(sizes))
            subsizes = list(reversed(subsizes))
            starts = list(reversed(starts))
        # Row-major element offsets of the sub-block.
        idx = np.indices(subsizes, dtype=np.int64)
        idx = idx.reshape(k, -1)
        coeff = np.ones(k, dtype=np.int64)
        for j in range(k - 2, -1, -1):
            coeff[j] = coeff[j + 1] * sizes[j + 1]
        elem = ((idx + np.asarray(starts, dtype=np.int64)[:, None])
                * coeff[:, None]).sum(axis=0)
        offsets = np.sort(elem) * self.extent
        lengths = np.full(offsets.size, self.extent, dtype=np.int64)
        # add per-element inner runs if the base type is not contiguous
        if not self.is_contiguous:
            offsets = (offsets[:, None] + self.offsets[None, :]).ravel()
            lengths = np.broadcast_to(
                self.lengths, (elem.size, self.num_runs)).ravel().copy()
        offsets, lengths = _coalesce_runs(offsets, lengths)
        full = prod(sizes) * self.extent
        return Datatype(offsets, lengths, lb=0, extent=full,
                        name=f"subarray{tuple(subsizes)}x{self.name}")

    def Create_resized(self, lb: int, extent: int) -> "Datatype":
        """Override lower bound and extent (MPI_Type_create_resized)."""
        self._check_alive()
        return Datatype(self.offsets.copy(), self.lengths.copy(),
                        lb=lb, extent=extent, name=f"resized:{self.name}")

    @staticmethod
    def Create_struct(blocklengths: Sequence[int],
                      displacements: Sequence[int],
                      types: Sequence["Datatype"]) -> "Datatype":
        """Heterogeneous blocks (MPI_Type_create_struct)."""
        if not (len(blocklengths) == len(displacements) == len(types)):
            raise MPIDatatypeError("struct argument length mismatch")
        all_off: list[np.ndarray] = []
        all_len: list[np.ndarray] = []
        lb = 0
        ub = 0
        for bl, disp, t in zip(blocklengths, displacements, types):
            t._check_alive()
            block = t.Create_contiguous(bl)
            all_off.append(block.offsets + disp)
            all_len.append(block.lengths)
            lb = min(lb, disp + block.lb)
            ub = max(ub, disp + block.ub)
        offsets = np.concatenate(all_off) if all_off else np.empty(0, np.int64)
        lengths = np.concatenate(all_len) if all_len else np.empty(0, np.int64)
        offsets, lengths = _coalesce_runs(offsets, lengths)
        return Datatype(offsets, lengths, lb=lb, extent=ub - lb,
                        name=f"struct({len(types)})")

    # ------------------------------------------------------------------
    # pack / unpack (typed buffer <-> contiguous data stream)
    # ------------------------------------------------------------------
    def _tiled_runs(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Runs of ``count`` tiled instances (byte offsets, lengths).

        Memoized per count: every transfer of the same (datatype, count)
        pair — the steady state of iterative zone workloads — reuses one
        run table instead of re-deriving it.
        """
        hit = self._tiled_cache.get(count)
        if hit is not None:
            DATATYPE_STATS.note("tiled_hits")
            return hit
        DATATYPE_STATS.note("tiled_misses")
        reps = np.arange(count, dtype=np.int64) * self.extent
        offs = (self.offsets[None, :] + reps[:, None]).ravel()
        lens = np.broadcast_to(self.lengths,
                               (count, self.num_runs)).ravel()
        if len(self._tiled_cache) >= _TILE_CACHE_MAX:
            self._tiled_cache.pop(next(iter(self._tiled_cache)))
        self._tiled_cache[count] = (offs, lens)
        return offs, lens

    def _scatter_index(self, count: int, offs: np.ndarray,
                       lens: np.ndarray, total: int) -> np.ndarray:
        """Per-byte buffer offsets of the typemap's data stream.

        ``idx[j]`` is the buffer byte holding data byte ``j``, so a pack
        is the single fancy gather ``buf[idx]`` and an unpack the single
        fancy scatter ``buf[idx] = data``.  Memoized per count (the
        index depends only on the immutable typemap).
        """
        hit = self._index_cache.get(count)
        if hit is not None:
            DATATYPE_STATS.note("index_hits")
            return hit
        DATATYPE_STATS.note("index_misses")
        starts = np.zeros(offs.size, dtype=np.int64)
        np.cumsum(lens[:-1], out=starts[1:])
        idx = np.arange(total, dtype=np.int64)
        idx += np.repeat(offs - starts, lens)
        if len(self._index_cache) >= _TILE_CACHE_MAX:
            self._index_cache.pop(next(iter(self._index_cache)))
        self._index_cache[count] = idx
        return idx

    def _check_runs_fit(self, offs: np.ndarray, lens: np.ndarray,
                        nbuf: int, op: str) -> None:
        ends = offs + lens
        bad = np.flatnonzero(ends > nbuf)
        if bad.size:
            o = int(offs[bad[0]])
            e = int(ends[bad[0]])
            raise MPIDatatypeError(
                f"{op}: run [{o},{e}) beyond buffer of {nbuf} bytes"
            )

    def pack(self, buffer: np.ndarray | bytes | bytearray | memoryview,
             count: int = 1) -> bytes:
        """Gather the data bytes of ``count`` instances from ``buffer``.

        One C-level operation end to end: contiguous types slice the
        buffer directly; fragmented typemaps gather every byte with one
        memoized fancy index (small runs) or one slice copy per run
        (long runs, where ``memmove`` already dominates).  No
        intermediate ``bytes`` are materialized.
        """
        self._check_usable()
        mv = _as_bytes_view(buffer)
        if self.is_contiguous:
            end = count * self.size
            if end > len(mv):
                raise MPIDatatypeError(
                    f"pack: run [0,{end}) beyond buffer of {len(mv)} bytes"
                )
            return mv[:end].tobytes()
        offs, lens = self._tiled_runs(count)
        if offs.size == 0:
            return b""
        self._check_runs_fit(offs, lens, len(mv), "pack")
        total = int(lens.sum())
        src = np.frombuffer(mv, dtype=np.uint8)
        if total <= offs.size * _VECTOR_RUN_CUTOFF:
            idx = self._scatter_index(count, offs, lens, total)
            return src[idx].tobytes()
        out = np.empty(total, dtype=np.uint8)
        pos = 0
        for o, n in zip(offs.tolist(), lens.tolist()):
            out[pos:pos + n] = src[o:o + n]
            pos += n
        return out.tobytes()

    def unpack(self, buffer: np.ndarray | bytearray | memoryview,
               data: bytes, count: int = 1) -> int:
        """Scatter a contiguous data stream into ``buffer`` per typemap.

        Returns the number of bytes consumed.  ``data`` may be shorter
        than ``count * size`` (a short read); scattering stops when the
        stream is exhausted.  Like :meth:`pack` this is one fancy
        scatter (or one slice copy per long run) with no intermediate
        copies of ``data``.
        """
        self._check_usable()
        mv = _as_bytes_view(buffer, writable=True)
        if isinstance(data, np.ndarray):
            src = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        else:
            src = np.frombuffer(data, dtype=np.uint8)
        if self.is_contiguous:
            take = min(count * self.size, len(src))
            if take > len(mv):
                raise MPIDatatypeError(
                    f"unpack: run [0,{take}) beyond buffer of "
                    f"{len(mv)} bytes"
                )
            np.frombuffer(mv, dtype=np.uint8)[:take] = src[:take]
            return take
        offs, lens = self._tiled_runs(count)
        if offs.size == 0 or len(src) == 0:
            return 0
        total = int(lens.sum())
        take = min(total, len(src))
        # bound-check only the runs the stream actually reaches,
        # truncating the last one exactly as the historical loop did
        cum = np.zeros(offs.size + 1, dtype=np.int64)
        np.cumsum(lens, out=cum[1:])
        touched = int(np.searchsorted(cum[1:], take, side="left")) + 1
        t_offs = offs[:touched].copy()
        t_lens = lens[:touched].copy()
        t_lens[-1] = take - int(cum[touched - 1])
        self._check_runs_fit(t_offs, t_lens, len(mv), "unpack")
        dst = np.frombuffer(mv, dtype=np.uint8)
        if take <= touched * _VECTOR_RUN_CUTOFF:
            idx = self._scatter_index(count, offs, lens, total)
            dst[idx[:take]] = src[:take]
            return take
        pos = 0
        for o, n in zip(t_offs.tolist(), t_lens.tolist()):
            dst[o:o + n] = src[pos:pos + n]
            pos += n
        return take


def _as_bytes_view(buffer, writable: bool = False) -> memoryview:
    """A flat byte view of a NumPy array / bytes-like object."""
    if isinstance(buffer, np.ndarray):
        if buffer.size == 0:
            # memoryview cannot cast shapes containing zero; an empty
            # buffer is a legal (if trivial) message/IO target
            mv = memoryview(bytearray())
        elif buffer.flags["C_CONTIGUOUS"]:
            mv = memoryview(buffer).cast("B")
        elif buffer.flags["F_CONTIGUOUS"]:
            # same backing memory, viewed through its C-contiguous transpose
            mv = memoryview(buffer.T).cast("B")
        else:
            raise MPIDatatypeError("buffer must be contiguous")
    else:
        mv = memoryview(buffer).cast("B")
    if writable and mv.readonly:
        raise MPIDatatypeError("buffer is read-only")
    return mv


def _basic(nbytes: int, name: str) -> Datatype:
    return Datatype(np.array([0], dtype=np.int64),
                    np.array([nbytes], dtype=np.int64),
                    lb=0, extent=nbytes, name=name, committed=True)


#: Predefined basic datatypes (committed, like MPI's named types).
BYTE = _basic(1, "MPI_BYTE")
INT32 = _basic(4, "MPI_INT32_T")
INT = INT32
INT64 = _basic(8, "MPI_INT64_T")
FLOAT = _basic(4, "MPI_FLOAT")
DOUBLE = _basic(8, "MPI_DOUBLE")
COMPLEX = _basic(16, "MPI_C_DOUBLE_COMPLEX")

_NUMPY_MAP = {
    np.dtype(np.uint8): BYTE,
    np.dtype(np.int32): INT32,
    np.dtype(np.int64): INT64,
    np.dtype(np.float32): FLOAT,
    np.dtype(np.float64): DOUBLE,
    np.dtype(np.complex128): COMPLEX,
}


def from_numpy_dtype(dtype: np.dtype | type) -> Datatype:
    """The named basic datatype matching a NumPy dtype."""
    dt = np.dtype(dtype)
    try:
        return _NUMPY_MAP[dt]
    except KeyError:
        raise MPIDatatypeError(f"no basic MPI datatype for {dt}") from None
