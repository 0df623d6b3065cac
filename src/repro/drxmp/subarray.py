"""Collective and independent sub-array I/O between zones and the file.

This module implements the paper's central I/O method (sections II-A and
IV-B):

1. Each process computes the linear addresses of its zone's chunks with
   the vectorized mapping function ``F*`` and sorts them increasing —
   the *filetype* is then an ``MPI_Type_indexed`` over whole chunks, so
   the file is scanned sequentially ("the chunk layout on disk are
   sequential and ... in increasing order of the linear addresses").
2. A collective ``Read_all`` (or an independent ``Read_at``) moves the
   chunk payloads.
3. The inverse mapping ``F*^-1`` recovers each arriving chunk's
   k-dimensional index, and the chunk is assigned into the requested
   position and *order* of the in-memory array ("Once the k-dimensional
   index is known the element can be assigned to the desired location in
   memory") — this is the on-the-fly transposition: asking for C order
   or Fortran order costs the same I/O.

Writes run the same pipeline backwards.  Partial edge chunks are padded
to full chunk size in the file (standard chunked-format practice); the
pad bytes are sliced away on read and zero-filled on write.
"""

from __future__ import annotations

import numpy as np

from ..core.chunking import box_shape, chunks_covering_box, validate_box
from ..core.errors import DRXIndexError
from ..core.inverse import f_star_inv_many
from ..core.mapping import f_star_many
from ..core.metadata import DRXMeta
from ..core.scatter import full_chunk_mask, gather_chunks, scatter_chunks
from ..drx.ioplan import coalesce_addresses
from ..mpi import datatypes
from ..mpi.file import File
from .partition import Zone

__all__ = ["chunk_datatype", "indexed_filetype", "zone_read",
           "zone_write", "box_read", "box_write"]


def chunk_datatype(meta: DRXMeta) -> datatypes.Datatype:
    """The committed MPI datatype of one whole chunk payload.

    Memoized per meta-data object: the chunk datatype depends only on
    the element dtype and the chunk element count, both immutable for
    the array's lifetime, so every filetype construction of every
    transfer reuses one committed instance instead of re-deriving it.
    """
    key = ("chunk_dt", meta.dtype_name, meta.chunk_elems)
    dt = meta._cache.get(key)
    if dt is None:
        base = datatypes.from_numpy_dtype(meta.dtype)
        dt = base.Create_contiguous(meta.chunk_elems).Commit()
        meta._cache[key] = dt
        datatypes.DATATYPE_STATS.note("chunk_dt_misses")
    else:
        datatypes.DATATYPE_STATS.note("chunk_dt_hits")
    return dt


def indexed_filetype(meta: DRXMeta,
                     addresses: np.ndarray) -> datatypes.Datatype:
    """An indexed filetype over whole chunks at the given (sorted) linear
    chunk addresses — the listing's ``MPI_Type_indexed(..., map, chunk)``.

    Adjacent addresses are pre-coalesced into multi-chunk blocks, so a
    zone whose chunks sit consecutively on disk (the common case under
    ``F*``) builds a filetype of a few long runs instead of one run per
    chunk.  The resulting typemap is byte-identical to the per-chunk
    construction (the datatype layer merges adjacent runs anyway); only
    the construction cost and the run bookkeeping shrink.  Unsorted
    address lists fall back to the literal per-chunk construction to
    preserve the standard's error behaviour at ``Set_view``.
    """
    chunk = chunk_datatype(meta)
    addrs = np.ascontiguousarray(addresses, dtype=np.int64)
    if addrs.size and np.all(np.diff(addrs) > 0):
        starts, counts = coalesce_addresses(addrs)
        ft = chunk.Create_indexed([int(c) for c in counts],
                                  [int(s) for s in starts])
    else:
        ft = chunk.Create_indexed([1] * len(addrs),
                                  [int(a) for a in addrs])
    return ft.Commit()


#: Bound on memoized F* plans per meta generation (zones repeat a small
#: number of distinct chunk-index sets; the cap only guards pathological
#: callers issuing thousands of distinct boxes between extends).
_PLAN_CACHE_MAX = 64


def _sorted_chunk_plan(meta: DRXMeta, chunk_indices: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """``(sorted addresses, chunk indices in that file order)``.

    Memoized on the axial index's *generation*: between extends the
    mapping ``F*`` is pure, so a rank re-reading the same zone (the
    steady state of the iterative workloads) skips both the vectorized
    mapping and the sort.  Any extension bumps the generation and drops
    the cached plans wholesale.
    """
    if chunk_indices.shape[0] == 0:
        return (np.empty(0, dtype=np.int64),
                chunk_indices.reshape(0, meta.rank))
    cache = meta._cache.setdefault("plans", {})
    gen = meta.eci.generation
    if cache.get("generation") != gen:
        cache.clear()
        cache["generation"] = gen
    key = chunk_indices.tobytes()
    hit = cache.get(key)
    if hit is not None:
        return hit
    addrs = f_star_many(meta.eci, chunk_indices)
    order = np.argsort(addrs, kind="stable")
    plan = (addrs[order], chunk_indices[order])
    if len(cache) <= _PLAN_CACHE_MAX:
        cache[key] = plan
    return plan


def _scatter_chunks(meta: DRXMeta, staging: np.ndarray,
                    addresses: np.ndarray, out: np.ndarray,
                    origin: tuple[int, ...]) -> None:
    """Scatter chunk payloads (file order) into an element-space array.

    ``staging`` is ``(nchunks, *chunk_shape)``; ``out`` starts at element
    ``origin`` of the principal array.  Uses ``F*^-1`` to recover each
    chunk's index — the paper's read-side use of the inverse mapping —
    then hands the whole batch to the dense-grid scatter kernel (one
    array-at-a-time copy instead of a per-chunk Python loop).
    """
    if addresses.size == 0:
        return
    indices = f_star_inv_many(meta.eci, addresses)
    scatter_chunks(staging, indices, meta.chunk_shape,
                   meta.element_bounds, out, origin)


def _gather_chunks(meta: DRXMeta, values: np.ndarray,
                   addresses: np.ndarray,
                   origin: tuple[int, ...]) -> np.ndarray:
    """Inverse of :meth:`_scatter_chunks`: build padded chunk payloads
    (file order) from an element-space array starting at ``origin``."""
    indices = f_star_inv_many(meta.eci, addresses) if addresses.size else \
        np.empty((0, meta.rank), dtype=np.int64)
    return gather_chunks(indices, meta.chunk_shape, meta.element_bounds,
                         values, origin, dtype=meta.dtype)


def _transfer(fh: File, meta: DRXMeta, addrs: np.ndarray,
              staging: np.ndarray, write: bool, collective: bool) -> None:
    """Move ``staging`` (one row per chunk, file order) between memory
    and the whole chunks at the sorted addresses ``addrs``: ``Set_view``
    with the listing's indexed filetype, then one access at offset 0.
    A rank with no chunks sets a plain view and moves zero bytes, which
    keeps collective call counts matched across ranks."""
    etype = datatypes.from_numpy_dtype(meta.dtype)
    if len(addrs):
        fh.Set_view(0, etype, indexed_filetype(meta, addrs))
    else:
        fh.Set_view(0, etype)
    if write:
        op = fh.Write_at_all if collective else fh.Write_at
    else:
        op = fh.Read_at_all if collective else fh.Read_at
    op(0, staging)


# ---------------------------------------------------------------------------
# zone-granularity transfers (the primary DRX-MP read/write path)
# ---------------------------------------------------------------------------

def zone_read(fh: File, meta: DRXMeta, zone: Zone, order: str = "C",
              collective: bool = True) -> np.ndarray:
    """Read one process's zone into a fresh array of the given order.

    ``collective=True`` issues ``Read_all`` (all ranks of ``fh.comm``
    must call together, zones may differ); ``False`` issues an
    independent ``Read_at``.
    """
    if order not in ("C", "F"):
        raise DRXIndexError(f"order must be 'C' or 'F', got {order!r}")
    addrs, _idx = _sorted_chunk_plan(meta, zone.chunk_indices())
    # zero-filled: unwritten chunks (sparse/short reads) must read as 0
    staging = np.zeros((len(addrs), *meta.chunk_shape), dtype=meta.dtype)
    _transfer(fh, meta, addrs, staging, False, collective)
    lo, hi = zone.element_box(meta.chunk_shape, meta.element_bounds)
    out = np.zeros(box_shape(lo, hi), dtype=meta.dtype, order=order)
    _scatter_chunks(meta, staging, addrs, out, lo)
    return out


def zone_write(fh: File, meta: DRXMeta, zone: Zone, values: np.ndarray,
               collective: bool = True) -> None:
    """Write one process's zone from ``values`` (shaped like the zone's
    clipped element box)."""
    lo, hi = zone.element_box(meta.chunk_shape, meta.element_bounds)
    expect = box_shape(lo, hi)
    if tuple(values.shape) != expect:
        raise DRXIndexError(
            f"zone buffer shape {tuple(values.shape)} != zone box {expect}"
        )
    values = np.asarray(values, dtype=meta.dtype)
    addrs, _idx = _sorted_chunk_plan(meta, zone.chunk_indices())
    staging = _gather_chunks(meta, values, addrs, lo)
    _transfer(fh, meta, addrs, staging, True, collective)


# ---------------------------------------------------------------------------
# arbitrary-box transfers (independent, any rank, any rectilinear region)
# ---------------------------------------------------------------------------

def box_read(fh: File, meta: DRXMeta, lo, hi, order: str = "C",
             collective: bool = False) -> np.ndarray:
    """Read an arbitrary element box ``[lo, hi)`` (chunk-covering I/O)."""
    lo, hi = tuple(lo), tuple(hi)
    validate_box(lo, hi, meta.element_bounds)
    covering = chunks_covering_box(lo, hi, meta.chunk_shape)
    addrs, _idx = _sorted_chunk_plan(meta, covering)
    staging = np.zeros((len(addrs), *meta.chunk_shape), dtype=meta.dtype)
    _transfer(fh, meta, addrs, staging, False, collective)
    out = np.zeros(box_shape(lo, hi), dtype=meta.dtype, order=order)
    # scatter only the intersection of each chunk with the box — the
    # kernel clips every chunk box against [lo, hi) in one batch
    if len(addrs):
        indices = f_star_inv_many(meta.eci, addrs)
        scatter_chunks(staging, indices, meta.chunk_shape,
                       meta.element_bounds, out, lo)
    return out


def box_write(fh: File, meta: DRXMeta, lo, values: np.ndarray,
              collective: bool = False) -> None:
    """Write an arbitrary element box (read-modify-write at the edges).

    Chunks only partially covered by the box are read first so the
    untouched elements survive — the chunk is the unit of file access.
    """
    values = np.asarray(values, dtype=meta.dtype)
    lo = tuple(lo)
    hi = tuple(l + s for l, s in zip(lo, values.shape))
    validate_box(lo, hi, meta.element_bounds)
    covering = chunks_covering_box(lo, hi, meta.chunk_shape)
    addrs, _idx = _sorted_chunk_plan(meta, covering)
    cs = meta.chunk_shape
    indices = f_star_inv_many(meta.eci, addrs) if len(addrs) else \
        np.empty((0, meta.rank), dtype=np.int64)
    # which covering chunks are only partially inside the box?
    partial_slots = np.flatnonzero(
        ~full_chunk_mask(indices, cs, meta.element_bounds, lo, hi)
    ).tolist() if len(addrs) else []
    staging = np.zeros((len(addrs), *cs), dtype=meta.dtype)
    if partial_slots or collective:
        # a collective pre-read happens on every rank, partial chunks or
        # not, so call counts stay matched
        part = np.zeros((len(partial_slots), *cs), dtype=meta.dtype)
        _transfer(fh, meta, addrs[partial_slots], part, False, collective)
        staging[partial_slots] = part
    # overlay the box onto the (pre-read where partial) payloads
    gather_chunks(indices, cs, meta.element_bounds, values, lo,
                  staging=staging)
    _transfer(fh, meta, addrs, staging, True, collective)
