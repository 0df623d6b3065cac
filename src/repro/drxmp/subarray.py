"""Collective and independent sub-array I/O between zones and the file.

This module implements the paper's central I/O method (sections II-A and
IV-B) as a front end over the one chunk store ``DRXFile`` uses, so both
read and write the same format:

1. Each process computes the linear addresses of its zone's chunks with
   the vectorized mapping function ``F*`` and sorts them increasing:
   the *plan*, which carries each chunk's k-dimensional index along.
2. The chunk store places the chunks (``q* · chunk_nbytes``, or a
   compressed array's slots; a chunk without a slot reads as zeros
   with no I/O).  The *filetype* is a byte-level hindexed type over
   those extents in physical order, so the file is scanned
   sequentially ("the chunk layout on disk are sequential and ... in
   increasing order of the linear addresses").
3. A collective ``Read_all`` (or an independent ``Read_at``) moves the
   stored bytes; the chunk store verifies and decodes them where the
   array is checksummed or compressed.
4. The plan's chunk indices assign each chunk into the requested
   position and *order* of the in-memory array — the on-the-fly
   transposition: C order or Fortran order costs the same I/O.

Writes run the same pipeline backwards; a checksummed array's CRCs reach
the other ranks at the next collective point (see
:meth:`~repro.drxmp.handles.DRXMDHdl.sync_crcs`).  Partial edge chunks
are padded to full chunk size in the file; the pad bytes are sliced away
on read and zero-filled on write.
"""

from __future__ import annotations

import numpy as np

from ..core.chunking import box_shape, chunks_covering_box, validate_box
from ..core.errors import DRXIndexError
from ..core.mapping import f_star_many
from ..core.metadata import DRXMeta
from ..core.scatter import full_chunk_mask, gather_chunks, scatter_chunks
from ..mpi import datatypes
from .handles import DRXMDHdl
from .partition import Zone

__all__ = ["extent_filetype", "zone_read", "zone_write", "box_read",
           "box_write"]


def extent_filetype(offsets: np.ndarray,
                    lengths: np.ndarray) -> datatypes.Datatype:
    """A byte-level hindexed filetype over stored extents (sorted by
    physical offset) — the listing's ``MPI_Type_indexed(..., map,
    chunk)`` with the chunk store's placement in place of ``q* ·
    chunk_nbytes``.  Adjacent extents merge into one run."""
    return datatypes.BYTE.Create_hindexed(lengths, offsets).Commit()


def _plan(meta: DRXMeta, chunk_indices: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray]:
    """``(addresses, chunk indices)`` of a request's chunks in file
    order: one vectorized ``F*`` and one sort."""
    addrs = f_star_many(meta.eci, chunk_indices)
    order = np.argsort(addrs, kind="stable")
    return addrs[order], chunk_indices[order]


def _bytes(a: np.ndarray) -> memoryview:
    """A flat byte view of a C-contiguous array, empty ones included."""
    return memoryview(a.reshape(-1).view(np.uint8))


def _transfer(h: DRXMDHdl, addrs: np.ndarray, staging: np.ndarray,
              write: bool, collective: bool) -> None:
    """Move ``staging`` (one row per chunk, the sorted addresses
    ``addrs`` in order) between memory and the chunks' stored bytes:
    ``Set_view`` with the extent filetype, then one access at offset 0.
    A rank with no stored chunks sets a plain view and moves zero bytes,
    which keeps collective call counts matched across ranks."""
    store, fh = h.store, h.data_file
    rows, offsets, lengths = store.physical_extents(addrs)
    if len(rows):
        fh.Set_view(0, datatypes.BYTE, extent_filetype(offsets, lengths))
    else:
        fh.Set_view(0, datatypes.BYTE)
    nb = store.chunk_nbytes
    if write:
        # compressed arrays are never opened for writing (DRXMPFile)
        (fh.Write_at_all if collective else fh.Write_at)(0, staging)
        if store.guard is not None:
            flat = _bytes(staging)
            for r in rows.tolist():
                store.guard.record(int(addrs[r]), flat[r * nb:(r + 1) * nb])
                h.crc_dirty.add(int(addrs[r]))
            if collective:
                h.sync_crcs()
        return
    read = fh.Read_at_all if collective else fh.Read_at
    if store.codec is None:
        read(0, staging)        # direct placement: the bytes are the chunks
        if store.guard is None:
            return
        buf = staging
    else:
        buf = np.empty(int(lengths.sum()), dtype=np.uint8)
        read(0, buf)
    blob, flat = _bytes(buf), _bytes(staging)
    ends = np.cumsum(lengths).tolist()
    frames = [(r, (int(addrs[r]), (o, n), blob[e - n:e])) for r, o, n, e
              in zip(rows.tolist(), offsets.tolist(), lengths.tolist(),
                     ends)]

    def place(rs: list[int], raws: list) -> None:
        for r, raw in zip(rs, raws):
            flat[r * nb:(r + 1) * nb] = raw

    store.decode_each(frames, place)


# ---------------------------------------------------------------------------
# zone-granularity transfers (the primary DRX-MP read/write path)
# ---------------------------------------------------------------------------

def zone_read(h: DRXMDHdl, zone: Zone, order: str = "C",
              collective: bool = True,
              out: np.ndarray | None = None) -> np.ndarray:
    """Read one process's zone into a fresh array of the given order, or
    into ``out`` (already shaped like the zone's element box).

    ``collective=True`` issues ``Read_all`` (all ranks of the handle's
    communicator must call together, zones may differ); ``False`` issues
    an independent ``Read_at``.
    """
    lo, hi = zone.element_box(h.meta.chunk_shape, h.meta.element_bounds)
    return _read(h, zone.chunk_indices(), lo, hi, order, collective, out)


def _read(h: DRXMDHdl, chunk_indices: np.ndarray, lo, hi, order: str,
          collective: bool, out: np.ndarray | None = None) -> np.ndarray:
    """The element box ``[lo, hi)`` from the chunks that cover it,
    scattered into ``out`` (a fresh ``order`` array when ``None``)."""
    if order not in ("C", "F"):
        raise DRXIndexError(f"order must be 'C' or 'F', got {order!r}")
    meta = h.meta
    addrs, indices = _plan(meta, chunk_indices)
    # zero-filled: unwritten chunks (sparse/short reads) must read as 0
    staging = np.zeros((len(addrs), *meta.chunk_shape), dtype=meta.dtype)
    _transfer(h, addrs, staging, False, collective)
    # the chunks cover [lo, hi), so the scatter writes every element;
    # the kernel clips every chunk box against [lo, hi) in one batch
    if out is None:
        out = np.empty(box_shape(lo, hi), dtype=meta.dtype, order=order)
    scatter_chunks(staging, indices, meta.chunk_shape, meta.element_bounds,
                   out, lo)
    return out


def zone_write(h: DRXMDHdl, zone: Zone, values: np.ndarray,
               collective: bool = True) -> None:
    """Write one process's zone from ``values`` (shaped like the zone's
    clipped element box)."""
    meta = h.meta
    lo, hi = zone.element_box(meta.chunk_shape, meta.element_bounds)
    expect = box_shape(lo, hi)
    if tuple(values.shape) != expect:
        raise DRXIndexError(
            f"zone buffer shape {tuple(values.shape)} != zone box {expect}"
        )
    values = np.asarray(values, dtype=meta.dtype)
    addrs, indices = _plan(meta, zone.chunk_indices())
    staging = gather_chunks(indices, meta.chunk_shape, meta.element_bounds,
                            values, lo, dtype=meta.dtype)
    _transfer(h, addrs, staging, True, collective)


# ---------------------------------------------------------------------------
# arbitrary-box transfers (independent, any rank, any rectilinear region)
# ---------------------------------------------------------------------------

def box_read(h: DRXMDHdl, lo, hi, order: str = "C",
             collective: bool = False) -> np.ndarray:
    """Read an arbitrary element box ``[lo, hi)`` (chunk-covering I/O)."""
    lo, hi = tuple(lo), tuple(hi)
    validate_box(lo, hi, h.meta.element_bounds)
    return _read(h, chunks_covering_box(lo, hi, h.meta.chunk_shape), lo, hi,
                 order, collective)


def box_write(h: DRXMDHdl, lo, values: np.ndarray,
              collective: bool = False) -> None:
    """Write an arbitrary element box (read-modify-write at the edges).

    Chunks only partially covered by the box are read first so the
    untouched elements survive — the chunk is the unit of file access.
    """
    meta = h.meta
    values = np.asarray(values, dtype=meta.dtype)
    lo = tuple(lo)
    hi = tuple(l + s for l, s in zip(lo, values.shape))
    validate_box(lo, hi, meta.element_bounds)
    addrs, indices = _plan(meta, chunks_covering_box(lo, hi,
                                                     meta.chunk_shape))
    cs = meta.chunk_shape
    # which covering chunks are only partially inside the box?
    partial_slots = np.flatnonzero(
        ~full_chunk_mask(indices, cs, meta.element_bounds, lo, hi))
    staging = np.zeros((len(addrs), *cs), dtype=meta.dtype)
    if len(partial_slots) or collective:
        # a collective pre-read happens on every rank, partial chunks or
        # not, so call counts stay matched
        part = np.zeros((len(partial_slots), *cs), dtype=meta.dtype)
        _transfer(h, addrs[partial_slots], part, False, collective)
        staging[partial_slots] = part
    # overlay the box onto the (pre-read where partial) payloads
    gather_chunks(indices, cs, meta.element_bounds, values, lo,
                  staging=staging)
    _transfer(h, addrs, staging, True, collective)
