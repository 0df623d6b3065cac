"""A Global-Array-style shared view over the distributed zones.

The paper: "The remote memory access methods and the MPI-2 windowing
features can now be applied for processing the array as if each process
has access to the entire principal array.  This model of programming is
exactly the shared memory programming model of the Global-Array
toolkit."

Each process stores its zone's chunks *chunk-major* — a local buffer of
shape ``(n_local_chunks, *chunk_shape)``, sorted by linear chunk address
— and exposes it through an RMA window.  Because every process holds the
replicated meta-data and the partition, any process can compute, for any
chunk: its owner rank and its slot in the owner's buffer, entirely
locally.  ``get``/``put``/``acc`` then move whole chunks with
``Win.Get``/``Put``/``Accumulate`` (the chunk is the unit of access,
exactly as on disk).

The facade loads from / stores to a :class:`~repro.drxmp.api.DRXMPFile`
with collective I/O, completing the paper's DRA-compatible life cycle:
file -> distributed memory -> compute via get/put/acc -> file.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.chunking import (
    box_shape,
    chunk_element_box,
    iter_box_intersections,
    validate_box,
)
from ..core.errors import DRXDistributionError, DRXIndexError
from ..core.inverse import f_star_inv_many
from ..core.mapping import f_star_many
from ..core.metadata import DRXMeta
from ..mpi.comm import SUM, Intracomm
from ..mpi.datatypes import from_numpy_dtype
from ..mpi.win import Win
from .api import DRXMPFile

__all__ = ["GlobalArray"]


class GlobalArray:
    """A distributed in-memory extendible array with one-sided access."""

    def __init__(self, comm: Intracomm, meta: DRXMeta, partition) -> None:
        self.comm = comm
        self.meta = meta
        self.partition = partition
        if getattr(partition, "nprocs", None) != comm.size:
            raise DRXDistributionError(
                f"partition is for {getattr(partition, 'nprocs', '?')} "
                f"processes, communicator has {comm.size}"
            )
        # local chunks, sorted by linear address (the canonical slot order)
        my_chunks = partition.chunks_of(comm.rank)
        if my_chunks.shape[0]:
            addrs = f_star_many(meta.eci, my_chunks)
            order = np.argsort(addrs, kind="stable")
            self.local_addresses = addrs[order]
        else:
            self.local_addresses = np.empty(0, dtype=np.int64)
        self.local = np.zeros(
            (len(self.local_addresses), *meta.chunk_shape), dtype=meta.dtype
        )
        self._win = Win.Create(self.local, comm,
                               disp_unit=meta.dtype.itemsize)
        self._etype = from_numpy_dtype(meta.dtype)

    # ------------------------------------------------------------------
    # construction from / persistence to a DRX-MP file
    # ------------------------------------------------------------------
    @classmethod
    def from_file(cls, dmp: DRXMPFile, partition=None,
                  info: dict | None = None) -> "GlobalArray":
        """Collectively load a principal array into distributed memory.

        ``info`` merges MPI-IO hints (e.g. ``{"cb_nodes": 2}``) into the
        payload file before the collective read."""
        partition = partition or dmp.partition()
        if info:
            dmp.set_info(info)
        ga = cls(dmp.comm, dmp.meta.replicate(), partition)
        if len(ga.local_addresses):
            from .subarray import indexed_filetype
            ft = indexed_filetype(ga.meta, ga.local_addresses)
            dmp.handle.data_file.Set_view(0, ga._etype, ft)
        else:
            dmp.handle.data_file.Set_view(0, ga._etype)
        dmp.handle.data_file.Read_at_all(0, ga.local)
        # synchronize before anyone RMA-reads a still-loading window
        ga.sync()
        return ga

    def to_file(self, dmp: DRXMPFile, info: dict | None = None) -> None:
        """Collectively store the distributed array back to the file."""
        self.sync()
        if info:
            dmp.set_info(info)
        if len(self.local_addresses):
            from .subarray import indexed_filetype
            ft = indexed_filetype(self.meta, self.local_addresses)
            dmp.handle.data_file.Set_view(0, self._etype, ft)
        else:
            dmp.handle.data_file.Set_view(0, self._etype)
        dmp.handle.data_file.Write_at_all(0, self.local)

    # ------------------------------------------------------------------
    # ownership arithmetic (pure local computation on any rank)
    # ------------------------------------------------------------------
    def owner_and_slot(self, chunk_index: Sequence[int]) -> tuple[int, int]:
        """Owner rank and chunk slot in the owner's local buffer.

        Computable anywhere because the meta-data and partition are
        replicated: the slot is the position of the chunk's linear
        address among the owner's sorted addresses.
        """
        owner = self.partition.owner_of(chunk_index)
        addr = self.meta.eci.address(chunk_index)
        owned = self.partition.chunks_of(owner)
        addrs = np.sort(f_star_many(self.meta.eci, owned))
        slot = int(np.searchsorted(addrs, addr))
        if slot >= len(addrs) or addrs[slot] != addr:
            raise DRXIndexError(
                f"chunk {tuple(chunk_index)} not held by its owner {owner}"
            )
        return owner, slot

    @property
    def shape(self) -> tuple[int, ...]:
        return self.meta.element_bounds

    @property
    def chunk_shape(self) -> tuple[int, ...]:
        return self.meta.chunk_shape

    # ------------------------------------------------------------------
    # one-sided element access
    # ------------------------------------------------------------------
    def _chunk_rma(self, chunk_index, fetch: bool) -> tuple[np.ndarray, int, int]:
        owner, slot = self.owner_and_slot(chunk_index)
        nelem = self.meta.chunk_elems
        buf = np.empty(self.meta.chunk_shape, dtype=self.meta.dtype)
        if fetch:
            if owner == self.comm.rank:
                buf[...] = self.local[slot]
            else:
                self._win.Lock(owner)
                self._win.Get(buf, owner,
                              target=(slot * nelem, nelem, self._etype))
                self._win.Unlock(owner)
        return buf, owner, slot

    def get(self, lo: Sequence[int], hi: Sequence[int]) -> np.ndarray:
        """Fetch the element box ``[lo, hi)`` from wherever it lives."""
        lo, hi = tuple(lo), tuple(hi)
        validate_box(lo, hi, self.shape)
        out = np.zeros(box_shape(lo, hi), dtype=self.meta.dtype)
        for it in iter_box_intersections(lo, hi, self.chunk_shape):
            payload, _owner, _slot = self._chunk_rma(it.chunk_index,
                                                     fetch=True)
            out[it.box_slices] = payload[it.chunk_slices]
        return out

    def put(self, lo: Sequence[int], values: np.ndarray) -> None:
        """Store ``values`` at ``lo``, chunk by chunk (read-modify-write
        under an exclusive lock for partially covered chunks)."""
        values = np.asarray(values, dtype=self.meta.dtype)
        lo = tuple(lo)
        hi = tuple(l + s for l, s in zip(lo, values.shape))
        validate_box(lo, hi, self.shape)
        nelem = self.meta.chunk_elems
        for it in iter_box_intersections(lo, hi, self.chunk_shape):
            owner, slot = self.owner_and_slot(it.chunk_index)
            dst, src = it.chunk_slices, it.box_slices
            if owner == self.comm.rank:
                self.local[slot][dst] = values[src]
                continue
            self._win.Lock(owner)
            try:
                if it.full:
                    payload = np.ascontiguousarray(values[src])
                else:
                    payload = np.empty(self.chunk_shape,
                                       dtype=self.meta.dtype)
                    self._win.Get(payload, owner,
                                  target=(slot * nelem, nelem, self._etype))
                    payload[dst] = values[src]
                self._win.Put(payload, owner,
                              target=(slot * nelem, nelem, self._etype))
            finally:
                self._win.Unlock(owner)

    def acc(self, lo: Sequence[int], values: np.ndarray) -> None:
        """Atomic element-wise addition into ``[lo, lo+shape)`` (GA_Acc)."""
        values = np.asarray(values, dtype=self.meta.dtype)
        lo = tuple(lo)
        hi = tuple(l + s for l, s in zip(lo, values.shape))
        validate_box(lo, hi, self.shape)
        nelem = self.meta.chunk_elems
        for it in iter_box_intersections(lo, hi, self.chunk_shape):
            owner, slot = self.owner_and_slot(it.chunk_index)
            addend = np.zeros(self.chunk_shape, dtype=self.meta.dtype)
            addend[it.chunk_slices] = values[it.box_slices]
            self._win.Lock(owner)
            try:
                self._win.Accumulate(addend, owner,
                                     target=(slot * nelem, nelem,
                                             self._etype), op=SUM)
            finally:
                self._win.Unlock(owner)

    # ------------------------------------------------------------------
    # zone views and synchronization
    # ------------------------------------------------------------------
    def local_elements(self, order: str = "C") -> tuple[np.ndarray, tuple]:
        """This rank's zone as a conventional element array.

        Returns ``(array, element origin)``.  Only meaningful for
        single-box partitions (BLOCK); BLOCK_CYCLIC holders should use
        :meth:`get` on their boxes.
        """
        zone = self.partition.zone_of(self.comm.rank)
        lo, hi = zone.element_box(self.chunk_shape, self.shape)
        out = np.zeros(box_shape(lo, hi), dtype=self.meta.dtype,
                       order=order)
        if len(self.local_addresses):
            indices = f_star_inv_many(self.meta.eci, self.local_addresses)
            for payload, ci in zip(self.local, indices):
                c_lo, c_hi = chunk_element_box(ci, self.chunk_shape,
                                               self.shape)
                src = tuple(slice(0, b - a) for a, b in zip(c_lo, c_hi))
                dst = tuple(slice(a - l, b - l)
                            for a, b, l in zip(c_lo, c_hi, lo))
                out[dst] = payload[src]
        return out, lo

    def update_local(self, values: np.ndarray) -> None:
        """Write a zone element array back into the local chunk slots."""
        zone = self.partition.zone_of(self.comm.rank)
        lo, hi = zone.element_box(self.chunk_shape, self.shape)
        if tuple(values.shape) != box_shape(lo, hi):
            raise DRXIndexError(
                f"zone buffer shape {tuple(values.shape)} != "
                f"{box_shape(lo, hi)}"
            )
        if len(self.local_addresses):
            indices = f_star_inv_many(self.meta.eci, self.local_addresses)
            for payload, ci in zip(self.local, indices):
                c_lo, c_hi = chunk_element_box(ci, self.chunk_shape,
                                               self.shape)
                dst = tuple(slice(0, b - a) for a, b in zip(c_lo, c_hi))
                src = tuple(slice(a - l, b - l)
                            for a, b, l in zip(c_lo, c_hi, lo))
                payload[dst] = values[src]

    def sync(self) -> None:
        """Barrier + memory fence (GA_Sync)."""
        self._win.Fence()

    def free(self) -> None:
        self._win.Free()
