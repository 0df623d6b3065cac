"""The DRX-MP public API: parallel out-of-core extendible arrays.

The object-style interface is :class:`DRXMPFile`; thin wrappers named
after the paper's C prototypes (``DRXMP_Init``, ``DRXMP_Open``,
``DRXMP_Close``, ``DRXMP_Terminate``, ``DRXMP_Read``, ``DRXMP_Read_all``,
``DRXMP_Write``, ``DRXMP_Write_all``, ``DRXMP_Extend``) are provided at
the bottom so the paper's programming examples translate directly.

File layout, as in the paper's section IV: an array named ``xyz`` is the
pair ``xyz.xmd`` (meta-data) / ``xyz.xta`` (chunk payloads) on the
parallel file system, the format ``DRXFile`` uses; on open, the
meta-data content is replicated into every participating process, which
computes chunk addresses and zone ownership and builds its chunk store
locally.  A compressed array opens read-only.

All lifecycle operations (create/open/extend/close) are collective over
the handle's communicator.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.chunking import box_shape
from ..core.errors import (
    DRXExtendError,
    DRXFileError,
    DRXFileExistsError,
    DRXFileNotFoundError,
    DRXFormatError,
)
from ..core.metadata import DRXMeta, DRXType
from ..drx.chunkstore import ChunkStore, commit_meta
from ..drx.storage import PFSByteStore
from ..mpi import file as mpiio
from ..mpi.comm import Intracomm
from ..pfs.filesystem import ParallelFileSystem
from .handles import DRXMDHdl, DRXMDMemHdl
from .partition import BlockCyclicPartition, BlockPartition, Zone
from .subarray import box_read, box_write, zone_read, zone_write

__all__ = ["DRXMPFile",
           "DRXMP_Init", "DRXMP_Open", "DRXMP_Close", "DRXMP_Terminate",
           "DRXMP_Read", "DRXMP_Read_all", "DRXMP_Write", "DRXMP_Write_all",
           "DRXMP_Extend"]

XMD_SUFFIX = ".xmd"
XTA_SUFFIX = ".xta"

import threading as _threading

#: per-rank (= per-thread) registry of open handles, for DRXMP_Terminate()
_LOCAL = _threading.local()


def _open_handles() -> list["DRXMPFile"]:
    if not hasattr(_LOCAL, "handles"):
        _LOCAL.handles = []
    return _LOCAL.handles


class DRXMPFile:
    """A parallel disk-resident extendible array (collective handle)."""

    def __init__(self, handle: DRXMDHdl,
                 fs: ParallelFileSystem) -> None:
        self._h = handle
        self._fs = fs
        _open_handles().append(self)

    # ------------------------------------------------------------------
    # lifecycle (collective)
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, comm: Intracomm, fs: ParallelFileSystem, name: str,
               bounds: Sequence[int], chunk_shape: Sequence[int],
               dtype: str | np.dtype | type = DRXType.DOUBLE,
               info: dict | None = None) -> "DRXMPFile":
        """Collectively create a new principal array on ``fs``.

        This is the paper's ``DRXMP_Init``: every process receives its
        meta-data handle; rank 0 materializes the file pair.  ``info``
        carries MPI-IO hints down to the payload file (e.g.
        ``{"cb_nodes": 2}`` — see DESIGN.md §5f).
        """
        spec = comm.allgather((name, tuple(bounds), tuple(chunk_shape)))
        if any(s != spec[0] for s in spec):
            raise DRXFileError(f"create arguments differ across ranks: {spec}")
        err = None
        if comm.rank == 0:
            if fs.exists(name + XMD_SUFFIX) or fs.exists(name + XTA_SUFFIX):
                err = f"array {name!r} already exists"
            else:
                meta0 = DRXMeta.create(bounds, chunk_shape, dtype)
                xmd = PFSByteStore(fs.create(name + XMD_SUFFIX))
                xta = fs.create(name + XTA_SUFFIX)
                xta.set_size(meta0.data_nbytes)
                commit_meta(meta0, ChunkStore.for_meta(
                    meta0, PFSByteStore(xta)), xmd)
        err = comm.bcast(err)
        if err:
            raise DRXFileExistsError(err)
        return cls._attach(comm, fs, name, "r+", info=info)

    @classmethod
    def open(cls, comm: Intracomm, fs: ParallelFileSystem, name: str,
             mode: str = "r", info: dict | None = None) -> "DRXMPFile":
        """Collectively open an existing array (paper: ``DRXMP_Open``).

        "The file must exist otherwise it returns an error."
        """
        if mode not in ("r", "r+"):
            raise DRXFileError(f"mode must be 'r' or 'r+', got {mode!r}")
        err = None
        if comm.rank == 0 and not (fs.exists(name + XMD_SUFFIX)
                                   and fs.exists(name + XTA_SUFFIX)):
            err = f"no array named {name!r}"
        err = comm.bcast(err)
        if err:
            raise DRXFileNotFoundError(err)
        return cls._attach(comm, fs, name, mode, info=info)

    @classmethod
    def _attach(cls, comm: Intracomm, fs: ParallelFileSystem, name: str,
                mode: str, info: dict | None = None) -> "DRXMPFile":
        # replicate the meta-data into every process
        blob = None
        if comm.rank == 0:
            xmd = fs.open(name + XMD_SUFFIX)
            blob = xmd.read(0, xmd.size)
        blob = comm.bcast(blob)
        meta = DRXMeta.from_bytes(blob)
        if mode == "r+" and meta.codec != "none":
            raise DRXFormatError(
                f"array {name!r} is compressed ({meta.codec}); DRX-MP "
                f"opens compressed arrays read-only"
            )
        amode = mpiio.MODE_RDONLY if mode == "r" else mpiio.MODE_RDWR
        fh = mpiio.File.Open(comm, name + XTA_SUFFIX, amode, fs, info=info)
        store = ChunkStore.for_meta(meta, PFSByteStore(
            fs.open(name + XTA_SUFFIX)))
        handle = DRXMDHdl(name=name, comm=comm, meta=meta, data_file=fh,
                          store=store, mode=mode)
        return cls(handle, fs)

    def close(self) -> None:
        """Collective close (paper: ``DRXMP_Close``); idempotent.  A
        writable checksummed array commits its ranks' CRCs."""
        if self._h.closed:
            return
        if self._h.mode == "r+" and self._h.meta.chunk_crcs is not None:
            self._h.sync_crcs()
            self._commit()
        self._h.data_file.Close()
        self._h.closed = True
        if self in _open_handles():
            _open_handles().remove(self)

    def __enter__(self) -> "DRXMPFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def meta(self) -> DRXMeta:
        return self._h.meta

    @property
    def comm(self) -> Intracomm:
        return self._h.comm

    @property
    def shape(self) -> tuple[int, ...]:
        return self._h.meta.element_bounds

    @property
    def chunk_shape(self) -> tuple[int, ...]:
        return self._h.meta.chunk_shape

    @property
    def dtype(self) -> np.dtype:
        return self._h.meta.dtype

    @property
    def handle(self) -> DRXMDHdl:
        return self._h

    @property
    def attrs(self):
        """User attributes of the local replica.

        Collective convention: set attributes identically on all ranks,
        then call :meth:`flush_attrs` (rank 0 persists).
        """
        return self._h.meta.attrs

    def set_info(self, info: dict | None) -> None:
        """Merge MPI-IO hints into the payload file (collective
        configuration: set the same values on every rank)."""
        self._h.require_open()
        self._h.data_file.Set_info(info)

    def get_info(self) -> dict:
        """The payload file's effective MPI-IO hints."""
        return self._h.data_file.Get_info()

    def flush_attrs(self) -> None:
        """Collectively persist attributes (meta-data commit by rank 0)."""
        self._h.require_open()
        self._require_writable()
        self._h.sync_crcs()
        blobs = self.comm.allgather(self._h.meta.to_bytes())
        if any(b != blobs[0] for b in blobs):
            raise DRXFileError(
                "attribute flush with diverged replicas; set attributes "
                "identically on every rank"
            )
        self._commit()

    def _commit(self) -> None:
        """Rank 0 commits the (identical) replica as the ``.xmd``."""
        if self.comm.rank == 0:
            commit_meta(self._h.meta, self._h.store, PFSByteStore(
                self._fs.open(self._h.name + XMD_SUFFIX)))
        self.comm.barrier()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DRXMPFile({self._h.name!r}, shape={self.shape}, "
                f"chunks={self.chunk_shape}, nprocs={self._h.nprocs})")

    # ------------------------------------------------------------------
    # partitioning
    # ------------------------------------------------------------------
    def partition(self, kind: str = "block",
                  block: Sequence[int] | int = 1,
                  pgrid: Sequence[int] | None = None):
        """The default load-balanced partition of the *current* chunk
        grid over the handle's processes.

        Recompute after every :meth:`extend` — growth changes the zones.
        """
        if kind == "block":
            return BlockPartition(self._h.meta.chunk_bounds,
                                  self._h.nprocs, pgrid)
        if kind == "block_cyclic":
            return BlockCyclicPartition(self._h.meta.chunk_bounds,
                                        self._h.nprocs, block, pgrid)
        raise DRXFileError(f"unknown partition kind {kind!r}")

    def my_zone(self, partition=None) -> Zone:
        partition = partition or self.partition()
        return partition.zone_of(self._h.rank)

    # ------------------------------------------------------------------
    # collective zone I/O (the primary access path)
    # ------------------------------------------------------------------
    def read_zone(self, partition=None, order: str = "C",
                  collective: bool = True,
                  into: DRXMDMemHdl | None = None) -> DRXMDMemHdl:
        """Read this process's zone (paper: ``DRXMP_Read_all`` /
        ``DRXMP_Read``), returning a memory handle whose array is in the
        requested conventional order.

        ``into`` refreshes an existing memory handle in place (the
        paper's C API passes the memhdl as a parameter); its zone and
        buffer shape must still match the current array bounds.
        """
        self._h.require_open()
        if into is None:
            zone = self.my_zone(partition)
            arr = zone_read(self._h, zone, order=order,
                            collective=collective)
            lo, _hi = zone.element_box(self.chunk_shape, self.shape)
            return DRXMDMemHdl(array=arr, zone=zone, order=order, origin=lo)
        lo, hi = into.zone.element_box(self.chunk_shape, self.shape)
        if tuple(into.array.shape) != box_shape(lo, hi):
            if collective:
                # join the collective anyway: the other ranks' reads
                # must complete before this one raises
                zone_read(self._h, into.zone, order=into.order)
            raise DRXFileError(
                f"memory handle shape {tuple(into.array.shape)} no "
                f"longer matches zone box {box_shape(lo, hi)} "
                f"(did the array grow?)"
            )
        zone_read(self._h, into.zone, order=into.order,
                  collective=collective, out=into.array)
        into.origin = lo
        return into

    def write_zone(self, memhdl: DRXMDMemHdl,
                   collective: bool = True) -> None:
        """Write this process's zone back (paper: ``DRXMP_Write_all`` /
        ``DRXMP_Write``)."""
        self._h.require_open()
        self._require_writable()
        zone_write(self._h, memhdl.zone, memhdl.array,
                   collective=collective)

    # ------------------------------------------------------------------
    # independent box I/O (any rank, any rectilinear region)
    # ------------------------------------------------------------------
    def read(self, lo: Sequence[int], hi: Sequence[int],
             order: str = "C") -> np.ndarray:
        """Independent read of an arbitrary element box."""
        self._h.require_open()
        return box_read(self._h, lo, hi, order=order, collective=False)

    def write(self, lo: Sequence[int], values: np.ndarray) -> None:
        """Independent write of an arbitrary element box."""
        self._h.require_open()
        self._require_writable()
        box_write(self._h, lo, values, collective=False)

    def _require_writable(self) -> None:
        if self._h.mode == "r":
            raise DRXFileError(f"array {self._h.name!r} opened read-only")

    # ------------------------------------------------------------------
    # growth (collective)
    # ------------------------------------------------------------------
    def extend(self, dim: int, by: int) -> None:
        """Collectively extend dimension ``dim`` by ``by`` elements.

        Every replica applies the identical extension, so the meta-data
        stays consistent across processes without communication of the
        axial vectors themselves; rank 0 commits the new meta-data.
        Previously allocated chunks never move.
        """
        self._h.require_open()
        self._require_writable()
        spec = self.comm.allgather((int(dim), int(by),
                                    self._h.meta.eci.generation))
        if any(s != spec[0] for s in spec):
            raise DRXExtendError(
                f"extend arguments/generation differ across ranks: {spec}"
            )
        self._h.meta.extend_elements(dim, by)
        self._h.data_file.Set_size(self._h.meta.data_nbytes)
        self._h.store.grow(self._h.meta.num_chunks)
        self._h.sync_crcs()
        self._commit()


# ---------------------------------------------------------------------------
# paper-style function aliases
# ---------------------------------------------------------------------------

def DRXMP_Init(comm: Intracomm, fs: ParallelFileSystem, name: str,
               kdim: int, initsize: Sequence[int],
               chkshape: Sequence[int],
               dtype: str = DRXType.DOUBLE,
               info: dict | None = None) -> DRXMPFile:
    """``int DRXMP_Init(DRXMDHdl*, int kdim, size_t *initsize,
    int *chkshape, DRXType dtype, DRXComm comm)`` — collective creation;
    "gives each process access to their respective meta-data handle"."""
    if len(initsize) != kdim or len(chkshape) != kdim:
        raise DRXExtendError(
            f"kdim={kdim} but initsize has {len(initsize)} and chkshape "
            f"has {len(chkshape)} entries"
        )
    return DRXMPFile.create(comm, fs, name, initsize, chkshape, dtype,
                            info=info)


def DRXMP_Open(comm: Intracomm, fs: ParallelFileSystem, name: str,
               mode: str = "r", info: dict | None = None) -> DRXMPFile:
    """``int DRXMP_Open(DRXMDHdl*, char *filename, char *mode)``."""
    return DRXMPFile.open(comm, fs, name, mode, info=info)


def DRXMP_Close(drxhdl: DRXMPFile) -> None:
    """``int DRXMP_Close(DRXMDHdl drxhdl)``."""
    drxhdl.close()


def DRXMP_Terminate() -> None:
    """``int DRXMP_Terminate()`` — closes all opened extendible arrays
    and frees the DRX-MP allocated structures."""
    for f in list(_open_handles()):
        f.close()


def DRXMP_Read(drxhdl: DRXMPFile, partition=None,
               order: str = "C") -> DRXMDMemHdl:
    """Independent zone read (``int DRXMP_Read(...)``)."""
    return drxhdl.read_zone(partition, order=order, collective=False)


def DRXMP_Read_all(drxhdl: DRXMPFile, partition=None,
                   order: str = "C") -> DRXMDMemHdl:
    """Collective zone read (``int DRXMP_Read_all(...)``)."""
    return drxhdl.read_zone(partition, order=order, collective=True)


def DRXMP_Write(drxhdl: DRXMPFile, memhdl: DRXMDMemHdl) -> None:
    """Independent zone write."""
    drxhdl.write_zone(memhdl, collective=False)


def DRXMP_Write_all(drxhdl: DRXMPFile, memhdl: DRXMDMemHdl) -> None:
    """Collective zone write."""
    drxhdl.write_zone(memhdl, collective=True)


def DRXMP_Extend(drxhdl: DRXMPFile, dim: int, by: int) -> None:
    """Collective extension of one dimension by ``by`` elements."""
    drxhdl.extend(dim, by)
