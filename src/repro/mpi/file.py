"""MPI-IO: file views and independent/collective reads and writes.

This is the layer the paper's code listing exercises: open a file on the
parallel file system, ``Set_view`` with an indexed *filetype* built from
chunk addresses, then ``Read_all`` into a buffer through an indexed
*memtype* — the "irregular distributed array access" collective-I/O
method [Ching et al. 2003] cited by the paper.

A view ``(disp, etype, filetype)`` exposes the file's bytes as the data
bytes of ``filetype`` tiled from byte ``disp``; offsets and file pointers
are in ``etype`` units of that data stream.  Independent operations
(``Read_at``/``Write_at``/``Read``/``Write``) go through *data sieving*
(:mod:`repro.mpi.collective`): hole-bearing extent runs are served by one
covering access instead of many small ones.  Collective operations
(``*_all``) run the ROMIO-style *two-phase* engine — ``cb_nodes``
aggregator ranks exchange data point-to-point and issue one large
vectored request per file domain per buffer window — which is what
experiment E3 measures against the independent path.  Both paths are
steered by MPI-IO hints (``Open(..., info=...)`` / ``Set_info``),
resolved once into the file's ``CollectiveHints``; see DESIGN.md §5f.

``status.count`` is always the byte count of *whole etype elements*
transferred (MPI semantics: a partial trailing element at EOF is not
counted), so ``Status.Get_count(etype)`` yields the element count on
independent and collective paths alike.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.errors import MPIDatatypeError, MPIFileError
from ..core.faultsites import crash_point
from ..pfs.filesystem import ParallelFileSystem
from ..pfs.pfile import PFSFile
from ..pfs.striping import Extent
from . import collective
from .collective import CollectiveHints
from .comm import Intracomm, _pack_buf, _parse_bufspec, _unpack_buf
from .datatypes import BYTE, Datatype, _as_bytes_view
from .status import Status

__all__ = ["File", "FileView",
           "MODE_RDONLY", "MODE_WRONLY", "MODE_RDWR", "MODE_CREATE",
           "MODE_EXCL", "MODE_APPEND", "MODE_DELETE_ON_CLOSE"]

MODE_RDONLY = 0x01
MODE_WRONLY = 0x02
MODE_RDWR = 0x04
MODE_CREATE = 0x08
MODE_EXCL = 0x10
MODE_APPEND = 0x20
MODE_DELETE_ON_CLOSE = 0x40


class FileView:
    """One rank's view of a file: ``(disp, etype, filetype)``."""

    def __init__(self, disp: int = 0, etype: Datatype = BYTE,
                 filetype: Datatype | None = None) -> None:
        if disp < 0:
            raise MPIFileError(f"negative view displacement {disp}")
        filetype = filetype if filetype is not None else etype
        if etype.size == 0:
            raise MPIFileError("etype must have positive size")
        if filetype.size % etype.size:
            raise MPIFileError(
                f"filetype size {filetype.size} is not a multiple of etype "
                f"size {etype.size}"
            )
        if filetype.lb < 0:
            raise MPIFileError("filetype displacements must be non-negative")
        if filetype.num_runs > 1 and bool(
                np.any(filetype.offsets[1:] < filetype.offsets[:-1])):
            # MPI-2 requires a filetype's displacements to be monotonically
            # nondecreasing — this is why the paper's listing sorts the
            # chunk addresses into the filetype and permutes the *memory*
            # type instead (the inMemoryMap).
            raise MPIFileError(
                "filetype typemap must have monotonically nondecreasing "
                "offsets"
            )
        self.disp = disp
        self.etype = etype
        self.filetype = filetype

    def extents(self, data_offset: int, nbytes: int) -> list[Extent]:
        """Absolute file byte extents of ``nbytes`` of view data starting
        at view-data byte ``data_offset``, in data order."""
        if nbytes < 0 or data_offset < 0:
            raise MPIFileError(
                f"bad view range (offset {data_offset}, {nbytes} bytes)"
            )
        if nbytes == 0:
            return []
        ft = self.filetype
        tile_data = ft.size
        if tile_data == 0:
            raise MPIFileError("filetype holds no data")
        if ft.is_contiguous and ft.lb == 0:
            return [(self.disp + data_offset, nbytes)]
        out: list[Extent] = []
        cum = ft.cumlen                 # (runs+1,) data offset of each run
        offs = ft.offsets
        lens = ft.lengths
        pos = data_offset
        end = data_offset + nbytes
        while pos < end:
            tile, local = divmod(pos, tile_data)
            run = int(np.searchsorted(cum, local, side="right")) - 1
            run_data_start = int(cum[run])
            within = local - run_data_start
            take = min(int(lens[run]) - within, end - pos)
            phys = self.disp + tile * ft.extent + int(offs[run]) + within
            if out and out[-1][0] + out[-1][1] == phys:
                out[-1] = (out[-1][0], out[-1][1] + take)
            else:
                out.append((phys, take))
            pos += take
        return out


class File:
    """An open MPI file on the simulated parallel file system."""

    def __init__(self, comm: Intracomm, pfile: PFSFile, amode: int,
                 fs: ParallelFileSystem, info: dict | None = None) -> None:
        self.comm = comm
        self._pfile = pfile
        self.amode = amode
        self._fs = fs
        self._view = FileView()
        self._fp = 0            # individual file pointer, in etype units
        self._open = True
        self._info: dict = dict(info or {})
        # resolved here and at Set_info only; fails fast on a malformed
        # or unknown hint
        self._hints = CollectiveHints.resolve(self._info)

    # ------------------------------------------------------------------
    # lifecycle (collective)
    # ------------------------------------------------------------------
    @classmethod
    def Open(cls, comm: Intracomm, filename: str, amode: int,
             fs: ParallelFileSystem, info: dict | None = None) -> "File":
        """Collectively open ``filename`` on ``fs`` (MPI_File_open).

        All ranks must pass the same name, mode, and hints; rank 0
        touches the namespace and the PFSFile object is shared by
        reference.
        """
        info_spec = tuple(sorted((info or {}).items()))
        specs = comm.allgather((filename, amode, info_spec))
        if any(s != specs[0] for s in specs):
            raise MPIFileError(f"File.Open arguments differ across ranks: {specs}")
        pfile: PFSFile | None = None
        error: str | None = None
        if comm.rank == 0:
            try:
                exists = fs.exists(filename)
                if amode & MODE_EXCL and exists:
                    raise MPIFileError(f"file exists: {filename!r}")
                if exists:
                    pfile = fs.open(filename)
                elif amode & MODE_CREATE:
                    pfile = fs.create(filename)
                else:
                    raise MPIFileError(f"no such file: {filename!r}")
            except MPIFileError as exc:
                error = str(exc)
        # allgather shares references (no pickling) — PFSFile holds locks
        shared = comm.allgather((pfile, error) if comm.rank == 0 else None)
        pfile, error = shared[0]
        if error is not None:
            raise MPIFileError(error)
        assert pfile is not None
        return cls(comm, pfile, amode, fs, info=info)

    def Close(self) -> None:
        """Collective close (MPI_File_close)."""
        self._require_open()
        self.comm.barrier()
        if self.amode & MODE_DELETE_ON_CLOSE and self.comm.rank == 0:
            self._fs.delete(self._pfile.name)
        self.comm.barrier()
        self._open = False

    def _require_open(self) -> None:
        if not self._open:
            raise MPIFileError("operation on a closed file")

    def _require_readable(self) -> None:
        if not self.amode & (MODE_RDONLY | MODE_RDWR):
            raise MPIFileError("file not opened for reading")

    def _require_writable(self) -> None:
        if not self.amode & (MODE_WRONLY | MODE_RDWR):
            raise MPIFileError("file not opened for writing")

    # ------------------------------------------------------------------
    # hints
    # ------------------------------------------------------------------
    def Set_info(self, info: dict | None) -> None:
        """Merge MPI-IO hints into the file (MPI_File_set_info).

        Like MPI, hints steer performance only — results are identical
        under any setting.  All ranks must set the same values (checked
        at the next collective operation).  Known hints are listed in
        :class:`~repro.mpi.collective.CollectiveHints`.
        """
        self._require_open()
        if info:
            merged = dict(self._info)
            merged.update(info)
            # a bad merge raises here and leaves the file's hints as
            # they were
            self._hints = CollectiveHints.resolve(merged)
            self._info = merged

    def Get_info(self) -> dict:
        """The *effective* hints: defaults + per-file overrides."""
        return self._hints.as_dict()

    # ------------------------------------------------------------------
    # views and pointers
    # ------------------------------------------------------------------
    def Set_view(self, disp: int = 0, etype: Datatype = BYTE,
                 filetype: Datatype | None = None,
                 datarep: str = "native", info=None) -> None:
        """Set this rank's file view and reset its file pointer.

        Each rank may pass a *different* filetype — that is the whole
        point of the irregular-access method.  MPI makes this call
        collective; the substrate relaxes it to a purely local operation
        (views are per-rank state here), so a rank doing independent I/O
        can retarget its view without synchronizing.  Collective
        operations still match through the ``*_all`` exchanges.
        """
        self._require_open()
        if datarep != "native":
            raise MPIFileError(f"only 'native' data representation "
                               f"supported, got {datarep!r}")
        if filetype is not None:
            filetype._check_usable()
        self._view = FileView(disp, etype, filetype)
        self._fp = 0
        self.Set_info(info)

    def Get_view(self) -> tuple[int, Datatype, Datatype]:
        return self._view.disp, self._view.etype, self._view.filetype

    def Seek(self, offset: int, whence: int = 0) -> None:
        """Move the individual file pointer (offset in etype units)."""
        if whence == 0:
            self._fp = offset
        elif whence == 1:
            self._fp += offset
        else:
            raise MPIFileError(f"unsupported whence {whence}")
        if self._fp < 0:
            raise MPIFileError("file pointer moved before view start")

    def Get_position(self) -> int:
        return self._fp

    # ------------------------------------------------------------------
    # sizes
    # ------------------------------------------------------------------
    def Get_size(self) -> int:
        return self._pfile.size

    def Set_size(self, size: int) -> None:
        self._require_open()
        self.comm.barrier()
        self._pfile.set_size(size)
        self.comm.barrier()

    def Preallocate(self, size: int) -> None:
        self.Set_size(max(size, self._pfile.size))

    def Sync(self) -> None:
        self.comm.barrier()

    # ------------------------------------------------------------------
    # independent I/O (data-sieved)
    # ------------------------------------------------------------------
    def Read_at(self, offset: int, buf, status: Status | None = None) -> int:
        """Independent read at an explicit offset (etype units)."""
        self._require_open()
        self._require_readable()
        nbytes, _arr = _buf_nbytes(buf)
        extents = self._view.extents(offset * self._view.etype.size, nbytes)
        extents = _clamp_extents(extents, self._pfile.size)
        data, _t = collective.sieved_readv(self._pfile, extents,
                                           self._hints)
        _unpack_buf(buf, data)
        return self._finish(status, len(data))

    def Read(self, buf, status: Status | None = None) -> int:
        n = self.Read_at(self._fp, buf, status)
        self._fp += _buf_nbytes(buf)[0] // self._view.etype.size
        return n

    def Write_at(self, offset: int, buf, status: Status | None = None) -> int:
        """Independent write at an explicit offset (etype units)."""
        self._require_open()
        self._require_writable()
        data = _pack_buf(buf)
        extents = self._view.extents(offset * self._view.etype.size, len(data))
        _check_write_extents(extents, data)
        collective.sieved_writev(self._pfile, extents, data, self._hints)
        return self._finish(status, len(data))

    def Write(self, buf, status: Status | None = None) -> int:
        n = self.Write_at(self._fp, buf, status)
        self._fp += _buf_nbytes(buf)[0] // self._view.etype.size
        return n

    # ------------------------------------------------------------------
    # collective I/O (two-phase)
    # ------------------------------------------------------------------
    def Read_at_all(self, offset: int, buf,
                    status: Status | None = None) -> int:
        """Collective read at explicit offsets (MPI_File_read_at_all).

        If the collective fails, the contents of ``buf`` are undefined
        (as MPI allows): an aggregator may have filled part of it
        before another raised."""
        self._require_open()
        self._require_readable()
        nbytes, _arr = _buf_nbytes(buf)
        extents = _clamp_extents(
            self._view.extents(offset * self._view.etype.size, nbytes),
            self._pfile.size,
        )
        total = sum(n for _off, n in extents)
        # the aggregators fill a plain contiguous buffer in place; any
        # other buffer (typed, read-only, strided) reads into scratch and
        # is unpacked -- or refused -- only after the collective, so a
        # bad buffer on one rank never strands its peers
        dest = _writable_view(buf)
        into = bytearray(total) if dest is None else dest
        crash_point("server.kill.collective.entry")
        collective.two_phase_read(self.comm, self._pfile, extents,
                                  self._hints, into)
        if dest is None:
            _unpack_buf(buf, into)
        return self._finish(status, total)

    def Read_all(self, buf, status: Status | None = None) -> int:
        n = self.Read_at_all(self._fp, buf, status)
        self._fp += _buf_nbytes(buf)[0] // self._view.etype.size
        return n

    def Write_at_all(self, offset: int, buf,
                     status: Status | None = None) -> int:
        """Collective write at explicit offsets (MPI_File_write_at_all).

        Extents overlapping *across ranks* are legal and resolve in rank
        order (higher rank wins), matching the serial reference in which
        ranks write one after the other.
        """
        self._require_open()
        self._require_writable()
        data = _pack_buf(buf)
        extents = self._view.extents(offset * self._view.etype.size, len(data))
        _check_write_extents(extents, data)
        crash_point("server.kill.collective.entry")
        collective.two_phase_write(self.comm, self._pfile, extents, data,
                                   self._hints)
        return self._finish(status, len(data))

    def Write_all(self, buf, status: Status | None = None) -> int:
        n = self.Write_at_all(self._fp, buf, status)
        self._fp += _buf_nbytes(buf)[0] // self._view.etype.size
        return n

    # ------------------------------------------------------------------
    def _finish(self, status: Status | None, nbytes: int) -> int:
        """Set ``status.count`` to the bytes of *whole* etype elements
        transferred (MPI semantics: ``Get_count(etype)`` = elements, a
        partial trailing element at EOF is not counted) and return the
        raw byte count."""
        if status is not None:
            esize = self._view.etype.size
            status.count = (nbytes // esize) * esize
        return nbytes


# ---------------------------------------------------------------------------

def _buf_nbytes(buf) -> tuple[int, object]:
    """Total data bytes a buffer spec describes."""
    arr, count, dtype = _parse_bufspec(buf)
    if dtype is not None:
        return dtype.size * (count if count is not None else 1), arr
    a = np.asarray(arr)
    return a.nbytes, arr


def _writable_view(buf) -> memoryview | None:
    """A writable flat byte view of a plain buffer; None for a typed
    buffer spec or a buffer no such view can be taken of (read-only,
    non-contiguous)."""
    arr, _count, dtype = _parse_bufspec(buf)
    if dtype is not None:
        return None
    try:
        return _as_bytes_view(arr, writable=True)
    except (MPIDatatypeError, TypeError):
        return None


def _clamp_extents(extents: Sequence[Extent], file_size: int
                   ) -> list[Extent]:
    """Truncate read extents at EOF (MPI short-read semantics)."""
    out: list[Extent] = []
    for off, length in extents:
        if off >= file_size:
            break
        take = min(length, file_size - off)
        out.append((off, take))
        if take < length:
            break
    return out


def _check_write_extents(extents: Sequence[Extent], data: bytes) -> None:
    """Validate a write's extents against its payload before anything
    touches the PFS (the write-side counterpart of ``_clamp_extents``:
    writes extend the file instead of clamping, so a view/buffer
    mismatch must fail loudly up front, not as a low-level PFSError
    halfway through a collective exchange)."""
    total = sum(n for _off, n in extents)
    if total != len(data):
        raise MPIFileError(
            f"write view covers {total} bytes but the buffer packs "
            f"{len(data)} bytes")
    for off, length in extents:
        if off < 0 or length < 0:
            raise MPIFileError(
                f"write extent ({off}, {length}) is negative")
