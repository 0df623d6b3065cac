"""Byte-store backends for DRX array files.

DRX (the serial library) stores its pair of files "in any POSIX-compliant
Unix file system" — :class:`PosixByteStore` does exactly that with real
files.  :class:`MemoryByteStore` backs unit tests, and
:class:`PFSByteStore` adapts a simulated-PFS file so a serial DRX file
and a parallel DRX-MP file are byte-compatible (the same ``.xta`` layout
read through either library — tested in the integration suite).

All stores expose the same tiny interface: ``read``, ``write``, ``size``,
``truncate``, ``flush``, ``close``; reads past the end return zeros
(sparse semantics, which lazy segment materialization relies on).  On top
of the scalar calls sit the vectored forms ``readv``/``writev`` taking a
list of contiguous byte extents — the transfer primitive of the run
coalescing I/O planner (:mod:`repro.drx.ioplan`).  The base class runs
them as one scalar call per extent; :class:`PosixByteStore` issues one
positioned read/write per run, and :class:`PFSByteStore` forwards the
whole extent list to the striped file's native vectored path so a single
call fans out over the I/O servers.

Every store carries a :class:`StoreStats` counter block: ``syscalls`` is
the number of physical transfer operations issued (one per scalar call,
one per extent of a vectored call), ``coalesced_runs`` counts the extents
moved through the vectored entry points, and ``bytes_per_call`` is the
resulting mean transfer size — the quantity run coalescing exists to
maximize.  The fault-model counters ``short_reads``, ``retries`` and
``giveups`` are filled in by the stores themselves (partial ``pread``
recovery) and by the :class:`~repro.drx.resilience.RetryingByteStore`
decorator.

Stores also expose ``replace(data)`` — replace the *entire* contents in
one crash-consistent step.  :class:`PosixByteStore` implements it as the
classic temp-file + fsync + atomic-rename sequence (with named crash
points for the crash-consistency tests); the in-memory default is a
plain rewrite.  The meta-data commit protocols build on it.

Stores stack: every wrapper — fault injection and retries
(:mod:`repro.drx.resilience`), the serve daemon's deadline gate and the
single file's offset view — derives from :class:`StoreDecorator`, which
forwards the whole interface to the inner store and shares its counters,
so a wrapper spells out only the entry points it changes.
``DRXFile._mount`` is the one place a caller's ``store_wrapper`` is
applied to the raw backends.

Byte stores know nothing of chunks.  How a chunk is placed, coded and
checksummed on top of them is :class:`~repro.drx.chunkstore.ChunkStore`'s
business, one per array.
"""

from __future__ import annotations

import os
import pathlib
import threading
from dataclasses import dataclass, field, replace
from typing import Sequence

from ..core.errors import DRXFileError, PFSError
from ..core.faultsites import crash_point
from ..pfs.pfile import PFSFile

__all__ = ["ByteStore", "StoreStats", "StoreDecorator", "PosixByteStore",
           "MemoryByteStore", "PFSByteStore"]

#: A half-open byte extent ``(offset, length)``.
Extent = tuple[int, int]


@dataclass
class StoreStats:
    """Cumulative transfer counters for one byte store.

    The counter block is shared between every thread that uses the
    store (rank threads, serve workers), so the ``note_*`` helpers
    serialize on a private lock.  ``snapshot()`` / ``delta()`` return
    plain value copies (the lock is never copied).
    """

    reads: int = 0            #: physical read transfers issued
    writes: int = 0           #: physical write transfers issued
    readv_calls: int = 0      #: vectored read invocations
    writev_calls: int = 0     #: vectored write invocations
    coalesced_runs: int = 0   #: contiguous runs moved through readv/writev
    bytes_read: int = 0
    bytes_written: int = 0
    short_reads: int = 0      #: partial transfers recovered by re-reading
    retries: int = 0          #: operations re-issued after transient faults
    giveups: int = 0          #: operations abandoned (permanent / exhausted)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  init=False, repr=False, compare=False)

    @property
    def syscalls(self) -> int:
        """Physical transfer operations issued to the backing medium."""
        return self.reads + self.writes

    @property
    def bytes_moved(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def bytes_per_call(self) -> float:
        """Mean bytes moved per physical transfer (0 when idle)."""
        return self.bytes_moved / self.syscalls if self.syscalls else 0.0

    def note_read(self, nbytes: int) -> None:
        with self._lock:
            self.reads += 1
            self.bytes_read += nbytes

    def note_write(self, nbytes: int) -> None:
        with self._lock:
            self.writes += 1
            self.bytes_written += nbytes

    def note_readv(self, nruns: int) -> None:
        with self._lock:
            self.readv_calls += 1
            self.coalesced_runs += nruns

    def note_writev(self, nruns: int) -> None:
        with self._lock:
            self.writev_calls += 1
            self.coalesced_runs += nruns

    def snapshot(self) -> "StoreStats":
        return replace(self)

    def delta(self, earlier: "StoreStats") -> "StoreStats":
        """Counters accumulated since the ``earlier`` snapshot."""
        return StoreStats(
            reads=self.reads - earlier.reads,
            writes=self.writes - earlier.writes,
            readv_calls=self.readv_calls - earlier.readv_calls,
            writev_calls=self.writev_calls - earlier.writev_calls,
            coalesced_runs=self.coalesced_runs - earlier.coalesced_runs,
            bytes_read=self.bytes_read - earlier.bytes_read,
            bytes_written=self.bytes_written - earlier.bytes_written,
            short_reads=self.short_reads - earlier.short_reads,
            retries=self.retries - earlier.retries,
            giveups=self.giveups - earlier.giveups,
        )

    def reset(self) -> None:
        self.reads = self.writes = 0
        self.readv_calls = self.writev_calls = 0
        self.coalesced_runs = 0
        self.bytes_read = self.bytes_written = 0
        self.short_reads = self.retries = self.giveups = 0


class ByteStore:
    """Abstract byte store interface (see module docstring)."""

    def __init__(self) -> None:
        self.stats = StoreStats()

    def read(self, offset: int, length: int) -> bytes:
        raise NotImplementedError

    def write(self, offset: int, data) -> None:
        raise NotImplementedError

    def readv(self, extents: Sequence[Extent]) -> bytes:
        """Read the given extents, concatenated in request order.

        Fallback: one scalar :meth:`read` per extent (which does its own
        accounting).  Backends with a cheaper vectored path override this.
        """
        self.stats.note_readv(len(extents))
        if len(extents) == 1:
            return self.read(*extents[0])
        return b"".join(self.read(off, length) for off, length in extents)

    def writev(self, extents: Sequence[Extent], data) -> None:
        """Write ``data`` (one buffer covering every extent, in order)
        into the given extents.

        Fallback: one scalar :meth:`write` per extent with a zero-copy
        ``memoryview`` slice of ``data``.
        """
        self.stats.note_writev(len(extents))
        mv = memoryview(data)
        total = sum(length for _off, length in extents)
        if total != len(mv):
            raise DRXFileError(
                f"writev: extents cover {total} bytes, data has {len(mv)}"
            )
        pos = 0
        for off, length in extents:
            self.write(off, mv[pos:pos + length])
            pos += length

    def replace(self, data) -> None:
        """Replace the store's entire contents with ``data``.

        Commit protocols use this for whole-object rewrites that must
        never be observed half-done.  The generic fallback is a plain
        truncate + write + flush (adequate for in-memory stores, where
        crash atomicity is moot); :class:`PosixByteStore` overrides it
        with the temp-file + fsync + atomic-rename sequence.
        """
        self.truncate(len(data))
        self.write(0, data)
        self.flush()

    def read_alternates(self, offset: int, length: int) -> list[bytes]:
        """Independent alternate versions of a byte range, one per
        physical replica that can serve it.

        Single-copy stores have none (the default).  Replicated stores
        (:class:`PFSByteStore` over a replication > 1 layout) return one
        buffer per reachable replica copy; the checksum guard uses them
        to *arbitrate* when the regular read fails its CRC — a torn
        replica fan-out leaves copies diverging, and the copy matching
        the recorded checksum is the committed one.
        """
        return []

    def repair(self, offset: int, data) -> None:
        """Write back arbitrated bytes *out of band* — the heal side of
        :meth:`read_alternates`.

        Arbitration happens on a logical read, so healing the losing
        replica must not skew write counters or trip injected write
        faults; replicated stores override this with a path that
        bypasses both (:class:`PFSByteStore` patches the server objects
        directly), and the resilience decorators forward it untouched.
        The fallback is a plain :meth:`write` — only reachable by
        direct callers, since single-copy stores never arbitrate.
        """
        self.write(offset, data)

    @property
    def size(self) -> int:
        raise NotImplementedError

    def truncate(self, size: int) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class StoreDecorator(ByteStore):
    """A byte store layered over an ``inner`` one — the base of every
    wrapper in the stack (fault injection, retries, deadline gates, the
    single file's offset view).

    It presents one accounting surface per physical file (``stats`` *is*
    the inner store's counter block) and forwards all eleven entry
    points to the inner method of the same name.  The forwards are
    explicit methods, not ``__getattr__``: :class:`ByteStore`'s own
    ``readv``/``writev``/``replace`` fallbacks would otherwise win the
    lookup and silently split a vectored call into scalar ones.  A
    subclass defines only the entry points whose behaviour it changes.
    """

    def __init__(self, inner: ByteStore) -> None:
        self._inner = inner
        self.stats = inner.stats

    def read(self, offset: int, length: int) -> bytes:
        return self._inner.read(offset, length)

    def write(self, offset: int, data) -> None:
        self._inner.write(offset, data)

    def readv(self, extents: Sequence[Extent]) -> bytes:
        return self._inner.readv(extents)

    def writev(self, extents: Sequence[Extent], data) -> None:
        self._inner.writev(extents, data)

    def replace(self, data) -> None:
        self._inner.replace(data)

    def read_alternates(self, offset: int, length: int) -> list[bytes]:
        return self._inner.read_alternates(offset, length)

    def repair(self, offset: int, data) -> None:
        self._inner.repair(offset, data)

    @property
    def size(self) -> int:
        return self._inner.size

    def truncate(self, size: int) -> None:
        self._inner.truncate(size)

    def flush(self) -> None:
        self._inner.flush()

    def close(self) -> None:
        self._inner.close()


class PosixByteStore(ByteStore):
    """A real file accessed with ``os.pread``/``os.pwrite``."""

    def __init__(self, path: str | pathlib.Path, mode: str = "r+") -> None:
        super().__init__()
        self.path = pathlib.Path(path)
        if mode == "r":
            flags = os.O_RDONLY
        elif mode == "r+":
            flags = os.O_RDWR
        elif mode == "x+":
            flags = os.O_RDWR | os.O_CREAT | os.O_EXCL
        elif mode == "w+":
            flags = os.O_RDWR | os.O_CREAT | os.O_TRUNC
        else:
            raise DRXFileError(f"unsupported mode {mode!r}")
        self._writable = mode != "r"
        try:
            self._fd = os.open(self.path, flags, 0o644)
        except OSError as exc:
            raise DRXFileError(f"cannot open {self.path}: {exc}") from exc
        self._closed = False

    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes, looping on partial ``pread``.

        POSIX allows a ``pread`` to transfer fewer bytes than requested
        mid-file (signals, NFS, pipes under the hood); only a genuine
        end-of-file return stops the loop, so zeros are filled in for
        bytes actually past EOF (sparse semantics), never for bytes the
        kernel simply hadn't delivered yet.  Each recovered partial
        transfer counts in ``stats.short_reads``.
        """
        self.stats.note_read(length)
        data = os.pread(self._fd, length, offset)
        if len(data) == length:                     # common case, no copy
            return data
        parts = [data] if data else []
        got = len(data)
        while got < length:
            piece = os.pread(self._fd, length - got, offset + got)
            if not piece:
                break                               # true EOF: zero-fill
            self.stats.short_reads += 1             # previous pread was short
            parts.append(piece)
            got += len(piece)
        if got < length:
            parts.append(b"\x00" * (length - got))
        return b"".join(parts)

    def write(self, offset: int, data) -> None:
        if not self._writable:
            raise DRXFileError(f"{self.path} opened read-only")
        self.stats.note_write(len(data))
        os.pwrite(self._fd, data, offset)

    # the inherited readv/writev already issue exactly one positioned
    # read/write per extent — one seek+transfer per coalesced run — so no
    # override is needed; there is no POSIX scatter-offset vector call.

    def replace(self, data) -> None:
        """Atomically replace the file's contents (temp + fsync + rename).

        A crash at any instant leaves either the complete old file or the
        complete new one — the rename is the commit point.  The open file
        descriptor is re-pointed at the new inode afterwards, and the
        directory is fsynced so the rename itself is durable.
        """
        if not self._writable:
            raise DRXFileError(f"{self.path} opened read-only")
        self.stats.note_write(len(data))
        tmp = self.path.with_name(self.path.name + ".commit")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            crash_point("posix.replace.opened")
            view = memoryview(data) if not isinstance(data, memoryview) \
                else data
            pos = 0
            while pos < len(view):
                pos += os.write(fd, view[pos:])
            crash_point("posix.replace.written")
            os.fsync(fd)
        finally:
            os.close(fd)
        crash_point("posix.replace.synced")
        os.replace(tmp, self.path)
        crash_point("posix.replace.renamed")
        os.close(self._fd)
        self._fd = os.open(self.path, os.O_RDWR)
        dirfd = os.open(self.path.parent, os.O_RDONLY)
        try:
            os.fsync(dirfd)
        finally:
            os.close(dirfd)

    @property
    def size(self) -> int:
        return os.fstat(self._fd).st_size

    def truncate(self, size: int) -> None:
        if not self._writable:
            raise DRXFileError(f"{self.path} opened read-only")
        os.ftruncate(self._fd, size)

    def flush(self) -> None:
        if not self._closed:
            os.fsync(self._fd)

    def close(self) -> None:
        if not self._closed:
            os.close(self._fd)
            self._closed = True


class MemoryByteStore(ByteStore):
    """An in-memory byte store (unit tests, scratch arrays).

    The body is guarded by a lock: threads sharing one array (rank
    threads, serve workers) touch the same ``bytearray``, and a
    concurrent ``extend`` during a slice read is not atomic in general.
    """

    def __init__(self) -> None:
        super().__init__()
        self._data = bytearray()
        self._mem_lock = threading.Lock()

    def read(self, offset: int, length: int) -> bytes:
        self.stats.note_read(length)
        with self._mem_lock:
            end = offset + length
            chunk = bytes(self._data[offset:min(end, len(self._data))])
        return chunk + b"\x00" * (length - len(chunk))

    def write(self, offset: int, data) -> None:
        self.stats.note_write(len(data))
        with self._mem_lock:
            end = offset + len(data)
            if end > len(self._data):
                self._data.extend(b"\x00" * (end - len(self._data)))
            self._data[offset:end] = data

    @property
    def size(self) -> int:
        with self._mem_lock:
            return len(self._data)

    def truncate(self, size: int) -> None:
        with self._mem_lock:
            if size < len(self._data):
                del self._data[size:]
            else:
                self._data.extend(b"\x00" * (size - len(self._data)))


class PFSByteStore(ByteStore):
    """Adapter exposing a simulated-PFS file as a byte store.

    The vectored forms forward the whole extent list to
    :meth:`PFSFile.readv`/:meth:`PFSFile.writev`, so one store call
    becomes one striped request batch per I/O server — the path where run
    coalescing pays twice (fewer requests *and* full-stripe transfers).
    """

    def __init__(self, pfile: PFSFile) -> None:
        super().__init__()
        self._pfile = pfile

    def read(self, offset: int, length: int) -> bytes:
        self.stats.note_read(length)
        return self._pfile.read(offset, length)

    def write(self, offset: int, data) -> None:
        self.stats.note_write(len(data))
        self._pfile.write(offset, data)

    def readv(self, extents: Sequence[Extent]) -> bytes:
        self.stats.note_readv(len(extents))
        for _off, length in extents:
            self.stats.note_read(length)
        data, _t = self._pfile.readv(list(extents))
        return data

    def writev(self, extents: Sequence[Extent], data) -> None:
        self.stats.note_writev(len(extents))
        for _off, length in extents:
            self.stats.note_write(length)
        self._pfile.writev(list(extents), data)

    def read_alternates(self, offset: int, length: int) -> list[bytes]:
        """One buffer per reachable replica copy of the range (empty on
        an unreplicated layout).  Unreachable copies are skipped — the
        arbitration caller only needs the versions that still exist."""
        if self._pfile.replication < 2:
            return []
        out: list[bytes] = []
        for copy in range(self._pfile.replication):
            try:
                data, _t = self._pfile.readv_copy([(offset, length)], copy)
            except PFSError:
                continue
            out.append(data)
        return out

    def repair(self, offset: int, data) -> None:
        """Heal a byte range on every reachable replica out of band —
        no store stats, no server stats, no fault plan (see
        :meth:`PFSFile.repair <repro.pfs.pfile.PFSFile.repair>`)."""
        self._pfile.repair(offset, bytes(data))

    @property
    def size(self) -> int:
        return self._pfile.size

    def truncate(self, size: int) -> None:
        self._pfile.set_size(size)
