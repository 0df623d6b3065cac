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
(:mod:`repro.drx.resilience`), the serve daemon's deadline gate, the
single file's offset view, and :class:`CompressedByteStore` here —
derives from :class:`StoreDecorator`, which forwards the whole interface
to the inner store and shares its counters, so a wrapper spells out only
the entry points it changes.  ``DRXFile._mount`` is the one place a
caller's ``store_wrapper`` is applied to the raw backends.
"""

from __future__ import annotations

import os
import pathlib
import threading
from dataclasses import dataclass, field, replace
from typing import Sequence

from ..core import faultsites
from ..core.errors import DRXFileError, PFSError
from ..core.faultsites import crash_point
from ..pfs.pfile import PFSFile
from .chunkalloc import SlotTable
from .codec import Codec, CodecStats, timed_frame_decode, timed_frame_encode

__all__ = ["ByteStore", "StoreStats", "StoreDecorator", "PosixByteStore",
           "MemoryByteStore", "PFSByteStore", "CompressedByteStore"]

#: A half-open byte extent ``(offset, length)``.
Extent = tuple[int, int]


@dataclass
class StoreStats:
    """Cumulative transfer counters for one byte store.

    The counter block is shared between the foreground thread and the
    executor's background read-ahead / write-behind tasks, so the
    ``note_*`` helpers serialize on a private lock.  ``snapshot()`` /
    ``delta()`` return plain value copies (the lock is never copied).
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
    plan_hits: int = 0        #: IOPlan compilations served from the cache
    plan_misses: int = 0      #: IOPlan compilations built fresh
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

    def note_plan(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.plan_hits += 1
            else:
                self.plan_misses += 1

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
            plan_hits=self.plan_hits - earlier.plan_hits,
            plan_misses=self.plan_misses - earlier.plan_misses,
        )

    def reset(self) -> None:
        self.reads = self.writes = 0
        self.readv_calls = self.writev_calls = 0
        self.coalesced_runs = 0
        self.bytes_read = self.bytes_written = 0
        self.short_reads = self.retries = self.giveups = 0
        self.plan_hits = self.plan_misses = 0


class ByteStore:
    """Abstract byte store interface (see module docstring)."""

    #: True on stores whose behaviour depends on the exact *order* of
    #: operations (fault-injecting decorators count ops to decide when a
    #: scripted fault fires).  The concurrency layers check this flag and
    #: keep every access to such a store strictly serial.
    deterministic_only = False

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
    single file's offset view, compression).

    It presents one accounting surface per physical file (``stats`` *is*
    the inner store's counter block), stays order-sensitive when anything
    below it is (``deterministic_only`` is inherited once, here, so it is
    visible through any stack depth), and forwards all eleven entry
    points to the inner method of the same name.  The forwards are
    explicit methods, not ``__getattr__``: :class:`ByteStore`'s own
    ``readv``/``writev``/``replace`` fallbacks would otherwise win the
    lookup and silently split a vectored call into scalar ones.  A
    subclass defines only the entry points whose behaviour it changes.
    """

    def __init__(self, inner: ByteStore) -> None:
        self._inner = inner
        self.stats = inner.stats
        if getattr(inner, "deterministic_only", False):
            self.deterministic_only = True

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

    The body is guarded by a lock: background read-ahead / write-behind
    tasks touch the same ``bytearray`` as the foreground thread, and a
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


class CompressedByteStore(StoreDecorator):
    """Transparent per-chunk compression over an inner byte store.

    Exposes the array's *logical* uncompressed chunk address space —
    chunk ``q`` still appears to live at ``q * chunk_nbytes``, so the
    Mpool, the streaming pipelines and the container conversions work
    unchanged (and the pool caches *decompressed* pages; its eviction
    write-backs recompress right here).  Underneath, each chunk's framed
    compressed payload (:mod:`repro.drx.codec`) is placed by a
    :class:`~repro.drx.chunkalloc.SlotTable` and moved through the inner
    store at its physical extent.  Every access must be chunk-aligned —
    which every caller in the stack already is, because the chunk is the
    transfer unit.

    Integrity: the optional ``guard`` (a
    :class:`~repro.drx.resilience.ChecksumGuard`, duck-typed to avoid an
    import cycle) records and verifies CRC32 over the *compressed*
    payload, and a mismatch arbitrates among the inner store's replica
    copies of the physical slot — so replication, healing and the chaos
    suites operate on compressed arrays exactly as on plain ones.

    CPU offload: with a ``codec``-tier executor attached, multi-chunk
    batches split their encode/decode work across its threads (pure-CPU
    leaf tasks — ``zlib`` releases the GIL — so codec time overlaps the
    inner store's server I/O).  Falls back to serial for small batches,
    order-sensitive inner stores, or while fault machinery is armed.

    ``stats`` is shared with the inner store: the transfer counters
    report the *compressed* bytes physically moved, which is the
    quantity compression exists to shrink.  The codec-side accounting
    (raw vs stored bytes, ratio, encode/decode wall-time) lives in
    ``codec_stats``.
    """

    def __init__(self, inner: ByteStore, codec: Codec, table: SlotTable,
                 chunk_nbytes: int, logical_nbytes: int = 0,
                 guard=None, executor=None) -> None:
        # one accounting surface per physical file (compressed bytes)
        super().__init__(inner)
        if chunk_nbytes < 1:
            raise DRXFileError(f"chunk size must be >= 1, got {chunk_nbytes}")
        self._codec = codec
        self._table = table
        self._nb = int(chunk_nbytes)
        self._logical = int(logical_nbytes)
        self._guard = guard
        self._executor = executor
        self.codec_stats = CodecStats()
        # table mutations race between the foreground thread and the
        # pool's write-behind tasks; inner I/O runs outside the lock
        # (slot extents are disjoint per chunk, and the pool already
        # orders same-chunk operations)
        self._ch_lock = threading.RLock()

    # -- wiring surface for the file layer ---------------------------------
    @property
    def inner(self) -> ByteStore:
        return self._inner

    @property
    def table(self) -> SlotTable:
        return self._table

    @property
    def codec(self) -> Codec:
        return self._codec

    @property
    def guard(self):
        return self._guard

    def data_extent_nbytes(self) -> int:
        """Physical end of the compressed chunk region."""
        with self._ch_lock:
            return self._table.end

    # -- codec offload ------------------------------------------------------
    def _map_codec(self, fn, items: list) -> list:
        """Apply ``fn`` to every item, splitting large batches across the
        codec executor (submit ``width - 1`` batches, run the last
        inline); results come back in item order."""
        ex = self._executor
        if (ex is None or len(items) < 4
                or self.deterministic_only or faultsites.any_active()):
            return [fn(it) for it in items]
        width = min(max(1, ex.threads), len(items))
        size = (len(items) + width - 1) // width
        batches = [items[i:i + size] for i in range(0, len(items), size)]
        run = lambda batch: [fn(it) for it in batch]  # noqa: E731
        futs = [ex.submit(run, b) for b in batches[:-1]]
        tail = run(batches[-1])
        out: list = []
        for f in futs:
            out.extend(ex.result(f))
        out.extend(tail)
        return out

    def _encode_many(self, raws: list) -> list[bytes]:
        codec, st = self._codec, self.codec_stats
        return self._map_codec(
            lambda raw: timed_frame_encode(codec, raw, st), raws)

    def _decode_many(self, payloads: list) -> list[bytes]:
        codec, st, nb = self._codec, self.codec_stats, self._nb
        return self._map_codec(
            lambda p: timed_frame_decode(codec, p, nb, st), payloads)

    # -- address decomposition ----------------------------------------------
    def _chunks_of(self, offset: int, length: int) -> range:
        nb = self._nb
        if offset % nb or length % nb:
            raise DRXFileError(
                f"compressed store access must be chunk-aligned: "
                f"offset {offset}, length {length}, chunk {nb} bytes"
            )
        return range(offset // nb, (offset + length) // nb)

    # -- reads ---------------------------------------------------------------
    def read(self, offset: int, length: int) -> bytes:
        return self._read_chunks(list(self._chunks_of(offset, length)))

    def readv(self, extents: Sequence[Extent]) -> bytes:
        chunks: list[int] = []
        for off, length in extents:
            chunks.extend(self._chunks_of(off, length))
        return self._read_chunks(chunks)

    def _read_chunks(self, chunks: list[int]) -> bytes:
        nb = self._nb
        with self._ch_lock:
            slots = [self._table.get(c) for c in chunks]
        present = [(i, c, s) for i, (c, s) in enumerate(zip(chunks, slots))
                   if s is not None and s.length > 0]
        out = bytearray(len(chunks) * nb)     # absent chunks read as zeros
        if not present:
            return bytes(out)
        extents: list[list[int]] = []
        for _i, _c, s in present:             # merge physically adjacent
            if extents and extents[-1][0] + extents[-1][1] == s.offset:
                extents[-1][1] += s.length
            else:
                extents.append([s.offset, s.length])
        blob = memoryview(self._inner.readv(
            [(off, length) for off, length in extents]))
        payloads: list = []
        pos = 0
        for _i, c, s in present:
            payload = blob[pos:pos + s.length]
            pos += s.length
            if self._guard is not None:
                # a CRC mismatch over the compressed payload arbitrates
                # among the inner store's replica copies of the slot
                payload = self._guard.check_or_arbitrate(
                    c, payload, self._inner, s.offset, s.length)
            payloads.append(payload)
        raws = self._decode_many(payloads)
        for (i, _c, _s), raw in zip(present, raws):
            out[i * nb:(i + 1) * nb] = raw
        return bytes(out)

    # -- writes --------------------------------------------------------------
    def write(self, offset: int, data) -> None:
        self._write_chunks(list(self._chunks_of(offset, len(data))), data)

    def writev(self, extents: Sequence[Extent], data) -> None:
        mv = memoryview(data)
        total = sum(length for _off, length in extents)
        if total != len(mv):
            raise DRXFileError(
                f"writev: extents cover {total} bytes, data has {len(mv)}"
            )
        chunks: list[int] = []
        for off, length in extents:
            chunks.extend(self._chunks_of(off, length))
        self._write_chunks(chunks, mv)

    def _write_chunks(self, chunks: list[int], data) -> None:
        nb = self._nb
        mv = memoryview(data)
        payloads = self._encode_many(
            [mv[i * nb:(i + 1) * nb] for i in range(len(chunks))])
        with self._ch_lock:
            slots = [self._table.allocate(c, len(p))
                     for c, p in zip(chunks, payloads)]
            if self._guard is not None:
                for c, p in zip(chunks, payloads):
                    self._guard.record(c, p)
            if chunks:
                self._logical = max(self._logical,
                                    (max(chunks) + 1) * nb)
        extents: list[list[int]] = []
        blob = bytearray()
        for s, p in zip(slots, payloads):
            if extents and extents[-1][0] + extents[-1][1] == s.offset:
                extents[-1][1] += len(p)
            else:
                extents.append([s.offset, len(p)])
            blob += p
        if extents:
            self._inner.writev([(off, length) for off, length in extents],
                               bytes(blob))

    def replace(self, data) -> None:
        raise DRXFileError(
            "replace() is not supported on a compressed chunk store"
        )

    # The logical address space has no replica copies of its own (a CRC
    # mismatch arbitrates inside, at the chunk's physical slot), so the
    # single-copy defaults apply rather than a forward of logical
    # offsets to the physical store.
    read_alternates = ByteStore.read_alternates
    repair = ByteStore.repair

    # -- geometry / lifecycle -------------------------------------------------
    @property
    def size(self) -> int:
        """The *logical* (uncompressed) size — what the pool's read-ahead
        bounds against and ``DRXFile.extend`` grows."""
        return self._logical

    def truncate(self, size: int) -> None:
        nb = self._nb
        if size % nb:
            raise DRXFileError(
                f"compressed store size must be chunk-aligned, got {size}"
            )
        with self._ch_lock:
            if size < self._logical:
                keep = size // nb
                for c in [c for c in self._table.indices() if c >= keep]:
                    self._table.remove(c)
                    if self._guard is not None:
                        self._guard.crcs.pop(c, None)
            self._logical = size
