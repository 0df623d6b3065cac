"""The multi-tenant array service daemon.

:class:`DRXServer` listens on a TCP socket, speaks the
:mod:`repro.serve.protocol` framing, and multiplexes many concurrent
clients onto **shared** substrate: one set of open
:class:`~repro.drx.drxfile.DRXFile` handles (each with its Mpool buffer
cache and executor wiring), optionally one shared
:class:`~repro.pfs.filesystem.ParallelFileSystem`.  The design
commitments, in the order a request meets them:

*One dispatch.*  Every request carries an integer ``rid``.  The
connection's reader hands it to the connection's reusable worker pool
(threads grown on demand, bounded, never created per-request once
warm); the handler — ``_op_<verb>``, looked up through
:data:`~repro.serve.protocol.VERB_TABLE` — runs on that worker and the
reply, echoing the ``rid``, may leave **out of order**.  The
per-connection fan-out is capped by ``max_conn_inflight`` (reader-side
backpressure past it) and the work itself still funnels through
admission control below.  While a chaos fault plan is armed the reader
runs the same routine inline, one request at a time, so kill schedules
replay deterministically.  A ``batch`` frame carries many operations
in one round trip; each passes through admission, QoS, deadline, and
locking individually (see :mod:`repro.serve.protocol`).

*Admission control.*  A request first claims an in-flight slot —
bounded per client and globally.  Waiters park on a condition variable
in a **bounded** queue; when the queue itself is full (or the daemon is
draining) the request is refused with an explicit ``RETRY_LATER`` frame
instead of buffering without bound.  Queue wait is charged to the
request's deadline and to the client's QoS record.

*Deadlines.*  The client ships its remaining budget with each request;
the daemon turns it into a :class:`~repro.core.watchdog.CancelScope`
and schedules one entry on the process-wide
:func:`~repro.core.watchdog.default_watchdog` — the same monitor thread
the MPI deadlock watchdog uses — whose callback cancels the scope.
Every blocking point (admission wait, lock wait, store operation via
:class:`CancelGateStore`, simulated computation) checkpoints the scope,
so expiry aborts the request mid-flight rather than after the fact.  A
mutation cancelled mid-apply is rolled back from its pre-image before
the ``DEADLINE`` frame is sent.

*Range locking.*  Data-plane verbs take the array's
:class:`~repro.serve.locks.ArrayRWLock` shared plus exclusive
:class:`~repro.serve.locks.ChunkLocks` on exactly the chunks their box
covers, in ascending linear-address order; structural verbs (extend,
flush, snapshot, scrub) take the array lock exclusive.  Disjoint
writers proceed concurrently; overlapping writers serialize, and each
applied mutation gets a per-array sequence number so clients can
observe the serialization order.

*Durability and exactly-once.*  One rule, no switch: every mutating
request (``write`` / ``extend``) carries its ``(client, sid, seq)``
idempotency key — a keyed verb without one is refused, fatally, before
anything is journaled or applied — and is journaled under it: its
intent (BEGIN/DATA records) is appended to the array's write-ahead
journal (:mod:`repro.serve.journal`) *before* the mutation touches the
Mpool, its COMMIT record — carrying the result and the key — before
the range locks drop, and the journal is group-commit fsynced before
the OK frame is sent.  Restart recovery (:mod:`repro.serve.recovery`)
replays committed transactions and re-seeds the dedup table, so a
``kill -9`` at any fault site loses no acknowledged write, and a client
retrying a request whose OK frame was lost is answered from cache
instead of re-applied.  A watchdog-driven checkpoint
(``checkpoint_interval``) — and every explicit ``flush`` — truncates
the journal once the array itself is durable.

*Graceful drain.*  ``shutdown(drain=True)`` (also SIGTERM) stops
accepting, refuses new admissions with ``RETRY_LATER``, lets in-flight
requests finish or deadline out, then flushes and closes every array —
acknowledged writes are durable.  :meth:`DRXServer.kill` is the abrupt
path: scopes cancelled, sockets torn down, arrays *abandoned* (dirty
cache dropped, no flush) — the crash the chaos suite recovers from;
only the journal (already appended, synced per acknowledgement)
survives it, which is the whole point.

*Chaos.*  The ``server.kill.daemon.*`` fault sites of
:data:`~repro.core.faultsites.DAEMON_SITES` fire at the request
life-cycle boundaries (admitted / locked / journaled / applied /
drain.flush), and the ``serve.net.*`` sites of
:data:`~repro.core.faultsites.NET_SITES` at the network boundary
(request received / reply not yet sent); a
:class:`~repro.drx.resilience.FaultPlan` crash rule at any of them
makes the daemon die abruptly at that instant via :meth:`kill`.
"""

from __future__ import annotations

import functools
import pathlib
import queue
import re
import socket
import threading
import time
from typing import Callable, Sequence

import numpy as np

from ..core import faultsites
from ..core.errors import (
    CrashError,
    DeadlineError,
    DRXError,
    DRXFileExistsError,
    RetryLater,
    ServeError,
)
from ..core.faultsites import crash_point
from ..core.watchdog import CancelScope, Deadline, Watchdog, default_watchdog
from ..drx.drxfile import DRXFile
from ..drx.storage import (ByteStore, PFSByteStore, PosixByteStore,
                           StoreDecorator)
from .journal import JOURNAL_SUFFIX, DedupTable, Journal
from .locks import ArrayRWLock, ChunkLocks, _wait
from .protocol import (
    BATCHABLE_VERBS,
    DEADLINE,
    DEDUP_WINDOW,
    ERR,
    MAX_BATCH_OPS,
    MAX_FRAME,
    OK,
    REQ,
    RETRY_LATER,
    VERB_TABLE,
    ProtocolError,
    close_socket,
    encode_error,
    recv_frame,
    send_frame,
    split_payload,
)
from .qos import QoSRegistry
from .recovery import recover

__all__ = ["DRXServer", "CancelGateStore", "current_scope"]

#: Array names are identifiers, never paths: first character
#: alphanumeric, then alphanumerics plus ``._-`` — no separators, so a
#: root-directory server cannot be walked out of its root.
_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,127}\Z")

#: Slice length for simulated request computation (``_delay`` header),
#: short enough that cancellation lands promptly.
_DELAY_SLICE = 0.005

_scope_local = threading.local()


def current_scope() -> CancelScope | None:
    """The :class:`CancelScope` of the request running on this thread
    (``None`` outside a request — e.g. Mpool background write-behind)."""
    return getattr(_scope_local, "value", None)


class CancelGateStore(StoreDecorator):
    """A :class:`ByteStore` decorator that checkpoints the current
    request's :class:`CancelScope` before every transfer.

    This is how a deadline propagates *into* the storage stack: the
    daemon opens every array with this wrapper, the request's scope is
    installed thread-locally for the duration of the handler, and any
    store operation issued after expiry raises
    :class:`~repro.core.errors.DeadlineError` instead of doing the I/O.
    Operations issued from background threads (read-ahead, write-behind)
    carry no scope and pass through ungated.  Only the four transfers
    are gated; ``replace`` deliberately stays the base class's plain
    forward — it is the crash-consistent meta-data commit, and once
    entered it must complete: a deadline must not tear a commit in half.
    """

    def __init__(self, inner: ByteStore, role: str = "data") -> None:
        super().__init__(inner)
        self.role = role

    def _gate(self, what: str) -> None:
        scope = current_scope()
        if scope is not None:
            scope.check(f"{self.role} store {what}")

    def read(self, offset: int, length: int) -> bytes:
        self._gate("read")
        return self._inner.read(offset, length)

    def write(self, offset: int, data) -> None:
        self._gate("write")
        self._inner.write(offset, data)

    def readv(self, extents) -> bytes:
        self._gate("readv")
        return self._inner.readv(extents)

    def writev(self, extents, data) -> None:
        self._gate("writev")
        self._inner.writev(extents, data)


class Admission:
    """Bounded in-flight slots with a bounded wait queue.

    ``admit`` returns the queue wait in seconds; it raises
    :class:`RetryLater` when the queue is full or the daemon is
    draining, and :class:`DeadlineError` when the request's scope
    expires while parked.
    """

    def __init__(self, qos: QoSRegistry, max_inflight: int,
                 max_inflight_per_client: int, max_queue: int) -> None:
        self.qos = qos
        self.max_inflight = max(1, int(max_inflight))
        self.max_per_client = max(1, int(max_inflight_per_client))
        self.max_queue = max(0, int(max_queue))
        self._cond = threading.Condition()
        self._inflight = 0
        self._per_client: dict[str, int] = {}
        self._queued = 0
        self.draining = False

    def admit(self, client: str, scope: CancelScope | None) -> float:
        t0 = time.monotonic()
        with self._cond:
            if self.draining:
                raise RetryLater("server draining")
            must_wait = (self._inflight >= self.max_inflight
                         or self._per_client.get(client, 0)
                         >= self.max_per_client)
            if must_wait and self._queued >= self.max_queue:
                raise RetryLater(
                    f"admission queue full ({self._queued} waiting)")
            if must_wait:
                # only genuine waiters count toward the queue bound — a
                # request sailing straight into a free slot must not
                # transiently inflate the depth high-water mark
                self._queued += 1
                self.qos.note_queue_depth(self._queued)
                try:
                    while (self._inflight >= self.max_inflight
                           or self._per_client.get(client, 0)
                           >= self.max_per_client):
                        if self.draining:
                            raise RetryLater("server draining")
                        _wait(self._cond, scope, "admission wait")
                finally:
                    self._queued -= 1
            self._inflight += 1
            self._per_client[client] = self._per_client.get(client, 0) + 1
            self.qos.note_inflight(self._inflight)
        return time.monotonic() - t0

    def release(self, client: str) -> None:
        with self._cond:
            self._inflight -= 1
            n = self._per_client.get(client, 0) - 1
            if n <= 0:
                self._per_client.pop(client, None)
            else:
                self._per_client[client] = n
            # one release frees one global slot plus one unit of this
            # client's budget, so at most a couple of waiters can
            # become admissible — waking the whole queue is a
            # thundering herd that costs more CPU than the requests
            # themselves once hundreds of pipelined waiters park here.
            # Waking too few is safe: admission waits poll on a
            # bounded slice, so a missed wakeup self-heals.
            self._cond.notify(8)

    @property
    def inflight(self) -> int:
        with self._cond:
            return self._inflight

    @property
    def queued(self) -> int:
        with self._cond:
            return self._queued

    def start_draining(self) -> None:
        with self._cond:
            self.draining = True
            self._cond.notify_all()

    def wait_idle(self, timeout: float) -> bool:
        """Wait for every in-flight request to finish; True on idle."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(min(0.05, remaining))
            return True


class _ConnWorkers:
    """A lazily-grown, bounded worker pool for one connection's
    requests.

    ``cap`` bounds the jobs in flight — past it :meth:`submit` blocks,
    so the connection's reader parks and TCP backpressure does the rest
    — and thereby the threads: one is created only when every existing
    worker is busy, and all are reused, so a synchronous client costs
    one thread and a warm pipeline never pays per-request thread
    creation.  A worker survives any job failure; ``close()`` wakes
    every worker to exit, letting in-flight handlers finish first.
    """

    _STOP = object()

    def __init__(self, cap: int, name: str) -> None:
        self.name = name
        self._q: queue.SimpleQueue = queue.SimpleQueue()
        self._slots = threading.Semaphore(cap)
        self._lock = threading.Lock()
        self._busy = 0      #: jobs queued or running
        self._threads: list[threading.Thread] = []

    def submit(self, fn: Callable[[], None]) -> None:
        """Queue ``fn``, growing the pool when no worker may be free.
        Raises only when the job can never run — thread creation failed
        and the pool is empty — *without* having queued it, so the
        caller can fall back to running inline."""
        self._slots.acquire()
        with self._lock:
            self._busy += 1
            if self._busy > len(self._threads):
                t = threading.Thread(target=self._run, name=self.name,
                                     daemon=True)
                try:
                    t.start()
                except RuntimeError:
                    # thread limit: fine if workers exist (they will
                    # drain the queue), fatal-to-this-job otherwise —
                    # and the job is NOT queued, so no double run
                    if not self._threads:
                        self._busy -= 1
                        self._slots.release()
                        raise
                else:
                    self._threads.append(t)
            self._q.put(fn)

    def _run(self) -> None:
        while True:
            fn = self._q.get()
            if fn is self._STOP:
                return
            try:
                fn()
            except Exception:   # noqa: BLE001 - job owns its errors
                pass            # a worker must outlive any single job
            finally:
                with self._lock:
                    self._busy -= 1
                self._slots.release()

    def close(self) -> None:
        for _ in self._threads:     # only the reader submits or closes
            self._q.put(self._STOP)


class _ArrayEntry:
    """One open array plus its service-layer state.

    Opening one is the daemon's recovery path: scan the array's journal
    (``journal_store``), replay committed-but-unapplied transactions,
    re-seed the dedup table, and restart the journal from a clean
    checkpoint so each crash's records replay exactly once.  The
    journal store is raw — not Mpool-buffered and not deadline-gated:
    appends for an acknowledged mutation must land even if the *next*
    request's scope has expired, and abandoning the buffer cache on
    :meth:`DRXServer.kill` must not touch what :meth:`Journal.sync`
    already made durable.
    """

    def __init__(self, name: str, file: DRXFile,
                 journal_store: ByteStore) -> None:
        self.name = name
        self.file = file
        self.rw = ArrayRWLock()
        self.chunks = ChunkLocks()
        # the dedup window must cover every keyed mutation a client
        # could still retry — a maximal batch frame plus a full
        # pipeline window — or a torn batch's re-sent tail re-applies
        # mutations whose entries were evicted (a double extend)
        self.dedup = DedupTable(per_client=DEDUP_WINDOW)
        self._seq = 0
        self._seq_lock = threading.Lock()
        report = recover(file, journal_store)
        self.dedup.seed(report.dedup)
        self.journal = Journal(journal_store, start=report.valid_end,
                               start_txn=report.max_txn)
        self.journal.stats.recovered_txns = report.replayed
        self.journal.stats.discarded_txns = report.discarded_txns
        self.journal.stats.torn_bytes = report.torn_bytes
        self.rotate_journal()
        self.recovery = report.snapshot()    #: the recovery summary

    def rotate_journal(self) -> None:
        """Truncate the journal to one CHECKPOINT record carrying the
        dedup table forward.  Call only once every journaled mutation
        is durable in the array (flushed, closed, or just recovered)."""
        self.journal.rotate(self.dedup.snapshot(), self.file.commit_epoch)

    def next_seq(self) -> int:
        """Per-array apply sequence number, claimed while the mutation's
        chunk locks are still held — the serialization order overlapping
        writers observe."""
        with self._seq_lock:
            self._seq += 1
            return self._seq


def _box_addresses(file: DRXFile, lo: Sequence[int],
                   hi: Sequence[int]) -> list[int]:
    """Linear addresses of every chunk the box ``[lo, hi)`` touches."""
    from itertools import product

    if any(h <= l for l, h in zip(lo, hi)):
        return []
    ranges = [range(l // c, (h - 1) // c + 1)
              for l, h, c in zip(lo, hi, file.chunk_shape)]
    return [file.meta.eci.address(ci) for ci in product(*ranges)]


_XMD = DRXFile.XMD_SUFFIX


class _RootBackend:
    """Arrays as ``.xmd``/``.xta`` pairs in one host directory."""

    def __init__(self, root, **options) -> None:
        self.root = pathlib.Path(root)
        self.options = options      #: passed to every DRXFile it opens

    def exists(self, name: str) -> bool:
        return (self.root / (name + _XMD)).exists()

    def open(self, name: str) -> DRXFile:
        return DRXFile.open(self.root / name, "r+", **self.options)

    def create(self, name: str, bounds, chunk, **kwargs) -> DRXFile:
        return DRXFile.create(self.root / name, bounds, chunk,
                              **kwargs, **self.options)

    def names(self) -> list[str]:
        return [p.name[:-len(_XMD)] for p in self.root.glob("*" + _XMD)]

    def journal_store(self, name: str) -> ByteStore:
        path = self.root / (name + JOURNAL_SUFFIX)
        return PosixByteStore(path, "r+" if path.exists() else "x+")


class _PFSBackend:
    """Arrays as files of one shared ``ParallelFileSystem``."""

    def __init__(self, fs, **options) -> None:
        self.fs = fs
        self.options = options

    def exists(self, name: str) -> bool:
        return self.fs.exists(name + _XMD)

    def open(self, name: str) -> DRXFile:
        return DRXFile.open_pfs(self.fs, name, "r+", **self.options)

    def create(self, name: str, bounds, chunk, **kwargs) -> DRXFile:
        return DRXFile.create_pfs(self.fs, name, bounds, chunk,
                                  **kwargs, **self.options)

    def names(self) -> list[str]:
        return [n[:-len(_XMD)] for n in self.fs.listdir()
                if n.endswith(_XMD)]

    def journal_store(self, name: str) -> ByteStore:
        return PFSByteStore(self.fs.open_or_create(name + JOURNAL_SUFFIX))


class DRXServer:
    """A thread-per-connection array service over shared DRX state.

    Exactly one of ``root`` (a host directory of ``.xmd``/``.xta``
    pairs) or ``fs`` (a shared
    :class:`~repro.pfs.filesystem.ParallelFileSystem`) backs the
    arrays.  ``port=0`` binds an ephemeral port — read it back from
    :attr:`address` after :meth:`start`.
    """

    RUNNING, DRAINING, DEAD = "running", "draining", "dead"

    def __init__(self, root=None, fs=None, host: str = "127.0.0.1",
                 port: int = 0, max_inflight: int = 8,
                 max_inflight_per_client: int = 4,
                 max_queue: int = 16, max_frame: int = MAX_FRAME,
                 cache_pages: int = 64, drain_timeout: float = 10.0,
                 watchdog: Watchdog | None = None,
                 checkpoint_interval: float | None = None,
                 max_conn_inflight: int = 32) -> None:
        if (root is None) == (fs is None):
            raise ServeError("exactly one of root= or fs= must be given")
        self.root = root
        self.fs = fs
        self.host = host
        self._port = port
        self.max_frame = max_frame
        #: per-connection pipelined fan-out cap (reader-side
        #: backpressure past it); admission still bounds actual work
        self.max_conn_inflight = max(1, int(max_conn_inflight))
        self.cache_pages = cache_pages
        options = dict(cache_pages=cache_pages,
                       store_wrapper=CancelGateStore)
        self._backend = _PFSBackend(fs, **options) if fs is not None \
            else _RootBackend(root, **options)
        self.drain_timeout = drain_timeout
        self.checkpoint_interval = checkpoint_interval
        self._ckpt_handle = None
        self.checkpoints = 0
        self.qos = QoSRegistry()
        self.admission = Admission(self.qos, max_inflight,
                                   max_inflight_per_client, max_queue)
        self._watchdog = watchdog if watchdog is not None \
            else default_watchdog()
        self._arrays: dict[str, _ArrayEntry] = {}
        self._arrays_lock = threading.Lock()
        self._state = self.RUNNING
        self._state_lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._conn_socks: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        self._answering = 0     #: requests between dispatch and reply sent
        self._scopes: set[CancelScope] = set()
        self._scopes_lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "DRXServer":
        """Bind, listen, and start accepting in a background thread."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self._port))
        listener.listen(64)
        listener.settimeout(0.2)
        self._listener = listener
        self._port = listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="drx-serve-accept", daemon=True)
        self._accept_thread.start()
        self._schedule_checkpoint()
        return self

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self._port)

    @property
    def state(self) -> str:
        with self._state_lock:
            return self._state

    def install_signal_handlers(self) -> None:
        """SIGTERM / SIGINT → graceful drain (main thread only)."""
        import signal

        def on_signal(signum, frame):
            threading.Thread(target=self.shutdown,
                             kwargs={"drain": True},
                             name="drx-serve-drain", daemon=True).start()

        signal.signal(signal.SIGTERM, on_signal)
        signal.signal(signal.SIGINT, on_signal)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the daemon is dead; True if it is."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.state != self.DEAD:
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.02)
        return True

    def shutdown(self, drain: bool = True,
                 drain_timeout: float | None = None) -> None:
        """Stop the daemon.

        ``drain=True`` is the graceful path: stop accepting, refuse new
        admissions with ``RETRY_LATER``, let in-flight requests finish
        (or deadline out, bounded by ``drain_timeout``), fire the
        ``server.kill.daemon.drain.flush`` chaos site, then flush and
        close every array so acknowledged writes are durable.
        ``drain=False`` delegates to :meth:`kill`.
        """
        if not drain:
            self.kill()
            return
        with self._state_lock:
            if self._state != self.RUNNING:
                return
            self._state = self.DRAINING
        self.admission.start_draining()
        self._close_listener()
        budget = self.drain_timeout if drain_timeout is None \
            else drain_timeout
        if not self.admission.wait_idle(budget):
            # deadline-out the stragglers: cancel their scopes and give
            # them a moment to unwind through their checkpoints
            self._cancel_all_scopes("server draining")
            self.admission.wait_idle(1.0)
        # a request that just gave its admission slot back still has its
        # reply to send: let it out before the sockets close
        patience = time.monotonic() + 1.0
        while self._answering and time.monotonic() < patience:
            time.sleep(0.002)
        self._cancel_checkpoint()
        try:
            crash_point("server.kill.daemon.drain.flush")
        except CrashError:
            self.kill()
            return
        for entry in self._take_entries():
            entry.file.close()
            # everything journaled is now durable in the array —
            # leave a clean checkpoint carrying the dedup table
            entry.rotate_journal()
            entry.journal.close()
        with self._state_lock:
            self._state = self.DEAD
        self._close_connections()

    def kill(self) -> None:
        """Abrupt death: no flush, no goodbye.

        Scopes are cancelled (in-flight work aborts at its next
        checkpoint), sockets are torn down mid-frame, and every array
        is *abandoned* — dirty cached pages vanish exactly as they would
        in a process kill.  What this leaves on disk is whatever the
        store protocols had committed: the chaos suite restarts a fresh
        daemon on the same substrate and asserts recovery.
        """
        with self._state_lock:
            if self._state == self.DEAD:
                return
            self._state = self.DEAD
        self.admission.start_draining()
        self._cancel_checkpoint()
        self._cancel_all_scopes("server killed")
        self._close_listener()
        self._close_connections()
        for entry in self._take_entries():
            entry.file.abandon()
            # no rotate, no fsync: the journal keeps exactly what
            # sync() already made durable — recovery's input
            entry.journal.close()

    def _take_entries(self) -> list[_ArrayEntry]:
        """Empty the array table and return what it held: shutdown and
        kill then close (or abandon) each entry outside the lock."""
        with self._arrays_lock:
            entries = list(self._arrays.values())
            self._arrays.clear()
        return entries

    def _close_listener(self) -> None:
        listener, self._listener = self._listener, None
        # the shutdown ends the accept loop now, not at its next poll
        # timeout: a killed daemon's acceptor must not outlive it beside
        # its successor
        close_socket(listener)

    def _close_connections(self) -> None:
        with self._conn_lock:
            socks = list(self._conn_socks)
        for s in socks:
            close_socket(s)

    def _cancel_all_scopes(self, reason: str) -> None:
        with self._scopes_lock:
            scopes = list(self._scopes)
        for scope in scopes:
            scope.cancel(reason)

    # ------------------------------------------------------------------
    # journal checkpointing
    # ------------------------------------------------------------------
    def _schedule_checkpoint(self) -> None:
        if not self.checkpoint_interval:
            return
        if self.state != self.RUNNING:
            return

        def fire():
            # watchdog callbacks must stay brief: hand the flush work
            # to a throwaway thread, which reschedules when done
            threading.Thread(target=self._checkpoint_fired,
                             name="drx-serve-ckpt", daemon=True).start()

        self._ckpt_handle = self._watchdog.schedule(
            float(self.checkpoint_interval), fire)

    def _cancel_checkpoint(self) -> None:
        handle, self._ckpt_handle = self._ckpt_handle, None
        if handle is not None:
            self._watchdog.cancel(handle)

    def _checkpoint_fired(self) -> None:
        try:
            if self.state == self.RUNNING:
                self.checkpoint()
        except Exception:  # noqa: BLE001
            # shutdown/kill can close files under a mid-flight
            # checkpoint; the watchdog thread must survive that
            pass
        finally:
            if self.state == self.RUNNING:
                self._schedule_checkpoint()

    def checkpoint(self) -> dict:
        """Flush every open array and truncate its journal down to one
        CHECKPOINT record (carrying the dedup table forward).

        Runs under each array's exclusive lock, so no mutation is
        between its journal append and its apply while the journal
        rewrites.  Returns ``{name: journal bytes dropped}``.
        """
        dropped: dict[str, int] = {}
        with self._arrays_lock:
            entries = list(self._arrays.values())
        for entry in entries:
            if self.state not in (self.RUNNING, self.DRAINING):
                break
            entry.rw.acquire_exclusive()
            try:
                before = entry.journal.size
                try:
                    entry.file.flush()
                    entry.rotate_journal()
                except (DRXError, OSError, ValueError):
                    # a watchdog checkpoint racing shutdown/kill finds
                    # the file closed (or abandoned) under it — skip
                    # the entry; durability is the closer's problem now
                    continue
                dropped[entry.name] = before - entry.journal.size
            finally:
                entry.rw.release_exclusive()
        self.checkpoints += 1
        return dropped

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while self.state == self.RUNNING:
            listener = self._listener
            if listener is None:
                return
            try:
                sock, _addr = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with self._conn_lock:
                if self.state != self.RUNNING:
                    sock.close()
                    return
                self._conn_socks.add(sock)
                t = threading.Thread(target=self._serve_connection,
                                     args=(sock,),
                                     name="drx-serve-conn", daemon=True)
            t.start()

    def _serve_connection(self, sock: socket.socket) -> None:
        send_lock = threading.Lock()    # interleaved replies stay framed
        workers = _ConnWorkers(self.max_conn_inflight, "drx-serve-op")
        try:
            # a reply leaves the moment it is written: under Nagle a
            # frame's tail would wait for the client's delayed ACK
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while self.state != self.DEAD:
                kind, header, payload = recv_frame(sock, self.max_frame)
                # lost-request window: frame received (CRC-verified),
                # nothing dispatched — a kill here must be invisible
                # after the client re-issues under the same key
                crash_point("serve.net.recv.request")
                if kind != REQ:
                    raise ProtocolError(f"expected REQ, got kind {kind}")
                rid = header.get("rid")
                if type(rid) is not int or rid < 0:
                    # nothing to echo and nothing dispatched; the
                    # stream itself is intact, so the connection lives
                    with send_lock:
                        send_frame(sock, ERR, encode_error(ServeError(
                            "a REQ needs a non-negative integer rid, "
                            f"got {rid!r}")))
                    continue
                answer = functools.partial(
                    self._answer, sock, send_lock, header, payload, rid)
                if faultsites.any_active():
                    # the deterministic path while chaos is armed: one
                    # request at a time, in arrival order, so kill-site
                    # schedules replay exactly as scripted
                    answer()
                    continue
                try:
                    workers.submit(answer)      # replies leave out of order
                except RuntimeError:
                    answer()    # no worker could ever run it: inline
        except (ProtocolError, OSError):
            pass        # client went away, garbage or a torn socket
        except CrashError:
            self.kill()               # chaos site fired: die abruptly
        finally:
            workers.close()
            with self._conn_lock:
                self._conn_socks.discard(sock)
            try:
                sock.close()
            except OSError:
                pass

    def _answer(self, sock: socket.socket, send_lock: threading.Lock,
                header: dict, payload: bytes, rid: int) -> None:
        """Dispatch one request and send its reply, echoing ``rid``.
        The request gets a *private* owner token: its own locks release
        in the handler's ``finally``; the backstop here reclaims
        whatever a torn-down thread still held, without touching the
        locks of sibling requests on the same connection."""
        owner = object()
        with self._conn_lock:
            self._answering += 1
        try:
            handle = self._handle_batch if header.get("verb") == "batch" \
                else self._handle_request
            kind, hdr, out = handle(header, payload, owner)
            # lost-ack window: mutation applied and journal-synced, OK
            # not yet on the wire — the retry must be answered from the
            # dedup table, never re-applied
            crash_point("serve.net.send.reply")
            try:
                with send_lock:
                    send_frame(sock, kind, dict(hdr, rid=rid), out)
            except (ProtocolError, OSError):
                # connection died under a completed request: the op is
                # applied (and journaled) — the client's retry will be
                # answered from the dedup table
                pass
        except CrashError:
            self.kill()
        finally:
            self._release_owner(owner)
            with self._conn_lock:
                self._answering -= 1

    def _handle_batch(self, header: dict, payload: bytes,
                      owner: object) -> tuple[int, dict, bytes]:
        """Execute a batch frame: each op in list order, each passing
        through admission, QoS, deadlines, and locking as if it had
        arrived alone — except that the frame's ``timeout`` is one
        shared budget, not a per-op allowance.  Per-op failures are
        carried in the ``results`` list — only a malformed batch
        envelope fails the frame."""
        client = str(header.get("client", "anon"))
        ops = header.get("ops")
        if not isinstance(ops, list) or not ops:
            return (ERR, encode_error(
                ServeError("batch needs a non-empty ops list")), b"")
        if len(ops) > MAX_BATCH_OPS:
            return (ERR, encode_error(ServeError(
                f"batch of {len(ops)} ops exceeds the "
                f"{MAX_BATCH_OPS}-op cap")), b"")
        try:
            pieces = split_payload(ops, payload)
        except ProtocolError as exc:
            return (ERR, encode_error(exc), b"")
        self.qos.client(client).bump(batches=1)
        # ONE deadline for the whole frame: every sub-op is dispatched
        # with the batch's *remaining* budget, so N serially-executed
        # ops share one timeout instead of each restarting it (an op
        # that starts after expiry deadline-misses immediately through
        # the normal path, with its QoS counters intact)
        deadline = Deadline(float(header["timeout"])) \
            if header.get("timeout") is not None else None
        results: list[dict] = []
        out: list[bytes] = []
        for op, piece in zip(ops, pieces):
            oh = dict(op)
            oh.pop("nbytes", None)
            oh.setdefault("client", client)
            if deadline is not None:
                budget = deadline.remaining()
                own = oh.get("timeout")
                oh["timeout"] = budget if own is None \
                    else min(float(own), budget)
            if "attempt" in header:
                oh.setdefault("attempt", header["attempt"])
            verb = oh.get("verb")
            if not isinstance(verb, str) or verb not in BATCHABLE_VERBS:
                k, h, p = (ERR, encode_error(ServeError(
                    f"verb {verb!r} not allowed in a batch")), b"")
            else:
                k, h, p = self._handle_request(oh, bytes(piece), owner)
            results.append({"kind": k, "header": h, "nbytes": len(p)})
            out.append(p)
        return (OK, {"results": results}, b"".join(out))

    def _release_owner(self, owner: object) -> None:
        """Abrupt-disconnect cleanup: drop any chunk locks *and* array
        RW holds the connection still owns (normal paths release via
        finally; this is the backstop for a thread torn down between
        acquiring the array lock and its chunk locks)."""
        with self._arrays_lock:
            entries = list(self._arrays.values())
        for entry in entries:
            entry.chunks.release_owner(owner)
            entry.rw.release_owner(owner)

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    def _handle_request(self, header: dict, payload: bytes,
                        owner: object) -> tuple[int, dict, bytes]:
        verb = header.get("verb")
        client = str(header.get("client", "anon"))
        spec = VERB_TABLE.get(verb) if isinstance(verb, str) else None
        handler = getattr(self, f"_op_{verb}", None) if spec else None
        if handler is None:
            return (ERR, encode_error(
                ServeError(f"unknown verb {verb!r}")), b"")
        if spec.control:
            try:
                return (OK, *handler(header, payload, owner, None))
            except Exception as exc:   # noqa: BLE001 - transported
                return (ERR, encode_error(exc), b"")

        qos = self.qos.client(client)
        qos.bump(requests=1)
        if int(header.get("attempt", 0)) > 0:
            qos.bump(retries=1)
        timeout = header.get("timeout")
        scope = CancelScope(Deadline(timeout))
        wd_handle = None
        if timeout is not None:
            wd_handle = self._watchdog.schedule(
                float(timeout),
                lambda: scope.cancel("deadline exceeded"))
        with self._scopes_lock:
            self._scopes.add(scope)
        admitted = False
        try:
            t_adm = time.monotonic()
            try:
                wait = self.admission.admit(client, scope)
            except RetryLater as exc:
                qos.bump(retry_later=1)
                return (RETRY_LATER, {"reason": exc.reason}, b"")
            except DeadlineError as exc:
                # the whole budget was spent parked in the queue —
                # charge it so the operator sees *where* time went
                qos.bump(deadline_misses=1,
                         queue_wait=time.monotonic() - t_adm)
                return (DEADLINE, {"message": str(exc)}, b"")
            admitted = True
            qos.bump(queue_wait=wait)
            qos.enter_inflight()
            try:
                crash_point("server.kill.daemon.admitted")
                # the handler runs on the thread that dispatched it
                _scope_local.value = scope
                scope.check(f"{verb} dispatch")
                if spec.keyed:
                    handler = functools.partial(self._exactly_once, handler)
                hdr, pl = handler(header, payload, owner, scope)
                qos.bump(ok=1,
                         bytes_read=len(pl) if verb == "read" else 0,
                         bytes_written=(len(payload)
                                        if verb == "write" else 0))
                return (OK, hdr, pl)
            except DeadlineError as exc:
                qos.bump(deadline_misses=1)
                return (DEADLINE, {"message": str(exc)}, b"")
            except CrashError:
                raise
            except Exception as exc:   # noqa: BLE001 - transported
                qos.bump(errors=1)
                return (ERR, encode_error(exc), b"")
        finally:
            _scope_local.value = None
            if admitted:
                qos.exit_inflight()
                self.admission.release(client)
            with self._scopes_lock:
                self._scopes.discard(scope)
            if wd_handle is not None:
                self._watchdog.cancel(wd_handle)

    @staticmethod
    def _simulate_delay(header: dict, scope: CancelScope) -> None:
        """Test hook: a ``_delay`` header simulates slow server-side
        work *inside the request's locked region*, sliced so deadline
        cancellation lands mid-way.  Read/write run it while holding
        their chunk locks — how the suite makes lock overlap, admission
        saturation, and mid-mutation deadlines observable."""
        delay = float(header.get("_delay", 0.0))
        end = time.monotonic() + delay
        while time.monotonic() < end:
            scope.check("simulated computation")
            time.sleep(min(_DELAY_SLICE, max(0.0, end - time.monotonic())))

    # ------------------------------------------------------------------
    # control-plane verbs (no admission slot)
    # ------------------------------------------------------------------
    def _op_ping(self, header, payload, owner, scope):
        return ({"pong": True, "state": self.state,
                 "echo": header.get("echo")}, b"")

    def _op_stats(self, header, payload, owner, scope):
        return (self.stats_snapshot(), b"")

    def _op_shutdown(self, header, payload, owner, scope):
        # acknowledge first, then drain in the background so the
        # requesting client gets its reply before the socket dies
        drain = bool(header.get("drain", True))
        threading.Thread(target=self.shutdown, kwargs={"drain": drain},
                         name="drx-serve-shutdown", daemon=True).start()
        return ({"stopping": True, "drain": drain}, b"")

    def stats_snapshot(self) -> dict:
        """JSON-able daemon-wide statistics (the ``stats`` verb)."""
        with self._arrays_lock:
            names = sorted(self._arrays)
            locks_held = sum(e.chunks.held()
                             for e in self._arrays.values())
            entries = list(self._arrays.values())
        journal = {e.name: {
            "size": e.journal.size,
            "stats": e.journal.stats.snapshot(),
            "dedup_entries": len(e.dedup),
            "dedup_hits": e.dedup.hits,
            "recovery": e.recovery,
        } for e in entries}
        snap = {
            "state": self.state,
            "address": list(self.address),
            "arrays": names,
            "inflight": self.admission.inflight,
            "queued": self.admission.queued,
            "chunk_locks_held": locks_held,
            "limits": {
                "max_inflight": self.admission.max_inflight,
                "max_inflight_per_client": self.admission.max_per_client,
                "max_queue": self.admission.max_queue,
            },
            "journal": journal,
            "checkpoints": self.checkpoints,
            "qos": self.qos.snapshot(),
            "watchdog": {
                "scheduled": self._watchdog.stats.scheduled,
                "fired": self._watchdog.stats.fired,
                "cancelled": self._watchdog.stats.cancelled,
            },
        }
        if self.fs is not None:
            snap["pfs"] = self.fs.stats_summary()
        return snap

    # ------------------------------------------------------------------
    # array table
    # ------------------------------------------------------------------
    def _check_name(self, name) -> str:
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ServeError(f"invalid array name {name!r}")
        return name

    def _check_new(self, name: str, exists_ok: bool = False) -> bool:
        """The one existence check of ``create`` and ``snapshot``:
        True when ``name`` is free to create, False when it is open or
        in the backing store and ``exists_ok``.  Otherwise it refuses
        up front, fatally — the PFS backend's own refusal is a
        ``PFSError``, which the client would retry as transient."""
        with self._arrays_lock:
            exists = name in self._arrays
        if not exists and not self._backend.exists(name):
            return True
        if exists_ok:
            return False
        raise DRXFileExistsError(f"array {name!r} already exists")

    def _entry(self, name: str) -> _ArrayEntry:
        """The open-array entry for ``name``, opening lazily (which runs
        crash recovery on the array's journal first)."""
        name = self._check_name(name)
        with self._arrays_lock:
            entry = self._arrays.get(name)
            if entry is not None:
                return entry
            if not self._backend.exists(name):
                # a PFSError would read as transient to the client; a
                # missing array is permanent — fail fatally
                raise ServeError(f"no array named {name!r}",
                                 kind="DRXFileNotFoundError")
            entry = _ArrayEntry(name, self._backend.open(name),
                                self._backend.journal_store(name))
            self._arrays[name] = entry
            return entry

    def recover_all(self) -> dict:
        """Eagerly open — and thereby crash-recover — every array in
        the backing store (``drx-serve --recover``).  Returns
        ``{name: recovery summary}``."""
        return {name: dict(self._entry(name).recovery)
                for name in sorted(self._backend.names())}

    def _info(self, entry: _ArrayEntry) -> dict:
        f = entry.file
        return {
            "name": entry.name,
            "shape": list(f.shape),
            "chunk_shape": list(f.chunk_shape),
            "dtype": f.dtype.str,
            "num_chunks": f.num_chunks,
            "codec": f.codec,
            "checksums": f.checksums_enabled,
            "commit_epoch": f.commit_epoch,
        }

    # ------------------------------------------------------------------
    # data-plane verbs
    # ------------------------------------------------------------------
    def _op_open(self, header, payload, owner, scope):
        return (self._info(self._entry(header["name"])), b"")

    def _op_create(self, header, payload, owner, scope):
        name = self._check_name(header["name"])
        if not self._check_new(name, bool(header.get("exists_ok"))):
            return (self._info(self._entry(name)), b"")
        bounds = [int(b) for b in header["bounds"]]
        chunk = [int(c) for c in header["chunk"]]
        entry = _ArrayEntry(name, self._backend.create(
            name, bounds, chunk, dtype=header.get("dtype", "<f8"),
            checksums=bool(header.get("checksums", False)),
            codec=header.get("codec", "none")),
            self._backend.journal_store(name))
        with self._arrays_lock:
            self._arrays[name] = entry
        return (self._info(entry), b"")

    @staticmethod
    def _idem_key(header: dict) -> tuple[str, str, int]:
        """The request's ``(client, sid, seq)`` idempotency key.  A
        keyed verb without one is refused with a fatal error."""
        missing = [f for f in ("sid", "seq") if f not in header]
        if missing:
            raise ServeError(
                f"{header.get('verb')} needs an idempotency key: "
                f"missing {'/'.join(missing)}")
        return (str(header.get("client", "anon")),
                str(header["sid"]), int(header["seq"]))

    def _exactly_once(self, handler, header, payload, owner, scope):
        """Run a keyed verb's handler under its idempotency key: a
        replayed retry is answered from the dedup table (counted in
        ``dedup_hits``) instead of re-applied, and a request without a
        key is refused before anything is journaled or applied.  The
        result is cached when the handler returns, so a keyed handler
        must return only after its COMMIT record is synced — a replay
        must never be acked from cache before that."""
        key = self._idem_key(header)
        entry = self._entry(header["name"])
        cached = entry.dedup.claim(key, scope)
        if cached is not None:
            self.qos.client(key[0]).bump(dedup_hits=1)
            return (cached, b"")
        try:
            result, out = handler(header, payload, owner, scope)
        except BaseException:
            entry.dedup.abandon(key)
            raise
        entry.dedup.fulfill(key, result)
        return (result, out)

    def _op_read(self, header, payload, owner, scope):
        entry = self._entry(header["name"])
        lo = [int(x) for x in header["lo"]]
        hi = [int(x) for x in header["hi"]]
        entry.rw.acquire_shared(scope, owner)
        try:
            taken = entry.chunks.acquire(
                _box_addresses(entry.file, lo, hi), owner, scope)
            try:
                data = entry.file.read(lo, hi)
                self._simulate_delay(header, scope)
            finally:
                entry.chunks.release(taken)
        finally:
            entry.rw.release_shared(owner)
        # zero-copy reply: ``DRXFile.read`` fills a fresh array per call
        # that no other request can see, so its bytes go out as they are
        return ({"shape": list(data.shape), "dtype": data.dtype.str},
                memoryview(data).cast("B"))

    def _op_write(self, header, payload, owner, scope):
        entry = self._entry(header["name"])
        lo = [int(x) for x in header["lo"]]
        shape = [int(x) for x in header["shape"]]
        values = np.frombuffer(payload, dtype=header["dtype"])
        values = values.reshape(shape)
        hi = [l + s for l, s in zip(lo, shape)]
        key = self._idem_key(header)
        entry.rw.acquire_shared(scope, owner)
        try:
            taken = entry.chunks.acquire(
                _box_addresses(entry.file, lo, hi), owner, scope)
            try:
                crash_point("server.kill.daemon.locked")
                # redo logging: intent + payload hit the journal
                # before the Mpool sees the mutation
                txn = entry.journal.begin(
                    "write", key,
                    {"lo": lo, "shape": shape,
                     "dtype": header["dtype"]}, payload)
                crash_point("server.kill.daemon.journaled")
                # pre-image for rollback: a deadline that fires
                # before the mutation is acknowledged must not leave
                # a half-applied (or applied-but-unacked) box behind
                pre = entry.file.read(lo, hi)
                try:
                    entry.file.write(lo, values)
                    self._simulate_delay(header, scope)
                except DeadlineError:
                    # no COMMIT record: recovery discards the txn
                    self._rollback(entry, lo, pre)
                    raise
                seq = entry.next_seq()
                result = {"seq": seq, "nbytes": len(payload)}
                lsn = entry.journal.commit(txn, key, result)
                crash_point("server.kill.daemon.applied")
            finally:
                entry.chunks.release(taken)
        finally:
            entry.rw.release_shared(owner)
        # group commit *after* the locks drop, *before* OK
        entry.journal.sync(lsn)
        return (result, b"")

    @staticmethod
    def _rollback(entry: _ArrayEntry, lo, pre) -> None:
        """Restore a mutation's pre-image, immune to the (already
        expired) request scope."""
        saved = current_scope()
        _scope_local.value = None
        try:
            entry.file.write(lo, pre)
        finally:
            _scope_local.value = saved

    def _op_extend(self, header, payload, owner, scope):
        entry = self._entry(header["name"])
        key = self._idem_key(header)
        entry.rw.acquire_exclusive(scope, owner)
        try:
            crash_point("server.kill.daemon.locked")
            # validate the target fully *before* journaling: once
            # the COMMIT is durable, recovery will replay it, so a
            # request that cannot apply must be rejected while the
            # journal is still untouched
            if "to" in header:
                # absolute-shape form: idempotent as given
                to = [int(x) for x in header["to"]]
                if len(to) != entry.file.rank:
                    raise ServeError(
                        f"extend to= rank {len(to)} != "
                        f"{entry.file.rank}")
                if any(t < 0 for t in to):
                    raise ServeError(
                        f"extend to= has negative bound: {to}")
            else:
                # relative form: resolved to an absolute target
                # under the exclusive lock, so the journaled intent
                # — and any retry answered from the dedup table —
                # is idempotent even though dim/by is not
                dim = int(header["dim"])
                if not 0 <= dim < entry.file.rank:
                    raise ServeError(
                        f"extend dim {dim} out of range for rank "
                        f"{entry.file.rank}")
                to = list(entry.file.shape)
                to[dim] += int(header["by"])
            seq = entry.next_seq()
            result = {"seq": seq,
                      "shape": [max(s, t) for s, t
                                in zip(entry.file.shape, to)]}
            # intent logging, not redo: extend's apply is itself an
            # immediate durable metadata commit, so the journal COMMIT
            # must be durable *first* — a crash in between replays the
            # (idempotent) absolute target and answers the retry from
            # the recovered dedup table, never re-extends
            txn = entry.journal.begin("extend", key, {"to": to})
            entry.journal.sync(entry.journal.commit(txn, key, result))
            crash_point("server.kill.daemon.journaled")
            try:
                for d, target in enumerate(to):
                    by = target - entry.file.shape[d]
                    if by > 0:
                        entry.file.extend(d, by)
            except Exception:
                # the COMMIT is already durable but the client will
                # see an error: journal a durable ABORT so recovery
                # neither replays the failed extend nor answers a
                # post-restart retry "ok" from the dedup cache (the
                # journal store is raw — not deadline-gated — so
                # this works even when a fired scope killed the
                # apply)
                try:
                    entry.journal.sync(entry.journal.abort(txn))
                except Exception:  # noqa: BLE001
                    pass  # journal torn down by a racing kill
                raise
            crash_point("server.kill.daemon.applied")
        finally:
            entry.rw.release_exclusive()
        return (result, b"")

    def _op_flush(self, header, payload, owner, scope):
        entry = self._entry(header["name"])
        entry.rw.acquire_exclusive(scope, owner)
        try:
            entry.file.flush()
            # the array is durable: truncate the journal to a clean
            # checkpoint (carrying the dedup table forward)
            entry.rotate_journal()
        finally:
            entry.rw.release_exclusive()
        return ({"commit_epoch": entry.file.commit_epoch}, b"")

    def _op_snapshot(self, header, payload, owner, scope):
        entry = self._entry(header["name"])
        dest = self._check_name(header["dest"])
        self._check_new(dest)
        entry.rw.acquire_exclusive(scope)
        try:
            src = entry.file
            src.flush()
            copy = self._backend.create(
                dest, src.shape, src.chunk_shape, dtype=src.dtype,
                checksums=src.checksums_enabled, codec=src.codec)
            try:
                copy.write([0] * src.rank, src.read_all())
            finally:
                copy.close()
        finally:
            entry.rw.release_exclusive()
        return ({"dest": dest, "shape": list(entry.file.shape)}, b"")

    def _op_scrub(self, header, payload, owner, scope):
        entry = self._entry(header["name"])
        entry.rw.acquire_exclusive(scope)
        try:
            report = entry.file.scrub()
        finally:
            entry.rw.release_exclusive()
        return ({"total_chunks": report.total_chunks,
                 "checked": report.checked,
                 "corrupt": list(report.corrupt),
                 "unverified": report.unverified,
                 "ok": report.ok}, b"")
