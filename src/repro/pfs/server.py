"""One simulated I/O server of the parallel file system.

A server owns a set of *objects* (one per logical file — PVFS2 likewise
stores one datafile per I/O server per file).  It services ordered
batches of read/write requests against an object, counts requests,
bytes and seeks, and accumulates simulated busy time from the cost
model.  Storage is a plain ``bytearray`` per object; reads past the
written end return zeros (sparse-file semantics, which the append-only
DRX data file relies on when a segment is materialized lazily).

Failure model.  A server can be *killed* (``alive = False``): every
request then raises :class:`~repro.core.errors.ServerDownError` until
``revive()``.  A revived server is *stale* — its bytes may predate
writes it missed — and serves no reads until an online rebuild
re-replicates its objects and calls ``mark_rebuilt()``.  Writes,
however, are *written through* to a stale server: replicated writers
keep fanning out to it so a byte written while the rebuild is in
flight can never be lost (the rebuild re-copies everything an absent
server missed, and write-through covers everything newer).
Independently, a lightweight failure detector
counts consecutive errored requests (injected faults included); at
``suspect_threshold`` the server is marked *suspect*, which replicated
readers use as an advisory hint to prefer another replica.  One success
clears the suspicion.

Every externally reachable operation — object lifecycle and request
batches alike — funnels through the single checked entry point
``_touch()``, so liveness and the optional fault plan are consulted
uniformly (earlier revisions only checked the batch paths, letting
scalar byte-store traffic bypass fault injection).

Concurrency.  A server is shared by every file striped over it, and
threads of one process (SPMD ranks, serve workers) reach it at once,
so every operation runs under a per-server reentrant lock: one server
services one batch at a time (it models a single disk).
"""

from __future__ import annotations

import threading

from ..core.errors import PFSError, ServerDownError
from .costmodel import CostModel, DEFAULT_COST_MODEL
from .stats import IOStats

__all__ = ["IOServer"]


class IOServer:
    """A single I/O server: object store + counters + time model."""

    #: consecutive errored requests before the server is marked suspect
    suspect_threshold = 3

    def __init__(self, server_id: int,
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 fault_plan=None) -> None:
        self.server_id = server_id
        self.cost_model = cost_model
        self.stats = IOStats()
        #: one batch at a time per server (a server models one disk)
        self._lock = threading.RLock()
        #: optional fault source (duck-typed so pfs stays import-free of
        #: the drx layer): any object with ``check(op)`` that raises when
        #: a fault is due — e.g. ``repro.drx.resilience.FaultPlan``.
        self.fault_plan = fault_plan
        #: False once killed; every request then raises ServerDownError
        self.alive = True
        #: True after revive until rebuild: bytes may miss writes, so the
        #: server serves no reads until re-replicated (writes are still
        #: accepted — the write-through that makes online rebuild safe)
        self.stale = False
        #: advisory failure-detector verdict (replicated readers prefer
        #: another replica; never consulted on the unreplicated path)
        self.suspect = False
        self._consecutive_errors = 0
        self._objects: dict[str, bytearray] = {}
        #: last byte position + 1 touched per object, for seek accounting
        self._head: dict[str, int] = {}

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------
    def kill(self, wipe: bool = False) -> None:
        """Take the server down; ``wipe`` additionally loses its disks
        (models a replacement server rather than a reboot)."""
        with self._lock:
            self.alive = False
            if wipe:
                self._objects.clear()
                self._head.clear()

    def revive(self) -> None:
        """Bring a killed server back, *stale*: it serves no reads (but
        accepts write-through) until an online rebuild re-replicates
        its objects."""
        with self._lock:
            if self.alive:
                return
            self.alive = True
            self.stale = True
            self.suspect = False
            self._consecutive_errors = 0

    def mark_rebuilt(self) -> None:
        """Clear the stale flag once rebuild restored the objects."""
        with self._lock:
            self.stale = False
            self.suspect = False
            self._consecutive_errors = 0

    @property
    def available(self) -> bool:
        """Whether the server may serve *reads* (alive and not stale).
        Writes only require ``alive`` — see write-through above."""
        return self.alive and not self.stale

    # ------------------------------------------------------------------
    # checked entry point
    # ------------------------------------------------------------------
    def _touch(self, op: str) -> None:
        """The single gate every operation passes: liveness, then the
        fault plan.  Injected faults feed the failure detector."""
        if not self.alive:
            raise ServerDownError(
                f"server {self.server_id} is down (op {op})")
        if self.fault_plan is not None:
            try:
                self.fault_plan.check(f"server.{op}")
            except ServerDownError:
                raise
            except PFSError:
                self._consecutive_errors += 1
                if self._consecutive_errors >= self.suspect_threshold:
                    self.suspect = True
                raise
        self._consecutive_errors = 0
        self.suspect = False

    # ------------------------------------------------------------------
    # object lifecycle
    # ------------------------------------------------------------------
    def create_object(self, name: str) -> None:
        with self._lock:
            self._touch("create")
            if name in self._objects:
                raise PFSError(
                    f"server {self.server_id}: object {name!r} exists")
            self._objects[name] = bytearray()
            self._head[name] = 0

    def has_object(self, name: str) -> bool:
        with self._lock:
            return name in self._objects

    def delete_object(self, name: str) -> None:
        with self._lock:
            self._touch("delete")
            self._objects.pop(name, None)
            self._head.pop(name, None)

    # ------------------------------------------------------------------
    # request batches
    # ------------------------------------------------------------------
    def read_batch(self, name: str, requests: list) -> float:
        """Service an ordered batch of ``(offset, length, sinks)`` reads.

        Each request is accounted as one ``length``-byte read, whatever
        its sinks.  ``sinks`` are the ``(position, view)`` destinations
        the request fills: ``view`` receives the object bytes from
        ``offset + position`` on, straight from the store, and reads as
        zeros past the written end.  Bytes of a request no sink covers
        are accounted and dropped (the holes a sieved read reads
        through).  Returns the simulated service time of the batch.
        """
        with self._lock:
            self._touch("read")
            store = self._require(name)
            elapsed = 0.0
            head = self._head[name]
            written = len(store)
            # released on exit, so the object can grow again
            with memoryview(store) as view:
                for off, length, sinks in requests:
                    seek = off != head
                    for at, dest in sinks:
                        lo = off + at
                        got = max(0, min(len(dest), written - lo))
                        dest[:got] = view[lo:lo + got]
                        if got < len(dest):
                            _zero(dest, got)
                    elapsed += self.cost_model.request_time(length, seek)
                    self.stats.read_requests += 1
                    self.stats.bytes_read += length
                    if seek:
                        self.stats.seeks += 1
                    head = off + length
            self._head[name] = head
            self.stats.busy_time += elapsed
            return elapsed

    def write_batch(self, name: str,
                    requests: list[tuple[int, bytes]]) -> float:
        """Service an ordered batch of ``(offset, data)`` writes."""
        with self._lock:
            self._touch("write")
            store = self._require(name)
            elapsed = 0.0
            head = self._head[name]
            for off, data in requests:
                length = len(data)
                seek = off != head
                end = off + length
                _put(store, off, data)
                elapsed += self.cost_model.request_time(length, seek)
                self.stats.write_requests += 1
                self.stats.bytes_written += length
                if seek:
                    self.stats.seeks += 1
                head = end
            self._head[name] = head
            self.stats.busy_time += elapsed
            return elapsed

    # ------------------------------------------------------------------
    # out-of-band hooks (verification / chaos tests only)
    # ------------------------------------------------------------------
    def peek(self, name: str, offset: int, length: int) -> bytes:
        """Read object bytes without stats, cost or fault accounting —
        the replica-verification hook.  Still refuses on a dead server
        (there is nothing trustworthy to verify)."""
        with self._lock:
            if not self.alive:
                raise ServerDownError(
                    f"server {self.server_id} is down (op peek)")
            store = self._objects.get(name, b"")
            end = offset + length
            avail = bytes(store[offset:min(end, len(store))])
            return avail + b"\x00" * (length - len(avail))

    def patch(self, name: str, offset: int, data: bytes) -> None:
        """Overwrite object bytes out of band — no stats, no cost, no
        fault plan.  The write-side twin of :meth:`peek`: replica
        arbitration heals a diverging copy through it so a logical
        *read* never perturbs write counters or injected-fault
        schedules.  Raises on a missing object (callers pick which
        copies to touch); stale servers are patchable (a later rebuild
        overwrites them wholesale anyway)."""
        with self._lock:
            store = self._objects.get(name)
            if store is None:
                raise PFSError(
                    f"server {self.server_id}: no object {name!r}")
            _put(store, offset, data)

    def corrupt(self, name: str, offset: int, data: bytes) -> None:
        """Silently overwrite object bytes (torn-write simulation for
        CRC-arbitration tests) — :meth:`patch` under its chaos-test
        name."""
        self.patch(name, offset, data)

    # ------------------------------------------------------------------
    def _require(self, name: str) -> bytearray:
        try:
            return self._objects[name]
        except KeyError:
            raise PFSError(
                f"server {self.server_id}: no object {name!r}"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("up" if self.available else
                 "stale" if self.alive else "down")
        return (f"IOServer(id={self.server_id}, {state}, "
                f"objects={len(self._objects)}, {self.stats})")


#: the zeros a read past the written end is filled from
_ZEROS = memoryview(bytes(1 << 16))


def _zero(dest: memoryview, start: int) -> None:
    """Zero ``dest[start:]``."""
    end = len(dest)
    while start < end:
        step = min(end - start, len(_ZEROS))
        dest[start:start + step] = _ZEROS[:step]
        start += step


def _put(store: bytearray, off: int, data) -> None:
    """Store ``data`` at ``off``: zeros fill a gap past the end, and
    bytes past the end are appended by the slice assignment itself."""
    if off > len(store):
        store.extend(bytes(off - len(store)))
    store[off:off + len(data)] = data
