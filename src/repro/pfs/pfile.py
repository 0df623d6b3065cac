"""A logical file striped over the I/O servers.

:class:`PFSFile` presents the byte-stream abstraction the MPI-IO layer
needs — vectored reads and writes of byte extents, plus the atomic
read-modify-write data sieving needs — on top of the striped server
objects.  Aggregating the extents of many processes before they reach
this file is the business of :mod:`repro.mpi.collective`.

When the layout is a :class:`~repro.pfs.replication.ReplicaLayout` with
``replication > 1`` the file becomes server-failure tolerant:

* writes fan out to every replica copy — *through* to stale servers,
  skipping only dead ones (and wiped ones whose objects a rebuild has
  yet to recreate), with the redundancy debt recorded in
  :class:`~repro.pfs.stats.ReplicaStats`,
* reads prefer the primary copy but *fail over* per stripe to the next
  live replica when a server is down, stale, suspect, or errors
  mid-call,
* an online :meth:`rebuild` re-replicates a revived or replacement
  server's objects in coalesced batches, holding the file lock only per
  batch so reads and writes interleave freely — safe because concurrent
  writes reach the stale target directly (write-through) while the
  rebuild replays everything older from a partner copy.

With ``replication == 1`` every operation takes the exact historical
code path — identical bytes, identical stats — so the default
configuration pays nothing for the failure tier.

Two notions of time coexist and must not be conflated:

``io_time`` (and every per-call return value)
    *Simulated* time from the analytic cost model — the elapsed time of
    the slowest server touched, as if the per-server batches ran in
    parallel on real hardware.  It is deterministic and independent of
    how the Python process actually executes the batches.
``wall_time``
    *Measured* wall-clock seconds this process spent inside ``readv`` /
    ``writev`` (the aggregators of a collective included).  With
    an :class:`~repro.core.executor.IOExecutor` attached, per-server
    batches are dispatched concurrently and ``wall_time`` genuinely
    shrinks toward the max-server shape ``io_time`` always assumed;
    serially it is the sum-over-servers.  Benchmarks report both so the
    overlap actually achieved is visible.

When an executor is attached (the default — sized by
``DRX_EXECUTOR_THREADS``), multi-server batches are dispatched
concurrently and their results applied in deterministic server order;
the serial loops are kept verbatim and remain the only path whenever a
fault plan is armed (scripted fault schedules are op-count ordered) or
the executor is disabled.
"""

from __future__ import annotations

import threading
import time

from ..core import faultsites
from ..core.errors import PFSError, ServerDownError
from ..core.executor import IOExecutor, resolve_executor
from ..core.faultsites import crash_point
from .replication import ReplicaLayout, replica_object_name
from .server import IOServer
from .stats import CollectiveStats, ReplicaStats
from .striping import Extent, StripeLayout

__all__ = ["PFSFile"]

#: default coalesced-copy batch for online rebuild (bytes)
REBUILD_BATCH = 1 << 20


class PFSFile:
    """One striped logical file (see module docstring)."""

    def __init__(self, name: str, servers: list[IOServer],
                 layout: StripeLayout,
                 executor: "IOExecutor | None | str" = "auto") -> None:
        if layout.nservers != len(servers):
            raise PFSError(
                f"layout expects {layout.nservers} servers, got {len(servers)}"
            )
        self.name = name
        self.servers = servers
        self.layout = layout
        self.replication = getattr(layout, "replication", 1)
        self.rstats = ReplicaStats()
        #: counters of the collective-I/O engine (repro.mpi.collective);
        #: shared by every rank touching this file, updated under
        #: ``cstats_lock``
        self.cstats = CollectiveStats()
        self.cstats_lock = threading.Lock()
        self._size = 0
        self._lock = threading.RLock()
        #: cumulative *simulated* elapsed time (max-over-servers per call)
        self.io_time = 0.0
        #: cumulative *measured* wall-clock seconds spent in readv/writev
        self.wall_time = 0.0
        #: per-server dispatch pool (None = serial); ``"auto"`` resolves
        #: the process-wide ``pfs``-tier executor from the environment
        self.executor = resolve_executor(executor, tier="pfs")
        for copy in range(self.replication):
            obj = replica_object_name(name, copy)
            for s in servers:
                try:
                    if not s.has_object(obj):
                        s.create_object(obj)
                except ServerDownError:
                    # a dead server at creation time gets its objects
                    # when it is rebuilt
                    continue

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Logical file size in bytes (highest byte written + 1)."""
        return self._size

    def set_size(self, size: int) -> None:
        """Preallocate / declare the logical size (MPI_File_set_size)."""
        if size < 0:
            raise PFSError(f"negative size {size}")
        with self._lock:
            self._size = max(self._size, size) if size >= self._size else size

    # ------------------------------------------------------------------
    # vectored independent I/O
    # ------------------------------------------------------------------
    def readv(self, extents: list[Extent]) -> tuple[bytes, float]:
        """Read the given byte extents, concatenated in request order.

        Holes (extents past EOF) read as zeros.  Replicated layouts fail
        over per stripe to the next live replica; when every replica of
        a needed stripe is unreachable a :class:`ServerDownError`
        escapes.
        """
        t0 = time.perf_counter()
        try:
            with self._lock:
                if self.replication == 1:
                    return self._readv_plain(extents)
                return self._readv_replicated(extents)
        finally:
            dt = time.perf_counter() - t0
            with self._lock:        # concurrent callers both account
                self.wall_time += dt

    def faults_armed(self) -> bool:
        """Whether any fault machinery (an active fault-site plan or a
        per-server fault plan) is observing this file's servers.  The
        concurrency layers — per-server dispatch here, aggregator
        fan-out in :mod:`repro.mpi.collective` — fall back to their
        serial order while this is true, so scripted fault schedules
        keep firing deterministically."""
        if faultsites.any_active():
            return True
        return any(s.fault_plan is not None for s in self.servers)

    def _parallel_ok(self) -> bool:
        """Whether per-server batches may be dispatched concurrently.

        Serial whenever the executor is off or any fault machinery is
        armed — scripted fault schedules and chaos kill sites are
        op-count ordered, so they must observe the historical dispatch
        order.
        """
        if self.executor is None:
            return False
        return not self.faults_armed()

    def _readv_plain(self, extents: list[Extent]) -> tuple[bytes, float]:
        """The historical unreplicated read path.  Per-server batches
        are dispatched concurrently when the executor allows; results
        are applied in server order either way, so bytes and stats are
        identical to the serial loop."""
        per_server = self.layout.split_extents(extents)
        work = [(sid, reqs) for sid, reqs in enumerate(per_server) if reqs]
        if len(work) > 1 and self._parallel_ok():
            futs = [self.executor.submit(
                        self.servers[sid].read_batch, self.name,
                        [(srv_off, ln) for srv_off, _lo, ln in reqs])
                    for sid, reqs in work]
            results = self.executor.gather(futs)
        else:
            results = [self.servers[sid].read_batch(
                           self.name,
                           [(srv_off, ln) for srv_off, _lo, ln in reqs])
                       for sid, reqs in work]
        pieces: dict[int, bytes] = {}
        elapsed = 0.0
        for (sid, reqs), (data, t) in zip(work, results):
            elapsed = max(elapsed, t)
            for (_srv_off, log_off, _ln), piece in zip(reqs, data):
                pieces[log_off] = piece
        out = self._assemble(extents, pieces)
        self.io_time += elapsed
        return out, elapsed

    def _readv_replicated(self, extents: list[Extent]
                          ) -> tuple[bytes, float]:
        """Replica-aware read: route each stripe piece to its preferred
        live copy, re-routing on server errors until data arrives or no
        replica remains."""
        crash_point("server.kill.readv.begin")
        layout: ReplicaLayout = self.layout  # type: ignore[assignment]
        failed: set[int] = set()
        pieces: dict[int, bytes] = {}
        elapsed_by_server: dict[int, float] = {}

        # plan: route every stripe piece to a copy
        batches: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        for off, length in extents:
            for _srv, srv_off, log_off, take in layout.split_extent(off,
                                                                    length):
                stripe = log_off // layout.stripe_size
                choice = self._choose_copy(stripe, failed)
                if choice is None:
                    raise ServerDownError(
                        f"file {self.name!r}: no live replica for stripe "
                        f"{stripe}")
                copy, sid = choice
                if copy:
                    self.rstats.degraded_reads += 1
                batches.setdefault((sid, copy), []).append(
                    (srv_off, log_off, take))

        queue = sorted(batches.items())
        parallel = self._parallel_ok()
        while queue:
            if parallel and len(queue) > 1:
                # dispatch the whole wave concurrently; failures fail
                # over sequentially and re-enter the queue as a new wave.
                # Kill-site hooks force the serial branch below, so the
                # crash points here are free no-ops kept for symmetry.
                wave, queue = queue, []
                futs = []
                for (sid, copy), reqs in wave:
                    crash_point("server.kill.readv.batch")
                    obj = replica_object_name(self.name, copy)
                    futs.append(self.executor.submit(
                        self.servers[sid].read_batch, obj,
                        [(srv_off, ln) for srv_off, _lo, ln in reqs]))
                results = self.executor.gather(futs, return_exceptions=True)
                for ((sid, copy), reqs), res in zip(wave, results):
                    if isinstance(res, PFSError):
                        queue.extend(
                            self._reroute_failed(sid, reqs, failed, res))
                    elif isinstance(res, BaseException):
                        raise res
                    else:
                        data, t = res
                        elapsed_by_server[sid] = (
                            elapsed_by_server.get(sid, 0.0) + t)
                        for (_so, log_off, _ln), piece in zip(reqs, data):
                            pieces[log_off] = piece
                continue
            (sid, copy), reqs = queue.pop(0)
            crash_point("server.kill.readv.batch")
            obj = replica_object_name(self.name, copy)
            try:
                data, t = self.servers[sid].read_batch(
                    obj, [(srv_off, ln) for srv_off, _lo, ln in reqs])
            except PFSError as exc:
                # the server answered with an error (or a chaos hook just
                # killed it): exclude it and re-route its pieces
                queue.extend(self._reroute_failed(sid, reqs, failed, exc))
                continue
            elapsed_by_server[sid] = elapsed_by_server.get(sid, 0.0) + t
            for (_srv_off, log_off, _ln), piece in zip(reqs, data):
                pieces[log_off] = piece

        elapsed = max(elapsed_by_server.values(), default=0.0)
        out = self._assemble(extents, pieces)
        self.io_time += elapsed
        return out, elapsed

    def _reroute_failed(self, sid: int, reqs: list[tuple[int, int, int]],
                        failed: set[int], exc: PFSError
                        ) -> list[tuple[tuple[int, int],
                                        list[tuple[int, int, int]]]]:
        """Route a failed server's pieces to the next live replica,
        returning the sorted re-issued batches."""
        layout: ReplicaLayout = self.layout  # type: ignore[assignment]
        failed.add(sid)
        self.rstats.failovers += 1
        rerouted: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        for srv_off, log_off, ln in reqs:
            stripe = log_off // layout.stripe_size
            choice = self._choose_copy(stripe, failed)
            if choice is None:
                raise ServerDownError(
                    f"file {self.name!r}: no live replica left for "
                    f"stripe {stripe}") from exc
            copy2, sid2 = choice
            if copy2:
                self.rstats.degraded_reads += 1
            rerouted.setdefault((sid2, copy2), []).append(
                (srv_off, log_off, ln))
        return sorted(rerouted.items())

    def readv_copy(self, extents: list[Extent], copy: int
                   ) -> tuple[bytes, float]:
        """Read the extents purely from replica copy ``copy`` — no
        failover.  The CRC-arbitration hook: when checksums disagree,
        the DRX layer asks each copy for its version of the bytes.
        Raises if any server holding the copy is unreachable.
        """
        if not 0 <= copy < self.replication:
            raise PFSError(
                f"copy {copy} outside replication factor {self.replication}")
        with self._lock:
            if copy == 0:
                return self._readv_plain(extents)
            layout: ReplicaLayout = self.layout  # type: ignore[assignment]
            per_server = layout.split_extents_copy(extents, copy)
            obj = replica_object_name(self.name, copy)
            pieces: dict[int, bytes] = {}
            elapsed = 0.0
            for sid, reqs in enumerate(per_server):
                if not reqs:
                    continue
                srv = self.servers[sid]
                if not srv.available:
                    raise ServerDownError(
                        f"file {self.name!r}: copy {copy} unreachable, "
                        f"server {sid} unavailable")
                data, t = srv.read_batch(
                    obj, [(srv_off, ln) for srv_off, _lo, ln in reqs])
                elapsed = max(elapsed, t)
                for (_srv_off, log_off, _ln), piece in zip(reqs, data):
                    pieces[log_off] = piece
            out = self._assemble(extents, pieces)
            self.io_time += elapsed
            return out, elapsed

    def writev(self, extents: list[Extent], data: bytes) -> float:
        """Write ``data`` into the given byte extents, in order.

        Replicated layouts fan the write out to every copy.  Dead
        servers — and wiped-then-revived ones whose objects a rebuild
        has yet to recreate — are skipped and counted as
        ``missed_writes`` (the debt a later rebuild repays); merely
        *stale* servers receive the write too (write-through, counted
        as ``write_through``), which is what makes writes safe to
        interleave with an online rebuild.  Every piece must land on at
        least one *readable* copy or :class:`ServerDownError` is
        raised.
        """
        total = sum(n for _o, n in extents)
        if total != len(data):
            raise PFSError(
                f"writev: extents cover {total} bytes, data has {len(data)}"
            )
        t0 = time.perf_counter()
        try:
            with self._lock:
                if self.replication == 1:
                    return self._writev_plain(extents, data)
                return self._writev_replicated(extents, data)
        finally:
            dt = time.perf_counter() - t0
            with self._lock:        # concurrent callers both account
                self.wall_time += dt

    def _writev_plain(self, extents: list[Extent], data: bytes) -> float:
        """The historical unreplicated write path.  Batches are built in
        server order, then dispatched concurrently when the executor
        allows — bytes and stats identical to the serial loop."""
        per_server = self.layout.split_extents(extents)
        slices = self._slices(extents)
        work: list[tuple[int, list[tuple[int, bytes]]]] = []
        for sid, reqs in enumerate(per_server):
            if not reqs:
                continue
            batch: list[tuple[int, bytes]] = []
            for srv_off, log_off, ln in reqs:
                src = self._locate(slices, log_off)
                start = src[0] + (log_off - src[2])
                batch.append((srv_off, bytes(data[start:start + ln])))
            work.append((sid, batch))
        if len(work) > 1 and self._parallel_ok():
            futs = [self.executor.submit(
                        self.servers[sid].write_batch, self.name, batch)
                    for sid, batch in work]
            times = self.executor.gather(futs)
        else:
            times = [self.servers[sid].write_batch(self.name, batch)
                     for sid, batch in work]
        elapsed = max(times, default=0.0)
        self._size = max(self._size,
                         max((o + n for o, n in extents), default=0))
        self.io_time += elapsed
        return elapsed

    def _writev_replicated(self, extents: list[Extent],
                           data: bytes) -> float:
        """Fan the write out to every replica copy."""
        crash_point("server.kill.writev.begin")
        layout: ReplicaLayout = self.layout  # type: ignore[assignment]
        slices = self._slices(extents)
        if self._parallel_ok():
            return self._writev_replicated_parallel(extents, data, slices)
        elapsed_by_server: dict[int, float] = {}
        #: landed copies per piece, keyed by logical offset
        landed: dict[int, int] = {}
        for copy in range(self.replication):
            per_server = layout.split_extents_copy(extents, copy)
            obj = replica_object_name(self.name, copy)
            for sid, reqs in enumerate(per_server):
                if not reqs:
                    continue
                crash_point("server.kill.writev.batch")
                srv = self.servers[sid]
                for _srv_off, log_off, _ln in reqs:
                    landed.setdefault(log_off, 0)
                if not srv.alive or (srv.stale and not srv.has_object(obj)):
                    # dead — or wiped-then-revived with the object still
                    # missing: rebuild recreates it and repays the debt
                    self.rstats.missed_writes += len(reqs)
                    continue
                batch: list[tuple[int, bytes]] = []
                nbytes = 0
                for srv_off, log_off, ln in reqs:
                    src = self._locate(slices, log_off)
                    start = src[0] + (log_off - src[2])
                    batch.append((srv_off, bytes(data[start:start + ln])))
                    nbytes += ln
                try:
                    t = srv.write_batch(obj, batch)
                except ServerDownError:
                    # killed between the liveness check and the batch
                    # (e.g. by a chaos hook at the crash point above)
                    self.rstats.missed_writes += len(reqs)
                    continue
                # any other PFSError propagates: a reachable server that
                # refuses a write is a transient fault the retry layers
                # must re-issue (the fan-out is idempotent), not a
                # silently tolerable replica skip — stale write-through
                # included, else a batch lost after its region was
                # rebuilt would go unnoticed
                elapsed_by_server[sid] = elapsed_by_server.get(sid, 0.0) + t
                if srv.available:
                    for _srv_off, log_off, _ln in reqs:
                        landed[log_off] += 1
                else:
                    # write-through to a stale server: the bytes are
                    # down, but nobody may read them until rebuild —
                    # they don't count toward durability
                    self.rstats.write_through += len(reqs)
                if copy:
                    self.rstats.replica_bytes += nbytes
        orphans = [off for off, n in landed.items() if n == 0]
        if orphans:
            raise ServerDownError(
                f"file {self.name!r}: write lost — no readable replica "
                f"for pieces at offsets {sorted(orphans)[:4]}"
                f"{'...' if len(orphans) > 4 else ''}")
        elapsed = max(elapsed_by_server.values(), default=0.0)
        self._size = max(self._size,
                         max((o + n for o, n in extents), default=0))
        self.io_time += elapsed
        return elapsed

    def _writev_replicated_parallel(self, extents: list[Extent],
                                    data: bytes,
                                    slices: dict[int, tuple[int, int]]
                                    ) -> float:
        """Concurrent replica fan-out: liveness checks, skip accounting
        and batch assembly run in the main thread in the serial order;
        only the server batches themselves are dispatched concurrently,
        with results applied back in that same order.  Semantically
        identical to the serial fan-out (the fan-out is idempotent, so
        the one observable difference — later batches still landing
        after an earlier batch raised a non-ServerDown error — is
        covered by the same retry contract)."""
        layout: ReplicaLayout = self.layout  # type: ignore[assignment]
        elapsed_by_server: dict[int, float] = {}
        landed: dict[int, int] = {}
        jobs: list[tuple[int, int, IOServer, str,
                         list[tuple[int, int, int]],
                         list[tuple[int, bytes]], int]] = []
        for copy in range(self.replication):
            per_server = layout.split_extents_copy(extents, copy)
            obj = replica_object_name(self.name, copy)
            for sid, reqs in enumerate(per_server):
                if not reqs:
                    continue
                srv = self.servers[sid]
                for _srv_off, log_off, _ln in reqs:
                    landed.setdefault(log_off, 0)
                if not srv.alive or (srv.stale and not srv.has_object(obj)):
                    self.rstats.missed_writes += len(reqs)
                    continue
                batch: list[tuple[int, bytes]] = []
                nbytes = 0
                for srv_off, log_off, ln in reqs:
                    src = self._locate(slices, log_off)
                    start = src[0] + (log_off - src[2])
                    batch.append((srv_off, bytes(data[start:start + ln])))
                    nbytes += ln
                jobs.append((copy, sid, srv, obj, reqs, batch, nbytes))
        futs = [self.executor.submit(srv.write_batch, obj, batch)
                for _copy, _sid, srv, obj, _reqs, batch, _n in jobs]
        results = self.executor.gather(futs, return_exceptions=True)
        for (copy, sid, srv, _obj, reqs, _batch, nbytes), res in zip(
                jobs, results):
            if isinstance(res, ServerDownError):
                # killed between the liveness check and the batch
                self.rstats.missed_writes += len(reqs)
                continue
            if isinstance(res, BaseException):
                raise res
            elapsed_by_server[sid] = elapsed_by_server.get(sid, 0.0) + res
            if srv.available:
                for _srv_off, log_off, _ln in reqs:
                    landed[log_off] += 1
            else:
                self.rstats.write_through += len(reqs)
            if copy:
                self.rstats.replica_bytes += nbytes
        orphans = [off for off, n in landed.items() if n == 0]
        if orphans:
            raise ServerDownError(
                f"file {self.name!r}: write lost — no readable replica "
                f"for pieces at offsets {sorted(orphans)[:4]}"
                f"{'...' if len(orphans) > 4 else ''}")
        elapsed = max(elapsed_by_server.values(), default=0.0)
        self._size = max(self._size,
                         max((o + n for o, n in extents), default=0))
        self.io_time += elapsed
        return elapsed

    def sieve_writev(self,
                     direct: tuple[list[Extent], bytes] | None,
                     rmw: list[tuple[int, int, list[tuple[int, bytes]]]]
                     ) -> float:
        """One atomic data-sieving write: hole-free runs go straight to
        :meth:`writev`; each ``(cover_off, cover_len, pieces)`` job in
        ``rmw`` is a read-modify-write — read the covering extent, patch
        the ``(offset, bytes)`` pieces in, write the whole extent back.

        The file lock is held across *all* of it, which is what makes
        concurrent sieved writers (two ranks with complementary strided
        views, say) safe: a covering write can never clobber bytes
        another rank patched in between the read and the write-back.
        Returns the simulated elapsed time (max over the serialized
        steps, matching the per-call convention of readv/writev).
        """
        elapsed = 0.0
        with self._lock:
            if direct is not None and direct[0]:
                elapsed = max(elapsed, self.writev(direct[0], direct[1]))
            for cover_off, cover_len, pieces in rmw:
                blob, t_r = self.readv([(cover_off, cover_len)])
                buf = bytearray(blob)
                for off, data in pieces:
                    at = off - cover_off
                    buf[at:at + len(data)] = data
                t_w = self.writev([(cover_off, cover_len)], bytes(buf))
                elapsed = max(elapsed, t_r + t_w)
        return elapsed

    # ------------------------------------------------------------------
    # replica routing helpers
    # ------------------------------------------------------------------
    def _choose_copy(self, stripe: int,
                     excluded: set[int]) -> tuple[int, int] | None:
        """Pick the replica copy to read stripe ``stripe`` from.

        Preference order: the lowest copy index whose server is
        available, not suspect and not excluded; then (degraded further)
        any available non-excluded server even if suspect.  ``None``
        when no replica is reachable.
        """
        layout: ReplicaLayout = self.layout  # type: ignore[assignment]
        fallback: tuple[int, int] | None = None
        for copy in range(self.replication):
            sid = layout.replica_server(stripe, copy)
            srv = self.servers[sid]
            if sid in excluded or not srv.available:
                continue
            if not srv.suspect:
                return copy, sid
            if fallback is None:
                fallback = (copy, sid)
        return fallback

    @staticmethod
    def _slices(extents: list[Extent]) -> dict[int, tuple[int, int]]:
        """Map each extent's logical offset to its slice of the flat
        data buffer."""
        slices: dict[int, tuple[int, int]] = {}
        pos = 0
        for off, length in extents:
            slices[off] = (pos, length)
            pos += length
        return slices

    @staticmethod
    def _assemble(extents: list[Extent],
                  pieces: dict[int, bytes]) -> bytes:
        """Concatenate stripe pieces back into request order."""
        order: list[bytes] = []
        for off, length in extents:
            pos = off
            end = off + length
            while pos < end:
                piece = pieces[pos]
                order.append(piece)
                pos += len(piece)
        return b"".join(order)

    @staticmethod
    def _locate(slices: dict[int, tuple[int, int]], log_off: int
                ) -> tuple[int, int, int]:
        """Find the data-buffer slice containing logical offset ``log_off``.

        Returns ``(buf_start, length, extent_offset)``.
        """
        # extents are few per call; a linear probe over the dict is fine
        for ext_off, (buf_start, length) in slices.items():
            if ext_off <= log_off < ext_off + length:
                return buf_start, length, ext_off
        raise PFSError(f"internal: no slice covers offset {log_off}")

    # ------------------------------------------------------------------
    # online rebuild / verification
    # ------------------------------------------------------------------
    def rebuild(self, sid: int, batch_bytes: int = REBUILD_BATCH) -> float:
        """Re-replicate this file's objects on server ``sid`` from their
        partner copies.  Returns the total simulated copy time.  The
        file lock is held only per batch, so reads and writes interleave
        with the rebuild (see :meth:`rebuild_steps`)."""
        total = 0.0
        for t in self.rebuild_steps(sid, batch_bytes):
            total += t
        return total

    def rebuild_steps(self, sid: int, batch_bytes: int = REBUILD_BATCH):
        """Generator form of :meth:`rebuild`, yielding the simulated
        time of each coalesced copy batch.  Benchmarks drive this to
        interleave rebuild traffic with foreground reads
        deterministically.

        The chained layout makes every copy object a byte-identical
        mirror of a partner object on another server
        (:meth:`~repro.pfs.replication.ReplicaLayout.partner_server`),
        so rebuild is a plain coalesced object copy — no stripe-by-
        stripe bookkeeping.

        Concurrent writes cannot be lost: the fan-out writes *through*
        to the stale target, and both the partner read and the target
        write of one batch happen under the file lock.  A write before
        a region's batch is captured by the partner copy; a write after
        it lands on the target directly (file extension past the extent
        captured at pass start included).
        """
        if self.replication == 1:
            # no redundancy to restore; writes during the outage failed
            # loudly, so the surviving bytes are already authoritative
            return
        layout: ReplicaLayout = self.layout  # type: ignore[assignment]
        target = self.servers[sid]
        if not target.alive:
            raise ServerDownError(
                f"cannot rebuild server {sid}: it is down (revive first)")
        crash_point("server.kill.rebuild.begin")
        for copy in range(self.replication):
            obj = replica_object_name(self.name, copy)
            with self._lock:
                # drop the (possibly stale, possibly longer) old object so
                # bytes the source holds implicitly as zeros don't survive
                if target.has_object(obj):
                    target.delete_object(obj)
                target.create_object(obj)
                extent = layout.object_extent(sid, copy, self._size)
            self.rstats.rebuilt_objects += 1
            pos = 0
            failed: set[int] = {sid}
            while pos < extent:
                crash_point("server.kill.rebuild.batch")
                take = min(batch_bytes, extent - pos)
                with self._lock:
                    src = self._rebuild_source(sid, copy, failed)
                    if src is None:
                        raise ServerDownError(
                            f"cannot rebuild {obj!r} on server {sid}: no "
                            f"live partner copy")
                    src_copy, src_sid = src
                    src_obj = replica_object_name(self.name, src_copy)
                    try:
                        data, t_r = self.servers[src_sid].read_batch(
                            src_obj, [(pos, take)])
                    except PFSError:
                        failed.add(src_sid)
                        continue
                    t_w = target.write_batch(obj, [(pos, data[0])])
                self.rstats.rebuild_bytes += take
                pos += take
                yield t_r + t_w

    def _rebuild_source(self, sid: int, copy: int,
                        excluded: set[int]) -> tuple[int, int] | None:
        """Pick a live partner ``(src_copy, src_server)`` mirroring the
        copy-``copy`` object of server ``sid``."""
        layout: ReplicaLayout = self.layout  # type: ignore[assignment]
        for src_copy in range(self.replication):
            if src_copy == copy:
                continue
            src_sid = layout.partner_server(sid, copy, src_copy)
            if src_sid in excluded:
                continue
            if self.servers[src_sid].available:
                return src_copy, src_sid
        return None

    def repair(self, offset: int, data: bytes) -> None:
        """Overwrite the byte range on every reachable replica copy
        *out of band* — no stats, no simulated cost, no fault plan
        (:meth:`IOServer.patch <repro.pfs.server.IOServer.patch>`).

        The CRC-arbitration write-back path: healing a diverging copy
        happens on a logical *read*, so it must not perturb the write
        counters or injected-fault schedules the simulator promises to
        keep faithful.  Unreachable or stale copies are skipped (best
        effort; a rebuild restores them wholesale).
        """
        if not data:
            return
        data = bytes(data)
        extent = [(offset, len(data))]
        with self._lock:
            for copy in range(self.replication):
                obj = replica_object_name(self.name, copy)
                if self.replication == 1:
                    per_server = self.layout.split_extents(extent)
                else:
                    layout: ReplicaLayout = self.layout  # type: ignore[assignment]
                    per_server = layout.split_extents_copy(extent, copy)
                for sid, reqs in enumerate(per_server):
                    srv = self.servers[sid]
                    if not reqs or not srv.available:
                        continue
                    for srv_off, log_off, ln in reqs:
                        start = log_off - offset
                        try:
                            srv.patch(obj, srv_off,
                                      data[start:start + ln])
                        except PFSError:
                            continue

    def verify_replicas(self) -> list[tuple[int, int, int]]:
        """Byte-compare every copy object against its primary-copy
        mirror (out of band — no stats, no cost).  Returns the list of
        divergent ``(server, copy, partner_server)`` triples; an empty
        list means full redundancy.  Objects on dead servers are
        reported as divergent (redundancy is lost either way).
        """
        if self.replication == 1:
            return []
        layout: ReplicaLayout = self.layout  # type: ignore[assignment]
        bad: list[tuple[int, int, int]] = []
        with self._lock:
            for copy in range(1, self.replication):
                obj = replica_object_name(self.name, copy)
                for sid in range(layout.nservers):
                    partner = layout.partner_server(sid, copy, 0)
                    extent = layout.object_extent(sid, copy, self._size)
                    try:
                        mine = self.servers[sid].peek(obj, 0, extent)
                        ref = self.servers[partner].peek(self.name, 0,
                                                         extent)
                    except ServerDownError:
                        bad.append((sid, copy, partner))
                        continue
                    if mine != ref:
                        bad.append((sid, copy, partner))
        return bad

    # ------------------------------------------------------------------
    # convenience scalar forms
    # ------------------------------------------------------------------
    def read(self, offset: int, length: int) -> bytes:
        data, _t = self.readv([(offset, length)])
        return data

    def write(self, offset: int, data: bytes) -> None:
        self.writev([(offset, len(data))], data)

