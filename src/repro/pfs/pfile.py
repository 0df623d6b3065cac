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

With ``replication == 1`` every operation skips the replica routing —
identical bytes, identical stats — so the default configuration pays
nothing for the failure tier.

Reads deliver by reference.  :meth:`PFSFile.readv` is the one read
body: each per-server request carries the caller's destination views,
and the server copies its bytes straight from the store into them, so
a byte is copied once, wherever it lands — a fresh packed buffer, or
the requesting ranks' own buffers in a collective read.

Two notions of time coexist and must not be conflated:

``io_time`` (and every per-call return value)
    *Simulated* time from the analytic cost model — the elapsed time of
    the slowest server touched, as if the per-server batches ran in
    parallel on real hardware.  It is deterministic and independent of
    how the Python process actually executes the batches.
``wall_time``
    *Measured* wall-clock seconds this process spent inside ``readv`` /
    ``writev`` (the aggregators of a collective included).  The caller's
    thread visits the servers one after another, so ``wall_time`` is the
    sum over servers of what the copies cost in this process.
    Benchmarks report both.

Every per-server batch runs on the caller's thread, in server order:
the servers' parallelism lives in the cost model, and a byte copy that
holds the GIL would buy nothing from another thread.  A call runs every
batch of a fan-out (or of a failover wave), even after an earlier one
raised, applies the results in batch order and raises the first failure
after the last batch; a :class:`~repro.core.errors.CrashError` is
process death and stops the fan-out at once.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_right
from typing import Any

from ..core.errors import CrashError, PFSError, ServerDownError
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
                 layout: StripeLayout) -> None:
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
            raise PFSError(f"negative size {size}", transient=False)
        with self._lock:
            self._size = size

    # ------------------------------------------------------------------
    # vectored independent I/O
    # ------------------------------------------------------------------
    def readv(self, extents: list[Extent], into: list | None = None
              ) -> tuple[bytearray | None, float]:
        """Read the given byte extents; returns ``(data, elapsed)``.

        ``extents`` are what the servers service and account.  With
        ``into=None`` they are packed back to back, in request order,
        into one fresh buffer, which is ``data``.  Otherwise ``into`` is
        a list of ``(offset, view)`` sinks lying inside ``extents``: the
        servers copy the bytes of ``[offset, offset + len(view))``
        straight into each writable ``view`` and ``data`` is ``None``.
        Sinks may overlap, and they may leave holes: a hole is read and
        accounted, but none of its bytes lands anywhere.

        Bytes past EOF read as zeros.  Replicated layouts fail over per
        stripe to the next live replica, the pieces taking their sinks
        along; when every replica of a needed stripe is unreachable a
        :class:`ServerDownError` escapes.
        """
        t0 = time.perf_counter()
        try:
            with self._lock:
                return self._read(extents, into)
        finally:
            dt = time.perf_counter() - t0
            with self._lock:        # concurrent callers both account
                self.wall_time += dt

    def readv_copy(self, extents: list[Extent], copy: int
                   ) -> tuple[bytearray, float]:
        """Read the extents purely from replica copy ``copy`` — no
        failover.  The CRC-arbitration hook: when checksums disagree,
        the DRX layer asks each copy for its version of the bytes.
        Raises if any server holding the copy is unreachable.
        """
        if not 0 <= copy < self.replication:
            raise PFSError(
                f"copy {copy} outside replication factor {self.replication}")
        with self._lock:
            return self._read(extents, None, copy)

    def _read(self, extents: list[Extent], into: list | None,
              copy: int | None = None) -> tuple[bytearray | None, float]:
        """The one read body (see :meth:`readv`).  ``copy`` pins every
        piece to that replica copy; ``None`` reads the primary of an
        unreplicated file, and the preferred live copy, failing over,
        of a replicated one.  Batches go out one per ``(server, copy)``
        in server order, and a wave's failures make up the next wave."""
        out = None
        if into is None:
            out = bytearray(sum(n for _o, n in extents))
            into = _packed(extents, out)
        failover = copy is None and self.replication > 1
        if failover:
            crash_point("server.kill.readv.begin")
            queue = self._route(extents, into)
        else:
            queue = self._route_copy(extents, into, copy or 0)
        failed: set[int] = set()
        elapsed_by_server: dict[int, float] = {}
        while queue:
            wave, queue = queue, []
            results = []
            for (sid, cp), reqs in wave:
                if failover:
                    crash_point("server.kill.readv.batch")
                results.append(_outcome(
                    self.servers[sid].read_batch,
                    replica_object_name(self.name, cp),
                    [(srv_off, ln, sinks)
                     for srv_off, _lo, ln, sinks in reqs]))
            for ((sid, _cp), reqs), res in zip(wave, results):
                if failover and isinstance(res, PFSError):
                    # the server answered with an error (or a chaos hook
                    # just killed it): exclude it and re-route its pieces
                    failed.add(sid)
                    self.rstats.failovers += 1
                    queue.extend(self._assign(reqs, failed, res))
                elif isinstance(res, BaseException):
                    raise res
                else:
                    elapsed_by_server[sid] = (
                        elapsed_by_server.get(sid, 0.0) + res)
        elapsed = max(elapsed_by_server.values(), default=0.0)
        self.io_time += elapsed
        return out, elapsed

    def _route_copy(self, extents: list[Extent], into: list, copy: int
                    ) -> list[tuple[tuple[int, int], list[list]]]:
        """Every piece from copy ``copy``: one batch per server holding
        a piece, in server order.  An unavailable server — down, or
        stale until rebuilt — is refused up front, whatever the copy."""
        if copy == 0:
            per_server = self.layout.split_extents(extents)
        else:
            layout: ReplicaLayout = self.layout  # type: ignore[assignment]
            per_server = layout.split_extents_copy(extents, copy)
        work = [(sid, [[*p, []] for p in reqs])
                for sid, reqs in enumerate(per_server) if reqs]
        _attach([p for _sid, reqs in work for p in reqs], into)
        for sid, _reqs in work:
            if not self.servers[sid].available:
                raise ServerDownError(
                    f"file {self.name!r}: copy {copy} unreachable, "
                    f"server {sid} unavailable")
        return [((sid, copy), reqs) for sid, reqs in work]

    def _route(self, extents: list[Extent], into: list
               ) -> list[tuple[tuple[int, int], list[list]]]:
        """The first wave of a failover read: every stripe piece, with
        its sinks, routed to its preferred live copy."""
        pieces = [[srv_off, log_off, take, []] for off, length in extents
                  for _srv, srv_off, log_off, take in
                  self.layout.split_extent(off, length)]
        _attach(pieces, into)
        return self._assign(pieces, set())

    def _assign(self, pieces: list[list], failed: set[int],
                cause: PFSError | None = None
                ) -> list[tuple[tuple[int, int], list[list]]]:
        """Route each piece, sinks and all, to its preferred live copy on
        a server outside ``failed``: the sorted ``((server, copy),
        pieces)`` batches.  The server-local offset is the same on every
        copy."""
        layout: ReplicaLayout = self.layout  # type: ignore[assignment]
        batches: dict[tuple[int, int], list[list]] = {}
        for piece in pieces:
            stripe = piece[1] // layout.stripe_size
            choice = self._choose_copy(stripe, failed)
            if choice is None:
                raise ServerDownError(
                    f"file {self.name!r}: no live replica for stripe "
                    f"{stripe}") from cause
            copy, sid = choice
            if copy:
                self.rstats.degraded_reads += 1
            batches.setdefault((sid, copy), []).append(piece)
        return sorted(batches.items())

    def writev(self, extents: list[Extent], data) -> float:
        """Write ``data`` into the given byte extents, in order.

        ``data`` is any contiguous bytes-like object; it is borrowed,
        not copied, until the call returns.  Where extents overlap, the
        later one's bytes win.

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
        view = memoryview(data).cast("B")
        total = sum(n for _o, n in extents)
        if total != len(view):
            raise PFSError(
                f"writev: extents cover {total} bytes, data has {len(view)}",
                transient=False)
        pieces = []
        pos = 0
        for off, n in extents:
            pieces.append((off, view[pos:pos + n]))
            pos += n
        return self._write(extents, _Pieces(pieces))

    def _write(self, extents: list[Extent], source: "_Pieces") -> float:
        """Write ``source``'s bytes into ``extents``, split per server
        exactly as the extents are."""
        t0 = time.perf_counter()
        try:
            with self._lock:
                if self.replication == 1:
                    return self._writev_plain(extents, source)
                return self._writev_replicated(extents, source)
        finally:
            dt = time.perf_counter() - t0
            with self._lock:        # concurrent callers both account
                self.wall_time += dt

    def _writev_plain(self, extents: list[Extent], source: "_Pieces"
                      ) -> float:
        """The unreplicated write path: batches built in server order,
        one per server."""
        work = [(sid, [(srv_off, source.take(log_off, ln))
                       for srv_off, log_off, ln in reqs])
                for sid, reqs in enumerate(self.layout.split_extents(extents))
                if reqs]
        times = [_outcome(self.servers[sid].write_batch, self.name, batch)
                 for sid, batch in work]
        for res in times:
            if isinstance(res, BaseException):
                raise res
        elapsed = max(times, default=0.0)
        self._size = max(self._size,
                         max((o + n for o, n in extents), default=0))
        self.io_time += elapsed
        return elapsed

    def _writev_replicated(self, extents: list[Extent],
                           source: "_Pieces") -> float:
        """Fan the write out to every replica copy.

        The batches run in (copy, server) order, visiting
        ``server.kill.writev.batch`` before each one, and the results
        are applied back in that same order.  The fan-out is idempotent,
        so a batch that still lands after an earlier one raised is
        covered by the retry contract.
        """
        crash_point("server.kill.writev.begin")
        layout: ReplicaLayout = self.layout  # type: ignore[assignment]
        plan = [(copy, sid, reqs) for copy in range(self.replication)
                for sid, reqs in enumerate(
                    layout.split_extents_copy(extents, copy))
                if reqs]
        #: landed copies per piece, keyed by logical offset
        landed: dict[int, int] = {}
        #: ``(copy, server, pieces, outcome, readable)`` per batch sent;
        #: a stale server's write-through lands but is not readable
        jobs = []
        for copy, sid, reqs in plan:
            crash_point("server.kill.writev.batch")
            srv = self.servers[sid]
            obj = replica_object_name(self.name, copy)
            for _srv_off, log_off, _ln in reqs:
                landed.setdefault(log_off, 0)
            if not srv.alive or (srv.stale and not srv.has_object(obj)):
                # dead — or wiped-then-revived with the object still
                # missing: rebuild recreates it and repays the debt
                self.rstats.missed_writes += len(reqs)
                continue
            batch = [(srv_off, source.take(log_off, ln))
                     for srv_off, log_off, ln in reqs]
            res = _outcome(srv.write_batch, obj, batch)
            jobs.append((copy, sid, reqs, res, srv.available))
        elapsed_by_server: dict[int, float] = {}
        for copy, sid, reqs, res, readable in jobs:
            if isinstance(res, ServerDownError):
                # killed between the liveness check and the batch
                # (e.g. by a chaos hook at the crash point above)
                self.rstats.missed_writes += len(reqs)
                continue
            if isinstance(res, BaseException):
                # any other PFSError propagates: a reachable server that
                # refuses a write is a transient fault the retry layers
                # must re-issue (the fan-out is idempotent), not a
                # silently tolerable replica skip — stale write-through
                # included, else a batch lost after its region was
                # rebuilt would go unnoticed
                raise res
            elapsed_by_server[sid] = elapsed_by_server.get(sid, 0.0) + res
            if readable:
                for _srv_off, log_off, _ln in reqs:
                    landed[log_off] += 1
            else:
                # write-through to a stale server: the bytes are down,
                # but nobody may read them until rebuild — they don't
                # count toward durability
                self.rstats.write_through += len(reqs)
            if copy:
                self.rstats.replica_bytes += sum(ln for _so, _lo, ln in reqs)
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
                     direct: tuple[list[Extent], list[tuple[int, Any]]] | None,
                     rmw: list[tuple[int, int, list[tuple[int, Any]]]]
                     ) -> float:
        """One atomic data-sieving write.  ``direct`` is ``(runs,
        pieces)``: hole-free runs, and the ``(offset, bytes)`` pieces
        that cover them; the runs are split per server as they are,
        whatever the piece boundaries.  Each ``(cover_off, cover_len,
        pieces)`` job in ``rmw`` is a read-modify-write — read the
        covering extent, patch the pieces in, write the whole extent
        back.  Either way a later piece in the list wins an overlap.
        The pieces are borrowed until the call returns; each byte is
        copied once, into the server store or the covering buffer.

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
                elapsed = max(elapsed,
                              self._write(direct[0], _Pieces(direct[1])))
            for cover_off, cover_len, pieces in rmw:
                buf, t_r = self.readv([(cover_off, cover_len)])
                for off, data in pieces:
                    at = off - cover_off
                    buf[at:at + len(data)] = data
                t_w = self.writev([(cover_off, cover_len)], buf)
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
                    data = bytearray(take)
                    try:
                        t_r = self.servers[src_sid].read_batch(
                            src_obj, [(pos, take, [(0, memoryview(data))])])
                    except PFSError:
                        failed.add(src_sid)
                        continue
                    t_w = target.write_batch(obj, [(pos, data)])
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


def _packed(extents: list[Extent], out: bytearray
            ) -> list[tuple[int, memoryview]]:
    """Sinks packing ``extents`` back to back, in request order, into
    ``out``."""
    view = memoryview(out)
    sinks = []
    pos = 0
    for off, n in extents:
        sinks.append((off, view[pos:pos + n]))
        pos += n
    return sinks


def _attach(pieces: list[list], into: list) -> None:
    """Give each ``[srv_off, log_off, length, sinks]`` piece the parts
    of the ``(offset, view)`` sinks it covers, as ``(position in the
    piece, view)`` pairs appended to its ``sinks``.  One sweep over both
    sorted by offset; sinks may overlap each other and the pieces."""
    views = ((off, memoryview(view).cast("B")) for off, view in into)
    order = sorted(((off, view) for off, view in views if len(view)),
                   key=lambda sink: sink[0])
    active: list[tuple[int, int, memoryview]] = []
    j = 0
    for piece in sorted(pieces, key=lambda p: p[1]):
        lo, hi = piece[1], piece[1] + piece[2]
        while j < len(order) and order[j][0] < hi:
            off, view = order[j]
            active.append((off, off + len(view), view))
            j += 1
        active = [a for a in active if a[1] > lo]
        for start, end, view in active:
            if start < hi:
                a = max(lo, start)
                piece[3].append((a - lo,
                                 view[a - start:min(hi, end) - start]))


def _outcome(fn, *args):
    """``fn(*args)``, or the exception it raised, for the caller to
    apply in batch order.  A :class:`CrashError` is process death: it
    propagates at once, and no later batch runs."""
    try:
        return fn(*args)
    except CrashError:
        raise
    except Exception as exc:  # noqa: BLE001 - applied by the caller
        return exc


class _Pieces:
    """The bytes of one write: ``(offset, bytes)`` pieces in write
    order, a later piece winning an overlap.  :meth:`take` hands out
    one stripe unit's bytes without copying them; only a unit that
    straddles two pieces is joined, and only pieces that overlap are
    first patched, in order, into one buffer.  So a write copies each
    byte once, into the store."""

    def __init__(self, pieces: list[tuple[int, Any]]) -> None:
        views = [(off, memoryview(data).cast("B"))
                 for off, data in pieces if len(data)]
        order = sorted(range(len(views)), key=lambda i: views[i][0])
        self._starts: list[int] = []
        self._views: list[memoryview] = []
        k = 0
        while k < len(order):
            start, view = views[order[k]]
            end = start + len(view)
            j = k + 1
            while j < len(order) and views[order[j]][0] < end:
                off, other = views[order[j]]
                end = max(end, off + len(other))
                j += 1
            if j > k + 1:       # overlapping pieces: patch in write order
                buf = bytearray(end - start)
                for i in sorted(order[k:j]):
                    off, other = views[i]
                    buf[off - start:off - start + len(other)] = other
                view = memoryview(buf)
            self._starts.append(start)
            self._views.append(view)
            k = j

    def take(self, off: int, length: int):
        """The bytes of ``[off, off + length)``: a view into the piece
        holding them, or the join of the pieces the range straddles."""
        i = bisect_right(self._starts, off) - 1
        at = off - self._starts[i]
        view = self._views[i]
        if at + length <= len(view):
            return view[at:at + length]
        parts = []
        while length:
            part = self._views[i][at:at + length]
            parts.append(part)
            length -= len(part)
            i += 1
            at = 0
        return b"".join(parts)
