"""An Mpool-style buffer pool (the BerkeleyDB Mpool analog).

The paper: "DRX has the added feature that the memory arrays can be
maintained as either conventional arrays or memory resident extendible
arrays with I/O caching using the BerkeleyDB Mpool sub-system."

The pool caches fixed-size *pages* (one page = one chunk of the array
file) with the classic Mpool discipline:

* ``get(pageno)`` pins a page, faulting it in from the store on a miss;
* ``get_many(pagenos)`` pins a batch, faulting every miss with a single
  vectored store call over the coalesced contiguous runs;
* ``put(pageno, dirty=...)`` unpins it, optionally marking it dirty;
* clean/unpinned pages are evicted LRU; dirty pages are written back on
  eviction — together with any dirty unpinned neighbours at consecutive
  page numbers, so one eviction drains a whole contiguous run — and on
  ``flush``, which writes the dirty set sorted by page number in
  coalesced runs (a sequential pass over the file, not LRU order);
* pinned pages are never evicted; exhausting the pool with pins raises.

Hit/miss/eviction/write-back counters feed experiment E7 (cache size vs
locality sweeps); the ``syscalls``/``coalesced_runs`` counters quantify
how much run coalescing compresses the pool's store traffic.

Over a :class:`~repro.drx.storage.CompressedByteStore` the pool caches
*decompressed* pages: the adapter presents the logical chunk address
space, decodes on fault-in and recompresses on eviction write-back, so
hot pages pay the codec once, not per access.  The pool's ``guard`` is
``None`` in that configuration — CRC verification happens inside the
adapter, over the compressed payload at its physical slot.

Concurrency (only with an attached executor; ``readahead=`` sizes the
read-ahead window, write-behind has no switch of its own):

* **Thread safety.**  Every public entry point runs under one reentrant
  lock, so the pool can be shared between the MPI-as-threads ranks and
  the executor's background tasks.
* **Read-ahead.**  An access-pattern detector watches ``get`` (scalar
  stride) and ``get_many`` (repeated batch stride, the shape DRX plan
  execution produces).  Once a stride repeats, the predicted next pages
  are read asynchronously through the executor.  Prefetched pages are
  *adopted* on first use — installed clean, checksum-verified, counted
  as ``hits`` + ``prefetch_hits`` — and never evict pinned pages (they
  go through the normal ``_make_room``).  A prefetch that is never used
  is simply dropped (``prefetch_dropped``); a failed background read is
  ignored and the page faults normally.
* **Write-behind.**  Eviction write-backs go through the same
  ``_writeback_run`` as ``flush``, handed to the executor: the payload
  is copied, counters and checksums are recorded at submit time
  (identical values to the foreground call), and the future joins a
  bounded dirty queue.  Overlapping submissions wait for their
  predecessors (per-page FIFO), demand faults wait for overlapping
  in-flight write-backs before touching the store, and ``flush()`` /
  ``invalidate()`` / ``drain_writebehind()`` are full barriers.

Everything stays strictly serial — bit- and counter-identical to the
pre-executor pool — when no executor is attached, when the store is
marked ``deterministic_only`` (fault injectors), or while a fault plan
is armed (:func:`repro.core.faultsites.any_active`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core import faultsites
from ..core.errors import DRXError
from ..core.faultsites import crash_point
from .ioplan import coalesce_addresses
from .storage import ByteStore

__all__ = ["Mpool", "MpoolStats"]

#: write-behind runs that may be in flight before an eviction stalls on
#: the oldest one
_WB_QUEUE = 4


@dataclass
class MpoolStats:
    """Cumulative buffer-pool counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    #: physical store transfers the pool issued (faults + write-backs +
    #: background read-ahead)
    syscalls: int = 0
    #: contiguous runs moved through vectored (batched) transfers
    coalesced_runs: int = 0
    bytes_faulted: int = 0
    bytes_written: int = 0
    # -- read-ahead -------------------------------------------------------
    prefetch_issued: int = 0   #: background read-ahead store calls issued
    prefetch_pages: int = 0    #: pages covered by issued read-aheads
    prefetch_hits: int = 0     #: accesses served by adopting a read-ahead
    prefetch_dropped: int = 0  #: prefetched pages discarded unused
    # -- write-behind -----------------------------------------------------
    writebehind_runs: int = 0   #: write-backs handed to the executor
    writebehind_bytes: int = 0  #: bytes written through write-behind
    writebehind_stalls: int = 0  #: submits that blocked on the full queue

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def bytes_per_call(self) -> float:
        """Mean bytes per store transfer (0 when no I/O happened)."""
        total = self.bytes_faulted + self.bytes_written
        return total / self.syscalls if self.syscalls else 0.0


class _Page:
    __slots__ = ("buf", "pins", "dirty")

    def __init__(self, buf: np.ndarray) -> None:
        self.buf = buf
        self.pins = 0
        self.dirty = False


class Mpool:
    """A pinned-page LRU buffer pool over a byte store."""

    def __init__(self, store: ByteStore, page_size: int,
                 max_pages: int = 64, guard=None, executor=None,
                 readahead: int = 8) -> None:
        if page_size < 1:
            raise DRXError(f"page size must be >= 1, got {page_size}")
        if max_pages < 1:
            raise DRXError(f"pool must hold >= 1 page, got {max_pages}")
        self.store = store
        self.page_size = page_size
        self.max_pages = max_pages
        #: optional integrity hook (``repro.drx.resilience.ChecksumGuard``):
        #: ``check_or_arbitrate`` on every fault-in, ``record(pageno,
        #: bytes)`` on every write-back — the pool is where chunk bytes
        #: cross the store boundary, so checksums are enforced here.
        self.guard = guard
        self.stats = MpoolStats()
        #: pageno -> page, in LRU order (oldest first)
        self._pages: "OrderedDict[int, _Page]" = OrderedDict()
        #: single reentrant lock around all page-table mutation — the
        #: pool is shared between rank threads and background tasks
        self._lock = threading.RLock()
        # -- executor wiring (None = the exact historical serial pool) --
        if executor is not None and getattr(store, "deterministic_only",
                                            False):
            executor = None     # order-sensitive store: stay serial
        self._executor = executor
        self._readahead = (max(0, min(int(readahead), max_pages // 2))
                           if executor is not None else 0)
        #: pending write-behind: (future, frozenset of page numbers)
        self._wb: "deque[tuple[Future, frozenset[int]]]" = deque()
        #: pageno -> in-flight/landed read-ahead future; one future may
        #: serve several keys (it read a contiguous run)
        self._pf: dict[int, Future] = {}
        # scalar stride detector (get)
        self._ra_last: int | None = None
        self._ra_stride = 0
        self._ra_streak = 0
        # batch stride detector (get_many)
        self._b_start: int | None = None
        self._b_stride = 0
        self._b_streak = 0

    # ------------------------------------------------------------------
    def get(self, pageno: int) -> np.ndarray:
        """Pin page ``pageno`` and return its byte buffer (uint8 view).

        The caller mutates the buffer in place and must balance every
        ``get`` with a ``put``.
        """
        if pageno < 0:
            raise DRXError(f"negative page number {pageno}")
        with self._lock:
            page = self._pages.get(pageno)
            if page is not None:
                self.stats.hits += 1
                self._pages.move_to_end(pageno)
            else:
                page = self._adopt_prefetch(pageno)
                if page is not None:
                    self.stats.hits += 1
                    self.stats.prefetch_hits += 1
                else:
                    self.stats.misses += 1
                    self._wb_wait_overlap({pageno})
                    self._make_room(1)
                    raw = self.store.read(pageno * self.page_size,
                                          self.page_size)
                    self.stats.syscalls += 1
                    self.stats.bytes_faulted += self.page_size
                    page = self._install(pageno, raw)
            page.pins += 1
            self._note_scalar_access(pageno)
            return page.buf

    def get_many(self, pagenos: Sequence[int]) -> list[np.ndarray]:
        """Pin a batch of pages, faulting all misses with one vectored
        store call over the coalesced contiguous runs.

        Returns the page buffers aligned with ``pagenos`` (duplicates are
        pinned once per occurrence).  The batch may not exceed the pool
        capacity — callers split larger requests (or stream around the
        pool entirely, as ``DRXFile`` does).
        """
        nos = [int(p) for p in pagenos]
        if any(p < 0 for p in nos):
            raise DRXError(f"negative page number in batch {nos!r}")
        distinct = sorted(set(nos))
        if len(distinct) > self.max_pages:
            raise DRXError(
                f"batch of {len(distinct)} pages exceeds pool capacity "
                f"{self.max_pages}"
            )
        with self._lock:
            resident: list[int] = []
            missing: list[int] = []
            for p in distinct:
                page = self._pages.get(p)
                if page is None:
                    missing.append(p)
                else:
                    page.pins += 1          # protect from eviction below
                    self._pages.move_to_end(p)
                    resident.append(p)
            self.stats.hits += len(resident)
            self.stats.misses += len(missing)
            if missing:
                try:
                    self._fault_many(missing)
                except BaseException:
                    for p in resident:
                        self._pages[p].pins -= 1
                    raise
            # duplicates in the request pin once per occurrence, like
            # get(); every distinct page (resident or just faulted) holds
            # one protective pin at this point, dropped after the real
            # pins land
            for p in nos:
                self._pages[p].pins += 1
            for p in distinct:
                self._pages[p].pins -= 1
            self._note_batch_access(distinct)
            return [self._pages[p].buf for p in nos]

    def _fault_many(self, missing: list[int]) -> None:
        """Fault the (sorted, absent) pages in — adopting any pending
        read-aheads, then one vectored read for the rest."""
        adopted: list[int] = []
        if self._pf:
            rest: list[int] = []
            for p in missing:
                if p in self._pf:
                    adopted.append(p)
                else:
                    rest.append(p)
            missing = rest
        for p in adopted:
            page = self._adopt_prefetch(p)
            if page is None:                 # background read failed
                missing.append(p)
            else:
                # counted as a miss above; credit the read-ahead only
                self.stats.prefetch_hits += 1
                page.pins += 1               # protective pin, see get_many
        if adopted:
            missing.sort()
        if not missing:
            return
        self._wb_wait_overlap(set(missing))
        self._make_room(len(missing))
        ps = self.page_size
        starts, counts = coalesce_addresses(
            np.asarray(missing, dtype=np.int64))
        extents = [(int(s) * ps, int(c) * ps)
                   for s, c in zip(starts, counts)]
        blob = self.store.readv(extents)
        self.stats.syscalls += len(extents)
        self.stats.coalesced_runs += len(extents)
        self.stats.bytes_faulted += len(blob)
        mv = memoryview(blob)
        for i, p in enumerate(missing):
            # protective pin, see get_many
            self._install(p, mv[i * ps:(i + 1) * ps]).pins = 1

    def _install(self, pageno: int, raw) -> _Page:
        """Cache the bytes just read for ``pageno`` as a clean page (the
        caller has made room).  The integrity guard verifies them first;
        it gets the store handle so a CRC mismatch can be resolved from
        a replica copy — the installed bytes are then the arbitrated
        version."""
        if self.guard is not None:
            ps = self.page_size
            raw = self.guard.check_or_arbitrate(pageno, raw, self.store,
                                                pageno * ps, ps)
        page = _Page(np.frombuffer(bytearray(raw), dtype=np.uint8))
        self._pages[pageno] = page
        return page

    def put(self, pageno: int, dirty: bool = False) -> None:
        """Unpin page ``pageno``, optionally marking it dirty."""
        with self._lock:
            page = self._pages.get(pageno)
            if page is None or page.pins == 0:
                raise DRXError(f"put of page {pageno} that is not pinned")
            page.dirty = page.dirty or dirty
            page.pins -= 1

    def put_many(self, pagenos: Sequence[int], dirty: bool = False) -> None:
        """Unpin every page of a batch (the inverse of :meth:`get_many`)."""
        with self._lock:
            for p in pagenos:
                self.put(int(p), dirty=dirty)

    def _make_room(self, needed: int) -> None:
        """Evict LRU unpinned pages until ``needed`` slots are free."""
        while len(self._pages) + needed > self.max_pages:
            victim = None
            for pageno, page in self._pages.items():   # LRU order
                if page.pins == 0:
                    victim = pageno
                    break
            if victim is None:
                raise DRXError(
                    f"buffer pool exhausted: all {self.max_pages} pages "
                    f"pinned"
                )
            vpage = self._pages[victim]
            self.stats.evictions += 1
            if vpage.dirty:
                self._writeback_cluster(victim, vpage)
            del self._pages[victim]

    def _writeback_cluster(self, pageno: int, page: _Page) -> None:
        """Write back ``pageno`` plus any dirty unpinned pages at
        consecutive page numbers — one contiguous run, one store call.

        The neighbours stay cached (now clean); clustering turns the
        LRU's scattered single-page write-backs into sequential runs.
        """
        members = [(pageno, page)]
        lo = pageno - 1
        while (nb := self._pages.get(lo)) is not None \
                and nb.dirty and nb.pins == 0:
            members.insert(0, (lo, nb))
            lo -= 1
        hi = pageno + 1
        while (nb := self._pages.get(hi)) is not None \
                and nb.dirty and nb.pins == 0:
            members.append((hi, nb))
            hi += 1
        self._writeback_run(members, background=self._wb_allowed())

    def _writeback_run(self, members: list[tuple[int, _Page]],
                       background: bool = False) -> None:
        """Write back a set of dirty pages as sorted coalesced runs.

        A single page moves with a plain ``write`` of its buffer, more
        with one ``writev`` of the joined payload.  In the foreground
        the checksums and counters are recorded once the store call has
        returned.  With ``background`` (write-behind) the call is handed
        to the executor instead: the payload is a *copy* (the pages stay
        cached and may be re-dirtied while the write is in flight),
        checksums and counters are recorded at submit time — the same
        values — and ordering is preserved by waiting for any pending
        write-behind touching the same pages (per-page FIFO) and by the
        bounded queue.
        """
        if not members:
            return
        members = sorted(members, key=lambda m: m[0])
        ps = self.page_size
        if len(members) == 1:
            pageno, page = members[0]
            calls, vectored = 1, 0
            payload = bytes(page.buf.data) if background else page.buf.data
            call, args = self.store.write, (pageno * ps, payload)
        else:
            starts, counts = coalesce_addresses(
                np.asarray([p for p, _pg in members], dtype=np.int64))
            extents = [(int(s) * ps, int(c) * ps)
                       for s, c in zip(starts, counts)]
            calls = vectored = len(extents)
            payload = b"".join(pg.buf.data for _p, pg in members)
            call, args = self.store.writev, (extents, payload)
        if background:
            pages = frozenset(p for p, _pg in members)
            self._wb_wait_overlap(pages)
            while len(self._wb) >= _WB_QUEUE:
                self.stats.writebehind_stalls += 1
                fut, _pages = self._wb.popleft()
                fut.result()
            fut = self._executor.submit(
                call, *args,
                key=("mpool-wb", id(self), members[0][0], len(members)))
            self._wb.append((fut, pages))
            self.stats.writebehind_runs += 1
            self.stats.writebehind_bytes += len(payload)
        else:
            call(*args)
        if self.guard is not None:
            mv = memoryview(payload)
            for i, (p, _pg) in enumerate(members):
                self.guard.record(p, mv[i * ps:(i + 1) * ps])
        self.stats.writebacks += len(members)
        self.stats.syscalls += calls
        self.stats.coalesced_runs += vectored
        self.stats.bytes_written += len(payload)
        for _p, pg in members:
            pg.dirty = False

    # ------------------------------------------------------------------
    # write-behind (executor-backed eviction write-backs)
    # ------------------------------------------------------------------
    def _wb_allowed(self) -> bool:
        """Evictions write behind whenever an executor is attached —
        except with armed fault machinery: crash tests reason about
        exactly which bytes are down at each crash point."""
        return self._executor is not None and not faultsites.any_active()

    def _wb_wait_overlap(self, pages: set[int] | frozenset[int]) -> None:
        """Wait for pending write-behind futures touching ``pages``.

        Demand faults call this before reading the store (a just-evicted
        page must not be re-read before its write-back lands), and new
        write-behind submissions call it so overlapping writes apply in
        submission order.
        """
        if not self._wb:
            return
        keep: "deque[tuple[Future, frozenset[int]]]" = deque()
        while self._wb:
            fut, wpages = self._wb.popleft()
            if wpages & pages:
                fut.result()
            else:
                keep.append((fut, wpages))
        self._wb = keep

    def _wb_drain(self) -> None:
        """Barrier: wait for every pending write-behind, re-raising the
        first failure."""
        error: BaseException | None = None
        while self._wb:
            fut, _pages = self._wb.popleft()
            try:
                fut.result()
            except BaseException as exc:  # noqa: BLE001
                if error is None:
                    error = exc
        if error is not None:
            raise error

    def drain_writebehind(self) -> None:
        """Public barrier: every pending background write-back has
        reached the store when this returns.  Streaming I/O that
        bypasses the pool calls this before touching the store."""
        with self._lock:
            self._wb_drain()

    # ------------------------------------------------------------------
    # read-ahead (access-pattern detector + background faults)
    # ------------------------------------------------------------------
    def _note_scalar_access(self, pageno: int) -> None:
        """Feed the scalar stride detector; issue read-ahead on a
        repeating stride (2 consecutive equal strides)."""
        if self._readahead <= 0:
            return
        last = self._ra_last
        self._ra_last = pageno
        if last is None:
            return
        stride = pageno - last
        if stride != 0 and stride == self._ra_stride:
            self._ra_streak += 1
        else:
            self._ra_stride = stride
            self._ra_streak = 1 if stride != 0 else 0
        if self._ra_streak >= 2:
            self._maybe_prefetch(
                [pageno + stride * k
                 for k in range(1, self._readahead + 1)])

    def _note_batch_access(self, distinct: list[int]) -> None:
        """Feed the batch stride detector: DRX plan execution issues
        same-shaped batches at a constant page stride, so once the
        stride repeats, the *next* batch (this one shifted by the
        stride) is read ahead."""
        if self._readahead <= 0 or not distinct:
            return
        start = distinct[0]
        prev = self._b_start
        self._b_start = start
        if prev is None:
            return
        stride = start - prev
        if stride > 0 and stride == self._b_stride:
            self._b_streak += 1
        else:
            self._b_stride = stride
            self._b_streak = 1 if stride > 0 else 0
        if self._b_streak >= 2:
            self._maybe_prefetch(
                [p + stride for p in distinct][:self._readahead])

    def _maybe_prefetch(self, predicted: list[int]) -> None:
        """Issue background reads for the predicted pages (best effort).

        Skips pages already resident, already in flight, overlapping a
        pending write-back, or past the store's end.  Counters for the
        issued store traffic land immediately (deterministically —
        issuance depends only on the access sequence, never on
        completion timing).
        """
        ex = self._executor
        if ex is None or not predicted:
            return
        if faultsites.any_active():
            return
        ps = self.page_size
        limit = self.store.size
        wb_pages: set[int] = set()
        for _fut, wpages in self._wb:
            wb_pages |= wpages
        want = sorted({p for p in predicted
                       if p >= 0 and p * ps < limit
                       and p not in self._pages
                       and p not in self._pf
                       and p not in wb_pages})
        if len(want) < max(1, self._readahead // 2):
            # issue in blocks: trickling out the marginal page every
            # access would be adopted one access later with no time to
            # overlap anything — wait until half a window accumulates
            return
        if len(self._pf) > 4 * max(self._readahead, 1) + 8:
            self._pf_discard(wait=False)
        starts, counts = coalesce_addresses(
            np.asarray(want, dtype=np.int64))
        for s, c in zip(starts, counts):
            start, count = int(s), int(c)
            fut = ex.submit(self._pf_read, start, count,
                            key=("mpool-pf", id(self), start, count))
            for p in range(start, start + count):
                self._pf[p] = fut
            self.stats.prefetch_issued += 1
            self.stats.prefetch_pages += count
            self.stats.syscalls += 1
            self.stats.coalesced_runs += 1
            self.stats.bytes_faulted += count * ps

    def _pf_read(self, start: int, count: int) -> tuple[int, bytes]:
        """Executor task: one contiguous background read."""
        ps = self.page_size
        return start, self.store.readv([(start * ps, count * ps)])

    def _adopt_prefetch(self, pageno: int) -> _Page | None:
        """Install page ``pageno`` from a pending read-ahead, or return
        ``None`` (no read-ahead covers it / the background read failed —
        the caller faults normally)."""
        fut = self._pf.pop(pageno, None)
        if fut is None:
            return None
        try:
            start, blob = fut.result()
        except Exception:
            return None     # advisory data only; demand path recovers
        at = (pageno - start) * self.page_size
        self._make_room(1)
        return self._install(pageno, blob[at:at + self.page_size])

    def _pf_discard(self, wait: bool) -> None:
        """Drop every pending read-ahead (counting unused pages as
        dropped).  With ``wait`` the futures are joined first — used
        before the store may close; otherwise the in-flight reads finish
        in the background and their results are simply never consumed."""
        if not self._pf:
            return
        futs = {id(f): f for f in self._pf.values()}
        self.stats.prefetch_dropped += len(self._pf)
        self._pf.clear()
        if wait:
            for f in futs.values():
                try:
                    f.result()
                except Exception:
                    pass

    def discard_prefetch(self) -> None:
        """Public form of :meth:`_pf_discard`: streaming writes bypass
        the pool, so any read-ahead still in flight could capture
        pre-write bytes and later resurface them — they are invalidated
        wholesale instead."""
        with self._lock:
            self._pf_discard(wait=False)

    # ------------------------------------------------------------------
    # coherence hooks for streaming I/O that bypasses the pool
    # ------------------------------------------------------------------
    def peek_dirty(self, pageno: int) -> np.ndarray | None:
        """The cached buffer of ``pageno`` if it is resident *and* dirty,
        else ``None``.  No pin, no LRU touch, no counters — used by
        streaming reads to stay coherent with unflushed writes."""
        with self._lock:
            page = self._pages.get(pageno)
            if page is not None and page.dirty:
                return page.buf
            return None

    def refresh(self, pageno: int, data) -> None:
        """Overwrite the cached copy of ``pageno`` (if resident) with the
        bytes just written to the store, clearing its dirty bit — used by
        streaming writes so stale cached pages cannot resurface."""
        with self._lock:
            page = self._pages.get(pageno)
            if page is not None:
                page.buf[:] = np.frombuffer(data, dtype=np.uint8)
                page.dirty = False

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Write back every dirty page in page-number order, coalescing
        consecutive pages into single vectored runs (pages stay cached).

        Acts as the write-behind barrier: pending background write-backs
        are drained (and read-aheads retired) *before* the crash point
        fires, so the crash sites keep their exact serial meaning — at
        ``mpool.flush.begin`` no dirty page of this flush has been
        written and no background I/O is in flight.
        """
        with self._lock:
            self._wb_drain()
            self._pf_discard(wait=True)
            crash_point("mpool.flush.begin")
            dirty = [(p, pg) for p, pg in self._pages.items() if pg.dirty]
            self._writeback_run(dirty)
            crash_point("mpool.flush.after_writeback")
            self.store.flush()

    def abandon(self) -> None:
        """Forget every page and pending prefetch WITHOUT writing
        anything back — the simulated-crash path.

        Background write-backs already in flight are awaited (they were
        issued before the crash instant; whether they land is the
        store's business, exactly as a real kernel may or may not have
        completed a queued write), but no *new* write-back is started
        and every dirty page is dropped on the floor.  Used by
        ``DRXFile.abandon()`` when the serve daemon dies abruptly.
        """
        with self._lock:
            self._pf_discard(wait=True)
            for fut, _pages in list(self._wb):
                try:
                    fut.result()
                except Exception:       # noqa: BLE001 - crash path
                    pass
            self._wb.clear()
            self._pages = OrderedDict()

    def invalidate(self) -> None:
        """Drop every unpinned page (dirty ones are written back first,
        in sorted coalesced runs); pending background I/O is retired."""
        with self._lock:
            self._wb_drain()
            self._pf_discard(wait=True)
            self._writeback_run(
                [(p, pg) for p, pg in self._pages.items()
                 if pg.dirty and pg.pins == 0]
            )
            keep: "OrderedDict[int, _Page]" = OrderedDict()
            for pageno, page in self._pages.items():
                if page.pins > 0:
                    keep[pageno] = page
            self._pages = keep

    @property
    def cached_pages(self) -> int:
        with self._lock:
            return len(self._pages)

    @property
    def pinned_pages(self) -> int:
        with self._lock:
            return sum(1 for p in self._pages.values() if p.pins > 0)
