"""An Mpool-style buffer pool (the BerkeleyDB Mpool analog).

The paper: "DRX has the added feature that the memory arrays can be
maintained as either conventional arrays or memory resident extendible
arrays with I/O caching using the BerkeleyDB Mpool sub-system."

The pool caches fixed-size *pages* (one page = one chunk of the array)
with the classic Mpool discipline:

* ``get(pageno)`` pins a page, faulting it in from the store on a miss;
* ``get_many(pagenos)`` pins a batch, faulting every miss with a single
  store transfer;
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

The pool pages through a :class:`~repro.drx.chunkstore.ChunkStore` by
chunk number: it never builds a byte extent, never sees a checksum and
never sees a codec.  Faults and write-backs each name their sorted page
numbers, and the chunk store places, verifies and (for a compressed
array) decodes or encodes them with one transfer — so the pool caches
*decompressed* pages and hot pages pay the codec once, not per access.

Concurrency: the pool is demand-paged and serial.  Every fault, eviction
write-back and flush runs on the calling thread, under one reentrant
lock around every public entry point, so the MPI-as-threads ranks and
the serve daemon's workers can share one pool.  It reads nothing ahead
and writes nothing behind: on a store whose transfers run on the
caller's thread (the PFS simulator, a POSIX file) a background hop only
overlaps I/O with I/O, and costs a thread handoff each time.  The only
threads below the pool are the chunk store's ``codec`` tier, which
splits a compressed transfer's decode and encode and never takes the
pool lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.errors import DRXError
from ..core.faultsites import crash_point
from .chunkstore import ChunkStore

__all__ = ["Mpool", "MpoolStats"]


def _runs(pages: list[int]) -> int:
    """Contiguous runs in sorted, distinct page numbers."""
    if len(pages) < 2:
        return len(pages)
    return 1 + sum(1 for a, b in zip(pages, pages[1:]) if b != a + 1)


@dataclass
class MpoolStats:
    """Cumulative buffer-pool counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    #: physical store transfers the pool issued (faults + write-backs)
    syscalls: int = 0
    #: contiguous runs moved through vectored (batched) transfers
    coalesced_runs: int = 0
    bytes_faulted: int = 0
    bytes_written: int = 0

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
    """A pinned-page LRU buffer pool over a chunk store (one page per
    chunk)."""

    def __init__(self, store: ChunkStore, max_pages: int = 64) -> None:
        if max_pages < 1:
            raise DRXError(f"pool must hold >= 1 page, got {max_pages}")
        self.store = store
        self.max_pages = max_pages
        self.stats = MpoolStats()
        #: pageno -> page, in LRU order (oldest first)
        self._pages: "OrderedDict[int, _Page]" = OrderedDict()
        #: single reentrant lock around all page-table mutation — the
        #: pool is shared between rank threads and serve workers
        self._lock = threading.RLock()

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
                self.stats.misses += 1
                page = self._read_in([pageno], batch=False)[0]
            page.pins += 1
            return page.buf

    def get_many(self, pagenos: Sequence[int]) -> list[np.ndarray]:
        """Pin a batch of pages, faulting all misses with one store
        transfer.

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
                    faulted = self._read_in(missing, batch=True)
                except BaseException:
                    for p in resident:
                        self._pages[p].pins -= 1
                    raise
                for page in faulted:
                    page.pins = 1           # the same protective pin
            # duplicates in the request pin once per occurrence, like
            # get(); every distinct page (resident or just faulted) holds
            # one protective pin at this point, dropped after the real
            # pins land
            for p in nos:
                self._pages[p].pins += 1
            for p in distinct:
                self._pages[p].pins -= 1
            return [self._pages[p].buf for p in nos]

    def _read_in(self, pages: list[int], batch: bool) -> list[_Page]:
        """Read the (sorted, absent) pages from the chunk store with one
        transfer and cache them clean, unpinned.  Only a ``batch`` fault
        (``get_many``) counts its runs as coalesced."""
        self._make_room(len(pages))
        raws = self.store.read(pages)
        runs = _runs(pages)
        self.stats.syscalls += runs
        self.stats.coalesced_runs += runs if batch else 0
        self.stats.bytes_faulted += len(pages) * self.store.chunk_nbytes
        out = []
        for p, raw in zip(pages, raws):
            page = _Page(np.frombuffer(bytearray(raw), dtype=np.uint8))
            self._pages[p] = page
            out.append(page)
        return out

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
        self._writeback(members)

    def _writeback(self, members: list[tuple[int, _Page]]) -> None:
        """Write back a set of dirty pages with one chunk-store write, in
        page-number order; returns once the store has the bytes."""
        if not members:
            return
        members = sorted(members)     # distinct page numbers: sorts by them
        pages = [p for p, _pg in members]
        if len(members) == 1:
            data = members[0][1].buf.data
        else:
            data = b"".join(pg.buf.data for _p, pg in members)
        self.store.write(pages, data)
        runs = _runs(pages)
        self.stats.writebacks += len(members)
        self.stats.syscalls += runs
        self.stats.coalesced_runs += runs if len(pages) > 1 else 0
        self.stats.bytes_written += len(data)
        for _p, pg in members:
            pg.dirty = False

    def drain_writebehind(self) -> None:
        """Nothing to do: the repository benchmark's tracer binds this name."""

    def discard_prefetch(self) -> None:
        """Nothing to do: the repository benchmark's tracer binds this name."""

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

        At ``mpool.flush.begin`` no dirty page of this flush has been
        written.
        """
        with self._lock:
            crash_point("mpool.flush.begin")
            dirty = [(p, pg) for p, pg in self._pages.items() if pg.dirty]
            self._writeback(dirty)
            crash_point("mpool.flush.after_writeback")
            self.store.flush()

    def abandon(self) -> None:
        """Forget every page WITHOUT writing anything back — the
        simulated-crash path: every dirty page is dropped on the floor.
        Used by ``DRXFile.abandon()`` when the serve daemon dies
        abruptly."""
        with self._lock:
            self._pages = OrderedDict()

    def invalidate(self) -> None:
        """Drop every unpinned page (dirty ones are written back first,
        in sorted coalesced runs)."""
        with self._lock:
            self._writeback(
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
