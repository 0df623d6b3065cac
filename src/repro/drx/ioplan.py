"""I/O planning: coalescing sorted chunk addresses into contiguous runs.

The mapping function ``F*`` lays an extendible array out so that the
chunks of any rectilinear region sort into long stretches of consecutive
linear addresses — the paper's "sequential scan of the chunks on disk".
The per-chunk transfer loops in :class:`~repro.drx.drxfile.DRXFile` and
:class:`~repro.drx.mpool.Mpool` used to throw that contiguity away by
issuing one store call per chunk.  This module turns a box or hyperslab
request into an :class:`IOPlan`: the chunk visits in increasing linear
address order, grouped into **maximal contiguous runs**, each of which
can move with a single vectored store call (the serial analog of MPI-IO
data sieving / two-phase aggregation).

How a plan is compiled: a box's overlap with a chunk is separable, so
the compiler walks each dimension's chunk range once
(:func:`~repro.core.chunking.axis_rows`).  Every chunk index ``i`` along
dimension ``j`` gets a row entry — its chunk and box slices, whether it
is full along ``j``, and its candidate record
``eci.axial_vectors[j].search(i)`` (one binary search).  A hyperslab's
lattice is applied to the rows too, dropping entries that hold no
lattice point.  The chunks are the product of the rows; each takes the
candidate with the largest segment start as its governing record and
its address from that record's Eq. (1) — the paper's ``F*``, with the
binary searches done once per row entry instead of once per chunk.  The
visits are sorted by address and :class:`IOPlan` cuts them into runs in
one pass.  The compiler is scalar Python on purpose: most requests
cover a few chunks, where NumPy's fixed cost per call outweighs the
arithmetic.  Zone file views, whose batches hold hundreds of chunks,
use :func:`~repro.core.mapping.f_star_many` instead.

The planner is pure geometry + address arithmetic; the transfers live in
``DRXFile`` (which executes plans against its :class:`Mpool` and
:class:`~repro.drx.storage.ByteStore`) and in
:func:`repro.drxmp.subarray.indexed_filetype` (which folds runs into the
blocklengths of the MPI indexed filetype).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import product
from operator import attrgetter
from typing import Iterator, Sequence

import numpy as np

from ..core.chunking import AxisEntry, axis_rows
from ..core.errors import DRXIndexError
from ..core.extendible import ExtendibleChunkIndex
from ..core.hyperslab import Hyperslab

__all__ = ["Visit", "Run", "IOPlan", "PlanCache", "coalesce_addresses",
           "plan_box", "plan_slab"]

#: A half-open byte extent ``(offset, length)``.
Extent = tuple[int, int]


def coalesce_addresses(addresses: np.ndarray | Sequence[int]
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Group strictly increasing chunk addresses into contiguous runs.

    Returns ``(starts, counts)``: run ``i`` covers addresses
    ``starts[i] .. starts[i] + counts[i] - 1``.  Raises
    :class:`DRXIndexError` when the input is not strictly increasing
    (planners always sort and deduplicate first).
    """
    a = np.ascontiguousarray(addresses, dtype=np.int64)
    if a.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    gaps = np.diff(a)
    if np.any(gaps < 1):
        raise DRXIndexError(
            "addresses must be strictly increasing to coalesce"
        )
    breaks = np.empty(a.size, dtype=bool)
    breaks[0] = True
    breaks[1:] = gaps > 1
    starts = a[breaks]
    first = np.flatnonzero(breaks)
    counts = np.diff(np.append(first, a.size))
    return starts, counts.astype(np.int64)


@dataclass(frozen=True, slots=True)
class Visit:
    """One chunk touched by a request, with its scatter/gather slices.

    ``chunk_slices`` select the transferred region inside the chunk
    (local coordinates, possibly strided for hyperslabs); ``box_slices``
    select the matching region of the request's in-memory array.
    ``full`` is True when the whole chunk payload moves with unit stride
    — such writes need no read-modify-write.
    """

    address: int
    chunk_slices: tuple[slice, ...]
    box_slices: tuple[slice, ...]
    full: bool


@dataclass(frozen=True, slots=True)
class Run:
    """A maximal stretch of consecutive chunk addresses.

    ``first`` indexes the run's first chunk in the plan's visit list, so
    ``plan.visits[first:first + count]`` are exactly this run's visits.
    """

    start: int
    count: int
    first: int

    def byte_extent(self, chunk_nbytes: int) -> Extent:
        return (self.start * chunk_nbytes, self.count * chunk_nbytes)


class IOPlan:
    """A request compiled to file order: sorted visits + contiguous runs."""

    __slots__ = ("visits", "runs", "chunk_nbytes")

    def __init__(self, visits: list[Visit], chunk_nbytes: int) -> None:
        self.visits = visits
        self.chunk_nbytes = chunk_nbytes
        # one pass: a run breaks wherever the next address is not the
        # previous one plus one
        runs: list[Run] = []
        if visits:
            start = prev = visits[0].address
            first = 0
            for n in range(1, len(visits)):
                a = visits[n].address
                if a != prev + 1:
                    if a <= prev:
                        raise DRXIndexError(
                            "visit addresses must be strictly increasing"
                        )
                    runs.append(Run(start, n - first, first))
                    start, first = a, n
                prev = a
            runs.append(Run(start, len(visits) - first, first))
        self.runs = runs

    @property
    def num_chunks(self) -> int:
        return len(self.visits)

    @property
    def num_runs(self) -> int:
        return len(self.runs)

    @property
    def addresses(self) -> list[int]:
        return [v.address for v in self.visits]

    def byte_extents(self) -> list[Extent]:
        """One byte extent per run — the vectored transfer list."""
        return [r.byte_extent(self.chunk_nbytes) for r in self.runs]

    def run_visits(self) -> Iterator[tuple[Run, list[Visit]]]:
        for r in self.runs:
            yield r, self.visits[r.first:r.first + r.count]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"IOPlan({self.num_chunks} chunks in {self.num_runs} runs, "
                f"chunk_nbytes={self.chunk_nbytes})")


class PlanCache:
    """A bounded, generation-keyed memo of compiled :class:`IOPlan`\\ s.

    Request geometry (box corners, hyperslab parameters) plus the axial
    index's **generation** form the key, so any :meth:`extend` — which
    bumps the generation — implicitly invalidates every cached plan; no
    explicit flush hook can be forgotten.  Plans are compiled in
    *logical* chunk-address space: the compressed slot table remaps
    logical addresses to physical extents at I/O time, so compaction and
    codec rewrites never stale a cached plan (pinned by regression
    test).  Cached plans are immutable after construction and may be
    executed concurrently by multiple reader threads.

    ``stats`` (optional) is a :class:`~repro.drx.storage.StoreStats`
    whose ``plan_hits``/``plan_misses`` counters make the hit rate
    observable.

    With the per-dimension compiler a miss costs little more than a
    lookup, so the cache earns little.  It stays because the repository
    benchmark's tracer binds its ``core.plan_map`` boundary to
    :meth:`box`/:meth:`slab` (and ``core.plan_lookup``/``plan_store`` to
    :meth:`lookup`/:meth:`store`); deleting it waits for a
    benchmark-side change that moves that boundary.
    """

    def __init__(self, max_entries: int = 256, stats=None) -> None:
        self.max_entries = max(1, int(max_entries))
        self.stats = stats
        self._plans: "OrderedDict[tuple, IOPlan]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._plans)

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()

    def lookup(self, key: tuple) -> IOPlan | None:
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
            if self.stats is not None:
                self.stats.note_plan(plan is not None)
            return plan

    def store(self, key: tuple, plan: IOPlan) -> None:
        with self._lock:
            # a generation bump obsoletes every older entry wholesale;
            # dropping them keeps the LRU from squatting on dead keys
            gen = key[1]
            if self._plans:
                first = next(iter(self._plans))
                if first[1] != gen:
                    self._plans.clear()
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.max_entries:
                self._plans.popitem(last=False)

    # -- convenience wrappers over the pure planners -------------------
    def box(self, eci: ExtendibleChunkIndex, lo, hi,
            chunk_shape, chunk_nbytes: int) -> IOPlan:
        key = ("box", eci.generation, tuple(lo), tuple(hi))
        plan = self.lookup(key)
        if plan is None:
            plan = plan_box(eci, lo, hi, chunk_shape, chunk_nbytes)
            self.store(key, plan)
        return plan

    def slab(self, eci: ExtendibleChunkIndex, slab: Hyperslab,
             chunk_shape, chunk_nbytes: int) -> IOPlan:
        key = ("slab", eci.generation, slab.start, slab.stride,
               slab.count)
        plan = self.lookup(key)
        if plan is None:
            plan = plan_slab(eci, slab, chunk_shape, chunk_nbytes)
            self.store(key, plan)
        return plan


def plan_box(eci: ExtendibleChunkIndex, lo: Sequence[int],
             hi: Sequence[int], chunk_shape: Sequence[int],
             chunk_nbytes: int) -> IOPlan:
    """Compile a dense box request ``[lo, hi)`` into an :class:`IOPlan`."""
    return _compile(eci, _checked_rows(eci, lo, hi, chunk_shape),
                    chunk_nbytes)


def plan_slab(eci: ExtendibleChunkIndex, slab: Hyperslab,
              chunk_shape: Sequence[int], chunk_nbytes: int) -> IOPlan:
    """Compile a strided hyperslab into an :class:`IOPlan`.

    Chunks of the slab's bounding box that hold no lattice point are
    dropped; the surviving visits carry strided ``chunk_slices`` picking
    the lattice and dense ``box_slices`` into the result array.  The
    lattice is separable, so it is applied to each dimension's row: an
    entry with no lattice point drops every chunk that contains it.
    """
    lo, hi = slab.bounding_box()
    rows = []
    for j, row in enumerate(_checked_rows(eci, lo, hi, chunk_shape)):
        l, c = lo[j], chunk_shape[j]
        kept = []
        for i, cs, bs, full in row:
            sel = slab.axis_selector(j, l + bs.start, l + bs.stop)
            if sel is not None:
                rs, out = sel
                kept.append((i, slice(cs.start + rs.start,
                                      cs.start + rs.stop, rs.step), out,
                             full and rs.step == 1 and rs.start == 0
                             and rs.stop == c))
        rows.append(kept)
    return _compile(eci, rows, chunk_nbytes)


def _checked_rows(eci: ExtendibleChunkIndex, lo: Sequence[int],
                  hi: Sequence[int], chunk_shape: Sequence[int]
                  ) -> list[list[AxisEntry]]:
    """:func:`axis_rows` of a non-empty box inside the chunk bounds."""
    rows = axis_rows(lo, hi, chunk_shape)
    problem = None
    if len(rows) != eci.rank:
        problem = f"has rank {len(rows)}, not the array's {eci.rank}"
    elif not all(rows):
        problem = "is empty"
    elif any(row[0][0] < 0 or row[-1][0] >= n
             for row, n in zip(rows, eci.bounds)):
        problem = f"leaves the chunk bounds {eci.bounds}"
    if problem is not None:
        raise DRXIndexError(
            f"box lo={tuple(lo)} hi={tuple(hi)} with chunk shape "
            f"{tuple(chunk_shape)} {problem}"
        )
    return rows


def _compile(eci: ExtendibleChunkIndex, rows: list[list[AxisEntry]],
             chunk_nbytes: int) -> IOPlan:
    """The plan of the chunks in the product of per-dimension rows.

    Each row entry gets its dimension's candidate record (one binary
    search).  A chunk's governing record is its candidate with the
    largest segment start, and its address is that record's Eq. (1).
    Live records never share a start and sentinels (-1) never win, so
    the dimension index in each key only keeps ``max`` from comparing
    records.
    """
    keyed = []
    for j, (row, vec) in enumerate(zip(rows, eci.axial_vectors)):
        keyed_row = []
        for i, cs, bs, full in row:
            rec = vec.search(i)
            keyed_row.append((rec.start_address, j, rec, i, cs, bs, full))
        keyed.append(keyed_row)
    visits = []
    for chunk in product(*keyed):
        gov = max(chunk)[2]
        _, _, _, index, cs, bs, full = zip(*chunk)
        visits.append(Visit(gov.address_of(index), cs, bs, all(full)))
    visits.sort(key=attrgetter("address"))
    return IOPlan(visits, chunk_nbytes)
