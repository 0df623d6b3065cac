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
(:func:`~repro.core.chunking.axis_row`): every chunk index ``i`` along
dimension ``j`` gets a row entry — its chunk and box slices and whether
it is full along ``j``.  The row is cut where the dimension's candidate
record changes: :meth:`~repro.core.axial.AxialVector.span` returns the
candidate of the row's first index and the index where the next record
starts, so a row costs one binary search per piece.  A handle's
:class:`PlanCache` memoizes each cut row under the index generation, so
a coordinate range seen before costs one dictionary hit.  A hyperslab's
lattice filters the pieces' entries, dropping those that hold no
lattice point.  A product of pieces, one per dimension, is a *block*:
all its chunks have the same candidates, hence the same governing
record (the candidate with the largest segment start), and the paper's
Eq. (1) for them reduces to ``base + sum(i_j * C_j)`` with the record's
coefficients ``C`` and ``base = M* - N*_l * C_l``.  So the ``max`` and
the searches are paid once per block, and each chunk costs its
arithmetic and one :class:`Visit`.  A box inside one segment per
dimension (any box of an array never extended, for one) is one block;
a box across a seam is several.  A block comes out in row-major
order, which is address order when its record extends dimension 0;
any other plan is sorted once.  :class:`IOPlan` cuts the visits into
runs only when asked.  The compiler is scalar Python on purpose: most
requests cover a few chunks, where NumPy's fixed cost per call
outweighs the arithmetic.  Zone file views, whose batches hold hundreds
of chunks, use :func:`~repro.core.mapping.f_star_many` instead.

The planner is pure geometry + address arithmetic; the transfers live in
``DRXFile``, which executes plans against its :class:`Mpool` and
:class:`~repro.drx.chunkstore.ChunkStore`.  DRX-MP plans a zone with
one vectorized ``F*`` and a sort instead (:mod:`repro.drxmp.subarray`),
and its file view merges the chunk store's physically adjacent extents
into runs.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import cached_property
from itertools import product
from typing import Iterator, NamedTuple, Sequence

from ..core.axial import AxialRecord
from ..core.chunking import AxisEntry, axis_row
from ..core.errors import DRXIndexError
from ..core.extendible import ExtendibleChunkIndex
from ..core.hyperslab import Hyperslab

__all__ = ["Visit", "Run", "IOPlan", "PlanCache", "ROW_MEMO_CAP",
           "plan_box", "plan_slab"]

#: A half-open byte extent ``(offset, length)``.
Extent = tuple[int, int]


class Visit(NamedTuple):
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


class Run(NamedTuple):
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
    """A request compiled to file order: sorted visits + contiguous runs.

    The runs are cut on first use: the pool and the chunk store find the
    runs of the addresses they move themselves, so a request pays for
    ``runs`` only where something reads it.
    """

    def __init__(self, visits: list[Visit], chunk_nbytes: int) -> None:
        self.visits = visits
        self.chunk_nbytes = chunk_nbytes

    @cached_property
    def runs(self) -> list[Run]:
        # one pass: a run breaks wherever the next address is not the
        # previous one plus one
        runs: list[Run] = []
        visits = self.visits
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
        return runs

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


#: The most cut rows one :class:`PlanCache` holds.  A full memo is
#: cleared, not trimmed, so a hit does no bookkeeping.
ROW_MEMO_CAP = 4096


class PlanCache:
    """A bounded, generation-keyed memo of compiled :class:`IOPlan`\\ s.

    Request geometry (box corners, hyperslab parameters) plus the axial
    index's **generation** form the key, so any :meth:`extend` — which
    bumps the generation — implicitly invalidates every cached plan; no
    explicit flush hook can be forgotten.  Plans are compiled in
    *logical* chunk-address space: the compressed slot table remaps
    logical addresses to physical extents at I/O time, so compaction and
    codec rewrites never stale a cached plan (pinned by regression
    test).  A cached plan does not change once compiled (its runs are
    cut once, on first use) and may be executed concurrently by
    multiple reader threads.

    ``stats`` (optional) is a :class:`~repro.drx.storage.StoreStats`
    whose ``plan_hits``/``plan_misses`` counters make the hit rate
    observable.  The cache is their only writer and counts under its
    own lock, so a lookup takes one lock, not two.

    Whole-box plans rarely repeat (random small boxes hit about one
    lookup in a thousand), but their coordinate ranges do: a workload
    of random 16x32 boxes draws a few hundred distinct ``(lo_j, hi_j)``
    per dimension.  So a miss compiles from a second memo, each
    dimension's cut row keyed by ``(dimension, lo_j, hi_j, chunk
    extent)`` and kept for one index generation (an extend starts an
    empty one, as :meth:`store` drops stale plans).  A hit there stands
    for a range checked under that generation; the API boundary still
    validates every box.  The row memo holds at most
    :data:`ROW_MEMO_CAP` rows (about 2.5 MiB of 16- and 32-wide rows
    of 64-wide chunks) and is cleared when full.  Per call, for a 2-D
    box of one to four chunks (2-vCPU Xeon, Python 3.11, ``timeit``
    minimum): both rows from the memo 0.9 µs, both cut afresh 4.2 µs;
    the block product after them 3 µs; a whole-box hit 0.7 µs.  The
    whole-box memo stays because the repository benchmark's tracer
    binds its ``core.plan_map`` boundary to :meth:`box`/:meth:`slab`
    (and ``core.plan_lookup``/``plan_store`` to :meth:`lookup`/
    :meth:`store`, whose call counts give ``drx.plan_hit_ratio``; row
    hits are not counted there).
    """

    def __init__(self, max_entries: int = 256, stats=None) -> None:
        self.max_entries = max(1, int(max_entries))
        self.stats = stats
        self._plans: "OrderedDict[tuple, IOPlan]" = OrderedDict()
        #: the generation of every key held (keys carry it at ``[1]``)
        self._generation = None
        self._lock = threading.Lock()
        #: ``(generation, row memo)``, replaced whole by a new generation
        self._rows: tuple = (None, {})

    def __len__(self) -> int:
        return len(self._plans)

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self._rows = (None, {})

    def _row_memo(self, generation: int) -> dict:
        """The row memo of ``generation``: the current one, or a new
        empty one that replaces it.  A miss stores its rows only into
        the memo of the generation its key was read under."""
        gen, memo = self._rows
        if gen != generation:
            memo = {}
            self._rows = (generation, memo)
        return memo

    def lookup(self, key: tuple) -> IOPlan | None:
        with self._lock:
            plan = self._plans.get(key)
            stats = self.stats
            if plan is not None:
                self._plans.move_to_end(key)
                if stats is not None:
                    stats.plan_hits += 1
            elif stats is not None:
                stats.plan_misses += 1
            return plan

    def store(self, key: tuple, plan: IOPlan) -> None:
        with self._lock:
            plans = self._plans
            # a generation bump obsoletes every older entry wholesale;
            # dropping them keeps the LRU from squatting on dead keys
            if key[1] != self._generation:
                plans.clear()
                self._generation = key[1]
            plans[key] = plan
            plans.move_to_end(key)
            if len(plans) > self.max_entries:
                plans.popitem(last=False)

    # -- convenience wrappers over the pure planners -------------------
    def box(self, eci: ExtendibleChunkIndex, lo, hi,
            chunk_shape, chunk_nbytes: int) -> IOPlan:
        key = ("box", eci.generation, tuple(lo), tuple(hi))
        plan = self.lookup(key)
        if plan is None:
            plan = plan_box(eci, lo, hi, chunk_shape, chunk_nbytes,
                            self._row_memo(key[1]))
            self.store(key, plan)
        return plan

    def slab(self, eci: ExtendibleChunkIndex, slab: Hyperslab,
             chunk_shape, chunk_nbytes: int) -> IOPlan:
        key = ("slab", eci.generation, slab.start, slab.stride,
               slab.count)
        plan = self.lookup(key)
        if plan is None:
            plan = plan_slab(eci, slab, chunk_shape, chunk_nbytes,
                             self._row_memo(key[1]))
            self.store(key, plan)
        return plan


def plan_box(eci: ExtendibleChunkIndex, lo: Sequence[int],
             hi: Sequence[int], chunk_shape: Sequence[int],
             chunk_nbytes: int, memo: dict | None = None) -> IOPlan:
    """Compile a dense box request ``[lo, hi)`` into an :class:`IOPlan`.

    ``memo`` is a row memo of ``eci``'s current generation (see
    :class:`PlanCache`); without one every dimension's row is cut
    afresh."""
    return _compile(_checked_rows(eci, lo, hi, chunk_shape,
                                  {} if memo is None else memo),
                    chunk_nbytes)


def plan_slab(eci: ExtendibleChunkIndex, slab: Hyperslab,
              chunk_shape: Sequence[int], chunk_nbytes: int,
              memo: dict | None = None) -> IOPlan:
    """Compile a strided hyperslab into an :class:`IOPlan`.

    Chunks of the slab's bounding box that hold no lattice point are
    dropped; the surviving visits carry strided ``chunk_slices`` picking
    the lattice and dense ``box_slices`` into the result array.  The
    lattice is separable, so it is applied to each dimension's row: an
    entry with no lattice point drops every chunk that contains it.
    ``memo`` is as for :func:`plan_box`: it holds the bounding box's
    rows, which the lattice filters into new lists.
    """
    lo, hi = slab.bounding_box()
    rows = []
    for j, pieces in enumerate(_checked_rows(
            eci, lo, hi, chunk_shape, {} if memo is None else memo)):
        l, c = lo[j], chunk_shape[j]
        kept = []
        for start, dim, rec, row in pieces:
            entries = []
            for i, cs, bs, full in row:
                sel = slab.axis_selector(j, l + bs.start, l + bs.stop)
                if sel is not None:
                    rs, out = sel
                    entries.append((i, slice(cs.start + rs.start,
                                             cs.start + rs.stop, rs.step),
                                    out, full and rs.step == 1
                                    and rs.start == 0 and rs.stop == c))
            if entries:
                kept.append((start, dim, rec, entries))
        rows.append(kept)
    return _compile(rows, chunk_nbytes)


#: A stretch of one dimension's row with one candidate record:
#: ``(record.start_address, dimension, record, entries)``.  The first
#: two fields key ``max`` over a block's pieces: live records never
#: share a start, and sentinels (-1, which never win) tie only with
#: each other, where the dimension settles it before records compare.
Piece = tuple[int, int, AxialRecord, list[AxisEntry]]


def _checked_rows(eci: ExtendibleChunkIndex, lo: Sequence[int],
                  hi: Sequence[int], chunk_shape: Sequence[int],
                  memo: dict) -> list[list[Piece]]:
    """The rows (:func:`axis_row`) of a non-empty box inside the chunk
    bounds, each cut where its dimension's candidate record changes.

    ``memo`` maps ``(dimension, lo_j, hi_j, chunk extent)`` to the cut
    row of that range, for one index generation: a key found there was
    checked and cut under that generation, so a hit is the whole cost
    of its dimension.  A miss is checked, cut and stored; a full memo
    is cleared first, so it never holds more than
    :data:`ROW_MEMO_CAP` rows.
    """
    if not len(lo) == len(hi) == len(chunk_shape) == eci.rank:
        raise _bad_box(lo, hi, chunk_shape,
                       f"has rank {len(lo)}, not the array's {eci.rank}")
    rows = []
    for key in zip(range(len(lo)), lo, hi, chunk_shape):
        pieces = memo.get(key)
        if pieces is None:
            pieces = _cut_row(eci, key, lo, hi, chunk_shape)
            if len(memo) >= ROW_MEMO_CAP:
                memo.clear()
            memo[key] = pieces
        rows.append(pieces)
    return rows


def _cut_row(eci: ExtendibleChunkIndex, key: tuple[int, int, int, int],
             lo, hi, chunk_shape) -> list[Piece]:
    """One dimension's checked row of ``[l, h)`` in chunks of extent
    ``c``, cut into pieces of one candidate record each.

    A row holds consecutive chunk indices, so :meth:`AxialVector.span`
    says where each piece ends without a search inside it: one binary
    search per piece, and one for a range that stays inside a segment.
    """
    j, l, h, c = key
    if l >= h:
        raise _bad_box(lo, hi, chunk_shape, "is empty")
    bounds = eci.bounds
    first = l // c
    last = (h - 1) // c
    if first < 0 or last >= bounds[j]:
        raise _bad_box(lo, hi, chunk_shape,
                       f"leaves the chunk bounds {bounds}")
    row = axis_row(l, h, c)
    vec = eci.axial_vectors[j]
    rec, end = vec.span(first)
    pieces = []
    at = 0
    while end <= last:
        cut = end - first
        pieces.append((rec.start_address, j, rec, row[at:cut]))
        at = cut
        rec, end = vec.span(end)
    pieces.append((rec.start_address, j, rec, row[at:] if at else row))
    return pieces


def _bad_box(lo, hi, chunk_shape, problem: str) -> DRXIndexError:
    return DRXIndexError(f"box lo={tuple(lo)} hi={tuple(hi)} with chunk "
                         f"shape {tuple(chunk_shape)} {problem}")


def _compile(rows: list[list[Piece]], chunk_nbytes: int) -> IOPlan:
    """The plan of the chunks in the product of per-dimension rows.

    A product of pieces, one per dimension, is a *block*: its chunks
    share every candidate record, so the candidate with the largest
    segment start governs the whole block, and Eq. (1) collapses to
    ``base + sum(i_j * C_j)`` over the governing record's coefficients
    ``C``.  A block's visits come out in row-major order, which is
    address order when its record extends dimension 0; any other plan
    is sorted once.
    """
    visits: list[Visit] = []
    in_order = True
    for block in product(*rows):
        gov = max(block)[2]
        in_order = in_order and not (gov.dim or visits)
        coeffs = gov.coeffs
        acc = [(gov.start_address - gov.start_index * coeffs[gov.dim],
                (), (), True)]
        for piece, c in zip(block, coeffs):
            acc = [(a + i * c, cs + (ecs,), bs + (ebs,), full and efull)
                   for a, cs, bs, full in acc
                   for i, ecs, ebs, efull in piece[3]]
        visits += map(Visit._make, acc)
    if not in_order:
        visits.sort()       # addresses are distinct: tuples order by them
    return IOPlan(visits, chunk_nbytes)

