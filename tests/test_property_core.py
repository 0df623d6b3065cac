"""Property-based tests (hypothesis) of the core invariants.

The paper's correctness rests on three properties of ``F*``:

* **bijectivity** — at every instant the mapping is a bijection between
  the chunk-index box and ``[0, M*)``;
* **stability** — extension never changes an existing address (no
  reorganization, ever);
* **inverse consistency** — ``F*^-1(F*(I)) == I`` and vice versa.

Plus serialization fidelity of the meta-data and the Fig.-2 orders.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    DRXMeta,
    ExtendibleChunkIndex,
    all_addresses,
    f_star_inv_many,
    f_star_many,
    replay_history,
)
from repro.core.hyperslab import Hyperslab
from repro.core.orders import SymmetricShellOrder, ZOrder
from repro.drx.ioplan import ROW_MEMO_CAP, PlanCache, plan_box, plan_slab
from tests.support.fstar_oracle import f_star

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

ranks = st.integers(min_value=1, max_value=4)


@st.composite
def growth_cases(draw, max_steps: int = 8, max_by: int = 3):
    """(initial bounds, growth history) with a bounded final size."""
    k = draw(ranks)
    bounds = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    steps = draw(st.integers(0, max_steps))
    history = [
        (draw(st.integers(0, k - 1)), draw(st.integers(1, max_by)))
        for _ in range(steps)
    ]
    # bound the total size so tests stay fast
    eci = replay_history(bounds, [])
    total = eci.num_chunks
    pruned = []
    sim = list(bounds)
    for dim, by in history:
        grown = total // sim[dim] * (sim[dim] + by)
        if grown > 3000:
            break
        sim[dim] += by
        total = grown
        pruned.append((dim, by))
    return bounds, pruned


@settings(max_examples=120, deadline=None)
@given(growth_cases())
def test_f_star_is_a_bijection(case):
    bounds, history = case
    eci = replay_history(bounds, history)
    grid = all_addresses(eci)
    assert sorted(grid.ravel().tolist()) == list(range(eci.num_chunks))


@settings(max_examples=60, deadline=None)
@given(growth_cases(max_steps=6))
def test_addresses_are_stable_under_growth(case):
    bounds, history = case
    eci = replay_history(bounds, [])
    pinned: dict[tuple, int] = {}
    for dim, by in history:
        grid = all_addresses(eci)
        for idx in np.ndindex(*eci.bounds):
            pinned[idx] = int(grid[idx])
        eci.extend(dim, by)
        for idx, addr in pinned.items():
            assert eci.address(idx) == addr


@settings(max_examples=120, deadline=None)
@given(growth_cases())
def test_inverse_roundtrip(case):
    bounds, history = case
    eci = replay_history(bounds, history)
    q = np.arange(eci.num_chunks)
    assert np.array_equal(f_star_many(eci, f_star_inv_many(eci, q)), q)


@settings(max_examples=60, deadline=None)
@given(growth_cases())
def test_serialized_replica_addresses_identically(case):
    bounds, history = case
    eci = replay_history(bounds, history)
    clone = ExtendibleChunkIndex.from_dict(eci.to_dict())
    assert np.array_equal(all_addresses(clone), all_addresses(eci))


@settings(max_examples=60, deadline=None)
@given(growth_cases(max_steps=5), st.integers(0, 1_000_000))
def test_record_count_bounded_by_extensions(case, _seed):
    """E_j <= 1 + number of extension runs of dimension j (merging)."""
    bounds, history = case
    eci = replay_history(bounds, history)
    runs = [0] * len(bounds)
    prev = None
    for dim, _by in history:
        if dim != prev:
            runs[dim] += 1
        prev = dim
    for j, v in enumerate(eci.axial_vectors):
        assert len(v) <= 1 + runs[j]


@st.composite
def plan_cases(draw):
    """An index grown with or without merging, a chunk shape, a box
    and a hyperslab inside the element extent."""
    bounds, history = draw(growth_cases(max_steps=6))
    eci = ExtendibleChunkIndex(bounds)
    for dim, by in history:
        eci.extend(dim, by, merge=draw(st.booleans()))
    k = eci.rank
    chunk_shape = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    extent = [n * c for n, c in zip(eci.bounds, chunk_shape)]
    lo = [draw(st.integers(0, e - 1)) for e in extent]
    hi = [draw(st.integers(l + 1, e)) for l, e in zip(lo, extent)]
    start = [draw(st.integers(0, e - 1)) for e in extent]
    stride = [draw(st.integers(1, 4)) for _ in extent]
    count = [draw(st.integers(1, (e - 1 - s) // t + 1))
             for s, t, e in zip(start, stride, extent)]
    return eci, chunk_shape, lo, hi, Hyperslab.build(start, stride, count)


def reference_plan(eci, lo, hi, chunk_shape, slab=None):
    """``(visits, runs)`` of a box or slab from first principles: every
    chunk of the grid is clipped to the request, lattice points are
    enumerated, and addresses come from the scalar oracle."""
    visits = []
    for index in np.ndindex(*eci.bounds):
        cs, bs, full = [], [], True
        for j, (i, c) in enumerate(zip(index, chunk_shape)):
            c_lo, c_hi = i * c, (i + 1) * c
            o_lo, o_hi = max(c_lo, lo[j]), min(c_hi, hi[j])
            if o_lo >= o_hi:
                break
            if slab is None:
                cs.append(slice(o_lo - c_lo, o_hi - c_lo))
                bs.append(slice(o_lo - lo[j], o_hi - lo[j]))
                full = full and (o_lo, o_hi) == (c_lo, c_hi)
                continue
            s, t = slab.start[j], slab.stride[j]
            ts = [(p - s) // t for p in range(o_lo, o_hi)
                  if p >= s and (p - s) % t == 0
                  and (p - s) // t < slab.count[j]]
            if not ts:
                break
            cs.append(slice(s + ts[0] * t - c_lo, s + ts[-1] * t - c_lo + 1, t))
            bs.append(slice(ts[0], ts[-1] + 1))
            # a strided pick is never "full", even of a one-wide chunk
            full = full and t == 1 and (o_lo, o_hi) == (c_lo, c_hi)
        else:
            visits.append((f_star(eci, index), tuple(cs), tuple(bs), full))
    visits.sort(key=lambda v: v[0])
    runs = []
    for n, (addr, *_rest) in enumerate(visits):
        if runs and addr == runs[-1][0] + runs[-1][1]:
            runs[-1][1] += 1
        else:
            runs.append([addr, 1, n])
    return visits, [tuple(r) for r in runs]


def _as_tuples(plan):
    return ([(v.address, v.chunk_slices, v.box_slices, v.full)
             for v in plan.visits],
            [(r.start, r.count, r.first) for r in plan.runs])


def _grown(bounds, history):
    eci = ExtendibleChunkIndex(bounds)
    for dim, by in history:
        eci.extend(dim, by)
    return eci


@settings(max_examples=150, deadline=None)
@given(plan_cases())
# inside one segment per dimension (one block), governed by a record
# that extends dimension 1, so the visits need sorting
@example((_grown([3, 3], [(1, 2)]), [2, 3], [1, 10], [5, 14],
          Hyperslab.build((0, 9), (2, 2), (3, 3))))
# across a seam in each dimension: rows cut in three and two pieces
@example((_grown([2, 2], [(0, 2), (1, 2), (0, 1)]), [2, 2], [1, 1], [9, 7],
          Hyperslab.build((1, 1), (3, 2), (3, 3))))
def test_plans_match_the_scalar_oracle(case):
    """Box and slab plans equal the oracle's: visits, order, slices,
    ``full`` flags and runs — under merged and unmerged histories."""
    eci, chunk_shape, lo, hi, slab = case
    assert _as_tuples(plan_box(eci, lo, hi, chunk_shape, 8)) == \
        reference_plan(eci, lo, hi, chunk_shape)
    s_lo, s_hi = slab.bounding_box()
    assert _as_tuples(plan_slab(eci, slab, chunk_shape, 8)) == \
        reference_plan(eci, s_lo, s_hi, chunk_shape, slab)
    # over the whole grid the addresses are a bijection onto [0, M*)
    whole = [n * c for n, c in zip(eci.bounds, chunk_shape)]
    everything = list(range(eci.num_chunks))
    assert plan_box(eci, [0] * eci.rank, whole, chunk_shape, 8).addresses \
        == everything
    assert sorted(f_star(eci, i) for i in np.ndindex(*eci.bounds)) \
        == everything


@st.composite
def memo_sessions(draw):
    """An index, a chunk shape and a session of steps against one
    long-lived plan cache: extends (merged or not) interleaved with
    boxes and slabs, and repeats of earlier requests.  Requests are
    drawn as raw integers and placed inside the extent current when
    they run."""
    k = draw(st.integers(1, 3))
    bounds = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    chunk_shape = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    raw = st.lists(st.integers(0, 10 ** 6), min_size=k, max_size=k)
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("extend"), st.integers(0, k - 1),
                  st.integers(1, 2), st.booleans()),
        st.tuples(st.just("box"), raw, raw),
        st.tuples(st.just("slab"), raw, raw),
        st.tuples(st.just("again"), st.integers(0, 10 ** 6))),
        min_size=1, max_size=12))
    return bounds, chunk_shape, steps


def _session_request(kind, a, b, extent):
    if kind == "box":
        lo = [x % e for x, e in zip(a, extent)]
        return lo, [l + 1 + y % (e - l) for l, y, e in zip(lo, b, extent)]
    start = [x % e for x, e in zip(a, extent)]
    stride = [1 + y % 3 for y in b]
    count = [1 + (e - 1 - s) // t for s, t, e in zip(start, stride, extent)]
    return Hyperslab.build(start, stride, count)


@settings(max_examples=120, deadline=None)
@given(memo_sessions())
# a box's rows memoized, then its dimension extended twice (merged):
# the same box, and one across the new seam sharing its other row
@example(([2, 2], [2, 2], [("box", [0, 1], [3, 2]),
                           ("extend", 0, 2, True), ("extend", 0, 1, True),
                           ("again", 0), ("box", [1, 1], [6, 2]),
                           ("slab", [0, 1], [1, 0]), ("again", 0)]))
def test_one_plan_cache_across_extends_matches_the_oracle(session):
    """One long-lived :class:`PlanCache` (whole-box plans plus its
    memo of cut rows) serves boxes, slabs and repeats across
    interleaved extends; every plan equals the scalar oracle's for the
    index as it stands, including boxes whose rows were memoized
    before an extend, and the row memo never outgrows its cap."""
    bounds, chunk_shape, steps = session
    eci = ExtendibleChunkIndex(bounds)
    cache = PlanCache(max_entries=4)
    seen = []
    for step in steps:
        kind = step[0]
        if kind == "extend":
            if eci.num_chunks * 2 > 3000:
                continue
            eci.extend(step[1], step[2], merge=step[3])
            continue
        if kind == "again":
            if not seen:
                continue
            request = seen[step[1] % len(seen)]
        else:
            extent = [n * c for n, c in zip(eci.bounds, chunk_shape)]
            request = _session_request(kind, step[1], step[2], extent)
            seen.append(request)
        if isinstance(request, Hyperslab):
            plan = cache.slab(eci, request, chunk_shape, 8)
            s_lo, s_hi = request.bounding_box()
            want = reference_plan(eci, s_lo, s_hi, chunk_shape, request)
        else:
            plan = cache.box(eci, *request, chunk_shape, 8)
            want = reference_plan(eci, *request, chunk_shape)
        assert _as_tuples(plan) == want
        generation, memo = cache._rows
        assert generation == eci.generation
        assert len(memo) <= ROW_MEMO_CAP


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 200), min_size=1, max_size=3))
def test_zorder_roundtrip(index):
    z = ZOrder(len(index))
    assert z.index(z.address(index)) == tuple(index)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 400))
def test_symmetric_shell_roundtrip_2d(q):
    o = SymmetricShellOrder(2)
    assert o.address(o.index(q)) == q


@settings(max_examples=40, deadline=None)
@given(growth_cases(max_steps=4))
def test_metadata_roundtrip_deterministic(case):
    bounds, history = case
    # element bounds = chunk bounds here (chunk shape of ones)
    meta = DRXMeta.create(bounds, [1] * len(bounds))
    for dim, by in history:
        meta.extend_elements(dim, by)
    blob = meta.to_bytes()
    again = DRXMeta.from_bytes(blob)
    assert again.to_bytes() == blob
    assert np.array_equal(all_addresses(again.eci),
                          all_addresses(meta.eci))
