"""The raw-speed pass: vectorized kernels and the plan cache.

Three contracts pinned here:

* the dense-grid scatter/gather kernels and the vectorized datatype
  pack/unpack are **bit-identical** to the historical per-chunk loops
  (the ``set_vectorized(False)`` path) on every geometry class — dense grids,
  non-dense chunk sets, clipped edge chunks, above/below the dense-path
  size cutoff;
* the hot paths are **zero-copy**: ``_as_bytes_view`` aliases the
  caller's memory (``np.shares_memory``), it never materializes an
  intermediate ``bytes``;
* the :class:`~repro.drx.ioplan.PlanCache` memoizes cut rows per index
  generation and keeps the last plan, starts afresh on ``extend()``
  (the generation bump), and never changes what a read returns.
"""

from __future__ import annotations


import numpy as np
import pytest

from repro.core import scatter as scatter_mod
from repro.core.metadata import DRXMeta
from repro.core.scatter import (
    SCATTER_STATS,
    _DENSE_CHUNK_CUTOFF,
    gather_chunks,
    scatter_chunks,
    set_vectorized,
)
from repro.drx.drxfile import DRXFile
from repro.drx import ioplan
from repro.drx.ioplan import ROW_MEMO_CAP, PlanCache, plan_box
from repro.mpi.datatypes import DATATYPE_STATS, DOUBLE, _as_bytes_view


@pytest.fixture
def vec_state():
    """Restore the process-wide vectorization switch after each test."""
    prev = set_vectorized(True)
    yield
    set_vectorized(prev)


def _both_paths(fn):
    """Run ``fn()`` under both kernel paths, return (vector, scalar)."""
    out = {}
    for on in (True, False):
        prev = set_vectorized(on)
        try:
            out[on] = fn()
        finally:
            set_vectorized(prev)
    return out[True], out[False]


# ---------------------------------------------------------------------------
# scatter / gather bit-identity
# ---------------------------------------------------------------------------

class TestScatterGatherIdentity:
    def _grid_indices(self, gshape):
        return np.stack(np.meshgrid(*[np.arange(g) for g in gshape],
                                    indexing="ij"),
                        axis=-1).reshape(-1, len(gshape))

    @pytest.mark.parametrize("bounds,chunk", [
        ((16, 16), (4, 4)),       # dense, small chunks (fast path)
        ((10, 10), (4, 4)),       # clipped edge chunks
        ((9, 7, 5), (4, 4, 2)),   # rank 3, ragged edges
        ((64, 64), (32, 32)),     # 8 KiB chunks: above the dense cutoff
    ])
    def test_scatter_matches_loop(self, vec_state, bounds, chunk):
        gshape = tuple(-(-b // c) for b, c in zip(bounds, chunk))
        indices = self._grid_indices(gshape)
        rng = np.random.default_rng(7)
        staging = rng.random((len(indices), *chunk))

        def run():
            out = np.zeros(bounds)
            scatter_chunks(staging, indices, chunk, bounds, out,
                           (0,) * len(bounds))
            return out

        vec, scalar = _both_paths(run)
        assert vec.tobytes() == scalar.tobytes()

    @pytest.mark.parametrize("bounds,chunk", [
        ((16, 16), (4, 4)),
        ((10, 10), (4, 4)),
        ((9, 7, 5), (4, 4, 2)),
    ])
    def test_gather_matches_loop(self, vec_state, bounds, chunk):
        gshape = tuple(-(-b // c) for b, c in zip(bounds, chunk))
        indices = self._grid_indices(gshape)
        rng = np.random.default_rng(11)
        values = rng.random(bounds)
        # pre-seeded staging: the RMW bytes must survive bit-identically
        seed = rng.random((len(indices), *chunk))

        def run():
            staging = seed.copy()
            gather_chunks(indices, chunk, bounds, values,
                          (0,) * len(bounds), staging=staging)
            return staging

        vec, scalar = _both_paths(run)
        assert vec.tobytes() == scalar.tobytes()

    def test_offset_box_subset(self, vec_state):
        """A request box not aligned to the grid origin (zone read)."""
        bounds, chunk = (20, 20), (4, 4)
        indices = self._grid_indices((5, 5))[6:18]   # non-rectangular set
        rng = np.random.default_rng(3)
        staging = rng.random((len(indices), *chunk))
        origin = (3, 5)
        shape = (9, 11)

        def run():
            out = np.zeros(shape)
            scatter_chunks(staging, indices, chunk, bounds, out, origin)
            return out

        vec, scalar = _both_paths(run)
        assert vec.tobytes() == scalar.tobytes()

    def test_non_dense_set_falls_back(self, vec_state):
        """3 of a 2x2 grid is not dense: the loop path must serve it."""
        indices = np.array([[0, 0], [0, 1], [1, 0]])
        staging = np.arange(3 * 16, dtype=float).reshape(3, 4, 4)
        out = np.zeros((8, 8))
        before = SCATTER_STATS.snapshot()
        scatter_chunks(staging, indices, (4, 4), (8, 8), out, (0, 0))
        after = SCATTER_STATS.snapshot()
        assert after.fallback_ops == before.fallback_ops + 1
        assert after.dense_ops == before.dense_ops
        expect = np.zeros((8, 8))
        expect[:4, :4] = staging[0]
        expect[:4, 4:] = staging[1]
        expect[4:, :4] = staging[2]
        assert np.array_equal(out, expect)

    def test_dense_path_taken_below_cutoff(self, vec_state):
        indices = self._grid_indices((4, 4))
        staging = np.zeros((16, 4, 4))       # 128 B chunks << cutoff
        out = np.zeros((16, 16))
        before = SCATTER_STATS.snapshot()
        scatter_chunks(staging, indices, (4, 4), (16, 16), out, (0, 0))
        after = SCATTER_STATS.snapshot()
        assert after.dense_ops == before.dense_ops + 1
        assert after.chunks_moved == before.chunks_moved + 16

    def test_large_clipped_chunks_use_loop(self, vec_state):
        """Above the cutoff, a grid whose edge chunks are clipped does
        not tile the box, and the scratch copy costs more than the loop
        saves: the loop serves it, bit-identical to the scalar path."""
        chunk = (32, 32)
        assert np.prod(chunk) * 8 > _DENSE_CHUNK_CUTOFF
        indices = self._grid_indices((2, 2))
        staging = np.random.default_rng(5).random((4, *chunk))

        def run():
            out = np.zeros((50, 50))
            scatter_chunks(staging, indices, chunk, (50, 50), out, (0, 0))
            return out

        before = SCATTER_STATS.snapshot()
        vec, scalar = _both_paths(run)
        after = SCATTER_STATS.snapshot()
        assert after.fallback_ops == before.fallback_ops + 2
        assert after.dense_ops == before.dense_ops
        assert vec.tobytes() == scalar.tobytes()


class TestExactGrid:
    """A chunk grid that tiles the destination box exactly scatters and
    gathers through a strided view of the caller's array itself: one
    fancy-index assignment, no scratch grid, at any chunk size."""

    CASES = [((4, 4), (3, 5), (1, 2)),          # 128 B chunks
             ((32, 32), (2, 3), (2, 1)),        # 8 KiB chunks
             ((4, 4, 2), (2, 3, 2), (1, 0, 3))]  # rank 3

    @pytest.fixture
    def no_scratch(self, vec_state, monkeypatch):
        def refuse(*_a, **_k):
            raise AssertionError("exact grid built a scratch array")
        monkeypatch.setattr("repro.core.scatter._grid_scratch", refuse)

    @staticmethod
    def _case(chunk, gshape, g_lo):
        grid = np.stack(np.meshgrid(*[np.arange(g) for g in gshape],
                                    indexing="ij"),
                        axis=-1).reshape(-1, len(gshape))
        # file order is not grid order: shuffle the plan
        indices = np.random.default_rng(1).permutation(grid) + g_lo
        origin = tuple(l * c for l, c in zip(g_lo, chunk))
        box = tuple(g * c for g, c in zip(gshape, chunk))
        bounds = tuple(o + b + c for o, b, c in zip(origin, box, chunk))
        return indices, origin, box, bounds

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("chunk,gshape,g_lo", CASES)
    def test_scatter(self, no_scratch, order, chunk, gshape, g_lo):
        indices, origin, box, bounds = self._case(chunk, gshape, g_lo)
        staging = np.random.default_rng(2).random((len(indices), *chunk))

        def run():
            out = np.zeros(box, order=order)
            scatter_chunks(staging, indices, chunk, bounds, out, origin)
            return out

        before = SCATTER_STATS.snapshot()
        vec, scalar = _both_paths(run)
        after = SCATTER_STATS.snapshot()
        assert after.dense_ops == before.dense_ops + 1
        assert after.fallback_ops == before.fallback_ops + 1
        assert vec.flags[f"{order}_CONTIGUOUS"]
        assert vec.tobytes() == scalar.tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("chunk,gshape,g_lo", CASES)
    def test_gather(self, no_scratch, order, chunk, gshape, g_lo):
        indices, origin, box, bounds = self._case(chunk, gshape, g_lo)
        values = np.asarray(np.random.default_rng(3).random(box),
                            order=order)
        fresh, fresh_scalar = _both_paths(lambda: gather_chunks(
            indices, chunk, bounds, values, origin))
        assert fresh.flags["C_CONTIGUOUS"]
        assert fresh.shape == (len(indices), *chunk)
        assert fresh.tobytes() == fresh_scalar.tobytes()
        seed = np.random.default_rng(4).random((len(indices), *chunk))

        def overlay():
            staging = seed.copy()
            gather_chunks(indices, chunk, bounds, values, origin,
                          staging=staging)
            return staging

        vec, scalar = _both_paths(overlay)
        assert vec.tobytes() == scalar.tobytes() == fresh.tobytes()

    def test_off_grid_origin_is_not_exact(self, vec_state, monkeypatch):
        """A box that starts inside a chunk keeps the scratch path."""
        indices, _origin, _box, bounds = self._case((4, 4), (2, 2), (0, 0))
        called = []
        real = scatter_mod._grid_scratch
        monkeypatch.setattr(scatter_mod, "_grid_scratch",
                            lambda *a: called.append(1) or real(*a))
        staging = np.ones((4, 4, 4))
        out = np.zeros((7, 7))
        scatter_chunks(staging, indices, (4, 4), bounds, out, (1, 1))
        assert called and out.all()


# ---------------------------------------------------------------------------
# datatype pack/unpack: equivalence, zero copy, cache counters
# ---------------------------------------------------------------------------

class TestPackUnpack:
    def _vector_type(self):
        # 3 blocks of 8 bytes strided 24 bytes apart: fragmented typemap
        return DOUBLE.Create_vector(count=3, blocklength=1,
                                    stride=3).Commit()

    def test_pack_unpack_round_trip(self, vec_state):
        dt = self._vector_type()
        rng = np.random.default_rng(5)
        buf = rng.integers(0, 256, size=dt.extent * 4 + 64,
                           dtype=np.uint8)
        data = dt.pack(buf, count=4)
        assert len(data) == dt.size * 4
        out = np.zeros_like(buf)
        used = dt.unpack(out, data, count=4)
        assert used == len(data)
        assert dt.pack(out, count=4) == data

    def test_as_bytes_view_zero_copy(self):
        """The hot-path byte views alias the caller's memory."""
        arr = np.arange(32, dtype=np.float64)
        view = np.frombuffer(_as_bytes_view(arr), dtype=np.uint8)
        assert np.shares_memory(view, arr)
        # F-order goes through the transpose trick — still no copy
        farr = np.asfortranarray(np.arange(12, dtype=np.int64).reshape(3, 4))
        fview = np.frombuffer(_as_bytes_view(farr), dtype=np.uint8)
        assert np.shares_memory(fview, farr)

    def test_unpack_writes_in_place(self):
        """unpack scatters straight into the caller's buffer."""
        dt = self._vector_type()
        buf = np.zeros(dt.extent * 2 + 64, dtype=np.uint8)
        data = bytes(range(48))
        dt.unpack(buf, data, count=2)
        assert buf.sum() > 0           # bytes landed without a swap copy
        assert dt.pack(buf, count=2) == data

    def test_tiled_run_cache_counters(self):
        dt = self._vector_type()
        buf = np.zeros(dt.extent * 3 + 64, dtype=np.uint8)
        before = DATATYPE_STATS.snapshot()
        dt.pack(buf, count=3)
        mid = DATATYPE_STATS.snapshot()
        assert mid.tiled_misses == before.tiled_misses + 1
        dt.pack(buf, count=3)
        after = DATATYPE_STATS.snapshot()
        assert after.tiled_hits == mid.tiled_hits + 1
        assert after.tiled_misses == mid.tiled_misses


# ---------------------------------------------------------------------------
# the generation-keyed plan cache
# ---------------------------------------------------------------------------

class TestPlanCache:
    @staticmethod
    def count_compiles(monkeypatch) -> list:
        """Count the plans compiled from here on (``ioplan._compile``)."""
        calls = []
        compile_ = ioplan._compile

        def counted(rows, chunk_nbytes):
            calls.append(chunk_nbytes)
            return compile_(rows, chunk_nbytes)
        monkeypatch.setattr(ioplan, "_compile", counted)
        return calls

    def test_last_plan_slot_serves_a_repeated_box(self, monkeypatch):
        """The latest box's plan sits in one slot: asking for that box
        again compiles nothing, and another box replaces it."""
        with DRXFile.create(None, (32, 32), (8, 8)) as a:
            calls = self.count_compiles(monkeypatch)
            plan = a.plan((0, 0), (16, 16))
            assert a.plan((0, 0), (16, 16)) is plan
            a.read((0, 0), (16, 16))
            assert len(calls) == 1
            other = a.plan((0, 0), (12, 12))      # a different box
            assert len(calls) == 2 and a._plans._last[1] is other
            assert a.plan((0, 0), (16, 16)) is not plan
            assert len(calls) == 3

    def test_extend_invalidates(self):
        with DRXFile.create(None, (16, 16), (4, 4)) as a:
            ref = np.arange(256, dtype=float).reshape(16, 16)
            a.write((0, 0), ref)
            plan = a.plan((0, 0), (16, 16))
            a.extend(dim=0, by=4)
            # same box, new generation: recompiled, and every memoized
            # row is of the new generation
            assert a.plan((0, 0), (16, 16)) is not plan
            out = a.read((0, 0), (16, 16))
            assert np.array_equal(out, ref)
            assert {key[0] for key in a._plans._memo} == \
                {a.meta.eci.generation}
            # the extended region reads back as zeros
            assert np.all(a.read((16, 0), (20, 16)) == 0)

    def test_slab_plans_cached(self, monkeypatch):
        """A repeated slab is the slot's plan; after another request
        it compiles again, from memoized rows."""
        with DRXFile.create(None, (20, 20), (4, 4)) as a:
            a.write((0, 0), np.ones((20, 20)))
            s1 = a.read_slab((0, 0), (2, 2), (5, 5))
            plan = a._plans._last[1]
            calls = self.count_compiles(monkeypatch)
            s2 = a.read_slab((0, 0), (2, 2), (5, 5))
            assert calls == [] and a._plans._last[1] is plan
            assert np.array_equal(s1, s2)
            a.read((0, 0), (1, 1))
            memo = dict(a._plans._memo)
            s3 = a.read_slab((0, 0), (2, 2), (5, 5))
            assert len(calls) == 2 and a._plans._memo == memo
            assert np.array_equal(s1, s3)

    def test_write_read_share_plan(self, monkeypatch):
        with DRXFile.create(None, (16, 16), (4, 4)) as a:
            vals = np.full((8, 8), 3.0)
            a.write((4, 4), vals)
            calls = self.count_compiles(monkeypatch)
            # same box geometry, same generation: the read reuses the
            # write's compiled plan
            out = a.read((4, 4), (12, 12))
            assert calls == []
            assert np.array_equal(out, vals)

    def test_plan_is_the_plan_read_and_write_execute(self, monkeypatch):
        """``DRXFile.plan`` names every chunk of a box in file order —
        the set the array service locks — and the read or write of
        that box then executes that plan without compiling another."""
        from itertools import product

        from repro.core.errors import DRXIndexError

        with DRXFile.create(None, (16, 16), (4, 4)) as a:
            a.extend(dim=1, by=8)       # addresses no longer row-major
            lo, hi = (2, 3), (11, 21)
            plan = a.plan(lo, hi)
            want = sorted(a.meta.eci.address(ci) for ci in product(
                *(range(l // c, (h - 1) // c + 1)
                  for l, h, c in zip(lo, hi, a.chunk_shape))))
            assert plan.addresses == want
            calls = self.count_compiles(monkeypatch)
            a.write(lo, np.ones((9, 18)))
            assert np.array_equal(a.read(lo, hi), np.ones((9, 18)))
            assert calls == []
            for bad in (((4, 4), (4, 8)), ((0, 0), (17, 4)),
                        ((0, 0.5), (4, 4))):
                with pytest.raises(DRXIndexError):
                    a.plan(*bad)

    def test_rows_are_memoized_per_generation(self):
        """Each dimension's cut row is memoized under the index
        generation: a box sharing a range with an earlier one reuses
        its row, and an extend starts an empty memo."""
        with DRXFile.create(None, (64, 64), (8, 8)) as a:
            gen = a.meta.eci.generation
            a.read((3, 5), (19, 21))
            memo = a._plans._memo
            assert sorted(memo) == [(gen, 0, 3, 19, 8), (gen, 1, 5, 21, 8)]
            row = memo[gen, 0, 3, 19, 8]
            a.read((3, 40), (19, 44))         # dimension 0's row reused
            assert a._plans._memo is memo and len(memo) == 3
            assert memo[gen, 0, 3, 19, 8] is row
            a.extend(dim=1, by=8)
            assert np.all(a.read((3, 5), (19, 21)) == 0)
            gen = a.meta.eci.generation
            fresh = a._plans._memo
            assert fresh is not memo
            assert sorted(fresh) == [(gen, 0, 3, 19, 8), (gen, 1, 5, 21, 8)]

    def test_row_memo_never_exceeds_its_cap(self):
        """The row memo is bounded by ``ROW_MEMO_CAP``: a full memo is
        replaced by an empty one before the next row goes in, and plans
        stay right."""
        meta = DRXMeta.create((8 * (ROW_MEMO_CAP + 64),), (8,))
        cache = PlanCache()
        sizes = []
        for n in range(ROW_MEMO_CAP + 64):
            plan = cache.box(meta.eci, (n,), (n + 9,), meta.chunk_shape,
                             meta.chunk_nbytes)
            assert plan.addresses == [n // 8, n // 8 + 1]
            sizes.append(len(cache._memo))
        assert max(sizes) == ROW_MEMO_CAP
        assert sizes[-1] == 64

    def test_compaction_never_stales_plans(self, monkeypatch):
        """Plans live in logical chunk-address space: slot reallocation
        (overwrite churn + compact) must not redirect a cached plan to
        reclaimed physical extents."""
        rng = np.random.default_rng(19)
        ref = rng.random((32, 32))
        with DRXFile.create(None, (32, 32), (8, 8), codec="zlib") as a:
            a.write((0, 0), ref)
            box = ((4, 4), (28, 28))
            assert np.array_equal(a.read(*box), ref[4:28, 4:28])
            # churn the slot table: rewrites move chunks to new physical
            # slots, compaction slides everything down
            for _ in range(3):
                ref[:16] = rng.random((16, 32))
                a.write((0, 0), ref[:16])
            assert np.array_equal(a.read(*box), ref[4:28, 4:28])
            a.compact()
            a._pool.invalidate()
            # the cached plan for `box` must still read the right bytes
            calls = self.count_compiles(monkeypatch)
            assert np.array_equal(a.read(*box), ref[4:28, 4:28])
            assert calls == []

    def test_results_identical_with_cache_disabled(self):
        """Plans and reads through the memo equal fresh compilations."""
        rng = np.random.default_rng(13)
        ref = rng.random((24, 24))
        with DRXFile.create(None, (24, 24), (5, 5)) as a:
            a.write((0, 0), ref)
            a.extend(dim=1, by=6)
            for _ in range(2):            # second pass from the memo
                lo, hi = (3, 1), (19, 28)
                fresh = plan_box(a.meta.eci, lo, hi, a.chunk_shape,
                                 a._chunk_nbytes)
                assert a.plan(lo, hi).visits == fresh.visits
                assert np.array_equal(a.read((3, 1), (19, 22)),
                                      ref[3:19, 1:22])
                a.read((0, 0), (1, 1))    # moves the last-plan slot
