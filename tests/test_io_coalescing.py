"""Run-coalesced vectored I/O: planner, stores, pool batches, routing.

Covers the I/O planning layer (:mod:`repro.drx.ioplan`), the vectored
``readv``/``writev`` store entry points, ``Mpool.get_many`` batch
faulting and run-clustered write-back, the ``DRXFile`` routing policy
(pooled batch vs streaming bypass), and the pre-coalesced MPI indexed
filetype — including equivalence of every route with chunk-at-a-time
access (one request per chunk, the scalar pooled case) on multi-segment
extended arrays.
"""

from __future__ import annotations

import ast
import inspect
import textwrap

import numpy as np
import pytest

from repro.core.axial import AxialVector
from repro.core.errors import DRXError, DRXFileError, DRXIndexError
from repro.core.hyperslab import Hyperslab
from repro.core.metadata import DRXMeta
from repro.drx import DRXFile, DRXSingleFile, MemExtendibleArray, Mpool
from repro.drx.ioplan import (
    IOPlan,
    Visit,
    plan_box,
    plan_slab,
)
from repro.drx.storage import MemoryByteStore
from repro.drx.chunkstore import ChunkStore
from repro.drxmp.subarray import extent_filetype
from repro.mpi.datatypes import DOUBLE, Datatype
from repro.workloads import chunk_boxes
from tests.support.pools import byte_pool


class RecordingStore(MemoryByteStore):
    """A memory store that logs every physical/vectored call."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: list[tuple] = []

    def read(self, offset, length):
        self.calls.append(("read", offset, length))
        return super().read(offset, length)

    def write(self, offset, data):
        self.calls.append(("write", offset, len(data)))
        super().write(offset, data)

    def readv(self, extents):
        self.calls.append(("readv", tuple(extents)))
        return super().readv(extents)

    def writev(self, extents, data):
        self.calls.append(("writev", tuple(extents)))
        super().writev(extents, data)


# ----------------------------------------------------------------------
# IOPlan
# ----------------------------------------------------------------------
class TestCoalesce:
    def test_ioplan_runs_and_extents(self):
        visits = [
            Visit(a, (slice(None),), (slice(None),), True)
            for a in (2, 3, 7, 8, 9)
        ]
        plan = IOPlan(visits, chunk_nbytes=10)
        assert plan.num_chunks == 5
        assert plan.num_runs == 2
        assert plan.byte_extents() == [(20, 20), (70, 30)]
        groups = [(r.start, [v.address for v in vs])
                  for r, vs in plan.run_visits()]
        assert groups == [(2, [2, 3]), (7, [7, 8, 9])]


class TestPlanners:
    def test_plan_box_sorted_full_flags(self, fig1_index):
        # fig1 grid is 5x4 chunks; a 2x2-chunk box with chunk shape (2,2)
        plan = plan_box(fig1_index, (0, 0), (4, 4), (2, 2), 32)
        addrs = plan.addresses
        assert addrs == sorted(addrs)
        assert all(v.full for v in plan.visits)

    def test_plan_box_partial_chunks(self, fig1_index):
        plan = plan_box(fig1_index, (1, 1), (4, 4), (2, 2), 32)
        assert not all(v.full for v in plan.visits)
        assert plan.addresses == sorted(plan.addresses)

    def test_plan_slab_drops_empty_chunks(self, fig1_index):
        # stride 4 with chunk shape (2,2): only every other chunk holds
        # a lattice point
        slab = Hyperslab.build((0, 0), (4, 4), (2, 2))
        plan = plan_slab(fig1_index, slab, (2, 2), 32)
        box = plan_box(fig1_index, (0, 0), (5, 5), (2, 2), 32)
        assert plan.num_chunks < box.num_chunks
        assert plan.addresses == sorted(plan.addresses)
        # a strided pick of one element per chunk is never "full"
        assert not any(v.full for v in plan.visits)

    def test_bad_box_errors_name_the_box(self, fig1_index):
        # an empty box used to reach F* as a rank-0 index batch
        with pytest.raises(DRXIndexError,
                           match=r"box lo=\(0, 0\) hi=\(0, 4\) .* is empty"):
            plan_box(fig1_index, (0, 0), (0, 4), (64, 64), 8)
        with pytest.raises(DRXIndexError,
                           match=r"box lo=\(0, 0\) hi=\(11, 4\) .* leaves "
                                 r"the chunk bounds \(5, 4\)"):
            plan_box(fig1_index, (0, 0), (11, 4), (2, 2), 8)


# ----------------------------------------------------------------------
# vectored store entry points
# ----------------------------------------------------------------------
class TestVectoredStores:
    def test_readv_concatenates_in_request_order(self):
        st = MemoryByteStore()
        st.write(0, bytes(range(16)))
        assert st.readv([(0, 4), (8, 4)]) == bytes(range(4)) + \
            bytes(range(8, 12))

    def test_readv_past_eof_zero_fills(self):
        st = MemoryByteStore()
        st.write(0, b"ab")
        assert st.readv([(0, 4)]) == b"ab\x00\x00"

    def test_writev_scatter(self):
        st = MemoryByteStore()
        st.writev([(0, 2), (4, 2)], b"abcd")
        assert st.read(0, 6) == b"ab\x00\x00cd"

    def test_writev_length_mismatch_raises_before_writing(self):
        st = MemoryByteStore()
        with pytest.raises(DRXFileError):
            st.writev([(0, 4)], b"ab")
        assert st.size == 0          # nothing was written

    def test_counters(self):
        st = MemoryByteStore()
        st.writev([(0, 2), (4, 2)], b"abcd")
        st.readv([(0, 2), (4, 2)])
        s = st.stats
        assert s.readv_calls == 1 and s.writev_calls == 1
        assert s.coalesced_runs == 4
        assert s.reads == 2 and s.writes == 2
        assert s.syscalls == 4
        assert s.bytes_read == 4 and s.bytes_written == 4
        assert s.bytes_per_call == pytest.approx(2.0)

    def test_snapshot_delta_reset(self):
        st = MemoryByteStore()
        st.write(0, b"abcd")
        snap = st.stats.snapshot()
        st.read(0, 4)
        d = st.stats.delta(snap)
        assert d.reads == 1 and d.writes == 0 and d.bytes_read == 4
        st.stats.reset()
        assert st.stats.syscalls == 0 and st.stats.bytes_moved == 0


# ----------------------------------------------------------------------
# Mpool batches
# ----------------------------------------------------------------------
class TestPoolBatch:
    def test_get_many_single_vectored_fault(self):
        st = RecordingStore()
        st.write(0, bytes(range(64)))
        pool = byte_pool(st, page_size=8, max_pages=8)
        bufs = pool.get_many([0, 1, 2, 5])
        assert [bytes(b) for b in bufs] == [
            bytes(range(0, 8)), bytes(range(8, 16)),
            bytes(range(16, 24)), bytes(range(40, 48)),
        ]
        readvs = [c for c in st.calls if c[0] == "readv"]
        assert readvs == [("readv", ((0, 24), (40, 8)))]
        assert pool.stats.misses == 4 and pool.stats.hits == 0
        assert pool.stats.syscalls == 2          # two runs
        assert pool.stats.coalesced_runs == 2
        assert pool.stats.bytes_faulted == 32
        pool.put_many([0, 1, 2, 5])
        assert pool.pinned_pages == 0

    def test_get_many_mixed_hits_and_duplicates(self):
        st = MemoryByteStore()
        pool = byte_pool(st, page_size=4, max_pages=4)
        pool.get(1)
        pool.put(1)
        bufs = pool.get_many([2, 1, 2])
        assert len(bufs) == 3
        assert pool.stats.hits == 1 and pool.stats.misses == 2
        assert pool._pages[2].pins == 2 and pool._pages[1].pins == 1
        pool.put_many([2, 1, 2])
        assert pool.pinned_pages == 0

    def test_get_many_capacity_error(self):
        pool = byte_pool(MemoryByteStore(), page_size=4, max_pages=2)
        with pytest.raises(DRXError):
            pool.get_many([0, 1, 2])

    def test_get_many_keeps_resident_pinned_batch_safe(self):
        # residents must not be evicted while the batch faults the rest
        st = MemoryByteStore()
        pool = byte_pool(st, page_size=4, max_pages=2)
        pool.get(5)
        pool.put(5, dirty=True)
        bufs = pool.get_many([5, 0])
        assert 5 in pool._pages and 0 in pool._pages
        bufs[0][:] = 7
        pool.put_many([5, 0], dirty=True)
        pool.flush()
        assert st.read(20, 4) == bytes([7, 7, 7, 7])

    def test_eviction_clusters_dirty_neighbours(self):
        st = RecordingStore()
        pool = byte_pool(st, page_size=4, max_pages=4)
        for p in (0, 1, 2):
            pool.get(p)
            pool.put(p, dirty=True)
        pool.get(3)
        pool.put(3)
        pool.get(9)                   # evicts page 0 -> drags 1, 2 along
        pool.put(9)
        writevs = [c for c in st.calls if c[0] == "writev"]
        assert writevs == [("writev", ((0, 12),))]
        assert pool.stats.evictions == 1
        assert pool.stats.writebacks == 3
        # neighbours stayed cached, now clean
        assert 1 in pool._pages and not pool._pages[1].dirty

    def test_flush_writes_sorted_coalesced_runs(self):
        st = RecordingStore()
        pool = byte_pool(st, page_size=4, max_pages=8)
        for p in (6, 2, 0, 5, 1):     # dirty in scrambled LRU order
            pool.get(p)
            pool.put(p, dirty=True)
        st.calls.clear()
        pool.flush()
        writevs = [c for c in st.calls if c[0] == "writev"]
        assert writevs == [("writev", ((0, 12), (20, 8)))]
        assert pool.stats.writebacks == 5
        assert pool.stats.coalesced_runs == 2

    def test_streaming_coherence_hooks(self):
        st = MemoryByteStore()
        pool = byte_pool(st, page_size=4, max_pages=4)
        buf = pool.get(2)
        buf[:] = 9
        pool.put(2, dirty=True)
        assert bytes(pool.peek_dirty(2)) == bytes([9] * 4)
        assert pool.peek_dirty(0) is None      # not resident
        pool.get(1)
        pool.put(1)
        assert pool.peek_dirty(1) is None      # resident but clean
        pool.refresh(2, bytes([5] * 4))
        assert pool.peek_dirty(2) is None      # refreshed -> clean
        assert bytes(pool._pages[2].buf) == bytes([5] * 4)
        pool.refresh(3, bytes([1] * 4))        # absent page: no-op


# ----------------------------------------------------------------------
# DRXFile routing: coalesced routes vs chunk-at-a-time access
# ----------------------------------------------------------------------
def _grow_reference(a: DRXFile, rng) -> np.ndarray:
    """Extend ``a`` along both dims (multi-segment layout) and fill it
    with random data through the coalesced path; returns a dense copy."""
    a.extend(0, 5)
    a.extend(1, 7)
    a.extend(0, 3)
    ref = rng.random(a.shape)
    a.write((0, 0), ref)
    return ref


def _read_chunkwise(a: DRXFile, lo, hi) -> np.ndarray:
    """``a.read(lo, hi)`` assembled from one request per chunk."""
    out = np.empty(tuple(h - l for l, h in zip(lo, hi)), dtype=a.dtype)
    for c_lo, c_hi in chunk_boxes(lo, hi, a.chunk_shape):
        out[tuple(slice(cl - l, ch - l)
                  for l, cl, ch in zip(lo, c_lo, c_hi))] = a.read(c_lo, c_hi)
    return out


class TestFileRouting:
    def test_box_roundtrip_matches_per_chunk_path(self, tmp_path, rng):
        a = DRXFile.create(tmp_path / "a", (6, 6), (3, 3), cache_pages=4)
        ref = _grow_reference(a, rng)
        assert np.allclose(a.read(), ref)
        a.close()
        # chunk-at-a-time reads see the very same bytes
        b = DRXFile.open(tmp_path / "a", cache_pages=4)
        assert np.allclose(_read_chunkwise(b, (0, 0), b.shape), ref)
        assert np.allclose(_read_chunkwise(b, (2, 3), (9, 11)),
                           ref[2:9, 3:11])
        b.close()

    def test_per_chunk_write_read_by_coalesced(self, tmp_path, rng):
        ref = rng.random((11, 13))
        a = DRXFile.create(tmp_path / "a", (11, 13), (3, 4), cache_pages=4)
        boxes = list(chunk_boxes((0, 0), a.shape, a.chunk_shape))
        for lo, hi in boxes:
            a.write(lo, ref[lo[0]:hi[0], lo[1]:hi[1]])
        # nothing streamed: one pool access per one-chunk request
        assert a.cache_stats.accesses == len(boxes)
        a.close()
        b = DRXFile.open(tmp_path / "a", cache_pages=4)
        assert np.allclose(b.read(), ref)
        b.close()

    def test_slab_roundtrip_matches_per_chunk_path(self, tmp_path, rng):
        a = DRXFile.create(tmp_path / "a", (6, 6), (3, 3), cache_pages=4)
        ref = _grow_reference(a, rng)
        got = a.read_slab((1, 0), (3, 2), (4, 6))
        assert np.allclose(got, ref[1::3, 0::2][:4, :6])
        patch = rng.random((4, 6))
        a.write_slab((1, 0), (3, 2), patch)
        a.close()
        b = DRXFile.open(tmp_path / "a", mode="r")
        ref[1::3, 0::2][:4, :6] = patch
        assert np.allclose(_read_chunkwise(b, (0, 0), b.shape), ref)
        # the slab's lattice points chunk by chunk: the part of the
        # lattice inside one chunk is itself a (one-chunk) slab
        for (r0, c0), (r1, c1) in chunk_boxes((0, 0), b.shape,
                                              b.chunk_shape):
            rows = [r for r in range(1, 11, 3) if r0 <= r < r1]
            cols = [c for c in range(0, 12, 2) if c0 <= c < c1]
            if rows and cols:
                got = b.read_slab((rows[0], cols[0]), (3, 2),
                                  (len(rows), len(cols)))
                assert np.allclose(got, ref[np.ix_(rows, cols)])
        b.close()

    def test_streaming_read_sees_dirty_pool_pages(self, rng):
        # pool smaller than the request, with an unflushed element write
        a = DRXFile.create(None, (8, 8), (2, 2), cache_pages=2)
        ref = rng.random((8, 8))
        a.write((0, 0), ref)
        a.put((5, 5), 42.0)           # dirty page in the pool
        ref[5, 5] = 42.0
        got = a.read()                # 16 chunks > 2 pages -> streams
        assert np.allclose(got, ref)
        a.close()

    def test_streaming_write_refreshes_cached_pages(self, rng):
        a = DRXFile.create(None, (8, 8), (2, 2), cache_pages=2)
        a.put((0, 0), 1.0)            # page 0 cached and dirty
        ref = rng.random((8, 8))
        a.write((0, 0), ref)          # streams; must refresh page 0
        assert a.get((0, 0)) == ref[0, 0]
        assert np.allclose(a.read(), ref)
        a.close()

    def test_contiguous_scan_is_coalesced(self, rng):
        a = DRXFile.create(None, (16, 16), (4, 4), cache_pages=8)
        ref = rng.random((16, 16))
        a.write((0, 0), ref)          # 16 full chunks, one run
        a.flush()
        st = a._data.stats
        before = st.snapshot()
        assert np.allclose(a.read(), ref)
        d = a._data.stats.delta(before)
        # 16 chunks of one run, moved in two windows of the pool's 8
        # chunks: one vectored call of one run each
        assert d.readv_calls == 2
        assert d.coalesced_runs == 2
        assert d.reads == 2
        assert d.bytes_read == 16 * 16 * 8
        a.close()

    def test_pooled_batch_counts_hits(self, rng):
        a = DRXFile.create(None, (8, 8), (4, 4), cache_pages=8)
        ref = rng.random((8, 8))
        a.write((0, 0), ref)          # 4 chunks fit the pool: batch path
        before = a.cache_stats.hits
        assert np.allclose(a.read(), ref)
        assert a.cache_stats.hits == before + 4


#: per route, a box and a slab of the (12, 16) array of
#: :func:`test_every_read_route_writes_every_element` (4x4 chunks, a
#: 4-page pool): one chunk, four chunks, every chunk
_ROUTE_CASES = {
    "scalar": (((8, 12), (12, 16)), ((8, 12), (2, 2), (2, 2))),
    "pooled": (((5, 10), (11, 15)), ((5, 10), (2, 2), (3, 3))),
    "streamed": (((0, 0), (12, 16)), ((0, 1), (1, 3), (12, 5))),
}


@pytest.mark.parametrize("codec", ["none", "zlib"])
@pytest.mark.parametrize("route", sorted(_ROUTE_CASES))
@pytest.mark.parametrize("kind", ["box", "slab"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_every_read_route_writes_every_element(tmp_path, rng, codec,
                                               route, kind, order):
    """``read`` hands back ``np.empty``, which is sound only because
    every route writes every element of its box.  A NaN-filled output
    goes through ``_execute`` and must come back NaN-free and equal to
    the oracle, over chunks never written, a region an ``extend`` added
    and dirty pages not yet flushed."""
    a = DRXFile.create(tmp_path / "a", (12, 12), (4, 4), cache_pages=4,
                       codec=codec)
    ref = np.zeros((12, 16))
    ref[1:7, 2:9] = rng.random((6, 7))
    a.write((1, 2), ref[1:7, 2:9])
    a.flush()
    a.extend(dim=1, by=4)               # chunk column 3: never written
    ref[9:11, 13:15] = rng.random((2, 2))
    a.write((9, 13), ref[9:11, 13:15])  # dirty in the pool
    ref[0:2, 0:2] = rng.random((2, 2))
    a.write((0, 0), ref[0:2, 0:2])      # dirty in the pool
    box, slab = _ROUTE_CASES[route]
    nb = a.meta.chunk_nbytes
    if kind == "box":
        lo, hi = box
        plan = plan_box(a.meta.eci, lo, hi, a.chunk_shape, nb)
        want = ref[lo[0]:hi[0], lo[1]:hi[1]]
    else:
        s = Hyperslab.build(*slab)
        plan = plan_slab(a.meta.eci, s, a.chunk_shape, nb)
        want = ref[tuple(slice(b, b + t * n, t) for b, t, n in zip(*slab))]
    n = plan.num_chunks
    assert {"scalar": n == 1, "pooled": 1 < n <= 4,
            "streamed": n > 4}[route], n
    out = np.full(want.shape, np.nan, order=order)
    a._execute(plan, out, to_box=True)
    assert not np.isnan(out).any()
    assert np.array_equal(out, want)
    a.close()


def test_one_data_path_under_drxfile():
    """Structural guard: ``drxfile.py`` has one per-chunk copy (every
    route and direction calls it) and neither the file nor the pool
    grows an engine switch back.  Checksums and the codec live behind
    the one chunk store: neither module names a guard, a CRC or a codec
    store, the pool takes no guard or page size, and the byte-store
    disguise of a compressed array is gone."""
    import repro.drx
    import repro.drx.drxfile as module
    import repro.drx.mpool as pool_module
    copy_sites = [
        fn.name for fn in ast.walk(ast.parse(inspect.getsource(module)))
        if isinstance(fn, ast.FunctionDef)
        and any(isinstance(n, ast.Attribute) and n.attr == "chunk_slices"
                for n in ast.walk(fn))]
    assert len(copy_sites) == 1, copy_sites
    for ctor in (DRXFile.__init__, DRXFile.create, DRXFile.open,
                 DRXFile.create_pfs, DRXFile.open_pfs):
        assert "coalesce" not in inspect.signature(ctor).parameters
    params = set(inspect.signature(Mpool.__init__).parameters)
    assert not {"write_behind", "wb_queue", "guard", "page_size"} & params
    for mod in (module, pool_module):
        tree = ast.parse(inspect.getsource(mod))
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute)}
        names |= {a.name for n in ast.walk(tree)
                  if isinstance(n, ast.ImportFrom) for a in n.names}
        names |= {n.arg for n in ast.walk(tree) if isinstance(n, ast.arg)}
        names |= {n.name for n in ast.walk(tree)
                  if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        banned = [n for n in names if n == "chunk_crc"
                  or "guard" in n.lower() or "codec_store" in n]
        assert banned == [], (mod.__name__, banned)
    assert not hasattr(repro.drx, "CompressedByteStore")
    assert "CompressedByteStore" not in repro.drx.__all__


def test_plan_compile_makes_no_numpy_call():
    """Structural guard: a small request's plan is compiled without
    NumPy (its fixed cost per call outweighs the arithmetic on a few
    chunks), and the geometry primitive walks per-dimension rows rather
    than building a NumPy chunk grid."""
    import repro.core.chunking as chunking
    import repro.drx.ioplan as ioplan

    def names(fn):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}

    for fn in (ioplan.plan_box, ioplan.plan_slab, ioplan._checked_rows,
               ioplan._cut_row, ioplan.PlanCache.lookup,
               ioplan.PlanCache.store, ioplan.PlanCache.box,
               ioplan.PlanCache.slab, ioplan._compile,
               ioplan.IOPlan.__init__, chunking.axis_rows,
               chunking.iter_box_intersections, ioplan.IOPlan.runs.func,
               ioplan._bad_box, chunking.axis_row, AxialVector.span):
        assert "np" not in names(fn), fn.__qualname__
    assert "f_star_many" not in vars(ioplan)
    assert "chunks_covering_box" not in \
        names(chunking.iter_box_intersections)


class TestContainers:
    def test_singlefile_roundtrip_coalesced(self, tmp_path, rng):
        ref = rng.random((10, 10))
        with DRXSingleFile.create(tmp_path / "s", (10, 10), (3, 3),
                                  cache_pages=2) as sf:
            sf.write((0, 0), ref)
            assert np.allclose(sf.read(), ref)
            assert np.allclose(sf.read_slab((0, 1), (2, 3), (5, 3)),
                               ref[0::2, 1::3])
        with DRXSingleFile.open(tmp_path / "s") as sf:
            assert np.allclose(sf.read(), ref)

    def test_pair_conversions_bulk_copy(self, tmp_path, rng):
        ref = rng.random((9, 9))
        a = DRXFile.create(tmp_path / "a", (9, 9), (4, 4))
        a.write((0, 0), ref)
        sf = DRXSingleFile.from_pair(a, tmp_path / "s")
        assert np.allclose(sf.read(), ref)
        back = sf.to_pair(tmp_path / "b")
        assert np.allclose(back.read(), ref)
        back.close()
        sf.close()
        a.close()

    def test_memarray_drx_roundtrip(self, tmp_path, rng):
        ref = rng.random((7, 5))
        arr = MemExtendibleArray.from_numpy(ref, (2, 2))
        f = arr.to_drx(tmp_path / "m")
        assert np.allclose(f.read(), ref)
        arr2 = MemExtendibleArray.from_drx(f)
        assert np.allclose(arr2.to_numpy(), ref)
        f.close()


# ----------------------------------------------------------------------
# DRX-MP's file view: a byte-level filetype over the chunk store's extents
# ----------------------------------------------------------------------
class TestIndexedFiletype:
    def _meta(self) -> DRXMeta:
        return DRXMeta.create((8, 8), (2, 2), "double")

    def _filetype(self, meta: DRXMeta, addrs) -> Datatype:
        store = ChunkStore.for_meta(meta, MemoryByteStore())
        _rows, offsets, lengths = store.physical_extents(addrs)
        return extent_filetype(offsets, lengths)

    def test_typemap_identical_to_per_chunk(self):
        meta = self._meta()
        addrs = np.array([0, 1, 2, 5, 6, 9], dtype=np.int64)
        ft = self._filetype(meta, addrs)
        chunk = DOUBLE.Create_contiguous(meta.chunk_elems).Commit()
        ref = chunk.Create_indexed([1] * len(addrs),
                                   [int(a) for a in addrs]).Commit()
        # the block-by-block construction (struct of chunk types)
        nb = meta.chunk_nbytes
        slow = Datatype.Create_struct([1] * len(addrs),
                                      [int(a) * nb for a in addrs],
                                      [chunk] * len(addrs)).Commit()
        for other in (ref, slow):
            assert ft.offsets.tolist() == other.offsets.tolist()
            assert ft.lengths.tolist() == other.lengths.tolist()
            assert ft.extent == other.extent

    def test_coalesced_construction_shrinks_runs(self):
        meta = self._meta()
        addrs = np.arange(16, dtype=np.int64)
        ft = self._filetype(meta, addrs)
        assert ft.num_runs == 1
        assert ft.size == 16 * meta.chunk_nbytes

    def test_slot_extents_sorted_by_offset(self):
        """A compressed array's slots follow write order, not ``F*``:
        the extents come back in physical order (a file view needs
        nondecreasing offsets) and a chunk never written has none."""
        meta = self._meta()
        meta.codec = "zlib"
        store = ChunkStore.for_meta(meta, MemoryByteStore())
        nb = meta.chunk_nbytes
        for c in (5, 1, 3):
            store.write([c], bytes(nb))
        rows, offsets, lengths = store.physical_extents([1, 3, 5, 7])
        assert rows.tolist() == [2, 0, 1]
        assert np.all(np.diff(offsets) > 0)
        assert lengths.tolist() == store.stored_nbytes([5, 1, 3])
        ft = extent_filetype(offsets, lengths)
        assert ft.size == int(lengths.sum())
