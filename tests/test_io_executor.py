"""The concurrent I/O executor and everything wired through it.

Covers the :class:`~repro.core.executor.IOExecutor` primitives, the
environment switch (``DRX_EXECUTOR_THREADS=0`` restores the exact serial
paths), bit- and stats-identity of the parallel per-server dispatch in
:class:`~repro.pfs.pfile.PFSFile`, replicated failover under threads,
Mpool thread-safety / read-ahead / write-behind, the DRX streaming
pipelines, and the dirty-page shadowing guarantee of ``_read_streaming``
under a concurrent writer.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.errors import DRXError
from repro.core.executor import (
    DEFAULT_THREADS,
    IOExecutor,
    MAX_THREADS,
    THREADS_ENV,
    configured_threads,
    default_executor,
    reset_default_executors,
    resolve_executor,
)
from repro.drx.drxfile import DRXFile
from repro.drx.mpool import Mpool
from repro.drx.resilience import FaultInjector, FaultPlan
from repro.drx.storage import MemoryByteStore, PFSByteStore
from repro.pfs import ParallelFileSystem
from repro.workloads import random_boxes


def pattern(n: int, salt: int = 0) -> bytes:
    return bytes((i * 131 + salt * 29) % 251 for i in range(n))


@pytest.fixture
def ex():
    e = IOExecutor(4, name="test")
    yield e
    e.shutdown()


# ---------------------------------------------------------------------------
# executor primitives
# ---------------------------------------------------------------------------

class TestIOExecutor:
    def test_submit_and_gather_preserve_order(self, ex):
        futs = [ex.submit(lambda i=i: i * i) for i in range(20)]
        assert ex.gather(futs) == [i * i for i in range(20)]
        assert ex.stats.submitted == 20
        assert ex.stats.completed == 20
        assert ex.stats.failed == 0

    def test_rejects_zero_threads(self):
        with pytest.raises(ValueError):
            IOExecutor(0)

    def test_thread_cap(self):
        e = IOExecutor(999)
        try:
            assert e.threads == MAX_THREADS
        finally:
            e.shutdown()

    def test_keyed_dedup_shares_inflight_future(self, ex):
        gate = threading.Event()
        calls = []

        def slow():
            gate.wait(5)
            calls.append(1)
            return 42

        f1 = ex.submit(slow, key="k")
        f2 = ex.submit(slow, key="k")
        assert f1 is f2
        assert ex.stats.dedup_hits == 1
        gate.set()
        assert ex.result(f1) == 42
        assert len(calls) == 1

    def test_key_released_after_completion(self, ex):
        f1 = ex.submit(lambda: 1, key="k")
        assert ex.result(f1) == 1
        f2 = ex.submit(lambda: 2, key="k")
        assert ex.result(f2) == 2
        assert f1 is not f2

    def test_gather_reraises_first_failure_after_settling(self, ex):
        def boom():
            raise RuntimeError("boom")

        futs = [ex.submit(lambda: 1), ex.submit(boom), ex.submit(lambda: 3)]
        with pytest.raises(RuntimeError, match="boom"):
            ex.gather(futs)
        # every future settled (nothing abandoned mid-air)
        assert all(f.done() for f in futs)

    def test_gather_return_exceptions(self, ex):
        def boom():
            raise ValueError("x")

        futs = [ex.submit(lambda: 1), ex.submit(boom)]
        out = ex.gather(futs, return_exceptions=True)
        assert out[0] == 1
        assert isinstance(out[1], ValueError)
        assert ex.stats.failed == 1

    def test_overlap_actually_happens(self, ex):
        start = threading.Barrier(4, timeout=5)

        def task():
            start.wait()        # all four must be in flight together
            return 1

        assert ex.gather([ex.submit(task) for _ in range(4)]) == [1] * 4
        assert ex.stats.inflight_hw >= 4


class TestEnvironmentSwitch:
    @pytest.fixture(autouse=True)
    def _reset(self):
        reset_default_executors()
        yield
        reset_default_executors()

    def test_configured_threads_parsing(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV, raising=False)
        assert configured_threads() == DEFAULT_THREADS
        monkeypatch.setenv(THREADS_ENV, "0")
        assert configured_threads() == 0
        monkeypatch.setenv(THREADS_ENV, "6")
        assert configured_threads() == 6
        monkeypatch.setenv(THREADS_ENV, "-3")
        assert configured_threads() == 0
        monkeypatch.setenv(THREADS_ENV, "lots")
        assert configured_threads() == DEFAULT_THREADS
        monkeypatch.setenv(THREADS_ENV, "100")
        assert configured_threads() == MAX_THREADS

    def test_zero_threads_means_fully_serial(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "0")
        reset_default_executors()
        assert default_executor("pfs") is None
        assert default_executor("drx") is None
        fs = ParallelFileSystem(nservers=3, stripe_size=64)
        assert fs.executor is None
        a = DRXFile.create(None, (8, 8), (4, 4))
        assert a._executor is None
        assert a._pool._executor is None
        a.close()

    def test_auto_resolves_tier_default(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "2")
        reset_default_executors()
        e = resolve_executor("auto", tier="pfs")
        assert e is not None and e.threads == 2
        assert resolve_executor(None, tier="pfs") is None
        mine = IOExecutor(1)
        try:
            assert resolve_executor(mine) is mine
        finally:
            mine.shutdown()

    def test_fault_injected_store_forces_serial(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "4")
        reset_default_executors()
        wrapper = lambda s, role: FaultInjector(s, FaultPlan(seed=1))
        a = DRXFile.create(None, (8, 8), (4, 4), store_wrapper=wrapper)
        assert a._executor is None
        assert a._pool._executor is None
        a.close()


# ---------------------------------------------------------------------------
# PFS per-server dispatch: parallel must be bit- and stats-identical
# ---------------------------------------------------------------------------

def fill_fs(fs, name, nbytes, salt=0):
    f = fs.create(name)
    f.write(0, pattern(nbytes, salt))
    return f


class TestParallelDispatchIdentity:
    EXTENTS = [(0, 300), (1024, 512), (64, 64), (3000, 1000), (512, 128)]

    def test_readv_bits_and_stats(self):
        fs_ser = ParallelFileSystem(nservers=4, stripe_size=64,
                                    executor=None)
        e = IOExecutor(4)
        try:
            fs_par = ParallelFileSystem(nservers=4, stripe_size=64,
                                        executor=e)
            f_ser = fill_fs(fs_ser, "a", 4096)
            f_par = fill_fs(fs_par, "a", 4096)
            fs_ser.reset_stats()
            fs_par.reset_stats()
            d_ser, t_ser = f_ser.readv(self.EXTENTS)
            d_par, t_par = f_par.readv(self.EXTENTS)
            assert d_ser == d_par
            assert t_ser == t_par                       # simulated time
            assert f_ser.io_time == f_par.io_time
            assert fs_ser.per_server_stats() == fs_par.per_server_stats()
        finally:
            e.shutdown()

    def test_writev_bits_and_stats(self):
        e = IOExecutor(4)
        try:
            fs_ser = ParallelFileSystem(nservers=4, stripe_size=64,
                                        executor=None)
            fs_par = ParallelFileSystem(nservers=4, stripe_size=64,
                                        executor=e)
            f_ser = fs_ser.create("a")
            f_par = fs_par.create("a")
            blob = pattern(sum(n for _o, n in self.EXTENTS), 7)
            t_ser = f_ser.writev(self.EXTENTS, blob)
            t_par = f_par.writev(self.EXTENTS, blob)
            assert t_ser == t_par
            whole_s = f_ser.read(0, f_ser.size)
            whole_p = f_par.read(0, f_par.size)
            assert whole_s == whole_p
            assert fs_ser.per_server_stats() == fs_par.per_server_stats()
        finally:
            e.shutdown()

    def test_replicated_write_fanout_identity(self):
        e = IOExecutor(4)
        try:
            fs_ser = ParallelFileSystem(nservers=4, stripe_size=64,
                                        replication=2, executor=None)
            fs_par = ParallelFileSystem(nservers=4, stripe_size=64,
                                        replication=2, executor=e)
            f_ser = fill_fs(fs_ser, "a", 4096, salt=3)
            f_par = fill_fs(fs_par, "a", 4096, salt=3)
            assert f_ser.verify_replicas() == []
            assert f_par.verify_replicas() == []
            assert f_ser.rstats.snapshot() == f_par.rstats.snapshot()
            assert f_ser.read(0, 4096) == f_par.read(0, 4096)
        finally:
            e.shutdown()

    def test_degraded_failover_under_threads(self):
        e = IOExecutor(4)
        try:
            fs = ParallelFileSystem(nservers=4, stripe_size=64,
                                    replication=2, executor=e)
            f = fill_fs(fs, "a", 4096, salt=5)
            fs.kill_server(1)
            got = f.read(0, 4096)
            assert got == pattern(4096, 5)
            # the dead server is known up front, so its stripes reroute
            # as degraded reads (mid-flight failovers need a server that
            # dies between copy choice and dispatch)
            assert f.rstats.degraded_reads > 0
        finally:
            e.shutdown()

    def test_write_skips_dead_server_under_threads(self):
        e = IOExecutor(4)
        try:
            fs = ParallelFileSystem(nservers=4, stripe_size=64,
                                    replication=2, executor=e)
            f = fs.create("a")
            fs.kill_server(2)
            f.write(0, pattern(4096, 9))
            assert f.rstats.missed_writes > 0
            assert f.read(0, 4096) == pattern(4096, 9)   # replicas cover
            fs.revive_server(2)
            fs.rebuild_server(2)
            assert f.verify_replicas() == []
        finally:
            e.shutdown()


# ---------------------------------------------------------------------------
# Mpool: thread-safety, read-ahead, write-behind
# ---------------------------------------------------------------------------

class TestMpoolThreadSafety:
    def test_concurrent_get_put_hammer(self):
        ps = 64
        store = MemoryByteStore()
        store.truncate(32 * ps)
        e = IOExecutor(4)
        pool = Mpool(store, ps, max_pages=8, executor=e)
        errors = []

        def worker(tid: int):
            try:
                for round_ in range(40):
                    for p in range(tid, 32, 4):    # disjoint page sets
                        buf = pool.get(p)
                        buf[:8] = np.frombuffer(
                            pattern(8, p), dtype=np.uint8)
                        pool.put(p, dirty=True)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        pool.flush()
        for p in range(32):
            assert store.read(p * ps, 8) == pattern(8, p)
        e.shutdown()

    def test_pinned_never_evicted_under_pressure(self):
        ps = 64
        store = MemoryByteStore()
        store.truncate(16 * ps)
        e = IOExecutor(2)
        pool = Mpool(store, ps, max_pages=2, executor=e)
        pool.get(0)                      # keep pinned
        pool.get(1)
        pool.put(1)
        for p in range(2, 10):           # churn through the other slot
            pool.get(p)
            pool.put(p)
        with pytest.raises(DRXError):
            # second pin would need to evict page 0 — refused
            pool.get(10), pool.get(11)
        pool.put(0)
        e.shutdown()


class TestReadAhead:
    def make(self, npages=64, max_pages=16, threads=2, readahead=4):
        ps = 64
        store = MemoryByteStore()
        for p in range(npages):
            store.write(p * ps, pattern(ps, p))
        e = IOExecutor(threads)
        pool = Mpool(store, ps, max_pages=max_pages, executor=e,
                     readahead=readahead)
        return store, e, pool

    def test_sequential_scan_triggers_and_adopts(self):
        _store, e, pool = self.make()
        try:
            for p in range(24):
                buf = pool.get(p)
                assert bytes(buf) == pattern(64, p)
                pool.put(p)
            assert pool.stats.prefetch_issued > 0
            assert pool.stats.prefetch_hits > 0
            # adopted pages count as hits, not misses
            assert pool.stats.hits >= pool.stats.prefetch_hits
            assert pool.stats.accesses == 24
        finally:
            e.shutdown()

    def test_strided_scan_triggers(self):
        _store, e, pool = self.make(readahead=8)
        try:
            for p in range(0, 48, 3):
                buf = pool.get(p)
                assert bytes(buf) == pattern(64, p)
                pool.put(p)
            assert pool.stats.prefetch_issued > 0
            assert pool.stats.prefetch_hits > 0
        finally:
            e.shutdown()

    def test_batch_stride_detector(self):
        _store, e, pool = self.make(max_pages=16, readahead=8)
        try:
            for start in range(0, 40, 8):
                batch = list(range(start, start + 4))
                bufs = pool.get_many(batch)
                for p, buf in zip(batch, bufs):
                    assert bytes(buf) == pattern(64, p)
                pool.put_many(batch)
            assert pool.stats.prefetch_issued > 0
            assert pool.stats.prefetch_hits > 0
        finally:
            e.shutdown()

    def test_random_access_stays_quiet(self):
        _store, e, pool = self.make()
        try:
            for p in [0, 17, 3, 41, 9, 28, 5, 33]:   # no repeated stride
                pool.get(p)
                pool.put(p)
            assert pool.stats.prefetch_issued == 0
        finally:
            e.shutdown()

    def test_unused_prefetch_dropped_on_flush(self):
        _store, e, pool = self.make()
        try:
            for p in range(6):           # arm the detector, issue ahead
                pool.get(p)
                pool.put(p)
            issued_pages = pool.stats.prefetch_pages
            assert issued_pages > 0
            pool.flush()
            assert pool.stats.prefetch_hits + pool.stats.prefetch_dropped \
                >= 1
            assert not pool._pf
        finally:
            e.shutdown()

    def test_serial_pool_never_prefetches(self):
        ps = 64
        store = MemoryByteStore()
        store.truncate(32 * ps)
        pool = Mpool(store, ps, max_pages=8)       # no executor
        for p in range(20):
            pool.get(p)
            pool.put(p)
        assert pool.stats.prefetch_issued == 0
        assert pool.stats.misses == 20


class TestWriteBehind:
    def test_eviction_writebacks_go_async_and_flush_barriers(self):
        ps = 64
        store = MemoryByteStore()
        store.truncate(32 * ps)
        e = IOExecutor(2)
        pool = Mpool(store, ps, max_pages=4, executor=e, readahead=0)
        try:
            for p in range(16):
                buf = pool.get(p)
                buf[:] = np.frombuffer(pattern(ps, p + 100), dtype=np.uint8)
                pool.put(p, dirty=True)
            assert pool.stats.writebehind_runs > 0
            pool.flush()
            assert not pool._wb                     # barrier drained
            for p in range(16):
                assert store.read(p * ps, ps) == pattern(ps, p + 100)
        finally:
            e.shutdown()

    def test_refault_after_writebehind_sees_new_bytes(self):
        ps = 64
        store = MemoryByteStore()
        store.truncate(8 * ps)
        e = IOExecutor(2)
        pool = Mpool(store, ps, max_pages=2, executor=e, readahead=0)
        try:
            buf = pool.get(0)
            buf[:] = 7
            pool.put(0, dirty=True)
            pool.get(1), pool.put(1)
            pool.get(2), pool.put(2)   # evicts page 0 -> write-behind
            got = pool.get(3), pool.put(3)  # evicts again
            buf0 = pool.get(0)          # demand fault waits the WB
            assert bytes(buf0) == bytes([7]) * ps
            pool.put(0)
        finally:
            e.shutdown()

    def test_counters_match_serial_values(self):
        # write-behind records the same writeback/syscall/bytes counters
        # the synchronous path would have
        def run(executor):
            ps = 64
            store = MemoryByteStore()
            store.truncate(32 * ps)
            pool = Mpool(store, ps, max_pages=4, executor=executor,
                         readahead=0)
            for p in range(16):
                buf = pool.get(p)
                buf[:] = p
                pool.put(p, dirty=True)
            pool.flush()
            s = pool.stats
            return (s.writebacks, s.syscalls, s.bytes_written,
                    s.bytes_faulted, s.hits, s.misses, s.evictions)

        e = IOExecutor(2)
        try:
            assert run(None) == run(e)
        finally:
            e.shutdown()


# ---------------------------------------------------------------------------
# DRX streaming pipelines
# ---------------------------------------------------------------------------

#: the three ways a plan executes, as (cache_pages, executor threads):
#: everything fits the pool; streams as one vectored batch; streams one
#: run per batch with the next transfer in flight
ROUTES = {"pooled": (128, 0), "one-batch": (4, 0), "pipelined": (4, 2)}

with_checksums = pytest.mark.parametrize("checksums", [
    pytest.param(False, id=pytest.HIDDEN_PARAM),
    pytest.param(True, id="checksums"),
])


class TestStreamingPipelines:
    @pytest.fixture
    def routes(self, checksums):
        """One (64, 64) array of (8, 8) chunks per route."""
        executors, arrays = [], {}
        for name, (cache_pages, threads) in ROUTES.items():
            e = IOExecutor(threads) if threads else None
            executors.append(e)
            arrays[name] = DRXFile.create(
                None, (64, 64), (8, 8), cache_pages=cache_pages,
                checksums=checksums, executor=e)
        yield arrays
        for a in arrays.values():
            a.close()
        for e in executors:
            if e is not None:
                e.shutdown()

    #: (start, stride, count) lattices over the (64, 64) array
    SLABS = [((1, 0), (3, 2), (21, 32)), ((0, 5), (9, 1), (8, 40)),
             ((7, 7), (8, 8), (8, 8))]

    @with_checksums
    def test_streamed_read_identity(self, routes):
        ref = np.random.default_rng(42).random((64, 64))
        for a in routes.values():
            a.write((0, 0), ref)
        # a tall narrow box -> many non-contiguous runs when streamed
        boxes = [((0, 0), (64, 24)), ((0, 0), (64, 64)),
                 *random_boxes((64, 64), 12, seed=42)]
        for lo, hi in boxes:
            want = ref[lo[0]:hi[0], lo[1]:hi[1]]
            for name, a in routes.items():
                assert np.array_equal(a.read(lo, hi), want), (name, lo, hi)
        for start, stride, count in self.SLABS:
            want = ref[start[0]::stride[0], start[1]::stride[1]][
                :count[0], :count[1]]
            for name, a in routes.items():
                assert np.array_equal(
                    a.read_slab(start, stride, count), want), (name, start)
        # the routes are the ones named: everything stayed resident in
        # the big pool, the full scans went past the small ones
        assert routes["pooled"].cache_stats.evictions == 0
        assert routes["one-batch"].cache_stats.misses < 64
        assert routes["pipelined"].cache_stats.misses < 64

    @with_checksums
    def test_streamed_write_identity(self, routes):
        rng = np.random.default_rng(7)
        ref = np.zeros((64, 64))
        boxes = [((0, 16), (64, 56)), *random_boxes((64, 64), 12, seed=7)]
        for lo, hi in boxes:
            patch = rng.random((hi[0] - lo[0], hi[1] - lo[1]))
            ref[lo[0]:hi[0], lo[1]:hi[1]] = patch
            for a in routes.values():
                a.write(lo, patch)
        for start, stride, count in self.SLABS:
            patch = rng.random(count)
            ref[start[0]::stride[0], start[1]::stride[1]][
                :count[0], :count[1]] = patch
            for a in routes.values():
                a.write_slab(start, stride, patch)
        for name, a in routes.items():
            assert np.array_equal(a.read(), ref), name
            a.flush()
            assert a.scrub().corrupt == [], name
            assert np.array_equal(a.read((0, 16), (64, 56)),
                                  ref[:, 16:56]), name

    def test_streamed_write_then_checksum_scrub(self):
        rng = np.random.default_rng(11)
        ref = rng.random((64, 64))
        e = IOExecutor(2)
        try:
            a = DRXFile.create(None, (64, 64), (8, 8), cache_pages=4,
                               checksums=True, executor=e)
            a.write((0, 0), ref)
            a.flush()
            report = a.scrub()
            assert report.corrupt == []
            assert np.array_equal(a.read(), ref)
            a.close()
        finally:
            e.shutdown()

    def test_pfs_backed_roundtrip_under_threads(self):
        rng = np.random.default_rng(13)
        ref = rng.random((48, 48))
        e = IOExecutor(4)
        try:
            fs = ParallelFileSystem(nservers=4, stripe_size=512,
                                    replication=2, executor=e)
            a = DRXFile.create_pfs(fs, "arr", (48, 48), (8, 8),
                                   cache_pages=4, executor=e)
            a.write((0, 0), ref)
            a.flush()
            assert np.array_equal(a.read(), ref)
            fs.kill_server(0)
            assert np.array_equal(a.read(), ref)     # degraded, streamed
            a.close()
        finally:
            e.shutdown()


class TestDirtyPageShadowing:
    """Satellite: a streamed read must surface pool pages dirtied while
    the bulk read was in flight (``peek_dirty`` shadowing)."""

    class BlockingStore(MemoryByteStore):
        def __init__(self):
            super().__init__()
            self.entered = threading.Event()
            self.gate = threading.Event()
            self.arm = False

        def readv(self, extents):
            if self.arm:
                self.arm = False
                self.entered.set()
                self.gate.wait(10)
            return super().readv(extents)

    def test_concurrent_writer_shadows_streamed_read(self):
        blocking = {}

        def wrapper(store, role):
            if role != "data":
                return store
            b = self.BlockingStore()
            blocking["store"] = b
            return b

        e = IOExecutor(2)
        try:
            a = DRXFile.create(None, (32, 32), (4, 4), cache_pages=4,
                               store_wrapper=wrapper, executor=e)
            store = blocking["store"]
            ref = np.arange(32 * 32, dtype=np.float64).reshape(32, 32)
            a.write((0, 0), ref)
            a.flush()
            store.arm = True
            result = {}

            def reader():
                result["out"] = a.read()

            t = threading.Thread(target=reader)
            t.start()
            assert store.entered.wait(10)
            # the streamed readv is parked inside the store: dirty a page
            # it has not scattered yet, then let it continue
            a.put((31, 31), -123.0)
            store.gate.set()
            t.join(10)
            assert not t.is_alive()
            out = result["out"]
            assert out[31, 31] == -123.0             # shadowed, not stale
            expect = ref.copy()
            expect[31, 31] = -123.0
            assert np.array_equal(out, expect)
            a.close()
        finally:
            e.shutdown()
