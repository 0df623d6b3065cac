"""The concurrent I/O executor and everything wired through it.

Covers the :class:`~repro.core.executor.IOExecutor` primitives, the
environment switch (``DRX_EXECUTOR_THREADS=0`` attaches no executor),
inline execution while a fault plan is armed, the PFS and the Mpool
serving every store call on their caller's thread, Mpool thread-safety,
the DRX streaming pipelines, and the dirty-page shadowing guarantee of
``_read_streaming`` under a concurrent writer.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.errors import CrashError, DRXError
from repro.core.executor import (
    DEFAULT_THREADS,
    IOExecutor,
    MAX_THREADS,
    THREADS_ENV,
    configured_threads,
    default_executor,
    reset_default_executors,
)
from repro.drx.drxfile import DRXFile
from repro.drx.resilience import FaultInjector, FaultPlan
from repro.drx.storage import MemoryByteStore, PFSByteStore, StoreDecorator
from repro.pfs import ParallelFileSystem
from repro.workloads import random_boxes
from tests.support.pools import byte_pool


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
        assert default_executor("codec") is None
        a = DRXFile.create(None, (8, 8), (4, 4), codec="zlib")
        assert a._store._executor is None
        a.close()

    def test_auto_resolves_tier_default(self, monkeypatch):
        """A compressed array's chunk store takes the process-wide
        ``codec`` tier; a plain one has no codec work and no executor."""
        monkeypatch.setenv(THREADS_ENV, "2")
        reset_default_executors()
        e = default_executor("codec")
        assert e is not None and e.threads == 2
        assert default_executor("codec") is e
        with DRXFile.create(None, (8, 8), (4, 4), codec="zlib") as a:
            assert a._store._executor is e
        with DRXFile.create(None, (8, 8), (4, 4)) as a:
            assert a._store._executor is None


# ---------------------------------------------------------------------------
# armed faults: the executor runs tasks inline, the wired paths stay put
# ---------------------------------------------------------------------------

class _ThreadLog(StoreDecorator):
    """Records ``(op, thread id)`` for every transfer that reaches it."""

    def __init__(self, inner):
        super().__init__(inner)
        self.calls = []

    def read(self, offset, length):
        self.calls.append(("read", threading.get_ident()))
        return super().read(offset, length)

    def readv(self, extents):
        self.calls.append(("readv", threading.get_ident()))
        return super().readv(extents)

    def write(self, offset, data):
        self.calls.append(("write", threading.get_ident()))
        super().write(offset, data)

    def writev(self, extents, data):
        self.calls.append(("writev", threading.get_ident()))
        super().writev(extents, data)


class TestArmedFaultsRunInline:
    def test_submit_runs_on_the_caller_and_settles(self):
        e = IOExecutor(4)
        try:
            with FaultPlan():
                fut = e.submit(threading.get_ident)
                assert fut.done()
                assert fut.result() == threading.get_ident()
                failed = e.submit(lambda: 1 / 0)
                assert isinstance(failed.exception(), ZeroDivisionError)
            assert e.submit(threading.get_ident).result() \
                != threading.get_ident()
            assert e.stats.submitted == 3
            assert e.stats.completed == 2 and e.stats.failed == 1
        finally:
            e.shutdown()

    def test_inline_crash_escapes_submit(self):
        e = IOExecutor(4)
        ran = []

        def crash():
            ran.append(1)
            raise CrashError("process died")

        try:
            with FaultPlan():
                with pytest.raises(CrashError):
                    e.submit(crash)
            assert ran == [1]
        finally:
            e.shutdown()

    def test_drxfile_over_injector_keeps_its_concurrent_shape(self):
        """An injected store gets the shipped paths: one store read per
        streamed window, demand faults and eviction write-backs — all on
        the caller's thread."""
        plan = FaultPlan(seed=1)
        logs = []

        def wrapper(store, role):
            logs.append(_ThreadLog(store))
            return FaultInjector(logs[-1], plan)

        ref = np.random.default_rng(3).random((64, 64))
        with plan:
            a = DRXFile.create(None, (64, 64), (8, 8), cache_pages=4,
                               store_wrapper=wrapper)
            data = next(log for log in logs
                        if a._data is log or a._data._inner is log)
            a.write((0, 0), ref)
            a.flush()
            # a tall narrow box: 8 runs of 3 chunks, streamed in
            # windows of the pool's 4 chunks
            data.calls.clear()
            assert np.array_equal(a.read((0, 0), (64, 24)), ref[:, :24])
            assert [op for op, _t in data.calls] == ["readv"] * 6
            # a chunk-by-chunk scan down one chunk column
            for i in range(8):
                assert np.array_equal(
                    a.read((8 * i, 40), (8 * i + 8, 48)),
                    ref[8 * i:8 * i + 8, 40:48])
            # dirtying more chunks than the pool holds
            for i in range(8):
                a.write((8 * i, 0), np.full((4, 4), float(i)))
            assert a.cache_stats.writebacks > 0
            a.close()
        assert {t for _op, t in data.calls} == {threading.get_ident()}

    def test_crash_at_a_replica_batch_stops_the_fan_out(self):
        fs = ParallelFileSystem(nservers=4, stripe_size=64, replication=2)
        f = fs.create("f")
        f.write(0, pattern(1024))
        landed = []
        for srv in fs.servers:
            def spy(obj, batch, _sid=srv.server_id, _inner=srv.write_batch):
                landed.append(_sid)
                return _inner(obj, batch)
            srv.write_batch = spy
        plan = FaultPlan().crash("server.kill.writev.batch", after=1)
        with plan, pytest.raises(CrashError):
            f.write(0, pattern(1024, salt=1))
        assert landed == [0]        # the first batch, and no other
        assert plan.injected == {"server.kill.writev.batch": 1}

    def test_shared_plan_fires_exactly_times_across_threads(self):
        plan = FaultPlan().fail("read", times=100)
        errors = []
        nthreads, per_thread = 8, 5000

        def worker():
            for _ in range(per_thread):
                rule = plan.consult("read")
                if rule is not None:
                    errors.append(rule)

        threads = [threading.Thread(target=worker) for _ in range(nthreads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # interleave inside _match
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(errors) == 100
        assert plan.rules[0].fired == 100
        assert plan.rules[0].seen == nthreads * per_thread
        assert plan.hits["read"] == nthreads * per_thread


# ---------------------------------------------------------------------------
# PFS: every per-server batch runs on the caller's thread, in server order
# ---------------------------------------------------------------------------

def fill_fs(fs, name, nbytes, salt=0):
    f = fs.create(name)
    f.write(0, pattern(nbytes, salt))
    return f


def spy_batches(fs):
    """Log ``(op, server, thread id)`` for every batch a server runs."""
    log = []
    for srv in fs.servers:
        def read_batch(obj, reqs, _sid=srv.server_id,
                       _inner=srv.read_batch):
            log.append(("read", _sid, threading.get_ident()))
            return _inner(obj, reqs)

        def write_batch(obj, batch, _sid=srv.server_id,
                        _inner=srv.write_batch):
            log.append(("write", _sid, threading.get_ident()))
            return _inner(obj, batch)

        srv.read_batch, srv.write_batch = read_batch, write_batch
    return log


class TestPFSRunsOnTheCallersThread:
    """Whatever ``DRX_EXECUTOR_THREADS`` says, the PFS has no pool: a
    call visits its servers one after another on the caller's
    thread."""

    EXTENTS = [(0, 300), (1024, 512), (64, 64), (3000, 1000), (512, 128)]

    @staticmethod
    def assert_on_caller(log, op, servers):
        assert {sid for o, sid, _t in log if o == op} == set(servers)
        assert {t for _o, _sid, t in log} == {threading.get_ident()}

    def test_plain_readv(self):
        fs = ParallelFileSystem(nservers=4, stripe_size=64)
        f = fill_fs(fs, "a", 4096)
        log = spy_batches(fs)
        data, _t = f.readv(self.EXTENTS)
        assert data == b"".join(pattern(4096)[o:o + n]
                                for o, n in self.EXTENTS)
        self.assert_on_caller(log, "read", range(4))
        # one batch per server, in server order
        assert [sid for _o, sid, _t in log] == [0, 1, 2, 3]

    def test_replicated_readv_with_a_killed_server(self):
        fs = ParallelFileSystem(nservers=4, stripe_size=64, replication=2)
        f = fill_fs(fs, "a", 4096, salt=5)
        fs.kill_server(1)
        log = spy_batches(fs)
        assert f.read(0, 4096) == pattern(4096, 5)
        # the dead server is known up front, so its stripes reroute as
        # degraded reads
        assert f.rstats.degraded_reads > 0
        self.assert_on_caller(log, "read", {0, 2, 3})

    def test_plain_writev(self):
        fs = ParallelFileSystem(nservers=4, stripe_size=64)
        f = fs.create("a")
        log = spy_batches(fs)
        blob = pattern(sum(n for _o, n in self.EXTENTS), 7)
        f.writev(self.EXTENTS, blob)
        self.assert_on_caller(log, "write", range(4))
        want, pos = bytearray(f.size), 0
        for off, n in self.EXTENTS:         # a later extent wins
            want[off:off + n] = blob[pos:pos + n]
            pos += n
        assert f.read(0, f.size) == want

    def test_replicated_writev_with_a_killed_server(self):
        fs = ParallelFileSystem(nservers=4, stripe_size=64, replication=2)
        f = fs.create("a")
        fs.kill_server(2)
        log = spy_batches(fs)
        f.write(0, pattern(4096, 9))
        assert f.rstats.missed_writes > 0
        self.assert_on_caller(log, "write", {0, 1, 3})
        assert f.read(0, 4096) == pattern(4096, 9)   # replicas cover
        fs.revive_server(2)
        fs.rebuild_server(2)
        assert f.verify_replicas() == []

    def test_sieve_writev(self):
        fs = ParallelFileSystem(nservers=4, stripe_size=64)
        f = fill_fs(fs, "a", 4096)
        log = spy_batches(fs)
        direct = ([(0, 512)], [(0, pattern(512, 1))])
        rmw = [(1024, 512, [(1030, pattern(10, 2)), (1400, pattern(20, 3))])]
        f.sieve_writev(direct, rmw)
        self.assert_on_caller(log, "read", range(4))
        self.assert_on_caller(log, "write", range(4))
        want = bytearray(pattern(4096))
        want[0:512] = pattern(512, 1)
        want[1030:1040] = pattern(10, 2)
        want[1400:1420] = pattern(20, 3)
        assert f.read(0, 4096) == want


class TestPoolRunsOnTheCallersThread:
    """Whatever ``DRX_EXECUTOR_THREADS`` says, the Mpool has no
    background I/O: its faults, eviction write-backs and flushes reach
    the data store on the caller's thread."""

    @pytest.fixture(autouse=True)
    def _four_threads(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "4")
        reset_default_executors()
        yield
        reset_default_executors()

    @pytest.mark.parametrize("codec", ["none", "zlib"])
    def test_every_store_call_runs_on_the_caller(self, codec):
        logs = {}

        def wrapper(store, role):
            if role == "data":
                logs["data"] = _ThreadLog(store)
                return logs["data"]
            return store

        rng = np.random.default_rng(8)
        ref = np.round(rng.random((64, 64)), 2)
        a = DRXFile.create(None, (64, 64), (8, 8), cache_pages=8,
                           codec=codec, store_wrapper=wrapper)
        log = logs["data"]
        a.write((0, 0), ref)
        a.flush()
        a._pool.invalidate()
        log.calls.clear()
        # a chunk-by-chunk scan down one chunk column (the stride a
        # read-ahead detector would follow)
        for i in range(8):
            assert np.array_equal(a.read((8 * i, 40), (8 * i + 8, 48)),
                                  ref[8 * i:8 * i + 8, 40:48])
        # random boxes of at most 4 chunks, dirtying far more chunks
        # than the pool's 8 pages: eviction writes back dirty pages
        for _ in range(40):
            r, c = rng.integers(0, 56, size=2)
            h, w = rng.integers(1, 9, size=2)
            patch = np.round(rng.random((h, w)), 2)
            a.write((r, c), patch)
            ref[r:r + h, c:c + w] = patch
            assert np.array_equal(a.read((r, c), (r + h, c + w)), patch)
        assert a.cache_stats.evictions > 0
        a.flush()
        assert {op for op, _t in log.calls} >= {"readv", "writev"}
        assert {t for _op, t in log.calls} == {threading.get_ident()}
        assert np.array_equal(a.read(), ref)
        a.close()


# ---------------------------------------------------------------------------
# Mpool: thread-safety
# ---------------------------------------------------------------------------

class TestMpoolThreadSafety:
    def test_concurrent_get_put_hammer(self):
        ps = 64
        store = MemoryByteStore()
        store.truncate(32 * ps)
        pool = byte_pool(store, ps, max_pages=8)
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

    def test_pinned_never_evicted_under_pressure(self):
        ps = 64
        store = MemoryByteStore()
        store.truncate(16 * ps)
        pool = byte_pool(store, ps, max_pages=2)
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


# ---------------------------------------------------------------------------
# DRX streaming pipelines
# ---------------------------------------------------------------------------

#: the three ways a plan executes, as (cache_pages, codec threads):
#: everything fits the pool; streams in pool-sized windows on the
#: caller's thread; streams in windows whose compressed chunks are split
#: across a codec executor
ROUTES = {"pooled": (128, 0), "windowed": (4, 0), "fanned-out": (4, 2)}

with_checksums = pytest.mark.parametrize("checksums", [
    pytest.param(False, id=pytest.HIDDEN_PARAM),
    pytest.param(True, id="checksums"),
])

#: plain arrays keep the historical test ids
with_codecs = pytest.mark.parametrize("codec", [
    pytest.param("none", id=pytest.HIDDEN_PARAM),
    pytest.param("zlib", id="zlib"),
    pytest.param("delta+zlib", id="delta+zlib"),
])


def attach_codec_executor(a: DRXFile, ex: IOExecutor) -> None:
    """Split a compressed array's codec work across ``ex`` whatever
    ``DRX_EXECUTOR_THREADS`` says (the codec tier is process-wide)."""
    if a.codec != "none":
        a._store._executor = ex


class TestStreamingPipelines:
    @pytest.fixture
    def routes(self, checksums, codec):
        """One (64, 64) array of (8, 8) chunks per route."""
        executors, arrays = [], {}
        for name, (cache_pages, threads) in ROUTES.items():
            arrays[name] = DRXFile.create(
                None, (64, 64), (8, 8), cache_pages=cache_pages,
                checksums=checksums, codec=codec)
            if threads:
                codec_ex = IOExecutor(threads, name="codec")
                executors.append(codec_ex)
                attach_codec_executor(arrays[name], codec_ex)
        yield arrays
        for a in arrays.values():
            a.close()
        for e in executors:
            e.shutdown()

    #: (start, stride, count) lattices over the (64, 64) array
    SLABS = [((1, 0), (3, 2), (21, 32)), ((0, 5), (9, 1), (8, 40)),
             ((7, 7), (8, 8), (8, 8))]

    @with_codecs
    @with_checksums
    def test_streamed_read_identity(self, routes):
        # two decimals: compressible, so a window holds enough chunks
        # to be split across the codec executor
        ref = np.round(np.random.default_rng(42).random((64, 64)), 2)
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
        assert routes["windowed"].cache_stats.misses < 64
        assert routes["fanned-out"].cache_stats.misses < 64
        fanned = routes["fanned-out"]
        assert fanned.codec == "none" \
            or fanned._store._executor.stats.submitted > 0

    @with_codecs
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
        a = DRXFile.create(None, (64, 64), (8, 8), cache_pages=4,
                           checksums=True)
        a.write((0, 0), ref)
        a.flush()
        report = a.scrub()
        assert report.corrupt == []
        assert np.array_equal(a.read(), ref)
        a.close()

    def test_pfs_backed_roundtrip_under_threads(self):
        rng = np.random.default_rng(13)
        ref = rng.random((48, 48))
        fs = ParallelFileSystem(nservers=4, stripe_size=512, replication=2)
        a = DRXFile.create_pfs(fs, "arr", (48, 48), (8, 8), cache_pages=4)
        a.write((0, 0), ref)
        a.flush()
        assert np.array_equal(a.read(), ref)
        fs.kill_server(0)
        assert np.array_equal(a.read(), ref)     # degraded, streamed
        a.close()


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

        a = DRXFile.create(None, (32, 32), (4, 4), cache_pages=4,
                           store_wrapper=wrapper)
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
        # the streamed readv is parked inside the store: dirty a page it
        # has not scattered yet, then let it continue
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

    def test_concurrent_writer_shadows_streamed_zlib_read(self):
        """The same guarantee over a compressed array: dirty pages are
        resolved after the window's read, before its codec split."""
        blocking = {}

        def wrapper(store, role):
            if role != "data":
                return store
            blocking["store"] = self.BlockingStore()
            return blocking["store"]

        codec_ex = IOExecutor(2, name="codec")
        try:
            a = DRXFile.create(None, (32, 32), (4, 4), cache_pages=4,
                               codec="zlib", checksums=True,
                               store_wrapper=wrapper)
            attach_codec_executor(a, codec_ex)
            store = blocking["store"]
            ref = np.arange(32 * 32, dtype=np.float64).reshape(32, 32)
            a.write((0, 0), ref)
            a.flush()
            store.arm = True
            result = {}
            t = threading.Thread(target=lambda: result.update(out=a.read()))
            t.start()
            assert store.entered.wait(10)
            a.put((31, 31), -123.0)
            store.gate.set()
            t.join(10)
            assert not t.is_alive()
            expect = ref.copy()
            expect[31, 31] = -123.0
            assert np.array_equal(result["out"], expect)
            a.close()
        finally:
            codec_ex.shutdown()


class TestCompressedWindows:
    """A streamed read of a compressed array moves one store transfer
    per pool-sized window and splits each window once across the codec
    tier; the codec tasks take no pool lock."""

    class ReadLog(StoreDecorator):
        def __init__(self, inner):
            super().__init__(inner)
            self.readv_bytes: list[int] = []

        def readv(self, extents):
            self.readv_bytes.append(sum(n for _off, n in extents))
            return super().readv(extents)

    def test_one_store_read_per_window(self):
        logs = {}

        def wrapper(store, role):
            if role != "data":
                return store
            logs["data"] = self.ReadLog(store)
            return logs["data"]

        codec_ex = IOExecutor(2, name="codec")
        try:
            a = DRXFile.create(None, (64, 64), (8, 8), cache_pages=4,
                               codec="zlib", checksums=True,
                               store_wrapper=wrapper)
            attach_codec_executor(a, codec_ex)
            ref = np.round(np.random.default_rng(5).random((64, 64)), 2)
            a.write((0, 0), ref)
            a.flush()
            # a tall narrow box: 8 runs of 3 chunks; the windows follow
            # from the stored sizes, cut at the pool's byte capacity
            cap = 4 * a.meta.chunk_nbytes
            addrs = sorted(a.meta.eci.address((i, j))
                           for i in range(8) for j in range(3))
            windows, held = 1, 0
            for n in a._store.stored_nbytes(addrs):
                if held and held + n > cap:
                    windows, held = windows + 1, 0
                held += n
            assert windows >= 3
            log = logs["data"]
            log.readv_bytes.clear()
            assert np.array_equal(a.read((0, 0), (64, 24)), ref[:, :24])
            assert len(log.readv_bytes) == windows
            assert max(log.readv_bytes) <= cap
            assert codec_ex.stats.submitted > 0
            a.close()
        finally:
            codec_ex.shutdown()

    def test_pool_faults_and_streamed_reads_stay_live(self):
        """``get_many`` holds the pool lock across its store read, which
        on a compressed array waits on codec tasks.  A streamed read
        over dirty pages shares the codec executor — here one thread —
        and must not need that lock inside its tasks."""
        codec_ex = IOExecutor(1, name="codec")
        try:
            a = DRXFile.create(None, (64, 64), (8, 8), cache_pages=8,
                               codec="zlib", checksums=True)
            attach_codec_executor(a, codec_ex)
            ref = np.round(np.random.default_rng(6).random((64, 64)), 2)
            a.write((0, 0), ref)
            a.flush()
            errors: list[BaseException] = []

            def faulter():
                try:
                    for k in range(40):
                        # 4 chunks: pooled, faulted with get_many
                        lo = ((k % 8) * 8, (k % 2) * 32)
                        got = a.read(lo, (lo[0] + 8, lo[1] + 32))
                        assert np.array_equal(
                            got, ref[lo[0]:lo[0] + 8, lo[1]:lo[1] + 32])
                        # re-dirty a page with the bytes it holds
                        a.put((lo[0], 63 - lo[1]), ref[lo[0], 63 - lo[1]])
                except BaseException as exc:    # noqa: BLE001
                    errors.append(exc)

            def streamer():
                try:
                    for _ in range(20):
                        assert np.array_equal(a.read(), ref)   # streamed
                except BaseException as exc:    # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=faulter),
                       threading.Thread(target=streamer)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert codec_ex.stats.submitted > 0
            a.close()
        finally:
            codec_ex.shutdown()
