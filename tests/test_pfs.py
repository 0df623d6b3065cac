"""Unit tests for the parallel file system substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import PFSError
from repro.pfs import (
    CostModel,
    IOStats,
    ParallelFileSystem,
    StripeLayout,
    coalesce_extents,
)


class TestCoalesce:
    def test_empty(self):
        assert coalesce_extents([]) == []

    def test_merge_adjacent(self):
        assert coalesce_extents([(0, 4), (4, 4)]) == [(0, 8)]

    def test_merge_overlapping(self):
        assert coalesce_extents([(0, 6), (4, 6)]) == [(0, 10)]

    def test_sorting(self):
        assert coalesce_extents([(10, 2), (0, 2)]) == [(0, 2), (10, 2)]

    def test_zero_length_dropped(self):
        assert coalesce_extents([(5, 0), (1, 2)]) == [(1, 2)]

    def test_negative_rejected(self):
        with pytest.raises(PFSError):
            coalesce_extents([(-1, 4)])
        # a negative length is refused too, not dropped as empty
        with pytest.raises(PFSError):
            coalesce_extents([(3, -2)])
        with pytest.raises(PFSError):
            coalesce_extents([(0, 4), (10, -20)])


class TestStripeLayout:
    def test_server_of(self):
        lay = StripeLayout(nservers=3, stripe_size=10)
        assert [lay.server_of(o) for o in (0, 9, 10, 20, 30, 35)] == \
            [0, 0, 1, 2, 0, 0]

    def test_to_server_offset(self):
        lay = StripeLayout(nservers=3, stripe_size=10)
        assert lay.to_server_offset(0) == (0, 0)
        assert lay.to_server_offset(10) == (1, 0)
        assert lay.to_server_offset(35) == (0, 15)
        assert lay.to_server_offset(47) == (1, 17)

    def test_split_extent_covers_everything(self):
        lay = StripeLayout(nservers=4, stripe_size=7)
        pieces = list(lay.split_extent(5, 40))
        assert sum(p[3] for p in pieces) == 40
        # logical offsets are increasing and contiguous
        pos = 5
        for _srv, _so, lo, ln in pieces:
            assert lo == pos
            pos += ln

    def test_bad_layout(self):
        with pytest.raises(PFSError):
            StripeLayout(0, 10)
        with pytest.raises(PFSError):
            StripeLayout(2, 0)

    def test_bad_extent(self):
        lay = StripeLayout(2, 8)
        with pytest.raises(PFSError):
            list(lay.split_extent(-1, 4))


class TestIOStats:
    def test_add_and_delta(self):
        a = IOStats(read_requests=2, bytes_read=10, seeks=1)
        b = IOStats(write_requests=3, bytes_written=20)
        a.add(b)
        assert a.requests == 5
        assert a.bytes_moved == 30
        snap = a.snapshot()
        a.read_requests += 4
        d = a.delta(snap)
        assert d.read_requests == 4 and d.write_requests == 0

    def test_reset(self):
        a = IOStats(read_requests=2)
        a.reset()
        assert a.requests == 0


class TestCostModel:
    def test_seek_costs_extra(self):
        cm = CostModel(request_overhead=0.001, seek_time=0.01,
                       bandwidth=1e6)
        assert cm.request_time(1000, seek=True) == pytest.approx(
            0.001 + 0.01 + 0.001)
        assert cm.request_time(1000, seek=False) == pytest.approx(0.002)

    def test_batch(self):
        cm = CostModel(request_overhead=0.001, seek_time=0.01,
                       bandwidth=1e6)
        t = cm.batch_time([1000, 1000], [True, False])
        assert t == pytest.approx(0.012 + 0.002)


class TestFileSystem:
    def test_namespace(self):
        fs = ParallelFileSystem(nservers=2, stripe_size=16)
        f = fs.create("a")
        assert fs.exists("a")
        assert fs.open("a") is f
        assert fs.listdir() == ["a"]
        with pytest.raises(PFSError):
            fs.create("a")
        fs.delete("a")
        assert not fs.exists("a")
        with pytest.raises(PFSError):
            fs.open("a")
        with pytest.raises(PFSError):
            fs.delete("a")

    def test_write_read_roundtrip_across_stripes(self):
        fs = ParallelFileSystem(nservers=3, stripe_size=8)
        f = fs.create("x")
        payload = bytes(range(256)) * 3
        f.write(5, payload)
        assert f.read(5, len(payload)) == payload
        assert f.size == 5 + len(payload)

    def test_sparse_reads_zero(self):
        fs = ParallelFileSystem(nservers=2, stripe_size=8)
        f = fs.create("x")
        f.write(100, b"zz")
        assert f.read(0, 4) == b"\x00" * 4

    def test_readv_order_preserved(self):
        fs = ParallelFileSystem(nservers=2, stripe_size=4)
        f = fs.create("x")
        f.write(0, bytes(range(32)))
        data, _t = f.readv([(24, 4), (0, 4)])   # descending offsets
        assert data == bytes(range(24, 28)) + bytes(range(4))

    def test_writev_length_mismatch(self):
        fs = ParallelFileSystem(nservers=2, stripe_size=4)
        f = fs.create("x")
        with pytest.raises(PFSError):
            f.writev([(0, 4)], b"too long for extent")

    def test_stats_accumulate(self):
        fs = ParallelFileSystem(nservers=2, stripe_size=8)
        f = fs.create("x")
        f.write(0, bytes(64))
        st = fs.total_stats()
        assert st.write_requests > 0
        assert st.bytes_written == 64
        fs.reset_stats()
        assert fs.total_stats().requests == 0

    def test_striping_balances_servers(self):
        fs = ParallelFileSystem(nservers=4, stripe_size=8)
        f = fs.create("x")
        f.write(0, bytes(8 * 4 * 10))
        per = fs.per_server_stats()
        assert all(s.bytes_written == 80 for s in per)


class TestCollectiveIO:
    def test_seek_counting(self):
        fs = ParallelFileSystem(nservers=1, stripe_size=1 << 20)
        f = fs.create("x")
        f.write(0, bytes(100))
        fs.reset_stats()
        f.readv([(0, 10)])        # head at 0 after write(0,100)? head=100
        f.readv([(10, 10)])       # contiguous with previous read
        f.readv([(50, 10)])       # seek
        st = fs.total_stats()
        assert st.read_requests == 3
        assert st.seeks == 2      # first read seeks (head was at 100)

    def test_dump_and_load(self, tmp_path):
        fs = ParallelFileSystem(nservers=3, stripe_size=8)
        f = fs.create("dir/file.xta")
        f.write(0, b"hello striped world")
        fs.dump(tmp_path)
        fs2 = ParallelFileSystem(nservers=2, stripe_size=64)
        fs2.load(tmp_path)
        assert fs2.open("dir/file.xta").read(0, 19) == b"hello striped world"


class TestReadBody:
    """``PFSFile.readv`` is the one read body: the servers copy each
    byte straight into the caller's sinks, and every request is
    accounted whatever lands."""

    @staticmethod
    def _file(nbytes=1000, **kw):
        fs = ParallelFileSystem(nservers=kw.pop("nservers", 3),
                                stripe_size=kw.pop("stripe_size", 16), **kw)
        f = fs.create("x")
        payload = bytes((7 * i + 3) % 251 for i in range(nbytes))
        f.write(0, payload)
        fs.reset_stats()
        return fs, f, payload

    def test_overlapping_sinks(self):
        """Two requesters read one extent: both buffers fill, and the
        servers service it once."""
        fs, f, payload = self._file()
        a, b = bytearray(100), bytearray(60)
        data, _t = f.readv([(200, 100)], into=[(200, memoryview(a)),
                                               (230, memoryview(b))])
        assert data is None
        assert a == payload[200:300] and b == payload[230:290]
        assert fs.total_stats().bytes_read == 100

    def test_holes_land_nowhere(self):
        """A covering read whose sinks leave holes: the hole bytes are
        read and accounted, and no byte outside the sinks is touched."""
        fs, f, payload = self._file()
        buf = bytearray(b"\xee" * 64)
        view = memoryview(buf)
        f.readv([(100, 300)], into=[(110, view[8:28]), (350, view[40:50])])
        assert buf[8:28] == payload[110:130]
        assert buf[40:50] == payload[350:360]
        assert buf[:8] + buf[28:40] + buf[50:] == b"\xee" * 34
        assert fs.total_stats().bytes_read == 300

    def test_past_eof_zero_filled(self):
        fs, f, payload = self._file(nbytes=100)
        buf = bytearray(b"\xff" * 80)
        f.readv([(60, 80)], into=[(60, memoryview(buf))])
        assert buf == payload[60:] + bytes(40)
        data, _t = f.readv([(90, 20), (500, 8)])
        assert data == payload[90:] + bytes(18)

    def test_typed_sink(self):
        """A sink may be any writable contiguous buffer."""
        _fs, f, payload = self._file()
        out = np.zeros(4, dtype=np.float64)
        f.readv([(16, 32)], into=[(16, out)])
        assert out.tobytes() == payload[16:48]

    def test_failover_fills_sinks(self):
        """A dead server and a mid-call error: the re-routed pieces fill
        the same sinks, with the failover counters of the historical
        read path."""
        from repro.drx.resilience import FaultPlan
        fs, f, payload = self._file(nbytes=6 * 64 + 10, stripe_size=64,
                                    replication=2)
        fs.kill_server(2)
        fs.servers[0].fault_plan = FaultPlan(seed=0).fail("server.read",
                                                          times=1)
        extents = [(5, 200), (300, 90), (250, 40)]
        bufs = [bytearray(n) for _o, n in extents]
        f.readv(extents, into=[(o, memoryview(b))
                               for (o, _n), b in zip(extents, bufs)])
        assert bufs == [payload[o:o + n] for o, n in extents]
        rs = fs.replica_stats()
        assert (rs.degraded_reads, rs.failovers) == (6, 1)
        st = fs.total_stats()
        assert (st.read_requests, st.bytes_read) == (9, 330)

    def test_overlapping_extents(self):
        """Extents overlapping off a stripe boundary pack correctly."""
        for replication in (1, 2):
            _fs, f, payload = self._file(replication=replication)
            data, _t = f.readv([(5, 200), (100, 40), (120, 3)])
            assert data == payload[5:205] + payload[100:140] \
                + payload[120:123]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1200), st.integers(0, 150)),
                max_size=8),
       st.integers(1, 3), st.sampled_from([1, 7, 16, 64]))
def test_readv_matches_store_oracle(extents, replication, stripe):
    """``readv`` equals slicing the written bytes (zeros past EOF), as
    a packed buffer and through one sink per extent."""
    fs = ParallelFileSystem(nservers=3, stripe_size=stripe,
                            replication=replication)
    f = fs.create("x")
    payload = bytes((5 * i + 1) % 253 for i in range(1000))
    f.write(0, payload)
    padded = payload + bytes(1400)
    expect = [padded[o:o + n] for o, n in extents]
    data, _t = f.readv(extents)
    assert data == b"".join(expect)
    bufs = [bytearray(b"\x01" * n) for _o, n in extents]
    f.readv(extents, into=[(o, memoryview(b))
                           for (o, _n), b in zip(extents, bufs)])
    assert bufs == expect
