"""Unit tests for the parallel file system substrate."""

from __future__ import annotations

import pytest

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
