"""Unit tests for the collective-I/O engine (repro.mpi.collective):
MPI-IO hints, data sieving, two-phase buffering, aggregator placement,
overlap tie-breaking, and the O(P) exchange-volume regression."""

from __future__ import annotations

import numpy as np
import pytest

from repro import mpi
from repro.core.errors import MPIDatatypeError, MPIFileError
from repro.mpi.collective import (TAG_DATA, TAG_REQ, CollectiveHints,
                                  choose_aggregators, file_domains)
from repro.mpi.comm import Intracomm
from repro.mpi.file import FileView, _check_write_extents
from repro.mpi.runner import SPMDFailure
from repro.pfs import ParallelFileSystem


def run(n, fn, *args, **kw):
    return mpi.mpiexec(n, fn, *args, timeout=kw.pop("timeout", 30), **kw)


def make_fs(stripe=64 * 1024, nservers=4):
    return ParallelFileSystem(nservers=nservers, stripe_size=stripe)


#: fully explicit steering: every hint spelled out, then overridden
def hints_info(**over):
    info = {"cb_nodes": 1, "cb_buffer_size": 4 << 20,
            "ind_rd_buffer_size": 4 << 20, "ind_wr_buffer_size": 512 << 10,
            "romio_cb_read": "auto", "romio_cb_write": "auto",
            "romio_ds_read": "auto", "romio_ds_write": "auto",
            "ds_hole_threshold": 4096}
    info.update(over)
    return info


class _FakeComm:
    """Just enough of Intracomm for choose_aggregators."""

    def __init__(self, node_of_rank):
        self._nm = list(node_of_rank)
        self.size = len(self._nm)

    def node_map(self):
        return list(self._nm)


# ---------------------------------------------------------------------------
# hints
# ---------------------------------------------------------------------------

class TestHints:
    def test_defaults(self):
        h = CollectiveHints.resolve()
        assert h.cb_nodes is None
        assert h.cb_buffer_size == 4 << 20
        assert h.ind_wr_buffer_size == 512 << 10
        assert h.romio_cb_read == "auto"
        assert h.romio_ds_write == "auto"
        assert h.ds_hole_threshold == 4096

    def test_validation(self):
        with pytest.raises(MPIFileError):
            CollectiveHints.resolve({"no_such_hint": 1})
        with pytest.raises(MPIFileError):
            CollectiveHints.resolve({"romio_ds_read": "maybe"})
        with pytest.raises(MPIFileError):
            CollectiveHints.resolve({"romio_cb_write": "legacy"})  # gone
        with pytest.raises(MPIFileError):
            CollectiveHints.resolve({"cb_buffer_size": 0})
        with pytest.raises(MPIFileError):
            CollectiveHints.resolve({"cb_nodes": "many"})
        # modes are case-insensitive strings
        assert CollectiveHints.resolve(
            {"romio_cb_write": "DISABLE"}).romio_cb_write == "disable"

    def test_set_info_get_info(self):
        fs = make_fs()

        def body(comm):
            fh = mpi.File.Open(comm, "f", mpi.MODE_CREATE | mpi.MODE_RDWR,
                               fs, info={"cb_nodes": 2})
            assert fh.Get_info()["cb_nodes"] == 2
            fh.Set_info({"romio_ds_read": "disable"})
            eff = fh.Get_info()
            assert eff["cb_nodes"] == 2          # merge keeps prior hints
            assert eff["romio_ds_read"] == "disable"
            # a bad merge is rejected atomically
            try:
                fh.Set_info({"cb_nodes": 0})
            except MPIFileError:
                pass
            else:       # pragma: no cover
                raise AssertionError("bad hint accepted")
            assert fh.Get_info()["cb_nodes"] == 2
            fh.Close()
            return True

        assert run(2, body) == [True, True]

    def test_open_info_mismatch_detected(self):
        fs = make_fs()

        def body(comm):
            info = {"cb_nodes": 1 + comm.rank}
            return mpi.File.Open(comm, "f",
                                 mpi.MODE_CREATE | mpi.MODE_RDWR,
                                 fs, info=info)

        with pytest.raises(SPMDFailure):
            run(2, body)

    def test_hint_divergence_caught_at_collective(self):
        fs = make_fs()
        fs.create("f").write(0, bytes(1024))

        def body(comm):
            fh = mpi.File.Open(comm, "f", mpi.MODE_RDONLY, fs)
            if comm.rank == 1:
                fh.Set_info({"cb_nodes": 2})    # diverged configuration
            buf = bytearray(64)
            fh.Read_at_all(8 * comm.rank, buf)
            return True

        with pytest.raises(SPMDFailure):
            run(2, body)


# ---------------------------------------------------------------------------
# aggregator placement and file domains
# ---------------------------------------------------------------------------

class TestPlacement:
    def test_default_single_aggregator(self):
        h = CollectiveHints.resolve()
        assert choose_aggregators(_FakeComm([0, 0, 0, 0]), h) == [0]

    def test_one_per_node(self):
        h = CollectiveHints.resolve()
        assert choose_aggregators(_FakeComm([0, 0, 1, 1]), h) == [0, 2]
        assert choose_aggregators(_FakeComm([1, 1, 0, 0]), h) == [0, 2]

    def test_round_robin_second_sweep(self):
        h = CollectiveHints.resolve({"cb_nodes": 3})
        assert choose_aggregators(_FakeComm([0, 0, 1, 1]), h) == [0, 1, 2]

    def test_cb_nodes_clamped_to_size(self):
        h = CollectiveHints.resolve({"cb_nodes": 99})
        assert choose_aggregators(_FakeComm([0, 0]), h) == [0, 1]

    def test_set_node_map(self):
        def body(comm):
            before = comm.node_map()        # default: one node
            comm.barrier()
            comm.Set_node_map([1, 0])
            return before, comm.node_map()

        assert run(2, body) == [([0, 0], [1, 0])] * 2

    def test_file_domains(self):
        bounds = file_domains(0, 4096, 4, 1024)
        assert bounds == [0, 1024, 2048, 3072, 4096]
        # alignment collapses tiny ranges into empty lead domains
        bounds = file_domains(0, 900, 2, 512)
        assert bounds == [0, 0, 900]
        # boundaries stay monotone and inside the range
        bounds = file_domains(100, 5000, 3, 512)
        assert bounds[0] == 100 and bounds[-1] == 5000
        assert all(a <= b for a, b in zip(bounds, bounds[1:]))


# ---------------------------------------------------------------------------
# independent data sieving
# ---------------------------------------------------------------------------

def holey_view():
    """8 blocks of 64 bytes, one 64-byte hole between consecutive blocks."""
    blk = mpi.BYTE.Create_contiguous(64)
    return blk.Create_indexed([1] * 8, [2 * i for i in range(8)]).Commit()


class TestDataSieving:
    def test_read_request_reduction_and_bytes(self):
        fs = make_fs()
        pattern = bytes(range(256)) * 4      # 1024 bytes
        fs.create("f").write(0, pattern)
        expect = b"".join(pattern[128 * i:128 * i + 64] for i in range(8))

        def body(comm, ds):
            fh = mpi.File.Open(comm, "f", mpi.MODE_RDONLY, fs,
                               info=hints_info(romio_ds_read=ds))
            fh.Set_view(0, mpi.BYTE, holey_view())
            buf = bytearray(512)
            fh.Read_at(0, buf)
            fh.Close()
            return bytes(buf)

        fs.reset_stats()
        assert run(1, body, "disable") == [expect]
        plain = fs.total_stats().read_requests
        fs.reset_stats()
        assert run(1, body, "auto") == [expect]
        sieved = fs.total_stats().read_requests
        assert sieved == 1 < plain == 8
        cs = fs.collective_stats()
        assert cs.sieve_reads == 1
        assert cs.wasted_bytes == 7 * 64     # the read-through holes
        assert cs.requests_before == 8 and cs.requests_after == 1

    def test_auto_threshold_respected(self):
        fs = make_fs()
        fs.create("f").write(0, bytes(1024))

        def body(comm):
            fh = mpi.File.Open(comm, "f", mpi.MODE_RDONLY, fs,
                               info=hints_info(ds_hole_threshold=32))
            fh.Set_view(0, mpi.BYTE, holey_view())
            fh.Read_at(0, bytearray(512))
            fh.Close()
            return True

        fs.reset_stats()
        assert run(1, body) == [True]
        # 64-byte holes exceed the 32-byte threshold: no merging
        assert fs.total_stats().read_requests == 8
        assert fs.collective_stats().sieve_reads == 0

    def test_write_rmw_preserves_hole_bytes(self):
        fs = make_fs()
        pattern = bytes(range(256)) * 4
        fs.create("f").write(0, pattern)
        payload = bytes([0xAB]) * 512

        def body(comm, ds):
            fh = mpi.File.Open(comm, "f", mpi.MODE_RDWR, fs,
                               info=hints_info(romio_ds_write=ds))
            fh.Set_view(0, mpi.BYTE, holey_view())
            fh.Write_at(0, bytearray(payload))
            fh.Close()
            return True

        expect = bytearray(pattern)
        for i in range(8):
            expect[128 * i:128 * i + 64] = payload[64 * i:64 * (i + 1)]

        fs.reset_stats()
        assert run(1, body, "auto") == [True]
        assert fs.open("f").read(0, 1024) == bytes(expect)
        cs = fs.collective_stats()
        assert cs.sieve_rmw == 1
        assert cs.requests_before == 8 and cs.requests_after == 1
        # sieved and plain writes land identical bytes
        fs2 = make_fs()
        fs2.create("f").write(0, pattern)
        assert run(1, lambda comm: body(comm, "disable")) == [True]

    def test_writes_bit_identical_across_modes(self):
        pattern = bytes(range(256)) * 4
        payload = bytes(range(256)) * 2
        images = {}
        for ds in ("disable", "auto", "enable"):
            fs = make_fs()
            fs.create("f").write(0, pattern)

            def body(comm):
                fh = mpi.File.Open(comm, "f", mpi.MODE_RDWR, fs,
                                   info=hints_info(romio_ds_write=ds))
                fh.Set_view(0, mpi.BYTE, holey_view())
                fh.Write_at(0, bytearray(payload))
                fh.Close()
                return True

            assert run(1, body) == [True]
            images[ds] = fs.open("f").read(0, 1024)
        assert images["disable"] == images["auto"] == images["enable"]


# ---------------------------------------------------------------------------
# two-phase collective I/O
# ---------------------------------------------------------------------------

NP = 4


def rank_blocks_view(rank, nblocks=4, block=64, stride=None):
    """Rank r owns blocks r, r+NP, r+2*NP, ... of ``block`` bytes."""
    blk = mpi.BYTE.Create_contiguous(block)
    disps = [NP * i + rank for i in range(nblocks)]
    return blk.Create_indexed([1] * nblocks, disps).Commit()


def serial_reference(total, writers):
    """Ranks write one after the other, in rank order."""
    img = bytearray(total)
    for extents, data in writers:
        pos = 0
        for off, length in extents:
            img[off:off + length] = data[pos:pos + length]
            pos += length
    return bytes(img)


#: simulated placements of the NP ranks: all on one node (the default),
#: one node per rank, and two nodes of two.  The map moves the
#: aggregators, and so which ranks each aggregator serves.
ONE_NODE, NODE_PER_RANK, TWO_NODES = None, list(range(NP)), [0, 0, 1, 1]
NODE_MAPS = [pytest.param(ONE_NODE, id=pytest.HIDDEN_PARAM),
             pytest.param(NODE_PER_RANK, id="node-per-rank"),
             pytest.param(TWO_NODES, id="two-nodes")]


def open_placed(comm, fs, amode, node_map, **hints):
    """Open "f" after placing the ranks per ``node_map``."""
    if node_map is not None:
        comm.Set_node_map(node_map)
    return mpi.File.Open(comm, "f", amode, fs, info=hints_info(**hints))


def strided_read(comm, fs, cb_nodes, node_map):
    """Every rank collectively reads its ``rank_blocks_view``."""
    fh = open_placed(comm, fs, mpi.MODE_RDONLY, node_map, cb_nodes=cb_nodes)
    fh.Set_view(0, mpi.BYTE, rank_blocks_view(comm.rank))
    buf = bytearray(256)
    n = fh.Read_at_all(0, buf)
    fh.Close()
    return n, bytes(buf)


def strided_write(comm, fs, cb_nodes, node_map, ds):
    """Every rank collectively writes ``rank + 1`` bytes through its
    ``rank_blocks_view``."""
    fh = open_placed(comm, fs, mpi.MODE_RDWR, node_map, cb_nodes=cb_nodes,
                     romio_ds_write=ds)
    fh.Set_view(0, mpi.BYTE, rank_blocks_view(comm.rank))
    fh.Write_at_all(0, bytearray(bytes([comm.rank + 1]) * 256))
    fh.Close()
    return True


class TestTwoPhase:
    @pytest.mark.parametrize("node_map", NODE_MAPS)
    @pytest.mark.parametrize("cb_nodes", [1, 2, NP])
    def test_read_bit_identical_to_serial(self, cb_nodes, node_map):
        fs = make_fs()
        pattern = bytes(range(256)) * 4      # 1024 = 16 blocks of 64
        fs.create("f").write(0, pattern)

        out = run(NP, strided_read, fs, cb_nodes, node_map)
        for rank, (n, got) in enumerate(out):
            view = FileView(0, mpi.BYTE, rank_blocks_view(rank))
            expect = b"".join(pattern[o:o + ln]
                              for o, ln in view.extents(0, 256))
            assert n == 256 and got == expect, f"rank {rank} diverged"

    @pytest.mark.parametrize("node_map", NODE_MAPS)
    @pytest.mark.parametrize("cb_nodes", [1, 2, NP])
    @pytest.mark.parametrize("ds", ["disable", "auto"])
    def test_write_bit_identical_to_serial(self, cb_nodes, ds, node_map):
        fs = make_fs()
        fs.create("f")

        assert all(run(NP, strided_write, fs, cb_nodes, node_map, ds))
        writers = []
        for rank in range(NP):
            view = FileView(0, mpi.BYTE, rank_blocks_view(rank))
            writers.append((view.extents(0, 256),
                            bytes([rank + 1]) * 256))
        assert fs.open("f").read(0, 1024) == serial_reference(1024, writers)

    def test_phase_a_never_pickles(self, monkeypatch):
        """Phase A hands every payload over by reference: no
        ``Intracomm.send`` on the two-phase tags on any node map, and
        the same logical exchange volume on every map."""
        tags = []
        send = Intracomm.send

        def counting_send(self, obj, dest, tag=0):
            if tag in (TAG_REQ, TAG_DATA):
                tags.append(tag)
            return send(self, obj, dest, tag)

        monkeypatch.setattr(Intracomm, "send", counting_send)
        sends, volume = {}, {}
        for name, node_map in (("one", ONE_NODE), ("per-rank", NODE_PER_RANK),
                               ("two", TWO_NODES)):
            fs = make_fs()
            fs.create("f").write(0, bytes(range(256)) * 4)
            tags.clear()
            for cb_nodes in (1, 2, NP):
                run(NP, strided_read, fs, cb_nodes, node_map)
                run(NP, strided_write, fs, cb_nodes, node_map, "auto")
            sends[name] = len(tags)
            volume[name] = fs.collective_stats().exchange_bytes
        assert sends == {"one": 0, "per-rank": 0, "two": 0}
        assert volume["one"] == volume["per-rank"] == volume["two"] > 0

    def test_bad_receive_buffer_fails_after_the_collective(self):
        """A read-only or non-contiguous receive buffer raises
        MPIDatatypeError on its own rank, and only once the collective
        is over: the peer still gets its bytes instead of waiting for a
        rank that never joined."""
        fs = make_fs()
        pattern = bytes(range(128))
        fs.create("f").write(0, pattern)

        def read_only():
            buf = np.zeros(64, dtype=np.uint8)
            buf.flags.writeable = False
            return buf

        bad = {"read-only": read_only,
               "non-contiguous": lambda: np.zeros(16, dtype=np.int64)[::2]}

        def body(comm):
            fh = mpi.File.Open(comm, "f", mpi.MODE_RDONLY, fs,
                               info=hints_info())
            out = []
            for kind, make in bad.items():
                if comm.rank == 0:
                    with pytest.raises(MPIDatatypeError):
                        fh.Read_at_all(0, make())
                    out.append(kind)
                else:
                    buf = bytearray(64)
                    fh.Read_at_all(64, buf)
                    out.append(bytes(buf))
            fh.Close()
            return out

        assert run(2, body, timeout=20) == [list(bad), [pattern[64:]] * 2]

    def test_overlapping_writers_rank_order(self):
        """Overlap resolves as if ranks wrote serially in rank order:
        the higher rank's bytes win everywhere the ranges intersect."""
        fs = make_fs()
        fs.create("f")

        def body(comm):
            fh = mpi.File.Open(comm, "f", mpi.MODE_RDWR, fs,
                               info=hints_info(cb_nodes=2))
            # rank 0 writes [0, 96), rank 1 writes [32, 128)
            fh.Write_at_all(32 * comm.rank,
                            bytearray(bytes([comm.rank + 1]) * 96))
            fh.Close()
            return True

        assert all(run(2, body))
        got = fs.open("f").read(0, 128)
        assert got == b"\x01" * 32 + b"\x02" * 96

    def test_holey_roundtrip_with_sieving(self):
        """Interleaved holey writers then readers, 2 aggregators: the
        write side read-modify-writes, the read side covering-reads,
        and every rank gets its own bytes back bit-exact."""
        fs = make_fs(stripe=512)

        def body(comm):
            fh = mpi.File.Open(comm, "f", mpi.MODE_CREATE | mpi.MODE_RDWR,
                               fs, info=hints_info(cb_nodes=2))
            blk = mpi.BYTE.Create_contiguous(64)
            ft = blk.Create_indexed(
                [1] * 8, [4 * i + comm.rank for i in range(8)]).Commit()
            fh.Set_view(0, mpi.BYTE, ft)
            payload = bytes([comm.rank + 1]) * 512
            fh.Write_at_all(0, bytearray(payload))
            got = bytearray(512)
            fh.Read_at_all(0, got)
            fh.Close()
            return bytes(got) == payload

        assert all(run(2, body))
        cs = fs.collective_stats()
        assert cs.collectives == 2
        assert cs.sieve_rmw >= 1             # holey write windows
        assert cs.requests_after < cs.requests_before

    def test_empty_rank_participates(self):
        fs = make_fs()
        fs.create("f").write(0, bytes(range(128)))

        def body(comm):
            fh = mpi.File.Open(comm, "f", mpi.MODE_RDONLY, fs,
                               info=hints_info(cb_nodes=2))
            buf = bytearray(64 if comm.rank == 0 else 0)
            fh.Read_at_all(0, buf)
            fh.Close()
            return bytes(buf)

        out = run(2, body)
        assert out[0] == bytes(range(64)) and out[1] == b""

    def test_eof_short_read_collective(self):
        fs = make_fs()
        fs.create("f").write(0, bytes(20))

        def body(comm):
            fh = mpi.File.Open(comm, "f", mpi.MODE_RDONLY, fs,
                               info=hints_info(cb_nodes=2))
            fh.Set_view(0, mpi.DOUBLE)
            buf = np.full(3, -1.0)           # asks for 24 bytes, 20 exist
            st = mpi.Status()
            n = fh.Read_at_all(0, buf, st)
            fh.Close()
            # 20 bytes moved, but only 2 *whole* doubles count
            return n, st.count, st.Get_count(mpi.DOUBLE)

        assert run(2, body) == [(20, 16, 2)] * 2

    def test_status_count_consistent_across_paths(self):
        fs = make_fs()
        fs.create("f").write(0, bytes(20))

        def body(comm):
            fh = mpi.File.Open(comm, "f", mpi.MODE_RDONLY, fs,
                               info=hints_info())
            fh.Set_view(0, mpi.DOUBLE)
            out = []
            for op in (fh.Read_at, fh.Read_at_all):
                st = mpi.Status()
                op(0, np.empty(3), st)
                out.append((st.count, st.Get_count(mpi.DOUBLE)))
            fh.Close()
            return out

        assert run(1, body) == [[(16, 2), (16, 2)]]

    def test_cb_disable_matches_two_phase(self):
        fs = make_fs()
        pattern = bytes(range(256)) * 4
        fs.create("f").write(0, pattern)

        def body(comm, mode):
            fh = mpi.File.Open(comm, "f", mpi.MODE_RDONLY, fs,
                               info=hints_info(romio_cb_read=mode))
            fh.Set_view(0, mpi.BYTE, rank_blocks_view(comm.rank))
            buf = bytearray(256)
            fh.Read_at_all(0, buf)
            fh.Close()
            return bytes(buf)

        assert run(NP, body, "disable") == run(NP, body, "auto") \
            == run(NP, body, "enable")

    def test_aggregation_reduces_requests(self):
        """The E3 shape: strided per-rank blocks, collectively read.
        Two-phase turns NP sieved covering reads into one aggregated
        request."""
        fs = make_fs()
        fs.create("f").write(0, bytes(range(256)) * 4)

        def body(comm, cb):
            fh = mpi.File.Open(comm, "f", mpi.MODE_RDONLY, fs,
                               info=hints_info(romio_cb_read=cb))
            fh.Set_view(0, mpi.BYTE, rank_blocks_view(comm.rank))
            buf = bytearray(256)
            fh.Read_at_all(0, buf)
            fh.Close()
            return bytes(buf)

        fs.reset_stats()
        indep = run(NP, body, "disable")
        indep_reqs = fs.total_stats().read_requests
        fs.reset_stats()
        coll = run(NP, body, "auto")
        coll_reqs = fs.total_stats().read_requests
        assert coll == indep
        assert coll_reqs == 1 < indep_reqs
        cs = fs.collective_stats()
        assert cs.requests_before == NP * 4     # 4 extents per rank
        assert cs.requests_after == 1

    @pytest.mark.parametrize("nprocs", [2, 4])
    def test_exchange_volume_scales_linearly(self, nprocs,
                                             request):
        """Regression for an O(P**2) result broadcast: each rank reads
        its own contiguous 4 KiB block, and two-phase ships each byte
        to exactly one requester — O(total), not O(P * total)."""
        fs = make_fs()
        fs.create("f").write(0, bytes(4096) * nprocs)

        def body(comm):
            fh = mpi.File.Open(comm, "f", mpi.MODE_RDONLY, fs,
                               info=hints_info())
            buf = bytearray(4096)
            fh.Read_at_all(4096 * comm.rank, buf)
            fh.Close()
            return True

        assert all(run(nprocs, body))
        measured = fs.collective_stats().exchange_bytes
        assert measured <= 2 * 4096 * nprocs            # O(P)
        # stash for the cross-P ratio check
        cache = request.config.cache
        cache.set(f"collective/two_phase_xchg/{nprocs}", measured)
        small = cache.get("collective/two_phase_xchg/2", None)
        if nprocs == 4 and small:
            assert measured / small <= 2.5


# ---------------------------------------------------------------------------
# helpers and stats
# ---------------------------------------------------------------------------

class TestPlumbing:
    def test_check_write_extents(self):
        _check_write_extents([(0, 4), (8, 4)], b"12345678")
        with pytest.raises(MPIFileError):
            _check_write_extents([(0, 4)], b"12345")
        with pytest.raises(MPIFileError):
            _check_write_extents([(0, -1)], b"")

    def test_collective_stats_lifecycle(self):
        from repro.pfs import CollectiveStats
        a = CollectiveStats()
        a.collectives = 2
        a.exchange_bytes = 100
        snap = a.snapshot()
        a.collectives = 5
        d = a.delta(snap)
        assert d.collectives == 3 and d.exchange_bytes == 0
        b = CollectiveStats()
        b.add(a)
        assert b.collectives == 5
        s = str(a)
        assert "colls=5" in s and "xchg=" in s
        a.reset()
        assert a.collectives == 0 and a.exchange_bytes == 0

    def test_fs_reset_clears_collective_stats(self):
        fs = make_fs()
        fs.create("f").write(0, bytes(1024))

        def body(comm):
            fh = mpi.File.Open(comm, "f", mpi.MODE_RDONLY, fs,
                               info=hints_info())
            fh.Read_at_all(0, bytearray(64))
            fh.Close()
            return True

        assert all(run(2, body))
        assert fs.collective_stats().collectives == 1
        fs.reset_stats()
        assert fs.collective_stats().collectives == 0

    def test_ga_info_plumbing(self):
        from repro.drxmp import DRXMPFile
        from repro.drxmp.ga import GlobalArray
        fs = make_fs()

        def body(comm):
            a = DRXMPFile.create(comm, fs, "arr", (8, 8), (4, 4),
                                 info={"cb_nodes": 2})
            assert a.get_info()["cb_nodes"] == 2
            ga = GlobalArray.from_file(a, info={"romio_ds_read": "enable"})
            assert a.get_info()["romio_ds_read"] == "enable"
            ga.local[...] = comm.rank
            ga.to_file(a)
            ga2 = GlobalArray.from_file(a)
            ok = np.array_equal(ga2.local, ga.local)
            a.close()
            return ok

        assert all(run(2, body))
