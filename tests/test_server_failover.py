"""Server-failure tolerance: replica placement, degraded reads, fan-out
writes, failure detection, online rebuild and CRC arbitration.

Covers the replication tier of the simulated PFS (DESIGN.md §5c): the
chained-declustering :class:`ReplicaLayout` arithmetic, the
`PFSFile`/`ParallelFileSystem` failure API, and the integration points
upward — `PFSByteStore.read_alternates`, `ChecksumGuard.check_or_
arbitrate`, and the `DRX_MPI_TIMEOUT` watchdog diagnostics.
"""

from __future__ import annotations

import os

import pytest

from repro.core.errors import MPIError, PFSError, ServerDownError
from repro.drx.resilience import (
    ChecksumGuard,
    FaultPlan,
    chunk_crc,
    is_transient,
)
from repro.drx.storage import PFSByteStore
from repro.pfs import (
    ParallelFileSystem,
    ReplicaLayout,
    StripeLayout,
    replica_object_name,
)
from repro import mpi

SEED = int(os.environ.get("DRX_FAULT_SEED", "0"))


def make_fs(nservers=3, stripe=64, replication=2, **kw):
    return ParallelFileSystem(nservers=nservers, stripe_size=stripe,
                              replication=replication, **kw)


def pattern(n: int, salt: int = 0) -> bytes:
    return bytes((i * 131 + salt * 29) % 251 for i in range(n))


# ---------------------------------------------------------------------------
# placement arithmetic
# ---------------------------------------------------------------------------

class TestReplicaLayout:
    def test_primary_placement_matches_striplayout(self):
        plain = StripeLayout(nservers=4, stripe_size=64)
        repl = ReplicaLayout(nservers=4, stripe_size=64, replication=3)
        for stripe in range(32):
            assert repl.replica_server(stripe, 0) == plain.server_of(
                stripe * 64)
        exts = [(0, 300), (512, 100), (37, 5)]
        assert repl.split_extents_copy(exts, 0) == plain.split_extents(exts)

    def test_chained_declustering(self):
        lay = ReplicaLayout(nservers=4, stripe_size=64, replication=2)
        for stripe in range(16):
            prim, sec = lay.replica_servers(stripe)
            assert prim == stripe % 4
            assert sec == (stripe + 1) % 4

    def test_copies_share_server_local_offset(self):
        lay = ReplicaLayout(nservers=3, stripe_size=32, replication=3)
        for copy in range(3):
            pieces = list(lay.split_extent_copy(100, 200, copy))
            base = list(lay.split_extent(100, 200))
            assert [(srv_off, lo, ln) for _s, srv_off, lo, ln in pieces] \
                == [(srv_off, lo, ln) for _s, srv_off, lo, ln in base]
            assert [s for s, *_rest in pieces] \
                == [(s + copy) % 3 for s, *_rest in base]

    def test_mirror_property(self):
        # the copy-c object on server j holds exactly the stripes of the
        # copy-c' object on partner (j - c + c') % n, at equal offsets
        lay = ReplicaLayout(nservers=5, stripe_size=16, replication=3)
        for j in range(5):
            for c in range(3):
                for c2 in range(3):
                    p = lay.partner_server(j, c, c2)
                    mine = {(s, off) for s in range(40) for cc, off in
                            [(0, 0)]
                            if lay.replica_server(s, c) == j
                            for off in [(s // 5) * 16]}
                    theirs = {(s, off) for s in range(40)
                              if lay.replica_server(s, c2) == p
                              for off in [(s // 5) * 16]}
                    assert mine == theirs

    def test_object_extent(self):
        lay = ReplicaLayout(nservers=3, stripe_size=10, replication=2)
        # file of 35 bytes = stripes 0..3 (last partial, 5 bytes)
        # copy 0: server j holds stripes s ≡ j (mod 3)
        assert lay.object_extent(0, 0, 35) == 15   # stripes 0, 3 (partial)
        assert lay.object_extent(1, 0, 35) == 10   # stripe 1 only
        assert lay.object_extent(2, 0, 35) == 10   # stripe 2 only
        assert lay.object_extent(0, 0, 0) == 0

    def test_object_extent_partial_tail(self):
        lay = ReplicaLayout(nservers=3, stripe_size=10, replication=2)
        # 25 bytes: stripes 0 (s0), 1 (s1), 2 partial 5B (s2)
        assert lay.object_extent(0, 0, 25) == 10
        assert lay.object_extent(1, 0, 25) == 10
        assert lay.object_extent(2, 0, 25) == 5
        # copy 1 shifts by one server
        assert lay.object_extent(1, 1, 25) == 10   # stripe 0
        assert lay.object_extent(0, 1, 25) == 5    # stripe 2 (partial)

    def test_validation(self):
        with pytest.raises(PFSError):
            ReplicaLayout(nservers=3, stripe_size=64, replication=4)
        with pytest.raises(PFSError):
            ReplicaLayout(nservers=3, stripe_size=64, replication=0)
        lay = ReplicaLayout(nservers=3, stripe_size=64, replication=2)
        with pytest.raises(PFSError):
            lay.replica_server(0, 2)
        with pytest.raises(PFSError):
            replica_object_name("f", -1)

    def test_object_names(self):
        assert replica_object_name("f", 0) == "f"
        assert replica_object_name("f", 1) == "f@r1"
        assert replica_object_name("f", 2) == "f@r2"


# ---------------------------------------------------------------------------
# fan-out writes and degraded reads
# ---------------------------------------------------------------------------

class TestReplicatedIO:
    def test_fanout_doubles_written_bytes(self):
        fs = make_fs(replication=2)
        f = fs.create("a")
        data = pattern(1000)
        f.write(0, data)
        st = fs.total_stats()
        assert st.bytes_written == 2 * len(data)
        assert fs.replica_stats().replica_bytes == len(data)
        assert f.read(0, len(data)) == data

    def test_replication_one_stats_unchanged(self):
        # byte-for-byte the legacy path: no replica objects, no extra
        # requests, zeroed replica counters
        fs = make_fs(replication=1)
        f = fs.create("a")
        data = pattern(1000)
        f.write(0, data)
        st = fs.total_stats()
        assert st.bytes_written == len(data)
        rs = fs.replica_stats()
        assert (rs.degraded_reads, rs.failovers, rs.missed_writes,
                rs.replica_bytes, rs.rebuild_bytes) == (0, 0, 0, 0, 0)
        for s in fs.servers:
            assert not s.has_object(replica_object_name("a", 1))

    def test_degraded_read_any_single_server(self):
        data = pattern(7 * 64 + 13)
        for victim in range(3):
            fs = make_fs(replication=2)
            f = fs.create("a")
            f.write(0, data)
            fs.kill_server(victim)
            assert f.read(0, len(data)) == data
            assert fs.replica_stats().degraded_reads > 0

    def test_all_replicas_down_raises(self):
        fs = make_fs(nservers=3, replication=2)
        f = fs.create("a")
        f.write(0, pattern(300))
        fs.kill_server(0)
        fs.kill_server(1)
        with pytest.raises(ServerDownError):
            f.read(0, 300)

    def test_serverdown_not_transient(self):
        assert not is_transient(ServerDownError("x"))
        assert is_transient(PFSError("x"))

    def test_write_while_one_server_down(self):
        fs = make_fs(replication=2)
        f = fs.create("a")
        data = pattern(500)
        fs.kill_server(1)
        f.write(0, data)
        assert fs.replica_stats().missed_writes > 0
        assert f.read(0, len(data)) == data
        # bring it back WITHOUT rebuild: stale, still excluded
        fs.revive_server(1)
        assert f.read(0, len(data)) == data
        assert not fs.servers[1].available
        # rebuild clears the debt and the read works from any replica
        fs.rebuild_server(1)
        assert fs.servers[1].available
        assert f.read(0, len(data)) == data
        assert f.verify_replicas() == []

    def test_write_fails_when_no_replica_alive(self):
        fs = make_fs(nservers=3, replication=2)
        f = fs.create("a")
        fs.kill_server(0)
        fs.kill_server(1)
        with pytest.raises(ServerDownError):
            f.write(0, pattern(300))

    def test_mid_call_failover(self):
        # server answers the availability check, then errors: the read
        # re-routes to the replica mid-call
        fs = make_fs(replication=2)
        f = fs.create("a")
        data = pattern(6 * 64)
        f.write(0, data)
        plan = FaultPlan(seed=SEED).fail("server.read", times=1)
        fs.servers[0].fault_plan = plan
        assert f.read(0, len(data)) == data
        assert f.rstats.failovers >= 1

    def test_failure_detector_marks_suspect(self):
        fs = make_fs(replication=2)
        f = fs.create("a")
        data = pattern(4 * 64)
        f.write(0, data)
        plan = FaultPlan(seed=SEED).fail("server.read", times=None)
        fs.servers[0].fault_plan = plan
        threshold = fs.servers[0].suspect_threshold
        for _ in range(threshold):
            assert f.read(0, len(data)) == data
        assert fs.servers[0].suspect
        # suspect servers are avoided up front: no more failovers needed
        before = f.rstats.failovers
        assert f.read(0, len(data)) == data
        assert f.rstats.failovers == before

    def test_collective_read_degraded_bit_identical(self):
        fs = make_fs(nservers=4, stripe=64, replication=2)
        f = fs.create("a")
        data = pattern(16 * 64)
        f.write(0, data)

        def body(comm):
            fh = mpi.File.Open(comm, "a", mpi.MODE_RDONLY, fs)
            buf = bytearray(384)
            fh.Read_at_all(384 * comm.rank, buf)
            fh.Close()
            return bytes(buf)

        want = mpi.mpiexec(2, body, timeout=30)
        assert b"".join(want) == data[:768]
        fs.kill_server(2)
        assert mpi.mpiexec(2, body, timeout=30) == want


# ---------------------------------------------------------------------------
# rebuild
# ---------------------------------------------------------------------------

class TestRebuild:
    def test_rebuild_after_wipe(self):
        fs = make_fs(replication=2)
        f = fs.create("a")
        data = pattern(9 * 64 + 31)
        f.write(0, data)
        fs.kill_server(2, wipe=True)          # disks gone
        f.write(2 * 64, pattern(64, salt=1))  # degraded write meanwhile
        fs.revive_server(2)
        fs.rebuild_server(2)
        assert f.verify_replicas() == []
        assert fs.replica_stats().rebuild_bytes > 0
        # the degraded write is on the rebuilt server too
        expect = bytearray(data)
        expect[2 * 64:3 * 64] = pattern(64, salt=1)
        assert f.read(0, len(data)) == bytes(expect)

    def test_rebuild_interleaves_with_io(self):
        fs = make_fs(replication=2)
        f = fs.create("a")
        f.write(0, pattern(20 * 64))
        fs.kill_server(1)
        fs.revive_server(1)
        steps = f.rebuild_steps(1, batch_bytes=64)
        # interleave: one rebuild batch, one foreground read, ...
        n = 0
        for _t in steps:
            n += 1
            assert f.read(0, 128) == pattern(20 * 64)[:128]
        assert n > 1
        fs.servers[1].mark_rebuilt()
        assert f.verify_replicas() == []

    def test_rebuild_requires_alive_server(self):
        fs = make_fs(replication=2)
        fs.create("a").write(0, pattern(100))
        fs.kill_server(0)
        with pytest.raises(ServerDownError):
            fs.rebuild_server(0)

    def test_rebuild_drops_orphan_objects(self):
        fs = make_fs(replication=2)
        fs.create("doomed").write(0, pattern(300))
        fs.create("keeper").write(0, pattern(300, salt=2))
        fs.kill_server(0)
        fs.delete("doomed")                   # server 0 keeps orphans
        fs.revive_server(0)
        fs.rebuild_server(0)
        assert not fs.servers[0].has_object("doomed")
        assert not fs.servers[0].has_object(replica_object_name("doomed", 1))
        assert fs.servers[0].has_object("keeper")

    def test_stale_server_accepts_writes(self):
        # stale = no reads until rebuilt, but writes go through — the
        # invariant that keeps online rebuild from losing bytes
        fs = make_fs(replication=2)
        f = fs.create("a")
        f.write(0, pattern(300))
        fs.kill_server(1)
        fs.revive_server(1)
        before = fs.replica_stats().missed_writes
        f.write(0, pattern(300, salt=1))
        rs = fs.replica_stats()
        assert rs.missed_writes == before       # nothing was skipped
        assert rs.write_through > 0             # it landed on the stale one
        assert not fs.servers[1].available      # reads still excluded
        assert f.read(0, 300) == pattern(300, salt=1)
        fs.rebuild_server(1)
        assert f.verify_replicas() == []

    def test_wiped_stale_server_counts_missed_writes(self):
        # a wiped replacement has no objects to write through to until
        # rebuild recreates them: those writes stay missed-write debt
        fs = make_fs(replication=2)
        f = fs.create("a")
        f.write(0, pattern(300))
        fs.kill_server(1, wipe=True)
        fs.revive_server(1)
        before = fs.replica_stats().missed_writes
        f.write(0, pattern(300, salt=1))
        assert fs.replica_stats().missed_writes > before
        fs.rebuild_server(1)
        assert f.verify_replicas() == []
        assert f.read(0, 300) == pattern(300, salt=1)

    def test_writes_during_rebuild_reach_target(self):
        # the lost-write scenarios: a write into a region the rebuild
        # already copied, and writes extending the file past the extent
        # captured at pass start — both must be on the target when the
        # stale flag clears
        fs = make_fs(replication=2)
        base = pattern(20 * 64)
        f = fs.create("a")
        f.write(0, base)
        fs.kill_server(1)
        fs.revive_server(1)
        expect = bytearray(base)
        i = 0
        for _t in f.rebuild_steps(1, batch_bytes=64):
            f.write(0, pattern(64, salt=3))            # already-copied region
            expect[0:64] = pattern(64, salt=3)
            tail = pattern(64, salt=10 + i)            # extension write
            f.write(len(expect), tail)
            expect += tail
            i += 1
        assert i > 1
        fs.servers[1].mark_rebuilt()
        assert f.verify_replicas() == []
        assert f.read(0, len(expect)) == bytes(expect)
        # and the rebuilt server really serves those bytes: lose the
        # other replica of stripe 0 and read degraded
        fs.kill_server(0)
        assert f.read(0, len(expect)) == bytes(expect)

    def test_create_during_rebuild_survives_sweep(self):
        # a file created mid-rebuild must neither lose its objects to
        # the orphan sweep nor be skipped by the rebuild
        fs = make_fs(replication=2)
        f = fs.create("a")
        f.write(0, pattern(10 * 64))
        fs.kill_server(1)
        fs.revive_server(1)
        created = {}

        def mk():
            g = fs.create("late")
            g.write(0, pattern(128, salt=5))
            created["late"] = g

        plan = FaultPlan(seed=SEED).hook("server.kill.rebuild.batch", mk)
        with plan:
            fs.rebuild_server(1, batch_bytes=64)
        assert fs.servers[1].available
        g = created["late"]
        assert fs.servers[1].has_object("late")
        assert fs.servers[1].has_object(replica_object_name("late", 1))
        assert g.verify_replicas() == []
        assert f.verify_replicas() == []
        g.write(0, pattern(128, salt=6))   # no "no object" on the target
        assert g.read(0, 128) == pattern(128, salt=6)

    def test_replication_three_tolerates_two_failures(self):
        fs = make_fs(nservers=4, replication=3)
        f = fs.create("a")
        data = pattern(12 * 64)
        f.write(0, data)
        fs.kill_server(0)
        fs.kill_server(3)
        assert f.read(0, len(data)) == data
        fs.revive_server(0)
        fs.rebuild_server(0)
        fs.revive_server(3)
        fs.rebuild_server(3)
        assert f.verify_replicas() == []


# ---------------------------------------------------------------------------
# namespace operations under faults
# ---------------------------------------------------------------------------

class TestNamespaceFaults:
    def test_delete_fault_keeps_namespace_consistent(self):
        # an injected fault mid-delete must not strand replica objects
        # behind an already-removed namespace entry: the file stays in
        # the namespace and a retried delete finishes the job
        fs = make_fs(replication=2)
        fs.create("a").write(0, pattern(300))
        plan = FaultPlan(seed=SEED).fail("server.delete", times=1)
        for s in fs.servers:
            s.fault_plan = plan
        with pytest.raises(PFSError):
            fs.delete("a")
        assert fs.exists("a")
        fs.delete("a")                    # per-server deletes are idempotent
        assert not fs.exists("a")
        for s in fs.servers:
            assert not s.has_object("a")
            assert not s.has_object(replica_object_name("a", 1))


# ---------------------------------------------------------------------------
# CRC arbitration through the byte-store stack
# ---------------------------------------------------------------------------

class TestArbitration:
    def test_read_alternates_counts_copies(self):
        fs = make_fs(replication=2)
        store = PFSByteStore(fs.create("a"))
        store.write(0, pattern(200))
        alts = store.read_alternates(0, 200)
        assert len(alts) == 2
        assert all(a == pattern(200) for a in alts)
        fs.kill_server(0)
        # stripe 0: copy 0 lives on dead server 0, copy 1 on server 1
        assert store.read_alternates(0, 64) == [pattern(200)[:64]]

    def test_stale_primary_is_no_alternate(self):
        """A revived, not yet rebuilt server missed a write: its primary
        copy is refused like any other copy on it, so arbitration only
        sees the current bytes."""
        fs = make_fs(nservers=3, stripe=64, replication=2)
        f = fs.create("a")
        store = PFSByteStore(f)
        f.write(0, b"A" * 384)
        fs.kill_server(0)
        f.write(0, b"B" * 384)
        fs.revive_server(0)
        with pytest.raises(ServerDownError):
            f.readv_copy([(0, 64)], 0)
        assert store.read_alternates(0, 64) == [b"B" * 64]

    def test_unreplicated_store_has_no_alternates(self):
        fs = make_fs(replication=1)
        store = PFSByteStore(fs.create("a"))
        store.write(0, pattern(100))
        assert store.read_alternates(0, 100) == []

    def test_guard_arbitrates_and_heals(self):
        fs = make_fs(nservers=3, stripe=64, replication=2)
        f = fs.create("a")
        good = pattern(64)
        f.write(0, good)
        store = PFSByteStore(f)
        guard = ChecksumGuard({0: chunk_crc(good)})
        # corrupt the PRIMARY copy of stripe 0 (object "a" on server 0)
        fs.servers[0].corrupt("a", 0, b"\xff" * 64)
        bad = store.read(0, 64)
        assert bad != good
        healed = guard.check_or_arbitrate(0, bad, store, 0, 64)
        assert bytes(healed) == good
        assert guard.arbitrated == 1
        # the heal wrote the good bytes back over the bad copy
        assert store.read(0, 64) == good
        assert f.verify_replicas() == []

    def test_arbitration_heal_is_out_of_band(self):
        # healing happens on a logical read: it must not move any write
        # counter, at the store or at the servers
        fs = make_fs(nservers=3, stripe=64, replication=2)
        f = fs.create("a")
        good = pattern(64)
        f.write(0, good)
        store = PFSByteStore(f)
        guard = ChecksumGuard({0: chunk_crc(good)})
        fs.servers[0].corrupt("a", 0, b"\xff" * 64)
        bad = store.read(0, 64)
        srv_writes = [s.stats.write_requests for s in fs.servers]
        store_writes = store.stats.writes
        replica_bytes = f.rstats.replica_bytes
        healed = guard.check_or_arbitrate(0, bad, store, 0, 64)
        assert bytes(healed) == good
        assert store.read(0, 64) == good                     # healed
        assert [s.stats.write_requests for s in fs.servers] == srv_writes
        assert store.stats.writes == store_writes
        assert f.rstats.replica_bytes == replica_bytes

    def test_arbitration_heal_skips_fault_injection(self):
        # an armed write-fault rule must not fire on (or be consumed
        # by) the heal write-back
        from repro.drx.resilience import FaultInjector
        fs = make_fs(nservers=3, stripe=64, replication=2)
        f = fs.create("a")
        good = pattern(64)
        f.write(0, good)
        plan = FaultPlan(seed=SEED).fail("write", times=None)
        store = FaultInjector(PFSByteStore(f), plan)
        guard = ChecksumGuard({0: chunk_crc(good)})
        fs.servers[0].corrupt("a", 0, b"\xff" * 64)
        healed = guard.check_or_arbitrate(0, store.read(0, 64),
                                          store, 0, 64)
        assert bytes(healed) == good
        assert plan.injected.get("write", 0) == 0
        assert store.read(0, 64) == good
        assert f.verify_replicas() == []

    def test_guard_without_store_still_raises(self):
        from repro.core.errors import ChecksumError
        guard = ChecksumGuard({0: chunk_crc(b"good")})
        with pytest.raises(ChecksumError):
            guard.check_or_arbitrate(0, b"evil")

    def test_drxfile_read_arbitrates_torn_replica(self):
        import numpy as np
        from repro.drx.drxfile import DRXFile
        fs = make_fs(nservers=3, stripe=256, replication=2)
        a = DRXFile.create_pfs(fs, "arr", bounds=(8, 8), chunk_shape=(4, 4),
                               checksums=True, cache_pages=2)
        vals = np.arange(64, dtype=np.float64).reshape(8, 8)
        a.write((0, 0), vals)
        a.flush()
        # tear chunk 0's primary replica behind the library's back
        nb = a.meta.chunk_nbytes
        fs.servers[0].corrupt("arr.xta", 0, b"\x7f" * nb)
        got = a.read((0, 0), (8, 8))
        assert np.array_equal(got, vals)
        assert a._store.guard.arbitrated >= 1
        a.close()


# ---------------------------------------------------------------------------
# watchdog diagnostics (satellite: DRX_MPI_TIMEOUT + collective names)
# ---------------------------------------------------------------------------

class TestWatchdog:
    def test_timeout_env_default(self, monkeypatch):
        from repro.mpi import runner
        monkeypatch.setenv("DRX_MPI_TIMEOUT", "7.5")
        assert runner._default_timeout() == 7.5
        monkeypatch.setenv("DRX_MPI_TIMEOUT", "bogus")
        assert runner._default_timeout() == 120.0
        monkeypatch.delenv("DRX_MPI_TIMEOUT")
        assert runner._default_timeout() == 120.0

    def test_env_var_drives_watchdog(self, monkeypatch):
        monkeypatch.setenv("DRX_MPI_TIMEOUT", "2")

        def body(comm):
            if comm.rank == 0:
                comm.barrier()      # rank 1 never joins: deadlock

        with pytest.raises(MPIError, match="deadlock"):
            mpi.mpiexec(2, body)    # timeout comes from the env var

    def test_hung_collective_named_in_error(self):
        def body(comm):
            if comm.rank == 0:
                comm.allreduce(1)   # mismatched: rank 1 never calls it

        with pytest.raises(MPIError) as ei:
            mpi.mpiexec(2, body, timeout=2)
        msg = str(ei.value)
        assert "deadlock" in msg
        assert "allreduce" in msg
        assert "ranks [0]" in msg
        assert "mpi-rank-0" in msg
