"""Crash durability and exactly-once: journal, recovery, net faults.

The contract under test, end to end:

* every mutation the daemon *acknowledged* survives ``kill -9`` at any
  ``server.kill.daemon.*`` / ``serve.net.*`` fault site — restart
  recovery replays the journal and the array is bit-identical;
* a mutation retried because its OK frame was lost (daemon kill, torn
  frame, bit flip, disconnect) is applied **exactly once** — the
  relative ``extend`` is the detector: a double-apply changes the
  shape;
* the client stub's retry accounting is pinned (``max_retries=N`` ==
  N+1 attempts, first sleep ``delay(1)``), and the QoS conservation
  law ``requests == ok + errors + retry_later + deadline_misses``
  holds under retries, dedup replays, and reconnects.

Env knobs: ``DRX_FAULT_SEED`` drives every seeded schedule (the CI
crash-recovery job sweeps it).
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.errors import ServeError
from repro.core.faultsites import ALL_SITES, DAEMON_SITES, NET_SITES
from repro.drx.resilience import BackoffPolicy, FaultPlan
from repro.drx.storage import MemoryByteStore
from repro.drx.drxfile import DRXFile
from repro.pfs import ParallelFileSystem
from repro.serve import DRXClient, DRXServer, protocol
from repro.serve.journal import (
    ABORT,
    BEGIN,
    CHECKPOINT,
    COMMIT,
    DATA,
    DedupTable,
    Journal,
    encode_record,
    decode_record,
)
from repro.serve.locks import ArrayRWLock
from repro.serve.recovery import recover, scan_journal
from tests.support.netfault import arm_first_connection

SEED = int(os.environ.get("DRX_FAULT_SEED", "0"))


def make_client(srv, name="anon", **kw):
    kw.setdefault("timeout", 30.0)
    return DRXClient(srv.address, client_id=name, **kw)


def conservation_ok(stats: dict) -> bool:
    """The QoS conservation law, per client and in aggregate."""
    snaps = list(stats["qos"]["clients"].values())
    snaps.append(stats["qos"]["totals"])
    return all(s["requests"] == s["ok"] + s["errors"]
               + s["retry_later"] + s["deadline_misses"] for s in snaps)


# ---------------------------------------------------------------------------
# journal record framing
# ---------------------------------------------------------------------------
class TestRecordFraming:
    def test_roundtrip_with_payload(self):
        blob = encode_record(BEGIN, {"txn": 7, "verb": "write"},
                             b"\x01\x02\x03")
        rtype, header, payload, end = decode_record(blob, 0)
        assert rtype == BEGIN
        assert header == {"txn": 7, "verb": "write"}
        assert payload == b"\x01\x02\x03"
        assert end == len(blob)

    def test_truncated_record_is_torn_tail(self):
        blob = encode_record(COMMIT, {"txn": 1, "result": {}})
        for cut in (1, 7, len(blob) - 1):
            assert decode_record(blob[:cut], 0) is None

    def test_corrupted_record_fails_crc(self):
        blob = bytearray(encode_record(DATA, {"txn": 2}, b"payload"))
        blob[-3] ^= 0x40
        assert decode_record(bytes(blob), 0) is None

    def test_scan_stops_at_first_invalid_record(self):
        good = encode_record(BEGIN, {"txn": 1, "verb": "extend"})
        good += encode_record(COMMIT, {"txn": 1, "result": {"seq": 1}})
        store = MemoryByteStore()
        store.write(0, good + b"\xde\xad\xbe\xef garbage tail")
        records, report = scan_journal(store)
        assert [r[0] for r in records] == [BEGIN, COMMIT]
        assert report.valid_end == len(good)
        assert report.torn_bytes == len(b"\xde\xad\xbe\xef garbage tail")


# ---------------------------------------------------------------------------
# the journal proper
# ---------------------------------------------------------------------------
class TestJournal:
    def test_begin_commit_lsn_and_stats(self):
        j = Journal(MemoryByteStore())
        txn = j.begin("write", ("c", "s", 1),
                      {"lo": [0], "shape": [4], "dtype": "<f8"},
                      b"\x00" * 32)
        lsn = j.commit(txn, ("c", "s", 1), {"seq": 1})
        j.sync(lsn)
        assert txn == 1
        assert j.stats.records == 3          # BEGIN + DATA + COMMIT
        assert j.stats.syncs == 1
        assert lsn == j.size

    def test_txn_ids_resume_above_recovered(self):
        j = Journal(MemoryByteStore(), start_txn=41)
        assert j.begin("extend", ("c", "s", 1), {"to": [8]}) == 42

    def test_rotate_truncates_to_checkpoint(self):
        store = MemoryByteStore()
        j = Journal(store)
        for i in range(4):
            j.sync(j.commit(j.begin("extend", ("c", "s", i),
                                    {"to": [8 + i]}),
                            ("c", "s", i), {"seq": i + 1}))
        fat = j.size
        j.rotate({"c": [['["s",3]', {"seq": 4}]]}, epoch=9)
        assert j.size < fat
        records, report = scan_journal(store)
        assert [r[0] for r in records] == [CHECKPOINT]
        assert records[0][1]["epoch"] == 9
        assert records[0][1]["dedup"] == {"c": [['["s",3]', {"seq": 4}]]}
        assert report.torn_bytes == 0
        assert j.stats.rotations == 1

    def test_rotate_during_sync_keeps_new_appends_unsynced(self):
        """A rotation requested while an fsync is in flight waits for
        it: the flush must not advance the durable watermark over
        offsets the truncation has renamed, or fresh post-rotation
        appends would be acked without any fsync."""
        store = MemoryByteStore()
        j = Journal(store)
        for i in range(4):                   # fatten the pre-rotation end
            lsn = j.commit(j.begin("extend", ("c", "s", i),
                                   {"to": [8 + i]}),
                           ("c", "s", i), {"seq": i + 1})
        real_flush = store.flush
        in_flush, release = threading.Event(), threading.Event()
        order = []

        def blocking_flush():
            if not in_flush.is_set():        # rotate() flushes too
                in_flush.set()
                release.wait(10)
                order.append("flush")
            real_flush()

        def rotate():
            j.rotate({}, epoch=1)
            order.append("rotate")

        store.flush = blocking_flush
        try:
            syncer = threading.Thread(target=j.sync, args=(lsn,))
            syncer.start()
            assert in_flush.wait(10)
            rotator = threading.Thread(target=rotate)
            rotator.start()
            rotator.join(0.2)
            assert rotator.is_alive(), "rotate did not wait for the fsync"
            release.set()
            syncer.join(10)
            rotator.join(10)
        finally:
            release.set()
            store.flush = real_flush
        assert order == ["flush", "rotate"]
        # a fresh append (at a small post-rotation offset) must pay its
        # own fsync — it must not be covered by the stale watermark
        syncs = j.stats.syncs
        lsn2 = j.commit(j.begin("extend", ("c", "s", 9), {"to": [32]}),
                        ("c", "s", 9), {"seq": 9})
        j.sync(lsn2)
        assert j.stats.syncs == syncs + 1
        assert j._synced == j.size

    def test_failed_fsync_does_not_mark_bytes_durable(self):
        store = MemoryByteStore()
        j = Journal(store)
        lsn = j.commit(j.begin("extend", ("c", "s", 0), {"to": [9]}),
                       ("c", "s", 0), {"seq": 1})
        real_flush = store.flush

        def boom():
            raise OSError("injected fsync failure")

        store.flush = boom
        with pytest.raises(OSError, match="injected"):
            j.sync(lsn)
        store.flush = real_flush
        # the failure must not have advanced the durable watermark: the
        # retry issues a real fsync instead of succeeding from cache
        syncs = j.stats.syncs
        j.sync(lsn)
        assert j.stats.syncs == syncs + 1
        assert j.stats.batched_syncs == 0
        assert j._synced == j.size

    def test_group_commit_batches_concurrent_syncs(self):
        """The first fsync is held until all eight committers asked for
        a sync: everyone queued behind it on the sync mutex is covered
        by at most one more fsync."""
        store = MemoryByteStore()
        j = Journal(store)
        real_flush = store.flush
        release = threading.Event()

        def first_flush_blocks():
            store.flush = real_flush
            release.wait(10)
            real_flush()

        store.flush = first_flush_blocks
        errors = []

        def one(i):
            try:
                txn = j.begin("extend", ("c", "s", i), {"to": [i]})
                j.sync(j.commit(txn, ("c", "s", i), {"seq": i}))
            except Exception as exc:    # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=one, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 10
        while j.stats.sync_requests < 8 and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        for t in threads:
            t.join(10)
        assert not errors
        assert j.stats.sync_requests == 8
        # the whole point of group commit: fewer fsyncs than requests
        assert j.stats.syncs <= 2
        assert j.stats.batched_syncs >= 6

    def test_append_after_close_refused(self):
        j = Journal(MemoryByteStore())
        j.close()
        with pytest.raises(ValueError, match="closed"):
            j.begin("extend", ("c", "s", 1), {"to": [1]})


# ---------------------------------------------------------------------------
# dedup table
# ---------------------------------------------------------------------------
class TestDedupTable:
    KEY = ("tenant", "sess", 1)

    def test_claim_fulfill_replay(self):
        d = DedupTable()
        assert d.claim(self.KEY) is None         # caller owns it
        d.fulfill(self.KEY, {"seq": 5})
        assert d.claim(self.KEY) == {"seq": 5}   # replay answered
        assert d.hits == 1

    def test_abandon_allows_reexecution(self):
        d = DedupTable()
        assert d.claim(self.KEY) is None
        d.abandon(self.KEY)
        assert d.claim(self.KEY) is None
        assert d.hits == 0

    def test_concurrent_same_key_blocks_until_fulfilled(self):
        d = DedupTable()
        assert d.claim(self.KEY) is None
        got = {}

        def racer():
            got["cached"] = d.claim(self.KEY)    # parks until fulfill

        t = threading.Thread(target=racer)
        t.start()
        time.sleep(0.1)
        assert "cached" not in got
        d.fulfill(self.KEY, {"seq": 9})
        t.join(5)
        assert got["cached"] == {"seq": 9}

    def test_snapshot_seed_roundtrip_and_lru_bound(self):
        d = DedupTable(per_client=2)
        for i in range(4):
            key = ("t", "s", i)
            d.claim(key)
            d.fulfill(key, {"seq": i})
        assert len(d) == 2                       # LRU-bounded
        d2 = DedupTable()
        d2.seed(d.snapshot())
        assert d2.claim(("t", "s", 3)) == {"seq": 3}
        assert d2.claim(("t", "s", 0)) is None   # evicted before snapshot
        d2.abandon(("t", "s", 0))

    def test_distinct_sessions_never_collide(self):
        d = DedupTable()
        a, b = ("anon", "sess-a", 1), ("anon", "sess-b", 1)
        d.claim(a)
        d.fulfill(a, {"seq": 1})
        assert d.claim(b) is None                # different stub instance
        d.abandon(b)

    def test_server_window_covers_maximal_retry_set(self):
        """Review regression: the server-sized window must retain every
        keyed op a client can legally have retryable at once — one
        maximal batch plus a full pipeline window.  With the old
        128-entry bound, the oldest fulfilled entries of a 1024-op
        batch were evicted before its retry arrived, re-applying them."""
        from repro.serve.protocol import (
            DEDUP_WINDOW,
            MAX_BATCH_OPS,
            MAX_PIPELINE_DEPTH,
        )

        assert DEDUP_WINDOW >= MAX_BATCH_OPS + MAX_PIPELINE_DEPTH
        d = DedupTable(per_client=DEDUP_WINDOW)
        nkeys = MAX_BATCH_OPS + MAX_PIPELINE_DEPTH
        for i in range(nkeys):
            key = ("t", "s", i)
            assert d.claim(key) is None
            d.fulfill(key, {"seq": i})
        # a torn maximal batch re-sends every op: each must still be
        # answerable from cache — none evicted, nothing re-applied
        for i in range(nkeys):
            assert d.claim(("t", "s", i)) == {"seq": i}
        assert d.hits == nkeys


# ---------------------------------------------------------------------------
# recovery against a real array
# ---------------------------------------------------------------------------
class TestRecovery:
    def _file(self, tmp_path):
        return DRXFile.create(tmp_path / "r", [8, 8], [4, 4])

    def test_replays_committed_discards_uncommitted(self, tmp_path):
        store = MemoryByteStore()
        j = Journal(store)
        box = np.arange(16.0).reshape(4, 4)
        txn = j.begin("write", ("c", "s", 1),
                      {"lo": [0, 0], "shape": [4, 4], "dtype": "<f8"},
                      box.tobytes())
        j.sync(j.commit(txn, ("c", "s", 1), {"seq": 1}))
        # an uncommitted intent: crash beat the apply — must NOT replay
        j.begin("write", ("c", "s", 2),
                {"lo": [4, 4], "shape": [4, 4], "dtype": "<f8"},
                np.full((4, 4), 9.0).tobytes())
        f = self._file(tmp_path)
        try:
            report = recover(f, store)
            assert report.replayed == 1
            assert report.discarded_txns == 1
            assert np.array_equal(f.read([0, 0], [4, 4]), box)
            assert np.array_equal(f.read([4, 4], [8, 8]),
                                  np.zeros((4, 4)))
            assert report.dedup["c"] == [['["s",1]', {"seq": 1}]]
            assert report.max_txn == 2
        finally:
            f.close()

    def test_extend_replays_to_absolute_shape(self, tmp_path):
        store = MemoryByteStore()
        j = Journal(store)
        txn = j.begin("extend", ("c", "s", 1), {"to": [12, 8]})
        j.sync(j.commit(txn, ("c", "s", 1), {"seq": 1,
                                             "shape": [12, 8]}))
        f = self._file(tmp_path)
        try:
            report = recover(f, store)
            assert report.replayed == 1
            assert list(f.shape) == [12, 8]
            # replaying the same journal again is idempotent
            report2 = recover(f, store)
            assert report2.replayed == 1
            assert list(f.shape) == [12, 8]
        finally:
            f.close()

    def test_abort_cancels_committed_txn(self, tmp_path):
        """COMMIT + ABORT == the apply failed after the commit was made
        durable (the extend ordering): recovery must neither replay the
        mutation nor seed the dedup table with its success result."""
        store = MemoryByteStore()
        j = Journal(store)
        txn = j.begin("extend", ("c", "s", 1), {"to": [12, 8]})
        j.commit(txn, ("c", "s", 1), {"seq": 1, "shape": [12, 8]})
        j.sync(j.abort(txn))
        f = self._file(tmp_path)
        try:
            report = recover(f, store)
            assert report.replayed == 0
            assert report.committed == 0
            assert report.dedup == {}
            assert list(f.shape) == [8, 8]       # not extended
        finally:
            f.close()

    def test_checkpoint_supersedes_prior_records(self, tmp_path):
        store = MemoryByteStore()
        j = Journal(store)
        txn = j.begin("write", ("c", "s", 7),
                      {"lo": [0, 0], "shape": [4, 4], "dtype": "<f8"},
                      np.full((4, 4), 3.0).tobytes())
        j.sync(j.commit(txn, ("c", "s", 7), {"seq": 1}))
        j.rotate({"c": [['["s",7]', {"seq": 1}]]}, epoch=2)
        f = self._file(tmp_path)
        try:
            report = recover(f, store)
            assert report.replayed == 0          # checkpointed == durable
            assert report.checkpoint_epoch == 2
            assert report.dedup == {"c": [['["s",7]', {"seq": 1}]]}
            assert np.array_equal(f.read([0, 0], [4, 4]),
                                  np.zeros((4, 4)))
        finally:
            f.close()


# ---------------------------------------------------------------------------
# kill -9 then recover — no client re-run
# ---------------------------------------------------------------------------
def _acked_workload(c):
    """Mutations to ``vol``, every one acknowledged before return.
    Uses the *relative* extend so any replay double-apply is visible
    in the shape."""
    c.create("vol", [8, 8], [4, 4])
    c.write("vol", (0, 0), np.arange(64.0).reshape(8, 8))
    c.extend("vol", dim=0, by=4)
    c.write("vol", (8, 0), np.full((4, 8), 2.5))
    c.extend("vol", dim=1, by=8)
    c.write("vol", (0, 8), np.full((12, 8), -1.0))


def _acked_model():
    want = np.zeros((12, 16))
    want[0:8, 0:8] = np.arange(64.0).reshape(8, 8)
    want[8:12, 0:8] = 2.5
    want[0:12, 8:16] = -1.0
    return want


class TestKillRecover:
    @pytest.mark.parametrize("backend", ["fs", "root"])
    def test_recovery_alone_restores_acked_writes(self, backend,
                                                  tmp_path):
        """THE durability contract: after ``kill -9`` (dirty cache
        abandoned, no flush), restarting and recovering — without the
        client re-running anything — yields bit-identical state."""
        if backend == "fs":
            fs = ParallelFileSystem(nservers=3, stripe_size=1024)
            kw, kw2 = dict(fs=fs), dict(fs=fs)
        else:
            kw = kw2 = dict(root=str(tmp_path))
        srv = DRXServer(**kw).start()
        with make_client(srv, "w") as c:
            _acked_workload(c)
        srv.kill()                       # abrupt: Mpool dirt vanishes

        srv2 = DRXServer(**kw2).start()
        try:
            report = srv2.recover_all()["vol"]
            assert report["committed"] == 5      # 3 writes + 2 extends
            assert report["replayed"] == 5
            assert report["discarded_txns"] == 0
            with make_client(srv2, "r") as c2:
                assert c2.open("vol")["shape"] == [12, 16]
                got = c2.read("vol", (0, 0), (12, 16))
                assert np.array_equal(got, _acked_model()), backend
        finally:
            srv2.shutdown(drain=True)

    def test_drain_rotates_journal_to_clean_checkpoint(self, tmp_path):
        srv = DRXServer(root=str(tmp_path)).start()
        with make_client(srv, "w") as c:
            _acked_workload(c)
        srv.shutdown(drain=True)
        srv2 = DRXServer(root=str(tmp_path)).start()
        try:
            report = srv2.recover_all()["vol"]
            assert report["replayed"] == 0       # drain flushed it all
            # ... but the dedup table crossed the restart
            assert report["dedup"]
            with make_client(srv2, "r") as c2:
                got = c2.read("vol", (0, 0), (12, 16))
                assert np.array_equal(got, _acked_model())
        finally:
            srv2.shutdown(drain=True)

    def test_flush_and_checkpoint_rotate_journal(self):
        fs = ParallelFileSystem(nservers=3, stripe_size=1024)
        srv = DRXServer(fs=fs).start()
        try:
            with make_client(srv, "w") as c:
                c.create("a", [8, 8], [4, 4])
                c.write("a", (0, 0), np.ones((8, 8)))
                before = c.stats()["journal"]["a"]["size"]
                c.flush("a")
                after = c.stats()["journal"]["a"]
                assert after["size"] < before
                assert after["stats"]["rotations"] >= 1
            # the explicit checkpoint API does the same server-side
            assert srv.checkpoint() == {"a": 0}  # nothing new to drop
            assert srv.checkpoints == 1
        finally:
            srv.shutdown(drain=True)

    def test_periodic_checkpoint_fires(self):
        fs = ParallelFileSystem(nservers=3, stripe_size=1024)
        srv = DRXServer(fs=fs, checkpoint_interval=0.1).start()
        try:
            with make_client(srv, "w") as c:
                c.create("a", [4], [2])
                c.write("a", [0], np.ones(4))
                deadline = time.monotonic() + 10.0
                while (srv.checkpoints == 0
                       and time.monotonic() < deadline):
                    time.sleep(0.02)
                assert srv.checkpoints >= 1, "watchdog checkpoint " \
                    "never fired"
                st = c.stats()
                assert st["journal"]["a"]["stats"]["rotations"] >= 1
        finally:
            srv.shutdown(drain=True)

    def test_checkpoint_tolerates_file_closed_under_it(self):
        """A watchdog checkpoint can race shutdown/kill closing the
        array files; it must skip the entry, not die with a traceback
        in the drx-serve-ckpt thread."""
        fs = ParallelFileSystem(nservers=3, stripe_size=1024)
        srv = DRXServer(fs=fs).start()
        try:
            with make_client(srv, "w") as c:
                c.create("a", [4], [2])
                c.write("a", [0], np.ones(4))
            srv._arrays["a"].file.close()     # what shutdown/kill does
            dropped = srv.checkpoint()        # must not raise
            assert "a" not in dropped
        finally:
            srv.kill()

    def test_failed_extend_apply_not_replayed_or_cached(self, tmp_path):
        """The extend path journals its COMMIT before applying; when
        the apply then fails the client sees an error, so the durable
        ABORT must keep recovery from replaying the extend or answering
        a post-restart retry 'ok' from the dedup cache."""
        srv = DRXServer(root=str(tmp_path)).start()
        real_extend = DRXFile.extend
        try:
            with make_client(srv, "w", max_retries=0) as c:
                c.create("a", [8], [4])
                c.write("a", [0], np.ones(8))

                def boom(self, dim, by):
                    raise RuntimeError("injected apply fault")

                DRXFile.extend = boom
                try:
                    with pytest.raises(ServeError, match="injected"):
                        c.extend("a", dim=0, by=4)
                finally:
                    DRXFile.extend = real_extend
            srv.kill()

            srv2 = DRXServer(root=str(tmp_path)).start()
            try:
                report = srv2.recover_all()["a"]
                assert report["replayed"] == 1       # just the write
                assert report["committed"] == 1      # extend ABORTed
                results = [r for entries in report["dedup"].values()
                           for _rest, r in entries]
                assert all("shape" not in r for r in results), \
                    "failed extend leaked a success result into dedup"
                with make_client(srv2, "r") as c2:
                    assert c2.open("a")["shape"] == [8]   # not extended
                    # the array is still writable and extendable
                    assert c2.extend("a", dim=0, by=4)["shape"] == [12]
            finally:
                srv2.shutdown(drain=True)
        finally:
            DRXFile.extend = real_extend

    def test_extend_validation_rejects_before_journaling(self):
        fs = ParallelFileSystem(nservers=3, stripe_size=1024)
        srv = DRXServer(fs=fs).start()
        try:
            with make_client(srv, "w", max_retries=0) as c:
                c.create("a", [4, 4], [2, 2])
                before = c.stats()["journal"]["a"]["stats"]["records"]
                with pytest.raises(ServeError, match="out of range"):
                    c.extend("a", dim=2, by=4)
                with pytest.raises(ServeError, match="out of range"):
                    c.extend("a", dim=-1, by=4)
                with pytest.raises(ServeError, match="negative"):
                    c.extend("a", to=[4, -2])
                with pytest.raises(ServeError, match="rank"):
                    c.extend("a", to=[4, 4, 4])
                after = c.stats()["journal"]["a"]["stats"]["records"]
                assert after == before, \
                    "rejected extend must not touch the journal"
        finally:
            srv.shutdown(drain=True)


# ---------------------------------------------------------------------------
# the seeded sweep: kill -9 at every daemon + net site, retrying client
# ---------------------------------------------------------------------------
REQUEST_SITES = [
    "server.kill.daemon.admitted",
    "server.kill.daemon.locked",
    "server.kill.daemon.journaled",
    "server.kill.daemon.applied",
    "serve.net.recv.request",
    "serve.net.send.reply",
]


class TestKillSweep:
    def test_net_sites_registered(self):
        assert set(NET_SITES) == {"serve.net.recv.request",
                                  "serve.net.send.reply"}
        assert set(NET_SITES) <= set(ALL_SITES)
        assert "server.kill.daemon.journaled" in DAEMON_SITES

    @pytest.mark.parametrize("site", REQUEST_SITES)
    def test_kill_at_site_applies_retried_extend_exactly_once(self,
                                                              site):
        """A daemon killed at ``site`` mid-``extend`` is restarted on
        the same port while the client retries under its original
        idempotency key.  The *relative* extend is the detector: a
        lost-and-reissued request that re-applied would grow the array
        twice."""
        fs = ParallelFileSystem(nservers=3, stripe_size=1024)
        srv = DRXServer(fs=fs).start()
        host, port = srv.address
        holder = {"srv": srv}
        stop = threading.Event()

        def restarter():
            while not stop.is_set():
                if holder["srv"].state == DRXServer.DEAD:
                    nxt = DRXServer(fs=fs, host=host, port=port)
                    try:
                        nxt.start()
                    except OSError:
                        time.sleep(0.02)
                        continue
                    holder["srv"] = nxt
                time.sleep(0.01)

        t = threading.Thread(target=restarter, daemon=True)
        t.start()
        try:
            with DRXClient((host, port), client_id="chaos",
                           timeout=60.0, max_retries=60,
                           seed=SEED) as c:
                c.create("x", [8, 4], [4, 4])
                c.write("x", (0, 0), np.arange(32.0).reshape(8, 4))
                plan = FaultPlan(seed=SEED).crash(site)
                with plan:
                    ack = c.extend("x", dim=0, by=4)
                assert plan.hits.get(site), f"{site} never fired"
                assert ack["shape"] == [12, 4], site
                c.write("x", (8, 0), np.full((4, 4), 7.0))
                assert c.open("x")["shape"] == [12, 4], site
                got = c.read("x", (0, 0), (12, 4))
        finally:
            stop.set()
            t.join(5)
            holder["srv"].kill()
        want = np.zeros((12, 4))
        want[0:8] = np.arange(32.0).reshape(8, 4)
        want[8:12] = 7.0
        assert np.array_equal(got, want), site

    @pytest.mark.parametrize("site", REQUEST_SITES)
    def test_kill_at_site_during_write_bit_identical(self, site):
        fs = ParallelFileSystem(nservers=3, stripe_size=1024)
        srv = DRXServer(fs=fs).start()
        host, port = srv.address
        holder = {"srv": srv}
        stop = threading.Event()

        def restarter():
            while not stop.is_set():
                if holder["srv"].state == DRXServer.DEAD:
                    nxt = DRXServer(fs=fs, host=host, port=port)
                    try:
                        nxt.start()
                    except OSError:
                        time.sleep(0.02)
                        continue
                    holder["srv"] = nxt
                time.sleep(0.01)

        t = threading.Thread(target=restarter, daemon=True)
        t.start()
        try:
            with DRXClient((host, port), client_id="chaos",
                           timeout=60.0, max_retries=60,
                           seed=SEED) as c:
                c.create("w", [8, 8], [4, 4])
                img = np.arange(64.0).reshape(8, 8)
                plan = FaultPlan(seed=SEED).crash(site)
                with plan:
                    ack = c.write("w", (0, 0), img)
                assert plan.hits.get(site), f"{site} never fired"
                assert ack["seq"] >= 1
                got = c.read("w", (0, 0), (8, 8))
                st = c.stats()
        finally:
            stop.set()
            t.join(5)
            holder["srv"].kill()
        assert np.array_equal(got, img), site
        assert conservation_ok(st), site


# ---------------------------------------------------------------------------
# client-side network faults: CRC, torn frames, reconnect-with-resume
# ---------------------------------------------------------------------------
class TestNetFaults:
    def _serve(self):
        fs = ParallelFileSystem(nservers=3, stripe_size=1024)
        return DRXServer(fs=fs).start()

    def test_lost_ok_frame_is_deduped_exactly_once(self):
        """The OK of an ``extend`` vanishes (socket dies before the
        reply is read): the stub reconnects and re-issues under the
        same key; the dedup table answers — shape grows exactly once
        and the hit is observable in QoS."""
        srv = self._serve()
        try:
            with make_client(srv, "setup") as s:
                s.create("e", [8, 4], [4, 4])
            wrapper, made = arm_first_connection(
                lambda f: f.arm_recv("disconnect"), SEED)
            with DRXClient(srv.address, client_id="dedup",
                           timeout=30.0, max_retries=8, seed=SEED,
                           socket_wrapper=wrapper) as c:
                ack = c.extend("e", dim=0, by=4)
                assert ack["shape"] == [12, 4]
                assert c.retries >= 1
                st = c.stats()
            assert made[0].injected == 1
            assert st["qos"]["clients"]["dedup"]["dedup_hits"] == 1
            assert conservation_ok(st)
            with make_client(srv, "check") as c2:
                assert c2.open("e")["shape"] == [12, 4]
        finally:
            srv.shutdown(drain=True)

    def test_bitflipped_reply_caught_by_crc_then_deduped(self):
        """One bit of the reply body flips on the wire: the frame CRC
        catches it (ProtocolError), the stub reconnects, the retry is
        answered from the dedup table."""
        srv = self._serve()
        try:
            with make_client(srv, "setup") as s:
                s.create("b", [8, 4], [4, 4])
            # recv op 1 = frame head, op 2 = header+payload body
            wrapper, made = arm_first_connection(
                lambda f: f.arm_recv("bitflip", after=2), SEED)
            with DRXClient(srv.address, client_id="flip",
                           timeout=30.0, max_retries=8, seed=SEED,
                           socket_wrapper=wrapper) as c:
                ack = c.extend("b", dim=1, by=4)
                assert ack["shape"] == [8, 8]
                assert c.retries >= 1
                st = c.stats()
            assert made[0].injected == 1
            assert st["qos"]["clients"]["flip"]["dedup_hits"] == 1
            assert conservation_ok(st)
            with make_client(srv, "check") as c2:
                assert c2.open("b")["shape"] == [8, 8]
        finally:
            srv.shutdown(drain=True)

    def test_torn_reply_reconnects_and_dedups(self):
        srv = self._serve()
        try:
            with make_client(srv, "setup") as s:
                s.create("t", [8, 4], [4, 4])
            wrapper, made = arm_first_connection(
                lambda f: f.arm_recv("torn", after=2, keep=0.5), SEED)
            with DRXClient(srv.address, client_id="torn",
                           timeout=30.0, max_retries=8, seed=SEED,
                           socket_wrapper=wrapper) as c:
                ack = c.extend("t", dim=0, by=8)
                assert ack["shape"] == [16, 4]
                st = c.stats()
            assert made[0].injected == 1
            assert st["qos"]["clients"]["torn"]["dedup_hits"] == 1
            assert conservation_ok(st)
        finally:
            srv.shutdown(drain=True)

    def test_delayed_bytes_are_harmless(self):
        srv = self._serve()
        try:
            with make_client(srv, "setup") as s:
                s.create("d", [4], [2])
            wrapper, made = arm_first_connection(
                lambda f: f.arm_recv("delay", seconds=0.15), SEED)
            with DRXClient(srv.address, client_id="slow",
                           timeout=30.0, socket_wrapper=wrapper) as c:
                c.write("d", [0], np.ones(4))
                assert np.array_equal(c.read("d", [0], [4]), np.ones(4))
                assert c.retries == 0            # latency, not loss
            assert made[0].injected == 1
        finally:
            srv.shutdown(drain=True)

    def test_torn_request_never_mutates(self):
        """The *request* frame tears mid-wire (half sent, socket
        closed): the server never dispatches the partial frame, so
        nothing is applied until the clean retry re-issues it."""
        srv = self._serve()
        try:
            with make_client(srv, "setup") as s:
                s.create("q", [8, 4], [4, 4])
            # send op 1 on the fresh connection = the extend's REQ frame
            wrapper, made = arm_first_connection(
                lambda f: f.arm_send("torn", after=1, keep=0.4), SEED)
            with DRXClient(srv.address, client_id="reqtorn",
                           timeout=30.0, max_retries=8, seed=SEED + 3,
                           socket_wrapper=wrapper) as c:
                ack = c.extend("q", dim=0, by=4)
                assert ack["shape"] == [12, 4]
                st = c.stats()
            assert made[0].injected == 1
            assert conservation_ok(st)
            with make_client(srv, "check") as c2:
                assert c2.open("q")["shape"] == [12, 4]
        finally:
            srv.shutdown(drain=True)


# ---------------------------------------------------------------------------
# satellite: retry accounting pinned
# ---------------------------------------------------------------------------
@contextlib.contextmanager
def _sync_driver(c):
    yield lambda verb, *a, **kw: getattr(c, verb)(*a, **kw)


@contextlib.contextmanager
def _pipelined_driver(c):
    with c.pipeline(depth=4) as pipe:
        yield lambda verb, *a, **kw: getattr(pipe, verb)(*a, **kw).result()


_DRIVERS = pytest.mark.parametrize("driver", [
    pytest.param(_sync_driver, id="sync"),
    pytest.param(_pipelined_driver, id="pipelined")])


def _fake_server(reply):
    """A one-connection daemon stand-in: every request is answered with
    ``reply(hdr) -> (kind, header)``, echoing the ``rid``."""
    lsock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    lsock.bind(("127.0.0.1", 0))
    lsock.listen(1)

    def serve():
        conn, _ = lsock.accept()
        try:
            while True:
                _, hdr, _ = protocol.recv_frame(conn)
                kind, out = reply(hdr)
                protocol.send_frame(conn, kind, dict(out, rid=hdr["rid"]))
        except Exception:       # noqa: BLE001 - client went away
            pass
        finally:
            conn.close()

    t = threading.Thread(target=serve, daemon=True)
    t.start()
    return lsock, t


class TestRetryAccounting:
    """One retry rule, two drivers: the synchronous call and the
    pipelined one must account identically."""

    @_DRIVERS
    def test_max_retries_means_n_plus_one_attempts(self, driver):
        """Regression pin for the exchange loop: ``max_retries=3``
        issues exactly 4 attempts with ``attempt`` headers 0..3, and
        the sleeps are ``delay(1..3)`` of an identically-seeded
        policy — no off-by-one in either direction."""
        attempts: list[int] = []

        def refuse(hdr):
            attempts.append(hdr["attempt"])
            return protocol.RETRY_LATER, {"reason": "always busy"}

        lsock, t = _fake_server(refuse)
        sleeps: list[float] = []
        try:
            c = DRXClient(lsock.getsockname(), client_id="pin",
                          max_retries=3, seed=11,
                          sleep=sleeps.append)
            with pytest.raises(ServeError, match="busy"):
                with driver(c) as call:
                    call("ping")
            c.close()
        finally:
            lsock.close()
        t.join(5)
        assert attempts == [0, 1, 2, 3]
        policy = BackoffPolicy(base_delay=0.005, max_delay=0.25,
                               seed=11)
        assert sleeps == [policy.delay(1), policy.delay(2),
                          policy.delay(3)]
        assert c.retries == 3
        assert c.retry_later_seen == 4

    @_DRIVERS
    def test_idempotency_key_is_stable_across_attempts(self, driver):
        """Every retried attempt of one mutation carries the same
        ``(sid, seq)``; a *new* mutation gets a new seq."""
        seen: list[tuple[str, int, int]] = []

        def observe(hdr):
            seen.append((hdr["sid"], hdr["seq"], hdr["attempt"]))
            kind = (protocol.RETRY_LATER
                    if hdr["attempt"] == 0 else protocol.OK)
            return kind, {"reason": "one more"}

        lsock, t = _fake_server(observe)
        try:
            with DRXClient(lsock.getsockname(), client_id="key",
                           max_retries=4, seed=0,
                           sleep=lambda s: None) as c, \
                    driver(c) as call:
                call("extend", "a", dim=0, by=1)
                call("extend", "a", dim=0, by=1)
        finally:
            lsock.close()
        t.join(5)
        assert len(seen) == 4
        (sid1, seq1, a0), (sid1b, seq1b, a1) = seen[0], seen[1]
        assert (sid1, seq1) == (sid1b, seq1b)    # stable across retry
        assert (a0, a1) == (0, 1)
        assert seen[2][1] == seen[3][1] == seq1 + 1   # fresh request
        assert seen[2][0] == sid1


# ---------------------------------------------------------------------------
# satellite: abrupt-disconnect lock reclamation (both layers)
# ---------------------------------------------------------------------------
class TestLockReclamation:
    def test_rwlock_release_owner_reclaims_all_holds(self):
        lk = ArrayRWLock()
        tok = object()
        lk.acquire_shared(None, tok)
        lk.acquire_shared(None, tok)
        assert lk.held() == (2, False)
        assert lk.release_owner(tok) == 2
        assert lk.held() == (0, False)
        lk.acquire_exclusive(None, tok)
        assert lk.held() == (0, True)
        assert lk.release_owner(tok) == 1
        assert lk.held() == (0, False)
        assert lk.release_owner(tok) == 0        # idempotent

    def test_release_owner_ignores_other_owners(self):
        lk = ArrayRWLock()
        mine, theirs = object(), object()
        lk.acquire_shared(None, mine)
        lk.acquire_shared(None, theirs)
        assert lk.release_owner(mine) == 1
        assert lk.held() == (1, False)
        lk.release_shared(theirs)

    def test_server_backstop_releases_both_lock_layers(self):
        fs = ParallelFileSystem(nservers=3, stripe_size=1024)
        srv = DRXServer(fs=fs).start()
        try:
            with make_client(srv, "mk") as c:
                c.create("z", [4], [2])
            entry = srv._entry("z")
            tok = object()
            # the exact window: RW lock held, chunk locks mid-acquire
            entry.rw.acquire_shared(None, tok)
            entry.chunks.acquire([0], tok)
            assert entry.rw.held() == (1, False)
            srv._release_owner(tok)
            assert entry.rw.held() == (0, False)
            assert entry.chunks.held() == 0
        finally:
            srv.shutdown(drain=True)

    def test_socket_kill_in_lock_window_leaves_no_rw_hold(self):
        """A raw client sends a write that parks on a *held* chunk
        lock (RW lock already acquired shared) and its socket dies in
        that window.  Afterwards an exclusive verb must get through
        promptly and no hold of either layer may remain."""
        fs = ParallelFileSystem(nservers=3, stripe_size=1024)
        srv = DRXServer(fs=fs).start()
        try:
            with make_client(srv, "holder") as h:
                h.create("w", [8], [4])
                blocker = threading.Thread(
                    target=lambda: h.write("w", [0], np.ones(4),
                                           _delay=0.5))
                blocker.start()
                time.sleep(0.15)         # holder owns chunk 0
                raw = socket.create_connection(srv.address)
                protocol.send_frame(raw, protocol.REQ, {
                    "verb": "write", "client": "victim", "rid": 1,
                    "name": "w",
                    "lo": [0], "shape": [4], "dtype": "<f8",
                    "sid": "dead", "seq": 1,
                }, np.zeros(4).tobytes())
                time.sleep(0.15)         # victim parked on chunk lock,
                raw.close()              # ... and dies in the window
                blocker.join(10)
                # exclusive verb gets through: nothing leaked
                with make_client(srv, "after", timeout=5.0) as c2:
                    ack = c2.extend("w", dim=0, by=4)
                    assert ack["shape"] == [12]
                    assert c2.stats()["chunk_locks_held"] == 0
            entry = srv._entry("w")
            deadline = time.monotonic() + 5.0
            while (entry.rw.held() != (0, False)
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert entry.rw.held() == (0, False)
        finally:
            srv.shutdown(drain=True)


# ---------------------------------------------------------------------------
# satellite: QoS conservation under retries, dedup, reconnects
# ---------------------------------------------------------------------------
class TestQoSConservation:
    def test_conservation_under_dedup_and_reconnect(self):
        fs = ParallelFileSystem(nservers=3, stripe_size=1024)
        srv = DRXServer(fs=fs).start()
        try:
            with make_client(srv, "setup") as s:
                s.create("q", [8, 4], [4, 4])
            # three tenants: one clean, one losing its first OK, one
            # losing its first request frame
            with make_client(srv, "clean") as c:
                c.write("q", (0, 0), np.ones((8, 4)))
            w1, _ = arm_first_connection(
                lambda f: f.arm_recv("disconnect"), SEED)
            with DRXClient(srv.address, client_id="lost-ack",
                           timeout=30.0, max_retries=8, seed=SEED,
                           socket_wrapper=w1) as c:
                c.extend("q", dim=0, by=4)
            w2, _ = arm_first_connection(
                lambda f: f.arm_send("torn", after=1, keep=0.4), SEED)
            with DRXClient(srv.address, client_id="lost-req",
                           timeout=30.0, max_retries=8, seed=SEED + 1,
                           socket_wrapper=w2) as c:
                c.extend("q", dim=0, by=4)
                st = c.stats()
            assert conservation_ok(st)
            totals = st["qos"]["totals"]
            assert totals["dedup_hits"] >= 1
            assert st["qos"]["clients"]["lost-ack"]["dedup_hits"] == 1
            # both extends applied exactly once each
            with make_client(srv, "check") as c2:
                assert c2.open("q")["shape"] == [16, 4]
            assert json.dumps(st)        # snapshot stays JSON-able
        finally:
            srv.shutdown(drain=True)


# ---------------------------------------------------------------------------
# CLI: --recover
# ---------------------------------------------------------------------------
class TestRecoverCLI:
    def test_recover_flag_replays_and_reports(self, tmp_path):
        # leave a dirty substrate behind: acked writes, abrupt kill
        srv = DRXServer(root=str(tmp_path)).start()
        with make_client(srv, "w") as c:
            _acked_workload(c)
        srv.kill()

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.getcwd(), "src"),
             env.get("PYTHONPATH", "")])
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--root",
             str(tmp_path), "--recover", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env)
        try:
            lines = []
            while True:
                line = proc.stdout.readline()
                assert line, "daemon exited before listening"
                if "listening on" in line:
                    port = int(line.rsplit(":", 1)[1])
                    break
                lines.append(line)
            summary = json.loads("".join(lines))
            assert summary["recovered"]["vol"]["replayed"] == 5
            with DRXClient(("127.0.0.1", port), client_id="cli",
                           timeout=15.0) as c:
                got = c.read("vol", (0, 0), (12, 16))
                assert np.array_equal(got, _acked_model())
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=20) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


# ---------------------------------------------------------------------------
# structure: one durability rule, no switch
# ---------------------------------------------------------------------------
def test_durability_has_no_switch():
    """The journal is unconditional and group commit has no window: no
    constructor option or CLI flag turns either back into a knob."""
    import inspect

    from repro.serve import cli

    server_params = inspect.signature(DRXServer).parameters
    assert not {"journal", "journal_window"} & set(server_params)
    assert "group_window" not in inspect.signature(Journal).parameters
    flags = {flag for action in cli.build_parser()._actions
             for flag in action.option_strings}
    assert not {"--no-journal", "--journal-window"} & flags
