"""The sharded service: ring routing, failover re-resolution,
subprocess kill -9 recovery, and the merged stats view.

Env knobs (the CI shard job turns them up)::

    DRX_SOAK_CLIENTS=32 DRX_SOAK_SECONDS=20   # shard soak scale
    DRX_FAULT_SEED=20070917                   # chaos schedule seed
"""

from __future__ import annotations

import inspect
import json
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.errors import ServeError
from repro.pfs import ParallelFileSystem
from repro.serve import DRXClient, DRXServer, Pipeline, protocol
from repro.serve.cli import main as cli_main
from repro.serve.protocol import VERB_TABLE
from repro.serve.shard import (
    HashRing,
    ShardedClient,
    ShardedPipeline,
    ShardSet,
    merge_stats,
)

SEED = int(os.environ.get("DRX_FAULT_SEED", "0"))
SOAK_CLIENTS = int(os.environ.get("DRX_SOAK_CLIENTS", "8"))
SOAK_SECONDS = float(os.environ.get("DRX_SOAK_SECONDS", "3"))


def conservation_ok(stats: dict) -> bool:
    tot = stats["qos"]["totals"]
    return tot["requests"] == (tot["ok"] + tot["errors"]
                               + tot["retry_later"]
                               + tot["deadline_misses"])


def fs_factory(idx: int) -> ParallelFileSystem:
    return ParallelFileSystem(nservers=2, stripe_size=1024)


# ---------------------------------------------------------------------------
# one verb table, four client surfaces
# ---------------------------------------------------------------------------
SURFACES = (DRXClient, Pipeline, ShardedClient, ShardedPipeline)


class TestVerbTable:
    def test_every_routed_verb_on_every_surface_same_signature(self):
        routed = [v for v in VERB_TABLE.values() if v.routed]
        assert {v.name for v in routed} >= {
            "open", "create", "read", "write", "extend", "flush",
            "snapshot", "scrub"}
        for verb in routed:
            sigs = {cls.__name__: inspect.signature(getattr(cls, verb.name))
                    for cls in SURFACES}
            assert len(set(sigs.values())) == 1, (verb.name, sigs)
            params = list(sigs["DRXClient"].parameters)
            assert params[:2] == ["self", "name"] and "timeout" in params

    def test_fan_out_verbs_and_batch(self):
        for verb in VERB_TABLE.values():
            if verb.name == "batch":
                assert verb.encode is None
            elif not verb.routed:
                # synchronous surfaces fan out; a sharded pipeline has
                # no single shard to send them to
                for cls in (DRXClient, Pipeline, ShardedClient):
                    assert callable(getattr(cls, verb.name)), verb.name
                assert not hasattr(ShardedPipeline, verb.name)

    def test_sets_equal_the_table_flags(self):
        def flagged(flag):
            return {n for n, v in VERB_TABLE.items() if getattr(v, flag)}
        assert protocol.VERBS == set(VERB_TABLE)
        assert protocol.KEYED_VERBS == flagged("keyed") == \
            {"write", "extend"}
        assert protocol.BATCHABLE_VERBS == flagged("batchable") == \
            protocol.VERBS - {"batch", "shutdown"}
        assert protocol.CONTROL_VERBS == flagged("control") == \
            {"ping", "stats", "shutdown"}
        # the server's lookup is the table too: one handler per verb
        for name in protocol.VERBS - {"batch"}:
            assert callable(getattr(DRXServer, f"_op_{name}")), name

    def test_routed_verbs_shard_by_first_argument(self):
        ring = HashRing([("127.0.0.1", 7000 + i) for i in range(4)])
        sc = ShardedClient(ring)
        sp = sc.pipeline()
        asked = []
        sc.client_for = lambda name: asked.append(name) or _Sink()
        sp._pipe_for = lambda name: asked.append(name) or _Sink()
        args = {"create": ([4], [2]), "read": ([0], [4]),
                "write": ([0], np.zeros(4)), "snapshot": ("copy",),
                "extend": (0, 1)}
        for verb in VERB_TABLE.values():
            if verb.routed:
                for surface in (sc, sp):
                    name = f"{verb.name}-target"
                    getattr(surface, verb.name)(
                        name, *args.get(verb.name, ()))
                    assert asked.pop() == name

    def test_numpy_integer_arguments_on_all_four_surfaces(self):
        """Regression: np.int64 coordinates used to die in json.dumps;
        the table coerces every coordinate/shape/bound once."""
        i = np.int64
        with ShardSet(2, fs_factory=fs_factory) as ss, \
                ss.client("np", timeout=30.0) as sc, \
                DRXClient(ss.servers[0].address, client_id="np1",
                          timeout=30.0) as c:
            now = lambda x: x
            later = lambda pending: pending.result()
            with c.pipeline() as pipe, sc.pipeline() as spipe:
                for n, (surface, get) in enumerate([
                        (c, now), (pipe, later), (sc, now),
                        (spipe, later)]):
                    name = f"np{n}"
                    get(surface.create(name, (i(4), np.int32(4)),
                                       np.array([2, 2])))
                    vals = np.arange(4.0).reshape(2, 2)
                    get(surface.write(name, (i(1), i(2)), vals))
                    got = get(surface.read(name, np.array([1, 2]),
                                           (i(3), i(4))))
                    assert np.array_equal(got, vals), name
                    shape = get(surface.extend(
                        name, dim=np.int8(0), by=i(2)))["shape"]
                    assert shape == [6, 4]
                    shape = get(surface.extend(
                        name, to=np.array([6, 8])))["shape"]
                    assert shape == [6, 8]


class _Sink:
    def _call(self, spec, header, payload, timeout):
        return None


# ---------------------------------------------------------------------------
# the ring
# ---------------------------------------------------------------------------
class TestHashRing:
    def addresses(self, n):
        return [("127.0.0.1", 7000 + i) for i in range(n)]

    def test_deterministic_across_instances(self):
        a = HashRing(self.addresses(4))
        b = HashRing(self.addresses(4))
        names = [f"tenant-{i}/arr{j}" for i in range(20) for j in range(5)]
        assert [a.shard_of(n) for n in names] == \
            [b.shard_of(n) for n in names]

    def test_balanced_spread(self):
        ring = HashRing(self.addresses(4))
        names = [f"array-{i:05d}" for i in range(2000)]
        spread = ring.spread(names)
        assert sum(spread.values()) == len(names)
        assert all(count > 0 for count in spread.values())
        # virtual points keep the skew bounded (not a tight bound —
        # just "no shard is starved or doubled-up")
        assert max(spread.values()) < 2 * min(spread.values())

    def test_address_change_keeps_ownership(self):
        ring = HashRing(self.addresses(3))
        names = [f"a{i}" for i in range(200)]
        before = [ring.shard_of(n) for n in names]
        ring.set_address(1, ("127.0.0.1", 9999))
        assert [ring.shard_of(n) for n in names] == before
        assert ring.address(1) == ("127.0.0.1", 9999)

    def test_resolver_tracks_republish(self):
        ring = HashRing(self.addresses(2))
        resolve = ring.resolver(0)
        assert resolve() == ("127.0.0.1", 7000)
        ring.set_address(0, ("127.0.0.1", 7777))
        assert resolve() == ("127.0.0.1", 7777)

    def test_growth_remaps_a_minority(self):
        small = HashRing(self.addresses(4))
        grown = HashRing(self.addresses(5))
        names = [f"array-{i:05d}" for i in range(2000)]
        moved = sum(small.shard_of(n) != grown.shard_of(n)
                    for n in names)
        # consistent hashing: ~1/5 of names move, never a full reshuffle
        assert moved < len(names) // 2

    def test_empty_ring_rejected(self):
        with pytest.raises(ServeError):
            HashRing([])


# ---------------------------------------------------------------------------
# routed operations
# ---------------------------------------------------------------------------
class TestShardedClient:
    def test_routing_and_bit_identical_readback(self):
        with ShardSet(4, fs_factory=fs_factory) as ss:
            with ss.client("router", timeout=30.0, seed=SEED) as sc:
                names = [f"arr{i:02d}" for i in range(12)]
                rng = np.random.default_rng(SEED)
                blocks = {}
                for n in names:
                    sc.create(n, bounds=[16, 16], chunk=[8, 8])
                    blocks[n] = rng.random((16, 16))
                    sc.write(n, (0, 0), blocks[n])
                for n in names:
                    got = sc.read(n, (0, 0), (16, 16))
                    assert np.array_equal(got, blocks[n]), n
                # the population actually spread over several shards
                spread = ss.ring.spread(names)
                assert sum(1 for v in spread.values() if v > 0) >= 2
                # ... and each array lives ONLY on its owning shard
                for idx, srv in enumerate(ss.servers):
                    snap = srv.stats_snapshot()
                    owned = {n for n in names
                             if ss.ring.shard_of(n) == idx}
                    assert set(snap["arrays"]) == owned

    def test_merged_stats_aggregate(self):
        with ShardSet(2, fs_factory=fs_factory) as ss:
            with ss.client("agg", timeout=30.0) as sc:
                for i in range(6):
                    sc.create(f"s{i}", bounds=[8], chunk=[4])
                    sc.write(f"s{i}", [0], np.ones(8))
                merged = sc.stats()
            assert merged["nshards"] == 2
            assert len(merged["shards"]) == 2
            agg = merged["aggregate"]
            assert agg["arrays"] == 6
            tot = agg["qos_totals"]
            # conservation holds on the merged totals too
            assert tot["requests"] == (tot["ok"] + tot["errors"]
                                       + tot["retry_later"]
                                       + tot["deadline_misses"])
            assert tot["ok"] == sum(
                s["qos"]["totals"]["ok"] for s in merged["shards"])

    def test_cross_shard_batch_preserves_order(self):
        with ShardSet(3, fs_factory=fs_factory) as ss:
            with ss.client("batcher", timeout=30.0) as sc:
                names = [f"b{i}" for i in range(9)]
                for n in names:
                    sc.create(n, bounds=[8], chunk=[4])
                outs = sc.batch(
                    [{"verb": "write", "name": n, "lo": [0],
                      "shape": [8], "dtype": "<f8",
                      "payload": np.full(8, float(i)).tobytes()}
                     for i, n in enumerate(names)])
                assert len(outs) == len(names)
                for i, n in enumerate(names):
                    got = sc.read(n, [0], [8])
                    assert np.all(got == float(i)), n

    def test_sharded_pipeline_fans_out(self):
        with ShardSet(2, fs_factory=fs_factory) as ss:
            with ss.client("piped", timeout=30.0) as sc:
                names = [f"p{i}" for i in range(6)]
                for n in names:
                    sc.create(n, bounds=[8], chunk=[4])
                with sc.pipeline(depth=16) as pp:
                    pends = [pp.write(n, [0], np.full(8, float(i)))
                             for i, n in enumerate(names)]
                    for p in pends:
                        p.result()
                    reads = [pp.read(n, [0], [8]) for n in names]
                    for i, r in enumerate(reads):
                        assert np.all(r.result() == float(i))
                # both per-shard pipelines were actually used
                assert len(pp._pipes) == 0      # closed
                spread = ss.ring.spread(names)
                assert sum(1 for v in spread.values() if v > 0) == 2


# ---------------------------------------------------------------------------
# failover: re-resolution and exactly-once across shard restarts
# ---------------------------------------------------------------------------
class TestShardFailover:
    def test_reconnect_reresolves_ring_not_dead_address(self):
        with ShardSet(2, fs_factory=fs_factory) as ss:
            with ss.client("failover", timeout=60.0, max_retries=60,
                           seed=SEED) as sc:
                name = "fo"
                idx = ss.ring.shard_of(name)
                sc.create(name, bounds=[4, 4], chunk=[2, 2])
                sc.write(name, (0, 0), np.full((4, 4), 3.0))
                dead = ss.ring.address(idx)
                ss.kill(idx)
                srv = ss.restart(idx)
                assert srv.address != dead      # new port: the pinned
                # address is gone — only ring re-resolution can succeed
                got = sc.read(name, (0, 0), (4, 4))
                assert np.array_equal(got, np.full((4, 4), 3.0))
                # the cached per-shard client followed the ring
                assert sc.shard_client(idx).address == srv.address

    def test_pipeline_resends_outstanding_exactly_once(self):
        """A shard dies with pipelined extends outstanding; the
        receiver reconnects through the ring and re-sends them under
        their original idempotency keys — each extend lands exactly
        once (extends are NOT idempotent, so the final shape is the
        proof)."""
        with ShardSet(2, fs_factory=fs_factory) as ss:
            with ss.client("pipefail", timeout=60.0, max_retries=60,
                           seed=SEED) as sc:
                name = "grow"
                idx = ss.ring.shard_of(name)
                sc.create(name, bounds=[4, 2], chunk=[2, 2])
                nops = 16
                with sc.pipeline(depth=8) as pp:
                    pends = []
                    for i in range(nops):
                        pends.append(pp.extend(name, dim=0, by=1))
                        if i == 4:
                            ss.kill(idx)
                            time.sleep(0.05)
                            ss.restart(idx)
                    shapes = [p.result()["shape"] for p in pends]
                # every extend acked exactly once: 4 + 16 rows total
                assert sorted(s[0] for s in shapes) == \
                    list(range(5, 5 + nops))
                assert sc.open(name)["shape"] == [4 + nops, 2]


# ---------------------------------------------------------------------------
# true subprocess shards: kill -9 mid-load, recover, zero acked loss
# ---------------------------------------------------------------------------
def spawn_shard(root, extra=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--root", str(root),
         "--port", "0", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env)
    while True:
        line = proc.stdout.readline()
        if not line:
            raise AssertionError(
                f"shard died at startup: {proc.stderr.read()}")
        if "listening on" in line:
            port = int(line.rsplit(":", 1)[1])
            return proc, ("127.0.0.1", port)


class TestSubprocessShards:
    def test_kill9_mid_load_recovers_exactly_once(self, tmp_path):
        roots = [tmp_path / f"shard-{i}" for i in range(2)]
        for r in roots:
            r.mkdir()
        procs, addrs = [], []
        for r in roots:
            proc, addr = spawn_shard(r)
            procs.append(proc)
            addrs.append(addr)
        try:
            ring = HashRing(addrs)
            name = "victim"
            idx = ring.shard_of(name)
            nops = 30
            acked = []
            failures = []
            with ShardedClient(ring, client_id="killer", timeout=60.0,
                               max_retries=80, seed=SEED) as sc:
                sc.create(name, bounds=[2, 4], chunk=[2, 2])
                sc.write(name, (0, 0), np.full((2, 4), 5.0))

                def grower():
                    try:
                        for _ in range(nops):
                            ack = sc.extend(name, dim=0, by=1)
                            acked.append(ack["shape"][0])
                    except Exception as exc:  # noqa: BLE001 - recorded
                        failures.append(repr(exc))

                t = threading.Thread(target=grower)
                t.start()
                # let some extends land, then kill -9 the owning shard
                while len(acked) < 5:
                    time.sleep(0.01)
                os.kill(procs[idx].pid, signal.SIGKILL)
                procs[idx].wait(timeout=10)
                # restart over the same root, recovering its journals,
                # and republish the NEW address on the ring
                proc, addr = spawn_shard(roots[idx], ("--recover",))
                procs[idx] = proc
                ring.set_address(idx, addr)
                t.join(120)
                assert not t.is_alive(), "grower wedged after kill -9"
                assert not failures, failures
                # exactly-once: every acked extend grew the array once,
                # and nothing acked was lost in the kill
                assert len(acked) == nops
                assert sorted(acked) == list(range(3, 3 + nops))
                final = sc.open(name)
                assert final["shape"] == [2 + nops, 4]
                # the pre-kill acked write survived (zero acked loss)
                got = sc.read(name, (0, 0), (2, 4))
                assert np.array_equal(got, np.full((2, 4), 5.0))
            # the merged operator view sees both shards (CLI satellite
            # covered in-process in TestDumpStatsCLI; here just sanity)
            with DRXClient(ring.address(idx), timeout=10.0) as c:
                snap = c.stats()
            assert conservation_ok(snap)
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()

    def test_shard_soak_balanced_and_conserved(self):
        """SOAK leg (CI turns the knobs up): many tenants, each on its
        own array, against a 4-shard set with pipelining; counters
        conserved per shard and in aggregate, load spread over shards."""
        nclients = SOAK_CLIENTS
        seconds = SOAK_SECONDS
        with ShardSet(4, fs_factory=fs_factory) as ss:
            names = [f"tenant{i:03d}" for i in range(nclients)]
            with ss.client("setup", timeout=30.0) as setup:
                for n in names:
                    setup.create(n, bounds=[16, 16], chunk=[8, 8])
            stop_at = time.monotonic() + seconds
            issued = [0] * nclients
            failures = []

            def tenant(i):
                rng = np.random.default_rng(SEED * 1000 + i)
                try:
                    with ss.client(f"soak{i}", timeout=60.0,
                                   max_retries=60, seed=i) as cl:
                        block = rng.random((8, 8))
                        while time.monotonic() < stop_at:
                            if rng.integers(0, 2):
                                cl.write(names[i], (0, 0), block)
                            else:
                                got = cl.read(names[i], (0, 0), (8, 8))
                                assert got.shape == (8, 8)
                            issued[i] += 1
                except Exception as exc:  # noqa: BLE001 - recorded
                    failures.append((i, repr(exc)))

            threads = [threading.Thread(target=tenant, args=(i,))
                       for i in range(nclients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(seconds + 120)
                assert not t.is_alive(), "shard soak deadlock"
            assert not failures, failures
            assert sum(issued) > 0
            snaps = [srv.stats_snapshot() for srv in ss.servers]
            for snap in snaps:
                assert conservation_ok(snap)
                assert snap["qos"]["totals"]["errors"] == 0
            merged = merge_stats(snaps)
            tot = merged["aggregate"]["qos_totals"]
            assert tot["requests"] == (tot["ok"] + tot["errors"]
                                       + tot["retry_later"]
                                       + tot["deadline_misses"])
            # work landed on more than one shard
            busy = [s["qos"]["totals"]["ok"] for s in snaps]
            assert sum(1 for b in busy if b > 0) >= 2


# ---------------------------------------------------------------------------
# the merged --dump-stats CLI view
# ---------------------------------------------------------------------------
class TestDumpStatsCLI:
    def test_multi_address_merged_snapshot(self, capsys):
        with ShardSet(2, fs_factory=fs_factory) as ss:
            with ss.client("cli", timeout=30.0) as sc:
                for i in range(4):
                    sc.create(f"d{i}", bounds=[4], chunk=[2])
                    sc.write(f"d{i}", [0], np.ones(4))
            targets = [f"{h}:{p}" for h, p in ss.ring.addresses()]
            rc = cli_main(["--dump-stats", *targets])
            assert rc == 0
            out = json.loads(capsys.readouterr().out)
            assert out["nshards"] == 2
            assert len(out["shards"]) == 2
            assert out["aggregate"]["arrays"] == 4
            tot = out["aggregate"]["qos_totals"]
            assert tot["requests"] == (tot["ok"] + tot["errors"]
                                       + tot["retry_later"]
                                       + tot["deadline_misses"])

    def test_single_address_unchanged_shape(self, capsys):
        with ShardSet(1, fs_factory=fs_factory) as ss:
            host, port = ss.ring.address(0)
            rc = cli_main(["--dump-stats", "--host", host,
                           "--port", str(port)])
            assert rc == 0
            out = json.loads(capsys.readouterr().out)
            assert "qos" in out and "nshards" not in out

    def test_bad_address_rejected(self, capsys):
        assert cli_main(["--dump-stats", "nonsense"]) == 2
        assert cli_main(["--dump-stats"]) == 2
