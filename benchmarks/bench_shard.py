#!/usr/bin/env python
"""The sharded service under load: shard scaling and pipelining wins.

Two experiments, both against in-process
:class:`~repro.serve.shard.ShardSet` daemons.  Per-op service time is
pinned with the daemon's ``_delay`` knob — a GIL-releasing sleep paid
inside the request, while its admission slot is held — so each shard
models a device with fixed service time and a queue depth equal to its
admission window.  A shard's capacity is then window/service-time
ops/s, a resource that genuinely multiplies with shard count even on
one CPU, exactly as N daemon processes on N disks would (the CPU cost
of the protocol work itself stays visible as the flattening of the
8-shard leg).

**Shard scaling** — ``DRX_BENCH_CLIENTS`` tenants (default 128; the CI
leg turns it up) each own one array and hammer it with chunk writes,
against 1 / 2 / 4 / 8 shards.  The ``rpc`` legs drive one op per
round trip per tenant; the ``pipelined`` legs push the *same total op
count* through 4x fewer connections, each holding a window of 4 in
flight — the operational claim of pipelining at scale is connection
economy at equal aggregate load, not extra throughput from a shard
that is already capacity-saturated.  Recorded per leg: aggregate
ops/s, p50/p99 per-op latency, per-shard balance of completed ops,
and queue-depth high-water marks.  Acceptance: 4 shards deliver
>= 2x the aggregate write throughput of 1 shard.

**Pipelining** — one 256-op sequential workload (one chunk write per
op, distinct chunks) against a single shard, three ways: ``rpc`` (one
op per round trip), ``pipelined`` (rid-tagged window of 32 in flight,
replies matched by id), ``batch`` (frames of 32 ops).  Per-op service
time is pinned at 10 ms with the daemon's ``_delay`` knob (a
GIL-releasing stand-in for device latency, decoupled from write-back
cache timing), so the experiment isolates exactly what the protocol
controls: how much service time overlaps.  Acceptance: pipelining
cuts wall-clock >= 3x vs RPC — the window overlaps service time that
RPC pays serially.  Batching collapses 256 frames to 8 — its win is
framing/round-trip overhead, not concurrency (ops in one frame
execute in list order), and the table says so honestly.

Every leg ends with a full read-back asserted bit-identical against
the last acked write, and QoS conservation checked on the merged
stats.  Run as a script this writes ``BENCH_shard.json`` at the repo
root.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time

import numpy as np

from repro.bench import Table
from repro.pfs import ParallelFileSystem
from repro.serve.shard import ShardSet, merge_stats

NCLIENTS = int(os.environ.get("DRX_BENCH_CLIENTS", "128"))
OPS_PER_CLIENT = int(os.environ.get("DRX_BENCH_OPS", "4"))
SHARD_COUNTS = (1, 2, 4, 8)
CHUNK = 64                          #: chunk edge (64x64 f8 = 32 KiB)
CHUNK_BYTES = CHUNK * CHUNK * 8

DEV_DELAY = 0.025                   #: pinned service time, scaling leg
#: per-shard admission window for the scaling leg: the modeled device
#: queue depth — a shard's capacity is window / DEV_DELAY ops/s
SCALE_ADMISSION = dict(max_inflight=4, max_inflight_per_client=4,
                       max_queue=2048)
PIPE_WINDOW = 4                     #: per-connection window, scaling leg

SEQ_OPS = 256                       #: the sequential-workload length
OP_DELAY = 0.010                    #: pinned service time per seq op
PIPE_DEPTH = 32                     #: == per-client admission window
BATCH_OPS = 32
SEQ_ADMISSION = dict(max_inflight=32, max_inflight_per_client=32,
                     max_queue=512)


def make_set(nshards: int, nservers: int, admission: dict) -> ShardSet:
    return ShardSet(
        nshards,
        fs_factory=lambda i: ParallelFileSystem(
            nservers=nservers, stripe_size=CHUNK_BYTES),
        **admission)


def block(i: int, step: int) -> np.ndarray:
    return np.full((CHUNK, CHUNK), float(i * 1000 + step))


# ---------------------------------------------------------------------------
# experiment 1: shard scaling
# ---------------------------------------------------------------------------
def _tenant_rpc(ss, i, nops, lats, errors):
    try:
        with ss.client(f"t{i:04d}", timeout=120.0, max_retries=200,
                       seed=i) as c:
            for step in range(nops):
                t0 = time.perf_counter()
                c.write(f"t{i:04d}", (step * CHUNK, 0), block(i, step),
                        _delay=DEV_DELAY)
                lats.append(time.perf_counter() - t0)
    except BaseException as exc:        # surfaced by the driver
        errors.append(exc)


def _tenant_pipelined(ss, i, nops, lats, errors):
    try:
        with ss.client(f"t{i:04d}", timeout=120.0, max_retries=200,
                       seed=i) as c:
            with c.pipeline(depth=PIPE_WINDOW) as pipe:
                t0 = time.perf_counter()
                pends = [pipe.write(f"t{i:04d}", (step * CHUNK, 0),
                                    block(i, step), _delay=DEV_DELAY)
                         for step in range(nops)]
                for p in pends:
                    p.result()
                    lats.append(time.perf_counter() - t0)
    except BaseException as exc:
        errors.append(exc)


def run_scaling(nshards: int, mode: str) -> dict:
    if mode == "rpc":
        tenant, nclients, nops = _tenant_rpc, NCLIENTS, OPS_PER_CLIENT
    else:
        # same total op count through 4x fewer connections, each
        # keeping a window of PIPE_WINDOW requests in flight
        tenant = _tenant_pipelined
        nclients = max(1, NCLIENTS // PIPE_WINDOW)
        nops = OPS_PER_CLIENT * PIPE_WINDOW
    with make_set(nshards, nservers=1,
                  admission=SCALE_ADMISSION) as ss:
        with ss.client("setup", timeout=60.0) as setup:
            for i in range(nclients):
                setup.create(f"t{i:04d}",
                             bounds=[nops * CHUNK, CHUNK],
                             chunk=[CHUNK, CHUNK])
        per_client: list[list[float]] = [[] for _ in range(nclients)]
        errors: list[BaseException] = []
        threads = [threading.Thread(target=tenant,
                                    args=(ss, i, nops, per_client[i],
                                          errors),
                                    name=f"tenant-{i:04d}")
                   for i in range(nclients)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=600)
        wall = time.perf_counter() - t0
        assert not any(t.is_alive() for t in threads), "wedged tenant"
        if errors:
            raise errors[0]

        # read-back: every chunk bit-identical to its acked write
        with ss.client("checker", timeout=60.0) as c:
            for i in range(0, nclients, max(1, nclients // 16)):
                for step in range(nops):
                    got = c.read(f"t{i:04d}", (step * CHUNK, 0),
                                 ((step + 1) * CHUNK, CHUNK))
                    assert np.array_equal(got, block(i, step)), \
                        f"tenant {i} step {step} diverged"

        snaps = [srv.stats_snapshot() for srv in ss.servers]
    merged = merge_stats(snaps)
    tot = merged["aggregate"]["qos_totals"]
    assert tot["requests"] == (tot["ok"] + tot["errors"]
                               + tot["retry_later"]
                               + tot["deadline_misses"]), \
        "QoS conservation violated across the shard set"
    per_shard_ok = [s["qos"]["totals"]["ok"] for s in snaps]
    lats = np.array(sorted(x for c in per_client for x in c))
    ops = nclients * nops
    return {
        "experiment": "scaling",
        "nshards": nshards,
        "mode": mode,
        "clients": nclients,
        "ops": ops,
        "wall_s": wall,
        "throughput_ops_s": ops / wall,
        "p50_ms": float(np.percentile(lats, 50) * 1e3),
        "p99_ms": float(np.percentile(lats, 99) * 1e3),
        "per_shard_ok": per_shard_ok,
        "balance_ratio": (max(per_shard_ok) / max(1, min(per_shard_ok))
                          if nshards > 1 else 1.0),
        "queue_depth_hw": max(s["qos"]["queue_depth_hw"] for s in snaps),
        "inflight_hw": max(s["qos"]["inflight_hw"] for s in snaps),
        "retry_later": tot["retry_later"],
    }


# ---------------------------------------------------------------------------
# experiment 2: pipelining vs one-op-per-round-trip vs batch frames
# ---------------------------------------------------------------------------
def run_sequential(mode: str) -> dict:
    with make_set(1, nservers=4, admission=SEQ_ADMISSION) as ss:
        with ss.client("setup", timeout=60.0) as setup:
            setup.create("seq", bounds=[SEQ_OPS * CHUNK, CHUNK],
                         chunk=[CHUNK, CHUNK])
        frames = 0
        with ss.client("seq-driver", timeout=300.0,
                       max_retries=200) as c:
            t0 = time.perf_counter()
            if mode == "rpc":
                for step in range(SEQ_OPS):
                    c.write("seq", (step * CHUNK, 0), block(0, step),
                            _delay=OP_DELAY)
                frames = SEQ_OPS
            elif mode == "pipelined":
                raw = c.client_for("seq")
                with raw.pipeline(depth=PIPE_DEPTH) as pipe:
                    pends = [pipe.submit(
                        "write",
                        {"name": "seq", "lo": [step * CHUNK, 0],
                         "shape": [CHUNK, CHUNK], "dtype": "<f8",
                         "_delay": OP_DELAY},
                        block(0, step).tobytes())
                        for step in range(SEQ_OPS)]
                    for p in pends:
                        p.result()
                frames = SEQ_OPS
            else:                   # batch
                for lo in range(0, SEQ_OPS, BATCH_OPS):
                    ops = [{"verb": "write", "name": "seq",
                            "lo": [step * CHUNK, 0],
                            "shape": [CHUNK, CHUNK], "dtype": "<f8",
                            "_delay": OP_DELAY,
                            "payload": block(0, step).tobytes()}
                           for step in range(lo, lo + BATCH_OPS)]
                    c.batch(ops)
                    frames += 1
            wall = time.perf_counter() - t0

            # full read-back, bit-identical
            for step in range(SEQ_OPS):
                got = c.read("seq", (step * CHUNK, 0),
                             ((step + 1) * CHUNK, CHUNK))
                assert np.array_equal(got, block(0, step)), \
                    f"step {step} diverged under {mode}"
        snap = ss.servers[0].stats_snapshot()
    tot = snap["qos"]["totals"]
    assert tot["requests"] == (tot["ok"] + tot["errors"]
                               + tot["retry_later"]
                               + tot["deadline_misses"])
    return {
        "experiment": "sequential",
        "mode": mode,
        "ops": SEQ_OPS,
        "frames": frames,
        "wall_s": wall,
        "throughput_ops_s": SEQ_OPS / wall,
        "queue_depth_hw": snap["qos"]["queue_depth_hw"],
        "inflight_hw": snap["qos"]["inflight_hw"],
        "retry_later": tot["retry_later"],
    }


# ---------------------------------------------------------------------------
def run_experiment():
    scaling_table = Table(
        f"Shard scaling: {NCLIENTS} tenants x {OPS_PER_CLIENT} chunk "
        f"writes ({CHUNK}x{CHUNK} f8), {DEV_DELAY * 1e3:.0f} ms service "
        f"time, window {SCALE_ADMISSION['max_inflight']}/shard",
        ["shards", "mode", "ops/s", "p50", "p99", "balance",
         "queue hw"],
    )
    runs = []
    for nshards in SHARD_COUNTS:
        for mode in ("rpc", "pipelined"):
            r = run_scaling(nshards, mode)
            runs.append(r)
            scaling_table.add(
                nshards, mode, f"{r['throughput_ops_s']:.0f}",
                f"{r['p50_ms']:.1f} ms", f"{r['p99_ms']:.1f} ms",
                f"{r['balance_ratio']:.2f}", r["queue_depth_hw"])
    scaling_table.note(
        "each shard = one daemon modeling a device with fixed service "
        "time and queue depth = its admission window (GIL-releasing "
        "sleeps), so aggregate ops/s is capacity-bound and scales "
        "with shard count on one CPU until protocol CPU flattens it; "
        "pipelined legs move the same total ops over 4x fewer "
        "connections (window 4 each) — connection economy at equal "
        "load, paid for with the extra per-request dispatch hop on a "
        "saturated shard (pipelining buys wall-clock when latency "
        "dominates, see the sequential table, not when the shard is "
        "already capacity-bound); balance = busiest/quietest shard "
        "in completed ops (consistent hashing of tenant array names)")

    seq_table = Table(
        f"Sequential {SEQ_OPS}-op workload, 1 shard, "
        f"{OP_DELAY * 1e3:.0f} ms pinned service time per op",
        ["mode", "frames", "wall", "ops/s", "speedup vs rpc"],
    )
    seq = {}
    for mode in ("rpc", "pipelined", "batch"):
        r = run_sequential(mode)
        seq[mode] = r
        runs.append(r)
    for mode, r in seq.items():
        seq_table.add(mode, r["frames"], f"{r['wall_s']:.2f} s",
                      f"{r['throughput_ops_s']:.0f}",
                      f"{seq['rpc']['wall_s'] / r['wall_s']:.2f}x")
    seq_table.note(
        "rpc pays every op's service time serially (one round trip "
        "each); the pipeline's in-flight window overlaps service time "
        "across ops, bounded by the admission window; batch collapses "
        "256 frames to 8 but executes a frame's ops in list order — "
        "it buys framing/round-trip overhead, not concurrency")

    # acceptance
    def tput(nshards, mode):
        return next(r["throughput_ops_s"] for r in runs
                    if r.get("nshards") == nshards
                    and r["mode"] == mode
                    and r["experiment"] == "scaling")

    scale_x = tput(4, "rpc") / tput(1, "rpc")
    pipe_x = seq["rpc"]["wall_s"] / seq["pipelined"]["wall_s"]
    assert scale_x >= 2.0, \
        f"4 shards only {scale_x:.2f}x the 1-shard write throughput"
    assert pipe_x >= 3.0, \
        f"pipelining only cut the sequential wall-clock {pipe_x:.2f}x"

    doc = {
        "benchmark": "bench_shard",
        "config": {
            "clients": NCLIENTS, "ops_per_client": OPS_PER_CLIENT,
            "chunk": [CHUNK, CHUNK], "shard_counts": list(SHARD_COUNTS),
            "scaling_op_delay_s": DEV_DELAY,
            "scaling_admission": dict(SCALE_ADMISSION),
            "sequential_ops": SEQ_OPS,
            "sequential_op_delay_s": OP_DELAY,
            "pipeline_depth": PIPE_DEPTH,
            "batch_ops_per_frame": BATCH_OPS,
            "sequential_admission": dict(SEQ_ADMISSION),
            "time_unit": "wall-clock seconds (loopback TCP, in-process "
                         "daemons, GIL-releasing pinned service times)",
        },
        "acceptance": {
            "shards4_vs_1_write_throughput_x": round(scale_x, 2),
            "required_x": 2.0,
            "pipelining_vs_rpc_wall_x": round(pipe_x, 2),
            "required_pipelining_x": 3.0,
            "readback_bit_identical": True,
        },
        "runs": runs,
    }
    return scaling_table, seq_table, doc


def test_four_shards_double_write_throughput():
    """Acceptance: the same tenant population pushes >= 2x the
    aggregate write throughput through 4 shards as through 1 — the
    shards' devices (and admission windows) genuinely parallelize."""
    one = run_scaling(1, "rpc")
    four = run_scaling(4, "rpc")
    ratio = four["throughput_ops_s"] / one["throughput_ops_s"]
    assert ratio >= 2.0, f"4 shards only {ratio:.2f}x of 1 shard"


def test_pipelining_cuts_sequential_wall_3x():
    """Acceptance: a 256-op sequential workload completes >= 3x faster
    through the pipelined window than one-op-per-round-trip, with the
    read-back bit-identical (asserted inside run_sequential)."""
    rpc = run_sequential("rpc")
    piped = run_sequential("pipelined")
    ratio = rpc["wall_s"] / piped["wall_s"]
    assert ratio >= 3.0, f"pipelining only {ratio:.2f}x vs rpc"


if __name__ == "__main__":
    scaling_table, seq_table, doc = run_experiment()
    scaling_table.show()
    print()
    seq_table.show()
    out = pathlib.Path(__file__).resolve().parent.parent \
        / "BENCH_shard.json"
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"\nwrote {out}")
