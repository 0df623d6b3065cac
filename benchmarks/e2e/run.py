#!/usr/bin/env python3
"""The repository benchmark: six stationary wall-clock workloads, four
of them gated by ``BENCHMARK.json``.

    python3 benchmarks/e2e/run.py --seed 2007            # every workload
    python3 benchmarks/e2e/run.py --workload direct_hot --seed 1 \\
            --seconds 10 --trace 0                        # one run
    python3 benchmarks/e2e/run.py --selfcheck             # <= 30 s
    python3 benchmarks/e2e/run.py --repeat 10             # spread table

A run of one workload sets up (several times: ``setup_s`` is the
median), does one untimed warm-up round, repeats the round for
``--seconds`` (after each round it loses the handle and reopens:
``client.recover_s``) and reads everything back against the oracle.
Every round issues the same operations, so each operation is compared
with its own repetitions: best of them on a serial workload, median
where threads share the work.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` spends half the time untraced and
half with the span wrappers of ``tracing.py`` installed and reports the
per-layer metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Names, units and regression bounds of every metric are fixed in
``BENCHMARK.json`` at the repository root; see ``README.md`` here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

MIN_ROUNDS = 3
MAX_ROUNDS = 1000
#: set-ups per run: at least 3; between rounds, one more whenever all
#: of them so far took less than this share of the run
SETUP_MIN, SETUP_SHARE = 3, 0.12
_now = time.perf_counter


# ----------------------------------------------------------------------
# environment and provenance
# ----------------------------------------------------------------------

def strip_drx_env() -> dict:
    """Remove every ``DRX_*`` variable so an inherited CI-matrix
    setting cannot switch the code path being measured."""
    removed = {k: os.environ.pop(k) for k in sorted(os.environ)
               if k.startswith("DRX_")}
    return removed


def fs_type(path: pathlib.Path) -> str:
    """File-system type of the mount holding ``path`` (fsync on tmpfs
    is free, so the record says which it was)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                _dev, mount, fstype = line.split()[:3]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def git_commit() -> tuple[str, bool | None]:
    try:
        head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
        if head.returncode != 0:
            return "unknown", None
        dirty = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain"],
            capture_output=True, text=True, timeout=10)
        return head.stdout.strip(), bool(dirty.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return "unknown", None


def provenance(seed: int, seconds: float, removed_env: dict) -> dict:
    import numpy
    commit, dirty = git_commit()
    return {
        "commit": commit, "dirty": dirty, "host": socket.gethostname(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "work_fs": fs_type(OUT),
        "seed": seed, "min_seconds": seconds,
        "removed_env": removed_env,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# one workload, one run
# ----------------------------------------------------------------------

def by_identity(rec, table: str, kind: str):
    """One series of the recorder as a rounds x operations matrix: a
    column holds the repetitions of one operation of the round.  If the
    rounds did not add equally many entries (an operation failed), one
    row of everything, which turns what follows into pooled medians."""
    import numpy as np
    series = getattr(rec, table).get(kind)
    if not series:
        return None
    ends = [m[table].get(kind, 0) for m in rec.marks]
    if ends and ends[-1]:
        counts = np.diff([0, *ends])
        if (counts == counts[0]).all():
            return np.asarray(series[:ends[-1]]).reshape(len(ends), -1)
    return np.asarray(series).reshape(1, -1)


def typical(matrix, serial: bool, lower: bool = True):
    """What each operation (column) costs: the best of its repetitions
    on a serial workload, where interference only ever adds time (as
    ``timeit`` does); their median where threads share the work."""
    import numpy as np
    if not serial:
        return np.median(matrix, axis=0)
    return matrix.min(axis=0) if lower else matrix.max(axis=0)


def p50(rec, table, kind, serial, lower=True) -> float:
    """The median over the round's operations of what each costs."""
    m = by_identity(rec, table, kind)
    if m is None:
        return float("nan")
    return statistics.median(typical(m, serial, lower).tolist())


def round_busy_s(rec, serial) -> float:
    """Busy time of one round: the sum over its timed intervals of what
    each costs."""
    return float(sum(typical(by_identity(rec, "intervals", kind),
                             serial).sum() for kind in rec.intervals))


def _tail(samples) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and
    the latency there (ms)."""
    n = len(samples)
    if n < 20:
        return 0.0, 0.0
    ordered = sorted(samples)
    return 100.0 * (1.0 - 10.0 / n), 1e3 * ordered[n - 11]


def _probe(wl, st, rec, k) -> float:
    """The reopen / recovery probe after round ``k``: untimed as far as
    the round's metrics go, and kept out of the traced buckets."""
    tracer = rec.tracer
    if tracer is not None:
        tracer.bucket = "idle"
    try:
        return wl.probe(st, rec.aside, k)
    finally:
        if tracer is not None:
            tracer.bucket = "sync"


def _rounds(wl, st, rec, seconds: float, min_rounds: int, k0: int,
            between=None):
    """Repeat round + probe until ``seconds`` have passed and
    ``min_rounds`` are done; returns the per-round counter dicts, the
    probe samples and the next round number.  ``between(elapsed)`` runs
    after each probe, outside every timed region."""
    from workloads import process_counters
    counters, probes = [], []
    t_start = _now()
    t_end = t_start + seconds
    k = k0
    while (_now() < t_end or k - k0 < min_rounds) and k - k0 < MAX_ROUNDS:
        p0 = process_counters()
        c = wl.round(st, rec, k)
        p1 = process_counters()
        c.update({key: p1[key] - p0[key] for key in p1})
        counters.append(c)
        rec.end_round()
        probes.append(_probe(wl, st, rec, k))
        if between is not None:
            between(_now() - t_start)
        k += 1
    return counters, probes, k


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False) -> dict:
    """Run one workload in this process; returns the run record."""
    import workloads
    from workloads import Recorder

    wl = workloads.make(name, seed)
    work = OUT / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    st = None
    try:
        # set-up: the first one is the state the rounds run on; the
        # other samples are second, short-lived states set up between
        # rounds, spread over the whole run like every other sample
        # (back to back at the start they all saw one state of the host)
        t0 = _now()
        st = wl.setup(work / "s0")
        setups = [_now() - t0]
        spent = setups[0]

        def sample_setup(elapsed: float = math.inf) -> None:
            nonlocal spent
            if spent >= SETUP_SHARE * elapsed:
                return
            t0 = _now()
            side = wl.setup(work / f"s{len(setups)}")
            setups.append(_now() - t0)
            wl.teardown(side)
            spent += _now() - t0

        sampling = None if (trace or quick) else sample_setup

        rec = Recorder()
        warm = Recorder()
        wl.round(st, warm, 0)
        _probe(wl, st, warm, 0)
        rec.absorb(warm)
        min_rounds = 1 if quick else MIN_ROUNDS
        layers = per_kind = None
        if not trace:
            counters, recovers, _k = _rounds(wl, st, rec, seconds,
                                             min_rounds, 1, sampling)
            while sampling and len(setups) < SETUP_MIN:
                sampling()
        else:
            counters, recovers, k = _rounds(wl, st, rec, seconds / 2,
                                            min_rounds, 1)
            layers, per_kind = _traced_rounds(
                wl, st, rec, counters, seconds / 2,
                2 if quick else min_rounds, k, name)
        rounds = len(counters)
        stored, logical = wl.stored(st)
        wl.verify(st, rec.aside)
        rec.absorb(rec.aside)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        if st is not None:
            try:
                wl.teardown(st)
            except Exception as exc:  # noqa: BLE001 - report, keep result
                print(f"teardown failed: {exc!r}", file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)

    s = rec.samples
    serial = wl.serial
    busy = round_busy_s(rec, serial)
    e2e = {
        "setup_s": statistics.median(setups),
        "ops_per_s": rec.ops / len(rec.marks) / busy if busy > 0
        else float("nan"),
        "read_p50_ms": 1e3 * p50(rec, "samples", "read", serial),
        "read_MBps": p50(rec, "rates", "read", serial, lower=False) / 1e6,
        "peak_rss_mib": rss_kib / 1024.0,
        "stored_bytes_per_user_byte": stored / logical,
    }
    # fsync-, wake-up- and restart-bound on at least one gated workload:
    # this host cannot hold them to a bound, so they are reported with
    # the layers and not gated
    ungated = {
        "client.write_p50_ms": 1e3 * p50(rec, "samples", "write", serial),
        "client.write_MBps":
            p50(rec, "rates", "write", serial, lower=False) / 1e6,
        "client.extend_p50_ms": 1e3 * p50(rec, "samples", "extend", serial),
        "client.ping_p50_ms": 1e3 * p50(rec, "samples", "ping", serial),
        "client.recover_s": statistics.median(recovers) if recovers
        else float("nan"),
    }
    if layers is not None:
        pct, read_tail = _tail(s.get("read", []))
        _p, write_tail = _tail(s.get("write", []))
        layers.update(ungated)
        layers.update({
            "client.read_tail_ms": read_tail,
            "client.write_tail_ms": write_tail,
            "client.tail_pct": pct,
            "client.samples": float(sum(len(v) for v in s.values())),
            "client.failed_ratio": rec.failed / max(1, rec.attempted),
        })
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "rounds": rounds,
        "attempted": rec.attempted, "failed": rec.failed,
        "errors": rec.errors, "end_to_end": e2e, "ungated": ungated,
        "per_layer": layers,
        "per_kind": per_kind,
        "round_counters": counters[-2:],
    }


def _traced_rounds(wl, st, rec, untraced_counters, seconds, min_rounds,
                   k, name) -> tuple[dict, dict]:
    """Install the span wrappers, run traced rounds, derive the
    per-layer metrics and the per-kind breakdown."""
    from tracing import Totals, Tracer
    from workloads import Recorder

    busy_untraced = rec.busy_s / max(1, len(untraced_counters))
    tracer = Tracer()
    tracer.install()
    trec = Recorder(tracer)
    # handles made before the wrappers went in keep unwrapped bound
    # methods (the daemon's verb table): the probe replaces them
    _probe(wl, st, trec, k - 1)
    before = tracer.totals()
    counters, _probes, _k = _rounds(wl, st, trec, seconds, min_rounds, k)
    tot = Totals(tracer.totals(), before)
    rec.absorb(trec)
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.dump(OUT / f"trace-{name}.json",
                {"workload": name, "rounds": len(counters)})
    layers, per_kind = derive_layers(tot, counters, trec, busy_untraced,
                                     tracer)
    untraced_counters.extend(counters)
    layers["trace.counts_repeat"] = float(
        _counts_repeat(untraced_counters, wl.timing_counters))
    return layers, per_kind


def _counts_repeat(counters, skip=()) -> bool:
    """Whether the integer counters of the last round equal those of
    the round two before it (written values alternate with the round's
    parity, so compressed sizes repeat with period two).  Journal bytes
    may differ by the digits of the request sequence numbers they
    carry, so byte counters get 0.1 %."""
    if len(counters) < 3:
        return False
    a, b = counters[-3], counters[-1]
    for key, va in a.items():
        if not isinstance(va, int) or key in skip:
            continue
        slack = 0.001 * va if key.endswith("_bytes") else 0
        if abs(va - b.get(key, -1)) > slack:
            return False
    return True


def derive_layers(tot, counters, rec, busy_untraced,
                  tracer) -> tuple[dict, dict]:
    """The per-layer table — self times per operation from the spans,
    counts per round from the public stats accessors — and what one
    operation of each kind costs in each span."""
    from tracing import is_sync, only
    rounds = max(1, len(counters))
    n = max(1, rec.ops)

    def ms(*names) -> float:
        return 1e3 * sum(tot.self_time(x) for x in names) / n

    def per_round(key) -> float:
        return sum(c.get(key, 0) for c in counters) / rounds

    def ratio(a, b) -> float:
        return a / b if b else 0.0

    user_bytes = sum(rec.sync_bytes.values()) + rec.pipe_bytes
    e_sync = tot.total("bench.op", buckets=is_sync, paths=(1,))
    e_all = e_sync + rec.pipe_wall
    store_calls = tot.count("drx.store.read") + tot.count("drx.store.write")
    store_bytes = tot.nbytes("drx.store.read") + tot.nbytes("drx.store.write")
    frames = tot.count("serve.client_send") + tot.count("serve.server_send")
    # wire: the client's time in the socket calls that the daemon's own
    # handling does not account for (encode, sendall, delayed ACK,
    # decode, thread hops); while requests overlap in the pipeline, the
    # time no instrumented layer on the path was working
    def wire(buckets) -> float:
        if not tot.count("serve.client_send", buckets=buckets):
            return 0.0
        return max(0.0, tot.total("serve.client_send", buckets=buckets)
                   + tot.total("serve.client_recv", buckets=buckets)
                   - tot.total("serve.handle", buckets=buckets))

    wire_sync = wire(is_sync)
    wire_pipe = max(0.0, rec.pipe_wall - tot.on_path_self(only("pipe"))) \
        if rec.pipe_wall else 0.0
    covered = (tot.on_path_self(is_sync) + wire_sync
               - tot.self_time("bench.op", buckets=is_sync)
               - tot.self_time("serve.client_send", buckets=is_sync,
                               paths=(1,)))
    # what one operation of each kind costs in each span, on the path
    per_kind = {}
    for kind in tot.kinds():
        b = only("sync." + kind)
        count = tot.count("bench.op", buckets=b, paths=(1,))
        if not count:
            continue
        row = {name: 1e3 * t / count
               for name, t in tot.on_path_names(b).items()}
        row.pop("serve.client_send", None)
        row["serve.wire"] = 1e3 * wire(b) / count
        row["(operation)"] = 1e3 * tot.total(
            "bench.op", buckets=b, paths=(1,)) / count
        per_kind[kind] = row
    reads = per_kind.get("read", {})
    lookups = tot.count("core.plan_lookup")
    write_bytes = rec.sync_bytes.get("write", 0) + rec.pipe_write_bytes
    layers = {
        "core.plan_map_ms_per_op": ms("core.plan_map", "core.plan_lookup",
                                      "core.plan_store"),
        "core.scatter_ms_per_op": ms("core.scatter"),
        "core.scatter_dense_ratio": ratio(
            per_round("scatter_dense"),
            per_round("scatter_dense") + per_round("scatter_fallback")),
        "core.executor_busy_ms_per_op":
            1e3 * per_round("executor_busy_s") * rounds / n,
        "core.executor_wait_ms_per_op": ms("core.executor_wait"),
        "drx.plan_hit_ratio": ratio(
            lookups - tot.count("core.plan_store"), lookups),
        "drx.mpool_ms_per_op": ms("drx.mpool"),
        "drx.mpool_hit_ratio": ratio(
            per_round("mpool_hits"),
            per_round("mpool_hits") + per_round("mpool_misses")),
        "drx.mpool_evictions": per_round("mpool_evictions"),
        "drx.self_ms_per_op": ms("drx.self", "drx.open"),
        "drx.store_ms_per_op": ms("drx.store.read", "drx.store.write",
                                  "drx.store.flush", "drx.store.truncate",
                                  "drx.store_wrap"),
        "drx.store_calls": store_calls / rounds,
        "drx.store_bytes_per_call": ratio(store_bytes, store_calls),
        "drx.store_bytes_per_user_byte": ratio(store_bytes, user_bytes),
        "drx.codec_encode_ms_per_op": ms("drx.codec_encode"),
        "drx.codec_decode_ms_per_op": ms("drx.codec_decode"),
        "drx.codec_ratio": ratio(per_round("codec_raw_bytes"),
                                 per_round("codec_stored_bytes")),
        "drx.checksum_ms_per_op": ms("drx.checksum"),
        "drx.flush_ms_per_op": ms("drx.flush"),
        "drx.meta_persist_ms_per_op": ms("drx.meta_persist"),
        "drxmp.self_ms_per_op": ms("drxmp.self"),
        "mpi.self_ms_per_op": ms("mpi.self"),
        "mpi.pack_ms_per_op": ms("mpi.pack"),
        "mpi.exchange_ms_per_op": ms("mpi.exchange"),
        "mpi.exchange_bytes": per_round("mpi_exchange_bytes"),
        "mpi.requests_before": per_round("mpi_requests_before"),
        "mpi.requests_after": per_round("mpi_requests_after"),
        "mpi.barrier_wait_ms_per_op": ms("mpi.barrier_wait"),
        "pfs.requests": per_round("pfs_requests"),
        "pfs.seeks": per_round("pfs_seeks"),
        "pfs.bytes_moved": per_round("pfs_bytes_moved"),
        "pfs.sim_busy_s": per_round("pfs_sim_busy_s"),
        "pfs.wall_ms_per_op": ms("pfs.wall"),
        "serve.wire_ms_per_op": 1e3 * (wire_sync + wire_pipe) / n,
        "serve.wire_ms_per_read": reads.get("serve.wire", 0.0),
        "serve.client_ms_per_op": ms("serve.client"),
        "serve.frames_sent": frames / rounds,
        "serve.header_bytes_per_op": (
            tot.nbytes("serve.client_send")
            + tot.nbytes("serve.server_send")) / n,
        "serve.admission_wait_ms_per_op": ms("serve.admission_wait"),
        "serve.lock_wait_ms_per_op": ms("serve.lock_wait"),
        "serve.retry_later": per_round("serve_retry_later"),
        "serve.client_retries": per_round("serve_client_retries")
        + per_round("serve_server_retries"),
        "serve.dedup_hits": per_round("serve_dedup_hits"),
        "serve.journal_append_ms_per_op": ms("serve.journal_append"),
        "serve.journal_sync_ms_per_op": ms("serve.journal_sync",
                                           "serve.journal_rotate"),
        "serve.journal_fsyncs": per_round("journal_syncs"),
        "serve.journal_batched_ratio": ratio(
            per_round("journal_batched"),
            per_round("journal_sync_requests")),
        "serve.journal_bytes_per_user_byte": ratio(
            per_round("journal_bytes") * rounds, write_bytes),
        "serve.handler_ms_per_op": ms("serve.handle", "serve.handler"),
        "serve.engine_share": ratio(tot.engine(), e_all),
        "trace.coverage": ratio(covered, e_sync),
        "trace.overhead_ratio": ratio(rec.busy_s / rounds, busy_untraced),
        "trace.missing_boundaries": float(len(tracer.missing)),
    }
    return layers, per_kind


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------

def result_line(record: dict, spec: dict) -> str:
    """The one JSON object the driver reads from the last line."""
    section = "per_layer" if record["trace"] else "end_to_end"
    values = record[section]
    metrics = {}
    for m in spec[section]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return json.dumps({
        "correct": record["failed"] == 0 and all(
            math.isfinite(v["value"]) for v in metrics.values()),
        "attempted": record["attempted"], "failed": record["failed"],
        "metrics": metrics})


def print_metrics(record: dict, spec: dict) -> None:
    section = "per_layer" if record["trace"] else "end_to_end"
    print(f"== {record['workload']}  seed {record['seed']}  "
          f"{record['rounds']} rounds  trace {record['trace']}  "
          f"failed {record['failed']}/{record['attempted']}")
    for m in spec[section]:
        print(f"  {m['name']:<36} {record[section][m['name']]:>14.6g} "
              f"{m['unit']}")
    if not record["trace"]:
        for key, value in record["ungated"].items():
            print(f"  ({key:<34}) {value:>14.6g} not gated")
    for kind, row in (record.get("per_kind") or {}).items():
        total = row["(operation)"]
        parts = sorted(((v, k) for k, v in row.items()
                        if k != "(operation)" and v >= 0.005 * total),
                       reverse=True)
        print(f"  one {kind}: {total:.4g} ms = " + " + ".join(
            f"{k} {v:.3g}" for v, k in parts))
    for err in record["errors"]:
        print(f"  ! {err}")


def append_record(record: dict, prov: dict) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps({"provenance": prov, **record}) + "\n")


# ----------------------------------------------------------------------
# modes that run several workloads, each in a fresh subprocess
# ----------------------------------------------------------------------

def _spawn(name, seed, seconds, trace, extra=()):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace)), *extra]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=str(ROOT))


def _collect(proc, echo: bool = False) -> dict | None:
    """The result line of one spawned run, or ``None`` if it failed."""
    out, _ = proc.communicate()
    if echo:
        sys.stdout.write(out)
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def run_all(spec, prov) -> int:
    """Every workload, gated or not, untraced then traced, one
    subprocess each."""
    seed, seconds = prov["seed"], prov["min_seconds"]
    bad = 0
    summary = {}
    import workloads
    for name in workloads.NAMES:
        for trace in (0, 1):
            res = _collect(_spawn(name, seed, seconds, trace,
                                  ("--verbose",)), echo=True)
            if res is None or not res["correct"]:
                bad += 1
            if res is not None:
                summary.setdefault(name, {}).update(
                    {k: v["value"] for k, v in res["metrics"].items()})
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"e2e-{seed}.json", "w") as fh:
        json.dump({"provenance": prov, "metrics": summary}, fh, indent=1)
    print(f"wrote {OUT / f'e2e-{seed}.json'}")
    return 1 if bad else 0


def run_repeat(spec, n, prov) -> int:
    """N complete sets of the gated workloads, a new seed for each set
    as the driver does; per end-to-end metric x workload the median,
    quartiles and (max-min)/median next to the bound."""
    seed, seconds = prov["seed"], prov["min_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict = {}
    bad = 0
    for i in range(n):
        for wl in spec["workloads"]:
            res = _collect(_spawn(wl["name"], seed + i, seconds, 0))
            if res is None or not res["correct"]:
                bad += 1
                continue
            for k, v in res["metrics"].items():
                values.setdefault((wl["name"], k), []).append(v["value"])
        print(f"set {i + 1}/{n} done", file=sys.stderr)
    print(f"| workload | metric | median | q1 | q3 | iqr/median | "
          f"(max-min)/median | bound |")
    print("|---|---|---|---|---|---|---|---|")
    table = []
    for (wname, metric), vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
        iqr = (q[2] - q[0]) / med if med else float("nan")
        rng = (max(vals) - min(vals)) / med if med else float("nan")
        flag = "" if iqr <= bounds[metric] / 3 else " *"
        print(f"| {wname} | {metric} | {med:.5g} | {q[0]:.5g} | {q[2]:.5g} "
              f"| {iqr:.4f}{flag} | {rng:.4f} | {bounds[metric]} |")
        table.append({"workload": wname, "metric": metric, "median": med,
                      "q1": q[0], "q3": q[2], "iqr_over_median": iqr,
                      "range_over_median": rng, "bound": bounds[metric],
                      "values": vals})
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"repeat-{n}x-{seed}.json", "w") as fh:
        json.dump({"provenance": prov, "sets": n, "table": table}, fh,
                  indent=1)
    return 1 if bad else 0


def run_selfcheck(spec, seed) -> int:
    """One round per workload, all workloads at once (timing is not
    the point here), and the assertions of the README's check list."""
    t0 = _now()
    import workloads
    procs = {name: _spawn(name, seed, 0, 1, ("--quick",))
             for name in workloads.NAMES}
    problems = []
    fired_on = {
        "direct_hot": ("core.plan_map_ms_per_op", "drx.mpool_ms_per_op",
                       "drx.self_ms_per_op", "drx.flush_ms_per_op",
                       "drx.meta_persist_ms_per_op"),
        "direct_scan": ("drx.store_ms_per_op", "drx.store_calls",
                        "core.executor_wait_ms_per_op"),
        "direct_scan_zlib": ("drx.codec_encode_ms_per_op",
                             "drx.codec_decode_ms_per_op",
                             "drx.checksum_ms_per_op", "drx.codec_ratio"),
        "mp_zone": ("drxmp.self_ms_per_op", "mpi.pack_ms_per_op",
                    "mpi.exchange_ms_per_op", "mpi.barrier_wait_ms_per_op",
                    "pfs.wall_ms_per_op", "pfs.requests",
                    "core.scatter_ms_per_op"),
        "serve_small": ("serve.wire_ms_per_op", "serve.handler_ms_per_op",
                        "serve.journal_append_ms_per_op",
                        "serve.journal_sync_ms_per_op",
                        "serve.admission_wait_ms_per_op",
                        "serve.lock_wait_ms_per_op", "serve.frames_sent"),
        "serve_stream": ("serve.wire_ms_per_op",
                         "serve.journal_sync_ms_per_op",
                         "serve.engine_share"),
    }
    for name, proc in procs.items():
        res = _collect(proc)
        if res is None:
            problems.append(f"{name}: run failed (exit {proc.returncode})")
            continue
        m = {k: v["value"] for k, v in res["metrics"].items()}
        if not res["correct"] or res["failed"]:
            problems.append(f"{name}: {res['failed']} of "
                            f"{res['attempted']} operations failed")
        for metric in spec["per_layer"]:
            if not math.isfinite(m.get(metric["name"], float("nan"))):
                problems.append(f"{name}: {metric['name']} not finite")
        if m.get("trace.missing_boundaries"):
            problems.append(f"{name}: {m['trace.missing_boundaries']:.0f} "
                            f"boundaries did not resolve")
        for metric in fired_on[name]:
            if not m.get(metric, 0) > 0:
                problems.append(f"{name}: {metric} did not fire")
        if name != "direct_scan_zlib":
            for metric in m:
                if metric.startswith("drx.codec_") and m[metric] != 0:
                    problems.append(f"{name}: {metric} = {m[metric]} != 0")
        if not 0.9 <= m.get("trace.coverage", 0) <= 1.1:
            problems.append(f"{name}: trace.coverage = "
                            f"{m.get('trace.coverage')}")
        if m.get("trace.counts_repeat") != 1.0:
            problems.append(f"{name}: round counters differ between "
                            f"two rounds")
    for p in problems:
        print(f"FAIL {p}")
    print(f"selfcheck: {len(problems)} problem(s), {_now() - t0:.1f} s")
    return 1 if problems else 0


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=2007)
    ap.add_argument("--seconds", "--min-seconds", type=float, default=None,
                    dest="seconds")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--repeat", type=int, default=0, metavar="N")
    ap.add_argument("--quick", action="store_true",
                    help="one set-up, one untraced round, two traced "
                         "(selfcheck)")
    ap.add_argument("--verbose", action="store_true",
                    help="print every metric by name before the result")
    args = ap.parse_args(argv)

    removed = strip_drx_env()
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None \
        else float(spec["run_seconds"])
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401 - fail here, before any output, if absent

    prov = provenance(args.seed, seconds, removed)
    if args.selfcheck:
        return run_selfcheck(spec, args.seed)
    if args.repeat:
        return run_repeat(spec, args.repeat, prov)
    if args.workload is None:
        return run_all(spec, prov)

    import workloads
    if args.workload not in workloads.NAMES:
        ap.error(f"--workload must be one of {list(workloads.NAMES)}")
    record = run_workload(args.workload, args.seed, seconds,
                          bool(args.trace), quick=args.quick)
    append_record(record, prov)
    if args.verbose or record["failed"]:
        print_metrics(record, spec)
    print(result_line(record, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
