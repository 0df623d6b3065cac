#!/usr/bin/env python
"""Raw-speed pass: vectorized kernels + cost-model auto-tuning.

Two acceptance gates over the paper's E1–E8 experiment shapes:

**Part A — vectorization alone.**  The dense-grid scatter/gather
kernels (:mod:`repro.core.scatter`) and the vectorized datatype
pack/unpack replace per-chunk Python loops.  Per shape, the whole-array
scatter+gather round trip and the indexed-filetype pack/unpack run with
``set_vectorized(True)`` and ``(False)`` — same inputs, executor
threads 0, so the measured ratio is the pure-CPU win with no overlap
confounder.  Outputs are asserted bit-identical between the two paths.

**Part B — advisor vs. naive defaults.**  Per shape, a sequential
tile scan (fixed 64x64-element read requests, the access pattern E5
prices) runs on the simulated PFS twice: once with the naive defaults
a user starts from (the experiment's original chunk shape on the stock
64 KiB stripe) and once with the advisor's chunk/stripe choice for
that workload (``repro.tuning.advise`` with ``request_shape`` set).
The metric is the simulator's deterministic total server busy time —
the E5 resource cost (requests + seeks + bytes moved) the advisor's
model minimizes — so the comparison is exact and reproducible;
request counts and parallel ``io_time`` are recorded alongside.

Run as a script this writes ``BENCH_autotune.json`` at the repo root;
under pytest the two ``test_*`` functions enforce the acceptance
criteria (≥2× vectorization win on at least two shapes, advisor beats
naive on every shape).
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np

from repro.bench import Table, speedup
from repro.core.inverse import f_star_inv_many
from repro.core.mapping import f_star_many
from repro.core.metadata import DRXMeta
from repro.core.scatter import gather_chunks, scatter_chunks, set_vectorized
from repro.drx.drxfile import DRXFile
from repro.mpi.datatypes import from_numpy_dtype
from repro.pfs import ParallelFileSystem
from repro.tuning import Workload, advise

#: The paper's experiment geometries (bounds, chunk shape).  E4 probes
#: chunk *location* and E6 growth distribution — neither pins an array
#: shape, so they get representative grids of the same scale.
SHAPES = {
    "E1": ((128, 128), (16, 16)),
    "E2": ((256, 256), (32, 32)),
    "E3": ((96, 96), (8, 8)),
    "E4": ((256, 256), (16, 16)),
    "E5": ((512, 512), (32, 32)),
    "E6": ((160, 160), (8, 8)),
    "E7": ((128, 128), (16, 16)),
    "E8": ((64, 64), (8, 8)),
}

STRIPE = 64 * 1024
NSERVERS = 4


def _timed(fn, min_time: float = 0.2) -> float:
    """Seconds per call, repeated until ``min_time`` total elapsed."""
    fn()                                   # warm caches / allocators
    calls = 0
    t0 = time.perf_counter()
    while True:
        fn()
        calls += 1
        dt = time.perf_counter() - t0
        if dt >= min_time and calls >= 3:
            return dt / calls


# ---------------------------------------------------------------------------
# part A: vectorization alone (pure CPU, executor threads 0)
# ---------------------------------------------------------------------------

def _hot_path_inputs(bounds, chunk):
    """The whole-array scatter/gather + pack/unpack working set."""
    meta = DRXMeta.create(bounds, chunk)
    addrs = np.sort(f_star_many(
        meta.eci, np.stack(np.meshgrid(
            *[np.arange(b) for b in meta.eci.bounds],
            indexing="ij"), axis=-1).reshape(-1, meta.rank)))
    indices = f_star_inv_many(meta.eci, addrs)
    rng = np.random.default_rng(42)
    staging = rng.random((len(addrs), *chunk))
    out = np.zeros(bounds)
    payload = staging.tobytes()
    dt = from_numpy_dtype(meta.dtype).Create_contiguous(
        meta.chunk_elems).Commit()
    return meta, addrs, indices, staging, out, payload, dt


def measure_vectorization(bounds, chunk) -> dict:
    meta, addrs, indices, staging, out, payload, dt = \
        _hot_path_inputs(bounds, chunk)
    cs = meta.chunk_shape
    eb = meta.element_bounds
    unpack_buf = bytearray(len(payload))

    def round_trip():
        scatter_chunks(staging, indices, cs, eb, out, (0,) * meta.rank)
        gather_chunks(indices, cs, eb, out, (0,) * meta.rank,
                      staging=staging)
        dt.unpack(unpack_buf, payload, count=len(addrs))
        dt.pack(unpack_buf, count=len(addrs))

    digests = {}
    times = {}
    for on in (True, False):
        prev = set_vectorized(on)
        try:
            out[...] = 0
            times[on] = _timed(round_trip)
            digests[on] = (out.tobytes(),
                           dt.pack(unpack_buf, count=len(addrs)))
        finally:
            set_vectorized(prev)
    assert digests[True] == digests[False], \
        f"vectorized path not bit-identical for {bounds}/{chunk}"
    return {
        "chunks": len(addrs),
        "vectorized_s": times[True],
        "scalar_s": times[False],
        "speedup": times[False] / times[True],
    }


# ---------------------------------------------------------------------------
# part B: advisor-chosen settings vs naive defaults (simulated tile scan)
# ---------------------------------------------------------------------------

def _tiles(bounds, tile):
    for r in range(0, bounds[0], tile[0]):
        for c in range(0, bounds[1], tile[1]):
            yield ((r, c), (min(r + tile[0], bounds[0]),
                            min(c + tile[1], bounds[1])))


def _tile_scan_cost(bounds, chunk, stripe, tile) -> dict:
    """Deterministic simulated cost of a sequential tile scan.

    ``busy_time`` sums every server's service seconds — the E5-style
    resource cost (requests + seeks + bytes) the advisor's model is
    monotone in; ``io_time`` (max-over-servers per call) is recorded
    alongside as the parallel-completion view.
    """
    fs = ParallelFileSystem(nservers=NSERVERS, stripe_size=stripe)
    a = DRXFile.create_pfs(fs, "arr", bounds, chunk, cache_pages=4)
    ref = np.arange(np.prod(bounds), dtype=np.float64).reshape(bounds)
    a.write((0, 0), ref)
    a.flush()
    a._pool.invalidate()
    fs.reset_stats()
    pfile = a._data._pfile
    pfile.io_time = 0.0
    for lo, hi in _tiles(bounds, tile):
        out = a.read(lo, hi)
        assert np.array_equal(out, ref[lo[0]:hi[0], lo[1]:hi[1]])
    st = fs.total_stats()
    res = {"busy_time": st.busy_time, "io_time": pfile.io_time,
           "read_requests": st.read_requests}
    a.close()
    return res


def measure_advisor(bounds, chunk) -> dict:
    tile = tuple(min(64, b // 2 if b <= 64 else 64) for b in bounds)
    ntiles = int(np.prod([-(-b // t) for b, t in zip(bounds, tile)]))
    w = Workload(bounds=bounds, chunk_shape=chunk, stripe_size=STRIPE,
                 nservers=NSERVERS, request_shape=tile, requests=ntiles)
    advice = advise(w)
    tuned_chunk = tuple(advice.chosen("chunk_shape"))
    tuned_stripe = int(advice.chosen("stripe_size"))
    naive = _tile_scan_cost(bounds, chunk, STRIPE, tile)
    tuned = _tile_scan_cost(bounds, tuned_chunk, tuned_stripe, tile)
    pred = {c.value if not isinstance(c.value, tuple) else
            tuple(c.value): c.predicted_cost
            for c in advice.candidates if c.knob == "chunk_shape"}
    return {
        "tile": list(tile),
        "naive_chunk": list(chunk),
        "tuned_chunk": list(tuned_chunk),
        "naive_stripe": STRIPE,
        "tuned_stripe": tuned_stripe,
        "naive_busy_time": naive["busy_time"],
        "tuned_busy_time": tuned["busy_time"],
        "naive_io_time": naive["io_time"],
        "tuned_io_time": tuned["io_time"],
        "naive_requests": naive["read_requests"],
        "tuned_requests": tuned["read_requests"],
        "busy_ratio": naive["busy_time"] / tuned["busy_time"]
        if tuned["busy_time"] else float("inf"),
        "predicted_naive_cost": pred.get(tuple(chunk)),
        "predicted_tuned_cost": pred.get(tuned_chunk),
    }


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

def run_experiment() -> tuple[Table, dict]:
    table = Table(
        title="autotune: vectorization win + advisor vs naive (E1-E8)",
        headers=["shape", "chunks", "vector speedup",
                 "naive busy", "tuned busy", "busy win"],
    )
    results = []
    for name, (bounds, chunk) in SHAPES.items():
        vec = measure_vectorization(bounds, chunk)
        adv = measure_advisor(bounds, chunk)
        table.add(f"{name} {bounds[0]}x{bounds[1]}/{chunk[0]}x{chunk[1]}",
                  vec["chunks"],
                  speedup(vec["scalar_s"], vec["vectorized_s"]),
                  f"{adv['naive_busy_time']:.4f}s",
                  f"{adv['tuned_busy_time']:.4f}s",
                  f"{adv['busy_ratio']:.2f}x")
        results.append({"shape": name, "bounds": list(bounds),
                        "chunk": list(chunk), **vec, **adv})
    wins = sum(1 for r in results if r["speedup"] >= 2.0)
    table.note(f"{wins}/{len(results)} shapes with >= 2x vectorization "
               f"win at executor threads 0")
    table.note("busy time is the simulator's deterministic per-server "
               "service cost summed over servers (requests + seeks + "
               "bytes), the objective the advisor's model minimizes")
    doc = {
        "benchmark": "bench_autotune",
        "config": {
            "shapes": {k: [list(b), list(c)] for k, (b, c)
                       in SHAPES.items()},
            "stripe_size": STRIPE,
            "nservers": NSERVERS,
            "executor_threads": 0,
            "time_unit": "wall-clock seconds (part A), simulated "
                         "busy-time seconds (part B)",
        },
        "results": results,
    }
    return table, doc


# ---------------------------------------------------------------------------
# acceptance tests
# ---------------------------------------------------------------------------

def test_vectorization_speedup():
    """>= 2x pure-CPU win on at least two E-shapes, bit-identical."""
    ratios = {}
    for name in ("E3", "E5", "E2", "E6"):
        bounds, chunk = SHAPES[name]
        ratios[name] = measure_vectorization(bounds, chunk)["speedup"]
        if sum(1 for r in ratios.values() if r >= 2.0) >= 2:
            return
    raise AssertionError(
        f"fewer than two shapes reached 2x vectorization win: {ratios}")


def test_advisor_beats_naive_everywhere():
    """Advisor chunk/stripe strictly reduces simulated server busy time
    on every benchmarked shape."""
    for name, (bounds, chunk) in SHAPES.items():
        adv = measure_advisor(bounds, chunk)
        assert adv["tuned_busy_time"] < adv["naive_busy_time"], \
            (name, adv)


if __name__ == "__main__":
    table, doc = run_experiment()
    table.show()
    out = pathlib.Path(__file__).resolve().parent.parent \
        / "BENCH_autotune.json"
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"\nwrote {out}")
