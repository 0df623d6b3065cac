#!/usr/bin/env python
"""Two-phase collective I/O vs independent access.

The comparison of Thakur, Gropp & Lusk ("Optimizing Noncontiguous
Accesses in MPI-IO"): the same collective call with two-phase and data
sieving switched off (``romio_cb_*`` = ``romio_ds_*`` = ``disable``), so
every rank issues its own extents one by one, against the engine.

The E3-style strided pattern at 8 ranks: each rank owns K interleaved
blocks, and in the *holey* variant the union of all ranks covers only
every other block of the file, so independent access is one seek-laden
request per 512-byte run.  The two-phase engine merges each
aggregator's file domain into data-sieved covering windows — a couple
of large requests instead of hundreds of small ones — at the price of
shipping each byte point-to-point once.

Sweeps ``cb_nodes`` x ``cb_buffer_size`` x access pattern, checks every
configuration bit-identical to the serial reference, and writes
``BENCH_two_phase.json``.
"""

from __future__ import annotations

import json
import pathlib

from repro import mpi
from repro.bench import Table
from repro.mpi.file import FileView
from repro.pfs import ParallelFileSystem

P = 8                       # ranks
K = 16                      # blocks per rank
BLOCK = 512                 # bytes per block
NBLOCKS = 2 * K * P         # file holds 256 blocks = 128 KiB
FILE_SIZE = NBLOCKS * BLOCK
PATTERN = bytes(range(256)) * (FILE_SIZE // 256)
STRIPE = 64 * 1024
NSERVERS = 4

#: access patterns: rank -> block displacements (in BLOCK units)
PATTERNS = {
    # every other block globally: 512-byte runs with 512-byte holes
    "strided-holey": lambda r: [2 * (j * P + r) for j in range(K)],
    # dense interleave: the union is one contiguous run (E3 proper)
    "interleaved-dense": lambda r: [j * P + r for j in range(K)],
}


#: the baseline: every rank moves its own extents, unmerged
INDEPENDENT = {"romio_cb_read": "disable", "romio_cb_write": "disable",
               "romio_ds_read": "disable", "romio_ds_write": "disable"}


def make_view(rank: int, pattern: str):
    blk = mpi.BYTE.Create_contiguous(BLOCK)
    disps = PATTERNS[pattern](rank)
    return blk.Create_indexed([1] * K, disps).Commit()


def rank_extents(rank: int, pattern: str):
    return FileView(0, mpi.BYTE, make_view(rank, pattern)) \
        .extents(0, K * BLOCK)


def serial_read_reference(rank: int, pattern: str) -> bytes:
    return b"".join(PATTERN[o:o + n] for o, n in rank_extents(rank, pattern))


def serial_write_reference(pattern: str) -> bytes:
    """Ranks write their payloads one after the other, in rank order."""
    img = bytearray(FILE_SIZE)
    for rank in range(P):
        payload = bytes([rank + 1]) * (K * BLOCK)
        pos = 0
        for off, n in rank_extents(rank, pattern):
            img[off:off + n] = payload[pos:pos + n]
            pos += n
    return bytes(img)


def run_read(pattern: str, info: dict) -> dict:
    fs = ParallelFileSystem(nservers=NSERVERS, stripe_size=STRIPE)
    fs.create("f").write(0, PATTERN)
    fs.reset_stats()

    def body(comm):
        fh = mpi.File.Open(comm, "f", mpi.MODE_RDONLY, fs, info=info)
        fh.Set_view(0, mpi.BYTE, make_view(comm.rank, pattern))
        buf = bytearray(K * BLOCK)
        fh.Read_at_all(0, buf)
        fh.Close()
        return bytes(buf)

    out = mpi.mpiexec(P, body, timeout=120)
    for rank, got in enumerate(out):
        assert got == serial_read_reference(rank, pattern), \
            f"rank {rank} diverged from serial under {info}"
    st, cs = fs.total_stats(), fs.collective_stats()
    return {"requests": st.read_requests, "io_time": st.busy_time,
            "seeks": st.seeks, "exchange_bytes": cs.exchange_bytes,
            "wasted_bytes": cs.wasted_bytes}


def run_write(pattern: str, info: dict) -> dict:
    fs = ParallelFileSystem(nservers=NSERVERS, stripe_size=STRIPE)
    fs.create("f")
    fs.reset_stats()

    def body(comm):
        fh = mpi.File.Open(comm, "f", mpi.MODE_RDWR, fs, info=info)
        fh.Set_view(0, mpi.BYTE, make_view(comm.rank, pattern))
        fh.Write_at_all(0, bytearray(bytes([comm.rank + 1]) * (K * BLOCK)))
        fh.Close()
        return True

    assert all(mpi.mpiexec(P, body, timeout=120))
    st, cs = fs.total_stats(), fs.collective_stats()
    got = fs.open("f").read(0, FILE_SIZE)
    assert got == serial_write_reference(pattern), \
        f"write image diverged from serial under {info}"
    return {"requests": st.write_requests + st.read_requests,  # + r-m-w
            "io_time": st.busy_time, "seeks": st.seeks,
            "exchange_bytes": cs.exchange_bytes,
            "wasted_bytes": cs.wasted_bytes}


def run_experiment():
    table = Table(
        f"Two-phase collective read, P={P}, {K} x {BLOCK}B blocks/rank",
        ["pattern", "path", "cb_nodes", "cb_buffer", "PFS reqs",
         "io_time", "exchange", "vs independent"],
    )
    results = []
    for pattern in PATTERNS:
        indep = run_read(pattern, INDEPENDENT)
        results.append({"pattern": pattern, "path": "independent", **indep})
        table.add(pattern, "independent", "-", "-", indep["requests"],
                  f"{indep['io_time'] * 1e3:.1f} ms",
                  f"{indep['exchange_bytes'] // 1024} KiB", "1.0x")
        for cb_nodes in (1, 2, 4, 8):
            for cb_buf in (64 * 1024, 1 << 20):
                r = run_read(pattern, {"cb_nodes": cb_nodes,
                                       "cb_buffer_size": cb_buf})
                results.append({"pattern": pattern, "path": "two-phase",
                                "cb_nodes": cb_nodes,
                                "cb_buffer_size": cb_buf, **r})
                table.add(pattern, "two-phase", cb_nodes,
                          f"{cb_buf // 1024} KiB", r["requests"],
                          f"{r['io_time'] * 1e3:.1f} ms",
                          f"{r['exchange_bytes'] // 1024} KiB",
                          f"{indep['requests'] / r['requests']:.0f}x")

    windep = run_write("strided-holey", INDEPENDENT)
    wtp = run_write("strided-holey", {"cb_nodes": 2})
    writes = [{"pattern": "strided-holey", "path": "independent", **windep},
              {"pattern": "strided-holey", "path": "two-phase",
               "cb_nodes": 2, **wtp}]
    table.add("strided-holey", "independent write", "-", "-",
              windep["requests"], f"{windep['io_time'] * 1e3:.1f} ms",
              f"{windep['exchange_bytes'] // 1024} KiB", "1.0x")
    table.add("strided-holey", "two-phase write", 2, "4096 KiB",
              wtp["requests"], f"{wtp['io_time'] * 1e3:.1f} ms",
              f"{wtp['exchange_bytes'] // 1024} KiB",
              f"{windep['requests'] / wtp['requests']:.0f}x")
    table.note("every row is bit-identical to the serial reference; "
               "the holey pattern is where sieved covering windows pay "
               "(wasted hole bytes buy back seeks), and the exchange "
               "ships each requested byte once (point-to-point)")

    doc = {
        "benchmark": "bench_two_phase",
        "config": {
            "ranks": P, "blocks_per_rank": K, "block_bytes": BLOCK,
            "file_bytes": FILE_SIZE, "nservers": NSERVERS,
            "stripe_size": STRIPE,
            "cb_nodes_swept": [1, 2, 4, 8],
            "cb_buffer_swept": [64 * 1024, 1 << 20],
            "patterns": list(PATTERNS),
            "time_unit": "simulated busy_time seconds (cost model)",
        },
        "acceptance": {
            "pattern": "strided-holey", "cb_nodes": 2,
            "independent_requests": next(
                r["requests"] for r in results
                if r["pattern"] == "strided-holey"
                and r["path"] == "independent"),
            "two_phase_requests": next(
                r["requests"] for r in results
                if r["pattern"] == "strided-holey"
                and r.get("cb_nodes") == 2
                and r.get("cb_buffer_size") == 1 << 20),
        },
        "reads": results,
        "writes": writes,
    }
    doc["acceptance"]["request_reduction"] = (
        doc["acceptance"]["independent_requests"]
        / doc["acceptance"]["two_phase_requests"])
    return table, doc


def test_two_phase_read_beats_independent_5x():
    """Acceptance: the strided collective pattern at 8 ranks with 2
    aggregators issues >=5x fewer PFS requests (and less simulated
    io_time) than independent access, bit-identical to serial, and
    ships each requested byte at most once."""
    indep = run_read("strided-holey", INDEPENDENT)
    tp = run_read("strided-holey", {"cb_nodes": 2})
    ratio = indep["requests"] / tp["requests"]
    assert ratio >= 5.0, f"only {ratio:.1f}x fewer requests"
    assert tp["io_time"] < indep["io_time"]
    assert indep["exchange_bytes"] == 0
    assert tp["exchange_bytes"] <= P * K * BLOCK


def test_two_phase_write_beats_independent_5x():
    indep = run_write("strided-holey", INDEPENDENT)
    tp = run_write("strided-holey", {"cb_nodes": 2})
    ratio = indep["requests"] / tp["requests"]
    assert ratio >= 5.0, f"only {ratio:.1f}x fewer requests"
    assert tp["io_time"] < indep["io_time"]


def test_dense_pattern_collapses_to_one_run():
    """Where the union of all ranks is one contiguous run, a single
    aggregator reads it in one request per stripe it spans; no rank's
    interleaved blocks reach the PFS one by one."""
    indep = run_read("interleaved-dense", INDEPENDENT)
    tp = run_read("interleaved-dense", {"cb_nodes": 1})
    assert indep["requests"] == P * K
    assert tp["requests"] == -(-P * K * BLOCK // STRIPE)


if __name__ == "__main__":
    table, doc = run_experiment()
    table.show()
    out = pathlib.Path(__file__).resolve().parent.parent \
        / "BENCH_two_phase.json"
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"\nwrote {out}")
