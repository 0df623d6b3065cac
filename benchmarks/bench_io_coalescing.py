#!/usr/bin/env python
"""Run coalescing: per-chunk vs vectored store traffic on real files.

Sweeps chunk sizes and zone shapes over a disk-resident array and
compares chunk-at-a-time access (one ``read``/``write`` per chunk box,
so one store call per chunk) against one request for the whole zone,
which the planner coalesces into runs: physical store calls, coalesced
runs, mean bytes per call, and wall-clock throughput for both reads and
writes.

``F*`` lays any rectilinear zone out as a few contiguous address runs,
so the engine moves whole runs with one positioned transfer each — a
full-array scan becomes a single vectored call — while chunk-wise
access pays one call per chunk.
"""

from __future__ import annotations

import pathlib
import tempfile

import numpy as np

from repro.bench import Table, wallclock
from repro.drx import DRXFile
from repro.workloads import chunk_boxes

ARRAY = (256, 256)               # doubles: 512 KiB on disk
CACHE_PAGES = 8
CHUNKS = [(8, 8), (16, 16), (32, 32)]
ZONES = [
    ("full scan", (0, 0), ARRAY),
    ("row band", (96, 0), (160, 256)),
    ("col band", (0, 96), (256, 160)),
    ("interior box", (50, 50), (200, 200)),
]


def _make(path: pathlib.Path, chunk, data: np.ndarray) -> DRXFile:
    a = DRXFile.create(path, ARRAY, chunk, overwrite=True,
                       cache_pages=CACHE_PAGES)
    a.write((0, 0), data)
    a.flush()
    return a


def _requests(chunk, chunkwise: bool, lo, hi):
    """The zone as one request, or cut into one request per chunk."""
    return list(chunk_boxes(lo, hi, chunk)) if chunkwise else [(lo, hi)]


def measure_read(path: pathlib.Path, chunk, chunkwise: bool,
                 data: np.ndarray, lo, hi, repeat: int = 5):
    """Best-of-``repeat`` cold read of ``[lo, hi)``; returns
    ``(seconds, StoreStats of the last run)``."""
    a = _make(path, chunk, data)
    boxes = _requests(chunk, chunkwise, lo, hi)

    def once():
        a._pool.invalidate()          # cold cache (pages are clean)
        a._data.stats.reset()
        out = np.empty((hi[0] - lo[0], hi[1] - lo[1]))
        for (r0, c0), (r1, c1) in boxes:
            out[r0 - lo[0]:r1 - lo[0], c0 - lo[1]:c1 - lo[1]] = \
                a.read((r0, c0), (r1, c1))
        return out

    secs, out = wallclock(once, repeat)
    assert np.allclose(out, data[lo[0]:hi[0], lo[1]:hi[1]])
    stats = a._data.stats.snapshot()
    a.close()
    return secs, stats


def measure_write(path: pathlib.Path, chunk, chunkwise: bool,
                  data: np.ndarray, repeat: int = 5):
    """Best-of-``repeat`` full-array write+flush; returns
    ``(seconds, StoreStats of the last run)``."""
    stats = None
    boxes = _requests(chunk, chunkwise, (0, 0), ARRAY)

    def once():
        nonlocal stats
        a = DRXFile.create(path, ARRAY, chunk, overwrite=True,
                           cache_pages=CACHE_PAGES)
        a._data.stats.reset()
        for (r0, c0), (r1, c1) in boxes:
            a.write((r0, c0), data[r0:r1, c0:c1])
        a.flush()
        stats = a._data.stats.snapshot()
        a.close()

    secs, _ = wallclock(once, repeat)
    return secs, stats


def _mb_s(nbytes: int, secs: float) -> str:
    return f"{nbytes / secs / 1e6:.0f} MB/s" if secs > 0 else "-"


def run_experiment(workdir: pathlib.Path) -> list[Table]:
    rng = np.random.default_rng(7)
    data = rng.random(ARRAY)
    read_tab = Table(
        f"Sub-array reads on a {ARRAY[0]}x{ARRAY[1]} double array "
        f"(pool {CACHE_PAGES} pages): per-chunk vs coalesced",
        ["chunk", "zone", "calls/chunk-wise", "calls/coalesced",
         "runs", "B/call", "thru/chunk-wise", "thru/coalesced"],
    )
    for chunk in CHUNKS:
        for zone, lo, hi in ZONES:
            nbytes = (hi[0] - lo[0]) * (hi[1] - lo[1]) * 8
            pt, ps = measure_read(workdir / "per", chunk, True,
                                  data, lo, hi)
            ct, cs = measure_read(workdir / "coa", chunk, False,
                                  data, lo, hi)
            read_tab.add(f"{chunk[0]}x{chunk[1]}", zone,
                         ps.syscalls, cs.syscalls, cs.coalesced_runs,
                         f"{cs.bytes_per_call:.0f}",
                         _mb_s(nbytes, pt), _mb_s(nbytes, ct))
    read_tab.note("calls = physical store transfers for one cold read; "
                  "runs = contiguous extents the coalesced plan moved "
                  "with vectored I/O")

    write_tab = Table(
        "Full-array write+flush: per-chunk vs coalesced",
        ["chunk", "calls/chunk-wise", "calls/coalesced",
         "thru/chunk-wise", "thru/coalesced"],
    )
    nbytes = ARRAY[0] * ARRAY[1] * 8
    for chunk in CHUNKS:
        pt, ps = measure_write(workdir / "per", chunk, True, data)
        ct, cs = measure_write(workdir / "coa", chunk, False, data)
        write_tab.add(f"{chunk[0]}x{chunk[1]}", ps.syscalls, cs.syscalls,
                      _mb_s(nbytes, pt), _mb_s(nbytes, ct))
    write_tab.note("chunk-wise writes fault + write back every chunk "
                   "through the pool; one request streams full chunks as "
                   "whole runs")
    return [read_tab, write_tab]


# ----------------------------------------------------------------------
# tier-1 assertions
# ----------------------------------------------------------------------
def test_full_scan_read_coalesces_4x(tmp_path, rng):
    data = rng.random(ARRAY)
    _, per = measure_read(tmp_path / "p", (16, 16), True, data,
                          (0, 0), ARRAY, repeat=1)
    _, coa = measure_read(tmp_path / "c", (16, 16), False, data,
                          (0, 0), ARRAY, repeat=1)
    # 256 chunks per-chunk vs one vectored run
    assert coa.syscalls * 4 <= per.syscalls
    assert coa.readv_calls == 1
    assert coa.coalesced_runs == 1
    assert coa.bytes_read == per.bytes_read == ARRAY[0] * ARRAY[1] * 8
    assert coa.bytes_per_call >= 4 * per.bytes_per_call


def test_full_array_write_coalesces_4x(tmp_path, rng):
    data = rng.random(ARRAY)
    _, per = measure_write(tmp_path / "p", (16, 16), True, data,
                           repeat=1)
    _, coa = measure_write(tmp_path / "c", (16, 16), False, data,
                           repeat=1)
    assert coa.syscalls * 4 <= per.syscalls
    assert coa.writev_calls >= 1


def test_every_zone_no_more_calls_than_per_chunk(tmp_path, rng):
    data = rng.random(ARRAY)
    for chunk in CHUNKS:
        for zone, lo, hi in ZONES:
            _, per = measure_read(tmp_path / "p", chunk, True, data,
                                  lo, hi, repeat=1)
            _, coa = measure_read(tmp_path / "c", chunk, False, data,
                                  lo, hi, repeat=1)
            assert coa.syscalls <= per.syscalls, (chunk, zone)


def test_read_benchmark(benchmark, tmp_path, rng):
    data = rng.random(ARRAY)
    a = _make(tmp_path / "b", (16, 16), data)

    def scan():
        a._pool.invalidate()
        return a.read()

    benchmark(scan)
    a.close()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as td:
        for table in run_experiment(pathlib.Path(td)):
            table.show()
