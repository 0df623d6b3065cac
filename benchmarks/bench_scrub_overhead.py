#!/usr/bin/env python
"""Checksum overhead: plain vs CRC32-verified reads, plus scrub cost.

The fault-tolerance layer stores a CRC32 per chunk in the meta-data and
verifies it on every pool fault-in and streamed read.  This benchmark
quantifies what that costs on real files: cold full-array reads with and
without checksums (the verified path should stay within a few percent —
zlib's CRC32 runs at multiple GB/s, far faster than storage), the same
for writes (which record rather than verify), and the wall-clock price
of a full ``scrub()`` pass.
"""

from __future__ import annotations

import pathlib
import tempfile

import numpy as np

from repro.bench import Table, wallclock
from repro.drx import DRXFile

ARRAY = (256, 256)               # doubles: 512 KiB on disk
CACHE_PAGES = 8
CHUNKS = [(8, 8), (16, 16), (32, 32)]


def _make(path: pathlib.Path, chunk, checksums: bool,
          data: np.ndarray) -> DRXFile:
    a = DRXFile.create(path, ARRAY, chunk, overwrite=True,
                       cache_pages=CACHE_PAGES, checksums=checksums)
    a.write((0, 0), data)
    a.flush()
    return a


def measure_read(path: pathlib.Path, chunk, checksums: bool,
                 data: np.ndarray, repeat: int = 5) -> float:
    """Best-of-``repeat`` cold full-array read, in seconds."""
    a = _make(path, chunk, checksums, data)

    def once():
        a._pool.invalidate()          # cold cache (pages are clean)
        return a.read()

    secs, out = wallclock(once, repeat)
    assert np.allclose(out, data)
    if checksums:
        assert a._store.guard.failures == 0
    a.close()
    return secs


def measure_write(path: pathlib.Path, chunk, checksums: bool,
                  data: np.ndarray, repeat: int = 5) -> float:
    """Best-of-``repeat`` full-array write+flush, in seconds."""

    def once():
        a = DRXFile.create(path, ARRAY, chunk, overwrite=True,
                           cache_pages=CACHE_PAGES, checksums=checksums)
        a.write((0, 0), data)
        a.flush()
        a.close()

    secs, _ = wallclock(once, repeat)
    return secs


def measure_scrub(path: pathlib.Path, chunk, data: np.ndarray,
                  repeat: int = 5) -> float:
    """Best-of-``repeat`` full scrub of a checksummed array."""
    a = _make(path, chunk, True, data)

    def once():
        report = a.scrub()
        assert report.ok and report.checked == a.num_chunks
        return report

    secs, _ = wallclock(once, repeat)
    a.close()
    return secs


def _mb_s(nbytes: int, secs: float) -> str:
    return f"{nbytes / secs / 1e6:.0f} MB/s" if secs > 0 else "-"


def run_experiment(workdir: pathlib.Path) -> list[Table]:
    rng = np.random.default_rng(11)
    data = rng.random(ARRAY)
    nbytes = ARRAY[0] * ARRAY[1] * 8
    tab = Table(
        f"CRC32 checksum overhead on a {ARRAY[0]}x{ARRAY[1]} double "
        f"array (pool {CACHE_PAGES} pages)",
        ["chunk", "read/plain", "read/crc", "read overhead",
         "write/plain", "write/crc", "scrub", "scrub thru"],
    )
    for chunk in CHUNKS:
        rp = measure_read(workdir / "rp", chunk, False, data)
        rc = measure_read(workdir / "rc", chunk, True, data)
        wp = measure_write(workdir / "wp", chunk, False, data)
        wc = measure_write(workdir / "wc", chunk, True, data)
        sc = measure_scrub(workdir / "sc", chunk, data)
        tab.add(f"{chunk[0]}x{chunk[1]}",
                _mb_s(nbytes, rp), _mb_s(nbytes, rc),
                f"{(rc / rp - 1) * 100:+.1f}%",
                _mb_s(nbytes, wp), _mb_s(nbytes, wc),
                f"{sc * 1e3:.2f} ms", _mb_s(nbytes, sc))
    tab.note("read overhead = extra wall-clock of the verified cold "
             "read; scrub = one full verification pass in coalesced "
             "batches")
    return [tab]


# ----------------------------------------------------------------------
# tier-1 assertions
# ----------------------------------------------------------------------
def test_checksummed_read_overhead_is_bounded(tmp_path, rng):
    """The target is ~5%; the assertion allows 50% so shared-CI noise
    cannot flake it, while still catching accidental O(n) blowups."""
    data = rng.random(ARRAY)
    plain = measure_read(tmp_path / "p", (16, 16), False, data, repeat=3)
    crc = measure_read(tmp_path / "c", (16, 16), True, data, repeat=3)
    assert crc <= plain * 1.5, (plain, crc)


def test_scrub_visits_every_chunk_in_batches(tmp_path, rng):
    data = rng.random(ARRAY)
    a = _make(tmp_path / "s", (16, 16), True, data)
    a._data.stats.reset()
    report = a.scrub(batch_chunks=64)
    assert report.ok
    assert report.checked == a.num_chunks == 256
    # 256 chunks in 64-chunk batches -> 4 vectored calls, not 256 reads
    assert a._data.stats.readv_calls == 4
    assert a._data.stats.bytes_read == 256 * 256 * 8
    a.close()


def test_scrub_overhead_benchmark(benchmark, tmp_path, rng):
    data = rng.random(ARRAY)
    a = _make(tmp_path / "b", (16, 16), True, data)
    benchmark(a.scrub)
    a.close()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as td:
        for table in run_experiment(pathlib.Path(td)):
            table.show()
