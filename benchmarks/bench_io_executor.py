#!/usr/bin/env python
"""Concurrent I/O executor: wall-clock speedup of overlapped transfers.

The simulator's analytic cost model always *charged* the max-of-servers
elapsed time, but execution used to be strictly serial Python.  This
benchmark makes the difference observable: it patches every
:class:`IOServer` of its file systems so that serving a batch really
sleeps for the cost model's per-server elapsed time, 1:1, while holding
the server's lock (the sleep releases the GIL — one server is one busy
disk; different servers can overlap).  Measured wall-clock time then
shows whether per-server batches actually ran concurrently.

Swept: executor width (0 = serial) x access pattern —

* ``contiguous readv``  — one extent spanning every server,
* ``strided readv``     — every other stripe (the acceptance pattern:
  many per-server batches, all independent),
* ``replicated writev`` — full-file fan-out to 2 copies,
* ``drx streamed read`` — a PFS-backed DRX array streamed past its
  pool in windows, one vectored call per window,
* ``mpool sequential``  — a sequential page scan with read-ahead.

Every threaded run is checked bit-identical to its serial baseline, and
the simulated ``io_time`` is asserted unchanged (the executor moves wall
clock, never the model).  Run as a script this writes
``BENCH_io_executor.json`` at the repo root.
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np

from repro.bench import Table, speedup
from repro.core.executor import IOExecutor
from repro.drx.chunkstore import ChunkStore
from repro.drx.drxfile import DRXFile
from repro.drx.mpool import Mpool
from repro.drx.storage import PFSByteStore
from repro.pfs import ParallelFileSystem

NSERVERS = 4
STRIPE = 64 * 1024
FILE_BYTES = 4 << 20            # 64 stripes, 16 per server
REALTIME = 1.0                  # wall seconds slept per simulated second
THREADS = (0, 2, 4)


def payload(n: int = FILE_BYTES, salt: int = 0) -> bytes:
    return bytes((i * 17 + salt) % 256 for i in range(n))


def realtime(server, batch):
    """``batch`` (a server's bound ``read_batch``/``write_batch``) that
    then sleeps out its simulated service time before it releases the
    server's lock: the one simulated disk stays busy for that long."""
    def serve(name, requests):
        with server._lock:
            out = batch(name, requests)
            time.sleep(REALTIME * (out[1] if isinstance(out, tuple)
                                   else out))
            return out
    return serve


def make_fs(executor, replication: int = 1) -> ParallelFileSystem:
    fs = ParallelFileSystem(nservers=NSERVERS, stripe_size=STRIPE,
                            replication=replication, executor=executor)
    for server in fs.servers:
        server.read_batch = realtime(server, server.read_batch)
        server.write_batch = realtime(server, server.write_batch)
    return fs


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


# ---------------------------------------------------------------------------
# patterns: each returns (wall_time, simulated_io_time, digest)
# ---------------------------------------------------------------------------

def pat_contiguous_readv(pfs_ex, drx_ex):
    fs = make_fs(pfs_ex)
    f = fs.create("bench")
    f.writev([(0, FILE_BYTES)], payload())
    f.io_time = 0.0
    wall, (data, _t) = timed(lambda: f.readv([(0, FILE_BYTES)]))
    return wall, f.io_time, data


def pat_strided_readv(pfs_ex, drx_ex):
    fs = make_fs(pfs_ex)
    f = fs.create("bench")
    f.writev([(0, FILE_BYTES)], payload())
    extents = [(off, STRIPE)
               for off in range(0, FILE_BYTES, 2 * STRIPE)]
    f.io_time = 0.0
    wall, (data, _t) = timed(lambda: f.readv(extents))
    return wall, f.io_time, data


def pat_replicated_writev(pfs_ex, drx_ex):
    fs = make_fs(pfs_ex, replication=2)
    f = fs.create("bench")
    blob = payload(salt=3)
    wall, _ = timed(lambda: f.writev([(0, FILE_BYTES)], blob))
    return wall, f.io_time, f.read(0, FILE_BYTES)


def pat_drx_streamed_read(pfs_ex, drx_ex):
    fs = make_fs(pfs_ex)
    a = DRXFile.create_pfs(fs, "arr", (512, 512), (64, 64),
                           cache_pages=8, executor=drx_ex)
    ref = np.arange(512 * 512, dtype=np.float64).reshape(512, 512)
    a.write((0, 0), ref)
    a.flush()
    wall, out = timed(lambda: a.read((0, 0), (512, 256)))
    assert np.array_equal(out, ref[:, :256])
    return wall, a._data.stats.bytes_read, out.tobytes()


def pat_mpool_sequential(pfs_ex, drx_ex):
    fs = make_fs(pfs_ex)
    f = fs.create("pool")
    f.writev([(0, FILE_BYTES)], payload(salt=9))
    store = PFSByteStore(f)
    pool = Mpool(ChunkStore(store, STRIPE), max_pages=16, executor=drx_ex,
                 readahead=8)

    def scan():
        out = bytearray()
        for p in range(FILE_BYTES // STRIPE):
            buf = pool.get(p)
            out += bytes(buf[:16])
            pool.put(p)
        pool.flush()
        return bytes(out)

    wall, digest = timed(scan)
    return wall, pool.stats.prefetch_hits, digest


PATTERNS = [
    ("contiguous readv", pat_contiguous_readv),
    ("strided readv", pat_strided_readv),
    ("replicated writev", pat_replicated_writev),
    ("drx streamed read", pat_drx_streamed_read),
    ("mpool sequential", pat_mpool_sequential),
]


def run_experiment() -> tuple[Table, dict]:
    table = Table(
        title="concurrent I/O executor (wall-clock, realtime servers)",
        headers=["pattern", "threads", "wall s", "vs serial"],
    )
    results = []
    for name, fn in PATTERNS:
        serial_wall = None
        serial_digest = None
        serial_sim = None
        for threads in THREADS:
            # one executor per tier, as in production (`"auto"` builds a
            # separate pfs- and drx-tier pool)
            pfs_ex = IOExecutor(threads, name="pfs") if threads else None
            drx_ex = IOExecutor(threads, name="drx") if threads else None
            try:
                wall, sim, digest = fn(pfs_ex, drx_ex)
            finally:
                for ex in (pfs_ex, drx_ex):
                    if ex is not None:
                        ex.shutdown()
            if threads == 0:
                serial_wall, serial_digest, serial_sim = wall, digest, sim
                rel = "1.00x"
            else:
                assert digest == serial_digest, \
                    f"{name}: threaded bytes differ from serial"
                if name in ("contiguous readv", "strided readv",
                            "replicated writev"):
                    assert sim == serial_sim, \
                        f"{name}: simulated io_time changed under threads"
                rel = speedup(serial_wall, wall)
            table.add(name, threads, wall, rel)
            results.append({
                "pattern": name,
                "threads": threads,
                "wall_time": wall,
                "speedup_vs_serial": (serial_wall / wall)
                if threads and wall > 0 else 1.0,
            })
    table.note("bytes bit-identical across all thread counts")
    table.note("simulated io_time unchanged (executor moves wall clock "
               "only)")
    doc = {
        "benchmark": "bench_io_executor",
        "config": {
            "nservers": NSERVERS,
            "stripe_size": STRIPE,
            "file_bytes": FILE_BYTES,
            "realtime_factor": REALTIME,
            "threads_swept": list(THREADS),
            "time_unit": "measured wall-clock seconds",
        },
        "results": results,
    }
    return table, doc


def test_strided_read_speeds_up():
    """Acceptance: >= 1.5x wall-clock at 4 threads for strided
    multi-server reads, bit-identical output."""
    wall_ser, _sim, digest_ser = pat_strided_readv(None, None)
    ex = IOExecutor(4)
    try:
        wall_par, _sim2, digest_par = pat_strided_readv(ex, None)
    finally:
        ex.shutdown()
    assert digest_par == digest_ser
    assert wall_ser / wall_par >= 1.5, \
        f"only {wall_ser / wall_par:.2f}x at 4 threads"


if __name__ == "__main__":
    table, doc = run_experiment()
    table.show()
    out = pathlib.Path(__file__).resolve().parent.parent \
        / "BENCH_io_executor.json"
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"\nwrote {out}")
