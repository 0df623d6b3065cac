"""The six stationary workloads of the end-to-end benchmark.

Every workload is a seeded, fixed sequence of operations — a *round* —
issued through the public entry points only (``DRXFile``,
``DRXMPFile`` + ``mpiexec``, ``ParallelFileSystem``, ``DRXServer``,
``DRXClient`` / ``Pipeline``) with default constructor arguments, no
``_delay`` and no fault plan.  Round *k* does exactly the work of round
1: large arrays are prefilled once in set-up and overwritten in place,
and anything that extends operates on a small array created fresh
inside the round.  Every byte read is compared with an in-memory
oracle outside the timed region.

Why each workload exists is recorded in ``BENCHMARK.json`` and
``README.md``; this module only says what each one does.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

from repro.core.executor import default_executor
from repro.core.scatter import SCATTER_STATS
from repro.drx import DRXFile
from repro.drxmp import DRXMDMemHdl, DRXMPFile
from repro.mpi.runner import mpiexec
from repro.pfs.filesystem import ParallelFileSystem
from repro.serve.client import DRXClient, Pipeline
from repro.serve.server import DRXServer

_now = time.perf_counter

CHUNK = (64, 64)
#: one 4 KiB request: 16 x 32 float64
SMALL_BOX = (16, 32)
FAILED = object()


#: phase of the field every array is filled with.  The data are the
#: same for every seed (the seed draws the positions of the operations),
#: so compressed sizes do not move with the seed.
PHASE = 0.7


def field(lo, shape, phase: float = PHASE) -> np.ndarray:
    """The smooth field, rounded to 3 decimals, on one box."""
    i = np.arange(lo[0], lo[0] + shape[0], dtype=np.float64)
    j = np.arange(lo[1], lo[1] + shape[1], dtype=np.float64)
    return np.round(100.0 * np.sin(i / 97.0 + phase)[:, None]
                    * np.cos(j / 131.0)[None, :], 3)


def box_of(lo, shape):
    return tuple(slice(l, l + s) for l, s in zip(lo, shape))


def _series() -> defaultdict:
    """Timing series by kind: packed doubles, 8 bytes a sample, so that
    the log of a 25 s run stays small against ``peak_rss_mib``."""
    return defaultdict(lambda: array("d"))


def tree_bytes(root: pathlib.Path) -> int:
    """Apparent size of every file under ``root``."""
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class Recorder:
    """Per-run operation log: latencies, bytes, failures.

    ``busy_s`` sums the timed intervals, which never overlap: one
    interval per synchronous operation, one per pipelined phase;
    ``intervals`` keeps them one by one.  Every round issues the same
    operations in the same order, so the n-th entry a round adds to a
    series is the same operation in every round: ``end_round`` marks
    where each round ends, and the runner compares an operation with
    its own repetitions.
    """

    def __init__(self, tracer=None, aside: bool = True) -> None:
        self.tracer = tracer
        #: takes the probes and the final read-back: their failures
        #: count, their operations do not enter the round's metrics
        self.aside = Recorder(aside=False) if aside else None
        self.samples = _series()
        self.sync_bytes: dict[str, int] = {}
        self.rates = _series()                     # bytes/s of each sync op
        self.intervals = _series()
        #: per finished round, the length of every series at its end
        self.marks: list[dict[str, dict[str, int]]] = []
        self.pipe_bytes = 0
        self.pipe_write_bytes = 0
        self.pipe_wall = 0.0
        self.busy_s = 0.0
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._lock = threading.Lock()

    def fail(self, what: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(what)

    def timed(self, kind: str, nbytes: int, fn, *args, **kwargs):
        """Run one synchronous operation; returns its result or
        :data:`FAILED`."""
        self.attempted += 1
        tracer = self.tracer
        t0 = _now()
        try:
            if tracer is None:
                out = fn(*args, **kwargs)
            else:
                # one bucket per kind of operation, so that the table
                # can say what a read or a write costs in each layer,
                # not only what the average operation does
                tracer.bucket = "sync." + kind
                try:
                    out = tracer.op(fn, *args, **kwargs)
                finally:
                    tracer.bucket = "sync"
        except Exception as exc:  # noqa: BLE001 - a failed op is a result
            self.busy_s += _now() - t0
            self.fail(f"{kind}: {exc!r}")
            return FAILED
        dt = _now() - t0
        self.busy_s += dt
        self.ops += 1
        self.samples[kind].append(dt)
        self.intervals[kind].append(dt)
        if nbytes:
            self.sync_bytes[kind] = self.sync_bytes.get(kind, 0) + nbytes
            self.rates[kind].append(nbytes / dt)
        return out

    def end_round(self) -> None:
        self.marks.append({
            table: {kind: len(v) for kind, v in getattr(self, table).items()}
            for table in ("samples", "rates", "intervals")})

    def expect(self, got, want: np.ndarray, what: str) -> None:
        """Compare one read with the oracle (outside the timed region)."""
        if got is FAILED:
            return
        got = np.asarray(got)
        if got.shape != want.shape or not np.array_equal(got, want):
            self.fail(f"{what}: bytes differ from the oracle")

    def absorb(self, other: "Recorder") -> None:
        """Carry the failure counts of operations that are not part of
        the measured rounds."""
        for r in (other, other.aside):
            if r is not None:
                self.attempted += r.attempted
                self.failed += r.failed
                self.errors.extend(r.errors[:10 - len(self.errors)])


def process_counters() -> dict:
    """Cumulative counters of process-wide singletons."""
    busy = 0.0
    for tier in ("drx", "codec", "pfs"):
        ex = default_executor(tier)
        if ex is not None:
            busy += ex.stats.busy_time
    return {"executor_busy_s": busy,
            "scatter_dense": SCATTER_STATS.dense_ops,
            "scatter_fallback": SCATTER_STATS.fallback_ops}


class Workload:
    """Interface the runner drives.  ``round`` returns the round's own
    counters (from public stats accessors) as a flat dict."""

    name = ""
    #: one thread does all the work of an operation while every other
    #: waits for it.  Interference can then only add time, and the best
    #: repetition of an operation is its undisturbed cost.  Where
    #: threads share the work, the fastest repetition is a lucky
    #: interleaving, and the runner takes the median instead.
    serial = False
    #: round counters that depend on thread timing (several requests in
    #: flight), exempt from the repeat-exactly check
    timing_counters: tuple = ()

    def setup(self, root: pathlib.Path):
        raise NotImplementedError

    def round(self, st, rec: Recorder, k: int) -> dict:
        raise NotImplementedError

    def stored(self, st) -> tuple[int, int]:
        """``(bytes on disk, logical array bytes)``."""
        raise NotImplementedError

    def probe(self, st, rec: Recorder, k: int) -> float:
        """After round ``k``, outside its timed region: lose the handle,
        reopen, first verified read.  Returns the seconds it took.  One
        sample per round spreads ``recover_s`` over the whole run."""
        raise NotImplementedError

    def verify(self, st, rec: Recorder) -> None:
        """At the end: read every array back against the oracle."""
        raise NotImplementedError

    def teardown(self, st) -> None:
        raise NotImplementedError


# ----------------------------------------------------------------------
# direct_hot / direct_scan / direct_scan_zlib
# ----------------------------------------------------------------------

class _DirectState:
    def __init__(self, root, f, mirror) -> None:
        self.root = root
        self.f = f
        self.mirror = mirror
        self.side_logical = 0


class Direct(Workload):
    """``DRXFile`` on a POSIX directory."""

    SIDE_EXTENDS = 32
    GETS = 20
    #: ``direct_hot`` flushes after every 1000 boxes.  Three thousand a
    #: round keep the fsync-bound part of the round (flushes, extends,
    #: the side array's meta-data) to an eighth of its time, so that
    #: ``ops_per_s`` follows the interpreter and not the host's disk.
    FLUSH_EVERY = 1000

    def __init__(self, name: str, seed: int, scan: bool,
                 codec: str = "none", checksums: bool = False) -> None:
        self.name = name
        self.scan = scan
        self.codec = codec
        self.checksums = checksums
        # the scans fan chunk I/O and codec work out to executor threads
        self.serial = not scan
        rng = np.random.default_rng(seed)
        self.side_pool = np.round(
            rng.uniform(-100, 100, (self.SIDE_EXTENDS, *SMALL_BOX)), 3)
        if scan:
            self.shape = (2048, 4096)
            self.box = (512, 1024)                  # 4 MiB
            ops = []
            reads = 0
            for n in range(16):
                lo = (int(rng.integers(1, 2048 - 512)) | 1,
                      int(rng.integers(1, 4096 - 1024)) | 1)
                if n % 4 == 3:
                    ops.append(("write", lo, None))
                else:
                    reads += 1
                    ops.append(("read", lo, "F" if reads % 5 == 0 else "C"))
            self.ops = ops
            self.slabs = [(int(rng.integers(0, 2048 - 512)),
                           int(rng.integers(0, 4096 - 1024)))
                          for _ in range(4)]
        else:
            self.shape = (1024, 1024)
            self.box = SMALL_BOX
            n = 3 * self.FLUSH_EVERY
            is_write = rng.random(n) < 0.3
            ii = rng.integers(0, 448 - SMALL_BOX[0], n)
            jj = rng.integers(0, 448 - SMALL_BOX[1], n)
            self.ops = [("write" if w else "read", (int(i), int(j)), "C")
                        for w, i, j in zip(is_write, ii, jj)]
            self.pool = np.round(rng.uniform(-100, 100, (32, *SMALL_BOX)), 3)
            self.slabs = []
        # the null operation: single elements of one chunk, so that all
        # but the first are pool hits whatever the rest of the round did
        self.gets = [(int(rng.integers(0, CHUNK[0])),
                      int(rng.integers(0, CHUNK[1])))
                     for _ in range(self.GETS)]

    # -- life cycle ----------------------------------------------------
    def _create(self, path, bounds):
        return DRXFile.create(path, bounds, CHUNK, overwrite=True,
                              codec=self.codec, checksums=self.checksums)

    def setup(self, root):
        root.mkdir(parents=True)
        f = self._create(root / "main", self.shape)
        mirror = np.empty(self.shape)
        band = 256
        for r in range(0, self.shape[0], band):
            vals = field((r, 0), (band, self.shape[1]))
            f.write((r, 0), vals)
            mirror[r:r + band] = vals
        f.flush()
        return _DirectState(root, f, mirror)

    def teardown(self, st) -> None:
        st.f.close()
        shutil.rmtree(st.root, ignore_errors=True)

    def stored(self, st):
        logical = int(np.prod(self.shape)) * 8 + st.side_logical
        return tree_bytes(st.root), logical

    # -- one round -----------------------------------------------------
    def round(self, st, rec, k):
        f, mirror, par = st.f, st.mirror, float(k & 1)
        pool0 = f.cache_stats
        before = (pool0.hits, pool0.misses, pool0.evictions)
        codec0 = f.codec_stats.snapshot() if f.codec_stats else None
        nbytes = int(np.prod(self.box)) * 8
        for n, (kind, lo, order) in enumerate(self.ops):
            sel = box_of(lo, self.box)
            if kind == "write":
                if self.scan:
                    vals = field(lo, self.box) + (1.0 + par)
                else:
                    vals = self.pool[n % len(self.pool)] + par
                if rec.timed("write", nbytes, f.write, lo, vals) \
                        is not FAILED:
                    mirror[sel] = vals
            else:
                hi = (lo[0] + self.box[0], lo[1] + self.box[1])
                got = rec.timed("read", nbytes, f.read, lo, hi, order)
                rec.expect(got, mirror[sel], f"read {lo}")
            if not self.scan and n % self.FLUSH_EVERY == self.FLUSH_EVERY - 1 \
                    and n + 1 < len(self.ops):
                rec.timed("flush", 0, f.flush)
        for start in self.slabs:
            got = rec.timed("read", 256 * 256 * 8, f.read_slab,
                            start, (2, 4), (256, 256))
            want = mirror[start[0]:start[0] + 512:2,
                          start[1]:start[1] + 1024:4]
            rec.expect(got, want, f"read_slab {start}")
        for idx in self.gets:
            got = rec.timed("ping", 0, f.get, idx)
            rec.expect(got, mirror[idx], f"get {idx}")
        rec.timed("flush", 0, f.flush)
        self._side_round(st, rec, par)
        # pool counters of the main array only: the side array's pool
        # is new every round and always hits
        pool1 = f.cache_stats
        out = {"mpool_hits": pool1.hits - before[0],
               "mpool_misses": pool1.misses - before[1],
               "mpool_evictions": pool1.evictions - before[2]}
        if codec0 is not None:
            c1 = f.codec_stats
            out["codec_raw_bytes"] = c1.raw_bytes - codec0.raw_bytes
            out["codec_stored_bytes"] = c1.stored_bytes - codec0.stored_bytes
        return out

    def _side_round(self, st, rec, par):
        """A fresh (256,256) array taking 32 extends in alternating
        dimensions, each followed by a write into the new segment and a
        read across the old/new seam: F*() with a growing history."""
        f = rec.timed("side", 0, self._create, st.root / "side", (256, 256))
        if f is FAILED:
            return
        grow = 64
        final = 256 + grow * self.SIDE_EXTENDS // 2
        mirror = np.zeros((final, final))
        shape = [256, 256]
        nb = SMALL_BOX[0] * SMALL_BOX[1] * 8
        try:
            for e in range(self.SIDE_EXTENDS):
                dim = e & 1
                old = shape[dim]
                if rec.timed("extend", 0, f.extend, dim, grow) is FAILED:
                    break
                shape[dim] += grow
                lo = [8, 8]
                lo[dim] = old + 8
                vals = self.side_pool[e] + par
                if rec.timed("side", nb, f.write, lo, vals) is not FAILED:
                    mirror[box_of(lo, SMALL_BOX)] = vals
                lo = [8, 8]
                lo[dim] = old - 8
                hi = [lo[0] + SMALL_BOX[0], lo[1] + SMALL_BOX[1]]
                got = rec.timed("side", nb, f.read, lo, hi)
                rec.expect(got, mirror[box_of(lo, SMALL_BOX)],
                           f"seam read after extend {e}")
        finally:
            rec.timed("side", 0, f.close)
        st.side_logical = shape[0] * shape[1] * 8

    # -- reopen --------------------------------------------------------
    def probe(self, st, rec, k):
        """The round ended with ``flush()``, so what is on disk is the
        oracle's state: open a second handle, read, compare."""
        lo = (0, 0)
        hi = (min(512, self.shape[0]), min(1024, self.shape[1]))
        t0 = _now()
        f = DRXFile.open(st.root / "main", "r")
        try:
            got = rec.timed("verify", 0, f.read, lo, hi)
            dt = _now() - t0
        finally:
            f.close()
        rec.expect(got, st.mirror[:hi[0], :hi[1]], "read after reopen")
        return dt

    def verify(self, st, rec):
        st.f.close()
        st.f = f = DRXFile.open(st.root / "main", "r+")
        band = 256
        for r in range(0, self.shape[0], band):
            got = rec.timed("verify", 0, f.read, (r, 0),
                            (r + band, self.shape[1]))
            rec.expect(got, st.mirror[r:r + band], f"read-back rows {r}")


# ----------------------------------------------------------------------
# mp_zone
# ----------------------------------------------------------------------

class _MPState:
    def __init__(self, fs) -> None:
        self.fs = fs
        self.stored = (0, 1)
        self.counters: dict = {}


class MPZone(Workload):
    """``mpiexec(2, ...)`` SPMD ranks over an in-memory
    ``ParallelFileSystem(nservers=4, stripe_size=64 KiB)``."""

    NPROCS = 2
    SHAPE = (1024, 2048)
    EXTENDS = 4
    PINGS = 12

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        # the operations are fixed; the seed picks the data
        self.offset = float(np.random.default_rng(seed).integers(0, 1000))

    def _spmd(self, body, *args):
        """Run ``body`` on the thread ranks, each pinned to its own
        core as MPI ranks usually are.  Unpinned, the kernel sometimes
        stacks both ranks on one core, where a barrier costs a quarter
        of what it costs across cores, and the run reads bimodal."""
        cpus = sorted(os.sched_getaffinity(0))

        def pinned(comm, *a):
            os.sched_setaffinity(threading.get_native_id(),
                                 {cpus[comm.rank % len(cpus)]})
            return body(comm, *a)
        return mpiexec(self.NPROCS, pinned, *args, timeout=170.0)

    def setup(self, root):
        st = _MPState(ParallelFileSystem(nservers=4, stripe_size=64 * 1024))
        self._spmd(self._create_base, st)
        return st

    def _create_base(self, comm, st):
        f = DRXMPFile.create(comm, st.fs, "base", self.SHAPE, CHUNK)
        zone = f.my_zone()
        lo, hi = zone.element_box(CHUNK, f.shape)
        vals = field(lo, (hi[0] - lo[0], hi[1] - lo[1])) + self.offset
        f.write_zone(DRXMDMemHdl(array=vals, zone=zone, origin=lo))
        f.close()

    def teardown(self, st) -> None:
        for name in st.fs.listdir():
            st.fs.delete(name)

    def stored(self, st):
        return st.stored

    def round(self, st, rec, k):
        try:
            self._spmd(self._round_body, st, rec, k)
        except Exception as exc:  # noqa: BLE001 - a failed round is a result
            rec.attempted += 1
            rec.fail(f"mp_zone round: {exc!r}")
            for name in st.fs.listdir():
                if name.startswith("zone"):
                    st.fs.delete(name)
        return dict(st.counters)

    def _collective(self, comm, rec):
        """An op is one collective call timed barrier-to-barrier on
        rank 0; the other ranks run it untimed."""
        tracer = rec.tracer

        def call(kind, nbytes, fn, *args, **kwargs):
            def both():
                out = fn(*args, **kwargs)
                comm.barrier()
                return out
            comm.barrier()
            if comm.rank == 0:
                out = rec.timed(kind, nbytes, both)
                if out is FAILED:
                    raise RuntimeError(f"collective {kind} failed on rank 0")
                return out
            return both() if tracer is None else tracer.peer(both)
        return call

    def _round_body(self, comm, st, rec, k):
        fs, par = st.fs, float(k & 1)
        call = self._collective(comm, rec)
        rank0 = comm.rank == 0
        if rank0:
            io0 = fs.total_stats().snapshot()
            coll0 = fs.stats_summary()["collective"]
        total = int(np.prod(self.SHAPE)) * 8

        def want(lo, hi, bump):
            """Oracle: the field where written, zero where extended."""
            out = np.zeros((hi[0] - lo[0], hi[1] - lo[1]))
            cols = min(hi[1], self.SHAPE[1]) - lo[1]
            if cols > 0:
                out[:, :cols] = field(lo, (hi[0] - lo[0], cols)) \
                    + (self.offset + par + bump)
            return out

        def check(mem, what, bump):
            lo = mem.origin
            hi = (lo[0] + mem.array.shape[0], lo[1] + mem.array.shape[1])
            rec.expect(mem.array, want(lo, hi, bump),
                       f"rank {comm.rank} {what}")

        f = call("side", 0, DRXMPFile.create, comm, fs, "zone",
                 self.SHAPE, CHUNK)
        part = f.partition()
        zone = f.my_zone(part)
        lo, hi = zone.element_box(CHUNK, f.shape)
        def write(kind, bump):
            call(kind, total, f.write_zone, DRXMDMemHdl(
                array=want(lo, hi, bump), zone=zone, origin=lo))

        def read(bump, what, partition=part, order="C", nbytes=total):
            check(call("read", nbytes, f.read_zone, partition, order),
                  what, bump)

        # The first write fills a sparse file and costs more than an
        # overwrite, so it is kept out of the ``write`` class; plain C
        # reads are the majority of the ``read`` class.  Either p50
        # then sits inside one kind of operation, not between two.
        write("side", 0.0)
        read(0.0, "read_zone C")
        read(0.0, "read_zone F", order="F")
        write("write", 2.0)
        read(2.0, "read_zone C")
        # column split: each rank's zone is half of every chunk row, so
        # its file extents interleave with the other rank's
        read(2.0, "read_zone column split",
             partition=f.partition("block", pgrid=(1, self.NPROCS)))
        write("write", 4.0)
        read(4.0, "read_zone C")
        read(4.0, "read_zone C")
        for _ in range(self.EXTENDS):
            call("extend", 0, f.extend, 1, CHUNK[1])
        grown = int(np.prod(f.shape)) * 8
        read(4.0, "read_zone after extend", partition=f.partition(),
             nbytes=grown)
        for _ in range(self.PINGS):
            comm.barrier()
            if rank0:
                rec.timed("ping", 0, comm.barrier)
            else:
                comm.barrier()
        if rank0:
            io1 = fs.total_stats()
            coll = fs.stats_summary()["collective"]
            st.counters = {
                "pfs_requests": io1.requests - io0.requests,
                "pfs_seeks": io1.seeks - io0.seeks,
                "pfs_bytes_moved": io1.bytes_moved - io0.bytes_moved,
                "pfs_sim_busy_s": io1.busy_time - io0.busy_time,
                **{"mpi_" + key: coll[key] - coll0[key]
                   for key in ("exchange_bytes", "requests_before",
                               "requests_after")},
            }
            st.stored = (sum(fs.open(n).size for n in fs.listdir()),
                         grown + total)
        call("side", 0, f.close)
        if rank0:
            fs.delete("zone.xmd")
            fs.delete("zone.xta")
        comm.barrier()

    def probe(self, st, rec, k):
        out: list[float] = []
        try:
            self._spmd(self._reopen_body, st, rec, out)
        except Exception as exc:  # noqa: BLE001
            rec.attempted += 1
            rec.fail(f"mp_zone reopen: {exc!r}")
        return out[0] if out else float("nan")

    def _reopen_body(self, comm, st, rec, out):
        comm.barrier()
        t0 = _now()
        f = DRXMPFile.open(comm, st.fs, "base", "r")
        if comm.rank == 0:
            mem = rec.timed("verify", 0, f.read_zone)
        else:
            mem = f.read_zone()
        comm.barrier()
        if comm.rank == 0:
            out.append(_now() - t0)
        if mem is not FAILED:
            rec.expect(mem.array,
                       field(mem.origin, mem.array.shape) + self.offset,
                       f"rank {comm.rank} read_zone after reopen")
        f.close()

    def verify(self, st, rec):
        pass        # every probe read the whole base array back


# ----------------------------------------------------------------------
# serve_small / serve_stream
# ----------------------------------------------------------------------

class _ServeState:
    def __init__(self, root) -> None:
        self.root = root
        self.server = None
        self.client = None
        self.pipe = None
        self.name = "main"          # the array the round reads and writes
        self.mirror = None          # its oracle
        self.stored = (0, 1)


class Serve(Workload):
    """One in-process ``DRXServer(root=<dir>)`` with defaults (journal
    on, ``journal_window=0``), one ``DRXClient`` and, for
    ``serve_stream``, one ``Pipeline(depth=4)``.

    The daemon has no verb that drops an array, so the fresh per-round
    arrays would leak one open array (handles, pool, journal) per round.
    The daemon is therefore replaced between rounds, outside the timed
    region, and that replacement is the recovery probe: a fixed tail of
    acknowledged but unflushed writes, ``kill()``, a new daemon on the
    same root, ``recover_all()``, first verified read.  The client and
    the pipeline live for the whole run; their resolver finds the new
    daemon, as a long-lived caller's would.
    """

    EXTENDS = 16
    SMALL_WRITES = 30       # 4 KiB each
    SMALL_READS = 20        # the first 20 writes are read back
    PINGS = 200
    PIPE_DEPTH = 4          # = the daemon's max_inflight_per_client
    PIPE_BOX = (128, 256)   # 256 KiB
    BAND = (1024, 2048)     # 16 MiB
    MAIN = (2048, 2048)
    SMALL = (512, 512)
    SIDE = (256, 256)
    TAIL = 4                # unflushed writes before each kill

    def __init__(self, name: str, seed: int, stream: bool) -> None:
        self.name = name
        self.stream = stream
        # the synchronous client waits while one daemon thread works;
        # the pipeline keeps four requests in flight
        self.serial = not stream
        rng = np.random.default_rng(seed)
        if stream:
            # group commit batches whichever syncs happen to coincide
            self.timing_counters = ("journal_syncs", "journal_batched")
            # 64 disjoint, chunk-unaligned 256 KiB boxes: any execution
            # order leaves one oracle
            cells = rng.permutation(15 * 7)[:64]
            self.pipe_ops = [("write" if n % 4 == 3 else "read",
                              (17 + int(c // 7) * 128, 33 + int(c % 7) * 256))
                             for n, c in enumerate(cells)]
            self.band_rows = [int(r) for r in rng.integers(0, 1024, 3)]
        else:
            n = self.SMALL_WRITES
            self.small_ops = [(int(rng.integers(0, 512 - SMALL_BOX[0])),
                               int(rng.integers(0, 512 - SMALL_BOX[1])))
                              for _ in range(n)]
            self.pool = np.round(rng.uniform(-100, 100, (n, *SMALL_BOX)), 3)

    # -- life cycle ----------------------------------------------------
    def setup(self, root):
        root.mkdir(parents=True)
        st = _ServeState(root)
        st.server = DRXServer(root=str(root)).start()
        st.client = c = DRXClient(st.server.address, client_id="bench",
                                  resolver=lambda: st.server.address)
        st.pipe = Pipeline(c, depth=self.PIPE_DEPTH)
        shape = self.MAIN if self.stream else self.SMALL
        c.create("main", shape, CHUNK)
        st.mirror = np.empty(shape)
        rows = 256 if self.stream else 128
        for r in range(0, shape[0], rows):
            vals = field((r, 0), (rows, shape[1]))
            c.write("main", (r, 0), vals)
            st.mirror[r:r + rows] = vals
        c.flush("main")
        return st

    def teardown(self, st) -> None:
        if st.server is not None:
            st.server.shutdown(drain=True)
        st.client.close()
        st.pipe.close(drain=False)
        shutil.rmtree(st.root, ignore_errors=True)

    def stored(self, st):
        return st.stored

    # -- one round -----------------------------------------------------
    def round(self, st, rec, k):
        c = st.client
        retries0 = c.retries
        par = float(k & 1)
        if self.stream:
            self._stream_round(st, rec, par)
            extend_on, grown = "side", self.SIDE[0]
        else:
            self._small_round(st, rec, par, k)
            extend_on, grown = st.name, self.SMALL[0]
        for e in range(self.EXTENDS):
            rec.timed("extend", 0, c.extend, extend_on, e & 1, CHUNK[0])
        for _ in range(self.PINGS):
            rec.timed("ping", 0, c.ping)
        grown += CHUNK[0] * self.EXTENDS // 2
        # on disk: this round's grown array plus, for serve_stream, the
        # main array; for serve_small, the previous round's array, which
        # stays until the daemon is next down
        logical = grown * grown * 8
        logical += int(np.prod(self.MAIN)) * 8 if self.stream else logical
        st.stored = (tree_bytes(st.root), logical)
        rec.timed("flush", 0, c.flush, st.name)
        out = self._counters(st)
        out["serve_client_retries"] = c.retries - retries0
        return out

    def _small_round(self, st, rec, par, k) -> None:
        """A fresh (512,512) array (the name alternates, the stale one
        is deleted while the daemon is down), 4 KiB writes, read-backs."""
        c = st.client
        st.name = f"small{k & 1}"
        rec.timed("side", 0, c.create, st.name, self.SMALL, CHUNK)
        st.mirror = mirror = np.zeros(self.SMALL)
        nb = SMALL_BOX[0] * SMALL_BOX[1] * 8
        for n, lo in enumerate(self.small_ops):
            vals = self.pool[n] + par
            if rec.timed("write", nb, c.write, st.name, lo, vals) \
                    is not FAILED:
                mirror[box_of(lo, SMALL_BOX)] = vals
            if n < self.SMALL_READS:
                hi = (lo[0] + SMALL_BOX[0], lo[1] + SMALL_BOX[1])
                got = rec.timed("read", nb, c.read, st.name, lo, hi)
                rec.expect(got, mirror[box_of(lo, SMALL_BOX)], f"read {lo}")

    def _stream_round(self, st, rec, par) -> None:
        c, mirror, pipe = st.client, st.mirror, st.pipe
        tracer = rec.tracer
        run = (lambda fn, *a: fn(*a)) if tracer is None else tracer.op
        # -- pipelined phase: depth 4, results collected in order ------
        nb = self.PIPE_BOX[0] * self.PIPE_BOX[1] * 8
        written = []
        pending = []
        got = []
        if tracer is not None:
            tracer.bucket = "pipe"
        t_phase = _now()
        try:
            for kind, lo in self.pipe_ops:
                rec.attempted += 1
                t0 = _now()
                try:
                    if kind == "write":
                        vals = field(lo, self.PIPE_BOX) + (1.0 + par)
                        written.append((lo, vals))
                        reply = run(pipe.write, "main", lo, vals)
                    else:
                        hi = (lo[0] + self.PIPE_BOX[0],
                              lo[1] + self.PIPE_BOX[1])
                        reply = run(pipe.read, "main", lo, hi)
                except Exception as exc:  # noqa: BLE001
                    rec.fail(f"pipelined {kind} submit: {exc!r}")
                    continue
                pending.append((kind, lo, t0, reply))
            for kind, lo, t0, reply in pending:
                try:
                    out = run(reply.result)
                except Exception as exc:  # noqa: BLE001
                    rec.fail(f"pipelined {kind}: {exc!r}")
                    continue
                rec.samples[kind].append(_now() - t0)
                rec.ops += 1
                rec.pipe_bytes += nb
                if kind == "write":
                    rec.pipe_write_bytes += nb
                else:
                    got.append((lo, out))
        finally:
            wall = _now() - t_phase
            rec.busy_s += wall
            rec.pipe_wall += wall
            rec.intervals["pipe"].append(wall)
            if tracer is not None:
                tracer.bucket = "sync"
        # reads and writes of one phase touch disjoint boxes, so every
        # read sees the state before the phase
        for lo, out in got:
            rec.expect(out, mirror[box_of(lo, self.PIPE_BOX)],
                       f"pipelined read {lo}")
        for lo, vals in written:
            mirror[box_of(lo, self.PIPE_BOX)] = vals
        # -- synchronous 16 MiB bands ----------------------------------
        nb = self.BAND[0] * self.BAND[1] * 8
        for r in self.band_rows[:2]:
            got = rec.timed("read", nb, c.read, "main", (r, 0),
                            (r + self.BAND[0], self.BAND[1]))
            rec.expect(got, mirror[r:r + self.BAND[0]], f"band read {r}")
        r = self.band_rows[2]
        vals = field((r, 0), self.BAND) + (2.0 + par)
        if rec.timed("write", nb, c.write, "main", (r, 0), vals) \
                is not FAILED:
            mirror[r:r + self.BAND[0]] = vals
        # -- a fresh small array for the extends -----------------------
        rec.timed("side", 0, c.create, "side", self.SIDE, CHUNK)

    def _counters(self, st) -> dict:
        snap = st.server.stats_snapshot()
        qos = snap["qos"]["totals"]
        out = {"serve_retry_later": qos.get("retry_later", 0),
               "serve_server_retries": qos.get("retries", 0),
               "serve_dedup_hits": qos.get("dedup_hits", 0),
               "journal_syncs": 0, "journal_sync_requests": 0,
               "journal_batched": 0, "journal_bytes": 0}
        for info in snap["journal"].values():
            js = info["stats"]
            out["journal_syncs"] += js["syncs"]
            out["journal_sync_requests"] += js["sync_requests"]
            out["journal_batched"] += js["batched_syncs"]
            out["journal_bytes"] += js["bytes_appended"]
        return out

    # -- durability ----------------------------------------------------
    def probe(self, st, rec, k):
        """Acknowledged, unflushed writes; kill; new daemon;
        ``recover_all``; first verified read; every tail write read
        back.  While the daemon is down, the arrays the next round
        creates afresh are deleted."""
        c, name, mirror = st.client, st.name, st.mirror
        par = float(k & 1) + 3.0
        acked = []
        for n in range(self.TAIL):
            if self.stream:
                lo = self.pipe_ops[n][1]
                vals = field(lo, self.PIPE_BOX) + par
            else:
                lo = self.small_ops[n]
                vals = self.pool[n] + par
            if rec.timed("tail", vals.nbytes, c.write, name, lo, vals) \
                    is not FAILED:
                mirror[box_of(lo, vals.shape)] = vals
                acked.append((lo, vals.shape))
        t0 = _now()
        st.server.kill()
        c.close()                       # drop the dead connection
        stale = ["side"] if self.stream else \
            ["main", "small0", "small1"]
        for other in stale:
            if other != name:
                for path in st.root.glob(other + ".*"):
                    path.unlink()
        st.server = DRXServer(root=str(st.root))
        st.server.recover_all()
        st.server.start()
        lo, shape = acked[-1] if acked else ((0, 0), SMALL_BOX)
        hi = (lo[0] + shape[0], lo[1] + shape[1])
        got = rec.timed("verify", 0, c.read, name, lo, hi)
        dt = _now() - t0
        rec.expect(got, mirror[box_of(lo, shape)],
                   "first read after recovery")
        for lo, shape in acked[:-1]:
            hi = (lo[0] + shape[0], lo[1] + shape[1])
            got = rec.timed("verify", 0, c.read, name, lo, hi)
            rec.expect(got, mirror[box_of(lo, shape)],
                       f"acknowledged write {lo} after recovery")
        return dt

    def verify(self, st, rec):
        mirror = st.mirror
        band = 256
        for r in range(0, mirror.shape[0], band):
            got = rec.timed("verify", 0, st.client.read, st.name, (r, 0),
                            (r + band, mirror.shape[1]))
            rec.expect(got, mirror[r:r + band], f"read-back rows {r}")


NAMES = ("direct_hot", "direct_scan", "direct_scan_zlib", "mp_zone",
         "serve_small", "serve_stream")


def make(name: str, seed: int) -> Workload:
    if name == "direct_hot":
        return Direct(name, seed, scan=False)
    if name == "direct_scan":
        return Direct(name, seed, scan=True)
    if name == "direct_scan_zlib":
        return Direct(name, seed, scan=True, codec="zlib", checksums=True)
    if name == "mp_zone":
        return MPZone(name, seed)
    if name == "serve_small":
        return Serve(name, seed, stream=False)
    if name == "serve_stream":
        return Serve(name, seed, stream=True)
    raise KeyError(name)
