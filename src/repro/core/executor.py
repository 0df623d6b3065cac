"""The shared bounded I/O executor.

The paper's premise is that the k-dimensional zones of a DRX array move
through the parallel file system *concurrently*.  The simulator charges
the analytic cost model's max-of-servers time, but until this module the
actual Python execution was strictly serial: every per-server batch, every
coalesced run, every write-back ran one after another on the calling
thread.  :class:`IOExecutor` supplies the missing real concurrency — a
bounded thread pool with

* ``submit`` / ``gather`` primitives used by the three wired layers
  (:class:`~repro.pfs.pfile.PFSFile` per-server dispatch,
  :class:`~repro.drx.mpool.Mpool` read-ahead and write-behind,
  :class:`~repro.drx.drxfile.DRXFile` double-buffered streaming),
* *keyed* in-flight futures so two requests for the same extent share one
  physical transfer instead of issuing it twice, and
* per-executor stats: in-flight high-water mark, busy vs. active wall
  time (their ratio is the achieved overlap), and the time callers spent
  blocked waiting on results.

Configuration is one environment variable::

    DRX_EXECUTOR_THREADS=0   # serial: every wired path takes the exact
                             # historical code path, bit- and
                             # stats-identical to the pre-executor tree
    DRX_EXECUTOR_THREADS=4   # the default: up to 4 concurrent transfers

Three executor *tiers* exist, each a process-wide singleton:

``"pfs"``
    Leaf tier.  Per-server request batches dispatched by
    :class:`~repro.pfs.pfile.PFSFile`.  Tasks here touch only
    :class:`~repro.pfs.server.IOServer` locks and never wait on another
    executor — the tier that may be waited on while holding file locks.
    The collective-I/O engine (:mod:`repro.mpi.collective`) rides this
    tier for free: aggregator ranks issue their phase-B windows through
    ``PFSFile.readv``/``writev``/``sieve_writev``, whose per-server
    fan-out is what this tier parallelizes.
``"drx"``
    Background tier.  Mpool read-ahead / write-behind and DRX streaming
    pipelines.  Tasks here are plain store calls; they may *block on*
    file locks and dispatch into the ``pfs`` tier, but nothing in the
    ``pfs`` tier ever waits for a ``drx`` slot, so the wait graph is
    acyclic and saturation cannot deadlock.
``"codec"``
    Pure-CPU leaf tier.  Batched chunk (de)compression offloaded by
    :class:`~repro.drx.storage.CompressedByteStore` — ``zlib`` releases
    the GIL, so codec time overlaps server I/O.  Codec tasks never
    submit further work, so ``drx``-tier tasks may wait on ``codec``
    results without closing a cycle.

There is no tier above these three: the serve daemon
(:mod:`repro.serve.server`) runs an admitted request's handler on the
connection thread that dispatched it, which calls down into
``drx``-tier work (which calls ``pfs``/``codec``); nothing below ever
waits on a connection thread, so the ordering ``drx → {pfs, codec}``
keeps the wait graph acyclic.

Determinism contract: every wired call site checks
:func:`repro.core.faultsites.any_active` (and, where applicable, the
store's ``deterministic_only`` flag) and falls back to the serial path
while a fault plan is armed, so seeded fault schedules and chaos kill
sites fire in exactly the order they were scripted for.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

__all__ = [
    "IOExecutor",
    "ExecutorStats",
    "DEFAULT_THREADS",
    "THREADS_ENV",
    "configured_threads",
    "default_executor",
    "resolve_executor",
    "reset_default_executors",
]

#: Environment variable selecting the pool width (0 = serial).
THREADS_ENV = "DRX_EXECUTOR_THREADS"
#: Pool width when the environment does not say otherwise.
DEFAULT_THREADS = 4
#: Hard cap — more threads than this buys nothing for an I/O pool.
MAX_THREADS = 16


@dataclass
class ExecutorStats:
    """Cumulative counters for one :class:`IOExecutor`."""

    submitted: int = 0        #: tasks handed to the pool
    completed: int = 0        #: tasks that finished cleanly
    failed: int = 0           #: tasks that raised
    dedup_hits: int = 0       #: submits served by an in-flight keyed future
    inflight_hw: int = 0      #: high-water mark of concurrently pending tasks
    #: summed task execution time (seconds of work performed)
    busy_time: float = 0.0
    #: wall time during which >= 1 task was running
    active_time: float = 0.0
    #: time callers spent blocked in :meth:`IOExecutor.result` / ``gather``
    wait_time: float = 0.0

    @property
    def overlap_ratio(self) -> float:
        """Achieved concurrency: summed task time over active wall time.

        1.0 means the pool ran tasks back to back (no overlap — what a
        serial loop would achieve); ``n`` means on average ``n`` tasks
        were genuinely in flight together.
        """
        return self.busy_time / self.active_time if self.active_time else 0.0

    def snapshot(self) -> "ExecutorStats":
        return replace(self)


class IOExecutor:
    """A bounded thread pool specialized for overlapping I/O requests."""

    def __init__(self, threads: int, name: str = "io") -> None:
        if threads < 1:
            raise ValueError(f"IOExecutor needs >= 1 thread, got {threads}")
        self.threads = min(int(threads), MAX_THREADS)
        self.name = name
        self.stats = ExecutorStats()
        self._pool = ThreadPoolExecutor(
            max_workers=self.threads, thread_name_prefix=f"drx-{name}")
        self._lock = threading.Lock()
        self._inflight = 0
        self._running = 0
        self._active_since = 0.0
        #: key -> in-flight future (dedup of identical extents)
        self._keyed: dict[object, Future] = {}

    # ------------------------------------------------------------------
    def submit(self, fn: Callable, /, *args, key: object = None,
               **kwargs) -> Future:
        """Schedule ``fn(*args, **kwargs)``; return its future.

        With ``key`` set, an in-flight future previously submitted under
        the same key is returned instead of issuing the work twice — the
        dedup that lets a demand read adopt a read-ahead already on the
        wire.  The key is released when the future completes.
        """
        with self._lock:
            if key is not None:
                prior = self._keyed.get(key)
                if prior is not None and not prior.done():
                    self.stats.dedup_hits += 1
                    return prior
            self.stats.submitted += 1
            self._inflight += 1
            self.stats.inflight_hw = max(self.stats.inflight_hw,
                                         self._inflight)

        def run():
            t0 = time.perf_counter()
            with self._lock:
                self._running += 1
                if self._running == 1:
                    self._active_since = t0
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                with self._lock:
                    self.stats.busy_time += t1 - t0
                    self._running -= 1
                    if self._running == 0:
                        self.stats.active_time += t1 - self._active_since

        fut = self._pool.submit(run)

        def done(f: Future, key=key) -> None:
            with self._lock:
                self._inflight -= 1
                if f.cancelled() or f.exception() is not None:
                    self.stats.failed += 1
                else:
                    self.stats.completed += 1
                if key is not None and self._keyed.get(key) is f:
                    del self._keyed[key]

        fut.add_done_callback(done)
        if key is not None:
            with self._lock:
                if not fut.done():
                    self._keyed[key] = fut
        return fut

    def result(self, fut: Future):
        """Block on one future, charging the wait to ``stats.wait_time``."""
        t0 = time.perf_counter()
        try:
            return fut.result()
        finally:
            with self._lock:
                self.stats.wait_time += time.perf_counter() - t0

    def gather(self, futures: Sequence[Future],
               return_exceptions: bool = False) -> list:
        """Wait for every future, returning results in submission order.

        With ``return_exceptions`` the raised exception object takes the
        failed slot; otherwise the first failure (in order) is re-raised
        after every future has settled, so no task is abandoned mid-air.
        """
        out: list = []
        first_error: BaseException | None = None
        t0 = time.perf_counter()
        for fut in futures:
            try:
                out.append(fut.result())
            except Exception as exc:  # noqa: BLE001 - transported verbatim
                if return_exceptions:
                    out.append(exc)
                elif first_error is None:
                    first_error = exc
                    out.append(None)
                else:
                    out.append(None)
        with self._lock:
            self.stats.wait_time += time.perf_counter() - t0
        if first_error is not None:
            raise first_error
        return out

    def map(self, fn: Callable, items: Iterable) -> list:
        """``gather([submit(fn, it) for it in items])``."""
        return self.gather([self.submit(fn, it) for it in items])

    def shutdown(self, wait: bool = True,
                 cancel_futures: bool = False) -> None:
        """Stop the pool.  ``cancel_futures`` drops queued-but-unstarted
        tasks — the serve daemon's abrupt-kill path, where work that
        never started must not run against abandoned files."""
        self._pool.shutdown(wait=wait, cancel_futures=cancel_futures)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"IOExecutor(name={self.name!r}, threads={self.threads}, "
                f"inflight={self._inflight})")


# ---------------------------------------------------------------------------
# process-wide defaults (one executor per tier, sized by the environment)
# ---------------------------------------------------------------------------

_default_lock = threading.Lock()
_defaults: dict[str, IOExecutor | None] = {}


def configured_threads() -> int:
    """The pool width requested via ``DRX_EXECUTOR_THREADS``.

    Unset → :data:`DEFAULT_THREADS`; unparsable values fall back to the
    default too (a mistyped variable must not silently serialize the
    stack); negative values clamp to 0 (serial).
    """
    raw = os.environ.get(THREADS_ENV)
    if raw is None or raw.strip() == "":
        return DEFAULT_THREADS
    try:
        n = int(raw)
    except ValueError:
        return DEFAULT_THREADS
    return max(0, min(n, MAX_THREADS))


def default_executor(tier: str = "drx") -> IOExecutor | None:
    """The process-wide executor for ``tier`` (``None`` = serial).

    Created lazily on first use from :func:`configured_threads`; cached
    until :func:`reset_default_executors`.
    """
    with _default_lock:
        if tier not in _defaults:
            n = configured_threads()
            _defaults[tier] = IOExecutor(n, name=tier) if n > 0 else None
        return _defaults[tier]


def resolve_executor(executor: "IOExecutor | None | str" = "auto",
                     tier: str = "drx") -> IOExecutor | None:
    """Normalize an ``executor`` constructor argument.

    ``"auto"`` resolves to the tier's environment-configured default,
    ``None`` forces the serial path, and an :class:`IOExecutor` instance
    is used as-is.
    """
    if executor == "auto":
        return default_executor(tier)
    return executor  # type: ignore[return-value]


def reset_default_executors() -> None:
    """Drop the cached per-tier defaults (tests re-reading the env)."""
    with _default_lock:
        stale = list(_defaults.values())
        _defaults.clear()
    for ex in stale:
        if ex is not None:
            ex.shutdown(wait=False)
