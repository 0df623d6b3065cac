"""The shared bounded I/O executor.

The paper's servers work in parallel only inside the simulator's cost
model, which charges each call the slowest server's time; the PFS runs
its per-server batches on the caller's thread (see
:mod:`repro.pfs.pfile`), and the Mpool pages on its caller's thread too
(see :mod:`repro.drx.mpool`).  A hop to another thread pays only when
the work it schedules costs more than the hop: here, CPU that releases
the GIL.  :class:`IOExecutor` is that bounded thread pool, with

* ``submit`` / ``gather`` primitives used by the one wired layer, the
  :class:`~repro.drx.chunkstore.ChunkStore` codec fan-out, and
* per-executor stats: in-flight high-water mark, summed task time, and
  the time callers spent blocked waiting on results.

Configuration is one environment variable::

    DRX_EXECUTOR_THREADS=0   # serial: no executor; the codec work runs
                             # on the calling thread
    DRX_EXECUTOR_THREADS=4   # the default: up to 4 concurrent tasks

One executor *tier* is wired, a process-wide singleton:

``"codec"``
    Pure-CPU leaf tier.  Chunk (de)compression split across threads by
    a compressed array's :class:`~repro.drx.chunkstore.ChunkStore` —
    ``zlib`` releases the GIL.  For a streamed read window its tasks
    also finish the chunks: they verify CRCs, decode and copy straight
    into the caller's box.  A plain array has no codec work and never
    uses this tier.  Codec tasks take no Mpool lock, do no store I/O and
    never submit further work, so a caller holding the pool lock (a
    batched fault) may wait on ``codec`` results without closing a
    cycle.

There is no tier above it: the serve daemon (:mod:`repro.serve.server`)
runs an admitted request's handler on the connection thread that
dispatched it, which calls down through the pool into ``codec`` work;
nothing below ever waits on a connection thread, so the wait graph is
acyclic.  :func:`default_executor` builds a pool for any tier name it is
asked for; only ``codec`` is wired.

Determinism contract: the wired call site has no serial twin.  The
one decision lives in :meth:`IOExecutor.submit`: while a fault plan is
armed (:func:`repro.core.faultsites.any_active`) it runs the task on the
caller's thread at once and returns a settled future, so the code that
ships is the code the fault suites exercise, and seeded fault schedules
and chaos kill sites still fire in exactly the order they were scripted
for.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from . import faultsites
from .errors import CrashError

__all__ = [
    "IOExecutor",
    "ExecutorStats",
    "DEFAULT_THREADS",
    "THREADS_ENV",
    "configured_threads",
    "default_executor",
    "gather",
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
    inflight_hw: int = 0      #: high-water mark of concurrently pending tasks
    #: summed task execution time (seconds of work performed)
    busy_time: float = 0.0
    #: time callers spent blocked in :meth:`IOExecutor.result` / ``gather``
    wait_time: float = 0.0

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

    # ------------------------------------------------------------------
    def submit(self, fn: Callable, /, *args, **kwargs) -> Future:
        """Schedule ``fn(*args, **kwargs)``; return its future.

        While a fault plan is armed the task runs here, on the caller's
        thread, and the future comes back settled: fault schedules are
        op-count ordered, and this keeps every fan-out in submission
        order.  A :class:`~repro.core.errors.CrashError` is process
        death, so it propagates from ``submit`` and no later task of the
        fan-out runs; any other exception lands in the future, as on the
        pool.
        """
        with self._lock:
            self.stats.submitted += 1
            self._inflight += 1
            self.stats.inflight_hw = max(self.stats.inflight_hw,
                                         self._inflight)

        def run():
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                with self._lock:
                    self.stats.busy_time += time.perf_counter() - t0

        def done(f: Future) -> None:
            with self._lock:
                self._inflight -= 1
                if f.cancelled() or f.exception() is not None:
                    self.stats.failed += 1
                else:
                    self.stats.completed += 1

        if faultsites.any_active():
            fut = Future()
            fut.add_done_callback(done)
            _settle(fut, run)
            return fut
        fut = self._pool.submit(run)
        fut.add_done_callback(done)
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
        """Module :func:`gather`, charging the wait to
        ``stats.wait_time``."""
        t0 = time.perf_counter()
        try:
            return gather(futures, return_exceptions)
        finally:
            with self._lock:
                self.stats.wait_time += time.perf_counter() - t0

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool."""
        self._pool.shutdown(wait=wait)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"IOExecutor(name={self.name!r}, threads={self.threads}, "
                f"inflight={self._inflight})")


# ---------------------------------------------------------------------------
# the caller's-thread schedule (armed faults)
# ---------------------------------------------------------------------------

def _settle(fut: Future, fn: Callable) -> None:
    """Run ``fn()`` now and settle ``fut`` with its outcome.  A
    :class:`~repro.core.errors.CrashError` settles ``fut`` and then
    propagates."""
    try:
        fut.set_result(fn())
    except CrashError as exc:
        fut.set_exception(exc)
        raise
    except Exception as exc:  # noqa: BLE001 - transported verbatim
        fut.set_exception(exc)


def gather(futures: Sequence[Future],
           return_exceptions: bool = False) -> list:
    """Wait for every future, returning results in submission order.

    With ``return_exceptions`` the raised exception object takes the
    failed slot; otherwise the first failure (in order) is re-raised
    after every future has settled, so no task is abandoned mid-air.
    """
    out: list = []
    first_error: BaseException | None = None
    for fut in futures:
        try:
            out.append(fut.result())
        except Exception as exc:  # noqa: BLE001 - transported verbatim
            if return_exceptions:
                out.append(exc)
            else:
                first_error = first_error or exc
                out.append(None)
    if first_error is not None:
        raise first_error
    return out


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


def default_executor(tier: str = "codec") -> IOExecutor | None:
    """The process-wide executor for ``tier`` (``None`` = serial).

    Created lazily on first use from :func:`configured_threads`; cached
    until :func:`reset_default_executors`.
    """
    with _default_lock:
        if tier not in _defaults:
            n = configured_threads()
            _defaults[tier] = IOExecutor(n, name=tier) if n > 0 else None
        return _defaults[tier]


def reset_default_executors() -> None:
    """Drop the cached per-tier defaults (tests re-reading the env)."""
    with _default_lock:
        stale = list(_defaults.values())
        _defaults.clear()
    for ex in stale:
        if ex is not None:
            ex.shutdown(wait=False)
