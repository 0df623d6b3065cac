"""Shared deadline machinery: one monitor thread, many timed scopes.

This module grew out of the ``DRX_MPI_TIMEOUT`` deadlock watchdog of
:mod:`repro.mpi.runner`, generalized so the serve daemon
(:mod:`repro.serve`) can drive per-request deadlines through the *same*
timer implementation instead of a second one.  Three pieces:

* :class:`Deadline` — an absolute expiry instant on the monotonic
  clock.  ``check()`` raises :class:`~repro.core.errors.DeadlineError`
  once the instant passes; ``remaining()`` feeds socket timeouts and
  condition waits.

* :class:`CancelScope` — a cancellable deadline.  Long-running work
  calls ``scope.check()`` at its checkpoints (lock waits, store
  operations, simulated computation); anyone holding the scope may
  ``cancel()`` it asynchronously, which makes the next checkpoint
  raise.  This is how a daemon request is cancelled *mid-flight* when
  its deadline fires: the watchdog callback cancels the scope, and the
  worker thread aborts at its next checkpoint instead of running to
  completion on a request nobody is waiting for.

* :class:`Watchdog` — a single daemon thread firing callbacks at
  scheduled instants.  The MPI runner schedules one entry per
  ``mpiexec`` world (callback: snapshot the blocked collectives, abort
  the world); the serve daemon schedules one entry per admitted request
  (callback: cancel the request's scope).  Entries are O(log n) to
  schedule and cancel; a fired or cancelled entry costs nothing.

All times are ``time.monotonic()`` — wall-clock jumps must not fire (or
starve) a watchdog.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass
from typing import Callable

from .errors import DeadlineError

__all__ = [
    "Deadline",
    "CancelScope",
    "Watchdog",
    "WatchdogStats",
    "default_watchdog",
    "reset_default_watchdog",
]


class Deadline:
    """An absolute expiry instant (``None`` seconds = never expires)."""

    __slots__ = ("expires_at",)

    def __init__(self, seconds: float | None = None, *,
                 at: float | None = None) -> None:
        if at is not None:
            self.expires_at: float | None = float(at)
        elif seconds is None:
            self.expires_at = None
        else:
            self.expires_at = time.monotonic() + float(seconds)

    def remaining(self) -> float | None:
        """Seconds left (clamped at 0.0), or ``None`` for no deadline."""
        if self.expires_at is None:
            return None
        return max(0.0, self.expires_at - time.monotonic())

    @property
    def expired(self) -> bool:
        return (self.expires_at is not None
                and time.monotonic() >= self.expires_at)

    def check(self, what: str = "operation") -> None:
        """Raise :class:`DeadlineError` if the instant has passed."""
        if self.expired:
            raise DeadlineError(f"deadline exceeded during {what}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rem = self.remaining()
        return f"Deadline(remaining={'inf' if rem is None else f'{rem:.3f}'})"


class CancelScope:
    """A deadline that can additionally be cancelled from outside.

    Work that honours the scope calls :meth:`check` at every checkpoint
    — before a store operation, inside a lock wait, between slices of
    simulated computation.  The first failing condition wins: an
    explicit :meth:`cancel` (its reason is reported) or the deadline.
    """

    def __init__(self, deadline: Deadline | None = None) -> None:
        self.deadline = deadline if deadline is not None else Deadline()
        #: set by :meth:`cancel`; work polls it at its checkpoints and
        #: nothing waits on it, so a plain attribute suffices
        self.cancelled = False
        self.reason: str | None = None

    def cancel(self, reason: str = "cancelled") -> None:
        """Make every subsequent :meth:`check` raise (idempotent; the
        first reason sticks)."""
        if self.reason is None:
            self.reason = reason
        self.cancelled = True

    @property
    def expired(self) -> bool:
        return self.cancelled or self.deadline.expired

    def remaining(self) -> float | None:
        return None if self.deadline.expires_at is None \
            else self.deadline.remaining()

    def check(self, what: str = "operation") -> None:
        if self.cancelled:
            raise DeadlineError(f"{self.reason or 'cancelled'} during {what}")
        self.deadline.check(what)


@dataclass
class WatchdogStats:
    """Lifetime counters of one :class:`Watchdog` (tests assert reuse)."""

    scheduled: int = 0     #: entries accepted
    fired: int = 0         #: callbacks actually invoked
    cancelled: int = 0     #: entries cancelled before firing
    callback_errors: int = 0   #: callbacks that raised (swallowed)


class Watchdog:
    """One monitor thread firing callbacks at scheduled monotonic times.

    The thread starts lazily on the first :meth:`schedule` and sleeps
    exactly until the earliest pending entry, so an idle watchdog costs
    nothing.  Callbacks run on the watchdog thread and must be brief
    and non-blocking (cancel a scope, snapshot state, signal an event);
    exceptions they raise are swallowed into
    :attr:`WatchdogStats.callback_errors` — a watchdog that dies takes
    every deadline in the process with it.
    """

    def __init__(self, name: str = "drx-watchdog") -> None:
        self.name = name
        self.stats = WatchdogStats()
        self._cond = threading.Condition()
        #: heap of (fire_at, handle); cancelled handles stay until due
        self._heap: list[tuple[float, int]] = []
        self._callbacks: dict[int, Callable[[], None]] = {}
        self._next_handle = 0
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> int:
        """Fire ``callback`` ``delay`` seconds from now; returns a
        handle for :meth:`cancel`."""
        fire_at = time.monotonic() + max(0.0, float(delay))
        with self._cond:
            handle = self._next_handle
            self._next_handle += 1
            heapq.heappush(self._heap, (fire_at, handle))
            self._callbacks[handle] = callback
            self.stats.scheduled += 1
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._run, name=self.name, daemon=True)
                self._thread.start()
            self._cond.notify()
        return handle

    def cancel(self, handle: int) -> None:
        """Prevent a scheduled entry from firing (idempotent; a handle
        that already fired is simply gone)."""
        with self._cond:
            if self._callbacks.pop(handle, None) is not None:
                self.stats.cancelled += 1
                self._cond.notify()

    def pending(self) -> int:
        """Entries scheduled but not yet fired or cancelled."""
        with self._cond:
            return len(self._callbacks)

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cond:
                if not self._heap:
                    # idle: park until new work arrives (bounded so a
                    # missed notify cannot wedge the thread forever)
                    self._cond.wait(60.0)
                    continue
                fire_at, handle = self._heap[0]
                if handle not in self._callbacks:
                    heapq.heappop(self._heap)          # cancelled
                    continue
                wait = fire_at - time.monotonic()
                if wait > 0:
                    self._cond.wait(wait)
                    continue
                heapq.heappop(self._heap)
                callback = self._callbacks.pop(handle)
                self.stats.fired += 1
            try:
                callback()
            except Exception:   # noqa: BLE001 - watchdog must survive
                self.stats.callback_errors += 1


# ---------------------------------------------------------------------------
# process-wide default (shared by the MPI runner and the serve daemon)
# ---------------------------------------------------------------------------

_default_lock = threading.Lock()
_default: Watchdog | None = None


def default_watchdog() -> Watchdog:
    """The process-wide watchdog every timed subsystem shares."""
    global _default
    with _default_lock:
        if _default is None:
            _default = Watchdog()
        return _default


def reset_default_watchdog() -> None:
    """Forget the shared instance (tests asserting fresh counters)."""
    global _default
    with _default_lock:
        _default = None
