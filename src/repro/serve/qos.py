"""Per-tenant quality-of-service accounting for the serve daemon.

Every request carries a ``client`` identity; the daemon keeps one
:class:`ClientQoS` record per identity plus server-wide aggregates.
The counters answer the operator questions the multi-tenant setting
raises: *who* is loading the shared substrate, who is being throttled
by admission control, who is missing deadlines, and how long requests
sit queued before an in-flight slot frees up.

Counter conservation is a hard invariant the soak test asserts::

    requests == ok + errors + retry_later + deadline_misses

i.e. every data-plane request received is counted exactly once as an
arrival (when admitted, or when refused) and exactly once by outcome.  A ``batch`` frame is *not* a
request of its own: each operation it carries is one arrival with one
outcome (the frame itself only bumps the ``batches`` counter, which
sits outside the law).  A *replayed* retry answered from
the dedup table is still one arrival with one outcome (``ok``) — it
additionally bumps ``dedup_hits``, so the conservation law holds under
retries and reconnects while the operator can still see how many
acknowledgements were served from cache instead of re-applied.  All
mutation goes through a per-record lock — bare ``+=`` from many
connection threads would drop counts — and a request takes it twice:
:meth:`ClientQoS.enter` counts the arrival once it holds an in-flight
slot, :meth:`ClientQoS.exit` its outcome (a request refused at
admission is one :meth:`ClientQoS.refuse`).  The daemon counts a keyed
request's outcome *before* its result is published to the dedup
table, so a retry answered from that cache can never be observed
ahead of the original's outcome.

Snapshots are plain JSON-able dicts — the ``stats`` protocol verb and
``drx-serve --dump-stats`` both export them verbatim.
"""

from __future__ import annotations

import threading

__all__ = ["ClientQoS", "QoSRegistry"]

_COUNTERS = ("requests", "ok", "errors", "retry_later", "deadline_misses",
             "retries", "dedup_hits", "bytes_read", "bytes_written",
             "batches")


class ClientQoS:
    """Cumulative counters for one client identity (thread-safe)."""

    __slots__ = _COUNTERS + ("queue_wait", "inflight_hw",
                             "_inflight", "_lock")

    def __init__(self) -> None:
        for name in _COUNTERS:
            setattr(self, name, 0)
        self.queue_wait = 0.0      #: summed seconds waiting for admission
        self.inflight_hw = 0       #: high-water mark of own in-flight
        self._inflight = 0
        self._lock = threading.Lock()

    def count_batch(self) -> None:
        """One batch frame (outside the conservation law: each of its
        operations is counted as a request of its own)."""
        with self._lock:
            self.batches += 1

    def enter(self, retry: bool, queue_wait: float) -> None:
        """One admitted request: its arrival, whether it is a retry,
        its admission wait, and one more in flight."""
        with self._lock:
            self.requests += 1
            self.retries += retry
            self.queue_wait += queue_wait
            self._inflight += 1
            if self._inflight > self.inflight_hw:
                self.inflight_hw = self._inflight

    def exit(self, outcome: str, bytes_read: int = 0,
             bytes_written: int = 0, dedup_hit: bool = False) -> None:
        """An admitted request's outcome (``ok``, ``errors`` or
        ``deadline_misses``); one fewer in flight."""
        with self._lock:
            setattr(self, outcome, getattr(self, outcome) + 1)
            self.bytes_read += bytes_read
            self.bytes_written += bytes_written
            self.dedup_hits += dedup_hit
            self._inflight -= 1

    def refuse(self, outcome: str, retry: bool,
               queue_wait: float = 0.0) -> None:
        """A request turned away at admission: arrival and outcome
        (``retry_later`` or ``deadline_misses``) at once."""
        with self._lock:
            self.requests += 1
            self.retries += retry
            self.queue_wait += queue_wait
            setattr(self, outcome, getattr(self, outcome) + 1)

    def snapshot(self) -> dict:
        with self._lock:
            snap = {name: getattr(self, name) for name in _COUNTERS}
            snap["queue_wait"] = self.queue_wait
            snap["inflight_hw"] = self.inflight_hw
        return snap


class QoSRegistry:
    """Thread-safe registry of per-client and aggregate QoS counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._clients: dict[str, ClientQoS] = {}
        #: server-wide admission-queue depth high-water mark
        self.queue_depth_hw = 0
        #: server-wide in-flight high-water mark
        self.inflight_hw = 0

    def client(self, name: str) -> ClientQoS:
        # a known client is one dict read; records are never removed,
        # so only a first sighting needs the lock
        qos = self._clients.get(name)
        if qos is None:
            with self._lock:
                qos = self._clients.setdefault(name, ClientQoS())
        return qos

    def note_queue_depth(self, depth: int) -> None:
        with self._lock:
            if depth > self.queue_depth_hw:
                self.queue_depth_hw = depth

    def note_inflight(self, inflight: int) -> None:
        with self._lock:
            if inflight > self.inflight_hw:
                self.inflight_hw = inflight

    def snapshot(self) -> dict:
        """JSON-able per-client + aggregate counters."""
        with self._lock:
            records = sorted(self._clients.items())
            queue_depth_hw = self.queue_depth_hw
            inflight_hw = self.inflight_hw
        clients = {name: qos.snapshot() for name, qos in records}
        totals = {name: 0 for name in _COUNTERS}
        for snap in clients.values():
            for name in totals:
                totals[name] += snap[name]
        return {
            "clients": clients,
            "totals": totals,
            "queue_depth_hw": queue_depth_hw,
            "inflight_hw": inflight_hw,
        }
