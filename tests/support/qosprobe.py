"""QoS snapshots taken the instant a keyed result is published.

:func:`snapshots_at_fulfill` makes one array of a running
:class:`~repro.serve.DRXServer` record ``server.qos.snapshot()`` right
after each ``DedupTable.fulfill`` of that array returns.  From that
instant a retry of the same key can be answered from the dedup table,
so a client may read the daemon's counters; the snapshot shows what it
would see.  The counter-conservation law must already hold there: a
request's outcome is counted before its result becomes visible.
"""

from __future__ import annotations

__all__ = ["snapshots_at_fulfill"]


def snapshots_at_fulfill(server, name: str) -> list[dict]:
    """Record a QoS snapshot after every dedup-table ``fulfill`` of
    ``server``'s array ``name`` (opening it if need be); returns the
    list the snapshots are appended to."""
    table = server._entry(name).dedup
    fulfill = table.fulfill
    taken: list[dict] = []

    def spied(key, result):
        fulfill(key, result)
        taken.append(server.qos.snapshot())

    table.fulfill = spied
    return taken
