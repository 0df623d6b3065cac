"""Slow arrays: a pinned service time inside a daemon's requests.

:func:`slow_array` makes one array of a running
:class:`~repro.serve.DRXServer` slow.  Every ``DRXFile.read`` /
``DRXFile.write`` a request makes on it sleeps for a fixed time *after*
the real call.  The sleep therefore runs where the handler already
holds the request's admission slot, the shared array lock and the chunk
locks of its box.  That is how the daemon suites make lock overlap,
admission saturation, drain and mid-mutation deadlines observable, and
how ``benchmarks/bench_shard.py`` pins a shard's per-op service time.

The sleep is sliced and checks the request's
:func:`~repro.serve.server.current_scope` between slices, so a deadline
or a drain-time cancel lands mid-sleep; a cancelled write then rolls
back from its pre-image like any other.  Calls made outside a request
(journal replay on open, the rollback itself) run at full speed.  A
write request reads its box's pre-image first, so a read delay on an
array slows writes to it as well.
"""

from __future__ import annotations

import time

from repro.serve.server import current_scope

__all__ = ["slow_array"]

#: sleep slice: short enough that a cancel lands promptly
SLICE = 0.005


def slow_array(server, name: str, *, read: float = 0.0,
               write: float = 0.0) -> None:
    """Pin the service time of ``server``'s array ``name`` (opening it
    if need be): each request's read of it sleeps ``read`` seconds and
    each write ``write`` seconds.  A zero delay restores full speed."""
    file = server._entry(name).file
    for verb, delay in (("read", read), ("write", write)):
        file.__dict__.pop(verb, None)
        if delay > 0:
            setattr(file, verb, _slowed(getattr(file, verb), delay))


def _slowed(call, delay: float):
    def slowed(*args, **kwargs):
        out = call(*args, **kwargs)
        scope = current_scope()
        if scope is not None:
            end = time.monotonic() + delay
            while (left := end - time.monotonic()) > 0:
                scope.check("slow array")
                time.sleep(min(SLICE, left))
        return out
    return slowed
