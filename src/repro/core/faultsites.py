"""Named fault sites inside the storage stack (registry + dispatch).

A *fault site* is a named location in the storage code where the fault
machinery may intervene.  Production code calls :func:`crash_point` at
each such location; the call is a no-op unless a fault plan
(:class:`repro.drx.resilience.FaultPlan`) is *active*, in which case the
plan observes the site and may act.  Two families of sites exist:

* :data:`CRASH_SITES` — locations in a commit sequence (meta-data
  rewrite, header flip, pool flush) where a *process death* would leave
  the on-disk state in a specific intermediate shape.  Crash-consistency
  tests sweep every one and assert the array reopens to a valid
  old-or-new state.
* :data:`KILL_SITES` — locations in the parallel-file-system request
  paths where a whole *I/O server* may die (permanently or transiently)
  mid-operation.  Chaos tests attach ``hook`` rules here that call
  ``ParallelFileSystem.kill_server`` and assert that replicated layouts
  keep every read bit-identical.

This module lives in :mod:`repro.core` so that both the ``drx`` and
``pfs`` layers can import it without cycles (``drx.storage`` imports
``pfs.pfile``, so ``pfs`` must not import anything from ``drx``).
"""

from __future__ import annotations

from typing import Protocol

__all__ = ["crash_point", "activate", "deactivate", "any_active",
           "CRASH_SITES", "KILL_SITES", "DAEMON_SITES", "NET_SITES",
           "ALL_SITES"]


#: Every named crash site, with the on-disk state a crash there leaves.
#: Tests assert this inventory is live (each site fires during a normal
#: commit cycle) and sweep it for crash consistency.
CRASH_SITES: dict[str, str] = {
    # two-file (.xmd) meta-data commit -------------------------------------
    "xmd.commit.begin":
        "before anything is written: old meta-data fully intact",
    "posix.replace.opened":
        "temp file created but empty: target file untouched",
    "posix.replace.written":
        "temp file holds the new bytes, not yet fsynced",
    "posix.replace.synced":
        "temp file durable, rename not yet issued: target still old",
    "posix.replace.renamed":
        "rename issued, directory not yet fsynced: target old or new",
    "xmd.commit.end":
        "new meta-data fully committed",
    # single-file (.drx) shadow-slot header commit -------------------------
    "sf.meta.before_blob":
        "nothing written: both header slots and blobs intact",
    "sf.meta.after_blob":
        "new meta blob written to the shadow region, header still points "
        "at the old blob",
    "sf.header.before_slot":
        "new blob durable, slot not yet flipped: readers see the old "
        "generation",
    "sf.header.after_slot":
        "new slot written (possibly not yet durable): readers see old or "
        "new generation, both valid",
    # buffer-pool flush ----------------------------------------------------
    "mpool.flush.begin":
        "no dirty page written back yet",
    "mpool.flush.after_writeback":
        "dirty chunks written to the store, store flush not yet issued",
    # compressed-chunk allocation-table commit -----------------------------
    "codec.slots.written":
        "compressed chunk payloads written to their (copy-on-write) "
        "slots, allocation table and CRCs not yet committed: reopen "
        "sees the previous table with all of its payloads intact",
}

#: Every named server-kill site: locations in the PFS request paths
#: where a chaos rule may take a whole I/O server down mid-operation.
#: Sites ending in ``.batch`` are visited once before *each* server
#: batch, so a rule's ``after`` count selects how far into the fan-out
#: the failure strikes.
KILL_SITES: dict[str, str] = {
    "server.kill.readv.begin":
        "a replicated vectored read was planned, no server touched yet",
    "server.kill.readv.batch":
        "before each per-server read batch of a replicated read: earlier "
        "batches already answered, later ones must fail over",
    "server.kill.writev.begin":
        "a replicated vectored write was planned, no server touched yet",
    "server.kill.writev.batch":
        "before each per-server write batch of the replica fan-out: "
        "earlier copies already landed, the dying server's copy is skipped",
    "server.kill.collective.entry":
        "every rank, before the collective extent exchange",
    "server.kill.collective.exchange":
        "every rank, requests planned, before shipping its phase-A "
        "requests/data to the aggregator ranks",
    "server.kill.collective.read":
        "each aggregator rank, its file domain's extents merged, before "
        "the aggregated PFS read of that domain",
    "server.kill.collective.write":
        "each aggregator rank, its file domain's extents merged, before "
        "the aggregated PFS write of that domain",
    "server.kill.collective.sieve":
        "aggregator rank, before a data-sieving covering access of a "
        "hole-bearing window (covering read, or read-modify-write)",
    "server.kill.rebuild.begin":
        "a server rebuild was requested, nothing copied yet",
    "server.kill.rebuild.batch":
        "before each coalesced copy batch of an online rebuild: the "
        "target object is partially re-replicated",
}

#: Named sites inside the serve daemon's request lifecycle
#: (:mod:`repro.serve.server`) where the whole *daemon process* may die.
#: Chaos tests arm ``crash`` rules here and assert that restarting the
#: daemon and re-running the client workload converges to a
#: bit-identical array.  Kept out of :data:`KILL_SITES` so the PFS
#: chaos sweep (which reaches every ``KILL_SITES`` entry through a pure
#: storage lifecycle) stays complete without running a daemon.
DAEMON_SITES: dict[str, str] = {
    "server.kill.daemon.admitted":
        "request admitted (in-flight slot held), range locks not yet "
        "taken, store untouched",
    "server.kill.daemon.locked":
        "range locks held, store not yet touched: the mutation never "
        "started",
    "server.kill.daemon.journaled":
        "the mutation's BEGIN/DATA intent is in the write-ahead journal "
        "(not yet fsynced), the Mpool untouched: no COMMIT record, so "
        "recovery discards the transaction and the client's retry "
        "applies it exactly once",
    "server.kill.daemon.applied":
        "mutation applied to the shared store and its COMMIT record "
        "appended, acknowledgement not yet sent: recovery replays the "
        "committed transaction and answers the client's retry from the "
        "recovered dedup table",
    "server.kill.daemon.drain.flush":
        "graceful drain finished the in-flight work, arrays not yet "
        "flushed/committed: unacknowledged state may be lost, "
        "acknowledged (journal-committed) state is replayed on recovery",
}

#: Named sites at the daemon's network boundary — the instants where a
#: request or its acknowledgement exists on exactly one side of the
#: wire.  Chaos rules here model `kill -9` in the lost-request /
#: lost-ack windows; the test suite's ``tests/support/netfault.py``
#: ``FaultySocket`` covers the corruption (bit flip / torn frame /
#: delay) side of the same boundary client-side.
NET_SITES: dict[str, str] = {
    "serve.net.recv.request":
        "a complete request frame was received and CRC-verified, "
        "nothing dispatched yet: the client gets no reply and must "
        "re-issue under the same idempotency key",
    "serve.net.send.reply":
        "the reply is computed (journal synced for mutations), the OK "
        "frame not yet on the wire: the classic lost-ack window — the "
        "retried request must be answered from the dedup table, never "
        "re-applied",
}

#: The union the dispatcher validates against.
ALL_SITES: dict[str, str] = {**CRASH_SITES, **KILL_SITES, **DAEMON_SITES,
                             **NET_SITES}


class _Plan(Protocol):  # pragma: no cover - typing aid only
    def note_site(self, site: str) -> None: ...


#: Currently active fault plans (usually zero or one; nesting composes).
_ACTIVE: list[_Plan] = []


def crash_point(site: str) -> None:
    """Announce reaching fault site ``site``.

    No-op with no active plan; otherwise every active plan observes the
    site and may raise :class:`~repro.core.errors.CrashError` (crash
    sites) or run a chaos hook such as a server kill (kill sites).
    """
    if not _ACTIVE:
        return
    for plan in list(_ACTIVE):
        plan.note_site(site)


def any_active() -> bool:
    """Whether any fault plan is currently observing sites.

    Fault schedules are op-count ordered, so while a plan is armed
    :meth:`repro.core.executor.IOExecutor.submit` runs every task on the
    caller's thread, in submission order: the codec fan-out keeps its
    one code path, and injected faults and kill sites fire
    deterministically.  The PFS needs no such rule: it
    serves every per-server batch on the caller's thread already.
    """
    return bool(_ACTIVE)


def activate(plan: _Plan) -> None:
    """Register ``plan`` to observe fault sites (idempotent)."""
    if plan not in _ACTIVE:
        _ACTIVE.append(plan)


def deactivate(plan: _Plan) -> None:
    """Stop ``plan`` observing fault sites (idempotent)."""
    try:
        _ACTIVE.remove(plan)
    except ValueError:
        pass
