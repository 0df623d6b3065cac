"""The multi-tenant array service layer.

A daemon (:class:`DRXServer`) exposes the DRX array operations —
open / create / read / write / extend / flush / snapshot / scrub —
over a length-framed binary protocol (:mod:`repro.serve.protocol`),
multiplexing many concurrent clients onto shared Mpool, executor, and
(optionally) :class:`~repro.pfs.filesystem.ParallelFileSystem`
instances.  The robustness contract:

* per-request **deadlines**, propagated client → server → store and
  enforced mid-flight via the shared
  :mod:`repro.core.watchdog` machinery;
* **admission control** — bounded in-flight per client and globally,
  bounded queueing, explicit ``RETRY_LATER`` backpressure;
* per-chunk **range locking** — disjoint writers run concurrently,
  overlapping writers serialize deterministically;
* **graceful drain** on SIGTERM and abrupt-kill chaos coverage via the
  ``server.kill.daemon.*`` and ``serve.net.*`` fault sites;
* **crash durability and exactly-once**, one rule with no switch —
  every mutation carries a ``(client, sid, seq)`` idempotency key
  (the daemon refuses one without) and is recorded under it in a
  per-array write-ahead journal (:mod:`repro.serve.journal`),
  group-commit fsynced before its OK and replayed on restart by
  :mod:`repro.serve.recovery`; the key dedups retried mutations
  across reconnects and daemon restarts.

:class:`DRXClient` is the retrying stub (transient-vs-fatal
classification, shared backoff policy, deadline ownership,
reconnect-with-resume under a stable idempotency key); its
:class:`Pipeline` keeps many requests in flight per connection, and the
``batch`` verb carries several ops in one frame.  :mod:`repro.serve.shard`
scales the service *out*: N independent daemons behind a
consistent-hash ring (:class:`HashRing` / :class:`ShardedClient`), each
with its own journal, pool, and recovery domain.
"""

from .client import DRXClient, PendingReply, Pipeline
from .journal import JOURNAL_SUFFIX, DedupTable, Journal, JournalStats
from .locks import ArrayRWLock, ChunkLocks
from .protocol import (
    KEYED_VERBS,
    MAX_FRAME,
    ConnectionClosed,
    ProtocolError,
)
from .qos import ClientQoS, QoSRegistry
from .recovery import RecoveryReport, recover, scan_journal
from .server import CancelGateStore, DRXServer
from .shard import HashRing, ShardedClient, ShardedPipeline, merge_stats

__all__ = [
    "DRXServer",
    "DRXClient",
    "Pipeline",
    "PendingReply",
    "HashRing",
    "ShardedClient",
    "ShardedPipeline",
    "merge_stats",
    "ArrayRWLock",
    "ChunkLocks",
    "ClientQoS",
    "QoSRegistry",
    "CancelGateStore",
    "ProtocolError",
    "ConnectionClosed",
    "MAX_FRAME",
    "KEYED_VERBS",
    "JOURNAL_SUFFIX",
    "Journal",
    "JournalStats",
    "DedupTable",
    "RecoveryReport",
    "recover",
    "scan_journal",
]
