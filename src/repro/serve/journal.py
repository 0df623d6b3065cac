"""Per-array write-ahead journal for the serve daemon.

Durability gap this closes: PR 7's daemon keeps acknowledged writes
only in the shared Mpool until the next ``flush``; an abrupt ``kill
-9`` between the chunk writes and the ``.xmd`` commit loses them.  The
journal records every mutating request *before* it touches the Mpool
and fsyncs *before* the OK frame leaves the daemon, so a restart can
replay exactly the acknowledged mutations (see
:mod:`repro.serve.recovery`).

Record framing (all integers big-endian)::

    +-----------+---------+-------+--------------+--------+---------+
    | body_len  | crc32   | rtype | header_len   | header | payload |
    | uint32    | uint32  | uint8 | uint32       | JSON   | raw     |
    +-----------+---------+-------+--------------+--------+---------+

``body_len`` counts everything after the CRC field; the CRC covers the
same bytes, so recovery validates each record independently and stops
at the first record whose length or CRC does not check out — the torn
tail a crash mid-append leaves behind.

Record types, one mutation = one *transaction*:

``BEGIN``
    The intent: verb, target box / shape, dtype, and the request's
    ``(client, sid, seq)`` idempotency key.  Appended (with ``DATA``)
    **before** the mutation touches the Mpool — redo logging.
``DATA``
    The raw payload bytes of a ``write`` (omitted for ``extend``).
``COMMIT``
    The transaction's result header (sequence number, shape).  Appended
    after the in-memory apply succeeded; a transaction is *committed*
    iff its COMMIT record is present.  COMMIT records double as the
    durable dedup table: recovery re-seeds ``key → result`` from them,
    so a retry replayed after a crash is answered from cache instead of
    re-applied.
``ABORT``
    Cancels an already-committed transaction whose apply then failed
    in the live process (deadline, store fault).  The client was
    answered with an error, so recovery must neither replay the
    mutation nor seed the dedup table with a success result — the
    ``extend`` path journals its COMMIT *before* applying (see the
    ordering note there) and appends ABORT on apply failure.
``CHECKPOINT``
    Written alone by :meth:`Journal.rotate` after the array itself was
    flushed: everything the journal recorded is now durable in the
    array, so the journal restarts from just this record, which carries
    the dedup-table snapshot forward.

**Ordering rules** (what makes replay correct):

1. ``BEGIN``/``DATA`` are appended while the request holds its range
   locks, so for any two *conflicting* mutations the journal append
   order equals the lock-serialization order — replay in record order
   reproduces the order clients observed.
2. ``COMMIT`` is appended before the locks are released.
3. The fsync (:meth:`Journal.sync`) happens after lock release — many
   requests' records batch under one physical ``fsync`` (*group
   commit*: whoever waited on the sync mutex behind an fsync finds its
   records covered by it), and only after its covering sync returns
   does a request send OK.  A crash before the sync may lose the
   COMMIT: the request was never acknowledged, the client retries,
   and either the recovered dedup table answers it (COMMIT survived)
   or the mutation is simply re-applied (it did not) — exactly once
   either way.

The journal bypasses the Mpool entirely: it appends straight to its
own :class:`~repro.drx.storage.ByteStore` (``<name>.xj`` next to the
``.xmd``/``.xta`` pair), so abandoning the buffer cache on kill cannot
touch it.
"""

from __future__ import annotations

import json
import struct
import threading
import zlib
from collections import OrderedDict

from ..core.watchdog import CancelScope
from ..drx.storage import ByteStore
from .locks import _wait

__all__ = [
    "BEGIN", "DATA", "COMMIT", "CHECKPOINT", "ABORT", "RTYPE_NAMES",
    "JOURNAL_SUFFIX", "Journal", "JournalStats", "DedupTable",
    "encode_record", "decode_record",
]

BEGIN = 1
DATA = 2
COMMIT = 3
CHECKPOINT = 4
ABORT = 5

RTYPE_NAMES = {BEGIN: "BEGIN", DATA: "DATA", COMMIT: "COMMIT",
               CHECKPOINT: "CHECKPOINT", ABORT: "ABORT"}

#: The journal file lives next to the array's ``.xmd``/``.xta`` pair.
JOURNAL_SUFFIX = ".xj"

_PREFIX = struct.Struct("!II")      # body_len, crc32
_BODY_HEAD = struct.Struct("!BI")   # rtype, header_len


def encode_record(rtype: int, header: dict,
                  payload: bytes | memoryview = b"") -> bytes:
    """One length-prefixed, CRC32-framed journal record."""
    raw = json.dumps(header, separators=(",", ":")).encode("utf-8")
    body = _BODY_HEAD.pack(rtype, len(raw)) + raw + bytes(payload)
    return _PREFIX.pack(len(body), zlib.crc32(body) & 0xFFFFFFFF) + body


def decode_record(blob: bytes, offset: int):
    """Decode the record at ``offset``; ``None`` if the bytes there are
    truncated or fail the CRC (the torn tail — recovery stops here).

    Returns ``(rtype, header, payload, next_offset)``.
    """
    end = len(blob)
    if offset + _PREFIX.size > end:
        return None
    body_len, crc = _PREFIX.unpack_from(blob, offset)
    body_start = offset + _PREFIX.size
    if body_len < _BODY_HEAD.size or body_start + body_len > end:
        return None
    body = blob[body_start:body_start + body_len]
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        return None
    rtype, header_len = _BODY_HEAD.unpack_from(body, 0)
    if rtype not in RTYPE_NAMES or _BODY_HEAD.size + header_len > body_len:
        return None
    try:
        header = json.loads(
            body[_BODY_HEAD.size:_BODY_HEAD.size + header_len]
            .decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(header, dict):
        return None
    payload = bytes(body[_BODY_HEAD.size + header_len:])
    return rtype, header, payload, body_start + body_len


class JournalStats:
    """Counters one journal accumulates (JSON-able via :meth:`snapshot`)."""

    __slots__ = ("records", "bytes_appended", "sync_requests", "syncs",
                 "batched_syncs", "rotations", "recovered_txns",
                 "discarded_txns", "torn_bytes")

    def __init__(self) -> None:
        self.records = 0            #: records appended this incarnation
        self.bytes_appended = 0
        self.sync_requests = 0      #: logical "make my LSN durable" calls
        self.syncs = 0              #: physical fsyncs issued
        self.batched_syncs = 0      #: requests satisfied by another's fsync
        self.rotations = 0          #: checkpoint rewrites
        self.recovered_txns = 0     #: committed txns replayed at open
        self.discarded_txns = 0     #: uncommitted txns dropped at open
        self.torn_bytes = 0         #: torn-tail bytes discarded at open

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Journal:
    """Append-only redo journal over one :class:`ByteStore`.

    ``start`` is where appending resumes — the valid end the recovery
    scan reported.  All appends serialize under one lock (record order
    is the replay order).  :meth:`sync` and :meth:`rotate` serialize
    under a second, the sync mutex, held across the fsync — and that
    mutex *is* the group commit: each fsync covers every record
    appended before it started, so a requester that queued behind it
    finds its LSN durable and never touches the store.
    """

    def __init__(self, store: ByteStore, *, start: int = 0,
                 start_txn: int = 0,
                 stats: JournalStats | None = None) -> None:
        self._store = store
        self._append_lock = threading.Lock()
        self._sync_lock = threading.Lock()     #: taken before _append_lock
        self._end = int(start)          #: append offset == next LSN
        self._synced = int(start)       #: highest durable LSN
        self.stats = stats if stats is not None else JournalStats()
        self._txn = int(start_txn)      #: resume above recovered txn ids
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Bytes of journal currently live (appended this incarnation
        plus whatever it started from)."""
        with self._append_lock:
            return self._end

    def _append(self, blob: bytes, nrecords: int) -> int:
        with self._append_lock:
            if self._closed:
                raise ValueError("journal is closed")
            self._store.write(self._end, blob)
            self._end += len(blob)
            self.stats.records += nrecords
            self.stats.bytes_appended += len(blob)
            return self._end

    # ------------------------------------------------------------------
    def begin(self, verb: str, key, fields: dict,
              payload: bytes | memoryview = b"") -> int:
        """Append BEGIN (+DATA when ``payload`` is non-empty) for a new
        transaction under the request's ``(client, sid, seq)`` key;
        returns the transaction id.  Call while holding the mutation's
        range locks, *before* touching the Mpool."""
        with self._append_lock:
            self._txn += 1
            txn = self._txn
        header = dict(fields)
        header["txn"] = txn
        header["verb"] = verb
        header["key"] = list(key)
        blob = encode_record(BEGIN, header)
        n = 1
        if len(payload):
            blob += encode_record(DATA, {"txn": txn}, payload)
            n += 1
        self._append(blob, n)
        return txn

    def commit(self, txn: int, key, result: dict) -> int:
        """Append COMMIT; returns the LSN to pass to :meth:`sync`.
        Call before releasing the mutation's range locks."""
        header = {"txn": txn, "result": dict(result), "key": list(key)}
        return self._append(encode_record(COMMIT, header), 1)

    def abort(self, txn: int) -> int:
        """Append ABORT for a committed-but-failed transaction; returns
        the LSN to pass to :meth:`sync` so the cancellation is durable
        before the error reaches the client."""
        return self._append(encode_record(ABORT, {"txn": txn}), 1)

    def sync(self, lsn: int) -> None:
        """Group commit: return once every byte up to ``lsn`` is
        durable.

        Under the sync mutex, a requester whose LSN an earlier fsync
        already covered returns at once (``batched_syncs``); otherwise
        it fsyncs every record appended so far.  The durable watermark
        advances only when that flush succeeded: a failed flush leaves
        it put, so the next requester retries the fsync while this one
        sees the error and never acks.
        """
        with self._append_lock:     # counted on arrival, not once served
            self.stats.sync_requests += 1
        with self._sync_lock:
            if self._synced >= lsn:
                self.stats.batched_syncs += 1
                return
            with self._append_lock:
                end = self._end
            self.stats.syncs += 1
            self._store.flush()
            self._synced = end

    # ------------------------------------------------------------------
    def rotate(self, dedup_snapshot: dict, epoch: int) -> None:
        """Truncate to a single CHECKPOINT record carrying the dedup
        table.  Call only after the array itself was flushed — the
        checkpoint asserts every journaled mutation is durable in the
        array.  ``replace`` keeps the rewrite crash-safe on POSIX
        (old-or-new); replaying a stale journal is idempotent anyway.
        Holding the sync mutex makes a rotation wait for an in-flight
        fsync, so no flush can advance the watermark over offsets the
        truncation has renamed."""
        blob = encode_record(CHECKPOINT, {"epoch": int(epoch),
                                          "dedup": dedup_snapshot})
        with self._sync_lock, self._append_lock:
            if self._closed:
                return
            self._store.replace(blob)
            self._store.flush()
            self._end = self._synced = len(blob)
        self.stats.rotations += 1

    def close(self) -> None:
        """Close the backing store *without* fsync — what survives is
        whatever :meth:`sync` already made durable, exactly the
        kill -9 contract."""
        with self._append_lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._store.close()
        except Exception:       # noqa: BLE001 - best-effort on teardown
            pass


class DedupTable:
    """Exactly-once bookkeeping: ``(client, sid, seq) → result``.

    :meth:`claim` is the single entry point for a keyed mutation: it
    returns the cached result for a replayed retry, blocks (scope-aware)
    while *another* attempt with the same key is mid-flight — the
    reconnect-while-still-executing race — and returns ``None`` when
    the caller owns the key and must apply the mutation, then call
    :meth:`fulfill` (success) or :meth:`abandon` (failure: a later
    retry re-executes).

    Entries are bounded per client (LRU on insertion order): a client
    only ever retries its in-flight requests, so the tail of history is
    dead weight.  The bound is a correctness parameter, not a tuning
    knob — it must cover the largest set of keyed mutations a client
    can legally have retryable at once, or a torn batch/pipeline
    window's re-sent tail finds its oldest fulfilled entries evicted
    and re-applies them.  The server sizes it with
    :data:`~repro.serve.protocol.DEDUP_WINDOW` (one maximal batch
    frame plus a full pipeline window); the small default here is for
    unit tests that exercise the eviction itself.
    """

    def __init__(self, per_client: int = 128) -> None:
        self.per_client = int(per_client)
        self._cond = threading.Condition()
        self._done: dict[str, OrderedDict[str, dict]] = {}
        self._inflight: set[tuple[str, str]] = set()
        self.hits = 0

    @staticmethod
    def _split(key) -> tuple[str, str]:
        client = str(key[0])
        return client, json.dumps(list(key)[1:], separators=(",", ":"))

    def claim(self, key, scope: CancelScope | None = None) -> dict | None:
        client, rest = self._split(key)
        with self._cond:
            while (client, rest) in self._inflight:
                _wait(self._cond, scope, "duplicate-request wait")
            cached = self._done.get(client, {}).get(rest)
            if cached is not None:
                self.hits += 1
                return dict(cached)
            self._inflight.add((client, rest))
            return None

    def fulfill(self, key, result: dict) -> None:
        client, rest = self._split(key)
        with self._cond:
            self._inflight.discard((client, rest))
            bucket = self._done.setdefault(client, OrderedDict())
            bucket[rest] = dict(result)
            while len(bucket) > self.per_client:
                bucket.popitem(last=False)
            self._cond.notify_all()

    def abandon(self, key) -> None:
        client, rest = self._split(key)
        with self._cond:
            self._inflight.discard((client, rest))
            self._cond.notify_all()

    def seed(self, snapshot: dict) -> None:
        """Load a recovered / checkpointed ``snapshot`` (oldest first)."""
        with self._cond:
            for client, entries in snapshot.items():
                bucket = self._done.setdefault(str(client), OrderedDict())
                for rest, result in entries:
                    bucket[str(rest)] = dict(result)
                while len(bucket) > self.per_client:
                    bucket.popitem(last=False)

    def snapshot(self) -> dict:
        """JSON-able ``{client: [[key_rest, result], ...]}``."""
        with self._cond:
            return {client: [[rest, dict(result)]
                             for rest, result in bucket.items()]
                    for client, bucket in self._done.items()}

    def __len__(self) -> int:
        with self._cond:
            return sum(len(b) for b in self._done.values())
