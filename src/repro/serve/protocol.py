"""The drx-serve wire protocol: length-framed binary messages.

Frame layout (all integers big-endian, no padding)::

    +----------+-------+--------+------------+---------------+---------+
    | body_len | kind  | crc32  | header_len | header (JSON) | payload |
    | uint32   | uint8 | uint32 | uint32     | header_len B  | rest    |
    +----------+-------+--------+------------+---------------+---------+

``body_len`` counts everything after itself (``1 + 4 + 4 + header_len
+ payload_len``), so a reader always knows how many bytes to consume
before dispatching — there is no sniffing and no resynchronization.
``crc32`` covers the header and payload bytes: a bit flipped anywhere
on the wire (the test suite's ``tests/support/netfault.FaultySocket``
flips them on purpose) fails the check and the receiver raises
:class:`ProtocolError` instead of acting on corrupt data — the
sender's retry layer reconnects and re-issues under the request's
idempotency key.  The *header* is a UTF-8 JSON object carrying the
verb and its scalar parameters; the *payload* is raw array bytes
(C-order element data for ``read`` responses and ``write`` requests,
empty otherwise).  Keeping bulk data out of JSON keeps the framing
overhead per megabyte moved at a few dozen bytes.

On the wire a frame is **one** gather send (``sendmsg`` of head,
header and payload, never concatenated), and both ends turn Nagle's
algorithm off with the socket's no-delay option — the client on
connect, the daemon on accept — so no frame waits behind the peer's
delayed ACK.  The receiver reads each frame with ``recv_into``
straight into that frame's own buffer, and a ``read`` reply's payload
is a memoryview over the array the engine just filled: a reply's
bytes are copied neither on the way out nor on the way in.

Frame kinds:

``REQ``
    Client → server.  Header: ``verb`` (one of :data:`VERBS`),
    ``client`` (tenant identity for QoS/admission accounting),
    ``attempt`` (0 for the first try; retries increment it so the
    server can count forced retries per client), ``timeout`` (the
    request's remaining deadline budget in seconds — the *client*
    owns the deadline and ships the remaining budget, the server
    enforces it; ``attempt`` and ``timeout``, when present, must be
    finite numbers, or the request is answered with one fatal ``ERR``
    and never admitted), ``window`` (the sender's in-flight window on
    this connection: ``1`` promises that the next REQ follows only
    this one's reply, so the server answers it on the thread that
    read it; any other value, or none, lets replies overtake one
    another — a client that breaks the promise only serialises its
    own connection), plus verb-specific fields.  Mutating verbs
    (:data:`KEYED_VERBS`) additionally carry the idempotency key:
    ``sid`` (an opaque per-stub session token) and ``seq`` (the stub's
    monotonic request number) — assigned **once** per logical request
    and re-sent verbatim on every retry/reconnect, so the server's
    dedup table can answer a replay with the cached result instead of
    re-applying the mutation.

Pipelining wire rules (many REQ frames in flight per connection):

* Every REQ carries a ``rid``: a non-negative integer unique among the
  connection's in-flight requests.  It is **mandatory** — a REQ whose
  ``rid`` is missing or anything else is answered with one fatal
  ``ERR`` and never dispatched; the connection stays usable.  The
  server may execute requests of one connection concurrently and reply
  **in any order**; every reply frame — OK, ERR, RETRY_LATER and
  DEADLINE alike — echoes the request's ``rid`` so the client matches
  responses to requests by id, never by position (a synchronous call
  is a pipeline of depth one).  Per-array lock ordering still
  serializes overlapping mutations; disjoint requests overlap.
* The ``batch`` verb carries several operations in **one** frame: the
  header's ``ops`` list holds one sub-header per operation (its own
  ``verb``, parameters, idempotency key, and ``nbytes`` — the length
  of its slice of the concatenated request payload).  Sub-operations
  execute in list order, each passing through admission, QoS,
  deadline, and locking exactly as if it had arrived alone.  The OK
  reply header's ``results`` list mirrors ``ops``: one
  ``{"kind", "header", "nbytes"}`` entry per operation, with the
  reply payloads concatenated in the same order.  A transport-level
  retry of the whole batch is safe: keyed sub-operations are deduped
  individually, so a batch torn mid-wire re-applies nothing — which
  is only sound because the server's per-client dedup window
  (:data:`DEDUP_WINDOW`) covers a maximal batch plus a full pipeline
  window, the most keyed ops a client can legally have retryable at
  once.  The batch's ``timeout`` is one shared budget: each sub-op is
  dispatched with the batch's *remaining* budget (ops that start
  after expiry get a ``DEADLINE`` result), so a batch can never
  consume more than its deadline of server wall time.
``OK``
    Success.  Verb-specific header + optional payload.
``ERR``
    Failure.  Header: ``error`` (the failure's kind — a
    :class:`~repro.core.errors.ServeError`'s own ``kind``, else the
    exception class name), ``message``,
    ``transient`` (the server-side
    :func:`repro.drx.resilience.is_transient` classification — the
    client stub retries transient failures and surfaces fatal ones).
``RETRY_LATER``
    Admission control refused the request instead of queueing it
    unboundedly.  Header: ``reason``.  Always treated as transient.
``DEADLINE``
    The request's deadline expired server-side (queued or mid-flight).
    Header: ``message``.  The client raises
    :class:`~repro.core.errors.DeadlineError` — the budget is spent,
    retrying is the caller's decision, not the stub's.

Oversize frames are rejected *before* buffering (the daemon reads the
length prefix, sees it exceeds ``max_frame``, errors out and drops the
connection) so a misbehaving client cannot balloon server memory.
"""

from __future__ import annotations

import inspect
import json
import socket
import struct
import zlib
from typing import Callable, NamedTuple

import numpy as np

from ..core.chunking import index_tuple
from ..core.errors import DRXError, ServeError
from ..drx.resilience import is_transient

__all__ = [
    "REQ", "OK", "ERR", "RETRY_LATER", "DEADLINE",
    "KIND_NAMES", "Verb", "VERB_TABLE", "verb_surface",
    "VERBS", "KEYED_VERBS", "BATCHABLE_VERBS", "CONTROL_VERBS",
    "MAX_FRAME", "MAX_BATCH_OPS", "MAX_PIPELINE_DEPTH", "DEDUP_WINDOW",
    "ProtocolError", "ConnectionClosed",
    "send_frame", "recv_frame", "close_socket", "encode_error",
    "decode_error", "split_payload",
]

REQ = 1
OK = 2
ERR = 3
RETRY_LATER = 4
DEADLINE = 5

KIND_NAMES = {REQ: "REQ", OK: "OK", ERR: "ERR",
              RETRY_LATER: "RETRY_LATER", DEADLINE: "DEADLINE"}

def _ints(seq, what: str = "coordinates") -> list[int]:
    """Coordinates, shapes and bounds as plain ints (numpy integers are
    not JSON-serializable), as strict as the engine: anything but
    integers — a float, even an integral one — raises
    :class:`~repro.core.errors.DRXIndexError` before a frame is sent."""
    return list(index_tuple(seq, what))


def _reply_array(hdr: dict, payload) -> np.ndarray:
    return np.frombuffer(payload, dtype=hdr["dtype"]).reshape(hdr["shape"])


# Request encoders: the signature is the public signature of the verb's
# method on every client surface; the result is ``(header, payload)``.
# ``timeout`` is the request's whole budget — the exchange ships what
# remains of it with each attempt, so it stays out of the header here.

def _ping(echo=None, timeout: float | None = None):
    return {"echo": echo}, b""


def _named(name: str, timeout: float | None = None):
    return {"name": name}, b""


def _create(name: str, bounds, chunk, dtype: str = "<f8",
            checksums: bool = False, codec: str = "none",
            exists_ok: bool = False, timeout: float | None = None):
    return {"name": name, "bounds": _ints(bounds, "bounds"),
            "chunk": _ints(chunk, "chunk shape"),
            "dtype": dtype, "checksums": checksums, "codec": codec,
            "exists_ok": exists_ok}, b""


def _read(name: str, lo, hi, timeout: float | None = None):
    """Read the box ``[lo, hi)``.

    Zero-copy: the returned array is a view over the received reply's
    payload buffer (``np.frombuffer``, no copy).  The buffer is
    writable and private to its reply frame, so callers may mutate the
    result in place and it cannot alias another reply's data.
    """
    return {"name": name, "lo": _ints(lo, "box corner"),
            "hi": _ints(hi, "box corner")}, b""


def _write(name: str, lo, values, timeout: float | None = None):
    values = np.ascontiguousarray(values)
    header = {"name": name, "lo": _ints(lo, "box corner"),
              "shape": list(values.shape), "dtype": values.dtype.str}
    # a snapshot, not a view: a retry re-sends this payload under the
    # same idempotency key, so it must carry the bytes the caller
    # passed, not whatever the caller's array holds by then
    return header, values.tobytes()


def _extend(name: str, dim: int | None = None, by: int | None = None,
            to=None, timeout: float | None = None):
    if to is not None:
        return {"name": name, "to": _ints(to, "extend to=")}, b""
    dim, by = _ints((dim, by), "extend dim/by")
    return {"name": name, "dim": dim, "by": by}, b""


def _snapshot(name: str, dest: str, timeout: float | None = None):
    return {"name": name, "dest": dest}, b""


def _stats(timeout: float | None = None):
    return {}, b""


def _shutdown(drain: bool = True, timeout: float | None = None):
    return {"drain": drain}, b""


class Verb(NamedTuple):
    """One row of :data:`VERB_TABLE`.

    ``encode(*public args) -> (header, payload)`` (``None`` for
    ``batch``, whose envelope the client assembles by hand) and
    ``decode(reply header, reply payload) ->`` the method's result.
    ``keyed``: mutating — the client stamps an idempotency key, the
    server journals and dedups.  ``batchable``: allowed inside a
    ``batch`` frame.  ``control``: answered without an admission slot —
    cheap, touches no array data, must work while the daemon is
    saturated.  ``routed``: the first argument is the array name and a
    shard ring routes by it; unrouted verbs fan out to every shard.
    """

    name: str
    encode: Callable | None
    decode: Callable = lambda hdr, payload: hdr
    keyed: bool = False
    batchable: bool = True
    control: bool = False
    routed: bool = True


#: Every verb the daemon dispatches.  Adding one is a row here plus a
#: ``DRXServer._op_<name>`` handler: the methods of all four client
#: surfaces, the sets below and the server's lookup derive from it.
VERB_TABLE: dict[str, Verb] = {v.name: v for v in (
    Verb("ping", _ping, control=True, routed=False),
    Verb("open", _named),
    Verb("create", _create),
    Verb("read", _read, decode=_reply_array),
    Verb("write", _write, keyed=True),
    Verb("extend", _extend, keyed=True),
    Verb("flush", _named),
    Verb("snapshot", _snapshot),
    Verb("scrub", _named),
    Verb("stats", _stats, control=True, routed=False),
    # shutdown must stay a deliberate single-purpose request
    Verb("shutdown", _shutdown, batchable=False, control=True,
         routed=False),
    # no nesting
    Verb("batch", None, batchable=False, routed=False),
)}

VERBS = frozenset(VERB_TABLE)
KEYED_VERBS = frozenset(n for n, v in VERB_TABLE.items() if v.keyed)
BATCHABLE_VERBS = frozenset(n for n, v in VERB_TABLE.items() if v.batchable)
CONTROL_VERBS = frozenset(n for n, v in VERB_TABLE.items() if v.control)

_SELF = inspect.Parameter("self", inspect.Parameter.POSITIONAL_OR_KEYWORD)


def _verb_method(spec: Verb):
    encode = spec.encode
    sig = inspect.signature(encode)
    at = list(sig.parameters).index("timeout")

    def method(self, *args, **kwargs):
        header, payload = encode(*args, **kwargs)
        timeout = args[at] if len(args) > at else kwargs.get("timeout")
        return self._call(spec, header, payload, timeout)

    method.__name__ = spec.name
    method.__doc__ = encode.__doc__
    method.__signature__ = sig.replace(
        parameters=[_SELF, *sig.parameters.values()])
    return method


def verb_surface(cls):
    """Class decorator: one method per table verb, taking the verb's
    public arguments and handing ``(spec, header, payload, timeout)``
    to the class's ``_call``.  A method the class defines itself wins
    (``ShardedClient.stats`` merges its fan-out); a class whose
    ``_call`` can only route by array name sets ``routed_only``."""
    for spec in VERB_TABLE.values():
        if spec.encode is None or spec.name in cls.__dict__:
            continue
        if spec.routed or not getattr(cls, "routed_only", False):
            setattr(cls, spec.name, _verb_method(spec))
    return cls


#: Cap on operations per batch frame — bounded decode work per frame,
#: same spirit as MAX_FRAME.
MAX_BATCH_OPS = 1024

#: Cap on a pipeline's in-flight window (client-side ``Pipeline``
#: clamps ``depth`` to it).  A wire-level bound, not a tuning default:
#: it exists so the server can size its dedup table to cover every
#: request a client could legally have outstanding — and therefore
#: re-send after a torn connection.
MAX_PIPELINE_DEPTH = 1024

#: Per-client dedup-table bound.  The exactly-once guarantee ("a batch
#: torn mid-wire re-applies nothing") holds only while every mutation a
#: client can retry still has its result cached, so the window must
#: cover the largest possible retry set: one maximal batch frame
#: (``MAX_BATCH_OPS`` keyed ops) plus a full pipeline window of keyed
#: requests (``MAX_PIPELINE_DEPTH``) in flight alongside it.
DEDUP_WINDOW = MAX_BATCH_OPS + MAX_PIPELINE_DEPTH

#: Default per-frame size cap (64 MiB): bigger transfers must be split
#: into multiple requests — bounded buffering is the point.
MAX_FRAME = 64 * 1024 * 1024

_HEAD = struct.Struct("!IBII")      # body_len, kind, crc32, header_len


class ProtocolError(DRXError):
    """Malformed frame / protocol misuse.  Fatal: the connection is
    unrecoverable mid-stream, but a *reconnect* may succeed, so the
    client stub treats it as transient at the connection level."""

    transient = True


class ConnectionClosed(ProtocolError):
    """The peer went away mid-frame (or before one).  Transient: the
    daemon may be restarting — the stub reconnects and retries."""


def send_frame(sock: socket.socket, kind: int, header: dict,
               payload: bytes | memoryview = b"") -> None:
    """Serialize and send one frame (blocking, whole frame).

    The frame leaves as one gather write of ``[head, header, payload]``
    — no concatenation, so the payload (any C-contiguous buffer, e.g.
    a memoryview over an array of any shape) is never copied.
    ``sendmsg`` may stop short, so the loop drops the buffers already
    sent and trims the one it stopped inside.
    """
    raw = json.dumps(header, separators=(",", ":")).encode("utf-8")
    view = memoryview(payload)
    body = view.cast("B") if view.nbytes else b""   # lengths in bytes
    crc = zlib.crc32(body, zlib.crc32(raw)) & 0xFFFFFFFF
    head = _HEAD.pack(1 + 4 + 4 + len(raw) + len(body), kind, crc,
                      len(raw))
    bufs = [head, raw, body]
    while bufs:
        sent = sock.sendmsg(bufs)
        while bufs and sent >= len(bufs[0]):
            sent -= len(bufs.pop(0))
        if sent:
            bufs[0] = memoryview(bufs[0])[sent:]


def close_socket(sock) -> None:
    """Shut down, then close, ignoring a socket already gone: the
    shutdown wakes a thread blocked in ``recv_into`` or ``accept`` on
    the socket, which a bare ``close`` does not."""
    if sock is None:
        return
    for op in (lambda: sock.shutdown(socket.SHUT_RDWR), sock.close):
        try:
            op()
        except OSError:
            pass


def _recv_exact_into(sock: socket.socket, buf: memoryview) -> None:
    """Fill ``buf`` completely from ``sock``, receiving straight into
    it, at most 1 MiB per ``recv_into`` call."""
    n = len(buf)
    got = 0
    while got < n:
        k = sock.recv_into(buf[got:], min(n - got, 1 << 20))
        if not k:
            raise ConnectionClosed(
                f"connection closed mid-frame ({got}/{n} bytes)")
        got += k


def recv_frame(sock: socket.socket,
               max_frame: int = MAX_FRAME) -> tuple[int, dict, memoryview]:
    """Receive one frame; returns ``(kind, header, payload)``.

    The payload is a **writable** zero-copy memoryview over the frame's
    own receive buffer — each frame gets a private ``bytearray``, so
    ``np.frombuffer`` over the payload yields a mutable array without
    copying, and retaining it pins only this frame's buffer (header +
    payload), never another request's data.

    Raises :class:`ConnectionClosed` on EOF (clean EOF *between* frames
    included — the caller distinguishes by catching it around the first
    read) and :class:`ProtocolError` on malformed or oversize frames.
    """
    head = bytearray(_HEAD.size)
    _recv_exact_into(sock, memoryview(head))
    body_len, kind, crc, header_len = _HEAD.unpack(head)
    if body_len > max_frame:
        raise ProtocolError(
            f"frame of {body_len} bytes exceeds the {max_frame}-byte cap")
    if body_len < 1 + 4 + 4 + header_len:
        raise ProtocolError(
            f"inconsistent frame: body {body_len} < header {header_len}")
    if kind not in KIND_NAMES:
        raise ProtocolError(f"unknown frame kind {kind}")
    rest = bytearray(body_len - 1 - 4 - 4)
    _recv_exact_into(sock, memoryview(rest))
    if zlib.crc32(rest) & 0xFFFFFFFF != crc:
        raise ProtocolError(
            "frame CRC mismatch: corrupted on the wire")
    try:
        header = json.loads(rest[:header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError("frame header must be a JSON object")
    return kind, header, memoryview(rest)[header_len:]


def encode_error(exc: BaseException) -> dict:
    """Serialize a server-side failure for an ``ERR`` frame.  A
    :class:`ServeError` ships its own ``kind`` (the failure it stands
    for), anything else its class name."""
    return {
        "error": exc.kind if isinstance(exc, ServeError)
        else type(exc).__name__,
        "message": str(exc),
        "transient": bool(is_transient(exc)),
    }


def split_payload(entries: list, payload: bytes) -> list[memoryview]:
    """Slice a concatenated batch payload back into per-op pieces.

    ``entries`` is the ``ops`` (request) or ``results`` (reply) list;
    each entry's ``nbytes`` names its slice length.  Returns zero-copy
    memoryviews in entry order.  Raises :class:`ProtocolError` when the
    declared lengths disagree with the payload actually received.
    """
    view = memoryview(payload)
    pieces: list[memoryview] = []
    off = 0
    for entry in entries:
        nb = int(entry.get("nbytes", 0))
        if nb < 0 or off + nb > len(view):
            raise ProtocolError(
                f"batch payload underrun: op wants {nb} bytes at "
                f"offset {off} of {len(view)}")
        pieces.append(view[off:off + nb])
        off += nb
    if off != len(view):
        raise ProtocolError(
            f"batch payload overrun: {len(view) - off} trailing bytes")
    return pieces


def decode_error(header: dict) -> ServeError:
    """Reconstruct a transported failure client-side."""
    return ServeError(
        f"{header.get('error', 'ServeError')}: "
        f"{header.get('message', 'unknown server error')}",
        kind=str(header.get("error", "ServeError")),
        transient=bool(header.get("transient", False)),
    )
