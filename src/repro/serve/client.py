"""The client stub for the array service daemon.

:class:`DRXClient` wraps one TCP connection to a :class:`DRXServer`
with the retry discipline the rest of the stack already uses:

* **Transient vs fatal.**  Connection loss, protocol desync, socket
  timeouts, ``RETRY_LATER`` backpressure and server errors whose
  ``transient`` flag is set (the server-side
  :func:`~repro.drx.resilience.is_transient` classification shipped in
  the ``ERR`` frame) are retried; everything else raises immediately.
* **Backoff.**  Retries sleep per the shared
  :class:`~repro.drx.resilience.BackoffPolicy` — bounded exponential
  backoff with deterministic seeded jitter, the exact policy
  :class:`~repro.drx.resilience.RetryingByteStore` applies to store
  faults, so client behaviour replays identically for a given seed.
* **Deadlines.**  The caller's budget is owned client-side as a
  :class:`~repro.core.watchdog.Deadline`; each attempt ships the
  *remaining* budget to the server (which enforces it mid-flight) and
  bounds its own socket waits with it.  A ``DEADLINE`` reply — or local
  expiry between retries — raises
  :class:`~repro.core.errors.DeadlineError`; the budget is spent, so
  the stub never retries past it.
* **Reconnect-with-resume, exactly once.**  Mutating verbs
  (:data:`~repro.serve.protocol.KEYED_VERBS`) are stamped with an
  idempotency key — ``(client_id, sid, seq)``, where ``sid`` is this
  stub instance's opaque session token and ``seq`` its monotonic
  request counter — assigned **once** per logical request, before the
  first attempt, and re-sent verbatim on every retry and reconnect.  A
  retry whose original OK frame was lost (torn wire, daemon kill
  between apply and send) is answered from the server's dedup table,
  so the mutation is applied exactly once no matter how many times the
  wire failed.

Each request counts its ``attempt`` number in the header, so the
daemon's per-client QoS records show how often this client was forced
to retry.

**One request path.**  Every frame this module sends or receives goes
through :class:`_Exchange`, one connection's request/reply loop: it
stamps headers, transmits, receives one reply per step, classifies it
and applies the retry rule.  The loop has two drivers.
:meth:`DRXClient.request` drives it on the *calling* thread until its
own reply is done — a synchronous call is a pipeline of depth one.
:class:`Pipeline` drives the same loop from a background receiver
thread so many requests stay in flight.  Which verbs exist and how
their arguments and replies are coded lives in
:data:`~repro.serve.protocol.VERB_TABLE`; the per-verb methods of both
classes are derived from it.

Retry accounting (pinned by a regression test over both drivers):
``max_retries=N`` means **N + 1 total attempts** — one initial try
plus N retries.  The attempt counter increments *before* the give-up
check and the backoff sleep, so a request fails for good after attempt
``N + 1`` fails (``attempt > max_retries`` with ``attempt == N + 1``)
and the first sleep is ``BackoffPolicy.delay(1)`` — the policy's base
delay, not the doubled ``delay(2)`` an off-by-one would produce.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
import uuid

from ..core.errors import DeadlineError, RetryLater, ServeError
from ..core.watchdog import Deadline
from ..drx.resilience import BackoffPolicy
from .protocol import (
    BATCHABLE_VERBS,
    DEADLINE,
    ERR,
    KEYED_VERBS,
    MAX_FRAME,
    MAX_PIPELINE_DEPTH,
    OK,
    REQ,
    RETRY_LATER,
    ConnectionClosed,
    ProtocolError,
    close_socket,
    decode_error,
    recv_frame,
    send_frame,
    split_payload,
    verb_surface,
)

__all__ = ["DRXClient", "Pipeline", "PendingReply"]

#: Slack added to the socket timeout over the request deadline, so the
#: server-side DEADLINE frame (sent *at* expiry) can still arrive.
_SOCKET_GRACE = 1.0
#: Socket timeout for requests without a deadline.
_DEFAULT_SOCKET_TIMEOUT = 30.0
#: Poll slice for PendingReply.result — bounds how late a deadline
#: expiry with no server reply is noticed.
_WAIT_POLL = 0.05


def _socket_wait(budget: float | None) -> float:
    return budget + _SOCKET_GRACE if budget is not None \
        else _DEFAULT_SOCKET_TIMEOUT


class PendingReply:
    """One request in flight and, eventually, its reply.

    The exchange loop keeps the request side here too: ``_header`` is
    stamped once and re-sent verbatim on every attempt; only
    ``_attempt`` and the remaining budget are refreshed per
    transmission.
    """

    __slots__ = ("verb", "rid", "_header", "_payload", "_deadline",
                 "_decode", "_attempt", "_last", "_event", "_value",
                 "_error")

    def __init__(self, header: dict, payload, deadline: Deadline,
                 decode=None) -> None:
        self.verb = header["verb"]
        self.rid = header["rid"]
        self._header = header
        self._payload = payload
        self._deadline = deadline
        self._decode = decode
        self._attempt = 0
        self._last: BaseException | None = None   #: why it last failed
        self._event = threading.Event()
        self._value = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None):
        """Block until the reply lands; raises the transported failure.

        The wait is bounded by the request's own deadline (raising
        :class:`DeadlineError` on expiry) and, optionally, by
        ``timeout`` seconds (raising :class:`TimeoutError`).
        """
        while not self._event.is_set():
            budget = self._deadline.remaining()
            if budget is not None and budget <= 0:
                raise DeadlineError(
                    f"deadline exceeded waiting for {self.verb} reply")
            wait = _WAIT_POLL if budget is None else min(
                _WAIT_POLL, budget)
            if timeout is not None:
                if timeout <= 0:
                    raise TimeoutError(
                        f"timed out waiting for {self.verb} reply")
                wait = min(wait, timeout)
                timeout -= wait
            self._event.wait(wait + _SOCKET_GRACE
                             if wait == budget else wait)
        return self._outcome()

    # internal — called by the exchange loop and its drivers
    def _outcome(self):
        if self._error is not None:
            raise self._error
        if self._decode is not None:
            value, self._decode = self._decode(*self._value), None
            self._value = value
        return self._value

    def _settle(self, value, error: BaseException | None) -> None:
        self._value, self._error = value, error
        self._event.set()


class _Exchange:
    """One connection's request/reply loop — the only code in this
    module that touches the wire.  Whoever calls :meth:`step` drives it.

    A torn connection fails nothing by itself: the next step reconnects
    (through the owning client's ``resolver``, so a shard that moved is
    found at its new home) and re-sends every outstanding request in
    ``rid`` order under its **original idempotency key**.  A
    ``RETRY_LATER`` or transient ERR re-sends just that request after
    the shared backoff, leaving the rest of the window in flight.

    ``depth`` bounds the in-flight window (:meth:`begin` blocks past
    it), clamped to :data:`~repro.serve.protocol.MAX_PIPELINE_DEPTH` —
    the cap the server's dedup window is sized against, so every
    request that could be re-sent still has its result cached.  Every
    REQ carries it as ``window``: at ``window: 1`` nothing can overtake
    a request, so the daemon answers it on the thread that read it.
    """

    def __init__(self, client: "DRXClient", depth: int = 64) -> None:
        self.client = client
        self.depth = max(1, min(int(depth), MAX_PIPELINE_DEPTH))
        self._slots = threading.BoundedSemaphore(self.depth)
        self._state = threading.Lock()   # outstanding dict + socket ref
        self._send = threading.Lock()    # connects, whole-frame writes
        self._rid = itertools.count(1)
        self._outstanding: dict[int, PendingReply] = {}
        self._sock: socket.socket | None = None
        self._fault: BaseException | None = None  #: why the wire last broke
        self._closed = False
        self.resends = 0                 #: requests re-transmitted

    def begin(self, verb: str, header: dict | None, payload,
              timeout: float | None, decode=None) -> PendingReply:
        """Stamp, register and transmit one request.  The header's
        fixed part — verb, client, in-flight ``window``, idempotency
        key, ``rid`` — is assigned here, once, BEFORE the first
        attempt: every retry, including reconnect-with-resume after a
        daemon restart, re-issues the request under the same
        ``(client, sid, seq)``."""
        client = self.client
        hdr = dict(header or {})
        hdr["verb"] = verb
        hdr["client"] = client.client_id
        hdr["window"] = self.depth
        client._stamp_key(hdr)
        deadline = Deadline(timeout if timeout is not None
                            else client.timeout)
        self._slots.acquire()
        with self._state:
            if self._closed:
                self._slots.release()
                raise ServeError("pipeline is closed")
            hdr["rid"] = rid = next(self._rid)
            req = self._outstanding[rid] = PendingReply(
                hdr, payload, deadline, decode)
        try:
            self._transmit(req)
        except BaseException as exc:
            # not a wire failure (an unencodable header, say): nothing
            # will ever retry it, so it must not hold a slot
            self._finish(req, error=exc)
            raise
        return req

    def step(self) -> None:
        """One turn of the loop."""
        with self._state:
            sock = self._sock
            stranded = list(self._outstanding.values()) \
                if sock is None else ()
        if sock is None:
            # dicts keep insertion order, so this is rid order
            self._retry(stranded, self._fault
                        or ConnectionClosed("not connected"))
            return
        try:
            kind, hdr, payload = recv_frame(sock, self.client.max_frame)
        except (OSError, ProtocolError) as exc:
            # a dying/restarting daemon, a torn frame, a socket timeout
            self._lost(sock, exc)
            return
        rid = hdr.get("rid")
        with self._state:
            req = self._outstanding.get(rid) \
                if isinstance(rid, int) else None
        if req is None:
            return          # late reply for an abandoned request: drop
        err = self.client._verdict(kind, hdr)
        if err is None:
            self._finish(req, (hdr, payload))
        elif getattr(err, "transient", False):
            self._defer(self._retry, [req], err)
        else:
            self._finish(req, error=err)

    def disconnect(self) -> None:
        self._lost(self._sock, None)

    # ------------------------------------------------------------------
    def _defer(self, fn, *args) -> None:
        """Run a backoff-and-resend; a background driver overrides this
        to keep its receiver draining replies meanwhile."""
        fn(*args)

    def _transmit(self, req: PendingReply) -> None:
        """One attempt on the wire.  A wire failure is only noted: the
        next :meth:`step` finds the connection gone and retries."""
        budget = req._deadline.remaining()
        if budget is not None and budget <= 0:
            self._finish(req, error=DeadlineError(
                f"deadline exceeded during {req.verb} request"
                + (f" (last failure: {req._last})" if req._last else "")))
            return
        hdr = dict(req._header, attempt=req._attempt)
        if budget is not None:
            hdr["timeout"] = budget
        sock = None
        try:
            with self._send:
                sock = self._sock
                if sock is None:
                    sock = self.client._new_socket(budget)
                    with self._state:
                        if self._closed:
                            raise ConnectionClosed("pipeline closed")
                        self._sock = sock
                sock.settimeout(_socket_wait(budget))
                send_frame(sock, REQ, hdr, req._payload)
        except (OSError, ProtocolError) as exc:
            self._lost(sock, exc)

    def _lost(self, sock, exc: BaseException) -> None:
        """Tear down after a failure on ``sock``.  The installed socket
        is cleared only while it is still the one that failed: a
        concurrent retry may already have swapped in a fresh, healthy
        connection, which must survive."""
        with self._state:
            self._fault = exc
            if self._sock is sock:
                self._sock = None
        close_socket(sock)

    def _retry(self, reqs, exc: BaseException) -> None:
        """The one give-up/backoff rule: ``reqs`` failed their current
        attempt with ``exc`` — one request on a pushback reply,
        everything outstanding on a lost connection.  See the module
        docstring for the accounting."""
        client = self.client
        alive = []
        for req in reqs:
            if req.done():
                continue
            req._last = exc
            req._attempt += 1
            if req._attempt > client.max_retries:
                self._finish(req, error=exc)
            else:
                alive.append(req)
        if not alive:
            return
        with self._state:
            self.resends += len(alive)
        client._backoff(max(req._attempt for req in alive), len(alive))
        for req in alive:
            if not req.done():
                self._transmit(req)
                if self._sock is None:
                    return      # lost again: the next step retries all

    def _finish(self, req: PendingReply, result=None, error=None) -> None:
        with self._state:
            if self._outstanding.pop(req.rid, None) is None:
                return
        req._settle(result, error)
        self._slots.release()


@verb_surface
class DRXClient:
    """A retrying, deadline-aware connection to one array daemon.
    The per-verb methods (``ping``, ``open``, ``create``, ``read``,
    ``write``, …) come from :data:`~repro.serve.protocol.VERB_TABLE`.
    """

    def __init__(self, address: tuple[str, int], client_id: str = "anon",
                 timeout: float | None = None, max_retries: int = 8,
                 backoff: BackoffPolicy | None = None, seed: int = 0,
                 max_frame: int = MAX_FRAME,
                 sleep=time.sleep, socket_wrapper=None,
                 resolver=None) -> None:
        self.address = (address[0], int(address[1]))
        #: optional ``() -> (host, port)`` consulted before every fresh
        #: connection — a routing layer (the shard ring) owns the
        #: address, so a reconnect after a shard failure re-resolves
        #: instead of pinning the dead endpoint
        self.resolver = resolver
        self.client_id = client_id
        self.timeout = timeout          #: default per-request budget
        self.max_retries = max_retries
        self.backoff = backoff if backoff is not None \
            else BackoffPolicy(base_delay=0.005, max_delay=0.25, seed=seed)
        self.max_frame = max_frame
        self._sleep = sleep
        #: test hook: wraps each fresh connection (fault injection)
        self._socket_wrapper = socket_wrapper
        #: idempotency-key state: a session token unique to this stub
        #: instance (two stubs sharing a client_id must not collide)
        #: plus a monotonic per-request counter
        self.session = uuid.uuid4().hex[:12]
        self._seq = itertools.count(1)
        self._lock = threading.Lock()   # seq stamping + the counters
        #: lifetime counters mirrored client-side
        self.retries = 0
        self.retry_later_seen = 0
        self._wire = _Exchange(self, depth=1)   # the synchronous connection

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._wire.disconnect()

    def __enter__(self) -> "DRXClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _new_socket(self, budget: float | None) -> socket.socket:
        """One fresh connection: resolver-refreshed address, NODELAY,
        wrapped by the fault-injection hook."""
        if self.resolver is not None:
            host, port = self.resolver()
            self.address = (host, int(port))
        sock = socket.create_connection(self.address,
                                        timeout=_socket_wait(budget))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self._socket_wrapper is not None:
            sock = self._socket_wrapper(sock)
        return sock

    def _stamp_key(self, header: dict) -> None:
        """Assign the idempotency key for a keyed verb, once, before
        the first transmission — retries re-send it verbatim."""
        if header.get("verb") in KEYED_VERBS and "seq" not in header:
            with self._lock:
                header["sid"] = self.session
                header["seq"] = next(self._seq)

    def _verdict(self, kind: int, hdr: dict) -> BaseException | None:
        """The one reply classifier: ``None`` for OK, else the failure
        — retried when its ``transient`` attribute is set (never a
        ``DEADLINE``: the budget is spent), raised otherwise."""
        if kind == OK:
            return None
        if kind == DEADLINE:
            return DeadlineError(hdr.get("message", "deadline exceeded"))
        if kind == RETRY_LATER:
            with self._lock:
                self.retry_later_seen += 1
            return RetryLater(hdr.get("reason", "?"))
        if kind == ERR:
            return decode_error(hdr)
        return ProtocolError(f"unexpected reply kind {kind}")

    def _backoff(self, attempt: int, retried: int = 1) -> None:
        """Count the retries and sleep the policy's delay."""
        with self._lock:
            self.retries += retried
        self._sleep(self.backoff.delay(attempt))

    # ------------------------------------------------------------------
    def request(self, verb: str, header: dict | None = None,
                payload: bytes = b"",
                timeout: float | None = None) -> tuple[dict, bytes]:
        """Issue one request, retrying transient failures with backoff.

        Returns ``(header, payload)`` of the ``OK`` reply.  Raises
        :class:`DeadlineError` when the budget runs out (server- or
        client-side), :class:`ServeError` for fatal server errors.
        """
        wire = self._wire
        reply = wire.begin(verb, header, payload, timeout)
        try:
            while not reply.done():
                wire.step()
        except BaseException as exc:
            # an interrupted call must not keep the connection's one slot
            wire._finish(reply, error=exc)
            raise
        return reply._outcome()

    def _call(self, spec, header: dict, payload, timeout):
        return spec.decode(*self.request(spec.name, header, payload,
                                         timeout))

    # ------------------------------------------------------------------
    def batch(self, ops, timeout: float | None = None,
              return_exceptions: bool = False) -> list:
        """Run several operations in one request frame (one round trip).

        ``ops`` is a list of dicts, each carrying a ``verb`` (one of
        :data:`~repro.serve.protocol.BATCHABLE_VERBS`), its verb
        parameters, and optionally ``payload`` (raw bytes — a write's
        array data).  Idempotency keys are stamped per keyed op before
        the first transmission; a transport-level retry (or a partial
        re-issue after per-op ``RETRY_LATER``) re-sends the original
        keys, so mutations stay exactly-once even when a batch is torn
        mid-wire.

        Returns a list aligned with ``ops``: ``(header, payload)`` per
        successful op (``payload`` is a zero-copy slice of the reply
        frame).  Failed ops raise — or, with
        ``return_exceptions=True``, appear as exception objects in the
        returned list instead.
        """
        deadline = Deadline(timeout if timeout is not None
                            else self.timeout)
        prepared: list[tuple[dict, bytes]] = []
        for op in ops:
            oh = dict(op)
            payload = bytes(oh.pop("payload", b""))
            if oh.get("verb") not in BATCHABLE_VERBS:
                raise ServeError(
                    f"verb {oh.get('verb')!r} not allowed in a batch")
            self._stamp_key(oh)
            oh["nbytes"] = len(payload)
            prepared.append((oh, payload))
        outcomes: list = [None] * len(prepared)
        pending = list(range(len(prepared)))
        attempt = 0
        while pending:
            hdrs = [prepared[i][0] for i in pending]
            body = b"".join(prepared[i][1] for i in pending)
            rhdr, rpayload = self.request(
                "batch", {"ops": hdrs}, body,
                timeout=deadline.remaining())
            results = rhdr["results"]
            if len(results) != len(pending):
                raise ProtocolError(
                    f"batch reply carries {len(results)} results for "
                    f"{len(pending)} ops")
            pieces = split_payload(results, rpayload)
            retry: list[int] = []
            last: Exception | None = None
            for idx, res, piece in zip(pending, results, pieces):
                err = self._verdict(int(res["kind"]), res["header"])
                if err is None:
                    outcomes[idx] = (res["header"], piece)
                elif getattr(err, "transient", False):
                    last = err
                    retry.append(idx)
                else:
                    outcomes[idx] = err
            if retry:
                attempt += 1
                if attempt > self.max_retries:
                    for idx in retry:
                        outcomes[idx] = last
                    retry = []
                else:
                    self._backoff(attempt)
            pending = retry
        if not return_exceptions:
            for out in outcomes:
                if isinstance(out, BaseException):
                    raise out
        return outcomes

    def pipeline(self, depth: int = 64) -> "Pipeline":
        """A pipelined connection of its own (see :class:`Pipeline`)."""
        return Pipeline(self, depth=depth)


@verb_surface
class Pipeline(_Exchange):
    """Many requests in flight on one connection, replies matched by id.

    Each :meth:`submit` (and each per-verb method, derived from
    :data:`~repro.serve.protocol.VERB_TABLE`) returns a
    :class:`PendingReply` immediately; a receiver thread drives the
    exchange loop, so the retry discipline is
    :meth:`DRXClient.request`'s.

    Ordering: requests in one pipeline may *execute* in any order —
    callers who need op B to observe op A must wait for A's reply
    before submitting B (or put both in one ``batch`` frame, which
    executes in list order).
    """

    _recv: threading.Thread | None = None    #: the receiver, while awake

    def __enter__(self) -> "Pipeline":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        self.close(drain=exc_type is None)

    def submit(self, verb: str, header: dict | None = None,
               payload: bytes = b"", timeout: float | None = None,
               decode=None) -> PendingReply:
        """Send one request without waiting; returns its
        :class:`PendingReply`."""
        reply = self.begin(verb, header, bytes(payload), timeout, decode)
        with self._state:
            if self._recv is None or not self._recv.is_alive():
                self._recv = threading.Thread(
                    target=self._recv_loop, name="drx-pipeline-recv",
                    daemon=True)
                self._recv.start()
        return reply

    def _call(self, spec, header: dict, payload, timeout) -> PendingReply:
        return self.submit(spec.name, header, payload, timeout,
                           spec.decode)

    def drain(self, timeout: float | None = None) -> None:
        """Block until every submitted request has its reply (or has
        failed); per-reply failures surface from their own
        :meth:`PendingReply.result` calls, not here."""
        with self._state:
            replies = list(self._outstanding.values())
        for reply in replies:
            try:
                reply.result(timeout=timeout)
            except (DeadlineError, ServeError, ProtocolError, OSError,
                    TimeoutError):
                pass

    def close(self, drain: bool = True,
              timeout: float | None = None) -> None:
        if drain and not self._closed:
            self.drain(timeout=timeout)
        with self._state:
            self._closed = True
            sock, self._sock = self._sock, None
            stranded = list(self._outstanding.values())
            recv = self._recv
        for req in stranded:
            self._finish(req, error=req._last
                         or ConnectionClosed("pipeline closed"))
        close_socket(sock)
        if recv is not None and recv is not threading.current_thread():
            recv.join(timeout=2.0)

    # ------------------------------------------------------------------
    def _recv_loop(self) -> None:
        while True:
            with self._state:
                if not self._outstanding and (self._closed
                                              or self._sock is None):
                    # nothing to receive or recover: go dormant,
                    # submit() restarts the receiver
                    self._recv = None
                    return
            self.step()

    def _defer(self, fn, *args) -> None:
        threading.Thread(target=fn, args=args, name="drx-pipeline-retry",
                         daemon=True).start()
