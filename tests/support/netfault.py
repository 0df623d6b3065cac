"""Seeded network fault injection for the serve transport.

:class:`FaultySocket` wraps a connected socket and mangles traffic on a
deterministic, seeded schedule — the network-layer sibling of the
storage stack's :class:`~repro.drx.resilience.FaultInjector`.  Tests
wrap a client's connection (``DRXClient(socket_wrapper=...)``) and arm
rules; the frame-level CRC32 in :mod:`repro.serve.protocol` must catch
every corruption, the stub's reconnect-with-resume must retry under the
request's original idempotency key, and the server's dedup table must
keep the retried mutation exactly-once.

The proxy intercepts exactly the calls the protocol makes: one
``sendmsg`` per frame sent (a partial send's continuation is another
op) and one ``recv_into`` per receive (a frame is at least two: the
fixed head, then the body in pieces of at most 1 MiB).  Any other
attribute is forwarded untouched.

Fault kinds (armed per direction, fire on the Nth following op):

``bitflip``
    XOR one bit — position chosen by the seeded RNG — in the buffer
    being sent (or received).  Undetectable without the frame CRC.
``torn``
    Forward only a seeded fraction of the buffer, then close the
    socket: a frame torn mid-wire.
``disconnect``
    Close the socket instead of transferring anything.
``delay``
    Sleep before forwarding — delayed bytes that push a peer into its
    socket timeout.

The server-side counterparts are the ``serve.net.*`` fault *sites* in
:mod:`repro.core.faultsites`: the daemon announces the
received-but-not-dispatched and computed-but-not-sent instants of every
request, and a chaos ``crash`` rule there kills the whole daemon in the
lost-request / lost-ack window.
"""

from __future__ import annotations

import random
import socket
import time
from collections import deque

__all__ = ["FaultySocket", "arm_first_connection"]


class FaultySocket:
    """A socket proxy that corrupts traffic on an armed schedule.

    Unarmed it is a transparent passthrough.  Rules fire at most once,
    in arming order per direction; ``after`` counts how many ops
    (``sendmsg`` / ``recv_into`` calls) pass untouched first.
    """

    def __init__(self, sock: socket.socket, seed: int = 0) -> None:
        self._sock = sock
        self.rng = random.Random(seed)
        self._send_rules: deque[dict] = deque()
        self._recv_rules: deque[dict] = deque()
        self.sends = 0              #: sendmsg ops seen
        self.recvs = 0              #: recv_into ops seen
        self.injected = 0           #: rules fired

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    def arm_send(self, kind: str, after: int = 0, **kw) -> "FaultySocket":
        self._send_rules.append({"kind": kind, "after": int(after), **kw})
        return self

    def arm_recv(self, kind: str, after: int = 0, **kw) -> "FaultySocket":
        self._recv_rules.append({"kind": kind, "after": int(after), **kw})
        return self

    def _due(self, rules: deque, seen: int) -> dict | None:
        if rules and seen >= rules[0]["after"]:
            self.injected += 1
            return rules.popleft()
        return None

    def _mangle(self, rule: dict, data: bytes) -> bytes | None:
        """Apply ``rule`` to an outgoing/incoming buffer; ``None`` means
        the socket was closed instead of transferring."""
        kind = rule["kind"]
        if kind == "delay":
            time.sleep(float(rule.get("seconds", 0.05)))
            return data
        if kind == "disconnect":
            self.close()
            return None
        if kind == "torn":
            keep = int(len(data) * float(rule.get("keep", 0.5)))
            return data[:max(0, min(keep, len(data) - 1))]
        if kind == "bitflip":
            if not data:
                return data
            buf = bytearray(data)
            pos = self.rng.randrange(len(buf))
            buf[pos] ^= 1 << self.rng.randrange(8)
            return bytes(buf)
        raise ValueError(f"unknown fault kind {kind!r}")

    # ------------------------------------------------------------------
    # socket surface the protocol layer uses
    # ------------------------------------------------------------------
    def sendmsg(self, buffers) -> int:
        self.sends += 1
        rule = self._due(self._send_rules, self.sends)
        if rule is None:
            return self._sock.sendmsg(buffers)
        mangled = self._mangle(rule, b"".join(buffers))
        if mangled is None:
            raise OSError("faulty socket: injected disconnect mid-send")
        self._sock.sendall(mangled)
        if rule["kind"] == "torn":
            self.close()
            raise OSError("faulty socket: frame torn mid-send")
        return len(mangled)

    def recv_into(self, buf, nbytes: int = 0) -> int:
        self.recvs += 1
        rule = self._due(self._recv_rules, self.recvs)
        if rule is None:
            return self._sock.recv_into(buf, nbytes)
        if rule["kind"] == "disconnect":
            self.close()
            return 0
        n = self._sock.recv_into(buf, nbytes)
        mangled = self._mangle(rule, bytes(buf[:n]))
        buf[:len(mangled)] = mangled
        if rule["kind"] == "torn":
            self.close()
        return len(mangled)

    def settimeout(self, value) -> None:
        self._sock.settimeout(value)

    def setsockopt(self, *args) -> None:
        self._sock.setsockopt(*args)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __getattr__(self, name):
        return getattr(self._sock, name)


def arm_first_connection(arm, seed: int = 0):
    """A ``socket_wrapper`` that wraps every connection a client opens
    and arms only the first (``arm(fsock)``); reconnects pass through
    clean.  Returns the wrapper and the list of proxies it made, in
    connection order."""
    made: list[FaultySocket] = []

    def wrapper(sock):
        made.append(FaultySocket(sock, seed=seed))
        if len(made) == 1:
            arm(made[0])
        return made[-1]

    return wrapper, made
