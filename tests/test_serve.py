"""The array service daemon: protocol, deadlines, admission control,
range locking, drain, chaos kills, QoS accounting, and a soak rig.

Env knobs (the CI soak leg turns them up)::

    DRX_SOAK_CLIENTS=32 DRX_SOAK_SECONDS=30   # soak scale
    DRX_FAULT_SEED=20070917                   # chaos schedule seed
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import pathlib
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro import mpi
from repro.core.errors import (
    CrashError,
    DeadlineError,
    DRXIndexError,
    MPIError,
    ServeError,
)
from repro.core.faultsites import DAEMON_SITES, KILL_SITES
from repro.core.watchdog import (
    CancelScope,
    Deadline,
    Watchdog,
    default_watchdog,
)
from repro.drx import DRXFile
from repro.drx.resilience import BackoffPolicy, FaultPlan
from repro.pfs import ParallelFileSystem
from repro.serve import DRXClient, DRXServer
from repro.serve import protocol
from repro.serve.locks import ArrayRWLock, ChunkLocks
from tests.support.netfault import FaultySocket, arm_first_connection
from tests.support.qosprobe import snapshots_at_fulfill
from tests.support.slowserve import slow_array

SEED = int(os.environ.get("DRX_FAULT_SEED", "0"))
SOAK_CLIENTS = int(os.environ.get("DRX_SOAK_CLIENTS", "8"))
SOAK_SECONDS = float(os.environ.get("DRX_SOAK_SECONDS", "3"))


@contextlib.contextmanager
def serve_ctx(backend="fs", tmp_path=None, **kw):
    """A running daemon (fs- or root-backed) torn down afterwards."""
    if backend == "fs":
        substrate = ParallelFileSystem(nservers=3, stripe_size=1024)
        srv = DRXServer(fs=substrate, **kw)
    else:
        substrate = tmp_path
        srv = DRXServer(root=str(tmp_path), **kw)
    srv.start()
    try:
        yield srv, substrate
    finally:
        if srv.state != DRXServer.DEAD:
            srv.kill()


def make_client(srv, name="anon", **kw):
    kw.setdefault("timeout", 30.0)
    return DRXClient(srv.address, client_id=name, **kw)


# ---------------------------------------------------------------------------
# protocol framing
# ---------------------------------------------------------------------------
class TestProtocol:
    def roundtrip(self, kind, header, payload=b""):
        a, b = socket.socketpair()
        try:
            protocol.send_frame(a, kind, header, payload)
            return protocol.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_frame_roundtrip(self):
        kind, header, payload = self.roundtrip(
            protocol.REQ, {"verb": "write", "lo": [0, 8]}, b"\x01\x02")
        assert kind == protocol.REQ
        assert header == {"verb": "write", "lo": [0, 8]}
        assert payload == b"\x01\x02"

    def test_empty_payload(self):
        _, _, payload = self.roundtrip(protocol.OK, {"pong": True})
        assert payload == b""

    def test_oversize_frame_rejected_before_buffering(self):
        a, b = socket.socketpair()
        try:
            # hand-craft a length prefix claiming 1 GiB: the receiver
            # must reject on the prefix alone
            a.sendall(struct.pack("!IBII", 1 << 30, protocol.REQ, 0, 5))
            with pytest.raises(protocol.ProtocolError, match="cap"):
                protocol.recv_frame(b, max_frame=1 << 20)
        finally:
            a.close()
            b.close()

    def test_truncated_frame_is_connection_closed(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack("!IBII", 100, protocol.REQ, 0, 10))
            a.close()
            with pytest.raises(protocol.ConnectionClosed):
                protocol.recv_frame(b)
        finally:
            b.close()

    def test_unknown_kind_rejected(self):
        a, b = socket.socketpair()
        try:
            protocol.send_frame(a, 99, {})
            with pytest.raises(protocol.ProtocolError, match="kind"):
                protocol.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_error_marshalling_preserves_transience(self):
        hdr = protocol.encode_error(ServeError("boom", transient=True))
        err = protocol.decode_error(hdr)
        assert err.transient and "boom" in str(err)
        hdr = protocol.encode_error(ValueError("nope"))
        err = protocol.decode_error(hdr)
        assert not err.transient and err.kind == "ValueError"


class _TrickleSocket:
    """Captures what ``send_frame`` writes, taking at most 7 bytes per
    ``sendmsg`` so every partial-send branch runs."""

    def __init__(self) -> None:
        self.wire = bytearray()

    def sendmsg(self, buffers) -> int:
        room = 7
        for buf in buffers:
            piece = memoryview(buf).cast("B")[:room]
            self.wire += piece
            room -= len(piece)
            if not room:
                break
        return 7 - room


class _ReplaySocket:
    """Feeds captured frame bytes back to ``recv_frame``."""

    def __init__(self, data) -> None:
        self._data = memoryview(data)

    def recv_into(self, buf, nbytes: int = 0) -> int:
        n = min(nbytes or len(buf), len(self._data))
        buf[:n] = self._data[:n]
        self._data = self._data[n:]
        return n


class TestWire:
    """One gather send per frame on a no-delay socket, received
    straight into the frame buffer, with every wire fault still
    reaching the proxy that injects it."""

    @pytest.mark.parametrize("payload", [
        pytest.param(np.random.default_rng(SEED).bytes(1 << 20),
                     id="1MiB"),
        pytest.param(memoryview(np.arange(48.0).reshape(6, 8)),
                     id="2d-float64-view"),
    ])
    def test_partial_sends_rebuild_the_frame(self, payload):
        header = {"verb": "write", "rid": 3, "shape": [6, 8]}
        sock = _TrickleSocket()
        protocol.send_frame(sock, protocol.REQ, header, payload)
        nbytes = memoryview(payload).nbytes
        raw = json.dumps(header, separators=(",", ":")).encode()
        (body_len,) = struct.unpack("!I", sock.wire[:4])
        assert body_len == len(sock.wire) - 4 == 9 + len(raw) + nbytes
        kind, got_header, got = protocol.recv_frame(_ReplaySocket(sock.wire))
        assert (kind, got_header) == (protocol.REQ, header)
        assert bytes(got) == bytes(memoryview(payload).cast("B"))

    def test_accepted_sockets_are_nodelay(self):
        with serve_ctx() as (srv, _):
            with make_client(srv, "nd") as c, c.pipeline(depth=2) as pipe:
                assert c.ping()["pong"] and pipe.ping().result()["pong"]
                with srv._conn_lock:
                    socks = list(srv._conn_socks)
                assert len(socks) == 2
                assert all(s.getsockopt(socket.IPPROTO_TCP,
                                        socket.TCP_NODELAY)
                           for s in socks)

    def test_write_frame_is_one_send(self):
        wrapper, fsocks = arm_first_connection(lambda f: None, SEED)
        with serve_ctx() as (srv, _):
            with make_client(srv, "one", socket_wrapper=wrapper) as c:
                c.create("w1", [512], [64])
                sends = fsocks[0].sends
                c.write("w1", [0], np.arange(512.0))
                assert fsocks[0].sends == sends + 1
                assert len(fsocks) == 1

    @pytest.mark.parametrize("direction", ["send", "recv"])
    def test_bitflip_is_caught_by_the_crc(self, direction):
        """One flipped bit in a 4 KiB write request (send) or in a read
        reply's payload (recv): the proxy fires once, the CRC refuses
        the frame, the retry is clean — the corrupt write was never
        applied (no dedup hit) and the corrupt read never returned."""
        # send ops: create, write; recv ops: create reply (head, body),
        # write reply (head, body), read reply head, read reply body
        wrapper, fsocks = arm_first_connection(
            lambda f: f.arm_send("bitflip", after=2) if direction == "send"
            else f.arm_recv("bitflip", after=6), SEED)
        values = np.arange(512.0)
        with serve_ctx() as (srv, _):
            with make_client(srv, "flip", socket_wrapper=wrapper,
                             max_retries=8, seed=SEED) as c:
                c.create("bf", [512], [64])
                c.write("bf", [0], values)
                assert np.array_equal(c.read("bf", [0], [512]), values)
                assert c.retries == 1
            assert fsocks[0].injected == 1 and len(fsocks) == 2
            assert srv.qos.snapshot()["clients"]["flip"]["dedup_hits"] == 0

    def test_retried_write_resends_the_callers_original_values(self):
        """A pipelined write's first attempt tears mid-frame; the caller
        then reuses its array before the retry goes out.  The retry
        carries the values as they were when the write was issued."""
        overwritten = threading.Event()
        wrapper, fsocks = arm_first_connection(
            lambda f: f.arm_send("torn", after=1, keep=0.5), SEED)
        values = np.arange(64.0).reshape(8, 8)
        original = values.copy()
        with serve_ctx() as (srv, _):
            with make_client(srv, "setup") as s:
                s.create("reuse", [8, 8], [4, 4])
            with make_client(srv, "reuser", socket_wrapper=wrapper,
                             max_retries=8, seed=SEED,
                             # the backoff before the retry waits for
                             # the caller's overwrite
                             sleep=lambda _s: overwritten.wait(10)) as c:
                with c.pipeline(depth=2) as pipe:
                    pend = pipe.write("reuse", (0, 0), values)
                    values[:] = -1.0
                    overwritten.set()
                    assert pend.result()["nbytes"] == 64 * 8
                    assert pipe.resends == 1
                assert fsocks[0].injected == 1
                assert np.array_equal(c.read("reuse", (0, 0), (8, 8)),
                                      original)


# ---------------------------------------------------------------------------
# basic request/response over both backends
# ---------------------------------------------------------------------------
class TestBasics:
    def test_fs_backend_lifecycle(self):
        with serve_ctx() as (srv, fs):
            with make_client(srv, "basic") as c:
                info = c.create("arr", [16, 16], [4, 4])
                assert info["shape"] == [16, 16]
                data = np.arange(256, dtype="<f8").reshape(16, 16)
                ack = c.write("arr", (0, 0), data)
                assert ack["seq"] == 1
                assert np.array_equal(c.read("arr", (0, 0), (16, 16)),
                                      data)
                assert c.extend("arr", to=[16, 24])["shape"] == [16, 24]
                # idempotent: extending to the current shape is a no-op
                assert c.extend("arr", to=[16, 24])["shape"] == [16, 24]
                c.flush("arr")
                c.snapshot("arr", "arr-snap")
                assert np.array_equal(
                    c.read("arr-snap", (0, 0), (16, 16)), data)
                assert c.scrub("arr")["ok"]
            srv.shutdown(drain=True)
            # acked writes are durable after drain
            f = DRXFile.open_pfs(fs, "arr")
            assert np.array_equal(f.read((0, 0), (16, 16)), data)
            f.close()

    def test_root_backend_and_restart_durability(self, tmp_path):
        data = np.linspace(0, 1, 64).reshape(8, 8)
        with serve_ctx("root", tmp_path) as (srv, _):
            with make_client(srv, "posix") as c:
                c.create("disk", [8, 8], [4, 4], checksums=True)
                c.write("disk", (0, 0), data)
            srv.shutdown(drain=True)
        # a fresh daemon over the same directory serves the same bytes
        with serve_ctx("root", tmp_path) as (srv2, _):
            with make_client(srv2, "posix") as c2:
                assert np.array_equal(c2.read("disk", (0, 0), (8, 8)),
                                      data)
                assert c2.scrub("disk")["checked"] == 4

    def test_fatal_errors_not_retried(self):
        with serve_ctx() as (srv, _):
            with make_client(srv, "fatal") as c:
                with pytest.raises(ServeError, match="invalid array name"):
                    c.open("../etc/passwd")
                with pytest.raises(ServeError, match="no array|no such"):
                    c.open("missing")
                c.create("dup", [4], [2])
                with pytest.raises(ServeError, match="exists"):
                    c.create("dup", [4], [2])
                # exists_ok opens instead
                assert c.create("dup", [4], [2],
                                exists_ok=True)["shape"] == [4]
                # none of those consumed a retry
                assert c.retries == 0

    def test_error_kind_survives_the_wire(self):
        """Regression: a ``ServeError`` raised with its own ``kind``
        reached the client as kind ``ServeError``."""
        with serve_ctx() as (srv, _):
            with make_client(srv, "kind") as c:
                with pytest.raises(ServeError) as info:
                    c.read("missing", [0], [1])
                assert info.value.kind == "DRXFileNotFoundError"
                assert not info.value.transient
                assert c.retries == 0

    @pytest.mark.parametrize("backend", ["root", "fs"])
    def test_snapshot_onto_existing_name_is_fatal(self, backend,
                                                  tmp_path):
        """Snapshot and create share one existence check: on either
        backend an existing destination is refused in one attempt with
        DRXFileExistsError (the PFS backend's own refusal would read as
        transient and be retried), and the source is untouched."""
        data = np.arange(16.0).reshape(4, 4)
        with serve_ctx(backend, tmp_path) as (srv, _):
            with make_client(srv, "snap") as c:
                c.create("a", [4, 4], [2, 2])
                c.write("a", (0, 0), data)
                c.create("b", [2], [2])
                with pytest.raises(ServeError) as info:
                    c.snapshot("a", "b")
                assert info.value.kind == "DRXFileExistsError"
                assert not info.value.transient
                assert c.retries == 0
                assert np.array_equal(c.read("a", (0, 0), (4, 4)), data)
                assert c.open("b")["shape"] == [2]

    def test_unknown_verb(self):
        with serve_ctx() as (srv, _):
            with make_client(srv, "x", max_retries=0) as c:
                with pytest.raises(ServeError, match="unknown verb"):
                    c.request("frobnicate")


# ---------------------------------------------------------------------------
# snapshot: the window-bounded copy of drx.repackage
# ---------------------------------------------------------------------------
class TestSnapshot:
    def test_snapshot_keeps_axial_vectors_and_stored_chunks(self, tmp_path):
        """An array extended along both dimensions is copied as it is
        laid out: the same axial vectors and the same stored chunk bytes,
        not a fresh layout of the same elements."""
        rng = np.random.default_rng(3)
        with serve_ctx("root", tmp_path) as (srv, _):
            with make_client(srv, "snap") as c:
                c.create("a", [8, 8], [4, 4])
                c.write("a", (0, 0), rng.random((8, 8)))
                c.extend("a", to=[16, 8])
                c.extend("a", to=[16, 12])
                c.extend("a", to=[20, 12])
                c.write("a", (0, 0), rng.random((20, 12)))
                c.snapshot("a", "copy")
            srv.shutdown(drain=True)
        with DRXFile.open(tmp_path / "a") as a, \
                DRXFile.open(tmp_path / "copy") as b:
            assert b.meta.eci.axial_vectors == a.meta.eci.axial_vectors
            assert np.array_equal(b.read_all(), a.read_all())
        assert (tmp_path / "copy.xta").read_bytes() \
            == (tmp_path / "a.xta").read_bytes()

    def test_snapshot_peak_memory_is_window_bounded(self, tmp_path):
        """A 16 MiB snapshot moves through windows of the source pool's
        capacity: the traced peak stays within 4x that capacity instead
        of materializing the array."""
        pages, chunk = 16, (64, 64)
        capacity = pages * 64 * 64 * 8                 # 512 KiB
        with DRXFile.create(tmp_path / "big", (2048, 1024), chunk) as a:
            for r in range(0, 2048, 256):
                a.write((r, 0), np.full((256, 1024), float(r)))
        with serve_ctx("root", tmp_path, cache_pages=pages) as (srv, _):
            with make_client(srv, "snap") as c:
                c.open("big")
                tracemalloc.start()
                try:
                    c.snapshot("big", "big-copy")
                    _now, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert np.array_equal(c.read("big-copy", (1800, 3), (1801, 4)),
                                      [[1792.0]])
        assert peak <= 4 * capacity, f"peak {peak} B"

    def test_no_whole_array_reads_in_the_daemon(self):
        """The daemon never materializes a whole array: no ``read_all``
        call anywhere under ``repro.serve``."""
        root = pathlib.Path(protocol.__file__).parent
        assert [p.name for p in sorted(root.rglob("*.py"))
                if ".read_all(" in p.read_text()] == []


# ---------------------------------------------------------------------------
# deadlines (tentpole): client -> server -> store, with rollback
# ---------------------------------------------------------------------------
class TestDeadlines:
    def test_deadline_cancels_mid_flight_and_rolls_back(self):
        with serve_ctx() as (srv, _):
            with make_client(srv, "dl") as c:
                c.create("a", [16, 16], [4, 4])
                base = np.full((16, 16), 7.0)
                c.write("a", (0, 0), base)
                slow_array(srv, "a", write=5.0)
                wd = default_watchdog().stats
                scheduled0, settled0 = wd.scheduled, wd.fired + wd.cancelled
                t0 = time.monotonic()
                with pytest.raises(DeadlineError):
                    c.write("a", (0, 0), np.zeros((16, 16)),
                            timeout=0.2)
                # cancelled promptly, not after the 5 s "computation"
                assert time.monotonic() - t0 < 2.0
                # the half-done mutation was rolled back
                assert np.array_equal(c.read("a", (0, 0), (16, 16)),
                                      base)
                # the shared watchdog (not a second timer) owned the
                # deadline: its entry either fired or, when the scope's
                # own check expired first, was cancelled by the handler
                wd = default_watchdog().stats
                assert wd.scheduled > scheduled0
                assert wd.fired + wd.cancelled > settled0
                snap = c.stats()["qos"]["clients"]["dl"]
                assert snap["deadline_misses"] == 1
                # locks were not leaked by the cancelled request
                assert c.stats()["chunk_locks_held"] == 0

    def test_deadline_spent_in_admission_queue(self):
        with serve_ctx(max_inflight=1, max_inflight_per_client=1,
                       max_queue=4) as (srv, _):
            with make_client(srv, "hog") as hog, \
                    make_client(srv, "starved") as starved:
                hog.create("q", [8, 8], [4, 4])
                slow_array(srv, "q", write=1.5)
                blocker = threading.Thread(
                    target=hog.write,
                    args=("q", (0, 0), np.ones((8, 8))))
                blocker.start()
                time.sleep(0.3)     # blocker holds the only slot
                with pytest.raises(DeadlineError):
                    starved.write("q", (0, 0), np.zeros((8, 8)),
                                  timeout=0.3)
                blocker.join()
                snap = srv.qos.snapshot()["clients"]["starved"]
                assert snap["deadline_misses"] == 1
                assert snap["queue_wait"] > 0.1

    def test_expired_budget_never_sent(self):
        with serve_ctx() as (srv, _):
            with make_client(srv, "late") as c:
                c.create("z", [4], [2])
                deadline_header = {"name": "z", "lo": [0], "hi": [4]}
                with pytest.raises(DeadlineError):
                    c.request("read", deadline_header, timeout=0.0)


# ---------------------------------------------------------------------------
# the shared watchdog (satellite: one timer implementation, two users)
# ---------------------------------------------------------------------------
class TestSharedWatchdog:
    def test_deadline_and_scope_primitives(self):
        d = Deadline(0.05)
        assert d.remaining() <= 0.05 and not d.expired
        time.sleep(0.07)
        assert d.expired
        with pytest.raises(DeadlineError, match="during frobbing"):
            d.check("frobbing")
        assert Deadline(None).remaining() is None

        scope = CancelScope(Deadline(None))
        scope.check("fine")
        scope.cancel("operator abort")
        with pytest.raises(DeadlineError, match="operator abort"):
            scope.check("later")

    def test_watchdog_fires_and_cancels(self):
        wd = Watchdog(name="test-wd")
        fired = threading.Event()
        wd.schedule(0.05, fired.set)
        handle = wd.schedule(0.05, lambda: fired.clear())
        wd.cancel(handle)
        assert fired.wait(2.0)
        time.sleep(0.1)
        assert fired.is_set()           # cancelled entry never ran
        assert wd.stats.fired == 1
        assert wd.stats.cancelled == 1
        assert wd.pending() == 0

    def test_hung_collective_names_collective_and_rank(self):
        """A hung collective is diagnosed by name and rank — and the
        diagnosis is driven by the *shared* watchdog, not a private
        timer."""
        fired0 = default_watchdog().stats.fired

        def body(comm):
            if comm.rank == 0:
                comm.allreduce(1)       # rank 1 never joins
        with pytest.raises(MPIError) as ei:
            mpi.mpiexec(2, body, timeout=1)
        msg = str(ei.value)
        assert "deadlock" in msg
        assert "allreduce" in msg
        assert "ranks [0]" in msg
        assert "mpi-rank-0" in msg
        assert default_watchdog().stats.fired == fired0 + 1

    def test_no_second_timer_implementation(self):
        """Both the MPI runner and the daemon drive deadlines through
        repro.core.watchdog — neither rolls its own timer thread."""
        import inspect

        from repro.mpi import runner
        from repro.serve import server as serve_server
        for mod in (runner, serve_server):
            src = inspect.getsource(mod)
            assert "default_watchdog" in src
            assert "threading.Timer" not in src

    def test_mpi_and_serve_share_one_watchdog_instance(self):
        sched0 = default_watchdog().stats.scheduled
        # serve side: a deadlined request schedules an entry
        with serve_ctx() as (srv, _):
            with make_client(srv, "wd") as c:
                c.ping()
                c.create("w", [4], [2])
                c.write("w", [0], np.ones(4), timeout=5.0)
        after_serve = default_watchdog().stats.scheduled
        assert after_serve > sched0
        # mpi side: a run schedules (and cancels) on the same instance
        mpi.mpiexec(2, lambda comm: comm.barrier(), timeout=30)
        assert default_watchdog().stats.scheduled > after_serve


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------
class TestAdmission:
    def test_retry_later_when_queue_full(self):
        with serve_ctx(max_inflight=1, max_inflight_per_client=1,
                       max_queue=0) as (srv, _):
            with make_client(srv, "holder") as holder:
                holder.create("b", [8, 8], [4, 4])
                slow_array(srv, "b", write=1.0)
                blocker = threading.Thread(
                    target=holder.write,
                    args=("b", (0, 0), np.ones((8, 8))))
                blocker.start()
                time.sleep(0.3)
                # zero queue slots: an immediate, explicit refusal
                with make_client(srv, "refused", max_retries=0) as c:
                    with pytest.raises(ServeError, match="busy"):
                        c.read("b", (0, 0), (8, 8))
                # a retrying client eventually gets through
                with make_client(srv, "patient", max_retries=40,
                                 seed=SEED) as c:
                    got = c.read("b", (0, 0), (8, 8))
                    assert got.shape == (8, 8)
                    assert c.retry_later_seen > 0
                blocker.join()
                snap = srv.qos.snapshot()
                assert snap["clients"]["refused"]["retry_later"] == 1
                assert snap["clients"]["patient"]["retry_later"] > 0
                # conservation: every request got exactly one outcome
                for rec in snap["clients"].values():
                    assert rec["requests"] == (
                        rec["ok"] + rec["errors"] + rec["retry_later"]
                        + rec["deadline_misses"])

    def test_queue_depth_stays_bounded(self):
        with serve_ctx(max_inflight=2, max_inflight_per_client=2,
                       max_queue=3) as (srv, _):
            with make_client(srv, "seeder") as seeder:
                seeder.create("c", [32, 8], [4, 4])
            slow_array(srv, "c", write=0.05)
            threads = []
            for i in range(12):
                cli = make_client(srv, f"swarm{i}", max_retries=60,
                                  seed=i)
                t = threading.Thread(
                    target=lambda cl=cli: (cl.write(
                        "c", (0, 0), np.ones((4, 4))), cl.close()))
                threads.append(t)
                t.start()
            for t in threads:
                t.join(30)
                assert not t.is_alive(), "swarm writer wedged"
            snap = srv.qos.snapshot()
            assert snap["queue_depth_hw"] <= 3
            assert snap["inflight_hw"] <= 2

    def test_per_client_limit_leaves_room_for_others(self):
        with serve_ctx(max_inflight=4, max_inflight_per_client=1,
                       max_queue=8) as (srv, _):
            with make_client(srv, "greedy") as g:
                g.create("d", [16, 4], [4, 4])
                g.create("d-light", [16, 4], [4, 4])
            # greedy's array is slow, light's is not
            slow_array(srv, "d", write=0.6)
            start = threading.Barrier(3)
            done = {}

            def hog(i):
                with make_client(srv, "greedy") as cl:
                    start.wait()
                    cl.write("d", (4 * i, 0), np.ones((4, 4)))
                    done[f"greedy{i}"] = time.monotonic()

            def light():
                with make_client(srv, "light") as cl:
                    start.wait()
                    time.sleep(0.15)     # let the hogs queue first
                    cl.write("d-light", (8, 0), np.ones((4, 4)))
                    done["light"] = time.monotonic()

            t0 = time.monotonic()
            ts = [threading.Thread(target=hog, args=(0,)),
                  threading.Thread(target=hog, args=(1,)),
                  threading.Thread(target=light)]
            for t in ts:
                t.start()
            for t in ts:
                t.join(30)
            # the light client was not stuck behind greedy's second
            # request: per-client capping kept a slot free
            assert done["light"] - t0 < 0.6
            assert srv.qos.snapshot()["clients"]["greedy"][
                "inflight_hw"] <= 1


# ---------------------------------------------------------------------------
# range locking (satellite: disjoint overlap, overlapping serialize)
# ---------------------------------------------------------------------------
class TestRangeLocks:
    def test_rwlock_and_chunklocks_units(self):
        rw = ArrayRWLock()
        rw.acquire_shared()
        rw.acquire_shared()            # shared nests
        rw.release_shared()
        rw.release_shared()
        rw.acquire_exclusive()
        rw.release_exclusive()

        locks = ChunkLocks()
        me, other = object(), object()
        taken = locks.acquire([3, 1, 2, 2], me)
        assert taken == [1, 2, 3]      # ascending, deduplicated
        assert locks.held() == 3
        # a cancelled waiter releases everything it took
        scope = CancelScope(Deadline(0.05))
        with pytest.raises(DeadlineError):
            locks.acquire([0, 2], other, scope)
        assert locks.held() == 3       # only `me`'s locks remain
        assert locks.release_owner(me) == 3
        assert locks.held() == 0

    def test_disjoint_writes_overlap_in_time(self):
        """Two writers on disjoint chunk ranges hold their slow-array
        sleep concurrently: wall time ~ max, not sum."""
        with serve_ctx(max_inflight=4) as (srv, _):
            with make_client(srv, "w0") as c:
                c.create("par", [16, 16], [4, 4])
            slow_array(srv, "par", write=0.5)
            spans = {}

            def writer(name, row):
                with make_client(srv, name) as cl:
                    t0 = time.monotonic()
                    cl.write("par", (row, 0), np.full((4, 16), float(row)))
                    spans[name] = (t0, time.monotonic())

            ts = [threading.Thread(target=writer, args=(f"w{i}", 4 * i))
                  for i in range(2)]
            wall0 = time.monotonic()
            for t in ts:
                t.start()
            for t in ts:
                t.join(30)
            wall = time.monotonic() - wall0
            # serial execution would need >= 1.0 s of locked delay
            assert wall < 0.9, f"disjoint writers serialized: {wall:.2f}s"
            (a0, a1), (b0, b1) = spans["w0"], spans["w1"]
            assert a0 < b1 and b0 < a1, "writer spans did not overlap"
            with make_client(srv, "check") as cl:
                got = cl.read("par", (0, 0), (8, 16))
                assert np.array_equal(got[0:4], np.zeros((4, 16)))
                assert np.array_equal(got[4:8], np.full((4, 16), 4.0))

    def test_overlapping_writes_serialize_deterministically(self):
        """Two writers on the same box serialize on the chunk locks;
        the final contents equal the writer holding the larger apply
        sequence number — byte for byte."""
        with serve_ctx(max_inflight=4) as (srv, _):
            with make_client(srv, "seed") as c:
                c.create("ser", [8, 8], [4, 4])
            slow_array(srv, "ser", write=0.4)
            results = {}

            def writer(tag, value):
                with make_client(srv, tag) as cl:
                    t0 = time.monotonic()
                    ack = cl.write("ser", (0, 0), np.full((8, 8), value))
                    results[tag] = (ack["seq"], value,
                                    t0, time.monotonic())

            ts = [threading.Thread(target=writer, args=("a", 11.0)),
                  threading.Thread(target=writer, args=("b", 22.0))]
            wall0 = time.monotonic()
            for t in ts:
                t.start()
            for t in ts:
                t.join(30)
            wall = time.monotonic() - wall0
            assert wall >= 0.75, \
                f"overlapping writers ran concurrently: {wall:.2f}s"
            (seq_a, val_a, *_), (seq_b, val_b, *_) = \
                results["a"], results["b"]
            assert seq_a != seq_b
            winner_val = val_a if seq_a > seq_b else val_b
            with make_client(srv, "check") as cl:
                got = cl.read("ser", (0, 0), (8, 8))
                assert np.array_equal(got, np.full((8, 8), winner_val))

    def test_structural_op_excludes_data_ops(self):
        """extend takes the array lock exclusive: a write in flight
        finishes first, and the extend's shape change is atomic."""
        with serve_ctx(max_inflight=4) as (srv, _):
            with make_client(srv, "s") as c:
                c.create("x", [8, 8], [4, 4])
            slow_array(srv, "x", write=0.5)
            base = time.monotonic()
            times = {}

            def slow_write():
                with make_client(srv, "wrt") as cl:
                    cl.write("x", (0, 0), np.ones((8, 8)))
                    times["write_done"] = time.monotonic() - base

            def extender():
                time.sleep(0.15)   # start while the write holds shared
                with make_client(srv, "ext") as cl:
                    t0 = time.monotonic() - base
                    cl.extend("x", to=[12, 8])
                    times["extend_span"] = (t0, time.monotonic() - base)

            ts = [threading.Thread(target=slow_write),
                  threading.Thread(target=extender)]
            for t in ts:
                t.start()
            for t in ts:
                t.join(30)
            # the extend was issued mid-write but could not finish
            # until the writer released its shared hold
            t0, t1 = times["extend_span"]
            assert t0 < 0.4, "extend was not issued mid-write"
            assert t1 >= 0.45, \
                f"extend finished at {t1:.2f}s, before the write"
            with make_client(srv, "chk") as cl:
                assert cl.open("x")["shape"] == [12, 8]


# ---------------------------------------------------------------------------
# graceful drain and abrupt disconnect
# ---------------------------------------------------------------------------
class TestDrainAndDisconnect:
    def test_kill_ends_the_accept_loop_at_once(self):
        """The listener is shut down, not just closed, so the accept
        loop leaves at once instead of at its next poll timeout — a
        killed daemon's acceptor must not live on beside the daemon
        restarted in its place."""
        with serve_ctx() as (srv, _):
            srv._listener.settimeout(30.0)   # a poll that never ends
            time.sleep(0.5)                  # ... that the loop is now in
            srv.kill()
            srv._accept_thread.join(5.0)
            assert not srv._accept_thread.is_alive()

    def test_drain_finishes_inflight_and_keeps_acked_writes(self):
        with serve_ctx() as (srv, fs):
            with make_client(srv, "d") as c:
                c.create("keep", [8, 8], [4, 4])
                slow_array(srv, "keep", write=0.5)
                acked = np.full((8, 8), 3.5)
                results = {}

                def slow():
                    results["ack"] = c.write("keep", (0, 0), acked)
                t = threading.Thread(target=slow)
                t.start()
                time.sleep(0.2)        # request is mid-flight
                srv.shutdown(drain=True)
                t.join(10)
                assert "ack" in results, "in-flight write was dropped"
            assert srv.state == DRXServer.DEAD
            # the acked write is on the substrate
            f = DRXFile.open_pfs(fs, "keep")
            assert np.array_equal(f.read((0, 0), (8, 8)), acked)
            f.close()

    def test_drain_refuses_new_work_with_retry_later(self):
        with serve_ctx() as (srv, _):
            with make_client(srv, "d2") as c, \
                    make_client(srv, "holder") as holder, \
                    make_client(srv, "newcomer", max_retries=0) as nc:
                c.create("nd", [4], [2])
                slow_array(srv, "nd", write=1.0)
                nc.ping()          # connect before the listener closes
                hold = threading.Thread(
                    target=holder.write, args=("nd", [0], np.ones(4)))
                hold.start()
                time.sleep(0.2)
                drainer = threading.Thread(target=srv.shutdown,
                                           kwargs={"drain": True})
                drainer.start()
                time.sleep(0.2)        # drain has begun, not finished
                # existing connections get an explicit refusal...
                with pytest.raises(ServeError, match="draining"):
                    nc.read("nd", [0], [4])
                # ...while brand-new connections cannot even attach
                with pytest.raises(OSError):
                    socket.create_connection(srv.address, timeout=2.0)
                hold.join(10)
                drainer.join(10)
                assert srv.state == DRXServer.DEAD

    def test_sigterm_drains(self):
        """SIGTERM → stop accepting, finish in-flight, flush, exit —
        exercised on a real subprocess via the CLI (see TestCLI); here
        the handler wiring is driven in-process."""
        with serve_ctx() as (srv, fs):
            old_term = signal.getsignal(signal.SIGTERM)
            old_int = signal.getsignal(signal.SIGINT)
            try:
                srv.install_signal_handlers()
                with make_client(srv, "sig") as c:
                    c.create("s", [4], [2])
                    c.write("s", [0], np.arange(4.0))
                os.kill(os.getpid(), signal.SIGTERM)
                assert srv.wait(10.0), "SIGTERM did not drain"
            finally:
                signal.signal(signal.SIGTERM, old_term)
                signal.signal(signal.SIGINT, old_int)
            f = DRXFile.open_pfs(fs, "s")
            assert np.array_equal(f.read([0], [4]), np.arange(4.0))
            f.close()

    def test_partial_frame_disconnect_is_harmless(self):
        with serve_ctx() as (srv, _):
            with make_client(srv, "ok") as c:
                c.create("h", [4], [2])
            # open a raw connection, send half a frame, vanish
            raw = socket.create_connection(srv.address)
            raw.sendall(struct.pack("!IBII", 64, protocol.REQ, 0, 32))
            raw.sendall(b"{")          # 1 of 55 remaining bytes
            raw.close()
            time.sleep(0.2)
            # the daemon is unbothered: no lock leaked, still serving
            with make_client(srv, "after") as c2:
                c2.write("h", [0], np.ones(4))
                st = c2.stats()
                assert st["chunk_locks_held"] == 0
                assert st["state"] == "running"

    def test_disconnect_before_reply_preserves_consistency(self):
        """A client that dies while its write is in flight: the write
        either fully lands or not; locks are always released."""
        with serve_ctx() as (srv, _):
            with make_client(srv, "setup") as c:
                c.create("g", [8, 8], [4, 4])
                base = np.full((8, 8), 1.0)
                c.write("g", (0, 0), base)
            slow_array(srv, "g", write=0.4)
            victim = socket.create_connection(srv.address)
            # fire a slow write, then tear the socket down mid-flight
            hdr = {"verb": "write", "client": "victim", "attempt": 0,
                   "rid": 1, "name": "g", "lo": [0, 0], "shape": [8, 8],
                   "dtype": "<f8", "sid": "victim-session", "seq": 1}
            protocol.send_frame(victim, protocol.REQ, hdr,
                                np.full((8, 8), 9.0).tobytes())
            time.sleep(0.1)
            victim.close()
            time.sleep(0.8)            # let the server finish/clean up
            with make_client(srv, "check") as c2:
                got = c2.read("g", (0, 0), (8, 8))
                assert (np.array_equal(got, base)
                        or np.array_equal(got, np.full((8, 8), 9.0)))
                assert c2.stats()["chunk_locks_held"] == 0


class TestHostileWire:
    @pytest.mark.parametrize("bad", [
        {}, {"rid": None}, {"rid": "x"}, {"rid": [1]}, {"rid": -1},
        {"rid": 1.5}, {"rid": True}])
    def test_bad_rid_is_refused_and_connection_survives(self, bad):
        """A REQ whose rid is missing or not a non-negative integer
        gets one fatal ERR — no dispatch, no admission slot — and the
        next well-formed frame on the same connection is served."""
        with serve_ctx() as (srv, _):
            raw = socket.create_connection(srv.address, timeout=5.0)
            try:
                protocol.send_frame(raw, protocol.REQ, dict(
                    bad, verb="create", client="h", name="never",
                    bounds=[4], chunk=[2]))
                kind, hdr, _ = protocol.recv_frame(raw)
                assert kind == protocol.ERR
                assert not hdr["transient"] and "rid" not in hdr
                assert "rid" in hdr["message"]
                protocol.send_frame(raw, protocol.REQ, {
                    "verb": "ping", "client": "h", "rid": 0})
                kind, hdr, _ = protocol.recv_frame(raw)
                assert (kind, hdr["rid"], hdr["pong"]) == \
                    (protocol.OK, 0, True)
            finally:
                raw.close()
            snap = srv.stats_snapshot()
            assert snap["arrays"] == [] and snap["inflight"] == 0
            assert snap["qos"]["totals"].get("requests", 0) == 0

    @pytest.mark.parametrize("verb", ["frobnicate", None, ["read"], 7])
    def test_unknown_verb_mid_pipeline_echoes_rid(self, verb):
        with serve_ctx() as (srv, _):
            raw = socket.create_connection(srv.address, timeout=5.0)
            try:
                for rid, v in enumerate(["ping", verb, "ping"]):
                    protocol.send_frame(raw, protocol.REQ, {
                        "verb": v, "client": "h", "rid": rid})
                replies = {}
                for _ in range(3):
                    kind, hdr, _ = protocol.recv_frame(raw)
                    replies[hdr["rid"]] = (kind, hdr)
            finally:
                raw.close()
            assert replies[0][0] == replies[2][0] == protocol.OK
            kind, hdr = replies[1]
            assert kind == protocol.ERR and not hdr["transient"]
            assert "unknown verb" in hdr["message"]
            assert srv.stats_snapshot()["inflight"] == 0

    @pytest.mark.parametrize("form", ["write", "extend", "batch"])
    def test_unkeyed_mutation_is_refused_before_journaling(self, form):
        """A mutation without its ``sid``/``seq`` idempotency key — raw,
        or as a batch sub-op — gets one fatal ERR with the rid echoed:
        nothing journaled or deduped, no admission slot kept, and the
        connection still serves."""
        with serve_ctx() as (srv, _):
            with make_client(srv, "setup") as c:
                c.create("k", [8], [4])
                c.write("k", [0], np.ones(8))
            entry = srv._entry("k")
            size, deduped = entry.journal.size, len(entry.dedup)
            hdr = {"verb": "write", "name": "k", "lo": [0], "shape": [4],
                   "dtype": "<f8"}
            payload = np.zeros(4).tobytes()
            if form == "extend":
                hdr, payload = {"verb": "extend", "name": "k", "dim": 0,
                                "by": 4}, b""
            elif form == "batch":
                hdr = {"verb": "batch",
                       "ops": [dict(hdr, nbytes=len(payload))]}
            raw = socket.create_connection(srv.address, timeout=5.0)
            try:
                protocol.send_frame(raw, protocol.REQ,
                                    dict(hdr, client="h", rid=7), payload)
                kind, rep, _ = protocol.recv_frame(raw)
                assert rep["rid"] == 7
                if form == "batch":
                    assert kind == protocol.OK
                    (res,) = rep["results"]
                    kind, rep = res["kind"], res["header"]
                assert kind == protocol.ERR and not rep["transient"]
                assert "idempotency key" in rep["message"]
                protocol.send_frame(raw, protocol.REQ, {
                    "verb": "ping", "client": "h", "rid": 8})
                kind, rep, _ = protocol.recv_frame(raw)
                assert (kind, rep["rid"], rep["pong"]) == \
                    (protocol.OK, 8, True)
            finally:
                raw.close()
            assert entry.journal.size == size
            assert len(entry.dedup) == deduped
            snap = srv.stats_snapshot()
            assert snap["inflight"] == 0
            assert snap["qos"]["clients"]["h"]["errors"] == 1

    @pytest.mark.parametrize("window", [None, 1])
    @pytest.mark.parametrize("form,bad", [
        ("op", {"attempt": "again"}), ("op", {"attempt": [1]}),
        ("op", {"timeout": "soon"}), ("op", {"timeout": {"s": 1}}),
        ("batch", {"timeout": "soon"}), ("batch", {"attempt": "again"})],
        ids=["attempt-str", "attempt-list", "timeout-str",
             "timeout-dict", "batch-timeout", "batch-attempt"])
    def test_non_numeric_attempt_or_timeout_gets_one_err(self, form, bad,
                                                         window):
        """A REQ whose ``attempt`` or ``timeout`` is not a number — or
        a batch frame whose is — gets exactly one fatal ERR echoing its
        rid instead of no reply at all: never admitted nor counted, and
        the connection (whether the reader or a worker answered) still
        serves."""
        with serve_ctx() as (srv, _):
            with make_client(srv, "setup") as c:
                c.create("num", [4], [2])
            hdr = {"verb": "read", "name": "num", "lo": [0], "hi": [4]}
            if form == "batch":
                hdr = {"verb": "batch", "ops": [dict(hdr, nbytes=0)]}
            hdr.update(bad, client="h", rid=3)
            if window is not None:
                hdr["window"] = window
            raw = socket.create_connection(srv.address, timeout=2.0)
            try:
                protocol.send_frame(raw, protocol.REQ, hdr)
                kind, rep, _ = protocol.recv_frame(raw)
                assert (kind, rep["rid"]) == (protocol.ERR, 3)
                assert not rep["transient"]
                assert next(iter(bad)) in rep["message"]
                protocol.send_frame(raw, protocol.REQ, {
                    "verb": "ping", "client": "h", "rid": 4})
                kind, rep, _ = protocol.recv_frame(raw)
                assert (kind, rep["rid"], rep["pong"]) == \
                    (protocol.OK, 4, True)
            finally:
                raw.close()
            snap = srv.stats_snapshot()
            assert snap["inflight"] == 0
            assert "h" not in snap["qos"]["clients"]

    @pytest.mark.parametrize("window", [None, 1])
    def test_exception_escaping_a_handler_is_still_answered(self, window):
        """A batch op whose ``nbytes`` is not an integer raises out of
        the frame's parsing: the request still gets its one ERR, and
        the reader — whether it ran the handler or a worker did — keeps
        serving the connection."""
        with serve_ctx() as (srv, _):
            raw = socket.create_connection(srv.address, timeout=2.0)
            try:
                hdr = {"verb": "batch", "client": "h", "rid": 5,
                       "ops": [{"verb": "ping", "nbytes": "x"}]}
                if window is not None:
                    hdr["window"] = window
                protocol.send_frame(raw, protocol.REQ, hdr)
                kind, rep, _ = protocol.recv_frame(raw)
                assert (kind, rep["rid"]) == (protocol.ERR, 5)
                protocol.send_frame(raw, protocol.REQ, {
                    "verb": "ping", "client": "h", "rid": 6})
                kind, rep, _ = protocol.recv_frame(raw)
                assert (kind, rep["rid"], rep["pong"]) == \
                    (protocol.OK, 6, True)
            finally:
                raw.close()
            assert srv.stats_snapshot()["inflight"] == 0

    @staticmethod
    def _one_reply_then_ping(srv, header, payload=b""):
        """Send one raw REQ (rid 9), read its one reply, then check that
        the same connection still answers a ping; the reply's kind and
        header."""
        raw = socket.create_connection(srv.address, timeout=5.0)
        try:
            protocol.send_frame(raw, protocol.REQ,
                                dict(header, client="h", rid=9), payload)
            kind, rep, _ = protocol.recv_frame(raw)
            assert rep["rid"] == 9
            protocol.send_frame(raw, protocol.REQ, {
                "verb": "ping", "client": "h", "rid": 10})
            k, pong, _ = protocol.recv_frame(raw)
            assert (k, pong["rid"], pong["pong"]) == (protocol.OK, 10, True)
        finally:
            raw.close()
        return kind, rep

    @pytest.mark.parametrize("window", [None, 1])
    @pytest.mark.parametrize("verb,fields", [
        ("write", {"lo": [1.5]}), ("write", {"shape": [2.0]}),
        ("extend", {"to": [8.5]}), ("extend", {"dim": 0, "by": 1.5}),
        ("extend", {"dim": 0.0, "by": 4})],
        ids=["write-lo", "write-shape", "extend-to", "extend-by",
             "extend-dim"])
    def test_float_corner_gets_one_err_and_changes_nothing(
            self, verb, fields, window):
        """The wire is as strict as ``DRXFile``: a write corner or
        extent, or an extend target, that is not an integer — even an
        integral float — is refused with one fatal ERR, nothing is
        journaled or applied, and the connection still serves."""
        with serve_ctx() as (srv, _):
            with make_client(srv, "setup") as c:
                c.create("f", [8], [4])
                c.write("f", [0], np.arange(8.0))
            entry = srv._entry("f")
            size = entry.journal.size
            hdr = {"verb": verb, "name": "f", "sid": "h", "seq": 1}
            payload = b""
            if verb == "write":
                hdr.update(lo=[1], shape=[2], dtype="<f8")
                payload = np.full(2, -1.0).tobytes()
            hdr.update(fields)
            if window is not None:
                hdr["window"] = window
            kind, rep = self._one_reply_then_ping(srv, hdr, payload)
            assert kind == protocol.ERR and not rep["transient"]
            assert "integers" in rep["message"]
            assert entry.journal.size == size
            assert entry.file.shape == (8,)
            assert np.array_equal(entry.file.read(), np.arange(8.0))
            assert srv.stats_snapshot()["inflight"] == 0

    def test_client_refuses_a_float_corner_before_sending(self):
        """``DRXClient`` raises ``DRXIndexError`` for a float corner,
        extent or extend argument before any frame leaves: the daemon
        counts no request from it."""
        with serve_ctx() as (srv, _):
            with make_client(srv, "c") as c:
                c.create("f", [8], [4])
                calls = [lambda: c.read("f", [1.5], [3]),
                         lambda: c.read("f", [0], [np.float64(4)]),
                         lambda: c.write("f", [1.0], np.ones(2)),
                         lambda: c.extend("f", to=[9.5]),
                         lambda: c.extend("f", dim=0, by=2.0),
                         lambda: c.create("g", [8.0], [4])]
                for call in calls:
                    with pytest.raises(DRXIndexError):
                        call()
                requests = srv.stats_snapshot()["qos"]["clients"]["c"][
                    "requests"]
                assert c.read("f", [0], [4]).shape == (4,)
            snap = srv.stats_snapshot()
            assert snap["qos"]["clients"]["c"]["requests"] == requests + 1
            assert srv._entry("f").file.shape == (8,)

    @pytest.mark.parametrize("window", [None, 1])
    @pytest.mark.parametrize("verb", ["read", "write"])
    @pytest.mark.parametrize("lo,hi", [
        ([-1, 0], [2, 2]), ([0, -3], [2, 2]),
        ([10 ** 30, 0], [10 ** 30 + 2, 2]), ([0, 0], [2, 10 ** 30]),
        ([3, 3], [3, 5]), ([3, 3], [5, 2])],
        ids=["negative", "negative-inner", "huge", "huge-hi", "empty",
             "inverted"])
    def test_hostile_box_gets_one_err_and_leaks_nothing(self, lo, hi, verb,
                                                        window):
        """A negative, huge, empty or inverted box is refused with one
        fatal ERR on either dispatch path; afterwards the connection
        serves a ping, no admission slot is held, no chunk lock or array
        hold is left and the array is unchanged."""
        with serve_ctx() as (srv, _):
            ref = np.arange(64.0).reshape(8, 8)
            with make_client(srv, "setup") as c:
                c.create("b", [8, 8], [4, 4])
                c.write("b", [0, 0], ref)
            entry = srv._entry("b")
            size = entry.journal.size
            hdr = {"verb": verb, "name": "b", "lo": lo}
            payload = b""
            if verb == "read":
                hdr["hi"] = hi
            else:
                shape = [h - l for l, h in zip(lo, hi)]
                hdr.update(shape=shape, dtype="<f8", sid="h", seq=1)
                # a huge box cannot carry its payload: at most 64 values
                payload = np.zeros(min(max(0, math.prod(shape)),
                                       64)).tobytes()
            if window is not None:
                hdr["window"] = window
            kind, rep = self._one_reply_then_ping(srv, hdr, payload)
            assert kind == protocol.ERR and not rep["transient"]
            self._assert_nothing_leaked(srv, entry, size, ref)

    @pytest.mark.parametrize("window", [None, 1])
    @pytest.mark.parametrize("nvalues", [0, 3, 5, 4.5],
                             ids=["empty", "short", "long", "torn-item"])
    def test_write_payload_not_matching_its_shape_gets_one_err(
            self, nvalues, window):
        """A write whose payload is not ``shape`` × dtype bytes — none,
        an element short or over, or not a whole number of elements —
        gets one fatal ERR and leaks nothing."""
        with serve_ctx() as (srv, _):
            ref = np.arange(64.0).reshape(8, 8)
            with make_client(srv, "setup") as c:
                c.create("b", [8, 8], [4, 4])
                c.write("b", [0, 0], ref)
            entry = srv._entry("b")
            size = entry.journal.size
            payload = np.zeros(8).tobytes()[:int(nvalues * 8)]
            hdr = {"verb": "write", "name": "b", "lo": [2, 2],
                   "shape": [2, 2], "dtype": "<f8", "sid": "h", "seq": 1}
            if window is not None:
                hdr["window"] = window
            kind, rep = self._one_reply_then_ping(srv, hdr, payload)
            assert kind == protocol.ERR and not rep["transient"]
            self._assert_nothing_leaked(srv, entry, size, ref)

    @staticmethod
    def _assert_nothing_leaked(srv, entry, journal_size, ref):
        assert srv.admission.inflight == 0
        assert srv.stats_snapshot()["inflight"] == 0
        assert entry.chunks.held() == 0
        assert entry.rw.held() == (0, False)
        assert entry.journal.size == journal_size
        assert np.array_equal(entry.file.read(), ref)

    def test_client_cannot_make_the_daemon_sleep(self):
        """No header makes the daemon sleep: a write carrying
        ``"_delay": 3600`` and no timeout is served at full speed, and
        another client's extend of the same array — which needs the
        array lock exclusive — gets through within its own budget."""
        with serve_ctx() as (srv, _):
            with make_client(srv, "setup") as c:
                c.create("nap", [4], [2])
            raw = socket.create_connection(srv.address, timeout=5.0)
            try:
                t0 = time.monotonic()
                protocol.send_frame(raw, protocol.REQ, {
                    "verb": "write", "client": "sleeper", "rid": 1,
                    "name": "nap", "lo": [0], "shape": [4],
                    "dtype": "<f8", "sid": "sleeper", "seq": 1,
                    "_delay": 3600}, np.ones(4).tobytes())
                raw.settimeout(1.0)
                kind, rep, _ = protocol.recv_frame(raw)
                assert (kind, rep["rid"]) == (protocol.OK, 1)
                assert time.monotonic() - t0 < 1.0
            finally:
                raw.close()
            with make_client(srv, "other", timeout=2.0) as c2:
                assert c2.extend("nap", dim=0, by=2)["shape"] == [6]
                assert np.array_equal(c2.read("nap", [0], [4]),
                                      np.ones(4))


# ---------------------------------------------------------------------------
# chaos: kill the daemon at every server.kill.daemon.* site
# ---------------------------------------------------------------------------
def _daemon_workload(client):
    """The canonical mutating workload: idempotent, so re-running it
    after a crash converges to the same bytes."""
    client.create("vol", [16, 16], [4, 4], exists_ok=True)
    client.extend("vol", to=[16, 24])
    client.write("vol", (0, 0),
                 np.arange(128, dtype="<f8").reshape(8, 16))
    client.write("vol", (8, 16),
                 np.full((8, 8), 5.5))
    client.flush("vol")


def _expected_volume():
    want = np.zeros((16, 24))
    want[0:8, 0:16] = np.arange(128, dtype="<f8").reshape(8, 16)
    want[8:16, 16:24] = 5.5
    return want


class TestChaosDaemonKill:
    def test_daemon_sites_registered(self):
        assert set(DAEMON_SITES) == {
            "server.kill.daemon.admitted",
            "server.kill.daemon.locked",
            "server.kill.daemon.journaled",
            "server.kill.daemon.applied",
            "server.kill.daemon.drain.flush",
        }
        # and they are NOT part of the PFS kill-site sweep
        assert not set(DAEMON_SITES) & set(KILL_SITES)

    @pytest.mark.parametrize("site", [
        "server.kill.daemon.admitted",
        "server.kill.daemon.locked",
        "server.kill.daemon.applied",
    ])
    def test_kill_at_request_site_then_restart_bit_identical(self, site):
        fs = ParallelFileSystem(nservers=3, stripe_size=1024)
        srv = DRXServer(fs=fs).start()
        plan = FaultPlan(seed=SEED).crash(site, after=2)
        with make_client(srv, "chaos", max_retries=1) as c:
            with plan:
                with pytest.raises(Exception):
                    _daemon_workload(c)
        assert srv.state == DRXServer.DEAD, f"{site}: daemon survived"
        assert plan.hits.get(site), f"{site} never fired"
        # restart a fresh daemon on the same substrate; the client
        # re-runs the whole workload and must converge bit-identically
        srv2 = DRXServer(fs=fs).start()
        try:
            with make_client(srv2, "chaos") as c2:
                _daemon_workload(c2)
                got = c2.read("vol", (0, 0), (16, 24))
                assert np.array_equal(got, _expected_volume()), site
        finally:
            srv2.shutdown(drain=True)

    def test_kill_during_drain_flush_then_restart(self):
        fs = ParallelFileSystem(nservers=3, stripe_size=1024)
        srv = DRXServer(fs=fs).start()
        with make_client(srv, "chaos") as c:
            _daemon_workload(c)
        with FaultPlan(seed=SEED).crash("server.kill.daemon.drain.flush"):
            srv.shutdown(drain=True)
        assert srv.state == DRXServer.DEAD
        srv2 = DRXServer(fs=fs).start()
        try:
            with make_client(srv2, "chaos") as c2:
                _daemon_workload(c2)
                got = c2.read("vol", (0, 0), (16, 24))
                assert np.array_equal(got, _expected_volume())
        finally:
            srv2.shutdown(drain=True)

    def test_client_classifies_kill_as_transient_and_recovers(self):
        """The killed daemon is restarted *on the same port* while the
        client is mid-retry: the stub reconnects and succeeds without
        the caller seeing anything."""
        fs = ParallelFileSystem(nservers=3, stripe_size=1024)
        srv = DRXServer(fs=fs).start()
        host, port = srv.address
        with make_client(srv, "heal", max_retries=40,
                         seed=SEED) as c:
            c.create("r", [8, 8], [4, 4])
            restarted = {}

            def restart_soon():
                # wait for the kill, then resurrect on the same port
                while srv.state != DRXServer.DEAD:
                    time.sleep(0.01)
                srv2 = DRXServer(fs=fs, host=host, port=port)
                for _ in range(50):
                    try:
                        srv2.start()
                        break
                    except OSError:
                        time.sleep(0.05)
                restarted["srv"] = srv2
            t = threading.Thread(target=restart_soon)
            t.start()
            with FaultPlan(seed=SEED).crash(
                    "server.kill.daemon.applied"):
                ack = c.write("r", (0, 0), np.full((8, 8), 2.5))
            t.join(10)
            assert ack["seq"] >= 1
            assert c.retries > 0
            assert np.array_equal(c.read("r", (0, 0), (8, 8)),
                                  np.full((8, 8), 2.5))
        restarted["srv"].shutdown(drain=True)


# ---------------------------------------------------------------------------
# QoS counters and the CLI
# ---------------------------------------------------------------------------
class TestStatsAndCLI:
    def test_stats_verb_exposes_qos_and_substrate(self):
        with serve_ctx() as (srv, _):
            with make_client(srv, "tenant-a") as a, \
                    make_client(srv, "tenant-b") as b:
                a.create("s", [8, 8], [4, 4])
                a.write("s", (0, 0), np.ones((8, 8)))
                b.read("s", (0, 0), (8, 8))
                st = a.stats()
                qa = st["qos"]["clients"]["tenant-a"]
                qb = st["qos"]["clients"]["tenant-b"]
                assert qa["bytes_written"] == 8 * 8 * 8
                assert qb["bytes_read"] == 8 * 8 * 8
                assert qa["requests"] == qa["ok"] == 2
                assert st["qos"]["totals"]["requests"] == 3
                # the shared-substrate summary rides along
                assert st["pfs"]["nservers"] == 3
                assert st["pfs"]["total"]["requests"] > 0
                assert st["pfs"]["alive_servers"] == [0, 1, 2]
                assert json.dumps(st)   # JSON-able end to end

    def test_dump_stats_cli(self, capsys):
        from repro.serve.cli import main
        with serve_ctx() as (srv, _):
            with make_client(srv, "cli") as c:
                c.create("t", [4], [2])
                c.write("t", [0], np.ones(4))
            host, port = srv.address
            rc = main(["--dump-stats", "--host", host,
                       "--port", str(port)])
            assert rc == 0
            out = json.loads(capsys.readouterr().out)
            assert out["qos"]["clients"]["cli"]["ok"] == 2
            # control-plane queries don't pollute the QoS table
            assert "drx-serve-cli" not in out["qos"]["clients"]

    def test_cli_daemon_subprocess_sigterm_drain(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(os.path.join(os.getcwd(), "src")),
             env.get("PYTHONPATH", "")])
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve",
             "--root", str(tmp_path), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env)
        try:
            line = proc.stdout.readline()
            assert "listening on" in line, line
            port = int(line.rsplit(":", 1)[1])
            with DRXClient(("127.0.0.1", port), client_id="sub",
                           timeout=15.0) as c:
                c.create("sub", [4, 4], [2, 2])
                c.write("sub", (0, 0), np.full((4, 4), 8.0))
                assert c.ping()["pong"]
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=20)
            assert rc == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        # the drained daemon flushed the array to its root
        f = DRXFile.open(tmp_path / "sub")
        assert np.array_equal(f.read((0, 0), (4, 4)),
                              np.full((4, 4), 8.0))
        f.close()


# ---------------------------------------------------------------------------
# pipelining and batching
# ---------------------------------------------------------------------------
def conservation_holds(snap: dict) -> bool:
    tot = snap["qos"]["totals"] if "qos" in snap else snap["totals"]
    return tot["requests"] == (tot["ok"] + tot["errors"]
                               + tot["retry_later"]
                               + tot["deadline_misses"])


class TestDispatch:
    def test_synchronous_client_starts_no_worker_thread(self):
        """Every call of a ``DRXClient`` is stamped ``window: 1`` and
        answered by its connection's reader: the connection never
        starts a ``drx-serve-op`` worker."""
        def workers():
            return {t.ident for t in threading.enumerate()
                    if t.name == "drx-serve-op"}

        with serve_ctx() as (srv, _):
            before = workers()
            with make_client(srv, "sync") as c:
                c.create("s", [8, 8], [4, 4])
                c.write("s", (0, 0), np.ones((8, 8)))
                assert np.array_equal(c.read("s", (0, 0), (8, 8)),
                                      np.ones((8, 8)))
                assert c.extend("s", dim=0, by=4)["shape"] == [12, 8]
                (hdr, _), = c.batch([{"verb": "read", "name": "s",
                                      "lo": [0, 0], "hi": [4, 4]}])
                assert hdr["shape"] == [4, 4]
                assert c.ping()["pong"]
                assert workers() - before == set()

    def test_window_one_sent_back_to_back_is_answered_in_order(self):
        """A raw client stamps ``window: 1`` but sends a slow write and
        a read of the same box without waiting: it only serialises its
        own connection — both replies arrive, in order, and the read
        sees the write."""
        with serve_ctx() as (srv, _):
            with make_client(srv, "setup") as c:
                c.create("w1", [4, 4], [2, 2])
            slow_array(srv, "w1", write=0.2)
            raw = socket.create_connection(srv.address, timeout=5.0)
            try:
                protocol.send_frame(raw, protocol.REQ, {
                    "verb": "write", "client": "liar", "rid": 1,
                    "window": 1, "name": "w1", "lo": [0, 0],
                    "shape": [4, 4], "dtype": "<f8", "sid": "liar",
                    "seq": 1}, np.full((4, 4), 7.0).tobytes())
                protocol.send_frame(raw, protocol.REQ, {
                    "verb": "read", "client": "liar", "rid": 2,
                    "window": 1, "name": "w1", "lo": [0, 0],
                    "hi": [4, 4]})
                first = protocol.recv_frame(raw)
                second = protocol.recv_frame(raw)
            finally:
                raw.close()
            kind, hdr, _ = first
            assert (kind, hdr["rid"], hdr["nbytes"]) == \
                (protocol.OK, 1, 4 * 4 * 8)
            kind, hdr, payload = second
            assert (kind, hdr["rid"]) == (protocol.OK, 2)
            got = np.frombuffer(payload, dtype=hdr["dtype"]) \
                .reshape(hdr["shape"])
            assert np.array_equal(got, np.full((4, 4), 7.0))


class TestPipeline:
    def test_many_in_flight_bit_identical(self):
        with serve_ctx(max_inflight=8) as (srv, _):
            with make_client(srv, "piped") as c:
                rng = np.random.default_rng(SEED)
                names = [f"p{i}" for i in range(4)]
                blocks = {}
                for n in names:
                    c.create(n, [16, 16], [8, 8])
                    blocks[n] = rng.random((16, 16))
                with c.pipeline(depth=32) as pipe:
                    pends = [pipe.write(n, (0, 0), blocks[n])
                             for n in names]
                    for p in pends:
                        assert p.result()["nbytes"] == 16 * 16 * 8
                    reads = [pipe.read(n, (0, 0), (16, 16))
                             for n in names]
                    for n, r in zip(names, reads):
                        assert np.array_equal(r.result(), blocks[n]), n
                    assert pipe.resends == 0
            snap = srv.qos.snapshot()
            assert conservation_holds({"qos": snap})
            assert snap["totals"]["errors"] == 0

    def test_replies_arrive_out_of_order(self):
        """A slow write does not block a fast ping behind it — the
        whole point of rid-tagged dispatch."""
        with serve_ctx(max_inflight=4) as (srv, _):
            with make_client(srv, "ooo") as c:
                c.create("slow", [4, 4], [2, 2])
                slow_array(srv, "slow", write=0.5)
                with c.pipeline(depth=4) as pipe:
                    slow = pipe.submit(
                        "write", {"name": "slow", "lo": [0, 0],
                                  "shape": [4, 4], "dtype": "<f8"},
                        np.ones((4, 4)).tobytes())
                    fast = pipe.ping()
                    assert fast.result()["pong"]
                    assert not slow.done()   # overtaken on the wire
                    assert slow.result()[0]["nbytes"] == 4 * 4 * 8

    def test_retry_later_resends_one_request_not_the_window(self):
        """Admission pushback on one request re-sends just that
        request; siblings in the window are untouched."""
        with serve_ctx(max_inflight=1, max_inflight_per_client=1,
                       max_queue=0) as (srv, _):
            with make_client(srv, "narrow", max_retries=60,
                             seed=SEED) as c:
                c.create("n", [8, 8], [4, 4])
                slow_array(srv, "n", write=0.02)
                with c.pipeline(depth=8) as pipe:
                    pends = [pipe.submit(
                        "write", {"name": "n", "lo": [0, 0],
                                  "shape": [4, 4], "dtype": "<f8"},
                        np.full((4, 4), float(i)).tobytes())
                        for i in range(6)]
                    for p in pends:
                        assert p.result()[0]["nbytes"] == 4 * 4 * 8
                    assert pipe.resends > 0
            snap = srv.qos.snapshot()
            assert snap["totals"]["retry_later"] > 0
            assert conservation_holds({"qos": snap})

    def test_pipeline_reconnects_and_dedups_exactly_once(self):
        """The connection dies with extends outstanding: the receiver
        reconnects and re-sends under the original keys — extends are
        not idempotent, so exactly-once shows in the final shape."""
        state = {"n": 0}

        def wrapper(sock):
            state["n"] += 1
            fsock = FaultySocket(sock, seed=SEED)
            if state["n"] == 1:
                # sever the wire after a few replies have flowed
                fsock.arm_recv("disconnect", after=4)
            return fsock

        with serve_ctx() as (srv, _):
            with make_client(srv, "setup") as s:
                s.create("g", [4, 2], [2, 2])
            nops = 8
            with DRXClient(srv.address, client_id="pipefault",
                           timeout=60.0, max_retries=60, seed=SEED,
                           socket_wrapper=wrapper) as c:
                with c.pipeline(depth=4) as pipe:
                    pends = [pipe.extend("g", dim=0, by=1)
                             for _ in range(nops)]
                    shapes = [p.result()["shape"] for p in pends]
                assert pipe.resends > 0
                assert sorted(s[0] for s in shapes) == \
                    list(range(5, 5 + nops))
                assert c.open("g")["shape"] == [4 + nops, 2]
            snap = srv.qos.snapshot()
            assert conservation_holds({"qos": snap})
            assert snap["totals"]["dedup_hits"] >= 1


    def test_close_on_idle_pipeline_is_prompt(self):
        """Regression: close() used to stall 2 s joining a receiver
        blocked in recv — the socket is shut down first now."""
        with serve_ctx() as (srv, _):
            with make_client(srv, "idle") as c:
                pipe = c.pipeline(depth=4)
                assert pipe.ping().result()["pong"]
                recv = pipe._recv
                assert recv is not None and recv.is_alive()
                t0 = time.monotonic()
                pipe.close()
                assert time.monotonic() - t0 < 0.25
                assert not recv.is_alive()


class TestBatch:
    def test_one_frame_mixed_ops(self):
        """create + write + read back in ONE round trip, list order."""
        with serve_ctx() as (srv, _):
            with make_client(srv, "batcher") as c:
                block = np.arange(16, dtype="<f8").reshape(4, 4)
                outs = c.batch([
                    {"verb": "create", "name": "bt", "bounds": [4, 4],
                     "chunk": [2, 2], "dtype": "<f8",
                     "checksums": False, "codec": "none",
                     "exists_ok": False},
                    {"verb": "write", "name": "bt", "lo": [0, 0],
                     "shape": [4, 4], "dtype": "<f8",
                     "payload": block.tobytes()},
                    {"verb": "read", "name": "bt", "lo": [0, 0],
                     "hi": [4, 4]},
                ])
                assert len(outs) == 3
                hdr, payload = outs[2]
                got = np.frombuffer(payload, dtype=hdr["dtype"]) \
                    .reshape(hdr["shape"])
                assert np.array_equal(got, block)
            snap = srv.qos.snapshot()
            rec = snap["clients"]["batcher"]
            # one batch frame, three accounted requests
            assert rec["batches"] == 1
            assert rec["requests"] == 3
            assert conservation_holds({"qos": snap})

    def test_batch_verbs_gated(self):
        with serve_ctx() as (srv, _):
            with make_client(srv, "gate") as c:
                # client refuses nesting / shutdown locally
                with pytest.raises(ServeError, match="not allowed"):
                    c.batch([{"verb": "batch", "ops": []}])
                with pytest.raises(ServeError, match="not allowed"):
                    c.batch([{"verb": "shutdown"}])
                # ... and the server gates them even from raw frames
                hdr, _ = c.request(
                    "batch",
                    {"ops": [{"verb": "shutdown", "nbytes": 0}]})
                assert hdr["results"][0]["kind"] == protocol.ERR
                # malformed envelope: fatal, not per-op
                with pytest.raises(ServeError, match="non-empty"):
                    c.request("batch", {"ops": []})
                assert srv.state == DRXServer.RUNNING

    def test_mid_batch_disconnect_exactly_once(self):
        """The batch REQ frame tears mid-wire, then — on retry — the
        reply is lost too; both failures retry under the original
        per-op keys, and every extend still lands exactly once."""
        state = {"n": 0}

        def wrapper(sock):
            state["n"] += 1
            fsock = FaultySocket(sock, seed=SEED)
            if state["n"] == 1:
                fsock.arm_send("torn", after=1, keep=0.5)
            elif state["n"] == 2:
                fsock.arm_recv("disconnect")
            return fsock

        with serve_ctx() as (srv, _):
            with make_client(srv, "setup") as s:
                s.create("mb", [2, 2], [2, 2])
            nops = 6
            with DRXClient(srv.address, client_id="midbatch",
                           timeout=60.0, max_retries=60, seed=SEED,
                           socket_wrapper=wrapper) as c:
                outs = c.batch([{"verb": "extend", "name": "mb",
                                 "dim": 0, "by": 1}
                                for _ in range(nops)])
                shapes = [h["shape"][0] for h, _ in outs]
                assert sorted(shapes) == list(range(3, 3 + nops))
                assert c.open("mb")["shape"] == [2 + nops, 2]
                assert c.retries >= 1
            snap = srv.qos.snapshot()
            assert conservation_holds({"qos": snap})
            # the second connection's batch was answered from dedup
            assert snap["totals"]["dedup_hits"] >= nops

    def test_large_batch_lost_reply_exactly_once(self):
        """Review regression: a batch with more keyed ops than the old
        128-entry dedup LRU, whose reply is lost, must re-apply
        NOTHING on retry — the server's dedup window covers a maximal
        batch, so no fulfilled entry is evicted while still
        retryable."""
        state = {"n": 0}

        def wrapper(sock):
            state["n"] += 1
            fsock = FaultySocket(sock, seed=SEED)
            if state["n"] == 1:
                # lose the batch's reply: the server applies the ops,
                # the client sees a dead connection and retries the
                # whole frame under the original per-op keys
                fsock.arm_recv("disconnect")
            return fsock

        nops = 160          # > the old 128-entry window
        with serve_ctx() as (srv, _):
            with make_client(srv, "setup") as s:
                s.create("big", [2, 2], [2, 2])
            with DRXClient(srv.address, client_id="bigbatch",
                           timeout=120.0, max_retries=8, seed=SEED,
                           socket_wrapper=wrapper) as c:
                outs = c.batch([{"verb": "extend", "name": "big",
                                 "dim": 0, "by": 1}
                                for _ in range(nops)])
                shapes = sorted(h["shape"][0] for h, _ in outs)
                assert shapes == list(range(3, 3 + nops))
                # exactly-once: every extend landed once — a single
                # double-apply would overshoot the final shape
                assert c.open("big")["shape"] == [2 + nops, 2]
            snap = srv.qos.snapshot()
            assert conservation_holds({"qos": snap})
            assert snap["totals"]["dedup_hits"] >= nops

    def test_outcome_is_counted_before_the_result_is_published(self):
        """From the instant ``DedupTable.fulfill`` publishes a keyed
        result, a retry of that key is answered from the cache and its
        client may read the counters: the original's outcome must
        already be counted there, or the client sees ``requests ==
        ok + 1``."""
        with serve_ctx() as (srv, _):
            with make_client(srv, "keyed") as c:
                c.create("pub", [4, 4], [2, 2])
                seen = snapshots_at_fulfill(srv, "pub")
                c.write("pub", (0, 0), np.ones((4, 4)))
                c.extend("pub", dim=0, by=2)
                c.batch([{"verb": "extend", "name": "pub", "dim": 1,
                          "by": 2} for _ in range(3)])
            assert len(seen) == 5
            for snap in seen:
                assert conservation_holds({"qos": snap})

    def test_batch_budget_shared_across_ops(self):
        """The frame's timeout is ONE budget: each sub-op runs on the
        batch's remaining time, so N slow ops cannot consume N x
        timeout of server wall time — ops that start after expiry get
        DEADLINE results."""
        nops = 6
        per_op = 0.2
        with serve_ctx() as (srv, _):
            with make_client(srv, "budget") as c:
                c.create("bb", [4, 4], [2, 2])
                slow_array(srv, "bb", read=per_op)
                t0 = time.monotonic()
                outs = c.batch(
                    [{"verb": "read", "name": "bb", "lo": [0, 0],
                      "hi": [4, 4]}
                     for _ in range(nops)],
                    timeout=2 * per_op + 0.05,
                    return_exceptions=True)
                wall = time.monotonic() - t0
                # the head of the batch ran within budget ...
                assert isinstance(outs[0], tuple)
                # ... the tail deadline-missed instead of each
                # restarting the full timeout (the old bug: all six
                # would succeed after 6 x per_op of server time)
                assert any(isinstance(o, DeadlineError) for o in outs)
                assert isinstance(outs[-1], DeadlineError)
                assert wall < nops * per_op
            snap = srv.qos.snapshot()
            assert conservation_holds({"qos": snap})
            assert snap["totals"]["deadline_misses"] >= 1


class TestZeroCopyRead:
    def test_read_returns_writable_view_not_copy(self):
        with serve_ctx() as (srv, _):
            with make_client(srv, "zc") as c:
                c.create("z", [8, 8], [4, 4])
                block = np.arange(64, dtype="<f8").reshape(8, 8)
                c.write("z", (0, 0), block)
                got = c.read("z", (0, 0), (8, 8))
                assert np.array_equal(got, block)
                # the regression: a view over the reply payload, not a
                # copy — np.frombuffer never owns (or copies) its data
                assert not got.flags.owndata
                assert got.base is not None
                # ... and WRITABLE: the reply frame's buffer is private
                # to this reply, so callers that mutate the result in
                # place (the pre-zero-copy contract) keep working
                assert got.flags.writeable
                got[0, 0] = 123.0
                assert got[0, 0] == 123.0
                # mutating the view touches only this reply's buffer,
                # never the served array
                again = c.read("z", (0, 0), (8, 8))
                assert again[0, 0] == 0.0
                # distinct replies never alias each other
                again[0, 0] = 7.0
                assert got[0, 0] == 123.0

    def test_pipelined_read_is_also_zero_copy(self):
        with serve_ctx() as (srv, _):
            with make_client(srv, "zcp") as c:
                c.create("zp", [4], [2])
                c.write("zp", [0], np.ones(4))
                with c.pipeline() as pipe:
                    got = pipe.read("zp", [0], [4]).result()
                assert np.array_equal(got, np.ones(4))
                assert not got.flags.owndata
                assert got.flags.writeable
                got[0] = 5.0
                assert got[0] == 5.0


# ---------------------------------------------------------------------------
# soak: many clients, mixed ops, no deadlock, counters conserved
# ---------------------------------------------------------------------------
class TestSoak:
    def test_multiclient_soak(self):
        nclients = SOAK_CLIENTS
        seconds = SOAK_SECONDS
        rows_per_client = 4
        shape = [rows_per_client * nclients, 16]
        with serve_ctx(max_inflight=8, max_inflight_per_client=2,
                       max_queue=2 * nclients) as (srv, fs):
            with make_client(srv, "setup") as c:
                c.create("soak", shape, [4, 4])
            stop_at = time.monotonic() + seconds
            issued = [0] * nclients
            last_val = [0.0] * nclients
            failures = []

            def tenant(i):
                rng = np.random.default_rng(SEED * 1000 + i)
                row0 = rows_per_client * i
                try:
                    with make_client(srv, f"soak{i}", max_retries=60,
                                     seed=i, timeout=60.0) as cl:
                        while time.monotonic() < stop_at:
                            op = rng.integers(0, 10)
                            if op < 5:
                                val = float(rng.integers(1, 1000))
                                cl.write("soak", (row0, 0),
                                         np.full((rows_per_client, 16),
                                                 val))
                                last_val[i] = val
                            elif op < 8:
                                got = cl.read(
                                    "soak", (row0, 0),
                                    (row0 + rows_per_client, 16))
                                # own band only ever holds own values
                                assert got.shape == (rows_per_client,
                                                     16)
                                vals = set(np.unique(got))
                                assert vals <= {0.0, last_val[i]} or \
                                    len(vals) == 1
                            elif op < 9:
                                cl.extend("soak", to=shape)  # no-op
                            else:
                                cl.flush("soak")
                            issued[i] += 1
                except Exception as exc:   # noqa: BLE001 - recorded
                    failures.append((i, repr(exc)))

            threads = [threading.Thread(target=tenant, args=(i,))
                       for i in range(nclients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(seconds + 120)
                assert not t.is_alive(), \
                    "soak deadlock: tenant thread never finished"
            assert not failures, failures
            assert sum(issued) > 0
            snap = srv.qos.snapshot()
            # counter conservation per client and in aggregate
            for name, rec in snap["clients"].items():
                assert rec["requests"] == (
                    rec["ok"] + rec["errors"] + rec["retry_later"]
                    + rec["deadline_misses"]), name
            tot = snap["totals"]
            assert tot["requests"] == (
                tot["ok"] + tot["errors"] + tot["retry_later"]
                + tot["deadline_misses"])
            assert tot["errors"] == 0
            # admission bounds were honoured throughout
            assert snap["inflight_hw"] <= 8
            assert snap["queue_depth_hw"] <= 2 * nclients
            # quiescent: nothing in flight, no lock leaked
            st = srv.stats_snapshot()
            assert st["inflight"] == 0
            assert st["chunk_locks_held"] == 0
            # every band holds exactly its tenant's last acked value
            with make_client(srv, "verify") as cl:
                final = cl.read("soak", (0, 0), shape)
            for i in range(nclients):
                band = final[rows_per_client * i:
                             rows_per_client * (i + 1)]
                assert np.array_equal(
                    band, np.full((rows_per_client, 16),
                                  last_val[i])), f"band {i} torn"
            srv.shutdown(drain=True)
            f = DRXFile.open_pfs(fs, "soak")
            assert np.array_equal(f.read((0, 0), shape), final)
            f.close()
