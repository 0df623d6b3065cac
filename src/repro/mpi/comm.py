"""Communicators: point-to-point and collective communication.

The substrate runs one *rank* per Python thread inside one process (see
:mod:`repro.mpi.runner`).  A communicator is a per-rank façade over a
shared structure holding the mailboxes (point-to-point), an abortable
barrier and a bulletin board (collectives).  Semantics follow MPI:

* ``Send``/``Recv`` match on (source, tag) with ``ANY_SOURCE``/``ANY_TAG``
  wildcards and preserve per-(source, dest) message order.  Sends buffer
  eagerly (always legal for an MPI implementation); the test suite's
  deadlock cases therefore use collectives, whose matching *is* strict.
* Upper-case methods move bytes of NumPy buffers (fast path, optionally
  through a derived :class:`~repro.mpi.datatypes.Datatype`); lower-case
  methods move pickled Python objects, exactly like mpi4py.
* Collectives are implemented with a deposit/barrier/read/barrier
  exchange on the shared board, so every rank must call every collective
  in the same order — mismatched collectives hang, and the runner's
  watchdog converts hangs into :class:`~repro.core.errors.MPIError`.
* ``Abort`` trips a shared event that every blocking wait polls, so one
  failing rank wakes all others with :class:`MPIAbort`.
"""

from __future__ import annotations

import pickle
import threading
import time
from collections import deque
from typing import Any, Callable, Sequence

import numpy as np

from ..core.errors import MPIAbort, MPICommError
from .datatypes import Datatype, _as_bytes_view
from .status import ANY_SOURCE, ANY_TAG, Request, Status

__all__ = ["Intracomm", "World", "Op", "SUM", "PROD", "MIN", "MAX",
           "LAND", "LOR", "BAND", "BOR", "ANY_SOURCE", "ANY_TAG"]

_POLL = 0.05  # seconds between abort checks while blocked


# ---------------------------------------------------------------------------
# reduction operators
# ---------------------------------------------------------------------------

class Op:
    """A reduction operator usable with Reduce/Allreduce/Scan."""

    def __init__(self, fn: Callable[[Any, Any], Any], name: str) -> None:
        self.fn = fn
        self.name = name

    def __call__(self, a, b):
        return self.fn(a, b)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Op({self.name})"


SUM = Op(lambda a, b: a + b, "MPI_SUM")
PROD = Op(lambda a, b: a * b, "MPI_PROD")
MIN = Op(lambda a, b: np.minimum(a, b) if isinstance(a, np.ndarray) else min(a, b), "MPI_MIN")
MAX = Op(lambda a, b: np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b), "MPI_MAX")
LAND = Op(lambda a, b: np.logical_and(a, b), "MPI_LAND")
LOR = Op(lambda a, b: np.logical_or(a, b), "MPI_LOR")
BAND = Op(lambda a, b: a & b, "MPI_BAND")
BOR = Op(lambda a, b: a | b, "MPI_BOR")


# ---------------------------------------------------------------------------
# shared infrastructure
# ---------------------------------------------------------------------------

class _AbortableBarrier:
    """A reusable barrier whose waiters notice the world's abort event."""

    def __init__(self, n: int, abort_event: threading.Event) -> None:
        self._n = n
        self._abort = abort_event
        self._cond = threading.Condition()
        self._count = 0
        self._generation = 0

    def wait(self) -> None:
        with self._cond:
            gen = self._generation
            self._count += 1
            if self._count == self._n:
                self._count = 0
                self._generation += 1
                self._cond.notify_all()
                return
            while gen == self._generation:
                self._cond.wait(_POLL)
                if gen != self._generation:
                    break   # barrier completed; ignore a late abort here
                if self._abort.is_set():
                    raise MPIAbort("aborted while waiting at a barrier")


class _Mailbox:
    """Per-rank incoming message queue with (source, tag) matching."""

    def __init__(self, abort_event: threading.Event) -> None:
        self._abort = abort_event
        self._cond = threading.Condition()
        self._queue: deque[tuple[int, int, Any]] = deque()

    def put(self, source: int, tag: int, payload: Any) -> None:
        with self._cond:
            self._queue.append((source, tag, payload))
            self._cond.notify_all()

    def _match(self, source: int, tag: int) -> int | None:
        for i, (s, t, _p) in enumerate(self._queue):
            if (source == ANY_SOURCE or s == source) and \
               (tag == ANY_TAG or t == tag):
                return i
        return None

    def get(self, source: int, tag: int, block: bool = True
            ) -> tuple[int, int, Any] | None:
        with self._cond:
            while True:
                i = self._match(source, tag)
                if i is not None:
                    item = self._queue[i]
                    del self._queue[i]
                    return item
                if not block:
                    return None
                if self._abort.is_set():
                    raise MPIAbort("aborted while waiting in Recv")
                self._cond.wait(_POLL)

    def probe(self, source: int, tag: int, block: bool = True
              ) -> tuple[int, int, Any] | None:
        with self._cond:
            while True:
                i = self._match(source, tag)
                if i is not None:
                    return self._queue[i]
                if not block:
                    return None
                if self._abort.is_set():
                    raise MPIAbort("aborted while waiting in Probe")
                self._cond.wait(_POLL)


class _CommShared:
    """State shared by all ranks of one communicator."""

    def __init__(self, comm_id: tuple, size: int,
                 abort_event: threading.Event) -> None:
        self.comm_id = comm_id
        self.size = size
        self.abort_event = abort_event
        self.mailboxes = [_Mailbox(abort_event) for _ in range(size)]
        self.barrier = _AbortableBarrier(size, abort_event)
        self.board: dict[int, dict[int, Any]] = {}
        self.board_lock = threading.Lock()
        #: pluggable topology: node id per rank (None = every rank on
        #: one node, see Intracomm.node_map)
        self.node_map: list[int] | None = None


class World:
    """Process-global state of one SPMD run (one ``mpiexec`` call)."""

    def __init__(self, size: int) -> None:
        if size < 1:
            raise MPICommError(f"world size must be >= 1, got {size}")
        self.size = size
        self.abort_event = threading.Event()
        self.world_shared = _CommShared(("world",), size, self.abort_event)
        self._registry: dict[tuple, _CommShared] = {
            ("world",): self.world_shared
        }
        self._registry_lock = threading.Lock()
        self.abort_reason: str | None = None
        #: (comm_id, rank) -> collective name, for every rank currently
        #: inside a collective exchange.  The runner's watchdog snapshots
        #: this to name the hung collective and its waiting ranks.
        self.in_collective: dict[tuple, str] = {}
        self.in_collective_lock = threading.Lock()

    def shared_for(self, comm_id: tuple, size: int) -> _CommShared:
        """Get-or-create the shared struct of a derived communicator.

        Every member rank computes the same deterministic ``comm_id``, so
        ``setdefault`` under the lock makes exactly one struct.
        """
        with self._registry_lock:
            sh = self._registry.get(comm_id)
            if sh is None:
                sh = _CommShared(comm_id, size, self.abort_event)
                self._registry[comm_id] = sh
            elif sh.size != size:
                raise MPICommError(
                    f"communicator {comm_id} size mismatch: "
                    f"{sh.size} vs {size}"
                )
            return sh

    def abort(self, reason: str = "MPI_Abort") -> None:
        self.abort_reason = self.abort_reason or reason
        self.abort_event.set()

    def blocked_collectives(self) -> dict[tuple, str]:
        """Snapshot of every rank currently inside a collective:
        ``(comm_id, rank) -> collective name`` (watchdog diagnostics)."""
        with self.in_collective_lock:
            return dict(self.in_collective)


# ---------------------------------------------------------------------------
# the communicator façade
# ---------------------------------------------------------------------------

class Intracomm:
    """One rank's view of a communicator."""

    def __init__(self, world: World, shared: _CommShared, rank: int) -> None:
        if not 0 <= rank < shared.size:
            raise MPICommError(f"rank {rank} outside communicator size "
                               f"{shared.size}")
        self.world = world
        self._shared = shared
        self._rank = rank
        self._coll_seq = 0
        self._split_seq = 0

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def Get_rank(self) -> int:
        return self._rank

    def Get_size(self) -> int:
        return self._shared.size

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._shared.size

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Intracomm(id={self._shared.comm_id}, rank={self._rank}"
                f"/{self.size})")

    # ------------------------------------------------------------------
    # error handling
    # ------------------------------------------------------------------
    def Abort(self, errorcode: int = 1) -> None:
        self.world.abort(f"rank {self._rank} called Abort({errorcode})")
        raise MPIAbort(f"rank {self._rank} called Abort({errorcode})")

    def _check_abort(self) -> None:
        if self.world.abort_event.is_set():
            raise MPIAbort(self.world.abort_reason or "aborted")

    def _check_peer(self, peer: int, what: str) -> None:
        if not 0 <= peer < self.size:
            raise MPICommError(
                f"{what} rank {peer} outside communicator size {self.size}"
            )

    # ------------------------------------------------------------------
    # point-to-point: buffers
    # ------------------------------------------------------------------
    def Send(self, buf, dest: int, tag: int = 0) -> None:
        """Eagerly-buffered standard send of a NumPy buffer."""
        self._check_abort()
        self._check_peer(dest, "destination")
        data = _pack_buf(buf)
        self._shared.mailboxes[dest].put(self._rank, tag, ("B", data))

    def Recv(self, buf, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             status: Status | None = None) -> None:
        """Blocking receive into a NumPy buffer."""
        self._check_abort()
        if source != ANY_SOURCE:
            self._check_peer(source, "source")
        s, t, (kind, data) = self._shared.mailboxes[self._rank].get(source, tag)
        if kind != "B":
            raise MPICommError(
                "Recv matched a pickled-object message; use recv()"
            )
        _unpack_buf(buf, data)
        if status is not None:
            status.source, status.tag, status.count = s, t, len(data)

    def Sendrecv(self, sendbuf, dest: int, sendtag: int = 0,
                 recvbuf=None, source: int = ANY_SOURCE,
                 recvtag: int = ANY_TAG,
                 status: Status | None = None) -> None:
        self.Send(sendbuf, dest, sendtag)
        self.Recv(recvbuf, source, recvtag, status)

    def Isend(self, buf, dest: int, tag: int = 0) -> Request:
        self.Send(buf, dest, tag)
        return Request(done=True)

    def Irecv(self, buf, source: int = ANY_SOURCE, tag: int = ANY_TAG
              ) -> Request:
        mailbox = self._shared.mailboxes[self._rank]

        def wait_fn(block: bool, status: Status | None):
            item = mailbox.get(source, tag, block=block)
            if item is None:
                return False, None
            s, t, (kind, data) = item
            if kind != "B":
                raise MPICommError("Irecv matched a pickled-object message")
            _unpack_buf(buf, data)
            if status is not None:
                status.source, status.tag, status.count = s, t, len(data)
            return True, None

        return Request(wait_fn=wait_fn)

    def Probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              status: Status | None = None) -> bool:
        item = self._shared.mailboxes[self._rank].probe(source, tag)
        if status is not None and item is not None:
            s, t, (_k, data) = item
            status.source, status.tag = s, t
            status.count = len(data) if isinstance(data, bytes) else 0
        return item is not None

    def Iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
               status: Status | None = None) -> bool:
        item = self._shared.mailboxes[self._rank].probe(source, tag,
                                                        block=False)
        if status is not None and item is not None:
            s, t, (_k, data) = item
            status.source, status.tag = s, t
            status.count = len(data) if isinstance(data, bytes) else 0
        return item is not None

    # ------------------------------------------------------------------
    # point-to-point: pickled objects (lower-case, mpi4py style)
    # ------------------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_abort()
        self._check_peer(dest, "destination")
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        self._shared.mailboxes[dest].put(self._rank, tag, ("P", payload))

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             status: Status | None = None) -> Any:
        self._check_abort()
        s, t, (kind, data) = self._shared.mailboxes[self._rank].get(source, tag)
        if kind != "P":
            raise MPICommError("recv matched a buffer message; use Recv()")
        if status is not None:
            status.source, status.tag, status.count = s, t, len(data)
        return pickle.loads(data)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        self.send(obj, dest, tag)
        return Request(done=True)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        mailbox = self._shared.mailboxes[self._rank]

        def wait_fn(block: bool, status: Status | None):
            item = mailbox.get(source, tag, block=block)
            if item is None:
                return False, None
            s, t, (kind, data) = item
            if kind != "P":
                raise MPICommError("irecv matched a buffer message")
            if status is not None:
                status.source, status.tag, status.count = s, t, len(data)
            return True, pickle.loads(data)

        return Request(wait_fn=wait_fn)

    # ------------------------------------------------------------------
    # the collective exchange primitive
    # ------------------------------------------------------------------
    def _exchange(self, value: Any, name: str = "collective") -> list[Any]:
        """All-to-all bulletin-board exchange (the collective workhorse).

        Deposits ``value``, waits for everyone, reads all contributions,
        waits again (so nobody reads a board being torn down), and lets
        rank 0 garbage-collect the slot.  While blocked, the rank is
        registered in :attr:`World.in_collective` under ``name`` so the
        runner's watchdog can report *which* collective hung and who was
        waiting in it.
        """
        self._check_abort()
        sh = self._shared
        seq = self._coll_seq
        self._coll_seq += 1
        key = (sh.comm_id, self._rank)
        with self.world.in_collective_lock:
            self.world.in_collective[key] = name
        try:
            with sh.board_lock:
                sh.board.setdefault(seq, {})[self._rank] = value
            sh.barrier.wait()
            with sh.board_lock:
                slot = sh.board[seq]
                result = [slot[r] for r in range(self.size)]
            sh.barrier.wait()
            if self._rank == 0:
                with sh.board_lock:
                    sh.board.pop(seq, None)
            return result
        finally:
            with self.world.in_collective_lock:
                self.world.in_collective.pop(key, None)

    # ------------------------------------------------------------------
    # collectives: pickled objects
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        self._exchange(None, "barrier")

    Barrier = barrier

    def bcast(self, obj: Any, root: int = 0) -> Any:
        self._check_peer(root, "root")
        vals = self._exchange(obj if self._rank == root else None,
                              "bcast")
        return pickle.loads(pickle.dumps(vals[root]))

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        self._check_peer(root, "root")
        vals = self._exchange(obj, "gather")
        return vals if self._rank == root else None

    def allgather(self, obj: Any) -> list[Any]:
        return self._exchange(obj, "allgather")

    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        self._check_peer(root, "root")
        if self._rank == root:
            if objs is None or len(objs) != self.size:
                raise MPICommError(
                    f"scatter needs {self.size} items at root, got "
                    f"{None if objs is None else len(objs)}"
                )
        vals = self._exchange(list(objs) if self._rank == root else None,
                              "scatter")
        return vals[root][self._rank]

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        if len(objs) != self.size:
            raise MPICommError(
                f"alltoall needs {self.size} items, got {len(objs)}"
            )
        mat = self._exchange(list(objs), "alltoall")
        return [mat[src][self._rank] for src in range(self.size)]

    def reduce(self, obj: Any, op: Op = SUM, root: int = 0) -> Any:
        self._check_peer(root, "root")
        vals = self._exchange(obj, "reduce")
        if self._rank != root:
            return None
        acc = vals[0]
        for v in vals[1:]:
            acc = op(acc, v)
        return acc

    def allreduce(self, obj: Any, op: Op = SUM) -> Any:
        vals = self._exchange(obj, "allreduce")
        acc = vals[0]
        for v in vals[1:]:
            acc = op(acc, v)
        return acc

    def scan(self, obj: Any, op: Op = SUM) -> Any:
        vals = self._exchange(obj, "scan")
        acc = vals[0]
        for v in vals[1:self._rank + 1]:
            acc = op(acc, v)
        return acc

    # ------------------------------------------------------------------
    # collectives: NumPy buffers
    # ------------------------------------------------------------------
    def Bcast(self, buf: np.ndarray, root: int = 0) -> None:
        self._check_peer(root, "root")
        data = _pack_buf(buf) if self._rank == root else None
        vals = self._exchange(data, "Bcast")
        if self._rank != root:
            _unpack_buf(buf, vals[root])

    def Gather(self, sendbuf: np.ndarray, recvbuf: np.ndarray | None,
               root: int = 0) -> None:
        self._check_peer(root, "root")
        vals = self._exchange(_pack_buf(sendbuf), "Gather")
        if self._rank == root:
            if recvbuf is None:
                raise MPICommError("root must supply recvbuf")
            _unpack_buf(recvbuf, b"".join(vals))

    def Allgather(self, sendbuf: np.ndarray, recvbuf: np.ndarray) -> None:
        vals = self._exchange(_pack_buf(sendbuf), "Allgather")
        _unpack_buf(recvbuf, b"".join(vals))

    def Scatter(self, sendbuf: np.ndarray | None, recvbuf: np.ndarray,
                root: int = 0) -> None:
        self._check_peer(root, "root")
        if self._rank == root:
            if sendbuf is None:
                raise MPICommError("root must supply sendbuf")
            data = _pack_buf(sendbuf)
            n = len(data) // self.size
            parts = [data[i * n:(i + 1) * n] for i in range(self.size)]
        else:
            parts = None
        vals = self._exchange(parts, "Scatter")
        _unpack_buf(recvbuf, vals[root][self._rank])

    def Scatterv(self, sendspec, recvbuf: np.ndarray,
                 root: int = 0) -> None:
        """Vector scatter: ``sendspec = [buf, counts, displs, None]``
        (counts and displacements in elements of the send buffer; the
        mpi4py calling convention)."""
        self._check_peer(root, "root")
        if self._rank == root:
            if sendspec is None:
                raise MPICommError("root must supply the send spec")
            buf, counts, displs = sendspec[0], sendspec[1], sendspec[2]
            arr = np.ascontiguousarray(buf).reshape(-1)
            if len(counts) != self.size or len(displs) != self.size:
                raise MPICommError(
                    f"Scatterv needs {self.size} counts/displs"
                )
            parts = [bytes(_as_bytes_view(
                np.ascontiguousarray(arr[d:d + c])))
                for c, d in zip(counts, displs)]
        else:
            parts = None
        vals = self._exchange(parts, "Scatterv")
        _unpack_buf(recvbuf, vals[root][self._rank])

    def Gatherv(self, sendbuf: np.ndarray, recvspec,
                root: int = 0) -> None:
        """Vector gather: ``recvspec = [buf, counts, displs, None]``."""
        self._check_peer(root, "root")
        vals = self._exchange(_pack_buf(sendbuf), "Gatherv")
        if self._rank == root:
            if recvspec is None:
                raise MPICommError("root must supply the recv spec")
            buf, counts, displs = recvspec[0], recvspec[1], recvspec[2]
            if not buf.flags["C_CONTIGUOUS"]:
                raise MPICommError("Gatherv recv buffer must be contiguous")
            if len(counts) != self.size or len(displs) != self.size:
                raise MPICommError(
                    f"Gatherv needs {self.size} counts/displs"
                )
            item = buf.dtype.itemsize
            mv = _as_bytes_view(buf, writable=True)
            for r, data in enumerate(vals):
                if len(data) != counts[r] * item:
                    raise MPICommError(
                        f"rank {r} sent {len(data)} bytes, expected "
                        f"{counts[r] * item}"
                    )
                start = displs[r] * item
                mv[start:start + len(data)] = data

    def Allgatherv(self, sendbuf: np.ndarray, recvspec) -> None:
        """Vector allgather: ``recvspec = [buf, counts, displs, None]``."""
        vals = self._exchange(_pack_buf(sendbuf), "Allgatherv")
        buf, counts, displs = recvspec[0], recvspec[1], recvspec[2]
        arr = buf.reshape(-1)
        if not arr.flags["C_CONTIGUOUS"]:
            raise MPICommError("Allgatherv recv buffer must be contiguous")
        item = arr.dtype.itemsize
        mv = _as_bytes_view(arr, writable=True)
        for r, data in enumerate(vals):
            if len(data) != counts[r] * item:
                raise MPICommError(
                    f"rank {r} sent {len(data)} bytes, expected "
                    f"{counts[r] * item}"
                )
            start = displs[r] * item
            mv[start:start + len(data)] = data

    def Alltoall(self, sendbuf: np.ndarray, recvbuf: np.ndarray) -> None:
        data = _pack_buf(sendbuf)
        n = len(data) // self.size
        parts = [data[i * n:(i + 1) * n] for i in range(self.size)]
        mat = self._exchange(parts, "Alltoall")
        _unpack_buf(recvbuf, b"".join(mat[src][self._rank]
                                      for src in range(self.size)))

    def Reduce(self, sendbuf: np.ndarray, recvbuf: np.ndarray | None,
               op: Op = SUM, root: int = 0) -> None:
        self._check_peer(root, "root")
        vals = self._exchange(_np_copy(sendbuf), "Reduce")
        if self._rank == root:
            if recvbuf is None:
                raise MPICommError("root must supply recvbuf")
            acc = vals[0]
            for v in vals[1:]:
                acc = op(acc, v)
            np.copyto(recvbuf, acc)

    def Allreduce(self, sendbuf: np.ndarray, recvbuf: np.ndarray,
                  op: Op = SUM) -> None:
        vals = self._exchange(_np_copy(sendbuf), "Allreduce")
        acc = vals[0]
        for v in vals[1:]:
            acc = op(acc, v)
        np.copyto(recvbuf, acc)

    def Scan(self, sendbuf: np.ndarray, recvbuf: np.ndarray,
             op: Op = SUM) -> None:
        vals = self._exchange(_np_copy(sendbuf), "Scan")
        acc = vals[0]
        for v in vals[1:self._rank + 1]:
            acc = op(acc, v)
        np.copyto(recvbuf, acc)

    # ------------------------------------------------------------------
    # topology (simulated node placement)
    # ------------------------------------------------------------------
    def Set_node_map(self, node_of_rank: Sequence[int]) -> None:
        """Declare which simulated *node* each rank runs on.

        The substrate's ranks are threads of one process, so physical
        placement is a simulation parameter: the collective-I/O engine
        uses it to place one aggregator per node (ROMIO's
        ``cb_config_list`` idiom).  All ranks share the map (it lives on
        the communicator's shared struct); call it identically
        everywhere, like any other collective configuration.
        """
        nm = [int(n) for n in node_of_rank]
        if len(nm) != self.size:
            raise MPICommError(
                f"node map has {len(nm)} entries for {self.size} ranks")
        self._shared.node_map = nm

    def node_map(self) -> list[int]:
        """Node id per rank.  Until :meth:`Set_node_map` says otherwise
        every rank is on one node, which keeps the default aggregator
        count at one."""
        nm = self._shared.node_map
        return list(nm) if nm is not None else [0] * self.size

    # ------------------------------------------------------------------
    # point-to-point exchange (O(sent + received), not O(P^2))
    # ------------------------------------------------------------------
    def exchange_p2p(self, payloads: dict[int, Any],
                     sources: Sequence[int], tag: int) -> dict[int, Any]:
        """Send ``payloads[dest]`` to each destination, then collect one
        message from every rank in ``sources``, returning them keyed by
        source.

        Unlike the bulletin-board :meth:`_exchange`, traffic is only
        what is actually addressed — the phase-A primitive of two-phase
        collective I/O, where every rank ships requests to a handful of
        aggregators rather than publishing them to all P ranks.  Sends
        buffer eagerly, so the send loop never blocks; (source, tag)
        mailbox matching makes the receive order deterministic.

        Ranks are threads of one process, so every payload is handed
        over by reference, never pickled.  A payload is therefore
        shared, not copied: the sender must not mutate it after the
        call, and the receiver must not keep it past the collective it
        serves.
        """
        for dest in sorted(payloads):
            self._check_peer(dest, "destination")
            self._check_abort()
            self._shared.mailboxes[dest].put(self._rank, tag,
                                             ("R", payloads[dest]))
        self._check_abort()
        mailbox = self._shared.mailboxes[self._rank]
        out: dict[int, Any] = {}
        for src in sources:
            _s, _t, (_kind, data) = mailbox.get(src, tag)
            out[src] = data
        return out

    # ------------------------------------------------------------------
    # communicator management
    # ------------------------------------------------------------------
    def Split(self, color: int = 0, key: int = 0) -> "Intracomm | None":
        """Partition the communicator by ``color``, order ranks by ``key``.

        Returns the new communicator (or None for ``color < 0``, MPI's
        MPI_UNDEFINED convention).
        """
        seq = self._split_seq
        self._split_seq += 1
        triples = self._exchange((color, key, self._rank), "Split")
        if color < 0:
            return None
        members = sorted(
            (k, r) for c, k, r in triples if c == color
        )
        ranks = [r for _k, r in members]
        new_rank = ranks.index(self._rank)
        comm_id = (*self._shared.comm_id, "split", seq, color)
        shared = self.world.shared_for(comm_id, len(ranks))
        return Intracomm(self.world, shared, new_rank)

    def Dup(self) -> "Intracomm":
        out = self.Split(0, self._rank)
        assert out is not None
        return out

    def Free(self) -> None:
        """No-op (shared structs are garbage-collected with the world)."""

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    @staticmethod
    def Wtime() -> float:
        return time.perf_counter()

    def Get_processor_name(self) -> str:
        return f"thread-rank-{self._rank}"


# ---------------------------------------------------------------------------
# buffer helpers
# ---------------------------------------------------------------------------

def _parse_bufspec(buf) -> tuple[Any, int | None, Datatype | None]:
    """Accept mpi4py-style buffer specs.

    ``buf`` | ``[buf, datatype]`` | ``[buf, count, datatype]``.
    """
    if isinstance(buf, (list, tuple)):
        if len(buf) == 2:
            return buf[0], None, buf[1]
        if len(buf) == 3:
            return buf[0], int(buf[1]), buf[2]
        raise MPICommError(f"bad buffer spec of length {len(buf)}")
    return buf, None, None


def _pack_buf(buf) -> bytes:
    arr, count, dtype = _parse_bufspec(buf)
    if dtype is not None:
        return dtype.pack(arr, count if count is not None else 1)
    return bytes(_as_bytes_view(arr))


def _unpack_buf(buf, data: bytes) -> None:
    arr, count, dtype = _parse_bufspec(buf)
    if dtype is not None:
        dtype.unpack(arr, data, count if count is not None else 1)
        return
    mv = _as_bytes_view(arr, writable=True)
    if len(data) > len(mv):
        raise MPICommError(
            f"message of {len(data)} bytes overflows buffer of {len(mv)}"
        )
    mv[:len(data)] = data


def _np_copy(a: np.ndarray):
    """Deep copy for reduction inputs (keeps dtype/shape semantics)."""
    arr = np.asarray(a)
    return arr.copy()
