"""Sharded array service: consistent-hash routing over N daemons.

One daemon process is a throughput ceiling — one accept loop, one
journal fsync stream, one Mpool.  The scale-out answer (ViPIOS's
cooperating I/O server processes; ArrayBridge's scale-out array
engines) is a *shard set*: N independent :class:`~.server.DRXServer`
processes, each with its own backend directory, journal, and buffer
pool, behind a client-side routing layer that consistent-hashes array
names onto shards.  Nothing is shared between shards, so:

* aggregate throughput scales with shard count (each shard has its own
  admission window and its own backing device),
* crash recovery stays *per-shard* — a kill -9'd shard replays its own
  journals on restart while the other shards keep serving, and
* the routing layer is stateless: any client can compute the owner of
  any array from the ring alone.

**Ring layout.**  The ring hashes *shard indices* (not addresses):
each shard contributes ``replicas`` virtual points derived from its
index, and an array name is owned by the first point clockwise from
the name's hash.  Keying by index means a shard's address can change —
a crashed daemon restarts on a new ephemeral port — without remapping
a single array; :meth:`HashRing.set_address` republishes the new
address and every client's next (re)connection picks it up through its
resolver.  Virtual points keep the assignment balanced (the per-shard
spread of a random name population approaches uniform as ``replicas``
grows) and, as in classic consistent hashing, adding shard N+1 only
remaps ~1/(N+1) of the names.

**Rebalance caveat.**  Remapped names are *routing* moves only — the
bytes of an existing array do **not** migrate.  Growing a live shard
set therefore needs an offline copy of remapped arrays (or a stretch:
chunk-range sub-sharding within an array).  The ring is honest about
this: :meth:`HashRing.spread` reports the assignment so operators can
audit balance before and after.
"""

from __future__ import annotations

import bisect
import hashlib
import threading

from ..core.errors import ServeError
from .client import DRXClient, Pipeline
from .protocol import VERB_TABLE, verb_surface

__all__ = ["HashRing", "ShardedClient", "ShardedPipeline", "merge_stats"]


def _point(key: str) -> int:
    """A stable 64-bit ring coordinate (identical across processes and
    runs — routing must not depend on PYTHONHASHSEED)."""
    return int.from_bytes(
        hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(),
        "big")


class HashRing:
    """Consistent-hash ring mapping array names to shard indices.

    Identities on the ring are shard *indices*; addresses are a
    separate, mutable table so a restarted shard keeps its arrays.
    Thread-safe: lookups take a snapshot of the address table.
    """

    def __init__(self, addresses, replicas: int = 64) -> None:
        addresses = list(addresses)
        if not addresses:
            raise ServeError("a shard ring needs at least one shard")
        self.replicas = int(replicas)
        self._lock = threading.Lock()
        self._addresses = [(host, int(port)) for host, port in addresses]
        points = []
        for idx in range(len(addresses)):
            for r in range(self.replicas):
                points.append((_point(f"shard:{idx}:{r}"), idx))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [i for _, i in points]

    @property
    def nshards(self) -> int:
        return len(self._addresses)

    def shard_of(self, name: str) -> int:
        """The shard index owning ``name``."""
        i = bisect.bisect_right(self._points, _point(f"name:{name}"))
        return self._owners[i % len(self._owners)]

    def address(self, idx: int) -> tuple[str, int]:
        with self._lock:
            return self._addresses[idx]

    def addresses(self) -> list[tuple[str, int]]:
        with self._lock:
            return list(self._addresses)

    def set_address(self, idx: int, address) -> None:
        """Republish shard ``idx`` at a new address (daemon restarted
        on a new port).  Array ownership is untouched — the ring keys
        on the index."""
        with self._lock:
            self._addresses[idx] = (address[0], int(address[1]))

    def resolver(self, idx: int):
        """A ``() -> (host, port)`` closure for :class:`DRXClient`'s
        ``resolver`` hook — every reconnect re-reads the table instead
        of pinning the address the connection was born with."""
        return lambda: self.address(idx)

    def spread(self, names) -> dict[int, int]:
        """How many of ``names`` each shard owns (balance audit)."""
        counts = {idx: 0 for idx in range(self.nshards)}
        for name in names:
            counts[self.shard_of(name)] += 1
        return counts


@verb_surface
class ShardedClient:
    """Routes array operations onto a shard set through a
    :class:`HashRing`.

    One lazily-created :class:`DRXClient` per shard, each wired to the
    ring's resolver so shard restarts are followed automatically.  The
    verb methods come from :data:`~.protocol.VERB_TABLE`: per-array
    verbs route by array name; ``ping``/``stats``/``shutdown`` fan out
    to every shard.  Construction kwargs are forwarded to each per-shard
    client (timeout, retries, backoff seed, fault-injection wrapper).
    """

    def __init__(self, ring: HashRing, client_id: str = "anon",
                 **client_kwargs) -> None:
        self.ring = ring
        self.client_id = client_id
        self._client_kwargs = client_kwargs
        self._clients: dict[int, DRXClient] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def shard_client(self, idx: int) -> DRXClient:
        """The (cached) client for shard ``idx``."""
        with self._lock:
            client = self._clients.get(idx)
            if client is None:
                client = DRXClient(
                    self.ring.address(idx), client_id=self.client_id,
                    resolver=self.ring.resolver(idx),
                    **self._client_kwargs)
                self._clients[idx] = client
            return client

    def client_for(self, name: str) -> DRXClient:
        """The client for the shard owning array ``name``."""
        return self.shard_client(self.ring.shard_of(name))

    def close(self) -> None:
        with self._lock:
            clients, self._clients = list(self._clients.values()), {}
        for client in clients:
            client.close()

    def __enter__(self) -> "ShardedClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _call(self, spec, header: dict, payload, timeout):
        """Routed verbs go to the shard owning the array they name;
        the rest fan out, one reply per shard in index order."""
        if spec.routed:
            return self.client_for(header["name"])._call(
                spec, header, payload, timeout)
        return [self.shard_client(i)._call(spec, header, payload, timeout)
                for i in range(self.ring.nshards)]

    def stats(self, timeout: float | None = None) -> dict:
        """Merged per-shard + aggregate snapshot (see
        :func:`merge_stats`)."""
        return merge_stats(self._call(VERB_TABLE["stats"], {}, b"",
                                      timeout))

    def batch(self, ops, timeout=None, return_exceptions=False) -> list:
        """Route a mixed batch: ops are grouped by owning shard, one
        batch frame per shard, results re-assembled in input order."""
        by_shard: dict[int, list[int]] = {}
        for i, op in enumerate(ops):
            name = op.get("name")
            if name is None:
                raise ServeError(
                    "sharded batch ops must name their array")
            by_shard.setdefault(self.ring.shard_of(name), []).append(i)
        outcomes: list = [None] * len(ops)
        for idx, positions in by_shard.items():
            sub = self.shard_client(idx).batch(
                [ops[i] for i in positions], timeout=timeout,
                return_exceptions=return_exceptions)
            for pos, out in zip(positions, sub):
                outcomes[pos] = out
        return outcomes

    def pipeline(self, depth: int = 64) -> "ShardedPipeline":
        return ShardedPipeline(self, depth=depth)


@verb_surface
class ShardedPipeline:
    """One :class:`Pipeline` per shard, routed by array name.

    Submissions for different shards proceed fully independently; each
    per-shard pipeline keeps its own in-flight window, reconnect, and
    resend machinery.
    """

    routed_only = True      # no single shard to send a fan-out verb to

    def __init__(self, sharded: ShardedClient, depth: int = 64) -> None:
        self.sharded = sharded
        self.depth = depth
        self._pipes: dict[int, Pipeline] = {}
        self._lock = threading.Lock()

    def _pipe_for(self, name: str) -> Pipeline:
        idx = self.sharded.ring.shard_of(name)
        with self._lock:
            pipe = self._pipes.get(idx)
            if pipe is None:
                pipe = self.sharded.shard_client(idx).pipeline(
                    depth=self.depth)
                self._pipes[idx] = pipe
            return pipe

    def _call(self, spec, header: dict, payload, timeout):
        return self._pipe_for(header["name"])._call(
            spec, header, payload, timeout)

    def drain(self, timeout=None) -> None:
        with self._lock:
            pipes = list(self._pipes.values())
        for pipe in pipes:
            pipe.drain(timeout=timeout)

    def close(self, drain: bool = True) -> None:
        with self._lock:
            pipes, self._pipes = list(self._pipes.values()), {}
        for pipe in pipes:
            pipe.close(drain=drain)

    def __enter__(self) -> "ShardedPipeline":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        self.close(drain=exc_type is None)


def merge_stats(snapshots: list[dict]) -> dict:
    """Merge per-shard ``stats`` snapshots into one system view.

    ``shards`` keeps each daemon's full snapshot (indexed by position);
    ``aggregate`` sums the QoS counters across shards, takes the max of
    high-water marks (the hottest shard bounds tail latency), unions
    array names, and totals journal/dedup/lock gauges — the numbers an
    operator reads first when the shard set is one logical service.
    """
    totals: dict[str, int] = {}
    arrays: set[str] = set()
    agg = {
        "inflight": 0, "queued": 0, "chunk_locks_held": 0,
        "queue_depth_hw": 0, "inflight_hw": 0,
        "journal_bytes": 0, "journal_arrays": 0,
        "dedup_hits": 0, "recovered_txns": 0, "checkpoints": 0,
    }
    for snap in snapshots:
        arrays.update(snap.get("arrays", ()))
        agg["inflight"] += snap.get("inflight", 0)
        agg["queued"] += snap.get("queued", 0)
        agg["chunk_locks_held"] += snap.get("chunk_locks_held", 0)
        agg["checkpoints"] += snap.get("checkpoints", 0)
        qos = snap.get("qos", {})
        for name, value in qos.get("totals", {}).items():
            totals[name] = totals.get(name, 0) + value
        agg["queue_depth_hw"] = max(agg["queue_depth_hw"],
                                    qos.get("queue_depth_hw", 0))
        agg["inflight_hw"] = max(agg["inflight_hw"],
                                 qos.get("inflight_hw", 0))
        for rec in snap.get("journal", {}).values():
            agg["journal_arrays"] += 1
            agg["journal_bytes"] += rec.get("size", 0)
            agg["dedup_hits"] += rec.get("dedup_hits", 0)
            stats = rec.get("stats", {})
            agg["recovered_txns"] += stats.get("recovered_txns", 0)
    agg["qos_totals"] = totals
    return {
        "nshards": len(snapshots),
        "shards": snapshots,
        "aggregate": dict(agg, arrays=len(arrays)),
    }
