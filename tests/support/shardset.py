"""An in-process shard set: N daemons behind one consistent-hash ring.

:class:`ShardSet` spawns and owns N :class:`~repro.serve.DRXServer`
daemons for the shard tests and ``benchmarks/bench_shard.py``.  Each
shard gets its *own* substrate from ``fs_factory(idx)``, its own
journals and its own admission window — exactly the isolation a
multi-process deployment has, minus the process boundary (the CLI and
the subprocess kill -9 tests cover true process shards).  ``kill`` and
``restart`` model a shard crash: restart opens a *new* daemon over the
same substrate (running journal recovery) on a new port and republishes
it on the ring, which is the seam :class:`~repro.serve.HashRing` offers
every client for failover.
"""

from __future__ import annotations

from repro.serve import DRXServer, HashRing, ShardedClient

__all__ = ["ShardSet"]


class ShardSet:
    """Spawn-and-own N in-process shard daemons."""

    def __init__(self, nshards: int, fs_factory, host: str = "127.0.0.1",
                 replicas: int = 64, **server_kwargs) -> None:
        self.host = host
        self.server_kwargs = server_kwargs
        self._substrates = [fs_factory(idx) for idx in range(nshards)]
        self.servers = [self._spawn(idx) for idx in range(nshards)]
        self.ring = HashRing([s.address for s in self.servers],
                             replicas=replicas)

    def _spawn(self, idx: int) -> DRXServer:
        return DRXServer(fs=self._substrates[idx], host=self.host,
                         **self.server_kwargs).start()

    def client(self, client_id: str = "anon", **kwargs) -> ShardedClient:
        return ShardedClient(self.ring, client_id=client_id, **kwargs)

    def kill(self, idx: int) -> None:
        """Abrupt death of one shard (in-process stand-in for kill -9)."""
        self.servers[idx].kill()

    def restart(self, idx: int) -> DRXServer:
        """Bring shard ``idx`` back over the same substrate on a fresh
        port, replay its journals, republish its ring address."""
        server = self._spawn(idx)
        server.recover_all()
        self.servers[idx] = server
        self.ring.set_address(idx, server.address)
        return server

    def stop(self, drain: bool = True) -> None:
        for server in self.servers:
            if server.state != server.DEAD:
                server.shutdown(drain=drain)

    def __enter__(self) -> "ShardSet":
        return self

    def __exit__(self, *exc) -> None:
        self.stop(drain=False)
