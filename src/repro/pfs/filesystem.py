"""The parallel file system namespace.

:class:`ParallelFileSystem` ties the pieces together: a set of
:class:`~repro.pfs.server.IOServer` instances, a
:class:`~repro.pfs.striping.StripeLayout`, and a name -> file mapping
with create/open/delete semantics.  It is the stand-in for the paper's
PVFS2 mount point (``/mnt/pvfs2/...``).

With ``replication > 1`` the layout becomes a chained-declustering
:class:`~repro.pfs.replication.ReplicaLayout` and the file system gains
a failure API: ``kill_server()`` / ``revive_server()`` take one I/O
server down and back (``wipe=True`` models a disk-losing replacement),
and ``rebuild_server()`` runs the online re-replication of every file's
objects before clearing the server's *stale* flag, restoring full
redundancy without ever taking a file offline.

The file system can optionally *persist* to a host directory: ``dump()``
writes every logical file as one flat POSIX file plus nothing else, and
``load()`` re-imports it.  That keeps the simulator's counters intact
while letting examples round-trip data to disk.
"""

from __future__ import annotations

import pathlib
import threading

from ..core.errors import PFSError, ServerDownError
from .costmodel import CostModel, DEFAULT_COST_MODEL
from .pfile import PFSFile
from .replication import ReplicaLayout, replica_object_name
from .server import IOServer
from .stats import CollectiveStats, IOStats, ReplicaStats
from .striping import StripeLayout

__all__ = ["ParallelFileSystem"]


class ParallelFileSystem:
    """A simulated PVFS2-like striped file system."""

    def __init__(self, nservers: int = 4, stripe_size: int = 64 * 1024,
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 replication: int = 1, fault_plan=None) -> None:
        if replication == 1:
            self.layout: StripeLayout = StripeLayout(
                nservers=nservers, stripe_size=stripe_size)
        else:
            self.layout = ReplicaLayout(
                nservers=nservers, stripe_size=stripe_size,
                replication=replication)
        self.replication = replication
        self.cost_model = cost_model
        self.servers = [IOServer(i, cost_model, fault_plan=fault_plan)
                        for i in range(nservers)]
        self._files: dict[str, PFSFile] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # namespace
    # ------------------------------------------------------------------
    def create(self, name: str) -> PFSFile:
        with self._lock:
            if name in self._files:
                raise PFSError(f"file exists: {name!r}", transient=False)
            f = PFSFile(name, self.servers, self.layout)
            self._files[name] = f
            return f

    def open(self, name: str) -> PFSFile:
        with self._lock:
            try:
                return self._files[name]
            except KeyError:
                raise PFSError(f"no such file: {name!r}",
                               transient=False) from None

    def open_or_create(self, name: str) -> PFSFile:
        with self._lock:
            return self._files.get(name) or self.create(name)

    def exists(self, name: str) -> bool:
        return name in self._files

    def delete(self, name: str) -> None:
        with self._lock:
            if name not in self._files:
                raise PFSError(f"no such file: {name!r}",
                               transient=False)
            first_error: PFSError | None = None
            for copy in range(self.replication):
                obj = replica_object_name(name, copy)
                for s in self.servers:
                    try:
                        s.delete_object(obj)
                    except ServerDownError:
                        # a dead server's orphan objects are dropped by
                        # rebuild_server when it comes back
                        continue
                    except PFSError as exc:
                        # transient fault: keep sweeping the remaining
                        # servers, then surface the error with the file
                        # still in the namespace — a retried delete()
                        # finishes the job (delete_object is idempotent)
                        if first_error is None:
                            first_error = exc
            if first_error is not None:
                raise first_error
            del self._files[name]

    def listdir(self) -> list[str]:
        return sorted(self._files)

    # ------------------------------------------------------------------
    # failure API
    # ------------------------------------------------------------------
    def kill_server(self, sid: int, wipe: bool = False) -> None:
        """Take I/O server ``sid`` down.  With ``wipe`` its objects are
        lost too (a replacement server rather than a reboot)."""
        self._server(sid).kill(wipe=wipe)

    def revive_server(self, sid: int) -> None:
        """Bring a killed server back *stale*: it serves nothing until
        :meth:`rebuild_server` re-replicates its objects."""
        self._server(sid).revive()

    def rebuild_server(self, sid: int,
                       batch_bytes: int | None = None) -> float:
        """Online rebuild: re-replicate every file's objects on server
        ``sid`` from their partner copies, drop objects belonging to
        since-deleted files, then clear the server's stale flag.
        Returns the total simulated copy time.  Files stay readable and
        writable throughout (the per-file lock is held only per copy
        batch), and files *created* during the rebuild are picked up in
        a follow-up pass: the orphan sweep and the stale-flag clear run
        under the namespace lock only once no unrebuilt file remains,
        so a freshly created file can neither lose its objects to the
        sweep nor slip past the rebuild."""
        srv = self._server(sid)
        if not srv.alive:
            raise ServerDownError(
                f"cannot rebuild server {sid}: it is down (revive first)")
        total = 0.0
        done: dict[int, PFSFile] = {}     # id -> file (ref pins the id)
        while True:
            with self._lock:
                pending = [f for f in self._files.values()
                           if id(f) not in done]
                if not pending:
                    # holding the lock: no create() can add a file
                    # between this check, the orphan sweep, and the
                    # stale-flag clear
                    live_objects = {
                        replica_object_name(name, copy)
                        for name in self._files
                        for copy in range(self.replication)
                    }
                    for obj in [o for o in list(srv._objects)
                                if o not in live_objects]:
                        srv.delete_object(obj)
                    srv.mark_rebuilt()
                    return total
            for f in pending:
                done[id(f)] = f
                if batch_bytes is None:
                    total += f.rebuild(sid)
                else:
                    total += f.rebuild(sid, batch_bytes)

    def _server(self, sid: int) -> IOServer:
        if not 0 <= sid < len(self.servers):
            raise PFSError(f"no such server: {sid}")
        return self.servers[sid]

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def nservers(self) -> int:
        return self.layout.nservers

    @property
    def stripe_size(self) -> int:
        return self.layout.stripe_size

    def total_stats(self) -> IOStats:
        """Aggregate counters over all servers."""
        total = IOStats()
        for s in self.servers:
            total.add(s.stats)
        return total

    def per_server_stats(self) -> list[IOStats]:
        return [s.stats.snapshot() for s in self.servers]

    def replica_stats(self) -> ReplicaStats:
        """Aggregate replication / failure counters over all files."""
        total = ReplicaStats()
        with self._lock:
            for f in self._files.values():
                total.add(f.rstats)
        return total

    def collective_stats(self) -> CollectiveStats:
        """Aggregate collective-I/O engine counters over all files."""
        total = CollectiveStats()
        with self._lock:
            for f in self._files.values():
                total.add(f.cstats)
        return total

    def stats_summary(self) -> dict:
        """A JSON-able snapshot of this *shared instance*'s counters.

        The serve daemon multiplexes many clients onto one
        ``ParallelFileSystem``; this is the shape its ``stats`` protocol
        verb (and ``drx-serve --dump-stats``) exports, so operators see
        the aggregate load every tenant put on the shared substrate.
        """
        import dataclasses
        total = self.total_stats()
        alive = [s.server_id for s in self.servers if s.alive]
        return {
            "nservers": self.nservers,
            "stripe_size": self.stripe_size,
            "replication": self.replication,
            "alive_servers": alive,
            "files": len(self._files),
            "total": {**dataclasses.asdict(total),
                      "requests": total.requests,
                      "bytes_moved": total.bytes_moved},
            "per_server": [dataclasses.asdict(s)
                           for s in self.per_server_stats()],
            "replica": dataclasses.asdict(self.replica_stats()),
            "collective": dataclasses.asdict(self.collective_stats()),
        }

    def reset_stats(self) -> None:
        for s in self.servers:
            s.stats.reset()
        for f in self._files.values():
            f.io_time = 0.0
            f.wall_time = 0.0
            f.rstats.reset()
            f.cstats.reset()

    # ------------------------------------------------------------------
    # persistence (optional convenience)
    # ------------------------------------------------------------------
    def dump(self, directory: str | pathlib.Path) -> None:
        """Write every logical file flat into ``directory``."""
        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for name, f in self._files.items():
            data = f.read(0, f.size)
            (directory / name.replace("/", "__")).write_bytes(data)

    def load(self, directory: str | pathlib.Path) -> None:
        """Import every flat file of ``directory`` as a logical file."""
        directory = pathlib.Path(directory)
        for path in sorted(directory.iterdir()):
            if not path.is_file():
                continue
            name = path.name.replace("__", "/")
            f = self.open_or_create(name)
            f.write(0, path.read_bytes())
