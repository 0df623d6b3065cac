"""Handles: the meta-data objects DRX-MP operations pass around.

The paper (section IV-A): "When an application opens a file, it obtains
a handle of a meta-data structure with which subsequent operations on
the datasets can be carried out. ... Memory resident arrays are also
associated with a meta-data structure pointer ... It gives a handle for
communicating data between the disk resident extendible array and the
in-memory resident array."

:class:`DRXMDHdl` is the per-process replica of an open principal
array's meta-data plus the MPI file handle and the chunk store that
places, decodes and checksums the array's chunks; :class:`DRXMDMemHdl`
describes one process's in-memory sub-array (base array, covered zone,
element order).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.errors import DRXClosedError
from ..core.metadata import DRXMeta
from ..drx.chunkstore import ChunkStore
from ..drx.resilience import chunk_crc
from ..mpi.comm import Intracomm
from ..mpi.file import File
from .partition import Zone

__all__ = ["DRXMDHdl", "DRXMDMemHdl"]


@dataclass
class DRXMDHdl:
    """Per-process handle of an open DRX-MP principal array."""

    name: str
    comm: Intracomm
    meta: DRXMeta
    data_file: File
    #: the array's chunk store over the ``.xta`` (placement, codec, CRCs)
    store: ChunkStore
    mode: str
    closed: bool = False
    #: chunks whose CRC this rank recorded since the last collective
    #: point (checksummed arrays only; see :meth:`sync_crcs`)
    crc_dirty: set = field(default_factory=set)

    def require_open(self) -> None:
        if self.closed:
            raise DRXClosedError(f"DRX-MP handle {self.name!r} is closed")

    def sync_crcs(self) -> None:
        """Merge every rank's recorded CRCs into every replica.
        Collective on a checksummed array; a plain array does nothing.
        Where two ranks recorded different CRCs for one chunk, the
        stored bytes decide.  Until this runs, a chunk another rank
        wrote independently does not verify here — the sync-barrier-sync
        rule MPI-IO sets for independent writes."""
        crcs = self.meta.chunk_crcs
        if crcs is None:
            return
        mine = {c: crcs[c] for c in self.crc_dirty}
        self.crc_dirty.clear()
        merged: dict[int, int] = {}
        clashes: set[int] = set()
        for theirs in self.comm.allgather(mine):
            for c, crc in theirs.items():
                if merged.setdefault(c, crc) != crc:
                    clashes.add(c)
        for c, _extent, payload in self.store.fetch(sorted(clashes)):
            merged[c] = chunk_crc(payload)
        crcs.update(merged)

    @property
    def rank(self) -> int:
        """This process's rank in the handle's communicator."""
        return self.comm.rank

    @property
    def nprocs(self) -> int:
        return self.comm.size


@dataclass
class DRXMDMemHdl:
    """Handle of one process's in-memory sub-array.

    ``array`` holds the zone's elements (clipped to the principal
    array's element bounds) in ``order`` ('C' or 'F') — the conventional
    in-memory layout the application requested at read time.
    """

    array: np.ndarray
    zone: Zone
    order: str = "C"
    #: element-space origin of ``array`` within the principal array
    origin: tuple[int, ...] = field(default_factory=tuple)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.array.shape)
