"""``repro.drx`` — the serial Disk Resident eXtendible array library.

DRX files live in any POSIX file system as an ``.xmd``/``.xta`` pair and
are accessed through an Mpool buffer cache, which pages through one
:class:`ChunkStore` per array: chunk placement, the per-chunk codec and
the checksums sit behind that one seam, over plain byte stores
(:mod:`repro.drx.storage`).  The memory-resident variant keeps the same
chunked axial-vector layout in core.  Arrays may be transparently
compressed per chunk (:mod:`repro.drx.codec` +
:mod:`repro.drx.chunkalloc`); ``codec="none"`` keeps the historical
direct-placement layout bit for bit.
"""

from ..core.faultsites import CRASH_SITES, crash_point
from .chunkalloc import Slot, SlotTable
from .chunkstore import ChunkStore
from .codec import (
    Codec,
    CodecStats,
    codec_names,
    default_codec_name,
    get_codec,
)
from .drxfile import DRXFile, repackage
from .inspect import describe, load_meta, verify
from .ioplan import IOPlan, Run, Visit, plan_box, plan_slab
from .memarray import MemExtendibleArray
from .mpool import Mpool, MpoolStats
from .resilience import (
    ChecksumGuard,
    FaultInjector,
    FaultPlan,
    RetryingByteStore,
    ScrubReport,
    chunk_crc,
    is_transient,
)
from .singlefile import DRXSingleFile
from .storage import (
    ByteStore,
    MemoryByteStore,
    PFSByteStore,
    PosixByteStore,
    StoreStats,
)

__all__ = [
    "DRXFile",
    "repackage",
    "Codec",
    "CodecStats",
    "get_codec",
    "codec_names",
    "default_codec_name",
    "Slot",
    "SlotTable",
    "ChunkStore",
    "describe",
    "verify",
    "load_meta",
    "DRXSingleFile",
    "MemExtendibleArray",
    "Mpool",
    "MpoolStats",
    "ByteStore",
    "MemoryByteStore",
    "PosixByteStore",
    "PFSByteStore",
    "StoreStats",
    "IOPlan",
    "Run",
    "Visit",
    "plan_box",
    "plan_slab",
    "FaultPlan",
    "FaultInjector",
    "RetryingByteStore",
    "ChecksumGuard",
    "ScrubReport",
    "chunk_crc",
    "is_transient",
    "crash_point",
    "CRASH_SITES",
]
