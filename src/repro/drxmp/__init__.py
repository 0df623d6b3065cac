"""``repro.drxmp`` — the parallel Disk Resident eXtendible array library.

Zones, collective sub-array I/O via MPI-IO file views over the chunk
store ``DRXFile`` shares (one ``.xmd``/``.xta`` format), the DRXMP_* API
of the paper's section IV-C, and the Global-Array-style one-sided layer.
"""

from .api import (
    DRXMP_Close,
    DRXMP_Extend,
    DRXMP_Init,
    DRXMP_Open,
    DRXMP_Read,
    DRXMP_Read_all,
    DRXMP_Terminate,
    DRXMP_Write,
    DRXMP_Write_all,
    DRXMPFile,
)
from .ga import GlobalArray
from .gaops import (
    ga_add,
    ga_copy,
    ga_dot,
    ga_elem_multiply,
    ga_fill,
    ga_matmul,
    ga_norm2,
    ga_reduce_max,
    ga_reduce_min,
    ga_scale,
)
from .handles import DRXMDHdl, DRXMDMemHdl
from .partition import BlockCyclicPartition, BlockPartition, Zone, dims_create
from .subarray import (
    box_read,
    box_write,
    extent_filetype,
    zone_read,
    zone_write,
)

__all__ = [
    "DRXMPFile",
    "DRXMP_Init", "DRXMP_Open", "DRXMP_Close", "DRXMP_Terminate",
    "DRXMP_Read", "DRXMP_Read_all", "DRXMP_Write", "DRXMP_Write_all",
    "DRXMP_Extend",
    "GlobalArray",
    "ga_fill", "ga_scale", "ga_copy", "ga_add", "ga_elem_multiply",
    "ga_dot", "ga_norm2", "ga_reduce_max", "ga_reduce_min", "ga_matmul",
    "DRXMDHdl", "DRXMDMemHdl",
    "Zone", "BlockPartition", "BlockCyclicPartition", "dims_create",
    "zone_read", "zone_write", "box_read", "box_write", "extent_filetype",
]
