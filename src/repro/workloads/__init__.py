"""``repro.workloads`` — deterministic workload generators."""

from .generators import (
    boundary_slabs,
    bursty_growth,
    chunk_boxes,
    column_scan_boxes,
    pattern_array,
    random_boxes,
    random_growth,
    round_robin_growth,
    row_scan_boxes,
    single_dim_growth,
)

__all__ = [
    "pattern_array",
    "round_robin_growth",
    "single_dim_growth",
    "random_growth",
    "bursty_growth",
    "row_scan_boxes",
    "column_scan_boxes",
    "random_boxes",
    "boundary_slabs",
    "chunk_boxes",
]
