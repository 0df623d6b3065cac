"""Chunk-shape tuning: reconciling chunk size with the stripe size.

The paper's final future-work item: "Optimizing the access by
reconciling the chunk size with the strip size of the parallel file
system for optimal chunk accesses."  Experiment E5 measures the effect;
this module turns the measurement into advice a user can apply at
creation time.

Heuristics implemented (validated by E5's cost curve):

* a chunk should not *cross* stripes it doesn't fill: chunks at most one
  stripe large are serviced by a single server request;
* larger chunks amortize per-request overhead, so aim just *below* the
  stripe size rather than far below it;
* dimensions expected to grow should get small chunk extents (growth
  granularity = one chunk along that dimension), scan-heavy dimensions
  large extents (fewer chunks per scan line).
"""

from __future__ import annotations

from math import prod
from typing import Sequence

import numpy as np

from ..core.errors import DRXExtendError
from ..core.metadata import DRXType

__all__ = ["suggest_chunk_shape", "chunk_stripe_report"]


def suggest_chunk_shape(element_shape: Sequence[int],
                        stripe_size: int,
                        dtype: str | np.dtype | type = DRXType.DOUBLE,
                        growth_dims: Sequence[int] = (),
                        fill: float = 0.9) -> tuple[int, ...]:
    """A chunk shape whose payload is ~``fill`` of one stripe.

    Parameters
    ----------
    element_shape:
        Expected working bounds (used to cap chunk extents).
    stripe_size:
        The PFS stripe size in bytes.
    dtype:
        Element type (sets the item size).
    growth_dims:
        Dimensions expected to be extended repeatedly; their chunk
        extent is kept small so each extension adjoins little padding.
    fill:
        Target fraction of a stripe one chunk should occupy (0 < fill
        <= 1).  The default 0.9 leaves headroom so a chunk never
        straddles two stripes.
    """
    if not 0 < fill <= 1:
        raise DRXExtendError(f"fill must be in (0, 1], got {fill}")
    if stripe_size < 1:
        raise DRXExtendError(f"stripe size must be positive, got "
                             f"{stripe_size}")
    if isinstance(dtype, str):
        itemsize = DRXType.to_numpy(dtype).itemsize
    else:
        itemsize = np.dtype(dtype).itemsize
    k = len(element_shape)
    if k == 0 or any(s < 1 for s in element_shape):
        raise DRXExtendError(f"bad element shape {tuple(element_shape)}")
    budget_elems = max(1, int(stripe_size * fill) // itemsize)

    growth = set(growth_dims)
    for d in growth:
        if not 0 <= d < k:
            raise DRXExtendError(f"growth dim {d} outside rank {k}")

    chunk = [1] * k
    # growth dims get a small fixed extent (a few indices per extension)
    for d in growth:
        chunk[d] = min(4, element_shape[d])
    # distribute the remaining budget over the scan dims, last dim first
    # (row-major: the last dimension is the contiguity direction).  When
    # the item size divides the stripe, budget-limited extents are
    # snapped down to powers of two so the chunk payload divides the
    # stripe — a chunk that tiles stripes exactly never straddles a
    # boundary (1 server request instead of 2; see
    # :func:`chunk_stripe_report`).  Bounds-capped extents keep the
    # exact bound (matching the array matters more than alignment), and
    # non-power-of-two item sizes skip the snap (no extent can make the
    # payload divide a power-of-two stripe anyway).
    snap = stripe_size % itemsize == 0
    scan_dims = [d for d in range(k - 1, -1, -1) if d not in growth]
    for d in scan_dims:
        have = prod(chunk)
        if have >= budget_elems:
            break
        room = max(1, budget_elems // have)
        if room < element_shape[d]:
            ext = 1 << (room.bit_length() - 1) if snap else room
        else:
            ext = element_shape[d]
        chunk[d] = ext
    # final safety: never exceed the stripe
    while prod(chunk) * itemsize > stripe_size and max(chunk) > 1:
        d = int(np.argmax(chunk))
        chunk[d] = max(1, chunk[d] // 2)
    return tuple(chunk)


def chunk_stripe_report(chunk_shape: Sequence[int], stripe_size: int,
                        dtype: str | np.dtype | type = DRXType.DOUBLE
                        ) -> dict:
    """Quantify how a chunk shape interacts with the stripe size.

    Returns a dict with the chunk payload size, the chunk/stripe ratio,
    and the worst-case number of server requests a single chunk access
    costs (the E5 metric).
    """
    if stripe_size < 1:
        raise DRXExtendError(f"stripe size must be positive, got "
                             f"{stripe_size}")
    if not chunk_shape or any(c < 1 for c in chunk_shape):
        raise DRXExtendError(f"bad chunk shape {tuple(chunk_shape)}")
    if isinstance(dtype, str):
        itemsize = DRXType.to_numpy(dtype).itemsize
    else:
        itemsize = np.dtype(dtype).itemsize
    nbytes = prod(chunk_shape) * itemsize
    ratio = nbytes / stripe_size
    # Chunk q lives at byte offset q * nbytes (direct placement), so
    # alignment is periodic, not arbitrary:
    # * stripe a multiple of the chunk: chunks tile stripes exactly and
    #   never straddle a boundary — always one request;
    # * chunk a multiple of the stripe: every chunk starts on a stripe
    #   boundary — exactly ``ratio`` requests;
    # * otherwise some chunk offsets straddle: ceil(ratio) + 1 worst
    #   case.
    if stripe_size % nbytes == 0:
        worst_requests = 1
    elif nbytes % stripe_size == 0:
        worst_requests = nbytes // stripe_size
    else:
        worst_requests = int(np.ceil(ratio)) + 1
    return {
        "chunk_nbytes": nbytes,
        "stripe_size": stripe_size,
        "ratio": ratio,
        "worst_case_requests": max(1, worst_requests),
        "fits_one_stripe": nbytes <= stripe_size,
    }
