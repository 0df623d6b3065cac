"""Deterministic workload generators for tests, examples and benchmarks.

Everything takes an explicit ``seed``; identical inputs always produce
identical workloads, so every benchmark number in EXPERIMENTS.md is
reproducible bit for bit.

Growth schedules produce ``(dim, by)`` extension sequences (the input of
:func:`repro.core.extendible.replay_history`); access patterns produce
half-open element boxes; :func:`pattern_array` produces content whose
value encodes the element's own index, which makes misplaced elements
instantly detectable.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..core.chunking import iter_box_intersections
from ..core.errors import DRXError

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


def pattern_array(shape: Sequence[int],
                  dtype=np.float64) -> np.ndarray:
    """An array whose value at index ``I`` is the row-major rank of ``I``.

    A misrouted element therefore carries its true origin in its value.
    """
    n = int(np.prod(shape))
    return np.arange(n, dtype=dtype).reshape(shape)


# ---------------------------------------------------------------------------
# growth schedules
# ---------------------------------------------------------------------------

def round_robin_growth(rank: int, steps: int,
                       by: int = 1) -> list[tuple[int, int]]:
    """Extend dimensions 0, 1, ..., k-1, 0, 1, ... in turn.

    Every extension is "interrupted" (a different dimension each time),
    so this maximizes the axial-record count — the worst case for E.
    """
    return [(s % rank, by) for s in range(steps)]


def single_dim_growth(dim: int, steps: int,
                      by: int = 1) -> list[tuple[int, int]]:
    """Repeatedly extend one dimension (all merges: E stays minimal).

    With ``dim == 0`` this is the record-dimension append pattern that
    conventional formats support too — the fair comparison case of E1.
    """
    return [(dim, by)] * steps


def random_growth(rank: int, steps: int, seed: int,
                  max_by: int = 3) -> list[tuple[int, int]]:
    """Arbitrary-dimension growth — the case only DRX supports natively."""
    rng = np.random.default_rng(seed)
    return [(int(rng.integers(0, rank)), int(rng.integers(1, max_by + 1)))
            for _ in range(steps)]


def bursty_growth(rank: int, bursts: int, burst_len: int, seed: int,
                  by: int = 1) -> list[tuple[int, int]]:
    """Runs of uninterrupted extensions of a random dimension.

    Exercises the merge rule: E grows with the number of *bursts*, not
    the number of extensions.
    """
    rng = np.random.default_rng(seed)
    out: list[tuple[int, int]] = []
    prev = -1
    for _ in range(bursts):
        dim = int(rng.integers(0, rank))
        if rank > 1:
            while dim == prev:
                dim = int(rng.integers(0, rank))
        out.extend([(dim, by)] * burst_len)
        prev = dim
    return out


# ---------------------------------------------------------------------------
# access patterns (2-D and k-D boxes)
# ---------------------------------------------------------------------------

def row_scan_boxes(shape: Sequence[int],
                   rows_per_read: int = 1) -> Iterator[tuple[tuple, tuple]]:
    """Full scan in row-major-friendly order: slabs of leading rows."""
    n0 = shape[0]
    for start in range(0, n0, rows_per_read):
        stop = min(start + rows_per_read, n0)
        yield ((start,) + (0,) * (len(shape) - 1),
               (stop,) + tuple(shape[1:]))


def column_scan_boxes(shape: Sequence[int],
                      cols_per_read: int = 1) -> Iterator[tuple[tuple, tuple]]:
    """Full scan in column-major-friendly order: slabs of trailing cols."""
    nk = shape[-1]
    for start in range(0, nk, cols_per_read):
        stop = min(start + cols_per_read, nk)
        yield (tuple([0] * (len(shape) - 1)) + (start,),
               tuple(shape[:-1]) + (stop,))


def random_boxes(shape: Sequence[int], n: int, seed: int,
                 max_edge: int | None = None
                 ) -> Iterator[tuple[tuple, tuple]]:
    """``n`` random non-empty boxes inside ``shape``."""
    if any(s < 1 for s in shape):
        raise DRXError(f"empty shape {tuple(shape)}")
    rng = np.random.default_rng(seed)
    for _ in range(n):
        lo = []
        hi = []
        for s in shape:
            edge_cap = s if max_edge is None else min(s, max_edge)
            e = int(rng.integers(1, edge_cap + 1))
            start = int(rng.integers(0, s - e + 1))
            lo.append(start)
            hi.append(start + e)
        yield tuple(lo), tuple(hi)


def boundary_slabs(shape: Sequence[int],
                   thickness: int = 1) -> Iterator[tuple[tuple, tuple]]:
    """The low and high boundary slab of every dimension.

    Exercises partial edge chunks — the place where clipping bugs live.
    """
    k = len(shape)
    for d in range(k):
        t = min(thickness, shape[d])
        lo = [0] * k
        hi = list(shape)
        hi[d] = t
        yield tuple(lo), tuple(hi)
        lo = [0] * k
        hi = list(shape)
        lo[d] = shape[d] - t
        yield tuple(lo), tuple(hi)


def chunk_boxes(lo: Sequence[int], hi: Sequence[int],
                chunk_shape: Sequence[int]
                ) -> Iterator[tuple[tuple, tuple]]:
    """The box ``[lo, hi)`` cut along chunk boundaries: one sub-box per
    chunk it touches, in chunk-grid order.

    Chunk-at-a-time access — every request compiles to a one-chunk
    plan, so the engine issues one store call per chunk: the baseline
    run coalescing is measured against.
    """
    for it in iter_box_intersections(lo, hi, chunk_shape):
        yield (tuple(l + s.start for l, s in zip(lo, it.box_slices)),
               tuple(l + s.stop for l, s in zip(lo, it.box_slices)))
