"""Array-at-a-time chunk scatter/gather kernels.

The paper's read path recovers each arriving chunk's k-dimensional index
with ``F*⁻¹`` and assigns it "to the desired location in memory".  Done
one chunk at a time that assignment is a Python loop: a tuple of slices
is built per chunk and a tiny strided copy issued, so for thousands of
small chunks the interpreter — not the memory system — sets the pace.

This module replaces the loop with whole-batch NumPy operations.  The
key observation: the chunks touched by a rectilinear request form a
**dense chunk grid** (every chunk index in ``[g_lo, g_hi)`` appears
exactly once).  A dense grid scatters with three C-level operations,
independent of the number of chunks:

1. a fancy-index assignment placing every payload at its grid position
   of a scratch array viewed as ``(g0, c0, g1, c1, ...)`` interleaved
   grid/chunk axes;
2. nothing — the transpose is a stride trick, not a copy;
3. one sliced assignment moving the requested element box into the
   destination array (any memory order — NumPy handles the strides).

Gather runs the same dance backwards.  Requests whose chunk set is not
a dense grid (hyperslabs that skip chunks, degenerate plans) fall back
to a per-chunk loop over **vectorized** box arithmetic — the geometry
is still computed for the whole batch at once.

:func:`set_vectorized` forces the per-chunk fallback everywhere; the
autotune macro-benchmark flips this switch to measure the pure-CPU win
of vectorization with no other confounder, and the regression tests
flip it to prove both paths bit-identical.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

__all__ = [
    "ScatterStats",
    "SCATTER_STATS",
    "vectorized_enabled",
    "set_vectorized",
    "chunk_boxes",
    "scatter_chunks",
    "gather_chunks",
    "full_chunk_mask",
]


_vectorized = True

#: Dense-grid fast path cutoff: chunk payloads at most this many bytes
#: go through the grid kernels.  Small chunks are interpreter-bound (the
#: per-chunk loop costs ~4 µs of Python per chunk vs. microseconds of
#: memmove) and batch 2-7x faster; large chunks are memmove-bound, where
#: the grid scratch's extra full copy costs more than the loop saves
#: (measured crossover ~8 KiB on the E2/E5 shapes).
_DENSE_CHUNK_CUTOFF = 4096


def vectorized_enabled() -> bool:
    """Whether the dense-grid fast paths are active (default on)."""
    return _vectorized


def set_vectorized(enabled: bool) -> bool:
    """Force the kernels on/off at runtime; returns the previous value.

    The autotune benchmark uses this to measure the vectorization win in
    isolation; tests use it to prove both paths bit-identical.
    """
    global _vectorized
    prev = _vectorized
    _vectorized = bool(enabled)
    return prev


@dataclass
class ScatterStats:
    """Counters for the scatter/gather kernels (process-wide)."""

    dense_ops: int = 0      #: batches served by the dense-grid fast path
    fallback_ops: int = 0   #: batches served by the per-chunk loop
    chunks_moved: int = 0   #: chunk payloads moved through either path
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  init=False, repr=False, compare=False)

    def note(self, dense: bool, nchunks: int) -> None:
        with self._lock:
            if dense:
                self.dense_ops += 1
            else:
                self.fallback_ops += 1
            self.chunks_moved += nchunks

    def snapshot(self) -> "ScatterStats":
        return replace(self)


#: Process-wide kernel counters (advisor input; asserted by tests).
SCATTER_STATS = ScatterStats()


def chunk_boxes(indices: np.ndarray, chunk_shape: Sequence[int],
                element_bounds: Sequence[int]
                ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`~repro.core.chunking.chunk_element_box`.

    Returns ``(lo, hi)`` as ``(n, k)`` int64 arrays: per chunk the
    half-open element box clipped to ``element_bounds``.
    """
    cs = np.asarray(chunk_shape, dtype=np.int64)
    lo = indices * cs
    hi = np.minimum(lo + cs, np.asarray(element_bounds, dtype=np.int64))
    return lo, hi


def full_chunk_mask(indices: np.ndarray, chunk_shape: Sequence[int],
                    element_bounds: Sequence[int],
                    box_lo: Sequence[int], box_hi: Sequence[int]
                    ) -> np.ndarray:
    """Boolean mask of chunks fully covered by ``[box_lo, box_hi)``.

    A chunk is *full* when its clipped element box lies entirely inside
    the request box — writing it needs no read-modify-write.
    """
    lo, hi = chunk_boxes(indices, chunk_shape, element_bounds)
    blo = np.asarray(box_lo, dtype=np.int64)
    bhi = np.asarray(box_hi, dtype=np.int64)
    return ((lo >= blo) & (hi <= bhi)).all(axis=1)


# ---------------------------------------------------------------------------
# dense-grid detection
# ---------------------------------------------------------------------------

def _grid_map(indices: np.ndarray):
    """``(g_lo, gshape, grid_coords)`` when ``indices`` is a dense grid.

    Dense: every chunk index of the bounding grid ``[g_lo, g_hi)``
    appears exactly once.  Returns ``None`` otherwise (the caller falls
    back to the per-chunk loop).
    """
    n = indices.shape[0]
    g_lo = indices.min(axis=0)
    gshape = indices.max(axis=0) + 1 - g_lo
    total = int(np.prod(gshape))
    if total != n:
        return None
    coords = (indices - g_lo).T
    gp = np.ravel_multi_index(tuple(coords), tuple(gshape))
    if np.bincount(gp, minlength=n).max() != 1:
        return None     # duplicates => some grid cell is missing too
    return g_lo, tuple(int(x) for x in gshape), tuple(coords)


def _grid_scratch(gshape: tuple[int, ...], chunk_shape: Sequence[int],
                  dtype) -> tuple[np.ndarray, np.ndarray]:
    """A scratch element array spanning the whole chunk grid, plus the
    interleaved ``(g0, c0, g1, c1, ...)`` view transposed to
    ``(g0, ..., gk-1, c0, ..., ck-1)`` — a stride trick, no copy."""
    k = len(gshape)
    elem_shape = tuple(g * c for g, c in zip(gshape, chunk_shape))
    tmp = np.empty(elem_shape, dtype=dtype)
    inter = tuple(x for gc in zip(gshape, chunk_shape) for x in gc)
    axes = tuple(range(0, 2 * k, 2)) + tuple(range(1, 2 * k, 2))
    return tmp, tmp.reshape(inter).transpose(axes)


def _grid_selectors(g_lo: np.ndarray, gshape: tuple[int, ...],
                    chunk_shape: Sequence[int],
                    element_bounds: Sequence[int],
                    origin: Sequence[int], box_shape: Sequence[int]):
    """Slices mapping the scratch grid onto the request box.

    Returns ``(sel_tmp, sel_box)`` — matching selections of the scratch
    array and of the request's in-memory array — or ``None`` when the
    intersection is empty.
    """
    k = len(gshape)
    sel_tmp = []
    sel_box = []
    for d in range(k):
        G = int(g_lo[d]) * chunk_shape[d]
        g_end = min(G + gshape[d] * chunk_shape[d], element_bounds[d])
        a = max(G, origin[d])
        b = min(g_end, origin[d] + box_shape[d])
        if a >= b:
            return None
        sel_tmp.append(slice(a - G, b - G))
        sel_box.append(slice(a - origin[d], b - origin[d]))
    return tuple(sel_tmp), tuple(sel_box)


# ---------------------------------------------------------------------------
# scatter (read side: file-order payloads -> in-memory box)
# ---------------------------------------------------------------------------

def scatter_chunks(staging: np.ndarray, indices: np.ndarray,
                   chunk_shape: Sequence[int],
                   element_bounds: Sequence[int],
                   out: np.ndarray, origin: Sequence[int]) -> None:
    """Scatter chunk payloads into ``out`` (element box at ``origin``).

    ``staging`` is ``(n, *chunk_shape)`` with ``staging[i]`` the payload
    of chunk ``indices[i]``; only the intersection of each chunk's
    clipped element box with ``[origin, origin + out.shape)`` is copied,
    so the same kernel serves zone reads (chunks inside the box) and
    arbitrary box reads (edge chunks sticking out of it).
    """
    n = indices.shape[0]
    if n == 0:
        return
    if _vectorized and n > 1 and staging[0].nbytes <= _DENSE_CHUNK_CUTOFF:
        grid = _grid_map(indices)
        if grid is not None:
            g_lo, gshape, coords = grid
            sel = _grid_selectors(g_lo, gshape, chunk_shape,
                                  element_bounds, origin, out.shape)
            if sel is None:
                return
            tmp, v = _grid_scratch(gshape, chunk_shape, staging.dtype)
            v[coords] = staging
            sel_tmp, sel_out = sel
            out[sel_out] = tmp[sel_tmp]
            SCATTER_STATS.note(True, n)
            return
    _loop_scatter(staging, indices, chunk_shape, element_bounds,
                  out, origin)
    SCATTER_STATS.note(False, n)


def _loop_scatter(staging, indices, chunk_shape, element_bounds,
                  out, origin) -> None:
    lo, hi = chunk_boxes(indices, chunk_shape, element_bounds)
    org = np.asarray(origin, dtype=np.int64)
    o_lo = np.maximum(lo, org)
    o_hi = np.minimum(hi, org + np.asarray(out.shape, dtype=np.int64))
    valid = (o_lo < o_hi).all(axis=1)
    src_lo = (o_lo - lo).tolist()
    src_hi = (o_hi - lo).tolist()
    dst_lo = (o_lo - org).tolist()
    dst_hi = (o_hi - org).tolist()
    for i in np.flatnonzero(valid).tolist():
        src = tuple(map(slice, src_lo[i], src_hi[i]))
        dst = tuple(map(slice, dst_lo[i], dst_hi[i]))
        out[dst] = staging[i][src]


# ---------------------------------------------------------------------------
# gather (write side: in-memory box -> file-order payloads)
# ---------------------------------------------------------------------------

def gather_chunks(indices: np.ndarray, chunk_shape: Sequence[int],
                  element_bounds: Sequence[int],
                  values: np.ndarray, origin: Sequence[int],
                  staging: np.ndarray | None = None,
                  dtype=None) -> np.ndarray:
    """Build chunk payloads from ``values`` (element box at ``origin``).

    With ``staging=None`` a zero-filled ``(n, *chunk_shape)`` array is
    allocated — pad regions (beyond the clipped box or outside
    ``values``) stay zero, matching the historical write path.  Passing
    an existing ``staging`` overlays ``values`` onto it instead (the
    read-modify-write of partially covered chunks keeps the bytes read
    from the file).
    """
    n = indices.shape[0]
    cs = tuple(chunk_shape)
    if staging is None:
        staging = np.zeros((n, *cs), dtype=dtype or values.dtype)
    if n == 0:
        return staging
    if _vectorized and n > 1 and staging[0].nbytes <= _DENSE_CHUNK_CUTOFF:
        grid = _grid_map(indices)
        if grid is not None:
            g_lo, gshape, coords = grid
            sel = _grid_selectors(g_lo, gshape, cs, element_bounds,
                                  origin, values.shape)
            if sel is not None:
                tmp, v = _grid_scratch(gshape, cs, staging.dtype)
                # seed the scratch grid with the existing payloads so
                # un-overlaid bytes (pads, RMW data) survive the round
                # trip bit-identically
                v[coords] = staging
                sel_tmp, sel_val = sel
                tmp[sel_tmp] = values[sel_val]
                staging[...] = v[coords]
                SCATTER_STATS.note(True, n)
                return staging
    _loop_gather(staging, indices, cs, element_bounds, values, origin)
    SCATTER_STATS.note(False, n)
    return staging


def _loop_gather(staging, indices, chunk_shape, element_bounds,
                 values, origin) -> None:
    lo, hi = chunk_boxes(indices, chunk_shape, element_bounds)
    org = np.asarray(origin, dtype=np.int64)
    o_lo = np.maximum(lo, org)
    o_hi = np.minimum(hi, org + np.asarray(values.shape, dtype=np.int64))
    valid = (o_lo < o_hi).all(axis=1)
    dst_lo = (o_lo - lo).tolist()
    dst_hi = (o_hi - lo).tolist()
    src_lo = (o_lo - org).tolist()
    src_hi = (o_hi - org).tolist()
    for i in np.flatnonzero(valid).tolist():
        dst = tuple(map(slice, dst_lo[i], dst_hi[i]))
        src = tuple(map(slice, src_lo[i], src_hi[i]))
        staging[i][dst] = values[src]
