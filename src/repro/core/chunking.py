"""Element <-> chunk arithmetic.

The paper stores the array by *chunks*: fixed-shape k-dimensional
sub-arrays that are the unit of transfer between memory and the file
("A chunk is the unit of access of data between memory and file
storage").  Within a chunk, elements are laid out in conventional
row-major order ("The elements within a chunk are assigned according to
the conventional row-major ordering").

This module provides the pure arithmetic connecting the *element* index
space to the *chunk* index space:

* which chunk an element lives in and its row-major offset inside it;
* how many chunks cover the current element bounds (the last chunk of a
  dimension may be partial — "the maximum index of a dimension does not
  necessarily fall exactly on a segment boundary");
* which chunks intersect a rectilinear element box, and the per-chunk
  source/destination slices needed to copy that intersection — the
  primitive underneath every sub-array read/write in DRX and DRX-MP.

Everything is pure and deterministic.  The box primitive is scalar: a
box's overlap with a chunk is separable, so :func:`axis_rows` walks each
dimension's chunk range once and the chunks are the product of those
rows — cheaper than any NumPy call on the few chunks of a small request.
:func:`chunks_covering_box` stays vectorized for zone-sized batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from operator import index, sub
from typing import Iterator, Sequence

import numpy as np

from .errors import DRXExtendError, DRXIndexError

__all__ = [
    "ceil_div",
    "chunk_bounds_for",
    "chunk_of",
    "within_chunk_offset",
    "chunk_element_box",
    "chunks_covering_box",
    "ChunkIntersection",
    "axis_row",
    "axis_rows",
    "iter_box_intersections",
    "box_shape",
    "index_tuple",
    "validate_box",
]


def ceil_div(a: int, b: int) -> int:
    """Ceiling integer division for non-negative ``a`` and positive ``b``."""
    return -(-a // b)


def chunk_bounds_for(element_bounds: Sequence[int],
                     chunk_shape: Sequence[int]) -> tuple[int, ...]:
    """Chunk-level bounds covering ``element_bounds``.

    ``chunk_bounds_for((10, 12), (2, 3)) == (5, 4)``: the Fig. 1 array
    A[10][12] with 2x3 chunks occupies a 5x4 chunk grid.
    """
    if len(element_bounds) != len(chunk_shape):
        raise DRXExtendError(
            f"rank mismatch: bounds {tuple(element_bounds)} vs chunk shape "
            f"{tuple(chunk_shape)}"
        )
    if any(c < 1 for c in chunk_shape):
        raise DRXExtendError(f"chunk shape must be >= 1, got {tuple(chunk_shape)}")
    if any(n < 1 for n in element_bounds):
        raise DRXExtendError(f"element bounds must be >= 1, got {tuple(element_bounds)}")
    return tuple(ceil_div(n, c) for n, c in zip(element_bounds, chunk_shape))


def chunk_of(element_index: Sequence[int],
             chunk_shape: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Chunk index and within-chunk coordinates of one element.

    Returns ``(chunk_index, local_coords)`` with
    ``element_index = chunk_index * chunk_shape + local_coords``.
    """
    ci = []
    local = []
    for i, c in zip(element_index, chunk_shape):
        if i < 0:
            raise DRXIndexError(f"negative element index {tuple(element_index)}")
        q, r = divmod(i, c)
        ci.append(q)
        local.append(r)
    return tuple(ci), tuple(local)


def within_chunk_offset(local_coords: Sequence[int],
                        chunk_shape: Sequence[int]) -> int:
    """Row-major linear offset of ``local_coords`` inside one chunk."""
    off = 0
    for coord, extent in zip(local_coords, chunk_shape):
        off = off * extent + coord
    return off


def chunk_element_box(chunk_index: Sequence[int],
                      chunk_shape: Sequence[int],
                      element_bounds: Sequence[int] | None = None,
                      ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Half-open element box ``(lo, hi)`` covered by a chunk.

    If ``element_bounds`` is given, the box is clipped to it (partial edge
    chunks store a full-size chunk but only the clipped region is valid).
    """
    lo = tuple(ci * c for ci, c in zip(chunk_index, chunk_shape))
    hi = tuple(l + c for l, c in zip(lo, chunk_shape))
    if element_bounds is not None:
        hi = tuple(min(h, n) for h, n in zip(hi, element_bounds))
        if any(l >= h for l, h in zip(lo, hi)):
            raise DRXIndexError(
                f"chunk {tuple(chunk_index)} lies entirely outside element "
                f"bounds {tuple(element_bounds)}"
            )
    return lo, hi


def index_tuple(values, what: str = "index") -> tuple[int, ...]:
    """``values`` as a tuple of Python ints, through ``operator.index``.

    Integer types (NumPy's included) pass; anything else — a float, even
    an integral one — raises :class:`DRXIndexError` naming ``what``.
    The API boundary's one conversion: past it, corners and indices are
    plain ints.
    """
    try:
        return tuple(map(index, values))
    except TypeError:
        raise DRXIndexError(f"{what} {values!r} is not a sequence of "
                            f"integers") from None


def validate_box(lo, hi, element_bounds: Sequence[int]
                 ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Check that ``[lo, hi)`` is a non-empty integer box inside
    ``element_bounds``; return it as ``(lo, hi, shape)``, its corners
    made ints by :func:`index_tuple`."""
    lo = index_tuple(lo, "box corner")
    hi = index_tuple(hi, "box corner")
    if not len(lo) == len(hi) == len(element_bounds):
        raise DRXIndexError("box rank mismatch")
    for l, h, n in zip(lo, hi, element_bounds):
        if not (0 <= l < h <= n):
            raise DRXIndexError(
                f"box lo={lo} hi={hi} invalid for bounds "
                f"{tuple(element_bounds)}"
            )
    return lo, hi, tuple(map(sub, hi, lo))


def box_shape(lo: Sequence[int], hi: Sequence[int]) -> tuple[int, ...]:
    """Shape of the half-open box ``[lo, hi)``."""
    return tuple(h - l for l, h in zip(lo, hi))


def chunks_covering_box(lo: Sequence[int], hi: Sequence[int],
                        chunk_shape: Sequence[int]) -> np.ndarray:
    """All chunk indices intersecting the half-open element box ``[lo, hi)``.

    Returns an ``(m, k)`` int64 array in row-major order of the chunk
    grid.  Vectorized: built from one ``np.indices`` call.
    """
    first = [l // c for l, c in zip(lo, chunk_shape)]
    last = [ceil_div(h, c) for h, c in zip(hi, chunk_shape)]  # exclusive
    extents = [b - a for a, b in zip(first, last)]
    if any(e <= 0 for e in extents):
        return np.empty((0, len(chunk_shape)), dtype=np.int64)
    grid = np.indices(extents, dtype=np.int64).reshape(len(extents), -1).T
    return grid + np.asarray(first, dtype=np.int64)


@dataclass(frozen=True, slots=True)
class ChunkIntersection:
    """The overlap of a request box with one chunk.

    Attributes
    ----------
    chunk_index:
        k-dimensional index of the chunk.
    chunk_slices:
        Slices *within the chunk* (local coordinates) selecting the
        overlapping region.
    box_slices:
        Slices *within the request box* (coordinates relative to the box
        origin) receiving/supplying that region.
    full:
        True when the chunk is entirely inside the request box (the whole
        chunk payload moves — the fast path for chunk-aligned I/O).
    """

    chunk_index: tuple[int, ...]
    chunk_slices: tuple[slice, ...]
    box_slices: tuple[slice, ...]
    full: bool

    @property
    def nelems(self) -> int:
        return prod(s.stop - s.start for s in self.chunk_slices)


#: One chunk index along one dimension: ``(i, chunk_slice, box_slice,
#: full)`` — see :func:`axis_row`.
AxisEntry = tuple[int, slice, slice, bool]


def axis_row(l: int, h: int, c: int) -> list[AxisEntry]:
    """The chunks covering ``[l, h)`` along one dimension of chunk extent
    ``c``: one entry per chunk index ``i`` in ``[l // c, ceil(h / c))``,
    ``(i, chunk_slice, box_slice, full)`` — the overlap with that chunk
    in chunk-local and box-relative coordinates, and whether it spans
    the whole chunk.  Empty when ``l >= h``."""
    row = []
    for i in range(l // c, -(-h // c)):
        c_lo = i * c
        c_hi = c_lo + c
        o_lo = l if l > c_lo else c_lo
        o_hi = h if h < c_hi else c_hi
        row.append((i, slice(o_lo - c_lo, o_hi - c_lo),
                    slice(o_lo - l, o_hi - l),
                    o_lo == c_lo and o_hi == c_hi))
    return row


def axis_rows(lo: Sequence[int], hi: Sequence[int],
              chunk_shape: Sequence[int]) -> list[list[AxisEntry]]:
    """The chunks covering ``[lo, hi)``, one :func:`axis_row` per
    dimension.

    A box's overlap with a chunk is separable, so the covering chunks
    are exactly ``itertools.product`` of the rows — in row-major order —
    and each chunk's overlap is its entries' slices.  An empty box
    (``lo_j >= hi_j``) gives an empty row.
    """
    return [axis_row(l, h, c) for l, h, c in zip(lo, hi, chunk_shape)]


def iter_box_intersections(lo: Sequence[int], hi: Sequence[int],
                           chunk_shape: Sequence[int],
                           ) -> Iterator[ChunkIntersection]:
    """Iterate every chunk intersecting ``[lo, hi)`` with its copy slices.

    The iteration order is row-major over the covered chunk grid, which is
    also the order :func:`chunks_covering_box` returns.  Built on
    :func:`axis_rows`: a chunk is one element of the rows' product.
    """
    for chunk in product(*axis_rows(lo, hi, chunk_shape)):
        index, chunk_slices, box_slices, full = zip(*chunk)
        yield ChunkIntersection(index, chunk_slices, box_slices, all(full))
