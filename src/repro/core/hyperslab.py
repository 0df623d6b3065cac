"""Strided hyperslab selections over chunked arrays.

Self-describing chunked formats expose strided rectangular selections
(HDF5 calls them *hyperslabs*): ``(start, stride, count)`` per dimension
selects ``count`` elements ``stride`` apart beginning at ``start``.
DRX supports the same selection model on top of its chunk machinery:
the bounding box of the slab is covered chunk by chunk, and within each
chunk the lattice elements are picked with NumPy slicing — no
per-element Python loop.

A :class:`Hyperslab` is pure geometry; the I/O lives in the file
classes' ``read_slab``/``write_slab``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Sequence

from .errors import DRXIndexError

__all__ = ["Hyperslab"]


@dataclass(frozen=True)
class Hyperslab:
    """A strided selection: per-dimension ``(start, stride, count)``."""

    start: tuple[int, ...]
    stride: tuple[int, ...]
    count: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (len(self.start) == len(self.stride) == len(self.count)):
            raise DRXIndexError("hyperslab field ranks differ")
        for s, st, c in zip(self.start, self.stride, self.count):
            if s < 0 or st < 1 or c < 1:
                raise DRXIndexError(
                    f"invalid hyperslab: start={self.start} "
                    f"stride={self.stride} count={self.count}"
                )

    @classmethod
    def build(cls, start: Sequence[int], stride: Sequence[int],
              count: Sequence[int]) -> "Hyperslab":
        return cls(tuple(int(x) for x in start),
                   tuple(int(x) for x in stride),
                   tuple(int(x) for x in count))

    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        return len(self.start)

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the selected (dense) result array."""
        return self.count

    @property
    def nelems(self) -> int:
        return prod(self.count)

    def bounding_box(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Half-open element box enclosing every selected element."""
        lo = self.start
        hi = tuple(s + (c - 1) * st + 1
                   for s, st, c in zip(self.start, self.stride, self.count))
        return lo, hi

    def validate(self, bounds: Sequence[int]) -> None:
        _lo, hi = self.bounding_box()
        for h, n in zip(hi, bounds):
            if h > n:
                raise DRXIndexError(
                    f"hyperslab {self} exceeds bounds {tuple(bounds)}"
                )

    # ------------------------------------------------------------------
    def box_selector(self, box_lo: Sequence[int], box_hi: Sequence[int]
                     ) -> tuple[tuple[slice, ...], tuple[slice, ...]] | None:
        """Slices extracting this slab's lattice from a covering box.

        Given a box ``[box_lo, box_hi)`` (e.g. one chunk's clipped
        region), returns ``(box_slices, out_slices)`` such that
        ``out[out_slices] = box[box_slices]`` moves exactly the selected
        lattice points inside the box — or ``None`` when the box contains
        no lattice point.  Strided NumPy slices, no element loops.  The
        selection is separable: it is :meth:`axis_selector` per dimension.
        """
        box_slices = []
        out_slices = []
        for j, (lo, hi) in enumerate(zip(box_lo, box_hi)):
            sel = self.axis_selector(j, lo, hi)
            if sel is None:
                return None
            box_slices.append(sel[0])
            out_slices.append(sel[1])
        return tuple(box_slices), tuple(out_slices)

    def axis_selector(self, j: int, lo: int, hi: int
                      ) -> tuple[slice, slice] | None:
        """:meth:`box_selector` along dimension ``j`` alone: the slice of
        ``[lo, hi)`` holding the lattice and the matching output slice,
        or ``None`` when ``[lo, hi)`` holds no lattice index."""
        s, st, c = self.start[j], self.stride[j], self.count[j]
        # first lattice index >= lo
        first_i = 0 if lo <= s else -(-(lo - s) // st)
        last_i = (hi - 1 - s) // st           # last lattice index < hi
        if first_i >= c or last_i < first_i:
            return None
        last_i = min(last_i, c - 1)
        first = s + first_i * st
        return (slice(first - lo, (s + last_i * st) - lo + 1, st),
                slice(first_i, last_i + 1))
