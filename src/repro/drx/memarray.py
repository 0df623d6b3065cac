"""Memory-resident extendible arrays.

DRX "has the added feature that the memory arrays can be maintained as
either conventional arrays or memory resident extendible arrays".  A
:class:`MemExtendibleArray` keeps the chunks in memory (one NumPy buffer
per chunk, indexed by linear chunk address) and uses the same axial-
vector mapping as the file format — the in-core realization discussed in
the paper's reference [22].

It supports the same element/sub-array/extend interface as
:class:`~repro.drx.drxfile.DRXFile`, converts to and from conventional
NumPy arrays, and round-trips through a DRX file.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.chunking import box_shape, chunk_of, validate_box
from ..core.errors import DRXIndexError
from ..core.metadata import DRXMeta, DRXType
from .ioplan import plan_box

__all__ = ["MemExtendibleArray"]


class MemExtendibleArray:
    """An in-core dense extendible array (chunked, axial-vector mapped)."""

    def __init__(self, bounds: Sequence[int], chunk_shape: Sequence[int],
                 dtype: str | np.dtype | type = DRXType.DOUBLE) -> None:
        self.meta = DRXMeta.create(bounds, chunk_shape, dtype)
        self._chunks: list[np.ndarray] = [
            np.zeros(self.meta.chunk_shape, dtype=self.meta.dtype)
            for _ in range(self.meta.num_chunks)
        ]

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.meta.element_bounds

    @property
    def chunk_shape(self) -> tuple[int, ...]:
        return self.meta.chunk_shape

    @property
    def dtype(self) -> np.dtype:
        return self.meta.dtype

    @property
    def rank(self) -> int:
        return self.meta.rank

    @property
    def num_chunks(self) -> int:
        return self.meta.num_chunks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MemExtendibleArray(shape={self.shape}, "
                f"chunks={self.chunk_shape}, dtype={self.meta.dtype_name})")

    # ------------------------------------------------------------------
    # growth
    # ------------------------------------------------------------------
    def extend(self, dim: int, by: int) -> None:
        """Extend dimension ``dim`` by ``by`` elements (zero filled)."""
        self.meta.extend_elements(dim, by)
        while len(self._chunks) < self.meta.num_chunks:
            self._chunks.append(
                np.zeros(self.meta.chunk_shape, dtype=self.meta.dtype)
            )

    # ------------------------------------------------------------------
    # element access
    # ------------------------------------------------------------------
    def get(self, index: Sequence[int]):
        self._check_element(index)
        ci, local = chunk_of(index, self.chunk_shape)
        return self._chunks[self.meta.eci.address(ci)][local].copy()

    def put(self, index: Sequence[int], value) -> None:
        self._check_element(index)
        ci, local = chunk_of(index, self.chunk_shape)
        self._chunks[self.meta.eci.address(ci)][local] = value

    def __getitem__(self, index):
        return self.get(index)

    def __setitem__(self, index, value) -> None:
        self.put(index, value)

    def _check_element(self, index: Sequence[int]) -> None:
        if len(index) != self.rank:
            raise DRXIndexError(f"index rank {len(index)} != {self.rank}")
        for i, n in zip(index, self.shape):
            if not 0 <= i < n:
                raise DRXIndexError(
                    f"element {tuple(index)} outside bounds {self.shape}"
                )

    # ------------------------------------------------------------------
    # sub-array access
    # ------------------------------------------------------------------
    def read(self, lo: Sequence[int] | None = None,
             hi: Sequence[int] | None = None,
             order: str = "C") -> np.ndarray:
        if order not in ("C", "F"):
            raise DRXIndexError(f"order must be 'C' or 'F', got {order!r}")
        lo = tuple(lo) if lo is not None else (0,) * self.rank
        hi = tuple(hi) if hi is not None else self.shape
        validate_box(lo, hi, self.shape)
        # allocate directly in the requested order and scatter chunks
        # into it — on-the-fly transposition, no post-hoc copy
        out = np.zeros(box_shape(lo, hi), dtype=self.dtype, order=order)
        for v in self._visits(lo, hi):
            out[v.box_slices] = self._chunks[v.address][v.chunk_slices]
        return out

    def write(self, lo: Sequence[int], values: np.ndarray) -> None:
        values = np.asarray(values, dtype=self.dtype)
        lo = tuple(lo)
        hi = tuple(l + s for l, s in zip(lo, values.shape))
        validate_box(lo, hi, self.shape)
        for v in self._visits(lo, hi):
            self._chunks[v.address][v.chunk_slices] = values[v.box_slices]

    def _visits(self, lo, hi):
        return plan_box(self.meta.eci, lo, hi, self.chunk_shape,
                        self.meta.chunk_nbytes).visits

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_numpy(self, order: str = "C") -> np.ndarray:
        """The whole array as a conventional NumPy array."""
        return self.read(None, None, order)

    @classmethod
    def from_numpy(cls, values: np.ndarray,
                   chunk_shape: Sequence[int]) -> "MemExtendibleArray":
        arr = cls(values.shape, chunk_shape, values.dtype)
        arr.write((0,) * values.ndim, values)
        return arr

    def to_drx(self, path, overwrite: bool = False):
        """Store into a DRX file pair (same chunk layout byte for byte)."""
        from .drxfile import DRXFile
        f = DRXFile.create(path, self.shape, self.chunk_shape,
                           self.meta.dtype_name, overwrite=overwrite)
        # carry the growth history over so the file's axial vectors (and
        # therefore its chunk addresses) match this array exactly
        f.meta.eci = self.meta.eci.copy()
        f.meta.element_bounds = self.shape
        if self._chunks:
            nbytes = f.meta.chunk_nbytes
            f._data.writev([(0, nbytes * len(self._chunks))],
                           b"".join(chunk.tobytes()
                                    for chunk in self._chunks))
        f._persist_meta()
        return f

    @classmethod
    def from_drx(cls, drxfile) -> "MemExtendibleArray":
        """Load a DRX file fully into memory, preserving the growth
        history (axial vectors are replicated, not recomputed)."""
        arr = cls.__new__(cls)
        arr.meta = drxfile.meta.replicate()
        nbytes = arr.meta.chunk_nbytes
        arr._chunks = []
        if arr.meta.num_chunks:
            blob = memoryview(
                drxfile._data.readv([(0, nbytes * arr.meta.num_chunks)]))
            for q in range(arr.meta.num_chunks):
                raw = blob[q * nbytes:(q + 1) * nbytes]
                arr._chunks.append(
                    np.frombuffer(bytearray(raw), dtype=arr.meta.dtype)
                    .reshape(arr.meta.chunk_shape)
                )
        return arr
