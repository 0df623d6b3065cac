"""Axial vectors: the per-dimension expansion history of an extendible array.

The paper (section III-B) stores, for every dimension ``l`` of a
k-dimensional extendible array, one *axial vector* |Gamma_l| of expansion
records.  A record is written whenever dimension ``l`` is extended after an
intervening extension of some *other* dimension (an "interrupted"
extension); consecutive extensions of the same dimension merge into a
single record ("uninterrupted" extensions).

Each record captures everything needed to compute linear chunk addresses
inside the hyper-slab *segment* that the extension adjoined:

``start_index``
    ``N*_l`` — the first chunk index along ``l`` covered by the segment.
``start_address``
    ``M*_l`` — the linear chunk address of the segment's first chunk (the
    total number of chunks that existed when the segment was adjoined).
    The sentinel records described below use ``-1`` here.
``coeffs``
    ``C[k]`` — the multiplying coefficients.  For the extension dimension
    ``l`` (the least-varying dimension of the segment) ``coeffs[l]`` is the
    product of the bounds of every *other* dimension at extension time;
    for ``j != l`` it is the row-major coefficient over the remaining
    dimensions, ``prod(N*_r for r > j if r != l)``.
``file_offset``
    ``S`` — the byte displacement in the ``.xta`` file where the segment
    begins.  The paper notes this field is redundant for append-only array
    files (it always equals ``start_address * chunk_bytes``); we keep it
    for fidelity with the meta-data layout of Fig. 3b.

Two special records appear at creation time, as in Fig. 3b of the paper:
the *initial allocation* is recorded with ``(N* = 0, M* = 0, C = row-major
coefficients)`` (so that addresses inside the initial box are plain
row-major), and every other dimension receives a *sentinel* record
``(N* = 0, M* = -1, C = 0)`` whose ``-1`` start address loses every
``max`` comparison during address computation.  We attribute the initial
record to dimension **0**: row-major coefficients are identical to the
extension coefficients of dimension 0 (the least-varying dimension), the
stored numbers match the paper's figure exactly, and the attribution
makes the inverse decode uniform — every record's own dimension is the
least-varying dimension of its segment and is peeled first.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DRXFormatError, DRXIndexError

__all__ = ["AxialRecord", "AxialVector", "SENTINEL_ADDRESS"]

#: ``start_address`` of the sentinel record placed in the axial vectors of
#: dimensions 0..k-2 at creation time (Fig. 3b shows ``0; -1; 0 0 0``).
SENTINEL_ADDRESS = -1

#: :meth:`AxialVector.span`'s bound for the last record, which reaches
#: every later index.
_NO_END = float("inf")


@dataclass(frozen=True, slots=True)
class AxialRecord:
    """One expansion record of an axial vector.

    Instances are immutable: once a segment has been adjoined its
    addressing parameters never change — this is precisely what makes the
    array extendible without reorganization.
    """

    dim: int
    """The dimension whose extension wrote this record."""

    start_index: int
    """``N*_l``: first chunk index along ``dim`` covered by the segment."""

    start_address: int
    """``M*``: linear chunk address of the segment's first chunk
    (:data:`SENTINEL_ADDRESS` for sentinel records)."""

    coeffs: tuple[int, ...]
    """``C[k]``: the stored multiplying coefficients."""

    file_offset: int = 0
    """``S``: byte displacement of the segment in the data file."""

    def __post_init__(self) -> None:
        if self.dim < 0 or self.dim >= len(self.coeffs):
            raise DRXFormatError(
                f"record dimension {self.dim} outside rank {len(self.coeffs)}"
            )
        if self.start_index < 0:
            raise DRXFormatError(f"negative start index {self.start_index}")

    @property
    def is_sentinel(self) -> bool:
        """True for the placeholder record of a never-extended dimension."""
        return self.start_address == SENTINEL_ADDRESS

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    def address_of(self, index: Sequence[int]) -> int:
        """Linear chunk address of ``index`` assuming this record governs it.

        Implements the paper's Eq. (1)::

            q* = M* + (I_l - N*_l) * C_l + sum_{j != l} I_j * C_j

        The caller is responsible for having selected the governing record
        (the one with the maximum segment start address among the per-
        dimension binary-search results); this method just evaluates the
        arithmetic.
        """
        if self.is_sentinel:
            raise DRXIndexError("sentinel record cannot address any chunk")
        l = self.dim
        q = self.start_address + (index[l] - self.start_index) * self.coeffs[l]
        for j, ij in enumerate(index):
            if j != l:
                q += ij * self.coeffs[j]
        return q

    def index_of(self, address: int, rank: int) -> tuple[int, ...]:
        """Inverse of :meth:`address_of` within this record's segment.

        Decodes the k-dimensional chunk index from a linear ``address``
        that is known to fall inside the segment this record describes.
        The extension dimension is the least-varying one inside the
        segment, so it is peeled off first; the remaining offset is a
        mixed-radix row-major encoding of the other dimensions.
        """
        if self.is_sentinel:
            raise DRXIndexError("sentinel record holds no chunks")
        offset = address - self.start_address
        if offset < 0:
            raise DRXIndexError(
                f"address {address} precedes segment start {self.start_address}"
            )
        l = self.dim
        out = [0] * rank
        out[l] = self.start_index + offset // self.coeffs[l]
        rem = offset % self.coeffs[l]
        for j in range(rank):
            if j == l:
                continue
            cj = self.coeffs[j]
            if cj > 0:
                out[j], rem = divmod(rem, cj)
            # cj == 0 can only happen for a degenerate one-chunk segment
            # slice; the index component is then 0 which `out` already holds.
        return tuple(out)

    def to_dict(self) -> dict:
        """JSON-serializable form (used by the ``.xmd`` meta-data file)."""
        return {
            "dim": self.dim,
            "start_index": self.start_index,
            "start_address": self.start_address,
            "coeffs": list(self.coeffs),
            "file_offset": self.file_offset,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AxialRecord":
        try:
            return cls(
                dim=int(d["dim"]),
                start_index=int(d["start_index"]),
                start_address=int(d["start_address"]),
                coeffs=tuple(int(c) for c in d["coeffs"]),
                file_offset=int(d.get("file_offset", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DRXFormatError(f"malformed axial record: {d!r}") from exc


class AxialVector:
    """The ordered sequence of expansion records of one dimension.

    Records are kept sorted by ``start_index`` (they are appended in
    strictly increasing ``start_index`` order as the dimension grows), so
    the governing-record lookup of the paper's ``bsearch`` is a plain
    rightmost-``<=`` binary search.

    The class additionally maintains NumPy mirrors of the record fields so
    the vectorized mapping functions (:mod:`repro.core.mapping`) can run
    ``np.searchsorted`` over thousands of indices at once without touching
    Python-level records.
    """

    __slots__ = ("dim", "_records", "_start_indices", "_np_start_indices",
                 "_np_start_addresses", "_np_coeffs", "_np_dirty")

    def __init__(self, dim: int, records: Sequence[AxialRecord] = ()) -> None:
        self.dim = dim
        self._records: list[AxialRecord] = []
        self._start_indices: list[int] = []
        self._np_dirty = True
        self._np_start_indices: np.ndarray | None = None
        self._np_start_addresses: np.ndarray | None = None
        self._np_coeffs: np.ndarray | None = None
        for rec in records:
            self.append(rec)

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[AxialRecord]:
        return iter(self._records)

    def __getitem__(self, i: int) -> AxialRecord:
        return self._records[i]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AxialVector(dim={self.dim}, records={self._records!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AxialVector):
            return NotImplemented
        return self.dim == other.dim and self._records == other._records

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def append(self, record: AxialRecord) -> None:
        """Append an expansion record.

        Records must arrive in strictly increasing ``start_index`` order
        except that the very first (sentinel or initial) record starts at
        index 0.
        """
        if record.dim != self.dim:
            raise DRXFormatError(
                f"record for dimension {record.dim} appended to axial "
                f"vector of dimension {self.dim}"
            )
        if self._records and record.start_index <= self._start_indices[-1]:
            raise DRXFormatError(
                f"axial records out of order: start index "
                f"{record.start_index} after {self._start_indices[-1]}"
            )
        self._records.append(record)
        self._start_indices.append(record.start_index)
        self._np_dirty = True

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def search(self, index: int) -> AxialRecord:
        """The paper's modified binary search.

        Returns the record with the *highest* ``start_index`` that is
        ``<= index`` — i.e. the candidate expansion record of this
        dimension for a chunk whose component along this dimension is
        ``index``.
        """
        return self.span(index)[0]

    def span(self, index: int) -> tuple[AxialRecord, float]:
        """:meth:`search`, plus how far its answer holds: the candidate
        record of ``index`` and the start index of the next record
        (``inf`` past the last one).  Every index from ``index`` up to
        that bound has the same candidate, so a planner splits a row of
        chunk indices there and never searches inside a piece."""
        if index < 0:
            raise DRXIndexError(f"negative chunk index {index}")
        starts = self._start_indices
        pos = bisect_right(starts, index)
        if pos == 0:
            raise DRXIndexError(
                f"no axial record covers index {index} on dimension {self.dim}"
            )
        return (self._records[pos - 1],
                starts[pos] if pos < len(starts) else _NO_END)

    # ------------------------------------------------------------------
    # vectorized mirrors
    # ------------------------------------------------------------------
    def _rebuild_np(self) -> None:
        rank = self._records[0].rank if self._records else 0
        self._np_start_indices = np.asarray(self._start_indices, dtype=np.int64)
        self._np_start_addresses = np.asarray(
            [r.start_address for r in self._records], dtype=np.int64
        )
        self._np_coeffs = np.asarray(
            [r.coeffs for r in self._records], dtype=np.int64
        ).reshape(len(self._records), rank)
        self._np_dirty = False

    @property
    def np_start_indices(self) -> np.ndarray:
        """``(E,)`` int64 array of record start indices (sorted ascending)."""
        if self._np_dirty:
            self._rebuild_np()
        return self._np_start_indices

    @property
    def np_start_addresses(self) -> np.ndarray:
        """``(E,)`` int64 array of segment start addresses."""
        if self._np_dirty:
            self._rebuild_np()
        return self._np_start_addresses

    @property
    def np_coeffs(self) -> np.ndarray:
        """``(E, k)`` int64 array of stored multiplying coefficients."""
        if self._np_dirty:
            self._rebuild_np()
        return self._np_coeffs

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"dim": self.dim, "records": [r.to_dict() for r in self._records]}

    @classmethod
    def from_dict(cls, d: dict) -> "AxialVector":
        try:
            dim = int(d["dim"])
            records = [AxialRecord.from_dict(r) for r in d["records"]]
        except (KeyError, TypeError) as exc:
            raise DRXFormatError(f"malformed axial vector: {d!r}") from exc
        return cls(dim, records)
