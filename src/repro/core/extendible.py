"""The extendible-array growth engine: bounds, segments and axial vectors.

:class:`ExtendibleChunkIndex` is the heart of the reproduction.  It models
the *chunk-level* address space of a dense extendible k-dimensional array:
every chunk has a k-dimensional chunk index ``<I_0, ..., I_{k-1}>`` and a
linear address ``q*`` in the (conceptually append-only) array file.  The
class maintains the axial vectors of the paper's section III-B, implements
the ``extend`` operation (adjoining a hyper-slab *segment* of chunks), and
exposes the mapping function ``F*`` and its inverse ``F*^-1``.

Key properties (all verified by the test suite, several by property-based
tests):

* **bijectivity** — at any instant, ``address`` is a bijection between the
  chunk-index box ``prod [0, N*_j)`` and the linear range ``[0, M*)`` with
  ``M* = prod N*_j``; there are no holes and no collisions.  This is what
  distinguishes the axial-vector scheme from Z-order (exponential padded
  growth) and the symmetric shell order (cyclic-only growth) of Fig. 2.
* **stability** — extending any dimension never changes the address of any
  previously allocated chunk, so the array file never needs reorganizing.
* **merge rule** — repeated extensions of the same dimension with no
  intervening extension of another dimension ("uninterrupted extensions")
  are described by a single axial record; the record count ``E_j`` equals
  the number of *interrupted* extension runs of dimension ``j``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .axial import SENTINEL_ADDRESS, AxialRecord, AxialVector
from .errors import DRXExtendError, DRXFormatError, DRXIndexError

__all__ = ["Segment", "ExtendibleChunkIndex"]


@dataclass(frozen=True, slots=True)
class Segment:
    """A contiguous run of chunk addresses adjoined by one extension run.

    ``record`` is the axial record that governs addresses inside the
    segment.  ``n_chunks`` reflects merged (uninterrupted) extensions, so
    it can exceed the extent the record was first created with.
    """

    start_address: int
    n_chunks: int
    record: AxialRecord

    @property
    def end_address(self) -> int:
        """One past the last chunk address of the segment."""
        return self.start_address + self.n_chunks


class ExtendibleChunkIndex:
    """Chunk-level addressing of a dense extendible array.

    Parameters
    ----------
    initial_bounds:
        The chunk-level bounds of the initial allocation, one positive
        integer per dimension.  The initial box is laid out in row-major
        order (its record is attributed to the last dimension, matching
        Fig. 3b of the paper; all other dimensions receive sentinel
        records).

    Examples
    --------
    The 3-D worked example of the paper's Fig. 3::

        >>> eci = ExtendibleChunkIndex([4, 3, 1])
        >>> eci.extend(2); eci.extend(2)   # uninterrupted: one record
        >>> eci.extend(1)
        >>> eci.extend(0, 2)
        >>> eci.extend(2)
        >>> eci.address((4, 2, 2))
        56
        >>> eci.index(56)
        (4, 2, 2)
    """

    __slots__ = ("_bounds", "_axial", "_segments", "_last_extended_dim",
                 "_num_chunks", "_np_dirty", "_np_seg_starts",
                 "_np_seg_dims", "_np_seg_first", "_np_seg_coeffs",
                 "_generation")

    def __init__(self, initial_bounds: Sequence[int]) -> None:
        bounds = [int(b) for b in initial_bounds]
        if not bounds:
            raise DRXExtendError("array rank must be at least 1")
        if any(b < 1 for b in bounds):
            raise DRXExtendError(f"initial bounds must be >= 1, got {bounds}")
        k = len(bounds)
        self._bounds = bounds
        self._axial = [AxialVector(j) for j in range(k)]
        # Initial allocation: a row-major record with sentinels on every
        # other dimension (Fig. 3b).  Row-major coefficients coincide with
        # the extension coefficients of dimension 0 (the least-varying
        # dimension), so the initial record is attributed to dimension 0;
        # the stored numbers are exactly those of the paper's figure, and
        # the inverse decode can then uniformly peel the record's own
        # dimension first.
        initial = AxialRecord(
            dim=0, start_index=0, start_address=0,
            coeffs=tuple(_extension_coeffs(bounds, 0)), file_offset=0,
        )
        self._axial[0].append(initial)
        for j in range(1, k):
            self._axial[j].append(AxialRecord(
                dim=j, start_index=0, start_address=SENTINEL_ADDRESS,
                coeffs=(0,) * k, file_offset=0,
            ))
        self._num_chunks = prod(bounds)
        self._segments: list[Segment] = [
            Segment(0, self._num_chunks, initial)
        ]
        # None until the first extension: the initial row-major box can
        # never be merged into (appending along any dimension of a
        # multi-dimensional row-major box is not a contiguous append).
        self._last_extended_dim: int | None = None
        self._np_dirty = True
        self._np_seg_starts: np.ndarray | None = None
        self._np_seg_dims: np.ndarray | None = None
        self._np_seg_first: np.ndarray | None = None
        self._np_seg_coeffs: np.ndarray | None = None
        self._generation = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """Number of dimensions ``k`` (fixed; the paper's weak extendibility)."""
        return len(self._bounds)

    @property
    def bounds(self) -> tuple[int, ...]:
        """Current chunk-level bounds ``(N*_0, ..., N*_{k-1})``."""
        return tuple(self._bounds)

    @property
    def num_chunks(self) -> int:
        """Total chunks allocated, ``M* = prod(N*_j)``."""
        return self._num_chunks

    @property
    def num_records(self) -> int:
        """Total axial records ``E`` (sentinels included), as used in the
        paper's O(k + log E) complexity bound."""
        return sum(len(v) for v in self._axial)

    @property
    def axial_vectors(self) -> tuple[AxialVector, ...]:
        return tuple(self._axial)

    @property
    def segments(self) -> tuple[Segment, ...]:
        """Segments in increasing start-address (= creation) order."""
        return tuple(self._segments)

    @property
    def generation(self) -> int:
        """Monotone counter bumped by every :meth:`extend`.

        Replicated meta-data holders (DRX-MP processes) compare
        generations to detect a stale copy.
        """
        return self._generation

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ExtendibleChunkIndex(bounds={self.bounds}, "
                f"chunks={self._num_chunks}, records={self.num_records})")

    # ------------------------------------------------------------------
    # growth
    # ------------------------------------------------------------------
    def extend(self, dim: int, by: int = 1, merge: bool = True) -> Segment:
        """Extend dimension ``dim`` by ``by`` chunk indices.

        Adjoins a segment of ``by * prod(other bounds)`` chunks at the end
        of the linear address space and returns the (possibly merged)
        :class:`Segment` now covering it.  No previously assigned address
        changes.

        ``merge=False`` disables the paper's uninterrupted-extension merge
        rule, forcing one axial record per call even for repeated
        extensions of the same dimension.  Addresses are identical either
        way (the new record carries the same coefficients); only the
        record count ``E`` — and hence lookup cost — grows.  Exists for
        the A2 ablation benchmark.
        """
        k = self.rank
        if not 0 <= dim < k:
            raise DRXExtendError(f"dimension {dim} outside rank {k}")
        if by < 1:
            raise DRXExtendError(f"extension must be >= 1, got {by}")

        new_chunks = by * prod(b for j, b in enumerate(self._bounds) if j != dim)
        last = self._segments[-1]
        if merge and dim == self._last_extended_dim and last.record.dim == dim:
            # Uninterrupted extension: the existing record's coefficients
            # are still valid (no other bound changed), so merge.
            merged = Segment(last.start_address,
                             last.n_chunks + new_chunks, last.record)
            self._segments[-1] = merged
            segment = merged
        else:
            coeffs = _extension_coeffs(self._bounds, dim)
            record = AxialRecord(
                dim=dim,
                start_index=self._bounds[dim],
                start_address=self._num_chunks,
                coeffs=tuple(coeffs),
                file_offset=self._num_chunks,
            )
            self._axial[dim].append(record)
            segment = Segment(self._num_chunks, new_chunks, record)
            self._segments.append(segment)

        self._bounds[dim] += by
        self._num_chunks += new_chunks
        self._last_extended_dim = dim
        self._np_dirty = True
        self._generation += 1
        return segment

    # ------------------------------------------------------------------
    # the mapping function F* and its inverse (scalar forms)
    # ------------------------------------------------------------------
    def address(self, index: Sequence[int]) -> int:
        """``F*``: linear chunk address of k-dimensional chunk ``index``.

        Follows the paper's algorithm: binary-search every axial vector
        for the candidate record, keep the one whose segment has the
        maximum start address, then evaluate Eq. (1).
        """
        k = self.rank
        if len(index) != k:
            raise DRXIndexError(
                f"index rank {len(index)} != array rank {k}"
            )
        best: AxialRecord | None = None
        for j in range(k):
            ij = index[j]
            if ij < 0 or ij >= self._bounds[j]:
                raise DRXIndexError(
                    f"chunk index {tuple(index)} outside bounds {self.bounds}"
                )
            rec = self._axial[j].search(ij)
            if best is None or rec.start_address > best.start_address:
                best = rec
        assert best is not None and not best.is_sentinel
        return best.address_of(index)

    def index(self, address: int) -> tuple[int, ...]:
        """``F*^-1``: k-dimensional chunk index of linear chunk ``address``.

        O(k + log E): one binary search over segment start addresses, then
        mixed-radix decoding with the governing record's coefficients.
        """
        if address < 0 or address >= self._num_chunks:
            raise DRXIndexError(
                f"address {address} outside [0, {self._num_chunks})"
            )
        lo, hi = 0, len(self._segments)
        while lo < hi - 1:
            mid = (lo + hi) // 2
            if self._segments[mid].start_address <= address:
                lo = mid
            else:
                hi = mid
        return self._segments[lo].record.index_of(address, self.rank)

    # ------------------------------------------------------------------
    # vectorized mirrors used by repro.core.mapping / repro.core.inverse
    # ------------------------------------------------------------------
    def _rebuild_np(self) -> None:
        k = self.rank
        self._np_seg_starts = np.asarray(
            [s.start_address for s in self._segments], dtype=np.int64
        )
        self._np_seg_dims = np.asarray(
            [s.record.dim for s in self._segments], dtype=np.int64
        )
        self._np_seg_first = np.asarray(
            [s.record.start_index for s in self._segments], dtype=np.int64
        )
        self._np_seg_coeffs = np.asarray(
            [s.record.coeffs for s in self._segments], dtype=np.int64
        ).reshape(len(self._segments), k)
        self._np_dirty = False

    @property
    def np_segment_starts(self) -> np.ndarray:
        if self._np_dirty:
            self._rebuild_np()
        return self._np_seg_starts

    @property
    def np_segment_dims(self) -> np.ndarray:
        if self._np_dirty:
            self._rebuild_np()
        return self._np_seg_dims

    @property
    def np_segment_first_indices(self) -> np.ndarray:
        if self._np_dirty:
            self._rebuild_np()
        return self._np_seg_first

    @property
    def np_segment_coeffs(self) -> np.ndarray:
        if self._np_dirty:
            self._rebuild_np()
        return self._np_seg_coeffs

    # ------------------------------------------------------------------
    # (de)serialization — the meta-data file stores exactly this
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "bounds": list(self._bounds),
            "last_extended_dim": self._last_extended_dim,
            "generation": self._generation,
            "axial_vectors": [v.to_dict() for v in self._axial],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExtendibleChunkIndex":
        """Rebuild from serialized axial vectors.

        Segments are not stored: because the file is append-only they are
        fully determined by the non-sentinel records sorted by start
        address (each segment ends where the next begins; the last ends at
        ``prod(bounds)``).
        """
        try:
            bounds = [int(b) for b in d["bounds"]]
            vectors = [AxialVector.from_dict(v) for v in d["axial_vectors"]]
            raw_last = d["last_extended_dim"]
            last_dim = None if raw_last is None else int(raw_last)
            generation = int(d.get("generation", 0))
        except (KeyError, TypeError, ValueError) as exc:
            raise DRXFormatError(f"malformed extendible index: {d!r}") from exc
        if len(vectors) != len(bounds):
            raise DRXFormatError(
                f"{len(vectors)} axial vectors for rank {len(bounds)}"
            )
        obj = cls.__new__(cls)
        obj._bounds = bounds
        obj._axial = vectors
        for j, v in enumerate(vectors):
            if v.dim != j:
                raise DRXFormatError(
                    f"axial vector at slot {j} claims dimension {v.dim}"
                )
        obj._num_chunks = prod(bounds)
        records = sorted(
            (r for v in vectors for r in v if not r.is_sentinel),
            key=lambda r: r.start_address,
        )
        if not records or records[0].start_address != 0:
            raise DRXFormatError("missing initial allocation record")
        segments: list[Segment] = []
        for i, rec in enumerate(records):
            end = (records[i + 1].start_address if i + 1 < len(records)
                   else obj._num_chunks)
            if end <= rec.start_address:
                raise DRXFormatError(
                    f"segment at {rec.start_address} has non-positive extent"
                )
            segments.append(Segment(rec.start_address,
                                    end - rec.start_address, rec))
        obj._segments = segments
        obj._last_extended_dim = last_dim
        obj._generation = generation
        obj._np_dirty = True
        obj._np_seg_starts = None
        obj._np_seg_dims = None
        obj._np_seg_first = None
        obj._np_seg_coeffs = None
        return obj

    def copy(self) -> "ExtendibleChunkIndex":
        """An independent replica (DRX-MP replicates meta-data per node)."""
        return ExtendibleChunkIndex.from_dict(self.to_dict())


# ---------------------------------------------------------------------------
# coefficient helpers
# ---------------------------------------------------------------------------

def _extension_coeffs(bounds: Sequence[int], l: int) -> list[int]:
    """Coefficients stored when dimension ``l`` is extended (Eq. 1).

    ``C_l = prod_{j != l} N*_j`` and, for ``j != l``,
    ``C_j = prod_{r > j, r != l} N*_r`` — i.e. row-major over the other
    dimensions with ``l`` promoted to least-varying.
    """
    k = len(bounds)
    coeffs = [0] * k
    coeffs[l] = prod(b for j, b in enumerate(bounds) if j != l)
    acc = 1
    for j in range(k - 1, -1, -1):
        if j == l:
            continue
        coeffs[j] = acc
        acc *= bounds[j]
    return coeffs


def replay_history(initial_bounds: Sequence[int],
                   history: Iterable[tuple[int, int]]) -> ExtendibleChunkIndex:
    """Build an index by replaying a growth history.

    ``history`` is an iterable of ``(dim, by)`` extension steps.  Used by
    workload generators and property-based tests.
    """
    eci = ExtendibleChunkIndex(initial_bounds)
    for dim, by in history:
        eci.extend(dim, by)
    return eci
