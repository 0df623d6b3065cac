"""The ``.xmd`` meta-data model of a DRX / DRX-MP array file.

The paper (section IV): a user-visible array name ``xyz`` is stored as a
pair of files — ``xyz.xmd`` holding the meta-data and ``xyz.xta`` holding
the native binary chunk data.  The meta-data "maintains a persistent copy
of the content of the axial-vectors used in the linear address
calculation.  Other relevant pieces of information ... include the number
of dimensions of the array, the data type, values of the chunk shape, the
instantaneous bounds of the array, the number of chunks in the principal
array file, etc.".

We serialize the meta-data as a magic-prefixed JSON document: compact,
self-describing and byte-for-byte deterministic (sorted keys), so tests
can assert replica equality across processes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import prod
from typing import Sequence

import numpy as np

from .chunking import chunk_bounds_for
from .errors import DRXFormatError, DRXTypeError
from .extendible import ExtendibleChunkIndex

__all__ = ["DRXType", "DRXMeta", "Attributes", "MAGIC", "FORMAT_VERSION",
           "SUPPORTED_FORMAT_VERSIONS"]

MAGIC = b"DRXM"
#: Current on-disk document version.  Version history:
#:   1 — original document (rank, dtype, chunking, bounds, axial index).
#:   2 — adds the optional ``chunk_crcs`` table (per-chunk CRC32
#:       checksums, keyed by linear chunk address).  Version-1 documents
#:       remain readable; version-2 documents without checksums are
#:       structurally identical to version 1 apart from the number.
#:   3 — adds the ``codec`` name and the ``chunk_slots`` allocation
#:       table of compressed arrays (per-chunk physical extents — see
#:       :mod:`repro.drx.chunkalloc`).  Emitted *only* for arrays with
#:       ``codec != "none"``: plain arrays keep writing the version-2
#:       document byte for byte, so the direct-placement fast path stays
#:       bit-identical and older readers keep working.
FORMAT_VERSION = 3
#: Document versions :meth:`DRXMeta.from_bytes` accepts.
SUPPORTED_FORMAT_VERSIONS = frozenset({1, 2, 3})

#: The element types the paper supports: "integer, double and complex.
#: These correspond to the basic data types that can be defined and
#: accessed via MPI-2 remote memory access operations".
_DRX_TYPES: dict[str, np.dtype] = {
    "int": np.dtype(np.int64),
    "double": np.dtype(np.float64),
    "complex": np.dtype(np.complex128),
}


class Attributes(dict):
    """User attributes of an array (NetCDF/HDF5-style name/value pairs).

    Stored inside the ``.xmd`` document, so values must be
    JSON-serializable; this is checked at assignment time rather than at
    flush time so the error points at the offending statement.
    """

    def __setitem__(self, key, value) -> None:
        if not isinstance(key, str):
            raise DRXTypeError(f"attribute names must be strings, got "
                               f"{type(key).__name__}")
        try:
            json.dumps(value)
        except (TypeError, ValueError) as exc:
            raise DRXTypeError(
                f"attribute {key!r} value is not JSON-serializable: {exc}"
            ) from exc
        super().__setitem__(key, value)

    def update(self, *args, **kwargs) -> None:  # keep validation
        for k, v in dict(*args, **kwargs).items():
            self[k] = v


class DRXType:
    """Symbolic names of the supported element types."""

    INT = "int"
    DOUBLE = "double"
    COMPLEX = "complex"

    @staticmethod
    def to_numpy(name: str) -> np.dtype:
        try:
            return _DRX_TYPES[name]
        except KeyError:
            raise DRXTypeError(
                f"unsupported DRX type {name!r}; "
                f"supported: {sorted(_DRX_TYPES)}"
            ) from None

    @staticmethod
    def from_numpy(dtype: np.dtype | type) -> str:
        dt = np.dtype(dtype)
        for name, candidate in _DRX_TYPES.items():
            if candidate == dt:
                return name
        raise DRXTypeError(
            f"unsupported element dtype {dt}; "
            f"supported: {sorted(_DRX_TYPES)}"
        )


@dataclass
class DRXMeta:
    """In-memory form of one array's ``.xmd`` meta-data.

    The element-level state (``element_bounds``) and the chunk-level state
    (the :class:`ExtendibleChunkIndex`) are kept together and must stay
    consistent: ``eci.bounds == chunk_bounds_for(element_bounds,
    chunk_shape)`` at all times.
    """

    dtype_name: str
    chunk_shape: tuple[int, ...]
    element_bounds: tuple[int, ...]
    eci: ExtendibleChunkIndex
    memory_order: str = "C"
    extra: dict = field(default_factory=dict)
    #: Per-chunk CRC32 table (linear address -> checksum), or ``None``
    #: when integrity checking is disabled for this array.  Committed
    #: with the rest of the document, so the checksums describe the last
    #: *flushed* state of each chunk.  For compressed arrays the CRC
    #: covers the framed *compressed* payload.
    chunk_crcs: dict[int, int] | None = None
    #: Registry name of the per-chunk compression codec
    #: (:func:`repro.drx.codec.get_codec`); ``"none"`` keeps the
    #: historical direct-placement chunk layout.
    codec: str = "none"
    #: Serialized slot-allocation table of a compressed array
    #: (:meth:`repro.drx.chunkalloc.SlotTable.serialize`), ``None`` for
    #: plain arrays.  Committed with the document, so it describes the
    #: last flushed physical placement.
    chunk_slots: dict | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, element_bounds: Sequence[int],
               chunk_shape: Sequence[int],
               dtype: str | np.dtype | type = DRXType.DOUBLE) -> "DRXMeta":
        """Meta-data of a freshly created array.

        ``dtype`` may be a DRX type name (``"int" | "double" | "complex"``)
        or any equivalent NumPy dtype.
        """
        if isinstance(dtype, str) and dtype in _DRX_TYPES:
            dtype_name = dtype
        else:
            dtype_name = DRXType.from_numpy(dtype)
        element_bounds = tuple(int(b) for b in element_bounds)
        chunk_shape = tuple(int(c) for c in chunk_shape)
        chunk_bounds = chunk_bounds_for(element_bounds, chunk_shape)
        return cls(
            dtype_name=dtype_name,
            chunk_shape=chunk_shape,
            element_bounds=element_bounds,
            eci=ExtendibleChunkIndex(chunk_bounds),
        )

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        return len(self.element_bounds)

    @property
    def dtype(self) -> np.dtype:
        return DRXType.to_numpy(self.dtype_name)

    @property
    def chunk_elems(self) -> int:
        """Elements per chunk, ``B = prod(chunk_shape)``."""
        return prod(self.chunk_shape)

    @property
    def chunk_nbytes(self) -> int:
        """Bytes per chunk in the ``.xta`` file."""
        return self.chunk_elems * self.dtype.itemsize

    @property
    def num_chunks(self) -> int:
        return self.eci.num_chunks

    @property
    def data_nbytes(self) -> int:
        """Total size of the ``.xta`` file."""
        return self.num_chunks * self.chunk_nbytes

    @property
    def chunk_bounds(self) -> tuple[int, ...]:
        return self.eci.bounds

    @property
    def attrs(self) -> Attributes:
        """User attributes, persisted with the meta-data."""
        cur = self.extra.get("attrs")
        if not isinstance(cur, Attributes):
            cur = Attributes(cur or {})
            self.extra["attrs"] = cur
        return cur

    def check_consistent(self) -> None:
        """Assert the element-level and chunk-level views agree."""
        expect = chunk_bounds_for(self.element_bounds, self.chunk_shape)
        if expect != self.eci.bounds:
            raise DRXFormatError(
                f"meta-data inconsistent: element bounds "
                f"{self.element_bounds} with chunks {self.chunk_shape} "
                f"need chunk bounds {expect}, index holds {self.eci.bounds}"
            )

    # ------------------------------------------------------------------
    # growth (element level)
    # ------------------------------------------------------------------
    def extend_elements(self, dim: int, by: int) -> list[int]:
        """Grow ``element_bounds[dim]`` by ``by`` elements.

        Extends the chunk index only when the new bound spills past the
        last (possibly partial) chunk.  Returns the linear addresses of
        any newly adjoined chunks (in increasing order) so the file layer
        can materialize them.
        """
        old_chunks = self.eci.bounds[dim]
        new_bound = self.element_bounds[dim] + by
        bounds = list(self.element_bounds)
        bounds[dim] = new_bound
        need = chunk_bounds_for(bounds, self.chunk_shape)[dim]
        new_addresses: list[int] = []
        if need > old_chunks:
            before = self.eci.num_chunks
            self.eci.extend(dim, need - old_chunks)
            new_addresses = list(range(before, self.eci.num_chunks))
        self.element_bounds = tuple(bounds)
        return new_addresses

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        # Plain arrays emit the version-2 document unchanged (byte for
        # byte): the version-3 fields exist only for compressed arrays.
        compressed = self.codec != "none" or self.chunk_slots is not None
        doc = {
            "format_version": FORMAT_VERSION if compressed else 2,
            "dtype": self.dtype_name,
            "rank": self.rank,
            "chunk_shape": list(self.chunk_shape),
            "element_bounds": list(self.element_bounds),
            "memory_order": self.memory_order,
            "num_chunks": self.num_chunks,
            "index": self.eci.to_dict(),
            "extra": self.extra,
        }
        if compressed:
            doc["codec"] = self.codec
            doc["chunk_slots"] = self.chunk_slots
        if self.chunk_crcs is not None:
            # JSON object keys must be strings; addresses round-trip below
            doc["chunk_crcs"] = {str(a): int(c)
                                 for a, c in self.chunk_crcs.items()}
        return MAGIC + json.dumps(doc, sort_keys=True).encode("utf-8")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "DRXMeta":
        if not raw.startswith(MAGIC):
            raise DRXFormatError("not a DRX meta-data file (bad magic)")
        try:
            doc = json.loads(raw[len(MAGIC):])
        except json.JSONDecodeError as exc:
            raise DRXFormatError(f"corrupt meta-data: {exc}") from exc
        if doc.get("format_version") not in SUPPORTED_FORMAT_VERSIONS:
            raise DRXFormatError(
                f"unsupported format version {doc.get('format_version')}"
            )
        crcs_doc = doc.get("chunk_crcs")
        try:
            meta = cls(
                dtype_name=str(doc["dtype"]),
                chunk_shape=tuple(int(c) for c in doc["chunk_shape"]),
                element_bounds=tuple(int(b) for b in doc["element_bounds"]),
                eci=ExtendibleChunkIndex.from_dict(doc["index"]),
                memory_order=str(doc.get("memory_order", "C")),
                extra=dict(doc.get("extra", {})),
                chunk_crcs=None if crcs_doc is None else
                {int(a): int(c) for a, c in crcs_doc.items()},
                codec=str(doc.get("codec", "none")),
                chunk_slots=doc.get("chunk_slots"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DRXFormatError(f"malformed meta-data document") from exc
        if doc.get("rank") != meta.rank:
            raise DRXFormatError(
                f"meta-data rank {doc.get('rank')} does not match bounds "
                f"({meta.rank}-dimensional)"
            )
        if doc.get("num_chunks") != meta.num_chunks:
            raise DRXFormatError(
                f"meta-data chunk count {doc.get('num_chunks')} does not "
                f"match index ({meta.num_chunks})"
            )
        meta.check_consistent()
        # Validate the declared dtype eagerly.
        meta.dtype
        return meta

    def replicate(self) -> "DRXMeta":
        """Deep copy, as DRX-MP replicates meta-data into every process."""
        return DRXMeta.from_bytes(self.to_bytes())
