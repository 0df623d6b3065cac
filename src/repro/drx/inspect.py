"""Array-file inspection: ``ncdump -h`` / ``h5dump -H`` for DRX files.

``describe`` renders a human-readable report of an array file's
meta-data — shape, dtype, chunking, user attributes, and the full growth
history reconstructed from the axial vectors.  ``verify`` runs integrity
checks (consistency, addressing bijectivity, data-file size) and returns
the list of problems found, empty when the file is healthy.

Both accept a path to either container: the classic ``.xmd``/``.xta``
pair or the ``.drx`` single file.
"""

from __future__ import annotations

import pathlib

from ..core.errors import DRXError, DRXFileNotFoundError
from ..core.mapping import all_addresses
from ..core.metadata import DRXMeta
from .drxfile import DRXFile
from .singlefile import DRXSingleFile

__all__ = ["describe", "verify", "load_meta"]


def load_meta(path: str | pathlib.Path) -> tuple[DRXMeta, str, int]:
    """Read the meta-data of either container.

    Returns ``(meta, container_kind, data_bytes_present)``.
    """
    path = pathlib.Path(path)
    single = DRXSingleFile._with_suffix(path)
    xmd = path.with_name(path.name + DRXFile.XMD_SUFFIX)
    xta = path.with_name(path.name + DRXFile.XTA_SUFFIX)
    if single.exists():
        f = DRXSingleFile.open(path)
        try:
            meta = f.meta.replicate()
            present = max(0, f._meta_store.size - f._reserve)
        finally:
            f.close()
        return meta, "single-file (.drx)", present
    if xmd.exists() and xta.exists():
        meta = DRXMeta.from_bytes(xmd.read_bytes())
        return meta, "file pair (.xmd/.xta)", xta.stat().st_size
    raise DRXFileNotFoundError(f"no DRX array at {path}")


def describe(path: str | pathlib.Path) -> str:
    """A human-readable report of the array's meta-data."""
    meta, kind, present = load_meta(path)
    lines = [
        f"DRX array {pathlib.Path(path).name!r}  [{kind}]",
        f"  dtype         : {meta.dtype_name} ({meta.dtype})",
        f"  shape         : {meta.element_bounds}",
        f"  chunk shape   : {meta.chunk_shape}"
        f"  ({meta.chunk_elems} elems, {meta.chunk_nbytes} bytes)",
        f"  chunk grid    : {meta.chunk_bounds}"
        f"  ({meta.num_chunks} chunks, {meta.data_nbytes} data bytes)",
    ]
    if meta.codec != "none":
        slots = (meta.chunk_slots or {}).get("slots", [])
        stored = sum(int(s[2]) for s in slots)
        end = int((meta.chunk_slots or {}).get("end", 0))
        ratio = meta.data_nbytes / stored if stored else float("inf")
        lines.append(
            f"  codec         : {meta.codec}"
            f"  ({len(slots)} stored chunks, {stored} compressed bytes, "
            f"ratio {ratio:.2f}x, physical extent {end} bytes)"
        )
    attrs = meta.attrs
    if attrs:
        lines.append("  attributes    :")
        for k in sorted(attrs):
            lines.append(f"    {k} = {attrs[k]!r}")
    lines.append("  growth history (segments in allocation order):")
    for seg in meta.eci.segments:
        rec = seg.record
        lines.append(
            f"    @chunk {seg.start_address:>6}  +{seg.n_chunks:>5} chunks"
            f"  dim {rec.dim}  from index {rec.start_index}"
            f"  coeffs {rec.coeffs}"
        )
    e_counts = [len(v) for v in meta.eci.axial_vectors]
    lines.append(f"  axial records : E = {e_counts} "
                 f"(total {meta.eci.num_records})")
    return "\n".join(lines)


def verify(path: str | pathlib.Path,
           check_addresses: bool = True) -> list[str]:
    """Integrity checks; returns human-readable problems (empty = OK)."""
    problems: list[str] = []
    try:
        meta, _kind, present = load_meta(path)
    except DRXError as exc:
        return [f"unreadable meta-data: {exc}"]
    try:
        meta.check_consistent()
    except DRXError as exc:
        problems.append(f"inconsistent meta-data: {exc}")
    if present > meta.data_nbytes:
        # single-file tail meta legitimately extends past the chunk area
        pass
    if meta.codec != "none" and meta.chunk_slots is not None:
        # compressed layout: slots must be disjoint, inside the extent,
        # and clear of the reserved span (single-file tail meta blob)
        doc = meta.chunk_slots
        try:
            end = int(doc["end"])
            spans = [(int(s[1]), int(s[1]) + int(s[3]), int(s[0]))
                     for s in doc["slots"] if int(s[3]) > 0]
            reserved = doc.get("reserved")
            if reserved is not None:
                spans.append((int(reserved[0]),
                              int(reserved[0]) + int(reserved[1]), -1))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems.append(f"corrupt chunk slot table: {exc}")
        else:
            spans.sort()
            for (a0, a1, ai), (b0, _b1, bi) in zip(spans, spans[1:]):
                if b0 < a1:
                    problems.append(
                        f"overlapping chunk slots at chunks {ai}/{bi} "
                        f"(offsets {a0} and {b0})"
                    )
            if spans and spans[-1][1] > end:
                problems.append(
                    f"chunk slot past the physical extent "
                    f"({spans[-1][1]} > {end})"
                )
    if check_addresses and meta.num_chunks <= 1 << 16:
        grid = all_addresses(meta.eci)
        flat = sorted(grid.ravel().tolist())
        if flat != list(range(meta.num_chunks)):
            problems.append("addressing is not a bijection "
                            "(corrupt axial vectors)")
    if meta.chunk_elems <= 0:
        problems.append(f"degenerate chunk shape {meta.chunk_shape}")
    return problems
