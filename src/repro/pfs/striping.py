"""Round-robin striping arithmetic (PVFS2-style).

A logical byte stream is cut into fixed-size *stripes*; stripe ``s``
lives on server ``s % nservers`` at server-local offset
``(s // nservers) * stripe_size + (byte offset within the stripe)``.
This is the classic RAID-0 / PVFS "simple striping" distribution the
paper's testbed used, and the thing experiment E5 ("reconciling the
chunk size with the strip size") sweeps against the chunk size.

All functions are pure; :class:`StripeLayout` is immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from ..core.errors import PFSError

__all__ = ["StripeLayout", "Extent", "coalesce_extents"]

#: A half-open byte extent ``(offset, length)`` with ``length > 0``.
Extent = tuple[int, int]


def coalesce_extents(extents: Sequence[Extent]) -> list[Extent]:
    """Sort extents by offset and merge adjacent/overlapping runs.

    This is the aggregation step of two-phase collective I/O: the union
    of every process's request, expressed as the fewest contiguous runs.
    Empty extents are dropped; a negative offset or length raises
    :class:`PFSError`.
    """
    if any(o < 0 or n < 0 for o, n in extents):
        raise PFSError(f"negative extent in {extents!r}", transient=False)
    cleaned = [(int(o), int(n)) for o, n in extents if n > 0]
    if not cleaned:
        return []
    cleaned.sort()
    out: list[Extent] = [cleaned[0]]
    for off, length in cleaned[1:]:
        last_off, last_len = out[-1]
        last_end = last_off + last_len
        if off <= last_end:
            out[-1] = (last_off, max(last_end, off + length) - last_off)
        else:
            out.append((off, length))
    return out


@dataclass(frozen=True)
class StripeLayout:
    """Immutable description of a striped byte-stream layout."""

    nservers: int
    stripe_size: int

    def __post_init__(self) -> None:
        if self.nservers < 1:
            raise PFSError(f"need >= 1 server, got {self.nservers}")
        if self.stripe_size < 1:
            raise PFSError(f"stripe size must be >= 1, got {self.stripe_size}")

    def server_of(self, offset: int) -> int:
        """Which server holds the byte at logical ``offset``."""
        return (offset // self.stripe_size) % self.nservers

    def to_server_offset(self, offset: int) -> tuple[int, int]:
        """``(server, server-local offset)`` of logical byte ``offset``."""
        stripe, within = divmod(offset, self.stripe_size)
        return stripe % self.nservers, (stripe // self.nservers) * self.stripe_size + within

    def split_extent(self, offset: int, length: int
                     ) -> Iterator[tuple[int, int, int, int]]:
        """Split a logical extent into per-server pieces.

        Yields ``(server, server_offset, logical_offset, piece_length)``
        tuples in increasing logical-offset order.  ``logical_offset``
        lets callers map returned data back into the logical stream.
        """
        if offset < 0 or length < 0:
            raise PFSError(f"bad extent ({offset}, {length})",
                           transient=False)
        pos = offset
        end = offset + length
        while pos < end:
            stripe, within = divmod(pos, self.stripe_size)
            take = min(self.stripe_size - within, end - pos)
            server = stripe % self.nservers
            srv_off = (stripe // self.nservers) * self.stripe_size + within
            yield server, srv_off, pos, take
            pos += take

    def split_extents(self, extents: Sequence[Extent]
                      ) -> list[list[tuple[int, int, int]]]:
        """Group extent pieces per server.

        Returns ``pieces[server] = [(server_offset, logical_offset,
        length), ...]`` preserving the request order within each server
        (which is what the seek model measures).
        """
        pieces: list[list[tuple[int, int, int]]] = [[] for _ in range(self.nservers)]
        for off, length in extents:
            for server, srv_off, log_off, take in self.split_extent(off, length):
                pieces[server].append((srv_off, log_off, take))
        return pieces
