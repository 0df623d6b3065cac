"""Slot-allocation table: physical placement for compressed chunks.

For ``codec="none"`` arrays the extendible-array addressing function is
also the physical placement function — chunk ``q* = F*(index)`` lives at
byte offset ``q* * chunk_nbytes``.  Compressed chunks have variable
stored size, so that identity breaks; this module supplies the level of
indirection every chunked array store with compression grows (HDF5's
chunk B-tree, TileDB's fragment offsets): a table mapping the *logical*
chunk address to its *physical* extent in the chunk region.

Allocation policy
-----------------

* **Append** — a chunk written for the first time (or grown past its
  extent) is placed at the end of the physical region.
* **In-place overwrite** — rewriting a chunk whose new payload fits its
  existing extent reuses it... but only when the extent was allocated
  *since the last commit* (see below).
* **Best-fit reuse** — freed extents are kept in a coalesced free list;
  new allocations take the smallest free extent that fits before
  growing the file.
* **Compaction** — an explicit pass migrates the highest-placed slots
  into the lowest free holes, then trims the region
  (:meth:`SlotTable.plan_compaction` / :meth:`SlotTable.trim_end`).

Crash consistency (copy-on-write epochs)
----------------------------------------

The table is persisted inside the ``.xmd`` sidecar, which commits
atomically (temp + fsync + rename, or the single-file shadow header
slots).  Payload writes, however, land *before* the table commit.  The
invariant that makes a crash at any point recoverable is:

    **no extent referenced by the last committed table is ever
    overwritten before the next commit succeeds.**

Concretely: overwriting a chunk whose slot is already committed
allocates a *new* extent (copy-on-write) and quarantines the old one on
a *pending* free list; :meth:`SlotTable.mark_committed` — called only
after the sidecar replace succeeded — promotes pending extents to the
real free list.  Slots allocated within the current epoch may be freely
overwritten in place: no committed metadata references them.  A crash
anywhere therefore reopens the previous committed table with every one
of its payloads intact, bit for bit.

``serialize()`` emits the *post-commit* view (pending frees folded in):
the document being written is exactly the table that holds once the
rename lands.

A single extent may also be :meth:`reserved <SlotTable.reserve>` —
the single-file container parks its tail-relocated meta blob inside the
chunk region and the allocator must route around it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import DRXFormatError

__all__ = ["Slot", "SlotTable"]


@dataclass(frozen=True)
class Slot:
    """One physical extent holding a chunk's stored payload.

    ``length`` is the payload size (what a read returns and the CRC
    covers); ``capacity`` is the allocated extent size (``>= length`` —
    slack left behind by an in-place shrink, reusable by a later grow).
    """

    offset: int
    length: int
    capacity: int

    def __post_init__(self) -> None:
        if self.length > self.capacity:
            raise DRXFormatError(
                f"slot payload {self.length} exceeds capacity "
                f"{self.capacity}"
            )

    @property
    def end(self) -> int:
        return self.offset + self.capacity


class SlotTable:
    """Logical chunk address -> physical extent, with COW epochs."""

    def __init__(self) -> None:
        self._slots: dict[int, Slot] = {}
        self._free: list[tuple[int, int]] = []      # (offset, length), sorted
        self._pending_free: list[tuple[int, int]] = []
        self._uncommitted: set[int] = set()
        self._reserved: tuple[int, int] | None = None
        self._end = 0

    # -- queries -----------------------------------------------------------

    def get(self, index: int) -> Slot | None:
        return self._slots.get(index)

    def __contains__(self, index: int) -> bool:
        return index in self._slots

    def __len__(self) -> int:
        return len(self._slots)

    def indices(self) -> list[int]:
        return sorted(self._slots)

    @property
    def end(self) -> int:
        """Physical extent of the chunk region (append high-water mark)."""
        return self._end

    @property
    def reserved(self) -> tuple[int, int] | None:
        return self._reserved

    @property
    def stored_bytes(self) -> int:
        """Total payload bytes currently referenced by slots."""
        return sum(s.length for s in self._slots.values())

    @property
    def free_bytes(self) -> int:
        """Reusable bytes (free list only; pending extents excluded)."""
        return sum(length for _off, length in self._free)

    def dirty(self) -> bool:
        """True when the table differs from the last committed view."""
        return bool(self._uncommitted or self._pending_free)

    # -- allocation --------------------------------------------------------

    def allocate(self, index: int, length: int) -> Slot:
        """Place ``length`` payload bytes for chunk ``index``.

        Returns the slot to write the payload at.  Applies the policy
        described in the module docstring; never returns an extent that
        the last committed table references.
        """
        if length < 0:
            raise DRXFormatError(f"negative payload length {length}")
        old = self._slots.get(index)
        if old is not None:
            if index in self._uncommitted:
                if length <= old.capacity:      # in-place overwrite
                    slot = Slot(old.offset, length, old.capacity)
                    self._slots[index] = slot
                    return slot
                # outgrew an epoch-local extent: safe to recycle now
                self._release(old.offset, old.capacity, pending=False)
            else:
                # COW: committed payload must survive until next commit
                self._release(old.offset, old.capacity, pending=True)
        slot = self._place(length)
        self._slots[index] = slot
        self._uncommitted.add(index)
        return slot

    def revert(self, index: int, prior: Slot | None, slot: Slot) -> None:
        """Undo :meth:`allocate` of ``slot`` for chunk ``index``, whose
        payload write failed, putting back the ``prior`` slot.

        The new extent returns to the free list (or lowers the append
        mark).  A moved-from committed extent leaves the pending list; an
        epoch-local one the allocation released is carved back out of
        the free list, so the old payload is where ``prior`` says.  That
        last case is exact only if no other chunk's allocation took the
        released extent in between — a concurrent writer of the same
        array whose write raced a failed one.
        """
        if prior is not None and prior.offset == slot.offset:
            self._slots[index] = prior          # in-place: same extent
            return
        if slot.capacity > 0:
            if slot.end == self._end:
                self._end = slot.offset
            else:
                self._insert_free(slot.offset, slot.capacity)
        if prior is None:
            del self._slots[index]
            self._uncommitted.discard(index)
            return
        self._slots[index] = prior
        extent = (prior.offset, prior.capacity)
        if extent in self._pending_free:        # was committed: COW
            self._pending_free.remove(extent)
            self._uncommitted.discard(index)
        elif prior.capacity > 0:
            self._carve(prior.offset, prior.capacity)
            self._end = max(self._end, prior.end)

    def remove(self, index: int) -> None:
        """Drop a chunk's slot (shrink); extent freed per COW rules."""
        old = self._slots.pop(index, None)
        if old is None:
            return
        pending = index not in self._uncommitted
        self._uncommitted.discard(index)
        self._release(old.offset, old.capacity, pending=pending)

    def _place(self, length: int) -> Slot:
        if length == 0:
            return Slot(self._end, 0, 0)
        best = None
        for i, (off, avail) in enumerate(self._free):
            if avail >= length and (best is None
                                    or avail < self._free[best][1]):
                best = i
        if best is not None:
            off, avail = self._free.pop(best)
            if avail > length:
                self._insert_free(off + length, avail - length)
            return Slot(off, length, length)
        # append, routing around the reserved span
        off = self._end
        if self._reserved is not None:
            r0, rlen = self._reserved
            if off < r0 + rlen and off + length > r0:
                off = r0 + rlen
        self._end = off + length
        return Slot(off, length, length)

    def _release(self, offset: int, length: int, *, pending: bool) -> None:
        if length <= 0:
            return
        if pending:
            self._pending_free.append((offset, length))
        else:
            self._insert_free(offset, length)

    def _insert_free(self, offset: int, length: int) -> None:
        self._free.append((offset, length))
        self._coalesce()

    def _coalesce(self) -> None:
        if not self._free:
            return
        self._free.sort()
        merged = [self._free[0]]
        for off, length in self._free[1:]:
            poff, plen = merged[-1]
            if poff + plen == off:
                merged[-1] = (poff, plen + length)
            else:
                merged.append((off, length))
        self._free = merged

    def _carve(self, offset: int, length: int) -> None:
        """Take ``[offset, offset+length)`` out of the free list."""
        kept: list[tuple[int, int]] = []
        for off, flen in self._free:
            if off + flen <= offset or off >= offset + length:
                kept.append((off, flen))
                continue
            if off < offset:
                kept.append((off, offset - off))
            if off + flen > offset + length:
                kept.append((offset + length, off + flen - offset - length))
        self._free = kept

    # -- reserved span (single-file tail meta blob) ------------------------

    def reserve(self, offset: int, length: int) -> None:
        """Mark ``[offset, offset+length)`` unusable by the allocator.

        Replaces any prior reservation; the old span is quarantined on
        the pending list (it may still hold the last committed meta
        blob) and becomes reusable after the next commit.
        """
        if self._reserved is not None:
            r0, rlen = self._reserved
            if (r0, rlen) != (offset, length):
                self._release(r0, rlen, pending=True)
        self._reserved = (offset, length)
        self._end = max(self._end, offset + length)
        # a reservation may land on space the free list offered; carve it out
        self._carve(offset, length)
        self._coalesce()

    # -- commit protocol ---------------------------------------------------

    def mark_committed(self) -> None:
        """The serialized table just landed durably: promote pending
        frees and start a fresh COW epoch."""
        for off, length in self._pending_free:
            self._insert_free(off, length)
        self._pending_free = []
        self._uncommitted = set()

    # -- compaction --------------------------------------------------------

    def plan_compaction(self, max_moves: int | None = None
                        ) -> list[tuple[int, Slot, int]]:
        """Plan moves of tail slots into committed-free holes.

        Returns ``(index, current_slot, new_offset)`` triples.  Every
        destination comes from the current free list (call only after a
        commit, when pending frees have been promoted), so executing the
        copies never touches an extent the committed table references.
        Greedy: highest slot into the lowest hole that fits, while the
        move lowers the slot's offset.
        """
        if self._pending_free or self._uncommitted:
            raise DRXFormatError(
                "compaction requires a committed table (flush first)"
            )
        free = list(self._free)
        plan: list[tuple[int, Slot, int]] = []
        order = sorted(self._slots, key=lambda i: -self._slots[i].offset)
        for index in order:
            if max_moves is not None and len(plan) >= max_moves:
                break
            slot = self._slots[index]
            best = None
            for i, (off, avail) in enumerate(free):
                if avail >= slot.length and off < slot.offset and \
                        (best is None or off < free[best][0]):
                    best = i
            if best is None:
                continue
            off, avail = free.pop(best)
            plan.append((index, slot, off))
            if avail > slot.length:
                free.append((off + slot.length, avail - slot.length))
                free.sort()
        return plan

    def apply_move(self, index: int, new_offset: int) -> Slot:
        """Record a compaction move after the payload bytes were copied."""
        old = self._slots[index]
        slot = Slot(new_offset, old.length, old.length)
        self._slots[index] = slot
        self._uncommitted.add(index)
        self._release(old.offset, old.capacity, pending=True)
        # the destination came out of the free list; drop it there
        self._carve(new_offset, slot.length)
        return slot

    def trim_end(self) -> int:
        """Lower the append high-water mark to what is actually used.

        Drops free extents above the new end; returns the new end (the
        caller may physically truncate the chunk region to it).
        """
        used = 0
        for slot in self._slots.values():
            used = max(used, slot.end)
        if self._reserved is not None:
            used = max(used, self._reserved[0] + self._reserved[1])
        for off, length in self._pending_free:
            used = max(used, off + length)
        self._end = max(used, 0)
        self._free = [(off, min(length, self._end - off))
                      for off, length in self._free if off < self._end]
        self._free = [(o, n) for o, n in self._free if n > 0]
        return self._end

    # -- serialization -----------------------------------------------------

    def serialize(self) -> dict:
        """Deterministic dict for the ``.xmd`` sidecar (post-commit view)."""
        free = self._free + self._pending_free
        free.sort()
        merged: list[list[int]] = []
        for off, length in free:
            if merged and merged[-1][0] + merged[-1][1] == off:
                merged[-1][1] += length
            else:
                merged.append([off, length])
        return {
            "slots": [[i, s.offset, s.length, s.capacity]
                      for i, s in sorted(self._slots.items())],
            "free": merged,
            "end": self._end,
            "reserved": list(self._reserved) if self._reserved else None,
        }

    @classmethod
    def deserialize(cls, doc: dict, chunk_nbytes: int | None = None,
                    num_chunks: int | None = None) -> "SlotTable":
        """The table ``doc`` describes, for an array of ``num_chunks``
        chunks of ``chunk_nbytes`` bytes.

        The document comes from disk, so it is hostile until checked:
        every slot must lie inside the region's extent, no two slots may
        share a byte, and — given the array's geometry — every slot must
        name a chunk of the array and hold at most one stored frame
        (``chunk_nbytes + 1`` bytes: tag byte plus the raw escape).
        Anything else raises :class:`DRXFormatError`.
        """
        try:
            table = cls()
            for entry in doc["slots"]:
                i, off, length, cap = (int(v) for v in entry)
                table._slots[i] = Slot(off, length, cap)
            table._free = [(int(o), int(n)) for o, n in doc.get("free", [])]
            table._coalesce()
            table._end = int(doc["end"])
            reserved = doc.get("reserved")
            if reserved is not None:
                table._reserved = (int(reserved[0]), int(reserved[1]))
        except (KeyError, TypeError, ValueError) as exc:
            raise DRXFormatError(f"corrupt chunk slot table: {exc}") from exc
        table._validate(chunk_nbytes, num_chunks)
        return table

    def _validate(self, chunk_nbytes: int | None,
                  num_chunks: int | None) -> None:
        frame_max = float("inf") if chunk_nbytes is None \
            else chunk_nbytes + 1
        prev: tuple[int, Slot] | None = None
        for i, s in sorted(self._slots.items(), key=lambda e: e[1].offset):
            if i < 0 or num_chunks is not None and i >= num_chunks:
                raise DRXFormatError(
                    f"slot for chunk {i} of a {num_chunks}-chunk array")
            if s.offset < 0 or not 0 <= s.length <= s.capacity \
                    <= frame_max:
                raise DRXFormatError(
                    f"chunk {i}: slot {s} impossible for a "
                    f"{chunk_nbytes}-byte chunk")
            if s.end > self._end:
                raise DRXFormatError(
                    f"chunk {i}: slot ends at {s.end}, past the region "
                    f"end {self._end}")
            if s.capacity == 0:
                continue
            if prev is not None and prev[1].end > s.offset:
                raise DRXFormatError(
                    f"chunks {prev[0]} and {i} share bytes at {s.offset}")
            prev = (i, s)
