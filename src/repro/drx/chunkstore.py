"""The chunk store: how one DRX array's chunks are placed, coded and
verified on its byte store.

The paper (§IV) stores chunk ``q*`` of ``xyz.xta`` at ``q* ·
chunk_nbytes``.  HDF5's filter model, which ArrayBridge follows, makes
the chunk the unit of compression; by that model a plain array is a
chunk store whose codec is the identity.  :class:`ChunkStore` is that
one seam under every ``DRXFile``, built from its meta-data:

* **Placement.**  A plain array (``codec="none"``) places chunk ``q`` at
  ``q · chunk_nbytes``, the historical layout bit for bit.  A compressed
  one places each chunk's framed codec payload (:mod:`repro.drx.codec`)
  where its :class:`~repro.drx.chunkalloc.SlotTable` says; a chunk never
  written has no slot and reads as zeros without I/O.
* **One transfer per call.**  :meth:`fetch` and :meth:`write` move any
  set of chunks with one ``readv``/``writev`` of the byte store, merging
  physically adjacent extents, so the caller (the ``Mpool``, a streamed
  window, a scrub batch, a container conversion) names chunks only.
* **Integrity.**  With ``checksums=True`` the store's
  :class:`~repro.drx.resilience.ChecksumGuard` records CRC32 over the
  stored bytes of each chunk once its write has returned, verifies them
  on every read, and arbitrates a mismatch among the byte store's
  replica copies of the chunk's physical extent — on the caller's
  thread, since that is replica I/O.  :meth:`scrub` checks them all.
* **CPU offload.**  A compressed array's (de)compression of a
  multi-chunk transfer is split once across the ``codec`` executor tier
  (:meth:`fan_out`: pure-CPU leaf tasks, ``zlib`` releases the GIL).  A
  plain array has no codec work and no codec tier.

The chunk store is not a :class:`~repro.drx.storage.ByteStore`: it
addresses chunks, not bytes, and every byte it moves is counted once,
by the byte store below it.  Codec accounting (raw vs stored bytes,
ratio, encode/decode wall-time) lives in ``codec_stats``.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from ..core.errors import ChecksumError, DRXError
from ..core.executor import default_executor
from ..core.faultsites import crash_point
from ..core.metadata import DRXMeta
from .chunkalloc import SlotTable
from .codec import Codec, CodecStats, get_codec, timed_frame_decode, \
    timed_frame_encode
from .resilience import ChecksumGuard, ScrubReport, chunk_crc
from .storage import ByteStore, Extent

__all__ = ["ChunkStore", "commit_meta"]


def _merged(extents: Sequence[Extent]) -> list[Extent]:
    """``extents`` with physically adjacent ones merged — one vectored
    store call moves them all."""
    out: list[Extent] = []
    for off, length in extents:
        if out and out[-1][0] + out[-1][1] == off:
            out[-1] = (out[-1][0], out[-1][1] + length)
        else:
            out.append((off, length))
    return out


class ChunkStore:
    """Chunk-addressed storage of one array over a byte store.

    ``codec`` and ``table`` go together: both ``None`` is direct
    placement, both given is the compressed layout.  ``crcs`` (the
    meta-data's CRC table, shared and updated in place) turns checksums
    on; ``executor`` is the codec tier; ``nchunks`` is the number of
    chunks the array spans (see :meth:`grow`).
    """

    def __init__(self, store: ByteStore, chunk_nbytes: int,
                 codec: Codec | None = None, table: SlotTable | None = None,
                 crcs: dict[int, int] | None = None, executor=None,
                 nchunks: int = 0) -> None:
        if chunk_nbytes < 1:
            raise DRXError(f"chunk size must be >= 1, got {chunk_nbytes}")
        self.store = store
        self.chunk_nbytes = int(chunk_nbytes)
        self.codec = codec
        self.table = table
        self.guard = None if crcs is None else ChecksumGuard(crcs)
        self.codec_stats = None if codec is None else CodecStats()
        self.nchunks = int(nchunks)
        self._executor = executor
        self._zeros = bytes(self.chunk_nbytes)
        # table mutations race between the threads that share one
        # handle (rank threads, serve workers); store I/O runs outside
        # the lock (slot extents are disjoint per chunk, and the pool
        # orders same-chunk operations)
        self._lock = threading.RLock()

    @classmethod
    def for_meta(cls, meta: DRXMeta, store: ByteStore) -> "ChunkStore":
        """The chunk store ``meta`` describes over ``store``.  A
        compressed array splits its codec work across the process-wide
        ``codec`` executor tier (none at ``DRX_EXECUTOR_THREADS=0``)."""
        if meta.codec == "none":
            return cls(store, meta.chunk_nbytes, crcs=meta.chunk_crcs,
                       nchunks=meta.num_chunks)
        table = SlotTable() if meta.chunk_slots is None else \
            SlotTable.deserialize(meta.chunk_slots, meta.chunk_nbytes,
                                  meta.num_chunks)
        return cls(store, meta.chunk_nbytes,
                   get_codec(meta.codec, meta.dtype.itemsize), table,
                   meta.chunk_crcs,
                   default_executor("codec"), meta.num_chunks)

    # -- geometry ---------------------------------------------------------
    def grow(self, nchunks: int) -> None:
        """The array now spans ``nchunks`` chunks.  Direct placement
        grows the byte store (sparsely: no byte moves) to cover them; a
        slot table places each chunk when it is first written."""
        self.nchunks = int(nchunks)
        if self.table is None:
            needed = self.nchunks * self.chunk_nbytes
            if self.store.size < needed:
                self.store.truncate(needed)

    @property
    def end(self) -> int:
        """Physical end of the chunk region: ``nchunks · chunk_nbytes``
        under direct placement, the slot table's append high-water mark
        otherwise."""
        if self.table is None:
            return self.nchunks * self.chunk_nbytes
        with self._lock:
            return self.table.end

    @property
    def ratio(self) -> float:
        """Raw bytes per stored byte so far (1.0 for a plain array)."""
        return 1.0 if self.codec_stats is None else self.codec_stats.ratio

    def _extents(self, chunks: Sequence[int]) -> list:
        """Each chunk's stored extent, or ``None`` for a chunk with no
        stored bytes (never written under a slot table)."""
        nb = self.chunk_nbytes
        if self.table is None:
            return [(c * nb, nb) for c in chunks]
        with self._lock:
            slots = [self.table.get(c) for c in chunks]
        return [None if s is None or s.length == 0 else (s.offset, s.length)
                for s in slots]

    def physical_extents(self, chunks: Sequence[int]
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, offsets, lengths)`` for a front end that moves the
        stored bytes itself (DRX-MP's file view): the positions in
        ``chunks`` of the chunks with stored bytes, sorted by physical
        offset, and each one's extent in that order."""
        chunks = np.asarray(chunks, dtype=np.int64)
        nb = self.chunk_nbytes
        if self.table is None:
            rows = np.argsort(chunks, kind="stable")
            return rows, chunks[rows] * nb, np.full(len(rows), nb, np.int64)
        stored = sorted((e[0], e[1], i) for i, e in
                        enumerate(self._extents(chunks.tolist()))
                        if e is not None)
        table = np.array(stored, dtype=np.int64).reshape(-1, 3)
        return table[:, 2], table[:, 0], table[:, 1]

    def stored_nbytes(self, chunks: Sequence[int]) -> list[int]:
        """What reading each chunk moves (0 for a chunk never stored)."""
        return [0 if e is None else e[1] for e in self._extents(chunks)]

    # -- the codec tier ---------------------------------------------------
    def fan_out(self, fn, items: list) -> list:
        """Split ``items`` once across the codec tier and return the
        concatenated ``fn(batch)`` results in item order.

        One batch per executor thread goes to the executor and one more
        runs on the caller's thread; small splits (or no executor) run
        as one batch on the caller.  ``fn`` must be pure CPU — no pool
        lock, no store I/O, no further submits — so a caller holding the
        pool lock may wait on it.
        """
        ex = self._executor
        if ex is None or len(items) < 4:
            return fn(items)
        width = min(ex.threads + 1, len(items))
        size = (len(items) + width - 1) // width
        batches = [items[i:i + size] for i in range(0, len(items), size)]
        futs = [ex.submit(fn, b) for b in batches[:-1]]
        try:
            tail = fn(batches[-1])
        except BaseException:
            ex.gather(futs, return_exceptions=True)
            raise
        out: list = []
        for part in ex.gather(futs):
            out.extend(part)
        out.extend(tail)
        return out

    def encode(self, raw) -> bytes:
        """One chunk's stored frame (compressed arrays)."""
        return timed_frame_encode(self.codec, raw, self.codec_stats)

    def decode(self, frame, verify: bool = True):
        """One chunk's raw bytes from a :meth:`fetch` entry (zeros for
        ``None``).  With ``verify`` the stored bytes' CRC is checked
        first; a mismatch raises
        :class:`~repro.core.errors.ChecksumError`."""
        if frame is None:
            return self._zeros
        chunk, _extent, payload = frame
        if verify and self.guard is not None:
            self.guard.check(chunk, payload)
        if self.codec is None:
            return payload
        return timed_frame_decode(self.codec, payload, self.chunk_nbytes,
                                  self.codec_stats)

    # -- reads --------------------------------------------------------------
    def fetch(self, chunks: Sequence[int]) -> list:
        """The stored bytes of ``chunks`` with one store ``readv``: per
        chunk a ``(chunk, extent, payload)`` frame, or ``None`` for a
        chunk never stored.  Not yet verified or decoded —
        :meth:`decode_each` does both."""
        extents = self._extents(chunks)
        present = extents if self.table is None \
            else [e for e in extents if e is not None]
        if not present:
            return [None] * len(extents)
        blob = memoryview(self.store.readv(_merged(present)))
        frames: list = []
        pos = 0
        for c, e in zip(chunks, extents):
            if e is None:
                frames.append(None)
                continue
            end = pos + e[1]
            frames.append((c, e, blob[pos:end]))
            pos = end
        return frames

    def decode_each(self, frames: list, consume) -> None:
        """Verify and decode ``(tag, frame)`` pairs, split once across
        the codec tier; each task hands ``consume(tags, raws)`` its
        chunks.

        A chunk that fails its CRC is arbitrated among the byte store's
        replica copies of its extent on the caller's thread (that is
        replica I/O), then consumed there.
        """
        def task(batch: list) -> list:
            tags, raws, bad = [], [], []
            for tag, frame in batch:
                try:
                    raws.append(self.decode(frame))
                except ChecksumError as exc:
                    bad.append((tag, frame, exc))
                    continue
                tags.append(tag)
            consume(tags, raws)
            return bad

        for tag, (chunk, extent, _payload), exc in self.fan_out(task, frames):
            payload = self.guard.arbitrate(chunk, exc, self.store, *extent)
            consume([tag], [self.decode((chunk, extent, payload),
                                        verify=False)])

    def read(self, chunks: Sequence[int]) -> list:
        """Each chunk's verified raw bytes, with one store transfer."""
        frames = self.fetch(chunks)
        if self.codec is None and self.guard is None:
            # direct placement, nothing to verify: the stored bytes are
            # the chunk (the pool's single-page fault lives on this)
            return [frame[2] for frame in frames]
        out: list = [None] * len(chunks)

        def place(idx: list[int], raws: list) -> None:
            for i, raw in zip(idx, raws):
                out[i] = raw

        self.decode_each(list(enumerate(frames)), place)
        return out

    # -- writes -------------------------------------------------------------
    def write(self, chunks: Sequence[int], data, fill=None) -> None:
        """Store the raw chunks in ``data`` (one buffer, ``chunks`` in
        order) with one store ``writev``.

        ``fill(idx, raws)``, when given, first copies chunks ``idx``
        (positions in ``chunks``) into ``raws``, their views of
        ``data``.  A compressed write calls it inside the codec tasks,
        so the copy is split across the tier along with the encode.

        The CRCs are recorded only once that write has returned.  A
        compressed write allocates fresh slots first; if the write fails
        they are reverted, so the slot table and the CRC table still
        describe the bytes the store holds.
        """
        nb = self.chunk_nbytes
        mv = memoryview(data)
        if len(mv) != len(chunks) * nb:
            raise DRXError(f"write of {len(chunks)} chunks got {len(mv)} "
                           f"bytes, not {len(chunks) * nb}")
        table = self.table

        def encode(batch: list) -> list:
            if fill is not None:
                fill([i for i, _raw in batch], [raw for _i, raw in batch])
            return [raw if table is None else self.encode(raw)
                    for _i, raw in batch]

        payloads = self.fan_out(encode, [(i, mv[i * nb:(i + 1) * nb])
                                         for i in range(len(chunks))])
        if table is None:
            extents = [(c * nb, nb) for c in chunks]
        else:
            data = b"".join(payloads)
            with self._lock:
                priors = [table.get(c) for c in chunks]
                slots = [table.allocate(c, len(p))
                         for c, p in zip(chunks, payloads)]
            extents = [(s.offset, s.length) for s in slots]
        try:
            if extents:
                self.store.writev(_merged(extents), data)
        except BaseException:
            if table is not None:
                with self._lock:
                    for c, prior, slot in reversed(
                            list(zip(chunks, priors, slots))):
                        table.revert(c, prior, slot)
            raise
        if self.guard is not None:
            for c, p in zip(chunks, payloads):
                self.guard.record(c, p)

    def flush(self) -> None:
        self.store.flush()

    # -- commit and upkeep ----------------------------------------------------
    def slot_doc(self) -> dict | None:
        """The slot table as the meta-data document commits it (``None``
        under direct placement).  Payloads are down, table not yet: the
        ``codec.slots.written`` crash point."""
        if self.table is None:
            return None
        crash_point("codec.slots.written")
        with self._lock:
            return self.table.serialize()

    def mark_committed(self) -> None:
        """The document just landed: extents the previous one referenced
        may now be reused."""
        if self.table is not None:
            with self._lock:
                self.table.mark_committed()

    def migrate(self, max_moves: int | None) -> int:
        """One compaction pass: copy the highest slots into the lowest
        committed-free holes (:meth:`SlotTable.plan_compaction`) and
        record the moves.  Returns the number of moves (0: nothing left
        to move)."""
        plan = self.table.plan_compaction(max_moves)
        for index, slot, new_off in plan:
            payload = self.store.read(slot.offset, slot.length)
            self.store.write(new_off, payload)
            self.table.apply_move(index, new_off)
        if plan:
            self.store.flush()
        return len(plan)

    def scrub(self, batch_chunks: int = 256) -> ScrubReport:
        """Verify the stored bytes of every chunk against its CRC, reading
        ``batch_chunks`` chunks per store call.  Chunks without a CRC
        (never written, or no checksums) count as unverified; a mismatch
        is reported, never raised or arbitrated."""
        crcs = {} if self.guard is None else self.guard.crcs
        total = self.nchunks
        corrupt: list[int] = []
        checked = unverified = 0
        step = max(1, batch_chunks)
        for start in range(0, total, step):
            batch = range(start, min(start + step, total))
            for addr, frame in zip(batch, self.fetch(batch)):
                want = crcs.get(addr)
                if want is None or frame is None:
                    unverified += 1
                    continue
                checked += 1
                if chunk_crc(frame[2]) != want:
                    corrupt.append(addr)
        return ScrubReport(total_chunks=total, checked=checked,
                           corrupt=corrupt, unverified=unverified)


def commit_meta(meta: DRXMeta, chunks: ChunkStore, meta_store: ByteStore,
                land: Callable[[bytes], None] | None = None) -> None:
    """Commit ``meta``, with the chunk store's slot table, as the
    array's document — the one commit of ``DRXFile`` and DRX-MP.  It
    lands through the container's ``land(blob)`` when given, else
    through ``meta_store``'s atomic ``replace`` between the
    ``xmd.commit.*`` crash points; only then may extents the previous
    document referenced be reused."""
    meta.chunk_slots = chunks.slot_doc()
    blob = meta.to_bytes()
    if land is not None:
        land(blob)
    else:
        crash_point("xmd.commit.begin")
        meta_store.replace(blob)
        crash_point("xmd.commit.end")
    chunks.mark_committed()
