"""DRX: the serial disk-resident extendible array file.

A DRX array named ``xyz`` is a pair of files, exactly as in the paper's
section IV: ``xyz.xmd`` (meta-data: rank, dtype, chunk shape,
instantaneous bounds, the axial vectors) and ``xyz.xta`` (native binary
chunk payloads, appended in allocation order).  The chunk at linear
address ``q*`` occupies bytes ``[q* * chunk_nbytes, (q*+1) * chunk_nbytes)``
of the ``.xta`` file; elements within a chunk are row-major.

Reads and writes of arbitrary rectilinear sub-arrays go through an
Mpool buffer cache.  Sub-array transfers visit chunks in increasing
linear-address order — a sequential scan of the file, per the paper's
observation that "independent I/O of sub-array regions are done as
sequential scan of the chunks on disk" — and use the inverse mapping to
scatter each chunk into its place in the requested in-memory order
(``order="C"`` or ``"F"``), which is the paper's on-the-fly
transposition.

Every sub-array request is first compiled by :mod:`repro.drx.ioplan`
into maximal contiguous address runs and executed on one of two routes,
chosen from the plan's size.  A request that fits the pool is **pooled**:
its chunks are pinned with batched faulting (one vectored store call for
all missing chunks; a single-chunk request is the scalar case of the
same route).  A request larger than the pool **streams** past it in
*windows* of at most the pool's byte capacity, one store transfer per
window, and never churns the cache, overlaying dirty cached pages on
reads and refreshing stale cached pages on writes so the pool and the
bypass stay coherent.  Both routes, in both directions, share one
per-chunk copy (``DRXFile._copy_chunks``).

Below both routes sits one :class:`~repro.drx.chunkstore.ChunkStore`,
built from the meta-data: it places chunks (directly at ``q* ·
chunk_nbytes``, or through the slot table of a compressed array), runs
the codec (the identity for a plain array), records and verifies the
checksums, and splits a compressed window's codec work across the
``codec`` executor tier, whose tasks decode straight into the caller's
array.  Nothing in this module knows which codec an array uses.
"""

from __future__ import annotations

import pathlib
from operator import add
from typing import Callable, Sequence

import numpy as np

from ..core.chunking import chunk_of, index_tuple, validate_box
from ..core.errors import (
    CrashError,
    DRXClosedError,
    DRXFileExistsError,
    DRXFileError,
    DRXFileNotFoundError,
    DRXIndexError,
)
from ..core.hyperslab import Hyperslab
from ..core.metadata import DRXMeta, DRXType
from .chunkstore import ChunkStore, commit_meta
from .codec import CodecStats, get_codec
from .ioplan import IOPlan, PlanCache
from .mpool import Mpool
from .resilience import ScrubReport
from .storage import ByteStore, MemoryByteStore, PFSByteStore, PosixByteStore

__all__ = ["DRXFile", "repackage"]

#: Hook wrapping each backing store at create/open time — receives the
#: store and its role (``"data"`` or ``"meta"``), returns the store to
#: use.  The fault-injection and retry decorators of
#: :mod:`repro.drx.resilience` plug in here.
StoreWrapper = Callable[[ByteStore, str], ByteStore]


def _close_stores(*stores: ByteStore | None) -> None:
    """Close the raw stores of a create/open that failed midway."""
    for store in stores:
        if store is not None:
            store.close()


class DRXFile:
    """A disk-resident extendible array (serial access).

    Use the :meth:`create` / :meth:`open` class methods; instances are
    context managers::

        with DRXFile.create("climate", bounds=(360, 180), chunk_shape=(8, 8)) as a:
            a.write((0, 0), np.ones((10, 10)))
            a.extend(dim=1, by=20)
    """

    XMD_SUFFIX = ".xmd"
    XTA_SUFFIX = ".xta"

    def __init__(self, meta: DRXMeta, data_store: ByteStore,
                 meta_store: ByteStore | None, writable: bool,
                 cache_pages: int = 64) -> None:
        self.meta = meta
        # fixed for the handle's life: read on every request
        self._dtype = meta.dtype
        self._chunk_shape = meta.chunk_shape
        self._chunk_nbytes = meta.chunk_nbytes
        self._meta_store = meta_store
        self._writable = writable
        # The one chunk store over the (decorated) data store: placement,
        # codec and checksums as the meta-data says.  A compressed
        # array's codec work is split across the process-wide ``codec``
        # executor tier (sized by ``DRX_EXECUTOR_THREADS``): a pure-CPU
        # leaf tier (codec tasks take no pool lock and never submit
        # further work), so it cannot deadlock with a pool fault that
        # waits on it.  The pool itself pages on the caller's thread.
        self._data = data_store
        self._store = ChunkStore.for_meta(meta, data_store)
        self._pool = Mpool(self._store, max_pages=max(1, cache_pages))
        # compiled-request memo: generation-keyed, so extend() (which
        # bumps eci.generation) invalidates it for free; hit/miss
        # counters land in the data store's StoreStats.
        self._plans = PlanCache(stats=getattr(self._data, "stats", None))
        self._closed = False
        # -- lifecycle hooks (serve daemon, replication tooling) --------
        #: successful meta-data commits through this handle; an
        #: acknowledged write is durable iff a commit with a higher
        #: epoch than its acknowledgement succeeded afterwards.
        self._commit_epoch = 0
        self._commit_hooks: list[Callable[[int], None]] = []

    # ------------------------------------------------------------------
    # lifecycle: each public constructor only resolves its raw backing
    # stores (POSIX pair, memory, PFS pair); one create body / one open
    # body does the rest
    # ------------------------------------------------------------------
    @classmethod
    def _mount(cls, meta: DRXMeta, data: ByteStore,
               meta_store: ByteStore | None,
               store_wrapper: StoreWrapper | None, writable: bool,
               **handle) -> "DRXFile":
        """Decorate the raw backing stores and build the handle."""
        if store_wrapper is not None:
            data = store_wrapper(data, "data")
            if meta_store is not None:
                meta_store = store_wrapper(meta_store, "meta")
        return cls(meta, data, meta_store, writable=writable, **handle)

    @classmethod
    def _create(cls, place: Callable[[], tuple], bounds: Sequence[int],
                chunk_shape: Sequence[int], dtype, checksums: bool,
                codec: str, fill, store_wrapper: StoreWrapper | None,
                **handle) -> "DRXFile":
        """The one create body.  ``place()`` opens the fresh raw stores
        and returns ``(data, meta_store, discard)``; whatever fails after
        it closes them and calls ``discard()`` to remove what this call
        created, so a corrected retry does not die with "already
        exists"."""
        meta = DRXMeta.create(bounds, chunk_shape, dtype)
        meta.codec = get_codec(codec, meta.dtype.itemsize).name
        if checksums:
            meta.chunk_crcs = {}
        data, meta_store, discard = place()
        try:
            obj = cls._mount(meta, data, meta_store, store_wrapper,
                             writable=True, **handle)
            if fill != 0:
                obj._fill_chunks(range(meta.num_chunks), fill)
            obj._persist_meta()
        except CrashError:
            raise               # a simulated process death cleans up nothing
        except BaseException:
            _close_stores(data, meta_store)
            discard()
            raise
        return obj

    @classmethod
    def _open(cls, mode: str, resolve: Callable[[], tuple],
              store_wrapper: StoreWrapper | None, **handle) -> "DRXFile":
        """The one open body.  ``resolve()`` returns ``(meta, data,
        meta_store)`` — the document parsed from the *raw* meta store,
        so open-time reads never enter an op-count-ordered fault
        schedule.  A mount that fails (a ``.drx`` header that does not
        validate, a bad handle option) closes the stores it resolved."""
        if mode not in ("r", "r+"):
            raise DRXFileError(f"mode must be 'r' or 'r+', got {mode!r}")
        meta, data, meta_store = resolve()
        try:
            return cls._mount(meta, data, meta_store, store_wrapper,
                              writable=(mode == "r+"), **handle)
        except CrashError:
            raise               # as in _create
        except BaseException:
            _close_stores(data, meta_store)
            raise

    @classmethod
    def _pair_paths(cls, path: str | pathlib.Path
                    ) -> tuple[pathlib.Path, pathlib.Path]:
        path = pathlib.Path(path)
        return (path.with_name(path.name + cls.XMD_SUFFIX),
                path.with_name(path.name + cls.XTA_SUFFIX))

    @classmethod
    def create(cls, path: str | pathlib.Path | None,
               bounds: Sequence[int], chunk_shape: Sequence[int],
               dtype: str | np.dtype | type = DRXType.DOUBLE,
               overwrite: bool = False, cache_pages: int = 64,
               fill: float | int | complex = 0,
               checksums: bool = False, codec: str = "none",
               store_wrapper: StoreWrapper | None = None) -> "DRXFile":
        """Create a new extendible array file.

        ``path`` is the array name without suffix (``None`` creates a
        purely in-memory array for scratch use).  ``bounds`` are the
        initial element bounds, ``chunk_shape`` the chunk shape.
        ``checksums=True`` maintains per-chunk CRC32 checksums in the
        meta-data, verified on every chunk read (and by
        :meth:`scrub`).  ``codec`` selects transparent per-chunk
        compression (:mod:`repro.drx.codec`; ``"none"`` keeps the
        historical direct-placement layout bit-identical).
        ``store_wrapper`` decorates the backing stores (fault injection,
        retries) before any byte moves.
        """
        def place():
            if path is None:
                return MemoryByteStore(), None, lambda: None
            xmd, xta = cls._pair_paths(path)
            if not overwrite and (xmd.exists() or xta.exists()):
                raise DRXFileExistsError(f"array {path} already exists")
            meta_store = PosixByteStore(xmd, "w+")
            return PosixByteStore(xta, "w+"), meta_store, \
                lambda: (xmd.unlink(), xta.unlink())
        return cls._create(place, bounds, chunk_shape, dtype, checksums,
                           codec, fill, store_wrapper,
                           cache_pages=cache_pages)

    @classmethod
    def open(cls, path: str | pathlib.Path, mode: str = "r",
             cache_pages: int = 64,
             store_wrapper: StoreWrapper | None = None) -> "DRXFile":
        """Open an existing array file (``mode`` is ``"r"`` or ``"r+"``).

        The paper: "The file must exist otherwise it returns an error."
        Checksumming resumes automatically when the meta-data carries a
        CRC table; ``store_wrapper`` decorates the backing stores as in
        :meth:`create`.
        """
        def resolve():
            xmd, xta = cls._pair_paths(path)
            if not xmd.exists() or not xta.exists():
                raise DRXFileNotFoundError(f"no array named {path}")
            meta = DRXMeta.from_bytes(xmd.read_bytes())
            meta_store = PosixByteStore(xmd, mode)
            return meta, PosixByteStore(xta, mode), meta_store
        return cls._open(mode, resolve, store_wrapper,
                         cache_pages=cache_pages)

    @classmethod
    def create_pfs(cls, fs, name: str,
                   bounds: Sequence[int], chunk_shape: Sequence[int],
                   dtype: str | np.dtype | type = DRXType.DOUBLE,
                   cache_pages: int = 64, fill: float | int | complex = 0,
                   checksums: bool = False, codec: str = "none",
                   store_wrapper: StoreWrapper | None = None) -> "DRXFile":
        """Create an array backed by a simulated parallel file system.

        The ``.xmd`` / ``.xta`` pair becomes two striped PFS files in
        ``fs``'s namespace.  On a replicated file system the array
        survives single-server failures: data reads fail over between
        replicas, and with ``checksums=True`` the CRC table additionally
        arbitrates between diverging copies after a torn fan-out —
        including compressed arrays (``codec``), whose CRCs cover the
        compressed payload at its physical slot.
        """
        xmd, xta = name + cls.XMD_SUFFIX, name + cls.XTA_SUFFIX

        def place():
            meta_store = PFSByteStore(fs.create(xmd))
            return PFSByteStore(fs.create(xta)), meta_store, \
                lambda: (fs.delete(xmd), fs.delete(xta))
        return cls._create(place, bounds, chunk_shape, dtype, checksums,
                           codec, fill, store_wrapper,
                           cache_pages=cache_pages)

    @classmethod
    def open_pfs(cls, fs, name: str, mode: str = "r",
                 cache_pages: int = 64,
                 store_wrapper: StoreWrapper | None = None) -> "DRXFile":
        """Open a PFS-backed array created by :meth:`create_pfs`."""
        def resolve():
            xmd = fs.open(name + cls.XMD_SUFFIX)
            meta = DRXMeta.from_bytes(xmd.read(0, xmd.size))
            return meta, PFSByteStore(fs.open(name + cls.XTA_SUFFIX)), \
                PFSByteStore(xmd)
        return cls._open(mode, resolve, store_wrapper,
                         cache_pages=cache_pages)

    def close(self) -> None:
        """Flush and close both files (idempotent)."""
        if self._closed:
            return
        if self._writable:
            self.flush()
        self._data.close()
        if self._meta_store is not None:
            self._meta_store.close()
        self._closed = True

    def flush(self) -> None:
        """Write back dirty chunks and persist the meta-data."""
        self._require_open()
        self._pool.flush()
        if self._writable:
            self._persist_meta()

    def _persist_meta(self) -> None:
        """Commit the meta-data crash-consistently — the one commit
        sequence of both containers and of DRX-MP
        (:func:`~repro.drx.chunkstore.commit_meta`); only
        :attr:`_land_meta` differs.

        The pool writes back on its callers' threads and keeps nothing
        in flight, so the document's CRC table and (for a compressed
        array) slot table describe the bytes actually on the store.  The slot
        table's copy-on-write discipline guarantees that no extent the
        *previous* committed table references has been overwritten, so a
        crash anywhere (``codec.slots.written`` being the canonical
        point: payloads down, table not) reopens the old table with every
        old payload intact.  Only after the document lands are the table's
        quarantined extents released for reuse.

        A scratch in-memory array has no durable document: the
        in-memory table is the only truth, so every commit completes
        immediately and quarantined extents recycle.
        """
        if self._meta_store is None:
            self._store.mark_committed()
        else:
            commit_meta(self.meta, self._store, self._meta_store,
                        self._land_meta)
        self._note_committed()

    #: The container's own landing step (``land(blob)``), or ``None``:
    #: the ``.xmd`` store's atomic ``replace`` (POSIX: temp-file +
    #: fsync + rename, so a crash leaves the old or the new document).
    _land_meta = None

    def _note_committed(self) -> None:
        self._commit_epoch += 1
        for hook in self._commit_hooks:
            hook(self._commit_epoch)

    @property
    def commit_epoch(self) -> int:
        """Successful meta-data commits through this handle.  The serve
        daemon stamps write acknowledgements with the epoch current at
        ack time; a later flush/close response with a higher epoch
        promises those writes are durable."""
        return self._commit_epoch

    def register_commit_hook(self, hook: Callable[[int], None]) -> None:
        """Call ``hook(epoch)`` after every successful meta commit (the
        serve daemon's durability notifications)."""
        self._commit_hooks.append(hook)

    def abandon(self) -> None:
        """Drop the handle the way a crash would: no flush, no commit.

        Dirty cached pages are discarded (unflushed state is lost,
        exactly as the page cache of a killed process), and the backing
        stores are closed best-effort.  Idempotent, and safe to call
        instead of :meth:`close` on any error path that must not publish
        half-applied state.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._pool.abandon()
        except Exception:               # noqa: BLE001 - crash path
            pass
        for store in (self._data, self._meta_store):
            if store is None:
                continue
            try:
                store.close()
            except Exception:           # noqa: BLE001 - crash path
                pass

    def __enter__(self) -> "DRXFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise DRXClosedError("operation on closed DRX file")

    def _require_writable(self) -> None:
        if not self._writable:
            raise DRXFileError("array opened read-only")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        """Current element bounds."""
        return self.meta.element_bounds

    @property
    def chunk_shape(self) -> tuple[int, ...]:
        return self._chunk_shape

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    @property
    def rank(self) -> int:
        return self.meta.rank

    @property
    def num_chunks(self) -> int:
        return self.meta.num_chunks

    @property
    def cache_stats(self):
        return self._pool.stats

    @property
    def codec(self) -> str:
        """The array's compression codec name (``"none"`` = plain)."""
        return self.meta.codec

    @property
    def codec_stats(self) -> "CodecStats | None":
        """Compression counters — raw vs ``compressed_bytes``, achieved
        ``ratio``, encode/decode wall-time — or ``None`` for a plain
        array."""
        return self._store.codec_stats

    def data_extent_nbytes(self) -> int:
        """Physical size of the chunk region: the slot table's append
        high-water mark for a compressed array, the logical
        ``data_nbytes`` for a plain one."""
        return self._store.end

    @property
    def attrs(self):
        """User attributes (persisted to the .xmd on flush/close)."""
        return self.meta.attrs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DRXFile(shape={self.shape}, chunks={self.chunk_shape}, "
                f"dtype={self.meta.dtype_name})")

    # ------------------------------------------------------------------
    # growth
    # ------------------------------------------------------------------
    def extend(self, dim: int, by: int) -> None:
        """Extend dimension ``dim`` by ``by`` elements.

        Appends any newly required chunk segment to the ``.xta`` file;
        no existing byte moves (the paper's central property).  New
        elements read as zero until written.
        """
        self._require_open()
        self._require_writable()
        self.meta.extend_elements(dim, by)
        # Nothing to write eagerly: reads of unwritten chunks see zeros
        # (sparse semantics); the chunk store still grows so that a
        # whole-file scan covers the new segment.
        self._store.grow(self.meta.num_chunks)
        self._persist_meta()

    def _fill_chunks(self, addresses, value) -> None:
        payload = np.full(self.meta.chunk_elems, value,
                          dtype=self._dtype).tobytes()
        addrs = sorted(int(q) for q in addresses)
        self._store.write(addrs, payload * len(addrs))

    # ------------------------------------------------------------------
    # element access
    # ------------------------------------------------------------------
    def get(self, index: Sequence[int]) -> np.generic:
        """Read one element (computed access: F* then in-chunk offset)."""
        self._require_open()
        q, local = self._locate(index)
        buf = self._pool.get(q)
        try:
            arr = buf.view(self._dtype).reshape(self._chunk_shape)
            return arr[local].copy()
        finally:
            self._pool.put(q)

    def put(self, index: Sequence[int], value) -> None:
        """Write one element."""
        self._require_open()
        self._require_writable()
        q, local = self._locate(index)
        buf = self._pool.get(q)
        try:
            arr = buf.view(self._dtype).reshape(self._chunk_shape)
            arr[local] = value
        finally:
            self._pool.put(q, dirty=True)

    def _locate(self, index: Sequence[int]) -> tuple[int, tuple[int, ...]]:
        """The chunk address of element ``index`` and its coordinates in
        the chunk, after checking it is an integer index in bounds."""
        index = index_tuple(index, "element index")
        shape = self.shape
        if len(index) != len(shape):
            raise DRXIndexError(f"index rank {len(index)} != {len(shape)}")
        for i, n in zip(index, shape):
            if not 0 <= i < n:
                raise DRXIndexError(
                    f"element {index} outside bounds {shape}"
                )
        ci, local = chunk_of(index, self._chunk_shape)
        return self.meta.eci.address(ci), local

    # ------------------------------------------------------------------
    # sub-array access
    # ------------------------------------------------------------------
    def read(self, lo: Sequence[int] | None = None,
             hi: Sequence[int] | None = None,
             order: str = "C") -> np.ndarray:
        """Read the sub-array ``[lo, hi)`` in the requested memory order.

        Chunks are visited in increasing linear address (a sequential
        file scan); each is scattered into the output box, so asking for
        ``order="F"`` costs no extra I/O pass (on-the-fly transposition).
        The visit list is coalesced into contiguous runs: requests that
        fit the pool fault every missing chunk with one vectored store
        call, larger ones stream past the pool in pool-sized windows.
        """
        self._require_open()
        bounds = self.meta.element_bounds
        lo, hi, shape = validate_box((0,) * len(bounds) if lo is None else lo,
                                     bounds if hi is None else hi, bounds)
        if order not in ("C", "F"):
            raise DRXIndexError(f"order must be 'C' or 'F', got {order!r}")
        plan = self._plans.box(self.meta.eci, lo, hi, self._chunk_shape,
                               self._chunk_nbytes)
        # every route writes every element of the box
        out = np.empty(shape, dtype=self._dtype, order=order)
        self._execute(plan, out, to_box=True)
        return out

    def write(self, lo: Sequence[int], values: np.ndarray) -> None:
        """Write ``values`` into the box starting at ``lo``.

        Fully covered chunks of oversized requests are streamed straight
        to the store in pool-sized windows; partially covered chunks
        always read-modify-write through the pool.
        """
        self._require_open()
        self._require_writable()
        values = np.asarray(values, dtype=self._dtype)
        lo = index_tuple(lo, "box corner")
        if len(lo) != values.ndim:
            raise DRXIndexError(f"box corner {lo} and values of shape "
                                f"{values.shape} differ in rank")
        lo, hi, _shape = validate_box(lo, map(add, lo, values.shape),
                                      self.meta.element_bounds)
        plan = self._plans.box(self.meta.eci, lo, hi, self._chunk_shape,
                               self._chunk_nbytes)
        self._execute(plan, values, to_box=False)

    def read_all(self, order: str = "C") -> np.ndarray:
        """The whole principal array as one in-memory array."""
        return self.read(None, None, order)

    # ------------------------------------------------------------------
    # strided hyperslab access (HDF5-style selections)
    # ------------------------------------------------------------------
    def read_slab(self, start, stride, count,
                  order: str = "C") -> np.ndarray:
        """Read a strided hyperslab ``(start, stride, count)``.

        Returns a dense array of shape ``count`` holding the selected
        lattice ``A[start + i*stride]``.  Only the chunks intersecting
        the slab's bounding box are touched, and the lattice is picked
        with strided NumPy slicing (no per-element loop).
        """
        self._require_open()
        slab = Hyperslab.build(start, stride, count)
        slab.validate(self.shape)
        plan = self._plans.slab(self.meta.eci, slab, self._chunk_shape,
                                self._chunk_nbytes)
        # every route writes every element of the lattice
        out = np.empty(slab.shape, dtype=self._dtype, order=order)
        self._execute(plan, out, to_box=True)
        return out

    def write_slab(self, start, stride, values: np.ndarray) -> None:
        """Write a dense array onto the strided lattice ``(start,
        stride, values.shape)``."""
        self._require_open()
        self._require_writable()
        values = np.asarray(values, dtype=self._dtype)
        slab = Hyperslab.build(start, stride, values.shape)
        slab.validate(self.shape)
        plan = self._plans.slab(self.meta.eci, slab, self._chunk_shape,
                                self._chunk_nbytes)
        self._execute(plan, values, to_box=False)

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    @property
    def checksums_enabled(self) -> bool:
        """Whether per-chunk CRC32 checksums are maintained."""
        return self.meta.chunk_crcs is not None

    def scrub(self, batch_chunks: int = 256) -> ScrubReport:
        """Scan the whole container and verify every chunk's checksum.

        Reads the chunk region in batches (``batch_chunks`` chunks per
        store call) and compares each chunk's stored bytes — the framed
        payload at its slot for a compressed array — against the CRC
        table committed in the meta-data.  Chunks without a stored CRC
        (never written, or written before checksums were enabled) are
        counted as unverified.  Dirty cached pages are flushed first on
        writable handles so the scan sees the committed state.

        Returns a :class:`~repro.drx.resilience.ScrubReport` whose
        ``corrupt`` list pinpoints torn or bit-rotted chunks by linear
        address; it never raises on a mismatch.
        """
        self._require_open()
        if self._writable:
            self.flush()
        return self._store.scrub(batch_chunks)

    # ------------------------------------------------------------------
    # compaction (compressed arrays)
    # ------------------------------------------------------------------
    def compact(self, max_moves: int | None = None) -> dict:
        """Reclaim free space in the compressed chunk region.

        Copy-on-write rewrites leave holes behind; this pass migrates
        the highest-placed slots into the lowest committed-free holes,
        commits the moved table, trims the append high-water mark, and
        truncates the physical region.  Crash-safe: destinations only
        ever come from extents the *committed* table considers free, and
        the table recommits after every pass, so a crash mid-compaction
        reopens a consistent (merely less compact) array.

        No-op (all-zero result) on a plain ``codec="none"`` array.
        Returns ``{"moves": n, "end": bytes, "reclaimed": bytes}``.
        """
        self._require_open()
        self._require_writable()
        table = self._store.table
        if table is None:
            return {"moves": 0, "end": self.meta.data_nbytes,
                    "reclaimed": 0}
        self.flush()            # quiesce + commit (promotes pending frees)
        before = table.end
        moves = 0
        while True:
            budget = None if max_moves is None else max_moves - moves
            if budget is not None and budget <= 0:
                break
            moved = self._store.migrate(budget)
            if not moved:
                break
            self._persist_meta()
            moves += moved
        table.trim_end()
        self._persist_meta()    # may place a tail meta blob (single file)
        end = table.end
        if self._data.size > end:
            self._data.truncate(end)
        return {"moves": moves, "end": end,
                "reclaimed": max(0, before - end)}

    # ------------------------------------------------------------------
    # plan execution: pooled (the plan fits the Mpool) or streaming
    # ------------------------------------------------------------------
    def _execute(self, plan: IOPlan, box: np.ndarray, to_box: bool) -> None:
        """Move the planned chunks into (``to_box``, a read) or out of
        ``box``, the request's in-memory array in the visits'
        ``box_slices`` coordinate frame.  The route follows from the
        plan's size against the pool's capacity."""
        visits = plan.visits
        if len(visits) > self._pool.max_pages:
            stream = self._read_streaming if to_box else self._write_streaming
            stream(visits, box)
        else:
            self._pooled(visits, box, to_box)

    def _copy_chunks(self, visits, bufs, box: np.ndarray,
                     to_box: bool) -> None:
        """The one per-chunk copy: each visit's region moves between its
        chunk buffer (``bufs`` aligned with ``visits``; any object with
        the buffer protocol holding one row-major chunk) and ``box``."""
        cs = self._chunk_shape
        dtype = self._dtype
        for v, buf in zip(visits, bufs):
            arr = np.ndarray(cs, dtype, buf)
            if to_box:
                box[v.box_slices] = arr[v.chunk_slices]
            else:
                arr[v.chunk_slices] = box[v.box_slices]

    def _pooled(self, visits, box: np.ndarray, to_box: bool) -> None:
        """Pin the visits' chunks in the pool (at most its capacity),
        copy, unpin — dirty after a write.  The misses fault with one
        store transfer; a one-chunk plan pins through
        ``Mpool.get``/``put``."""
        pool = self._pool
        addrs = [v.address for v in visits]
        scalar = len(addrs) == 1
        bufs = [pool.get(addrs[0])] if scalar else pool.get_many(addrs)
        try:
            self._copy_chunks(visits, bufs, box, to_box)
        finally:
            if scalar:
                pool.put(addrs[0], dirty=not to_box)
            else:
                pool.put_many(addrs, dirty=not to_box)

    def _windows(self, visits: list, sizes: list) -> list[list]:
        """Cut a streamed plan's visits into windows of at most the
        pool's byte capacity (``cache_pages × chunk_nbytes``), each
        moved with one store transfer; a window holds at least one
        chunk.  ``sizes`` are the visits' stored sizes (``chunk_nbytes``
        each on a plain array)."""
        cap = self._pool.max_pages * self._chunk_nbytes
        windows: list[list] = []
        first = held = 0
        for i, size in enumerate(sizes):
            if held + size > cap and i > first:
                windows.append(visits[first:i])
                first, held = i, 0
            held += size
        if first < len(visits):
            windows.append(visits[first:])
        return windows

    def _read_streaming(self, visits: list, out: np.ndarray) -> None:
        """Move a plan's visits window by window (:meth:`_windows`),
        bypassing the pool: one store transfer per window.

        Dirty cached pages shadow the file, so a window's dirty chunks
        are copied from their pool page instead of from the bytes just
        read (coherence with unflushed writes); clean cached pages are
        byte-identical to the file.  Dirty pages are resolved on this
        thread after the window's read returned and before the rest is
        verified and decoded — split once across the codec tier for a
        compressed array, whose tasks copy straight into ``out``.
        """
        pool, store = self._pool, self._store

        def put(visits, bufs) -> None:
            self._copy_chunks(visits, bufs, out, to_box=True)

        sizes = store.stored_nbytes([v.address for v in visits])
        for window in self._windows(visits, sizes):
            frames = store.fetch([v.address for v in window])
            dirty, bufs, rest = [], [], []
            for v, frame in zip(window, frames):
                buf = pool.peek_dirty(v.address)
                if buf is None:
                    rest.append((v, frame))
                else:
                    dirty.append(v)
                    bufs.append(buf)
            put(dirty, bufs)
            store.decode_each(rest, put)

    def _write_streaming(self, visits: list, values: np.ndarray) -> None:
        """Stream fully covered chunks to the store window by window
        (:meth:`_windows`): one store write per window, issued on this
        thread, so at most one is in flight and writes land in order.

        Each window is copied out of ``values`` into one buffer that the
        chunk store writes; a compressed window's copy and encode are
        split across the codec tier.  Partially covered (edge) chunks
        still read-modify-write through the pool, in capacity-sized
        batches.
        """
        nb = self._chunk_nbytes
        full = [v for v in visits if v.full]
        partial = [v for v in visits if not v.full]
        # a chunk's stored size is known only once it is encoded: count
        # each at the compression ratio the array has shown so far
        sizes = [nb / self._store.ratio] * len(full)
        for window in self._windows(full, sizes):

            def fill(idx, raws, window=window) -> None:
                self._copy_chunks([window[i] for i in idx], raws, values,
                                  to_box=False)

            buf = bytearray(len(window) * nb)
            self._store.write([v.address for v in window], buf, fill)
            self._landed(window, buf)
        for i in range(0, len(partial), self._pool.max_pages):
            self._pooled(partial[i:i + self._pool.max_pages], values,
                         to_box=False)

    def _landed(self, visits, buf) -> None:
        """Finish one streamed write window, whose store write of
        ``buf`` has returned (and recorded the chunks' checksums): only
        now are the cached copies refreshed in place, so the pool cannot
        later resurface, or write back, stale bytes.  A write that fails
        leaves the pool describing the bytes the store still holds."""
        nb = self._chunk_nbytes
        mv = memoryview(buf)
        for i, v in enumerate(visits):
            self._pool.refresh(v.address, mv[i * nb:(i + 1) * nb])


def repackage(src: DRXFile, create: Callable[..., DRXFile],
              codec: str | None = None) -> DRXFile:
    """Carry ``src`` into the fresh container that ``create(bounds,
    chunk_shape, dtype=, codec=, checksums=)`` makes — the one copy
    behind container conversion and the serve daemon's snapshot.

    The copy keeps the source's geometry, axial vectors and
    checksumming.  Its chunks move window by window through both chunk
    stores, at most ``cache_pages`` chunks (the source pool's capacity)
    per transfer, so the copy never holds the whole array.  The codec
    follows the source unless overridden; payloads cross decompressed,
    so a copy can also recompress.  The target records its own CRCs
    over what it stores.  Returns the committed, still-open copy.
    """
    src.flush()
    out = create(src.shape, src.chunk_shape, dtype=src.meta.dtype_name,
                 codec=src.meta.codec if codec is None else codec,
                 checksums=src.checksums_enabled)
    try:
        out.meta.eci = src.meta.eci.copy()
        out.meta.element_bounds = src.meta.element_bounds
        total, step = src.meta.num_chunks, src._pool.max_pages
        for start in range(0, total, step):
            chunks = list(range(start, min(start + step, total)))
            out._store.write(chunks, b"".join(src._store.read(chunks)))
        out._persist_meta()
    except BaseException:
        out.abandon()
        raise
    return out
