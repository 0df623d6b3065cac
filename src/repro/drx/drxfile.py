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
same route).  A request larger than the pool **streams**: it moves whole
runs with ``readv``/``writev`` and never churns the cache, overlaying
dirty cached pages on reads and refreshing stale cached pages on writes
so the pool and the bypass stay coherent.  Both routes, in both
directions, share one per-chunk copy (``DRXFile._copy_chunks``).
"""

from __future__ import annotations

import os
import pathlib
from typing import Callable, Sequence

import numpy as np

from ..core import faultsites
from ..core.chunking import box_shape, chunk_of, validate_box
from ..core.errors import (
    CrashError,
    DRXClosedError,
    DRXFileExistsError,
    DRXFileError,
    DRXFileNotFoundError,
    DRXIndexError,
)
from ..core.executor import IOExecutor, default_executor, resolve_executor
from ..core.faultsites import crash_point
from ..core.hyperslab import Hyperslab
from ..core.metadata import DRXMeta, DRXType
from .chunkalloc import SlotTable
from .codec import CodecStats, get_codec
from .ioplan import IOPlan, PlanCache, coalesce_addresses
from .mpool import Mpool
from .resilience import ChecksumGuard, ScrubReport, chunk_crc
from .storage import (
    ByteStore,
    CompressedByteStore,
    MemoryByteStore,
    PFSByteStore,
    PosixByteStore,
)

__all__ = ["DRXFile"]

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
                 cache_pages: int = 64,
                 executor: "IOExecutor | None | str" = "auto",
                 readahead: int | None = None,
                 tune: str | None = None) -> None:
        self.meta = meta
        self._meta_store = meta_store
        self._writable = writable
        # background executor for Mpool read-ahead / write-behind and
        # the streaming pipelines; ``"auto"`` = the process-wide
        # ``drx``-tier pool sized by ``DRX_EXECUTOR_THREADS``.  Stores
        # whose fault schedules depend on exact op order run serial.
        self._executor = resolve_executor(executor, tier="drx")
        if getattr(data_store, "deterministic_only", False):
            self._executor = None
        #: the advisor's report when ``tune="auto"`` was requested
        self.tuning_advice = None
        self._owned_executor: "IOExecutor | None" = None
        self._check_options(tune=tune)
        if tune == "auto":
            readahead = self._auto_tune(data_store, executor, readahead)
        # Per-chunk compression: the data store is wrapped in a
        # CompressedByteStore exposing the logical chunk address space,
        # so the pool (decompressed pages), the streaming pipelines and
        # the conversions below work unchanged.  CRC verification then
        # happens *inside* the adapter — over the compressed payload at
        # its physical slot — so the file-level guard stays None.  The
        # (de)compression CPU of batched transfers is offloaded onto the
        # dedicated ``codec`` executor tier: a pure-CPU leaf tier (codec
        # tasks never submit further work), so it cannot deadlock with
        # the ``drx`` tier that calls into the adapter.
        self._guard = None
        self._codec_store: CompressedByteStore | None = None
        if meta.codec != "none":
            table = SlotTable.deserialize(meta.chunk_slots) \
                if meta.chunk_slots is not None else SlotTable()
            guard = None if meta.chunk_crcs is None \
                else ChecksumGuard(meta.chunk_crcs)
            codec_ex = None if self._executor is None \
                else default_executor("codec")
            data_store = CompressedByteStore(
                data_store, get_codec(meta.codec, meta.dtype.itemsize),
                table, meta.chunk_nbytes,
                logical_nbytes=meta.data_nbytes,
                guard=guard, executor=codec_ex)
            self._codec_store = data_store
        elif meta.chunk_crcs is not None:
            # checksums are on iff the meta-data carries a CRC table;
            # the guard is shared by the pool (fault-in / write-back)
            # and the streaming paths below.
            self._guard = ChecksumGuard(meta.chunk_crcs)
        self._data = data_store
        self._pool = Mpool(data_store, meta.chunk_nbytes,
                           max_pages=max(1, cache_pages),
                           guard=self._guard, executor=self._executor,
                           readahead=8 if readahead is None
                           else max(0, int(readahead)))
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

    def _auto_tune(self, data_store: ByteStore,
                   executor: "IOExecutor | None | str",
                   readahead: int | None) -> int | None:
        """``tune="auto"``: price the default scan workload and apply
        the runtime-adjustable knobs.

        The read-ahead window is taken from the advice unless the
        caller pinned one; the executor width is upgraded only when the
        caller asked for ``"auto"`` *and* ``DRX_EXECUTOR_THREADS`` is
        unset (an explicit environment choice always wins — it is how
        the test matrix forces the exact historical serial paths).
        Creation-time knobs (chunk shape, stripe, codec) cannot change
        on a live handle; they stay visible in :attr:`tuning_advice`.
        """
        from ..tuning.advisor import Workload, advise, pfs_geometry
        stripe, nservers = pfs_geometry(data_store)
        w = Workload(
            bounds=self.meta.element_bounds,
            chunk_shape=self.meta.chunk_shape, dtype=self.meta.dtype,
            stripe_size=stripe, nservers=nservers)
        cur_threads = getattr(self._executor, "threads", 0) \
            if self._executor is not None else 0
        advice = advise(w, current={
            "codec": self.meta.codec,
            "executor_threads": cur_threads,
            "readahead": 8 if readahead is None else int(readahead),
        })
        self.tuning_advice = advice
        threads = advice.chosen("executor_threads")
        if (executor == "auto" and os.environ.get("DRX_EXECUTOR_THREADS")
                is None and self._executor is not None
                and threads != cur_threads and threads > 0):
            self._owned_executor = IOExecutor(threads, name="drx-tuned")
            self._executor = self._owned_executor
        if readahead is None:
            readahead = int(advice.chosen("readahead"))
        return readahead

    # ------------------------------------------------------------------
    # lifecycle: each public constructor only resolves its raw backing
    # stores (POSIX pair, memory, PFS pair); one create body / one open
    # body does the rest
    # ------------------------------------------------------------------
    @classmethod
    def _check_options(cls, tune: str | None = None, **_handle) -> None:
        """Reject bad handle options; the create body calls this before
        any store is opened, so a typo cannot truncate an array."""
        if tune not in (None, "", "off", "auto"):
            raise DRXFileError(f"tune must be 'auto' or None, got {tune!r}")

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
        cls._check_options(**handle)
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
               store_wrapper: StoreWrapper | None = None,
               executor: "IOExecutor | None | str" = "auto",
               readahead: int | None = None,
               tune: str | None = None) -> "DRXFile":
        """Create a new extendible array file.

        ``path`` is the array name without suffix (``None`` creates a
        purely in-memory array for scratch use).  ``bounds`` are the
        initial element bounds, ``chunk_shape`` the chunk shape.
        ``checksums=True`` maintains per-chunk CRC32 checksums in the
        meta-data, verified on every fault-in and streamed read (and by
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
                           cache_pages=cache_pages, executor=executor,
                           readahead=readahead, tune=tune)

    @classmethod
    def open(cls, path: str | pathlib.Path, mode: str = "r",
             cache_pages: int = 64,
             store_wrapper: StoreWrapper | None = None,
             executor: "IOExecutor | None | str" = "auto",
             readahead: int | None = None,
             tune: str | None = None) -> "DRXFile":
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
                         cache_pages=cache_pages, executor=executor,
                         readahead=readahead, tune=tune)

    @classmethod
    def create_pfs(cls, fs, name: str,
                   bounds: Sequence[int], chunk_shape: Sequence[int],
                   dtype: str | np.dtype | type = DRXType.DOUBLE,
                   cache_pages: int = 64, fill: float | int | complex = 0,
                   checksums: bool = False, codec: str = "none",
                   store_wrapper: StoreWrapper | None = None,
                   executor: "IOExecutor | None | str" = "auto",
                   readahead: int | None = None,
                   tune: str | None = None) -> "DRXFile":
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
                           cache_pages=cache_pages, executor=executor,
                           readahead=readahead, tune=tune)

    @classmethod
    def open_pfs(cls, fs, name: str, mode: str = "r",
                 cache_pages: int = 64,
                 store_wrapper: StoreWrapper | None = None,
                 executor: "IOExecutor | None | str" = "auto",
                 readahead: int | None = None,
                 tune: str | None = None) -> "DRXFile":
        """Open a PFS-backed array created by :meth:`create_pfs`."""
        def resolve():
            xmd = fs.open(name + cls.XMD_SUFFIX)
            meta = DRXMeta.from_bytes(xmd.read(0, xmd.size))
            return meta, PFSByteStore(fs.open(name + cls.XTA_SUFFIX)), \
                PFSByteStore(xmd)
        return cls._open(mode, resolve, store_wrapper,
                         cache_pages=cache_pages, executor=executor,
                         readahead=readahead, tune=tune)

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
        self._shutdown_owned_executor()

    def _shutdown_owned_executor(self) -> None:
        """Stop the pool ``tune="auto"`` started for this handle."""
        if self._owned_executor is not None:
            self._owned_executor.shutdown()
            self._owned_executor = None

    def flush(self) -> None:
        """Write back dirty chunks and persist the meta-data."""
        self._require_open()
        self._pool.flush()
        if self._writable:
            self._persist_meta()

    def _persist_meta(self) -> None:
        """Commit the meta-data crash-consistently — the one commit
        sequence of both containers; only :meth:`_land_meta` differs.

        For a compressed array the slot-allocation table commits with
        the document: its copy-on-write discipline guarantees that no
        extent the *previous* committed table references has been
        overwritten, so a crash anywhere (``codec.slots.written`` being
        the canonical point: payloads down, table not) reopens the old
        table with every old payload intact.  Only after the document
        lands are the table's quarantined extents released for reuse.

        A scratch in-memory array has no durable document: the
        in-memory table is the only truth, so every commit completes
        immediately and quarantined extents recycle.
        """
        cstore = self._codec_store
        if cstore is not None:
            # quiesce background write-backs so the serialized table
            # matches the payloads actually on the store
            self._pool.drain_writebehind()
        if self._meta_store is not None:
            if cstore is not None:
                crash_point("codec.slots.written")
                self.meta.chunk_slots = cstore.table.serialize()
            self._land_meta(self.meta.to_bytes())
        if cstore is not None:
            cstore.table.mark_committed()
        self._note_committed()

    def _land_meta(self, blob: bytes) -> None:
        """Make ``blob`` the committed document (the container-specific
        step of :meth:`_persist_meta`).  The ``.xmd`` goes through the
        store's atomic ``replace`` — for a POSIX file temp-file + fsync +
        rename, so a crash at any instant leaves either the previous or
        the new document, never a torn one."""
        crash_point("xmd.commit.begin")
        self._meta_store.replace(blob)
        crash_point("xmd.commit.end")

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
        exactly as the page cache of a killed process), already-issued
        background write-backs are awaited, and the backing stores are
        closed best-effort.  Idempotent, and safe to call instead of
        :meth:`close` on any error path that must not publish
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
        self._shutdown_owned_executor()

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
        if self._codec_store is None:
            return None
        return self._codec_store.codec_stats

    def data_extent_nbytes(self) -> int:
        """Physical size of the chunk region: the slot table's append
        high-water mark for a compressed array, the logical
        ``data_nbytes`` for a plain one."""
        if self._codec_store is None:
            return self.meta.data_nbytes
        return self._codec_store.data_extent_nbytes()

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
        # (sparse semantics); the logical size still grows so that a
        # whole-file scan covers the new segment.
        needed = self.meta.data_nbytes
        if self._data.size < needed:
            self._data.truncate(needed)
        self._persist_meta()

    def _fill_chunks(self, addresses, value) -> None:
        payload = np.full(self.meta.chunk_elems, value,
                          dtype=self.dtype).tobytes()
        nb = self.meta.chunk_nbytes
        addrs = np.sort(np.fromiter((int(q) for q in addresses),
                                    dtype=np.int64))
        starts, counts = coalesce_addresses(addrs)
        extents = [(int(s) * nb, int(c) * nb)
                   for s, c in zip(starts, counts)]
        self._data.writev(extents, payload * len(addrs))
        if self._guard is not None:
            for q in addrs:
                self._guard.record(int(q), payload)

    # ------------------------------------------------------------------
    # element access
    # ------------------------------------------------------------------
    def get(self, index: Sequence[int]) -> np.generic:
        """Read one element (computed access: F* then in-chunk offset)."""
        self._require_open()
        self._check_element(index)
        ci, local = chunk_of(index, self.chunk_shape)
        q = self.meta.eci.address(ci)
        buf = self._pool.get(q)
        try:
            arr = buf.view(self.dtype).reshape(self.chunk_shape)
            return arr[local].copy()
        finally:
            self._pool.put(q)

    def put(self, index: Sequence[int], value) -> None:
        """Write one element."""
        self._require_open()
        self._require_writable()
        self._check_element(index)
        ci, local = chunk_of(index, self.chunk_shape)
        q = self.meta.eci.address(ci)
        buf = self._pool.get(q)
        try:
            arr = buf.view(self.dtype).reshape(self.chunk_shape)
            arr[local] = value
        finally:
            self._pool.put(q, dirty=True)

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
        """Read the sub-array ``[lo, hi)`` in the requested memory order.

        Chunks are visited in increasing linear address (a sequential
        file scan); each is scattered into the output box, so asking for
        ``order="F"`` costs no extra I/O pass (on-the-fly transposition).
        The visit list is coalesced into contiguous runs: requests that
        fit the pool fault every missing chunk with one vectored store
        call, larger ones stream run by run past the pool.
        """
        self._require_open()
        lo = tuple(lo) if lo is not None else (0,) * self.rank
        hi = tuple(hi) if hi is not None else self.shape
        validate_box(lo, hi, self.shape)
        if order not in ("C", "F"):
            raise DRXIndexError(f"order must be 'C' or 'F', got {order!r}")
        plan = self._plans.box(self.meta.eci, lo, hi, self.chunk_shape,
                               self.meta.chunk_nbytes)
        out = np.zeros(box_shape(lo, hi), dtype=self.dtype, order=order)
        self._execute(plan, out, to_box=True)
        return out

    def write(self, lo: Sequence[int], values: np.ndarray) -> None:
        """Write ``values`` into the box starting at ``lo``.

        Fully covered chunks of oversized requests are streamed straight
        to the store in coalesced runs; partially covered chunks always
        read-modify-write through the pool.
        """
        self._require_open()
        self._require_writable()
        values = np.asarray(values, dtype=self.dtype)
        lo = tuple(lo)
        hi = tuple(l + s for l, s in zip(lo, values.shape))
        validate_box(lo, hi, self.shape)
        plan = self._plans.box(self.meta.eci, lo, hi, self.chunk_shape,
                               self.meta.chunk_nbytes)
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
        plan = self._plans.slab(self.meta.eci, slab, self.chunk_shape,
                                self.meta.chunk_nbytes)
        out = np.zeros(slab.shape, dtype=self.dtype, order=order)
        self._execute(plan, out, to_box=True)
        return out

    def write_slab(self, start, stride, values: np.ndarray) -> None:
        """Write a dense array onto the strided lattice ``(start,
        stride, values.shape)``."""
        self._require_open()
        self._require_writable()
        values = np.asarray(values, dtype=self.dtype)
        slab = Hyperslab.build(start, stride, values.shape)
        slab.validate(self.shape)
        plan = self._plans.slab(self.meta.eci, slab, self.chunk_shape,
                                self.meta.chunk_nbytes)
        self._execute(plan, values, to_box=False)

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    @property
    def checksums_enabled(self) -> bool:
        """Whether per-chunk CRC32 checksums are maintained (for a
        compressed array the guard lives inside the codec store)."""
        return self.meta.chunk_crcs is not None

    def scrub(self, batch_chunks: int = 256) -> ScrubReport:
        """Scan the whole container and verify every chunk's checksum.

        Reads the chunk region in coalesced batches (``batch_chunks``
        chunks per vectored call) and compares each chunk against the
        CRC table committed in the meta-data.  Chunks without a stored
        CRC (never written, or written before checksums were enabled)
        are counted as unverified.  Dirty cached pages are flushed first
        on writable handles so the scan sees the committed state.

        Returns a :class:`~repro.drx.resilience.ScrubReport` whose
        ``corrupt`` list pinpoints torn or bit-rotted chunks by linear
        address; it never raises on a mismatch.
        """
        self._require_open()
        if self._writable:
            self.flush()
        if self._codec_store is not None:
            return self._scrub_compressed(batch_chunks)
        crcs = self.meta.chunk_crcs or {}
        nb = self.meta.chunk_nbytes
        total = self.num_chunks
        corrupt: list[int] = []
        checked = unverified = 0
        for start in range(0, total, max(1, batch_chunks)):
            count = min(batch_chunks, total - start)
            blob = memoryview(self._data.readv([(start * nb, count * nb)]))
            for i in range(count):
                addr = start + i
                want = crcs.get(addr)
                if want is None:
                    unverified += 1
                    continue
                checked += 1
                if chunk_crc(blob[i * nb:(i + 1) * nb]) != want:
                    corrupt.append(addr)
        return ScrubReport(total_chunks=total, checked=checked,
                           corrupt=corrupt, unverified=unverified)

    def _scrub_compressed(self, batch_chunks: int) -> ScrubReport:
        """Scrub a compressed array: the CRC covers the framed
        compressed payload at its physical slot, so the scan reads the
        *inner* store at the slot extents (no decompression needed)."""
        crcs = self.meta.chunk_crcs or {}
        cs = self._codec_store
        total = self.num_chunks
        corrupt: list[int] = []
        checked = unverified = 0
        todo: list[tuple[int, object, int]] = []
        for addr in range(total):
            slot = cs.table.get(addr)
            want = crcs.get(addr)
            if want is None or slot is None or slot.length == 0:
                unverified += 1
                continue
            todo.append((addr, slot, want))
        step = max(1, batch_chunks)
        for start in range(0, len(todo), step):
            batch = todo[start:start + step]
            blob = memoryview(cs.inner.readv(
                [(s.offset, s.length) for _a, s, _w in batch]))
            pos = 0
            for addr, slot, want in batch:
                payload = blob[pos:pos + slot.length]
                pos += slot.length
                checked += 1
                if chunk_crc(payload) != want:
                    corrupt.append(addr)
        return ScrubReport(total_chunks=total, checked=checked,
                           corrupt=corrupt, unverified=unverified)

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
        if self._codec_store is None:
            return {"moves": 0, "end": self.meta.data_nbytes,
                    "reclaimed": 0}
        cs = self._codec_store
        self.flush()            # quiesce + commit (promotes pending frees)
        before = cs.table.end
        moves = 0
        while True:
            budget = None if max_moves is None else max_moves - moves
            if budget is not None and budget <= 0:
                break
            plan = cs.table.plan_compaction(budget)
            if not plan:
                break
            for index, slot, new_off in plan:
                payload = cs.inner.read(slot.offset, slot.length)
                cs.inner.write(new_off, payload)
                cs.table.apply_move(index, new_off)
            cs.inner.flush()
            self._persist_meta()
            moves += len(plan)
        cs.table.trim_end()
        self._persist_meta()    # may place a tail meta blob (single file)
        end = cs.table.end
        if cs.inner.size > end:
            cs.inner.truncate(end)
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
        n = plan.num_chunks
        if n > self._pool.max_pages:
            stream = self._read_streaming if to_box else self._write_streaming
            stream(plan, box)
        else:
            self._pooled(plan.visits, box, to_box, scalar=n <= 1)

    def _copy_chunks(self, visits, bufs, box: np.ndarray,
                     to_box: bool) -> None:
        """The one per-chunk copy: each visit's region moves between its
        chunk buffer (``bufs`` aligned with ``visits``; any object with
        the buffer protocol holding one row-major chunk) and ``box``."""
        cs = self.chunk_shape
        dtype = self.dtype
        for v, buf in zip(visits, bufs):
            arr = np.frombuffer(buf, dtype=dtype).reshape(cs)
            if to_box:
                box[v.box_slices] = arr[v.chunk_slices]
            else:
                arr[v.chunk_slices] = box[v.box_slices]

    def _pooled(self, visits, box: np.ndarray, to_box: bool,
                scalar: bool = False) -> None:
        """Pin the visits' chunks in the pool (at most its capacity),
        copy, unpin — dirty after a write.  The misses fault with one
        vectored store call; ``scalar`` (the plan is a single chunk)
        pins through ``Mpool.get``/``put`` and a plain store ``read``."""
        pool = self._pool
        addrs = [v.address for v in visits]
        bufs = [pool.get(q) for q in addrs] if scalar \
            else pool.get_many(addrs)
        try:
            self._copy_chunks(visits, bufs, box, to_box)
        finally:
            if scalar:
                for q in addrs:
                    pool.put(q, dirty=not to_box)
            else:
                pool.put_many(addrs, dirty=not to_box)

    def _stream_batches(self, plan: IOPlan) -> list[tuple[list, list]]:
        """Group a streamed plan's runs into store transfers, each a
        ``(visits, byte extents)`` pair.

        One batch holding every run — a single vectored call — without
        an executor, for a single run, or while fault machinery is armed
        (its schedules count store calls); otherwise one batch per run,
        so the next transfer is in flight while this one is copied.
        """
        runs = plan.runs
        if self._executor is None or len(runs) <= 1 \
                or faultsites.any_active():
            groups = [runs]
        else:
            groups = [[r] for r in runs]
        nb = plan.chunk_nbytes
        return [(plan.visits[g[0].first:g[-1].first + g[-1].count],
                 [r.byte_extent(nb) for r in g]) for g in groups]

    def _begin(self, overlap: bool, call: Callable, *args) -> Callable:
        """Start a store transfer and return the callable that waits for
        it: in flight on the executor with ``overlap``, else run at the
        wait itself."""
        if not overlap:
            return lambda: call(*args)
        ex = self._executor
        fut = ex.submit(call, *args)
        return lambda: ex.result(fut)

    def _read_streaming(self, plan: IOPlan, out: np.ndarray) -> None:
        """Move whole runs with vectored reads, bypassing the pool.

        Dirty cached pages shadow the file, so their buffers are used in
        place of the freshly read bytes (coherence with unflushed
        writes); clean cached pages are byte-identical to the file.
        Pending background write-backs are drained first — a streamed
        read must not observe the store before an already-submitted
        write-back lands.

        Batch ``i+1`` (see :meth:`_stream_batches`) is read while batch
        ``i`` scatters into ``out``.
        """
        nb = self.meta.chunk_nbytes
        self._pool.drain_writebehind()
        batches = self._stream_batches(plan)
        overlap = len(batches) > 1
        pending = self._begin(overlap, self._data.readv, batches[0][1])
        for i, (visits, _extents) in enumerate(batches):
            blob = memoryview(pending())
            if i + 1 < len(batches):
                pending = self._begin(overlap, self._data.readv,
                                      batches[i + 1][1])
            bufs = []
            for pos, v in enumerate(visits):
                buf = self._pool.peek_dirty(v.address)
                if buf is None:
                    buf = blob[pos * nb:(pos + 1) * nb]
                    if self._guard is not None:
                        # a CRC mismatch arbitrates among replica copies
                        # of the chunk (no alternates when unreplicated)
                        buf = self._guard.check_or_arbitrate(
                            v.address, buf, self._data, v.address * nb, nb)
                bufs.append(buf)
            self._copy_chunks(visits, bufs, out, to_box=True)

    def _write_streaming(self, plan: IOPlan, values: np.ndarray) -> None:
        """Stream fully covered chunks to the store in coalesced runs.

        Partially covered (edge) chunks still read-modify-write through
        the pool, in capacity-sized batches.  Pending background
        write-backs are drained first (an in-flight write-back must not
        land *after* this write) and pending read-aheads are invalidated
        (one could have captured pre-write bytes).

        While batch ``i`` (see :meth:`_stream_batches`) is being
        written, batch ``i+1``'s payload is gathered — at most one store
        write in flight, so write ordering is preserved.
        """
        nb = self.meta.chunk_nbytes
        full = [v for v in plan.visits if v.full]
        partial = [v for v in plan.visits if not v.full]
        self._pool.drain_writebehind()
        self._pool.discard_prefetch()
        if full:
            batches = self._stream_batches(IOPlan(full, nb))
            inflight = None
            for visits, extents in batches:
                payload = bytearray(len(visits) * nb)
                mv = memoryview(payload)
                chunks = [mv[i * nb:(i + 1) * nb]
                          for i in range(len(visits))]
                self._copy_chunks(visits, chunks, values, to_box=False)
                if inflight is not None:
                    self._landed(*inflight)
                wait = self._begin(len(batches) > 1, self._data.writev,
                                   extents, payload)
                inflight = (wait, visits, chunks)
            self._landed(*inflight)
        for i in range(0, len(partial), self._pool.max_pages):
            self._pooled(partial[i:i + self._pool.max_pages], values,
                         to_box=False)

    def _landed(self, wait: Callable, visits, chunks) -> None:
        """Finish one streamed write batch.  Only once its store write
        has returned are the chunks' checksums recorded and their cached
        copies refreshed in place (so the pool cannot later resurface,
        or write back, stale bytes): a write that fails leaves the CRC
        table and the pool describing the bytes the store still holds."""
        wait()
        for v, raw in zip(visits, chunks):
            if self._guard is not None:
                self._guard.record(v.address, raw)
            self._pool.refresh(v.address, raw)
