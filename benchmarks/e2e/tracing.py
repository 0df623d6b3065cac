"""Span tracing installed from outside the program, at run time.

The traced pass of ``run.py`` wraps one table of layer boundaries
(:data:`BOUNDARIES`) with timing spans.  Nothing under ``src/`` knows
about it: the wrappers are set on classes and modules when
:meth:`Tracer.install` runs and live until the process exits.

A span records name, start, end, thread and parent (a per-thread
stack).  A span's *self time* is its duration minus the part its child
spans cover.  Three refinements keep the per-layer table honest:

* **path** — a thread-root span named in :data:`ON_PATH_ROOTS` (the
  runner's own ``bench.op``, the daemon's request handlers) marks its
  whole subtree *on path*: these spans lie on the blocking chain of the
  operation and are what ``trace.coverage`` sums.  Roots of any other
  name (executor tier threads, the pipeline receiver) are *off path*:
  their work overlaps a wait span on the path, so they count in the
  per-layer busy numbers but not in the coverage sum.  Subtrees under
  ``bench.peer`` (MPI ranks other than rank 0) are dropped.
* **claim** — ``Journal.*`` spans claim their descendants: the store
  write and fsync under a journal append are journal time, not store
  time.
* **bucket** — spans are filed under the bucket current when they
  end: ``"sync.<kind>"`` during a synchronous operation of that kind
  (``"sync"`` between two of them), ``"pipe"`` while requests overlap
  in a pipeline, ``"idle"`` for the untimed probes between rounds.
  Coverage is computed on the synchronous buckets only; ``"idle"`` is
  never read.

A boundary that no longer resolves is reported in
:attr:`Tracer.missing` and simply produces no spans — its time folds
into the parent's self time.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import threading
import time

_now = time.perf_counter

#: thread-root span names whose subtree lies on the operation's path
ON_PATH_ROOTS = frozenset({"bench.op", "serve.handle", "serve.handler"})
#: thread-root span name whose subtree is dropped (non-zero MPI ranks)
IGNORED_ROOT = "bench.peer"
#: spans that only wait for another thread of this process; their self
#: time is covered by spans elsewhere and never enters the coverage sum
WAIT_SPANS = frozenset({"serve.client_recv", "serve.hop",
                        "serve.pending_wait"})
#: outermost spans of these names delimit "time inside DRXFile.*"
ENGINE_SPANS = frozenset({"drx.self", "drx.flush", "drx.open"})

_STORE_METHODS = {
    "read": "drx.store.read", "readv": "drx.store.read",
    "write": "drx.store.write", "writev": "drx.store.write",
    "flush": "drx.store.flush", "truncate": "drx.store.truncate",
    "replace": "drx.meta_persist",
}


def _extent_bytes(extents) -> int:
    return sum(int(length) for _off, length in extents)


_STORE_BYTES = {
    "read": lambda a: int(a[2]),
    "readv": lambda a: _extent_bytes(a[1]),
    "write": lambda a: len(a[2]),
    "writev": lambda a: len(a[2]),
    "replace": lambda a: len(a[1]),
}


def _frame_header_bytes(args) -> int:
    """Bytes of one frame that are not payload: the fixed 13-byte head
    plus the JSON header (re-encoded here, after the span closed)."""
    return 13 + len(json.dumps(args[2], separators=(",", ":")))


def _frame_link(args):
    hdr = args[2]
    if "rid" in hdr:
        return f"rid:{hdr['rid']}"
    if "seq" in hdr:
        return f"{hdr.get('client')}:{hdr.get('sid')}:{hdr['seq']}"
    return None


def _request_link(args):
    hdr = args[1]
    if "rid" in hdr:
        return f"rid:{hdr['rid']}"
    if "seq" in hdr:
        return f"{hdr.get('client')}:{hdr.get('sid')}:{hdr['seq']}"
    return None


#: ``(span name, "module:attr.path", options)``.  Options: ``claim``
#: (descendants' self time is credited here), ``under`` (rename when the
#: parent span has the given name), ``only`` (rebind a module-level
#: function in that importing module alone), ``nbytes`` / ``link``
#: (extract from the positional arguments).
BOUNDARIES = [
    # -- core ---------------------------------------------------------
    ("core.plan_map", "repro.drx.ioplan:PlanCache.box", {}),
    ("core.plan_map", "repro.drx.ioplan:PlanCache.slab", {}),
    ("core.plan_lookup", "repro.drx.ioplan:PlanCache.lookup", {}),
    ("core.plan_store", "repro.drx.ioplan:PlanCache.store", {}),
    ("core.scatter", "repro.core.scatter:scatter_chunks", {}),
    ("core.scatter", "repro.core.scatter:gather_chunks", {}),
    ("core.executor_wait", "repro.core.executor:IOExecutor.result",
     {"under": {"serve.handle": "serve.hop"}}),
    ("core.executor_wait", "repro.core.executor:IOExecutor.gather", {}),
    # -- drx ----------------------------------------------------------
    ("drx.mpool", "repro.drx.mpool:Mpool.get", {}),
    ("drx.mpool", "repro.drx.mpool:Mpool.put", {}),
    ("drx.mpool", "repro.drx.mpool:Mpool.get_many", {}),
    ("drx.mpool", "repro.drx.mpool:Mpool.put_many", {}),
    ("drx.mpool", "repro.drx.mpool:Mpool.peek_dirty", {}),
    ("drx.mpool", "repro.drx.mpool:Mpool.refresh", {}),
    ("drx.mpool", "repro.drx.mpool:Mpool.drain_writebehind", {}),
    ("drx.mpool", "repro.drx.mpool:Mpool.discard_prefetch", {}),
    ("drx.flush", "repro.drx.mpool:Mpool.flush", {}),
    ("drx.self", "repro.drx.drxfile:DRXFile.read", {}),
    ("drx.self", "repro.drx.drxfile:DRXFile.write", {}),
    ("drx.self", "repro.drx.drxfile:DRXFile.read_slab", {}),
    ("drx.self", "repro.drx.drxfile:DRXFile.write_slab", {}),
    ("drx.self", "repro.drx.drxfile:DRXFile.get", {}),
    ("drx.self", "repro.drx.drxfile:DRXFile.put", {}),
    ("drx.self", "repro.drx.drxfile:DRXFile.extend", {}),
    ("drx.flush", "repro.drx.drxfile:DRXFile.flush", {}),
    ("drx.flush", "repro.drx.drxfile:DRXFile.close", {}),
    ("drx.open", "repro.drx.drxfile:DRXFile.create", {}),
    ("drx.open", "repro.drx.drxfile:DRXFile.open", {}),
    ("drx.codec_encode", "repro.drx.codec:Codec.frame_encode", {}),
    ("drx.codec_decode", "repro.drx.codec:Codec.frame_decode", {}),
    ("drx.checksum", "repro.drx.resilience:ChecksumGuard.record", {}),
    ("drx.checksum", "repro.drx.resilience:ChecksumGuard.check", {}),
    ("drx.checksum",
     "repro.drx.resilience:ChecksumGuard.check_or_arbitrate", {}),
    # (ByteStore subclasses are wrapped by _install_stores)
    # -- drxmp --------------------------------------------------------
    ("drxmp.self", "repro.drxmp.api:DRXMPFile.create", {}),
    ("drxmp.self", "repro.drxmp.api:DRXMPFile.open", {}),
    ("drxmp.self", "repro.drxmp.api:DRXMPFile.close", {}),
    ("drxmp.self", "repro.drxmp.api:DRXMPFile.read_zone", {}),
    ("drxmp.self", "repro.drxmp.api:DRXMPFile.write_zone", {}),
    ("drxmp.self", "repro.drxmp.api:DRXMPFile.extend", {}),
    ("drxmp.self", "repro.drxmp.subarray:zone_read", {}),
    ("drxmp.self", "repro.drxmp.subarray:zone_write", {}),
    # -- mpi ----------------------------------------------------------
    ("mpi.pack", "repro.mpi.datatypes:Datatype.pack", {}),
    ("mpi.pack", "repro.mpi.datatypes:Datatype.unpack", {}),
    ("mpi.pack", "repro.mpi.file:FileView.extents", {}),
    ("mpi.pack", "repro.mpi.comm:_pack_buf", {}),
    ("mpi.pack", "repro.mpi.comm:_unpack_buf", {}),
    ("mpi.self", "repro.mpi.file:File.Open", {}),
    ("mpi.self", "repro.mpi.file:File.Close", {}),
    ("mpi.self", "repro.mpi.file:File.Set_view", {}),
    ("mpi.self", "repro.mpi.file:File.Set_size", {}),
    ("mpi.self", "repro.mpi.file:File.Read_at", {}),
    ("mpi.self", "repro.mpi.file:File.Write_at", {}),
    ("mpi.self", "repro.mpi.file:File.Read_at_all", {}),
    ("mpi.self", "repro.mpi.file:File.Write_at_all", {}),
    ("mpi.self", "repro.mpi.collective:two_phase_read", {}),
    ("mpi.self", "repro.mpi.collective:two_phase_write", {}),
    ("mpi.exchange", "repro.mpi.comm:Intracomm.exchange_p2p", {}),
    ("mpi.exchange", "repro.mpi.comm:Intracomm.allgather", {}),
    ("mpi.exchange", "repro.mpi.comm:Intracomm.alltoall", {}),
    ("mpi.exchange", "repro.mpi.comm:Intracomm.bcast", {}),
    ("mpi.exchange", "repro.mpi.comm:Intracomm.gather", {}),
    ("mpi.exchange", "repro.mpi.comm:Intracomm.allreduce", {}),
    ("mpi.exchange", "repro.mpi.comm:Intracomm.send", {}),
    ("mpi.exchange", "repro.mpi.comm:Intracomm.recv", {}),
    ("mpi.barrier_wait", "repro.mpi.comm:Intracomm.barrier", {}),
    ("mpi.barrier_wait", "repro.mpi.comm:_AbortableBarrier.wait", {}),
    ("mpi.barrier_wait", "repro.mpi.comm:_Mailbox.get", {}),
    # -- pfs ----------------------------------------------------------
    ("pfs.wall", "repro.pfs.pfile:PFSFile.readv",
     {"nbytes": lambda a: _extent_bytes(a[1])}),
    ("pfs.wall", "repro.pfs.pfile:PFSFile.writev",
     {"nbytes": lambda a: len(a[2])}),
    ("pfs.wall", "repro.pfs.pfile:PFSFile.sieve_writev", {}),
    ("pfs.wall", "repro.pfs.pfile:PFSFile.read", {}),
    ("pfs.wall", "repro.pfs.pfile:PFSFile.write", {}),
    ("pfs.wall", "repro.pfs.pfile:PFSFile.set_size", {}),
    # -- serve --------------------------------------------------------
    ("serve.client", "repro.serve.client:DRXClient.request", {}),
    ("serve.client", "repro.serve.client:Pipeline.submit", {}),
    ("serve.client", "repro.serve.client:Pipeline.drain", {}),
    ("serve.pending_wait", "repro.serve.client:PendingReply.result", {}),
    ("serve.client_send", "repro.serve.protocol:send_frame",
     {"only": "repro.serve.client", "nbytes": _frame_header_bytes,
      "link": _frame_link}),
    ("serve.client_recv", "repro.serve.protocol:recv_frame",
     {"only": "repro.serve.client"}),
    ("serve.server_send", "repro.serve.protocol:send_frame",
     {"only": "repro.serve.server", "nbytes": _frame_header_bytes,
      "link": _frame_link}),
    ("serve.handle", "repro.serve.server:DRXServer._handle_request",
     {"link": _request_link}),
    ("serve.handler", "repro.serve.server:DRXServer._op_open", {}),
    ("serve.handler", "repro.serve.server:DRXServer._op_create", {}),
    ("serve.handler", "repro.serve.server:DRXServer._op_read", {}),
    ("serve.handler", "repro.serve.server:DRXServer._op_write", {}),
    ("serve.handler", "repro.serve.server:DRXServer._op_extend", {}),
    ("serve.handler", "repro.serve.server:DRXServer._op_flush", {}),
    ("serve.handler", "repro.serve.recovery:recover", {}),
    ("serve.admission_wait", "repro.serve.server:Admission.admit", {}),
    ("serve.lock_wait", "repro.serve.locks:ArrayRWLock.acquire_shared", {}),
    ("serve.lock_wait",
     "repro.serve.locks:ArrayRWLock.acquire_exclusive", {}),
    ("serve.lock_wait", "repro.serve.locks:ChunkLocks.acquire", {}),
    ("serve.journal_append", "repro.serve.journal:Journal.begin",
     {"claim": True}),
    ("serve.journal_append", "repro.serve.journal:Journal.commit",
     {"claim": True}),
    ("serve.journal_append", "repro.serve.journal:Journal.abort",
     {"claim": True}),
    ("serve.journal_sync", "repro.serve.journal:Journal.sync",
     {"claim": True}),
    ("serve.journal_rotate", "repro.serve.journal:Journal.rotate",
     {"claim": True}),
]

#: modules whose ``ByteStore`` subclasses must exist before the store
#: boundaries are enumerated
_STORE_MODULES = ("repro.drx.storage", "repro.drx.resilience",
                  "repro.drx.singlefile", "repro.serve.server")


class Tracer:
    """Installs the boundary table and aggregates the spans it yields."""

    def __init__(self, span_cap: int = 60000) -> None:
        self._local = threading.local()
        self._aggs: list[dict] = []       # one per thread, merged at the end
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.bucket = "sync"
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.missing: list[tuple[str, str]] = []
        #: root span the runner wraps every timed operation in
        self.op = self._wrap(lambda fn, *a, **k: fn(*a, **k), "bench.op", {})
        self.peer = self._wrap(lambda fn, *a, **k: fn(*a, **k),
                               IGNORED_ROOT, {})

    # ------------------------------------------------------------------
    def _thread_init(self) -> list:
        self._local.stack = []
        self._local.agg = {}
        self._local.thread = threading.current_thread().name
        with self._lock:
            self._aggs.append(self._local.agg)
        return self._local.stack

    def _wrap(self, fn, name: str, opts: dict):
        tracer = self
        local = self._local
        claim = bool(opts.get("claim"))
        under = opts.get("under")
        nbytes_of = opts.get("nbytes")
        link_of = opts.get("link")

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = tracer._thread_init()
            nm = name
            if stack:
                parent = stack[-1]
                if under is not None:
                    nm = under.get(parent[0], nm)
                credit, path, engine = parent[1], parent[2], parent[5]
            else:
                parent = None
                credit = None
                path = (1 if nm in ON_PATH_ROOTS
                        else -1 if nm == IGNORED_ROOT else 0)
                engine = False
            if credit is None and claim:
                credit = nm
            engine_root = not engine and nm in ENGINE_SPANS
            sid = next(tracer._ids)
            # frame: name, credit, path, child time, span id, in-engine
            frame = [nm, credit, path, 0.0, sid, engine or engine_root]
            stack.append(frame)
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[3] += dur
                if path >= 0:
                    agg = local.agg
                    bucket = tracer.bucket
                    key = (bucket, path, nm)
                    rec = agg.get(key)
                    if rec is None:
                        rec = agg[key] = [0, 0.0, 0.0, 0, 0.0]
                    rec[0] += 1
                    rec[1] += dur
                    if nbytes_of is not None:
                        rec[3] += nbytes_of(args)
                    if engine_root:
                        rec[4] += dur
                    if credit is not None and credit != nm:
                        key = (bucket, path, credit)
                        rec = agg.get(key)
                        if rec is None:
                            rec = agg[key] = [0, 0.0, 0.0, 0, 0.0]
                    rec[2] += dur - frame[3]
                    if len(tracer.spans) < tracer.span_cap:
                        tracer.spans.append((
                            sid, parent[4] if parent is not None else 0,
                            nm, local.thread, t0, t1,
                            link_of(args) if link_of is not None else None))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every boundary of the table that still resolves."""
        for mod in _STORE_MODULES:
            try:
                importlib.import_module(mod)
            except ImportError:
                pass
        for name, target, opts in BOUNDARIES:
            try:
                self._install_one(name, target, opts)
            except (ImportError, AttributeError, KeyError) as exc:
                self.missing.append((name, f"{target} ({exc})"))
        self._install_stores()

    def _install_one(self, name: str, target: str, opts: dict) -> None:
        modname, path = target.split(":")
        module = importlib.import_module(modname)
        parts = path.split(".")
        if len(parts) == 1:
            self._rebind_function(module, parts[0], name, opts)
            return
        owner = module
        for part in parts[:-1]:
            owner = getattr(owner, part)
        self._wrap_attribute(owner, parts[-1], name, opts)

    def _wrap_attribute(self, cls, attr: str, name: str, opts: dict) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(
                self._wrap(raw.__func__, name, opts)))
        elif isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(
                self._wrap(raw.__func__, name, opts)))
        elif inspect.isfunction(raw):
            setattr(cls, attr, self._wrap(raw, name, opts))
        else:
            raise AttributeError(f"{cls.__name__}.{attr} is not a function")

    def _rebind_function(self, module, attr: str, name: str,
                         opts: dict) -> None:
        """Wrap a module-level function in every ``repro`` module that
        holds a reference to it (``from x import f`` copies the
        binding), or in ``opts['only']`` alone."""
        orig = getattr(module, attr)
        if not inspect.isfunction(orig):
            raise AttributeError(f"{module.__name__}.{attr} is not a function")
        only = opts.get("only")
        if only is not None:
            holder = importlib.import_module(only)
            found = [k for k, v in vars(holder).items() if v is orig]
            if not found:
                raise AttributeError(f"{only} does not import {attr}")
            wrapped = self._wrap(orig, name, opts)
            for k in found:
                setattr(holder, k, wrapped)
            return
        wrapped = self._wrap(orig, name, opts)
        for holder in list(sys.modules.values()):
            if holder is None or not getattr(
                    holder, "__name__", "").startswith("repro"):
                continue
            for k, v in list(vars(holder).items()):
                if v is orig:
                    setattr(holder, k, wrapped)

    def _install_stores(self) -> None:
        """Wrap the data methods of every ``ByteStore`` class.  Leaf
        stores (no ``inner``) are the physical transfers; wrappers and
        the base class's vectored defaults are ``drx.store_wrap``."""
        try:
            base = importlib.import_module("repro.drx.storage").ByteStore
        except (ImportError, AttributeError) as exc:
            self.missing.append(("drx.store", f"ByteStore ({exc})"))
            return
        classes, todo = [base], [base]
        while todo:
            for sub in todo.pop().__subclasses__():
                if sub not in classes:
                    classes.append(sub)
                    todo.append(sub)
        for cls in classes:
            try:
                leaf = cls is not base and "inner" not in \
                    inspect.signature(cls.__init__).parameters
            except (TypeError, ValueError):
                leaf = False
            for meth, span in _STORE_METHODS.items():
                raw = cls.__dict__.get(meth)
                if not inspect.isfunction(raw):
                    continue
                opts = {}
                if leaf and meth in _STORE_BYTES:
                    opts["nbytes"] = _STORE_BYTES[meth]
                setattr(cls, meth, self._wrap(
                    raw, span if leaf else "drx.store_wrap", opts))

    # ------------------------------------------------------------------
    def totals(self) -> dict:
        """Merge the per-thread aggregates:
        ``{(bucket, path, name): [count, total, self, nbytes, engine]}``."""
        out: dict = {}
        with self._lock:
            aggs = list(self._aggs)
        for agg in aggs:
            for key, rec in list(agg.items()):
                acc = out.setdefault(key, [0, 0.0, 0.0, 0, 0.0])
                for i, v in enumerate(rec):
                    acc[i] += v
        return out

    def dump(self, path, extra: dict) -> None:
        """Write the captured spans (Chrome-trace-like rows) to ``path``."""
        rows = [{"id": s[0], "parent": s[1], "name": s[2], "thread": s[3],
                 "start_us": round(s[4] * 1e6, 1),
                 "dur_us": round((s[5] - s[4]) * 1e6, 1), "link": s[6]}
                for s in self.spans]
        doc = dict(extra)
        doc["span_cap"] = self.span_cap
        doc["missing"] = self.missing
        doc["spans"] = rows
        with open(path, "w") as fh:
            json.dump(doc, fh)


def is_sync(bucket: str) -> bool:
    """One operation in flight at a time."""
    return bucket.startswith("sync")


def is_measured(bucket: str) -> bool:
    """Belongs to the measured rounds."""
    return bucket != "idle"


def only(bucket: str):
    return lambda b: b == bucket


class Totals:
    """Read access to merged span aggregates (difference of two
    :meth:`Tracer.totals` snapshots)."""

    def __init__(self, after: dict, before: dict | None = None) -> None:
        before = before or {}
        self._t = {}
        for key, rec in after.items():
            old = before.get(key, (0, 0.0, 0.0, 0, 0.0))
            self._t[key] = [a - b for a, b in zip(rec, old)]

    def _sum(self, name: str, field: int, buckets, paths) -> float:
        return sum(rec[field] for (b, p, n), rec in self._t.items()
                   if n == name and buckets(b) and p in paths)

    def count(self, name, buckets=is_measured, paths=(0, 1)):
        return self._sum(name, 0, buckets, paths)

    def total(self, name, buckets=is_measured, paths=(0, 1)):
        return self._sum(name, 1, buckets, paths)

    def self_time(self, name, buckets=is_measured, paths=(0, 1)):
        return self._sum(name, 2, buckets, paths)

    def nbytes(self, name, buckets=is_measured, paths=(0, 1)):
        return self._sum(name, 3, buckets, paths)

    def engine(self, buckets=is_measured):
        return sum(rec[4] for (b, p, n), rec in self._t.items()
                   if buckets(b))

    def kinds(self) -> list[str]:
        """The operation kinds that have a synchronous bucket."""
        return sorted({b[5:] for (b, _p, _n) in self._t
                       if b.startswith("sync.")})

    def on_path_names(self, buckets) -> dict:
        """``{span name: on-path self seconds}``, waits excluded."""
        out: dict = {}
        for (b, p, n), rec in self._t.items():
            if buckets(b) and p == 1 and n not in WAIT_SPANS:
                out[n] = out.get(n, 0.0) + rec[2]
        return out

    def on_path_self(self, buckets) -> float:
        """Sum of self times on the blocking path, waits excluded."""
        return sum(rec[2] for (b, p, n), rec in self._t.items()
                   if buckets(b) and p == 1 and n not in WAIT_SPANS)
