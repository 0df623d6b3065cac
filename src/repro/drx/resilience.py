"""Fault tolerance for the DRX storage stack.

Three cooperating pieces, all deterministic and seedable:

* :class:`FaultPlan` — a scripted schedule of faults.  Rules select an
  operation (``read``/``write``/``readv``/``writev``/``flush``/
  ``truncate``/``replace``, or ``"*"``), skip the first ``after``
  matching calls, then fire ``times`` times (optionally with probability
  ``p`` drawn from a seeded RNG).  Rule kinds: transient errors, short
  reads, torn (partially applied) writes, and simulated crashes — both
  at store operations and at the named code sites of
  :mod:`repro.core.faultsites`.  Activate a plan (``with plan:``) to arm
  its crash sites; store-level rules fire through a
  :class:`FaultInjector`.

* :class:`FaultInjector` — a :class:`~repro.drx.storage.ByteStore`
  decorator that consults a plan at *every* entry point, including the
  vectored ``readv``/``writev`` paths of the run-coalescing engine, so
  coalesced transfers cannot dodge injected faults.

* :class:`RetryingByteStore` — a decorator that classifies errors
  (:func:`is_transient`), re-issues transient failures with bounded
  exponential backoff and deterministic jitter, verifies vectored and
  scalar read lengths (healing injected short reads), and folds
  ``retries``/``giveups``/``short_reads`` into the shared
  :class:`~repro.drx.storage.StoreStats`.  Injected crashes
  (:class:`~repro.core.errors.CrashError`) are never retried.

On top sit the integrity helpers: :class:`ChecksumGuard` verifies and
records the per-chunk CRC32 checksums stored in the meta-data document
(:attr:`repro.core.metadata.DRXMeta.chunk_crcs`), and
:class:`ScrubReport` is the result of ``DRXFile.scrub()``'s full
container scan.

Typical test / benchmark wiring over a real file::

    plan = FaultPlan(seed=7)
    plan.fail("*", p=0.2, times=None)        # flaky medium
    wrap = lambda store, role: RetryingByteStore(
        FaultInjector(store, plan), seed=7)
    with DRXFile.create(path, (64, 64), (8, 8),
                        store_wrapper=wrap) as a:
        ...                                   # completes despite faults
"""

from __future__ import annotations

import errno
import random
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..core.errors import ChecksumError, CrashError, DRXError, DRXFileError, PFSError
from ..core import faultsites
from ..core.faultsites import (ALL_SITES, CRASH_SITES, DAEMON_SITES,
                               KILL_SITES, crash_point)
from .storage import ByteStore, Extent, StoreDecorator

__all__ = [
    "FaultPlan",
    "FaultRule",
    "FaultInjector",
    "RetryingByteStore",
    "BackoffPolicy",
    "ChecksumGuard",
    "ScrubReport",
    "is_transient",
    "chunk_crc",
    "crash_point",
    "CRASH_SITES",
    "KILL_SITES",
    "DAEMON_SITES",
    "ALL_SITES",
]

#: Store operations a :class:`FaultInjector` intercepts ("*" matches all).
STORE_OPS = ("read", "write", "readv", "writev", "flush", "truncate",
             "replace")

#: errno values treated as transient when a plain OSError surfaces.
_TRANSIENT_ERRNOS = frozenset(
    {errno.EINTR, errno.EAGAIN, errno.EBUSY, errno.EIO, errno.ETIMEDOUT}
)


def is_transient(exc: BaseException) -> bool:
    """Classify an error as transient (retry) or permanent (surface).

    An explicit boolean ``transient`` attribute on the exception wins;
    otherwise simulated-PFS faults are transient (loose cables, busy
    servers), :class:`~repro.core.errors.CrashError` and file-level DRX
    errors are permanent, and raw ``OSError``\\ s are judged by errno.
    """
    flagged = getattr(exc, "transient", None)
    if flagged is not None:
        return bool(flagged)
    if isinstance(exc, CrashError):
        return False
    if isinstance(exc, PFSError):
        return True
    if isinstance(exc, DRXError):
        return False
    if isinstance(exc, OSError):
        return exc.errno in _TRANSIENT_ERRNOS
    return False


def chunk_crc(data) -> int:
    """The checksum stored per chunk: CRC32 of the raw chunk bytes."""
    return zlib.crc32(data) & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# fault plans
# ---------------------------------------------------------------------------

@dataclass
class FaultRule:
    """One scripted fault (see :class:`FaultPlan` factory methods)."""

    op: str                    #: store op, "*", or a named fault site
    kind: str                  #: "error" | "short_read" | "torn_write" | "crash" | "hook"
    after: int = 0             #: matching calls to let through first
    times: int | None = 1      #: firings before the rule disarms (None = ∞)
    p: float = 1.0             #: firing probability once eligible
    keep: float = 0.5          #: fraction applied for short/torn transfers
    error: Callable[[str], BaseException] | None = None
    action: Callable[[], None] | None = None   #: for kind="hook"
    seen: int = 0              #: matching calls observed
    fired: int = 0             #: faults actually injected

    def make_error(self, detail: str) -> BaseException:
        if self.kind == "crash":
            return CrashError(f"injected crash: {detail}")
        if self.error is not None:
            return self.error(detail)
        return PFSError(f"injected transient fault: {detail}")


class FaultPlan:
    """A deterministic, seedable schedule of storage faults.

    One plan can drive any number of :class:`FaultInjector`\\ s and —
    while *active* (used as a context manager) — the named crash points
    of the commit protocols.  Every consulted operation and visited
    crash site is tallied in :attr:`hits`, and every injected fault in
    :attr:`injected`, so tests can assert both coverage ("this site
    fired") and effect ("this fault was actually delivered").

    Consultation is thread-safe: one lock covers rule matching and the
    tallies, so a plan consulted from executor threads fires each rule
    exactly ``times`` times.  *Which* call a rule hits is only replayable
    while the plan is active, when the executor runs every task in
    submission order.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.rules: list[FaultRule] = []
        self.hits: dict[str, int] = {}
        self.injected: dict[str, int] = {}
        self._lock = threading.Lock()

    # -- rule factories ----------------------------------------------------
    def fail(self, op: str = "*", after: int = 0, times: int | None = 1,
             p: float = 1.0,
             error: Callable[[str], BaseException] | None = None
             ) -> "FaultPlan":
        """Raise a (default transient) error at matching operations."""
        self.rules.append(FaultRule(op=op, kind="error", after=after,
                                    times=times, p=p, error=error))
        return self

    def short_read(self, after: int = 0, times: int | None = 1,
                   keep: float = 0.5, p: float = 1.0,
                   op: str = "*") -> "FaultPlan":
        """Truncate read/``readv`` results to a ``keep`` fraction.

        ``op`` narrows the rule to ``"read"`` or ``"readv"``; the default
        wildcard covers both (write-side consultations never see
        short-read rules).
        """
        self.rules.append(FaultRule(op=op, kind="short_read",
                                    after=after, times=times, p=p,
                                    keep=keep))
        return self

    def torn_write(self, after: int = 0, times: int | None = 1,
                   keep: float = 0.5, crash: bool = False,
                   p: float = 1.0, op: str = "*") -> "FaultPlan":
        """Apply only a ``keep`` prefix of a write/``writev``, then fail.

        With ``crash=True`` the failure is a :class:`CrashError` (the
        process died mid-transfer); otherwise a transient error that a
        retry layer may heal by re-issuing the full write.  ``op``
        narrows the rule to ``"write"`` or ``"writev"``; the default
        wildcard covers both (read-side consultations never see
        torn-write rules).
        """
        error = (lambda d: CrashError(f"injected crash: {d}")) if crash \
            else None
        self.rules.append(FaultRule(op=op, kind="torn_write",
                                    after=after, times=times, p=p,
                                    keep=keep, error=error))
        return self

    def crash(self, site: str, after: int = 0) -> "FaultPlan":
        """Simulate process death at a store op or named crash site."""
        self.rules.append(FaultRule(op=site, kind="crash", after=after,
                                    times=1))
        return self

    def hook(self, site: str, action: Callable[[], None], after: int = 0,
             times: int | None = 1) -> "FaultPlan":
        """Run ``action`` when fault site ``site`` is reached (without
        raising).  The chaos primitive: hooks at the ``server.kill.*``
        sites of :data:`KILL_SITES` take whole I/O servers down at a
        precise instant mid-operation.
        """
        if site not in ALL_SITES:
            raise DRXError(f"unknown fault site {site!r}; known sites: "
                           f"{sorted(ALL_SITES)}")
        self.rules.append(FaultRule(op=site, kind="hook", after=after,
                                    times=times, action=action))
        return self

    def kill_server(self, fs, sid: int, site: str, after: int = 0,
                    wipe: bool = False) -> "FaultPlan":
        """Convenience: kill server ``sid`` of file system ``fs`` when
        ``site`` is reached for the ``after``-th time."""
        return self.hook(site, lambda: fs.kill_server(sid, wipe=wipe),
                         after=after)

    # -- consultation ------------------------------------------------------
    def _match(self, name: str, kinds: tuple[str, ...],
               wildcard: bool) -> FaultRule | None:
        for rule in self.rules:
            if rule.kind not in kinds:
                continue
            if rule.op != name and not (wildcard and rule.op == "*"):
                continue
            rule.seen += 1
            if rule.seen <= rule.after:
                continue
            if rule.times is not None and rule.fired >= rule.times:
                continue
            if rule.p < 1.0 and self.rng.random() >= rule.p:
                continue
            rule.fired += 1
            self.injected[name] = self.injected.get(name, 0) + 1
            return rule
        return None

    def consult(self, op: str) -> FaultRule | None:
        """Called by :class:`FaultInjector` before each store operation.

        Returns the firing rule (the injector applies its effect), or
        ``None`` to proceed normally.
        """
        if op in ("read", "readv"):
            kinds = ("error", "crash", "short_read")
        elif op in ("write", "writev"):
            kinds = ("error", "crash", "torn_write")
        else:
            kinds = ("error", "crash")
        with self._lock:
            self.hits[op] = self.hits.get(op, 0) + 1
            return self._match(op, kinds, wildcard=True)

    def check(self, op: str) -> None:
        """Raise-if-armed form of :meth:`consult` for simple hooks.

        Used by substrate components that cannot apply partial effects
        (e.g. the PFS :class:`~repro.pfs.server.IOServer`): any firing
        rule raises its error immediately.
        """
        rule = self.consult(op)
        if rule is not None:
            raise rule.make_error(op)

    def note_site(self, site: str) -> None:
        """Fault-point callback (the plan must be active to receive it)."""
        if site not in ALL_SITES:
            raise DRXError(f"unknown fault site {site!r}; known sites: "
                           f"{sorted(ALL_SITES)}")
        with self._lock:
            self.hits[site] = self.hits.get(site, 0) + 1
            rule = self._match(site, ("crash", "error", "hook"),
                               wildcard=False)
        if rule is None:
            return
        if rule.kind == "hook":
            if rule.action is not None:
                rule.action()
            return
        raise rule.make_error(f"at crash point {site!r}")

    # -- activation (arms crash sites) -------------------------------------
    def __enter__(self) -> "FaultPlan":
        faultsites.activate(self)
        return self

    def __exit__(self, *exc) -> None:
        faultsites.deactivate(self)


# ---------------------------------------------------------------------------
# fault-injecting store decorator
# ---------------------------------------------------------------------------

class FaultInjector(StoreDecorator):
    """Wrap any byte store and subject every entry point to a plan.

    Scalar *and* vectored operations consult the plan, so the coalesced
    ``readv``/``writev`` paths see exactly the fault exposure of the
    legacy per-chunk paths.  Effects:

    * ``error`` — raise before touching the inner store (nothing applied);
    * ``crash`` — raise :class:`CrashError` before touching the store;
    * ``short_read`` — forward the read, return only a ``keep`` prefix;
    * ``torn_write`` — forward only a ``keep`` prefix of the bytes (for
      ``writev``, a prefix of the flat buffer split across extents),
      then raise — the on-store state is genuinely torn.

    ``read_alternates``/``repair`` stay the base class's plain forwards:
    arbitration exists to recover from faults, so it is out of band and
    the plan is not consulted.
    """

    def __init__(self, inner: ByteStore, plan: FaultPlan) -> None:
        super().__init__(inner)
        self.plan = plan

    # -- reads -------------------------------------------------------------
    def read(self, offset: int, length: int) -> bytes:
        rule = self.plan.consult("read")
        if rule is not None and rule.kind in ("error", "crash"):
            raise rule.make_error(f"read({offset}, {length})")
        data = self._inner.read(offset, length)
        if rule is not None:                       # short read
            return data[:int(length * rule.keep)]
        return data

    def readv(self, extents: Sequence[Extent]) -> bytes:
        rule = self.plan.consult("readv")
        if rule is not None and rule.kind in ("error", "crash"):
            raise rule.make_error(f"readv({len(extents)} extents)")
        data = self._inner.readv(extents)
        if rule is not None:                       # short vectored read
            return data[:int(len(data) * rule.keep)]
        return data

    # -- writes ------------------------------------------------------------
    def write(self, offset: int, data) -> None:
        rule = self.plan.consult("write")
        if rule is None:
            self._inner.write(offset, data)
            return
        if rule.kind == "torn_write":
            mv = memoryview(data)
            kept = int(len(mv) * rule.keep)
            if kept:
                self._inner.write(offset, mv[:kept])
            raise rule.make_error(
                f"torn write({offset}): {kept}/{len(mv)} bytes applied")
        raise rule.make_error(f"write({offset}, {len(memoryview(data))})")

    def writev(self, extents: Sequence[Extent], data) -> None:
        rule = self.plan.consult("writev")
        if rule is None:
            self._inner.writev(extents, data)
            return
        if rule.kind == "torn_write":
            mv = memoryview(data)
            kept = int(len(mv) * rule.keep)
            applied: list[Extent] = []
            pos = 0
            for off, length in extents:
                take = min(length, kept - pos)
                if take <= 0:
                    break
                applied.append((off, take))
                pos += take
            if applied:
                self._inner.writev(applied, mv[:pos])
            raise rule.make_error(
                f"torn writev: {pos}/{len(mv)} bytes over "
                f"{len(applied)}/{len(extents)} extents applied")
        raise rule.make_error(f"writev({len(extents)} extents)")

    # -- control operations ------------------------------------------------
    def replace(self, data) -> None:
        rule = self.plan.consult("replace")
        if rule is not None:
            raise rule.make_error(f"replace({len(memoryview(data))} bytes)")
        self._inner.replace(data)

    def truncate(self, size: int) -> None:
        rule = self.plan.consult("truncate")
        if rule is not None:
            raise rule.make_error(f"truncate({size})")
        self._inner.truncate(size)

    def flush(self) -> None:
        rule = self.plan.consult("flush")
        if rule is not None:
            raise rule.make_error("flush()")
        self._inner.flush()


# ---------------------------------------------------------------------------
# retry backoff policy
# ---------------------------------------------------------------------------

class BackoffPolicy:
    """The library-wide retry backoff: bounded exponential growth with
    deterministic, seeded jitter.

    The delay for attempt *n* (counting from 1) is ``base_delay *
    2**(n-1)`` capped at ``max_delay`` and scaled by a jitter factor in
    ``[0.5, 1.5)`` drawn from a seeded RNG — deterministic for a given
    seed, so tests and benchmarks replay identically.  Shared by
    :class:`RetryingByteStore` (store-level retries) and the serve
    client stub (:class:`repro.serve.DRXClient`), so the whole stack
    retries with one policy instead of ad-hoc timers.
    """

    def __init__(self, base_delay: float = 0.0005,
                 max_delay: float = 0.05, seed: int = 0) -> None:
        if base_delay < 0 or max_delay < 0:
            raise DRXFileError("backoff delays must be >= 0")
        self.base_delay = base_delay
        self.max_delay = max_delay
        self._rng = random.Random(seed)

    def delay(self, attempt: int) -> float:
        """Sleep duration before re-issuing attempt ``attempt`` (>= 1).

        Each call advances the jitter RNG, so successive retries of one
        schedule never collide even at the cap.
        """
        base = min(self.max_delay,
                   self.base_delay * (2 ** (max(1, attempt) - 1)))
        return base * (0.5 + self._rng.random())


# ---------------------------------------------------------------------------
# retrying store decorator
# ---------------------------------------------------------------------------

class RetryingByteStore(StoreDecorator):
    """Retry transient store faults with backoff + deterministic jitter.

    Every operation is re-issued up to ``max_retries`` times when
    :func:`is_transient` (or the supplied classifier) says the failure
    may heal; scalar and vectored reads additionally verify the returned
    length, so injected (or real) short reads are retried rather than
    silently zero-padded downstream.  Positional writes are idempotent,
    which is what makes re-issuing a torn ``writev`` safe.

    The backoff for attempt *n* is ``base_delay * 2**(n-1)`` capped at
    ``max_delay`` and scaled by a jitter factor in ``[0.5, 1.5)`` drawn
    from a seeded RNG — deterministic for a given seed, so tests and
    benchmarks replay identically.  ``retries`` and ``giveups`` land in
    the shared :class:`StoreStats`.  ``read_alternates``/``repair`` are
    best-effort by definition, so they stay plain forwards.
    """

    def __init__(self, inner: ByteStore, max_retries: int = 5,
                 base_delay: float = 0.0005, max_delay: float = 0.05,
                 seed: int = 0,
                 sleep: Callable[[float], None] | None = None,
                 classify: Callable[[BaseException], bool] = is_transient
                 ) -> None:
        super().__init__(inner)
        if max_retries < 0:
            raise DRXFileError(f"max_retries must be >= 0, got {max_retries}")
        self.max_retries = max_retries
        self.backoff = BackoffPolicy(base_delay, max_delay, seed)
        self.base_delay = base_delay
        self.max_delay = max_delay
        self._sleep = time.sleep if sleep is None else sleep
        self._classify = classify

    def _run(self, describe: str, attempt: Callable[[], object]):
        tries = 0
        while True:
            try:
                return attempt()
            except BaseException as exc:
                if not isinstance(exc, Exception) \
                        or not self._classify(exc) \
                        or tries >= self.max_retries:
                    self.stats.giveups += 1
                    raise
                tries += 1
                self.stats.retries += 1
                self._sleep(self.backoff.delay(tries))

    # -- reads (with length verification) ----------------------------------
    def read(self, offset: int, length: int) -> bytes:
        def attempt() -> bytes:
            data = self._inner.read(offset, length)
            if len(data) != length:
                self.stats.short_reads += 1
                raise PFSError(
                    f"short read at {offset}: got {len(data)}/{length} bytes"
                )
            return data
        return self._run("read", attempt)

    def readv(self, extents: Sequence[Extent]) -> bytes:
        want = sum(length for _off, length in extents)

        def attempt() -> bytes:
            data = self._inner.readv(extents)
            if len(data) != want:
                self.stats.short_reads += 1
                raise PFSError(
                    f"short readv: got {len(data)}/{want} bytes over "
                    f"{len(extents)} extents"
                )
            return data
        return self._run("readv", attempt)

    # -- writes / control --------------------------------------------------
    def write(self, offset: int, data) -> None:
        self._run("write", lambda: self._inner.write(offset, data))

    def writev(self, extents: Sequence[Extent], data) -> None:
        self._run("writev", lambda: self._inner.writev(extents, data))

    def replace(self, data) -> None:
        self._run("replace", lambda: self._inner.replace(data))

    def truncate(self, size: int) -> None:
        self._run("truncate", lambda: self._inner.truncate(size))

    def flush(self) -> None:
        self._run("flush", lambda: self._inner.flush())


# ---------------------------------------------------------------------------
# per-chunk integrity
# ---------------------------------------------------------------------------

class ChecksumGuard:
    """Verify / maintain the per-chunk CRC32 table of an array.

    The table lives in the meta-data document
    (:attr:`~repro.core.metadata.DRXMeta.chunk_crcs`) and is committed
    with it; this guard is its in-memory read/write interface, held by
    the array's :class:`~repro.drx.chunkstore.ChunkStore`.  Chunks
    without an entry — never written, or created before checksums were
    enabled — verify vacuously.

    Codec-tier tasks, and threads sharing one handle, verify chunks
    concurrently, so the counters are bumped under one lock.
    """

    def __init__(self, crcs: dict[int, int]) -> None:
        self.crcs = crcs
        self.checked = 0       #: verifications performed
        self.failures = 0      #: mismatches detected
        self.arbitrated = 0    #: mismatches resolved from a replica copy
        self._lock = threading.Lock()

    def record(self, address: int, data) -> None:
        """Update the stored CRC after writing chunk ``address``."""
        self.crcs[int(address)] = chunk_crc(data)

    def check(self, address: int, data) -> None:
        """Verify chunk ``address`` against its stored CRC (if any)."""
        want = self.crcs.get(int(address))
        if want is None:
            return
        got = chunk_crc(data)
        with self._lock:
            self.checked += 1
            if got != want:
                self.failures += 1
        if got != want:
            raise ChecksumError(
                f"chunk {address}: CRC32 mismatch "
                f"(stored {want:#010x}, read {got:#010x}) — torn or "
                f"corrupted chunk"
            )

    def check_or_arbitrate(self, address: int, data, store=None,
                           offset: int | None = None,
                           length: int | None = None):
        """Verify chunk ``address``; on a CRC mismatch, :meth:`arbitrate`
        among the store's replica copies of ``[offset, offset+length)``
        (without a store the :class:`ChecksumError` propagates).

        Returns the verified bytes (``data`` itself when it checked
        out, the arbitrated copy otherwise).
        """
        try:
            self.check(address, data)
            return data
        except ChecksumError as exc:
            if store is None or offset is None or length is None:
                raise
            return self.arbitrate(address, exc, store, offset, length)

    def arbitrate(self, address: int, error: ChecksumError, store,
                  offset: int, length: int):
        """The replica copy of chunk ``address`` that matches its stored
        CRC, after a read of it failed :meth:`check` with ``error``.

        A torn replica fan-out (or at-rest corruption of one copy)
        leaves the copies diverging; the recorded CRC identifies the
        committed version.  Each alternate the store can still reach
        (:meth:`~repro.drx.storage.ByteStore.read_alternates`) is
        checked against the stored CRC; the first match is returned —
        and written back over the bad copy on a best-effort basis
        through the store's out-of-band
        :meth:`~repro.drx.storage.ByteStore.repair` path (no write
        stats, no fault injection — this is a read, and the simulator's
        counters must stay faithful), so a later rebuild or scrub sees
        converged replicas.  With no matching alternate ``error`` is
        raised.  It does replica I/O, so it runs on the caller's thread,
        never on a codec-tier task.
        """
        want = self.crcs.get(int(address))
        heal = getattr(store, "repair", None) or store.write
        for alt in store.read_alternates(offset, length):
            if chunk_crc(alt) != want:
                continue
            with self._lock:
                self.arbitrated += 1
            try:                     # heal the divergent copy
                heal(offset, alt)
            except Exception:
                pass                 # degraded but readable is fine
            return alt
        raise error


@dataclass
class ScrubReport:
    """Result of a full-container integrity scan (``DRXFile.scrub()``)."""

    total_chunks: int
    checked: int                           #: chunks with a CRC, verified
    corrupt: list[int] = field(default_factory=list)
    unverified: int = 0                    #: chunks without a stored CRC

    @property
    def ok(self) -> bool:
        return not self.corrupt

    def __str__(self) -> str:
        state = "OK" if self.ok else f"CORRUPT {self.corrupt}"
        return (f"scrub: {self.total_chunks} chunks, {self.checked} "
                f"verified, {self.unverified} unverified — {state}")
