"""The resilience layer: fault plans, injection, retries, checksums.

The acceptance bar of the fault-tolerance work: a seeded fault plan
injecting transient faults into every ByteStore entry point (scalar and
vectored) must let a full write/extend/read cycle complete with retries
and end byte-identical; ``scrub()`` must pinpoint a deliberately torn
chunk.  ``DRX_FAULT_SEED`` parameterizes the seeded tests so CI can
sweep several seeds over the same test body.
"""

from __future__ import annotations

import errno
import os

import numpy as np
import pytest

from repro.core.errors import (
    ChecksumError,
    CrashError,
    DRXFileError,
    PFSError,
)
from repro.drx import (
    DRXFile,
    DRXSingleFile,
    FaultInjector,
    FaultPlan,
    MemoryByteStore,
    PosixByteStore,
    RetryingByteStore,
    is_transient,
)
from repro.pfs.server import IOServer
from repro.workloads import pattern_array

#: CI sweeps this over several values; each seed replays deterministically.
SEED = int(os.environ.get("DRX_FAULT_SEED", "0"))


def flaky_wrapper(plan: FaultPlan, seed: int = SEED, max_retries: int = 8):
    """The canonical store decoration for running over a flaky medium."""
    def wrap(store, role):
        return RetryingByteStore(FaultInjector(store, plan),
                                 max_retries=max_retries,
                                 base_delay=1e-6, max_delay=1e-5,
                                 seed=seed)
    return wrap


# ---------------------------------------------------------------------------
# fault plans
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_deterministic_for_a_seed(self):
        def run(seed):
            plan = FaultPlan(seed=seed)
            plan.fail("read", p=0.5, times=None)
            return [plan.consult("read") is not None for _ in range(64)]

        assert run(7) == run(7)
        assert run(7) != run(8)
        assert any(run(7)) and not all(run(7))

    def test_after_and_times_windows(self):
        plan = FaultPlan()
        plan.fail("write", after=2, times=2)
        fired = [plan.consult("write") is not None for _ in range(6)]
        assert fired == [False, False, True, True, False, False]

    def test_wildcard_covers_every_store_op(self):
        plan = FaultPlan()
        plan.fail("*", times=None)
        for op in ("read", "write", "readv", "writev", "flush",
                   "truncate", "replace"):
            assert plan.consult(op) is not None, op
            assert plan.injected[op] == 1

    def test_kind_filtering_per_op_class(self):
        """Read-side consults never see torn-write rules and vice versa."""
        plan = FaultPlan()
        plan.short_read(times=None)
        plan.torn_write(times=None)
        assert plan.consult("writev").kind == "torn_write"
        assert plan.consult("read").kind == "short_read"
        assert plan.consult("flush") is None

    def test_unknown_crash_site_rejected(self):
        from repro.core.errors import DRXError
        plan = FaultPlan()
        with pytest.raises(DRXError):
            plan.note_site("no.such.site")


# ---------------------------------------------------------------------------
# error classification
# ---------------------------------------------------------------------------

class TestClassification:
    def test_is_transient(self):
        assert is_transient(PFSError("busy"))
        assert not is_transient(CrashError("died"))
        assert not is_transient(DRXFileError("bad mode"))
        assert is_transient(OSError(errno.EINTR, "interrupted"))
        assert is_transient(OSError(errno.EIO, "io"))
        assert not is_transient(OSError(errno.EPERM, "denied"))
        assert not is_transient(ValueError("nope"))

    def test_explicit_flag_wins(self):
        exc = ValueError("custom")
        exc.transient = True
        assert is_transient(exc)
        exc2 = PFSError("fatal variant")
        exc2.transient = False
        assert not is_transient(exc2)


# ---------------------------------------------------------------------------
# the injector
# ---------------------------------------------------------------------------

class TestFaultInjector:
    def test_error_leaves_store_untouched(self):
        plan = FaultPlan()
        plan.fail("write", times=1)
        inner = MemoryByteStore()
        store = FaultInjector(inner, plan)
        with pytest.raises(PFSError):
            store.write(0, b"AAAA")
        assert inner.size == 0
        store.write(0, b"AAAA")          # rule exhausted
        assert inner.read(0, 4) == b"AAAA"

    def test_short_read_truncates(self):
        plan = FaultPlan()
        plan.short_read(keep=0.25, times=1)
        store = FaultInjector(MemoryByteStore(), plan)
        store.write(0, b"x" * 64)
        assert store.read(0, 64) == b"x" * 16
        assert store.read(0, 64) == b"x" * 64

    def test_torn_write_applies_prefix(self):
        plan = FaultPlan()
        plan.torn_write(keep=0.5, times=1)
        inner = MemoryByteStore()
        store = FaultInjector(inner, plan)
        with pytest.raises(PFSError):
            store.write(0, b"ABCDEFGH")
        assert inner.read(0, 8) == b"ABCD\x00\x00\x00\x00"

    def test_torn_writev_applies_prefix_extents(self):
        plan = FaultPlan()
        plan.torn_write(keep=0.75, times=1, op="writev")
        inner = MemoryByteStore()
        store = FaultInjector(inner, plan)
        with pytest.raises(PFSError):
            store.writev([(0, 4), (8, 4)], b"ABCDEFGH")
        # 6 of 8 bytes applied: the first extent whole, half the second
        assert inner.read(0, 12) == b"ABCD\x00\x00\x00\x00EF\x00\x00"

    def test_stats_are_shared_with_inner(self):
        inner = MemoryByteStore()
        store = FaultInjector(inner, FaultPlan())
        store.write(0, b"ab")
        store.read(0, 2)
        assert store.stats is inner.stats


# ---------------------------------------------------------------------------
# the retry layer
# ---------------------------------------------------------------------------

class TestRetryingByteStore:
    def _stack(self, plan, **kw):
        inner = MemoryByteStore()
        kw.setdefault("base_delay", 0.0)
        kw.setdefault("seed", SEED)
        return inner, RetryingByteStore(FaultInjector(inner, plan), **kw)

    def test_heals_transient_errors(self):
        plan = FaultPlan()
        plan.fail("write", times=2)
        inner, store = self._stack(plan)
        store.write(0, b"DATA")
        assert inner.read(0, 4) == b"DATA"
        assert store.stats.retries == 2
        assert store.stats.giveups == 0

    def test_heals_short_reads(self):
        plan = FaultPlan()
        plan.short_read(keep=0.5, times=1)
        inner, store = self._stack(plan)
        store.write(0, b"y" * 32)
        assert store.read(0, 32) == b"y" * 32
        assert store.stats.short_reads >= 1
        assert store.stats.retries >= 1

    def test_heals_short_readv(self):
        plan = FaultPlan()
        plan.short_read(keep=0.5, times=1, op="readv")
        inner, store = self._stack(plan)
        store.write(0, b"z" * 32)
        assert store.readv([(0, 16), (16, 16)]) == b"z" * 32
        assert store.stats.retries >= 1

    def test_heals_torn_writev(self):
        """Positional writes are idempotent, so re-issuing a torn
        vectored write converges to the full payload."""
        plan = FaultPlan()
        plan.torn_write(keep=0.4, times=1)
        inner, store = self._stack(plan)
        store.writev([(0, 4), (8, 4)], b"ABCDEFGH")
        assert inner.read(0, 4) == b"ABCD"
        assert inner.read(8, 4) == b"EFGH"
        assert store.stats.retries >= 1

    def test_gives_up_after_max_retries(self):
        plan = FaultPlan()
        plan.fail("read", times=None)
        _inner, store = self._stack(plan, max_retries=3)
        with pytest.raises(PFSError):
            store.read(0, 8)
        assert store.stats.retries == 3
        assert store.stats.giveups == 1

    def test_crash_is_never_retried(self):
        plan = FaultPlan()
        plan.crash("write")
        _inner, store = self._stack(plan)
        with pytest.raises(CrashError):
            store.write(0, b"ab")
        assert store.stats.retries == 0
        assert store.stats.giveups == 1

    def test_permanent_error_surfaces_immediately(self):
        plan = FaultPlan()
        plan.fail("write", times=None,
                  error=lambda d: DRXFileError(f"permanent: {d}"))
        _inner, store = self._stack(plan)
        with pytest.raises(DRXFileError):
            store.write(0, b"ab")
        assert store.stats.retries == 0

    def test_backoff_is_deterministic(self):
        delays: list[float] = []
        plan = FaultPlan()
        plan.fail("read", times=4)
        inner = MemoryByteStore()
        store = RetryingByteStore(FaultInjector(inner, plan),
                                  base_delay=0.001, max_delay=0.004,
                                  seed=42, sleep=delays.append)
        store.read(0, 4)
        plan2 = FaultPlan()
        plan2.fail("read", times=4)
        delays2: list[float] = []
        store2 = RetryingByteStore(FaultInjector(MemoryByteStore(), plan2),
                                   base_delay=0.001, max_delay=0.004,
                                   seed=42, sleep=delays2.append)
        store2.read(0, 4)
        assert delays == delays2
        assert len(delays) == 4
        # exponential envelope with jitter in [0.5, 1.5)
        assert 0.0005 <= delays[0] < 0.0015
        assert delays[3] <= 0.006


# ---------------------------------------------------------------------------
# the POSIX short-read loop
# ---------------------------------------------------------------------------

class TestPosixShortReads:
    def test_partial_pread_is_looped_not_zero_padded(self, tmp_path,
                                                     monkeypatch):
        payload = bytes(range(200))
        p = tmp_path / "f.bin"
        p.write_bytes(payload)
        store = PosixByteStore(p, "r")
        real_pread = os.pread
        monkeypatch.setattr(
            "repro.drx.storage.os.pread",
            lambda fd, n, off: real_pread(fd, min(n, 7), off))
        assert store.read(0, 100) == payload[:100]
        assert store.stats.short_reads > 0
        # true EOF still zero-fills, but only past the end
        assert store.read(150, 100) == payload[150:] + bytes(50)
        store.close()


# ---------------------------------------------------------------------------
# checksums + scrub
# ---------------------------------------------------------------------------

class TestChecksums:
    def test_fault_in_detects_corruption(self, tmp_path):
        with DRXFile.create(tmp_path / "c", (4, 4), (2, 2),
                            checksums=True) as a:
            a.write((0, 0), pattern_array((4, 4)))
        raw = bytearray((tmp_path / "c.xta").read_bytes())
        raw[5] ^= 0xFF
        (tmp_path / "c.xta").write_bytes(bytes(raw))
        with DRXFile.open(tmp_path / "c") as b:
            with pytest.raises(ChecksumError):
                b.read()

    def test_streaming_read_detects_corruption(self, tmp_path):
        """Reads too large for the pool stream around it — they must
        still verify checksums."""
        with DRXFile.create(tmp_path / "s", (8, 8), (2, 2),
                            checksums=True, cache_pages=2) as a:
            a.write((0, 0), pattern_array((8, 8)))
        raw = bytearray((tmp_path / "s.xta").read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        (tmp_path / "s.xta").write_bytes(bytes(raw))
        with DRXFile.open(tmp_path / "s", cache_pages=2) as b:
            with pytest.raises(ChecksumError):
                b.read()          # 16 chunks >> 2 pages -> streaming

    def test_scrub_pinpoints_torn_chunk(self, tmp_path):
        with DRXFile.create(tmp_path / "t", (4, 4), (2, 2),
                            checksums=True) as a:
            a.write((0, 0), pattern_array((4, 4)))
            nb = a.meta.chunk_nbytes
        raw = bytearray((tmp_path / "t.xta").read_bytes())
        raw[2 * nb + 3] ^= 0xFF           # tear chunk address 2
        (tmp_path / "t.xta").write_bytes(bytes(raw))
        with DRXFile.open(tmp_path / "t") as b:
            report = b.scrub()
        assert not report.ok
        assert report.corrupt == [2]
        assert report.checked == 4
        assert report.total_chunks == 4

    def test_scrub_clean_array(self, tmp_path):
        with DRXFile.create(tmp_path / "ok", (4, 4), (2, 2),
                            checksums=True) as a:
            a.write((0, 0), pattern_array((4, 4)))
            report = a.scrub()
        assert report.ok and report.checked == 4 and not report.corrupt

    def test_scrub_without_checksums_is_vacuous(self, tmp_path):
        with DRXFile.create(tmp_path / "n", (4, 4), (2, 2)) as a:
            a.write((0, 0), pattern_array((4, 4)))
            assert not a.checksums_enabled
            report = a.scrub()
        assert report.ok
        assert report.checked == 0
        assert report.unverified == report.total_chunks == 4

    def test_checksums_survive_reopen_and_extend(self, tmp_path):
        with DRXFile.create(tmp_path / "e", (4, 4), (2, 2),
                            checksums=True) as a:
            a.write((0, 0), pattern_array((4, 4)))
        with DRXFile.open(tmp_path / "e", mode="r+") as b:
            assert b.checksums_enabled
            b.extend(0, 2)
            b.write((4, 0), np.ones((2, 4)))
        with DRXFile.open(tmp_path / "e") as c:
            assert c.scrub().ok

    def test_single_file_checksums_and_scrub(self, tmp_path):
        from repro.drx.singlefile import DEFAULT_HEADER_RESERVE
        with DRXSingleFile.create(tmp_path / "sf", (4, 4), (2, 2),
                                  checksums=True) as a:
            a.write((0, 0), pattern_array((4, 4)))
            nb = a.meta.chunk_nbytes
        p = tmp_path / "sf.drx"
        raw = bytearray(p.read_bytes())
        raw[DEFAULT_HEADER_RESERVE + nb + 1] ^= 0xFF   # tear chunk 1
        p.write_bytes(bytes(raw))
        with DRXSingleFile.open(tmp_path / "sf") as b:
            assert b.checksums_enabled
            report = b.scrub()
        assert report.corrupt == [1]


# ---------------------------------------------------------------------------
# the PFS simulator hook
# ---------------------------------------------------------------------------

class TestIOServerHook:
    def test_server_batches_consult_the_plan(self):
        plan = FaultPlan()
        plan.fail("server.read", times=1)
        srv = IOServer(0, fault_plan=plan)
        srv.create_object("x")
        srv.write_batch("x", [(0, b"abc")])
        with pytest.raises(PFSError):
            srv.read_batch("x", [(0, 3)])
        out, _t = srv.read_batch("x", [(0, 3)])
        assert out == [b"abc"]
        plan.fail("server.write", times=1)
        with pytest.raises(PFSError):
            srv.write_batch("x", [(0, b"zzz")])
        assert srv.read_batch("x", [(0, 3)])[0] == [b"abc"]


# ---------------------------------------------------------------------------
# the acceptance cycle: everything at once, over real files
# ---------------------------------------------------------------------------

class TestEndToEndUnderFaults:
    def test_full_cycle_byte_identical_despite_faults(self, tmp_path, rng):
        """A flaky medium (transient faults on ~20% of store calls, on
        every entry point including the vectored ones) must not change a
        single byte of the result — only the stats."""
        plan = FaultPlan(seed=SEED)
        plan.fail("*", p=0.2, times=None)
        wrap = flaky_wrapper(plan)

        ref = rng.random((12, 10))
        tail = rng.random((4, 10))
        with DRXFile.create(tmp_path / "flaky", (12, 10), (4, 4),
                            checksums=True, store_wrapper=wrap) as a:
            for _round in range(8):      # enough traffic that the 20%
                a.write((0, 0), ref)     # rules fire for any seed
                a.flush()
                assert np.allclose(a.read((0, 0), (12, 10)), ref)
            a.extend(0, 4)
            a.write((12, 0), tail)
            assert np.allclose(a.read((0, 0), (12, 10)), ref)
            data_stats = a._data.stats
            meta_stats = a._meta_store.stats
        assert sum(plan.injected.values()) > 0, \
            "the plan never actually fired"
        assert data_stats.retries + meta_stats.retries > 0
        assert data_stats.giveups == 0
        assert meta_stats.giveups == 0

        # a faultless reopen sees exactly the committed bytes
        with DRXFile.open(tmp_path / "flaky") as b:
            assert np.allclose(b.read((0, 0), (12, 10)), ref)
            assert np.allclose(b.read((12, 0), (16, 10)), tail)
            assert b.scrub().ok

        # and a flaky reopen still reads them byte-identically
        plan2 = FaultPlan(seed=SEED + 1)
        plan2.fail("*", p=0.2, times=None)
        with DRXFile.open(tmp_path / "flaky",
                          store_wrapper=flaky_wrapper(plan2)) as c:
            assert np.allclose(c.read((0, 0), (12, 10)), ref)
            assert np.allclose(c.read((12, 0), (16, 10)), tail)

    def test_single_file_cycle_under_faults(self, tmp_path, rng):
        plan = FaultPlan(seed=SEED)
        plan.fail("*", p=0.15, times=None)
        ref = rng.random((8, 8))
        with DRXSingleFile.create(tmp_path / "sff", (8, 8), (3, 3),
                                  checksums=True,
                                  store_wrapper=flaky_wrapper(plan)) as a:
            a.write((0, 0), ref)
            a.extend(1, 3)
            assert np.allclose(a.read((0, 0), (8, 8)), ref)
        with DRXSingleFile.open(tmp_path / "sff") as b:
            assert np.allclose(b.read((0, 0), (8, 8)), ref)
            assert b.scrub().ok


# ---------------------------------------------------------------------------
# the decorator contract (one base, five decorators, eleven entry points)
# ---------------------------------------------------------------------------

import ast
import importlib
import inspect
import textwrap

from repro.core.watchdog import CancelScope
from repro.drx import SlotTable, get_codec
from repro.drx.singlefile import _OffsetByteStore
from repro.drx.storage import ByteStore, CompressedByteStore, StoreDecorator
from repro.serve import server as serve_server
from repro.serve.server import CancelGateStore

_BASE = 64           # the offset view's shift
_NB = 8              # the compressed store's chunk size


class _Recorder(MemoryByteStore):
    """A leaf store logging every entry point that is called *on it from
    outside* (its own vectored fallbacks calling ``read``/``write`` are
    not logged), with the arguments it saw."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: list[tuple] = []
        self._depth = 0

    def _log(self, name, *args):
        if self._depth == 0:
            self.calls.append((name, *args))
        self._depth += 1
        try:
            attr = getattr(super(), name)
            return attr(*args) if callable(attr) else attr
        finally:
            self._depth -= 1

    @property
    def size(self):
        return self._log("size")


for _name in ("read", "write", "readv", "writev", "replace",
              "read_alternates", "repair", "truncate", "flush", "close"):
    setattr(_Recorder, _name,
            lambda self, *args, _name=_name: self._log(_name, *args))


DECORATORS = {
    "CancelGateStore": lambda inner: CancelGateStore(inner),
    "FaultInjector": lambda inner: FaultInjector(inner, FaultPlan()),
    "RetryingByteStore": lambda inner: RetryingByteStore(inner,
                                                         base_delay=0.0),
    "_OffsetByteStore": lambda inner: _OffsetByteStore(inner, _BASE),
    "CompressedByteStore": lambda inner: CompressedByteStore(
        inner, get_codec("zlib", 1), SlotTable(), _NB),
}

#: every entry point with arguments valid in any decorator's address
#: space (chunk-aligned for the compressed one); ``None`` = a property
ENTRY_POINTS = {
    "read": (0, _NB),
    "write": (0, b"w" * _NB),
    "readv": ([(0, _NB)],),
    "writev": ([(0, _NB)], b"v" * _NB),
    "replace": (b"R" * _NB,),
    "read_alternates": (0, _NB),
    "repair": (0, b"h" * _NB),
    "size": None,
    "truncate": (2 * _NB,),
    "flush": (),
    "close": (),
}

#: the deliberate departures from "lands on the inner method of the same
#: name, once": the inner calls expected instead, or the refusal raised
DEPARTURES = {
    # the file's lifetime belongs to the handle, not to the view
    ("_OffsetByteStore", "close"): [],
    # a whole-store replace would overwrite the .drx header
    ("_OffsetByteStore", "replace"): DRXFileError,
    # chunk payloads always move through the vectored path ...
    ("CompressedByteStore", "read"): ["readv"],
    ("CompressedByteStore", "write"): ["writev"],
    ("CompressedByteStore", "repair"): ["writev"],
    # ... and the logical address space is not the physical one
    ("CompressedByteStore", "replace"): DRXFileError,
    ("CompressedByteStore", "read_alternates"): [],
    ("CompressedByteStore", "size"): [],
    ("CompressedByteStore", "truncate"): [],
}


class TestDecoratorContract:
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("deco", DECORATORS)
    def test_entry_point_reaches_the_same_inner_method_once(self, deco,
                                                            entry):
        inner = _Recorder()
        store = DECORATORS[deco](inner)
        store.write(0, b"p" * _NB)          # something to read back
        inner.calls.clear()
        args = ENTRY_POINTS[entry]
        want = DEPARTURES.get((deco, entry), [entry])
        if isinstance(want, type):
            with pytest.raises(want):
                getattr(store, entry)(*args)
            want = []
        elif args is None:
            getattr(store, entry)
        else:
            getattr(store, entry)(*args)
        assert [c[0] for c in inner.calls] == want

    @pytest.mark.parametrize("deco", DECORATORS)
    def test_stats_and_order_sensitivity_come_from_the_inner_store(
            self, deco):
        inner = MemoryByteStore()
        store = DECORATORS[deco](inner)
        assert store.stats is inner.stats
        assert store.deterministic_only is (deco == "FaultInjector")
        inner.deterministic_only = True
        assert DECORATORS[deco](inner).deterministic_only is True

    def test_order_sensitivity_is_visible_through_any_stack_depth(self):
        def injected():
            return FaultInjector(MemoryByteStore(), FaultPlan())
        assert CancelGateStore(RetryingByteStore(injected())) \
            .deterministic_only
        assert _OffsetByteStore(injected(), _BASE).deterministic_only
        assert CompressedByteStore(
            _OffsetByteStore(RetryingByteStore(injected()), _BASE),
            get_codec("zlib", 1), SlotTable(), _NB).deterministic_only
        assert not CancelGateStore(RetryingByteStore(
            _OffsetByteStore(MemoryByteStore(), _BASE))).deterministic_only

    def test_cancel_gate_gates_transfers_but_never_the_commit(
            self, monkeypatch):
        inner = _Recorder()
        store = CancelGateStore(inner, "meta")
        scope = CancelScope()
        scope.cancel("deadline passed")
        monkeypatch.setattr(serve_server._scope_local, "value", scope,
                            raising=False)
        for entry in ("read", "write", "readv", "writev"):
            with pytest.raises(serve_server.DeadlineError):
                getattr(store, entry)(*ENTRY_POINTS[entry])
        assert inner.calls == []
        store.replace(b"committed")         # once entered it must complete
        assert inner.calls == [("replace", b"committed")]
        assert inner.read(0, 9) == b"committed"

    def test_offset_view_never_touches_bytes_below_its_base(self):
        inner = _Recorder()
        header = bytes(range(_BASE))
        inner.write(0, header)
        view = _OffsetByteStore(inner, _BASE)
        inner.calls.clear()
        with pytest.raises(DRXFileError):
            view.replace(b"X" * (2 * _BASE))
        view.repair(0, b"h" * _NB)
        view.read_alternates(0, _NB)
        view.writev([(0, 4), (_NB, 4)], b"abcdefgh")
        view.truncate(0)
        assert inner.calls == [
            ("repair", _BASE, b"h" * _NB),
            ("read_alternates", _BASE, _NB),
            ("writev", [(_BASE, 4), (_BASE + _NB, 4)], b"abcdefgh"),
            ("truncate", _BASE),
        ]
        assert inner.read(0, _BASE) == header
        assert inner.size == _BASE and view.size == 0

    def test_every_wrapper_derives_from_the_base_and_forwards_nothing(self):
        """Structural guard: a ``ByteStore`` whose constructor takes
        ``inner`` is a :class:`StoreDecorator`, and defines no method
        that merely repeats the base class's forward."""
        for mod in ("repro.drx.storage", "repro.drx.resilience",
                    "repro.drx.singlefile", "repro.serve.server"):
            importlib.import_module(mod)
        classes, todo = [], [ByteStore]
        while todo:
            for sub in todo.pop().__subclasses__():
                if sub not in classes and sub.__module__.startswith("repro"):
                    classes.append(sub)
                    todo.append(sub)
        wrappers = [c for c in classes if "inner" in
                    inspect.signature(c.__init__).parameters]
        assert {c.__name__ for c in wrappers} >= set(DECORATORS)
        for cls in wrappers:
            assert issubclass(cls, StoreDecorator), cls
            if cls is StoreDecorator:
                continue
            for name, attr in vars(cls).items():
                fn = attr.fget if isinstance(attr, property) else attr
                if inspect.isfunction(fn):
                    assert not _is_bare_forward(fn), \
                        f"{cls.__name__}.{name} only forwards to the " \
                        f"inner store — inherit it from StoreDecorator"


def _is_bare_forward(fn) -> bool:
    """``def f(self, a, b): [return] self._inner.f(a, b)`` (or, for a
    property, ``return self._inner.f``) and nothing else."""
    node = ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0]
    body = [s for s in node.body
            if not (isinstance(s, ast.Expr)
                    and isinstance(s.value, ast.Constant))]   # docstring
    if len(body) != 1 or not isinstance(body[0], (ast.Return, ast.Expr)):
        return False
    target = call = body[0].value
    if isinstance(call, ast.Call):
        params = [a.arg for a in node.args.args[1:]]
        if call.keywords or [ast.unparse(a) for a in call.args] != params:
            return False
        target = call.func
    return ast.unparse(target) == f"self._inner.{node.name}"
