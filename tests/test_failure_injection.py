"""Failure injection: corrupted files, failing stores, misuse patterns.

A library for terabyte-scale scientific data must fail loudly and
precisely, never by silently corrupting or misreading.  These tests
corrupt every structured region of the on-disk formats and inject
storage faults mid-operation.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import MAGIC
from repro.core.errors import (
    DRXError,
    DRXFileError,
    DRXFormatError,
    PFSError,
)
from repro.core.executor import THREADS_ENV, reset_default_executors
from repro.drx import (
    DRXFile,
    DRXSingleFile,
    FaultInjector,
    FaultPlan,
    MemoryByteStore,
)
from repro.drx.singlefile import _SLOT0_OFF, _SLOT_SIZE, _unpack_slot
from repro.drx.storage import StoreDecorator
from repro.workloads import pattern_array
from tests.support.pools import byte_pool
from tests.test_singlefile import committed_slot




class TestXMDCorruption:
    def _meta_doc(self, tmp_path):
        a = DRXFile.create(tmp_path / "a", (6, 6), (2, 2))
        a.extend(0, 2)
        a.close()
        raw = (tmp_path / "a.xmd").read_bytes()
        return json.loads(raw[len(MAGIC):])

    def _write_doc(self, tmp_path, doc):
        (tmp_path / "a.xmd").write_bytes(
            MAGIC + json.dumps(doc).encode())

    @pytest.mark.parametrize("mutate", [
        lambda d: d.__setitem__("rank", 3),
        lambda d: d["index"]["bounds"].__setitem__(0, 99),
        lambda d: d.__setitem__("num_chunks", 1),
        lambda d: d["index"]["axial_vectors"][0]["records"].clear(),
        lambda d: d["index"]["axial_vectors"].pop(),
        lambda d: d.__setitem__("dtype", "float16"),
        lambda d: d.__setitem__("chunk_shape", [0, 2]),
    ], ids=["rank", "bounds", "num_chunks", "records", "vectors",
            "dtype", "chunk_shape"])
    def test_structured_corruption_rejected(self, tmp_path, mutate):
        doc = self._meta_doc(tmp_path)
        mutate(doc)
        self._write_doc(tmp_path, doc)
        with pytest.raises(DRXError):
            DRXFile.open(tmp_path / "a")

    def test_truncated_meta(self, tmp_path):
        self._meta_doc(tmp_path)
        raw = (tmp_path / "a.xmd").read_bytes()
        (tmp_path / "a.xmd").write_bytes(raw[:len(raw) // 2])
        with pytest.raises(DRXFormatError):
            DRXFile.open(tmp_path / "a")

    def test_zeroed_meta(self, tmp_path):
        self._meta_doc(tmp_path)
        (tmp_path / "a.xmd").write_bytes(bytes(128))
        with pytest.raises(DRXFormatError):
            DRXFile.open(tmp_path / "a")


class TestXTACorruption:
    def test_truncated_data_reads_zeros_not_garbage(self, tmp_path):
        """A short .xta (e.g. crash before the final flush of a fresh
        segment) must read as zeros, never as undefined memory."""
        a = DRXFile.create(tmp_path / "a", (4, 4), (2, 2))
        a.write((0, 0), pattern_array((4, 4)))
        a.close()
        xta = tmp_path / "a.xta"
        raw = xta.read_bytes()
        xta.write_bytes(raw[:len(raw) // 2])
        b = DRXFile.open(tmp_path / "a")
        got = b.read()
        # the first chunks survive; the missing tail is zeros
        assert np.array_equal(got[:2, :2], pattern_array((4, 4))[:2, :2])
        assert not np.isnan(got).any()
        b.close()


class TestSingleFileCorruption:
    def _create(self, tmp_path):
        a = DRXSingleFile.create(tmp_path / "s", (4, 4), (2, 2))
        a.write((0, 0), pattern_array((4, 4)))
        a.close()
        return tmp_path / "s.drx"

    @staticmethod
    def _zap_both_slots(raw: bytearray) -> None:
        raw[_SLOT0_OFF:_SLOT0_OFF + 2 * _SLOT_SIZE] = \
            bytes(2 * _SLOT_SIZE)

    def test_both_slots_destroyed(self, tmp_path):
        p = self._create(tmp_path)
        raw = bytearray(p.read_bytes())
        self._zap_both_slots(raw)
        p.write_bytes(bytes(raw))
        with pytest.raises(DRXFormatError):
            DRXSingleFile.open(tmp_path / "s")

    def test_newest_slot_corrupted_falls_back(self, tmp_path):
        """Garbage in the live slot must fall back to the previous
        generation, not fail — that's the whole point of the shadow."""
        a = DRXSingleFile.create(tmp_path / "s", (4, 4), (2, 2))
        a.write((0, 0), pattern_array((4, 4)))
        a.flush()                  # gen N commits the written state
        a.attrs["run"] = 1
        a.close()                  # gen N+1 commits the attribute too
        p = tmp_path / "s.drx"
        raw = bytearray(p.read_bytes())
        gen, _off, _len, _crc = committed_slot(bytes(raw))
        live = _SLOT0_OFF + (gen % 2) * _SLOT_SIZE
        raw[live:live + _SLOT_SIZE] = b"\xde\xad" * (_SLOT_SIZE // 2)
        p.write_bytes(bytes(raw))
        with DRXSingleFile.open(tmp_path / "s") as b:
            # previous generation: data yes, last attribute maybe not
            assert np.array_equal(b.read(), pattern_array((4, 4)))

    def test_meta_blob_corrupted_with_valid_slot(self, tmp_path):
        """A slot whose CRC validates but whose blob is torn must be
        skipped (blob CRC mismatch), and with no sibling, rejected."""
        p = self._create(tmp_path)
        raw = bytearray(p.read_bytes())
        slots = []
        for i in range(2):
            base = _SLOT0_OFF + i * _SLOT_SIZE
            s = _unpack_slot(bytes(raw[base:base + _SLOT_SIZE]))
            if s is not None and s[0] > 0:
                slots.append(s)
        for _gen, off, _length, _crc in slots:
            raw[off:off + 4] = b"XXXX"       # tear every committed blob
        p.write_bytes(bytes(raw))
        with pytest.raises(DRXFormatError):
            DRXSingleFile.open(tmp_path / "s")


class TestStorageFaults:
    """Pool behaviour under injected store faults — driven by the
    library :class:`FaultInjector`, which (unlike the ad-hoc store these
    tests used to carry) also intercepts the vectored ``readv``/
    ``writev`` paths the coalescing engine actually uses."""

    def test_fault_during_write_surfaces(self):
        plan = FaultPlan()
        store = FaultInjector(MemoryByteStore(), plan)
        pool = byte_pool(store, page_size=32, max_pages=1)
        page = pool.get(0)
        page[:] = 1
        pool.put(0, dirty=True)
        plan.fail("*", times=None)
        with pytest.raises(PFSError):
            pool.flush()

    def test_fault_during_eviction_surfaces(self):
        plan = FaultPlan()
        store = FaultInjector(MemoryByteStore(), plan)
        pool = byte_pool(store, page_size=32, max_pages=1)
        p = pool.get(0)
        p[:] = 7
        pool.put(0, dirty=True)
        plan.fail("*", times=None)
        with pytest.raises(PFSError):
            pool.get(1)      # read of page 1 or writeback of page 0 fails

    def test_fault_on_vectored_writeback_surfaces(self):
        """A batched (writev) flush cannot dodge injection."""
        plan = FaultPlan()
        store = FaultInjector(MemoryByteStore(), plan)
        pool = byte_pool(store, page_size=16, max_pages=8)
        for p in range(4):
            buf = pool.get(p)
            buf[:] = p + 1
            pool.put(p, dirty=True)
        plan.fail("writev", times=None)
        with pytest.raises(PFSError):
            pool.flush()     # 4 consecutive dirty pages -> one writev
        assert plan.injected.get("writev")

    def test_fault_on_vectored_fault_in_surfaces(self):
        """A batched (readv) miss fill cannot dodge injection."""
        plan = FaultPlan()
        store = FaultInjector(MemoryByteStore(), plan)
        pool = byte_pool(store, page_size=16, max_pages=8)
        plan.fail("readv", times=None)
        with pytest.raises(PFSError):
            pool.get_many([0, 1, 2])
        assert plan.injected.get("readv")

    def test_pool_state_consistent_after_fault(self):
        plan = FaultPlan()
        store = FaultInjector(MemoryByteStore(), plan)
        pool = byte_pool(store, page_size=16, max_pages=4)
        buf = pool.get(0)
        buf[:] = 3
        pool.put(0, dirty=True)
        plan.fail("*", times=1)
        with pytest.raises(PFSError):
            pool.flush()
        pool.flush()             # rule exhausted: retry succeeds
        assert store.read(0, 16) == b"\x03" * 16


class _FailingWritev(StoreDecorator):
    """A store whose vectored writes fail once armed."""

    armed = False

    def writev(self, extents, data):
        if self.armed:
            raise PFSError("injected: writev failed")
        super().writev(extents, data)


@pytest.mark.parametrize("threads", [0, 2], ids=["one-batch", "pipelined"])
def test_failed_streamed_write_leaves_crcs_and_pool_on_the_old_bytes(
        threads, monkeypatch):
    """Checksums are recorded, and cached copies refreshed, only after
    the batch's store write returned: when it raises, the CRC table and
    the pool still describe what the store holds.  The pool pages on
    its caller's thread, so a configured executor width (the
    ``pipelined`` leg) must leave that unchanged."""
    monkeypatch.setenv(THREADS_ENV, str(threads))
    reset_default_executors()
    wrapped = []

    def wrapper(store, role):
        wrapped.append(_FailingWritev(store))
        return wrapped[-1]

    try:
        a = DRXFile.create(None, (16, 16), (4, 4), cache_pages=2,
                           checksums=True, store_wrapper=wrapper)
        old = pattern_array((16, 16))
        a.write((0, 0), old)
        a.flush()
        crcs = dict(a.meta.chunk_crcs)
        assert a.get((0, 0)) == old[0, 0]          # chunk 0 cached, clean
        wrapped[0].armed = True
        with pytest.raises(PFSError):
            a.write((0, 0), old[:, :8] + 1000)     # 8 chunks, 4 runs
        wrapped[0].armed = False
        assert a.meta.chunk_crcs == crcs
        assert a.get((0, 0)) == old[0, 0]
        assert np.array_equal(a.read(), old)       # verifies every CRC
        a.close()
    finally:
        monkeypatch.undo()
        reset_default_executors()


class TestMisuse:
    def test_double_close_single_file(self, tmp_path):
        a = DRXSingleFile.create(tmp_path / "a", (4,), (2,))
        a.close()
        a.close()     # idempotent

    def test_read_only_single_file_never_writes(self, tmp_path):
        a = DRXSingleFile.create(tmp_path / "a", (4,), (2,))
        a.put((0,), 5.0)
        a.close()
        before = (tmp_path / "a.drx").read_bytes()
        b = DRXSingleFile.open(tmp_path / "a", mode="r")
        b.read()
        b.close()
        assert (tmp_path / "a.drx").read_bytes() == before

    def test_wrong_shape_write_rejected_before_any_io(self, tmp_path):
        a = DRXFile.create(tmp_path / "a", (4, 4), (2, 2))
        with pytest.raises(DRXError):
            a.write((2, 2), np.ones((4, 4)))   # overflows bounds
        # nothing was partially written
        assert np.all(a.read() == 0)
        a.close()

    def test_posix_store_mode_validation(self, tmp_path):
        from repro.drx.storage import PosixByteStore
        with pytest.raises(DRXFileError):
            PosixByteStore(tmp_path / "x", mode="a")
        (tmp_path / "y").write_bytes(b"abc")
        ro = PosixByteStore(tmp_path / "y", mode="r")
        with pytest.raises(DRXFileError):
            ro.write(0, b"z")
        with pytest.raises(DRXFileError):
            ro.truncate(0)
        ro.close()

    def test_posix_store_exclusive_create(self, tmp_path):
        from repro.drx.storage import PosixByteStore
        PosixByteStore(tmp_path / "x", mode="x+").close()
        with pytest.raises(DRXFileError):
            PosixByteStore(tmp_path / "x", mode="x+")


def _open_fds() -> int:
    import os
    return len(os.listdir("/proc/self/fd"))


#: a create call per container, and an option each one rejects
CONTAINERS = {
    "pair": (DRXFile.create, {"codec": "bogus"}),
    "single": (DRXSingleFile.create, {"header_reserve": 10}),
}


@pytest.mark.parametrize("container", CONTAINERS)
class TestFailedCreateLeavesNothingBehind:
    def test_bad_option_opens_no_store(self, tmp_path, container):
        create, bad = CONTAINERS[container]
        fds = _open_fds()
        with pytest.raises(DRXFileError):
            create(tmp_path / "a", (8, 8), (4, 4), **bad)
        assert list(tmp_path.iterdir()) == []
        assert _open_fds() == fds
        # the corrected call is not refused with "already exists"
        create(tmp_path / "a", (8, 8), (4, 4), overwrite=False).close()

    def test_bad_option_does_not_truncate_an_overwritten_array(
            self, tmp_path, container):
        create, bad = CONTAINERS[container]
        with create(tmp_path / "a", (4, 4), (2, 2)) as a:
            a.write((0, 0), pattern_array((4, 4)))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(DRXFileError):
            create(tmp_path / "a", (8, 8), (4, 4), overwrite=True, **bad)
        assert {p.name: p.read_bytes()
                for p in tmp_path.iterdir()} == before

    def test_failure_after_the_stores_opened_removes_them(
            self, tmp_path, container):
        create, _bad = CONTAINERS[container]
        plan = FaultPlan()
        # the first commit dies: .xmd replace / .drx header-slot write
        plan.fail("replace", times=None, error=DRXFileError)
        plan.fail("write", after=1, times=None, error=DRXFileError)
        fds = _open_fds()
        with pytest.raises(DRXFileError):
            create(tmp_path / "a", (8, 8), (4, 4),
                   store_wrapper=lambda s, role: FaultInjector(s, plan))
        assert plan.injected, "the commit was never reached"
        assert list(tmp_path.iterdir()) == []
        assert _open_fds() == fds
        create(tmp_path / "a", (8, 8), (4, 4), overwrite=False).close()


def test_failed_open_closes_the_store_it_resolved(tmp_path):
    """``DRXSingleFile.open`` validates the header *after* opening the
    file: a bad magic or an unread version must not leak the
    descriptor."""
    DRXSingleFile.create(tmp_path / "a", (4, 4), (2, 2)).close()
    p = tmp_path / "a.drx"
    raw = p.read_bytes()
    fds = _open_fds()
    for magic in (b"NOTADRX!", b"DRXSF\x01\x00\x00"):
        p.write_bytes(magic + raw[len(magic):])
        for mode in ("r", "r+"):
            with pytest.raises(DRXFormatError):
                DRXSingleFile.open(tmp_path / "a", mode=mode)
    assert _open_fds() == fds
