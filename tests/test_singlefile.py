"""Tests of the single-file DRX container (the paper's §V future work)."""

from __future__ import annotations

import os
import pathlib
import zlib

import numpy as np
import pytest

from repro.core.errors import (
    DRXError,
    DRXFileError,
    DRXFileExistsError,
    DRXFileNotFoundError,
    DRXFormatError,
)
from repro.drx import DRXFile, DRXSingleFile
from repro.drx.singlefile import (
    _HEADER_END,
    _SLOT0_OFF,
    _SLOT_SIZE,
    _unpack_slot,
    SINGLE_MAGIC,
)
from repro.workloads import pattern_array, random_growth


def committed_slot(raw: bytes) -> tuple[int, int, int, int]:
    """Decode the live (highest valid generation) header slot of a v2
    single file: ``(generation, offset, length, meta_crc)``."""
    slots = []
    for i in range(2):
        base = _SLOT0_OFF + i * _SLOT_SIZE
        s = _unpack_slot(raw[base:base + _SLOT_SIZE])
        if s is not None and s[0] > 0:
            slots.append(s)
    assert slots, "no valid header slot"
    return max(slots, key=lambda s: s[0])


class TestLifecycle:
    def test_create_open_roundtrip(self, tmp_path, rng):
        ref = rng.random((10, 12))
        with DRXSingleFile.create(tmp_path / "a", (10, 12), (3, 4)) as a:
            a.write((0, 0), ref)
        assert (tmp_path / "a.drx").exists()
        # exactly ONE file
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.drx"]
        with DRXSingleFile.open(tmp_path / "a") as b:
            assert b.shape == (10, 12)
            assert np.allclose(b.read(), ref)

    def test_magic_and_header(self, tmp_path):
        DRXSingleFile.create(tmp_path / "a", (4, 4), (2, 2)).close()
        raw = (tmp_path / "a.drx").read_bytes()
        assert raw.startswith(SINGLE_MAGIC)
        gen, off, length, crc = committed_slot(raw)
        assert gen > 0 and length > 0
        assert _HEADER_END <= off < 64 * 1024
        assert zlib.crc32(raw[off:off + length]) & 0xFFFFFFFF == crc

    def test_create_refuses_existing(self, tmp_path):
        DRXSingleFile.create(tmp_path / "a", (4,), (2,)).close()
        with pytest.raises(DRXFileExistsError):
            DRXSingleFile.create(tmp_path / "a", (4,), (2,))
        DRXSingleFile.create(tmp_path / "a", (6,), (2,),
                             overwrite=True).close()

    def test_open_missing(self, tmp_path):
        with pytest.raises(DRXFileNotFoundError):
            DRXSingleFile.open(tmp_path / "nope")

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.drx"
        p.write_bytes(b"NOTDRX" + bytes(64))
        with pytest.raises(DRXFormatError):
            DRXSingleFile.open(tmp_path / "junk")

    def test_readonly(self, tmp_path):
        DRXSingleFile.create(tmp_path / "a", (4,), (2,)).close()
        b = DRXSingleFile.open(tmp_path / "a", mode="r")
        with pytest.raises(DRXFileError):
            b.put((0,), 1.0)
        b.close()

    def test_tiny_reserve_rejected(self, tmp_path):
        with pytest.raises(DRXFileError):
            DRXSingleFile.create(tmp_path / "a", (4,), (2,),
                                 header_reserve=16)

    def test_in_memory(self):
        a = DRXSingleFile.create(None, (4, 4), (2, 2))
        a.write((0, 0), np.eye(4))
        assert np.allclose(a.read(), np.eye(4))
        a.close()

    def test_abandon_drops_unflushed_state_and_the_descriptor(
            self, tmp_path):
        committed = pattern_array((4, 4))
        a = DRXSingleFile.create(tmp_path / "a", (4, 4), (2, 2))
        a.write((0, 0), committed)
        a.flush()
        a.write((0, 0), committed + 1)      # dirty pages, never flushed
        fd = a._meta_store._fd
        a.abandon()
        a.abandon()                         # idempotent
        with pytest.raises(OSError):
            os.fstat(fd)                    # the raw .drx store is closed
        with pytest.raises(DRXError):
            a.read()
        with DRXSingleFile.open(tmp_path / "a", mode="r+") as b:
            assert np.array_equal(b.read(), committed)

    def test_commit_epoch_and_hooks_behave_as_on_a_pair(self, tmp_path):
        for cls in (DRXFile, DRXSingleFile):
            a = cls.create(tmp_path / cls.__name__, (4, 4), (2, 2))
            seen: list[int] = []
            a.register_commit_hook(seen.append)
            start = a.commit_epoch
            assert start == 1, "create commits once"
            a.write((0, 0), pattern_array((4, 4)))
            a.flush()
            a.extend(0, 2)
            a.close()
            assert seen == [start + 1, start + 2, start + 3]
            assert a.commit_epoch == start + 3


class TestGrowth:
    def test_extend_and_reopen(self, tmp_path, rng):
        ref = rng.random((6, 6))
        a = DRXSingleFile.create(tmp_path / "g", (6, 6), (2, 2))
        a.write((0, 0), ref)
        a.extend(0, 4)
        a.extend(1, 2)
        a.write((6, 0), np.ones((4, 8)))
        a.close()
        b = DRXSingleFile.open(tmp_path / "g", mode="r+")
        assert b.shape == (10, 8)
        assert np.allclose(b.read((0, 0), (6, 6)), ref)
        assert np.all(b.read((6, 0), (10, 8)) == 1)
        b.extend(0, 1)
        b.close()
        assert DRXSingleFile.open(tmp_path / "g").shape == (11, 8)

    def test_meta_relocates_when_outgrowing_reserve(self, tmp_path):
        """A tiny reserve forces the tail relocation path."""
        a = DRXSingleFile.create(tmp_path / "r", (2, 2), (1, 1),
                                 header_reserve=700)
        a.write((0, 0), pattern_array((2, 2)))
        # many interrupted extensions -> many axial records -> big meta
        for dim, by in random_growth(2, 30, seed=4, max_by=1):
            a.extend(dim, by)
        raw = (tmp_path / "r.drx").read_bytes()
        _gen, off, length, _crc = committed_slot(raw)
        assert off >= 700, "meta should have relocated to the tail"
        a.close()
        b = DRXSingleFile.open(tmp_path / "r")
        assert np.array_equal(b.read((0, 0), (2, 2)), pattern_array((2, 2)))
        assert b.meta.eci.num_records > 10
        b.close()

    def test_legacy_v1_header_is_refused_by_version(self, tmp_path):
        """A version-1 magic (single unguarded pointer) is no longer
        read: the error names the version instead of "bad magic"."""
        DRXSingleFile.create(tmp_path / "v1", (4, 4), (2, 2)).close()
        p = tmp_path / "v1.drx"
        raw = bytearray(p.read_bytes())
        raw[:len(SINGLE_MAGIC)] = b"DRXSF\x01\x00\x00"
        p.write_bytes(bytes(raw))
        for mode in ("r", "r+"):
            with pytest.raises(DRXFormatError, match="version 1"):
                DRXSingleFile.open(tmp_path / "v1", mode=mode)
        assert p.read_bytes() == bytes(raw), "a refused open writes nothing"

    def test_chunk_bytes_never_move(self, tmp_path):
        a = DRXSingleFile.create(tmp_path / "s", (4, 4), (2, 2),
                                 header_reserve=1024)
        a.write((0, 0), pattern_array((4, 4)))
        a.flush()
        before = (tmp_path / "s.drx").read_bytes()[1024:1024 + 4 * 4 * 8]
        for dim, by in random_growth(2, 6, seed=7):
            a.extend(dim, by)
            a.flush()
            now = (tmp_path / "s.drx").read_bytes()[1024:1024 + 4 * 4 * 8]
            assert now == before
        a.close()


class TestConversion:
    def test_pair_to_single_and_back(self, tmp_path, rng):
        ref = rng.random((5, 7))
        pair = DRXFile.create(tmp_path / "p", (5, 7), (2, 3))
        pair.write((0, 0), ref)
        pair.extend(1, 4)
        pair.write((0, 7), rng.random((5, 4)))
        want = pair.read()

        single = DRXSingleFile.from_pair(pair, tmp_path / "single")
        assert np.allclose(single.read(), want)
        # identical axial vectors -> identical chunk addressing
        assert single.meta.eci.to_dict() == pair.meta.eci.to_dict()
        pair.close()

        back = single.to_pair(tmp_path / "back")
        assert np.allclose(back.read(), want)
        single.close()
        back.close()
        # the two pairs' data files are byte-identical
        assert (tmp_path / "p.xta").read_bytes() == \
            (tmp_path / "back.xta").read_bytes()

    def test_single_still_extendible_after_conversion(self, tmp_path):
        pair = DRXFile.create(tmp_path / "p", (4, 4), (2, 2))
        pair.write((0, 0), pattern_array((4, 4)))
        single = DRXSingleFile.from_pair(pair, tmp_path / "s")
        pair.close()
        single.extend(0, 4)
        single.write((4, 0), np.ones((4, 4)))
        assert np.all(single.read((4, 0), (8, 4)) == 1)
        assert np.array_equal(single.read((0, 0), (4, 4)),
                              pattern_array((4, 4)))
        single.close()
