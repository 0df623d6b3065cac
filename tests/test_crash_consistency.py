"""Crash consistency: die at every named commit site, reopen, verify.

The commit protocols (temp-file + fsync + rename for ``.xmd``,
generation-stamped CRC-guarded shadow slots for the ``.drx`` header)
promise that a crash at *any* instant leaves a reopenable array in
either the old or the new committed state — never garbage.  These tests
sweep every site in :data:`repro.core.faultsites.CRASH_SITES`, simulate
dying there, abandon the handle, and reopen.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import CrashError
from repro.core.faultsites import CRASH_SITES
from repro.drx import DRXFile, DRXSingleFile, FaultPlan
from repro.pfs import ParallelFileSystem
from repro.workloads import pattern_array, random_growth

XMD_SITES = [s for s in CRASH_SITES
             if s.startswith(("xmd.", "posix."))]
SF_SITES = [s for s in CRASH_SITES if s.startswith("sf.")]
MPOOL_SITES = [s for s in CRASH_SITES if s.startswith("mpool.")]
CODEC_SITES = [s for s in CRASH_SITES if s.startswith("codec.")]


def test_site_inventory_is_partitioned():
    """Every registered site belongs to exactly one sweep below."""
    assert sorted(XMD_SITES + SF_SITES + MPOOL_SITES + CODEC_SITES) \
        == sorted(CRASH_SITES)


class TestXMDCommitCrashes:
    """The two-file (.xmd) meta-data commit."""

    @pytest.mark.parametrize("site", XMD_SITES)
    def test_crash_leaves_old_or_new_state(self, tmp_path, site):
        a = DRXFile.create(tmp_path / "a", (4, 4), (2, 2))
        a.write((0, 0), pattern_array((4, 4)))
        a.flush()                              # state A: shape (4, 4)
        with FaultPlan().crash(site):
            with pytest.raises(CrashError):
                a.extend(0, 2)                 # dies committing state B
        # the process "died": abandon the handle, reopen from disk
        with DRXFile.open(tmp_path / "a") as b:
            assert b.shape in ((4, 4), (6, 4))
            assert np.array_equal(b.read((0, 0), (4, 4)),
                                  pattern_array((4, 4)))

    @pytest.mark.parametrize("site", XMD_SITES)
    def test_no_leftover_temp_breaks_the_next_commit(self, tmp_path, site):
        """A stale ``.commit`` temp file from a crash must not poison
        the next successful commit."""
        a = DRXFile.create(tmp_path / "a", (4, 4), (2, 2))
        a.write((0, 0), pattern_array((4, 4)))
        with FaultPlan().crash(site):
            with pytest.raises(CrashError):
                a.flush()
        with DRXFile.open(tmp_path / "a", mode="r+") as b:
            b.extend(0, 2)                     # full commit cycle
        assert DRXFile.open(tmp_path / "a").shape == (6, 4)


class TestSingleFileHeaderCrashes:
    """The shadow-slot header commit of the ``.drx`` container."""

    @pytest.mark.parametrize("site", SF_SITES)
    def test_crash_leaves_old_or_new_generation(self, tmp_path, site):
        a = DRXSingleFile.create(tmp_path / "s", (4, 4), (2, 2))
        a.write((0, 0), pattern_array((4, 4)))
        a.flush()                              # generation N commits A
        with FaultPlan().crash(site):
            with pytest.raises(CrashError):
                a.extend(0, 2)                 # dies committing gen N+1
        with DRXSingleFile.open(tmp_path / "s") as b:
            assert b.shape in ((4, 4), (6, 4))
            assert np.array_equal(b.read((0, 0), (4, 4)),
                                  pattern_array((4, 4)))

    @pytest.mark.parametrize("site", SF_SITES)
    def test_crash_with_tail_resident_meta(self, tmp_path, site):
        """Same sweep with the meta blob relocated to the file tail (a
        tiny reserve), where extensions must pre-relocate the committed
        copy before chunk payloads can overwrite it."""
        a = DRXSingleFile.create(tmp_path / "t", (2, 2), (1, 1),
                                 header_reserve=200)
        a.write((0, 0), pattern_array((2, 2)))
        for dim, by in random_growth(2, 10, seed=3, max_by=1):
            a.extend(dim, by)                  # meta now far beyond 200b
        a.flush()
        shape_a = a.shape
        with FaultPlan().crash(site):
            with pytest.raises(CrashError):
                a.extend(0, 1)
        with DRXSingleFile.open(tmp_path / "t") as b:
            grown = list(shape_a)
            grown[0] += 1
            assert b.shape in (shape_a, tuple(grown))
            assert np.array_equal(b.read((0, 0), (2, 2)),
                                  pattern_array((2, 2)))

    def test_repeated_crashes_then_recovery(self, tmp_path):
        """Crash every commit three times in a row; the array survives
        each one, and a clean commit still works afterwards."""
        a = DRXSingleFile.create(tmp_path / "r", (4, 4), (2, 2))
        a.write((0, 0), pattern_array((4, 4)))
        a.flush()
        for attempt in range(3):
            with FaultPlan().crash("sf.header.before_slot"):
                with pytest.raises(CrashError):
                    a.flush()
            with DRXSingleFile.open(tmp_path / "r") as b:
                assert np.array_equal(b.read((0, 0), (4, 4)),
                                      pattern_array((4, 4)))
        a.flush()                              # clean commit heals all
        with DRXSingleFile.open(tmp_path / "r") as b:
            assert np.array_equal(b.read((0, 0), (4, 4)),
                                  pattern_array((4, 4)))


class TestMpoolFlushCrashes:
    @pytest.mark.parametrize("site", MPOOL_SITES)
    def test_crash_mid_flush_keeps_array_valid(self, tmp_path, site):
        before = pattern_array((4, 4))
        after = before + 1
        a = DRXFile.create(tmp_path / "m", (4, 4), (2, 2))
        a.write((0, 0), before)
        a.flush()                              # state A on disk
        a.write((0, 0), after)                 # dirty pages: state B
        with FaultPlan().crash(site):
            with pytest.raises(CrashError):
                a.flush()
        with DRXFile.open(tmp_path / "m") as b:
            got = b.read()
            assert np.array_equal(got, before) or np.array_equal(got, after)


class TestPFSBackedCrashes:
    """The same commit-protocol sweep over PFS-backed containers.

    A DRX file whose byte stores live on the simulated parallel file
    system passes through the identical ``xmd.commit.*`` and
    ``mpool.flush.*`` sites (the ``posix.replace.*`` sites belong to the
    real-file store and never fire here), and must give the same
    old-or-new guarantee — with and without replication.
    """

    PFS_SITES = ["xmd.commit.begin", "xmd.commit.end",
                 "mpool.flush.begin", "mpool.flush.after_writeback"]

    def test_pfs_sites_are_registered(self):
        assert set(self.PFS_SITES) <= set(CRASH_SITES)

    @pytest.mark.parametrize("replication", [1, 2])
    @pytest.mark.parametrize("site", PFS_SITES)
    def test_crash_mid_flush_keeps_array_valid(self, site, replication):
        """A flush with dirty pages passes through all four sites:
        the mpool write-back pair, then the meta-data commit pair."""
        before = pattern_array((4, 4))
        after = before + 1
        fs = ParallelFileSystem(nservers=3, stripe_size=512,
                                replication=replication)
        a = DRXFile.create_pfs(fs, "m", (4, 4), (2, 2))
        a.write((0, 0), before)
        a.flush()                              # state A on the PFS
        a.write((0, 0), after)                 # dirty pages: state B
        with FaultPlan().crash(site):
            with pytest.raises(CrashError):
                a.flush()
        # the process "died": abandon the handle, reopen from PFS bytes
        with DRXFile.open_pfs(fs, "m") as b:
            got = b.read()
            assert np.array_equal(got, before) or np.array_equal(got, after)

    @pytest.mark.parametrize("site", ["xmd.commit.begin", "xmd.commit.end"])
    def test_crash_during_extend_leaves_old_or_new_shape(self, site):
        fs = ParallelFileSystem(nservers=3, stripe_size=512,
                                replication=2)
        a = DRXFile.create_pfs(fs, "a", (4, 4), (2, 2))
        a.write((0, 0), pattern_array((4, 4)))
        a.flush()                              # state A: shape (4, 4)
        with FaultPlan().crash(site):
            with pytest.raises(CrashError):
                a.extend(0, 2)                 # dies committing state B
        with DRXFile.open_pfs(fs, "a") as b:
            assert b.shape in ((4, 4), (6, 4))
            assert np.array_equal(b.read((0, 0), (4, 4)),
                                  pattern_array((4, 4)))

    @pytest.mark.parametrize("site", PFS_SITES)
    def test_crash_then_server_loss_still_recovers(self, site):
        """Crash mid-commit, then lose a server: with replication 2 the
        surviving replicas must still present a valid old-or-new array."""
        before = pattern_array((4, 4))
        after = before + 1
        fs = ParallelFileSystem(nservers=3, stripe_size=512,
                                replication=2)
        a = DRXFile.create_pfs(fs, "a", (4, 4), (2, 2))
        a.write((0, 0), before)
        a.flush()
        a.write((0, 0), after)
        with FaultPlan().crash(site):
            with pytest.raises(CrashError):
                a.flush()
        fs.kill_server(0)
        with DRXFile.open_pfs(fs, "a") as b:
            got = b.read()
            assert np.array_equal(got, before) or np.array_equal(got, after)


class TestCompressedCommitCrashes:
    """The allocation-table commit of compressed (``codec="zlib"``)
    arrays.

    Compressed payloads land *before* the slot table commits; the
    table's copy-on-write discipline promises that a crash at any site —
    including the new ``codec.slots.written`` — reopens the previous
    committed table with every one of its payloads intact.  The sweeps
    overwrite committed chunks (exercising COW extents, not just
    appends) and verify the reopened content is bit-identically old or
    new.
    """

    SWEEP = sorted(set(CODEC_SITES + XMD_SITES + MPOOL_SITES))

    @pytest.mark.parametrize("site", SWEEP)
    def test_crash_mid_overwrite_leaves_old_or_new(self, tmp_path, site):
        before = pattern_array((6, 6))
        after = before * 3 + 1
        a = DRXFile.create(tmp_path / "c", (6, 6), (2, 2),
                           codec="zlib", checksums=True)
        a.write((0, 0), before)
        a.flush()                              # state A committed
        a.write((0, 0), after)                 # COW rewrites every chunk
        with FaultPlan().crash(site):
            with pytest.raises(CrashError):
                a.flush()
        with DRXFile.open(tmp_path / "c") as b:
            got = b.read()
            assert np.array_equal(got, before) or np.array_equal(got, after)
            assert not b.scrub().corrupt       # CRCs match the table

    @pytest.mark.parametrize("site", sorted(set(CODEC_SITES + XMD_SITES)))
    def test_crash_mid_extend_leaves_old_or_new_shape(self, tmp_path, site):
        a = DRXFile.create(tmp_path / "e", (4, 4), (2, 2), codec="zlib")
        a.write((0, 0), pattern_array((4, 4)))
        a.flush()
        with FaultPlan().crash(site):
            with pytest.raises(CrashError):
                a.extend(0, 2)
        with DRXFile.open(tmp_path / "e") as b:
            assert b.shape in ((4, 4), (6, 4))
            assert np.array_equal(b.read((0, 0), (4, 4)),
                                  pattern_array((4, 4)))

    SF_SWEEP = sorted(set(CODEC_SITES + SF_SITES + MPOOL_SITES))

    @pytest.mark.parametrize("site", SF_SWEEP)
    def test_single_file_compressed_crashes(self, tmp_path, site):
        """Single-file container with a tiny reserve: the meta blob is
        tail-resident inside the chunk region, fenced off through the
        slot table's reserved span."""
        before = pattern_array((4, 4))
        after = before + 7
        a = DRXSingleFile.create(tmp_path / "s", (4, 4), (1, 1),
                                 header_reserve=200, codec="zlib",
                                 checksums=True)
        a.write((0, 0), before)
        for dim, by in random_growth(2, 6, seed=5, max_by=1):
            a.extend(dim, by)                  # meta far beyond 200b
        a.flush()
        shape_a = a.shape
        a.write((0, 0), after)
        with FaultPlan().crash(site):
            with pytest.raises(CrashError):
                a.flush()
        with DRXSingleFile.open(tmp_path / "s") as b:
            assert b.shape == shape_a
            got = b.read((0, 0), (4, 4))
            assert np.array_equal(got, before) or np.array_equal(got, after)
            assert not b.scrub().corrupt

    def test_repeated_crashes_recycle_no_committed_extent(self, tmp_path):
        """Crashing the same commit repeatedly must not leak or reuse
        quarantined extents: each retry re-quarantines, and the final
        clean commit converges."""
        a = DRXFile.create(tmp_path / "r", (4, 4), (2, 2), codec="zlib")
        base = pattern_array((4, 4))
        a.write((0, 0), base)
        a.flush()
        for attempt in range(3):
            a.write((0, 0), base + attempt + 1)
            with FaultPlan().crash("codec.slots.written"):
                with pytest.raises(CrashError):
                    a.flush()
            with DRXFile.open(tmp_path / "r") as b:
                assert np.array_equal(b.read(), base)
        a.flush()                              # clean commit lands B
        with DRXFile.open(tmp_path / "r") as b:
            assert np.array_equal(b.read(), base + 3)


class TestSiteCoverage:
    def test_every_site_fires_in_a_normal_lifecycle(self, tmp_path):
        """The inventory in CRASH_SITES is live: a plain create/write/
        extend/close cycle of both containers visits every named site
        (so a sweep over CRASH_SITES is a sweep over reality)."""
        plan = FaultPlan()                     # no rules: observe only
        with plan:
            with DRXFile.create(tmp_path / "a", (4, 4), (2, 2)) as a:
                a.write((0, 0), pattern_array((4, 4)))
                a.extend(0, 2)
            with DRXSingleFile.create(tmp_path / "s", (4, 4), (2, 2)) as s:
                s.write((0, 0), pattern_array((4, 4)))
                s.extend(0, 2)
            with DRXFile.create(tmp_path / "z", (4, 4), (2, 2),
                                codec="zlib") as z:
                z.write((0, 0), pattern_array((4, 4)))
        missed = set(CRASH_SITES) - set(plan.hits)
        assert not missed, f"crash sites never visited: {sorted(missed)}"
