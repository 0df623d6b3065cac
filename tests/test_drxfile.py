"""Unit tests for the serial DRX array file."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import (
    DRXClosedError,
    DRXFileError,
    DRXFileExistsError,
    DRXFileNotFoundError,
    DRXIndexError,
)
from repro.drx import DRXFile
from repro.workloads import (
    boundary_slabs,
    chunk_boxes,
    pattern_array,
    random_boxes,
)


@pytest.fixture
def arr(tmp_path):
    a = DRXFile.create(tmp_path / "a", bounds=(10, 12), chunk_shape=(3, 4))
    yield a
    a.close()


class TestLifecycle:
    def test_create_open_close(self, tmp_path):
        p = tmp_path / "x"
        a = DRXFile.create(p, (4, 4), (2, 2))
        a.put((1, 1), 3.5)
        a.close()
        assert (tmp_path / "x.xmd").exists()
        assert (tmp_path / "x.xta").exists()
        b = DRXFile.open(p)
        assert b.get((1, 1)) == 3.5
        b.close()

    def test_create_refuses_existing(self, tmp_path):
        DRXFile.create(tmp_path / "x", (4,), (2,)).close()
        with pytest.raises(DRXFileExistsError):
            DRXFile.create(tmp_path / "x", (4,), (2,))
        # but overwrite works
        DRXFile.create(tmp_path / "x", (6,), (2,), overwrite=True).close()
        b = DRXFile.open(tmp_path / "x")
        assert b.shape == (6,)
        b.close()

    def test_open_missing(self, tmp_path):
        with pytest.raises(DRXFileNotFoundError):
            DRXFile.open(tmp_path / "nope")

    def test_open_bad_mode(self, tmp_path):
        DRXFile.create(tmp_path / "x", (4,), (2,)).close()
        with pytest.raises(DRXFileError):
            DRXFile.open(tmp_path / "x", mode="w")

    def test_read_only_enforced(self, tmp_path):
        DRXFile.create(tmp_path / "x", (4,), (2,)).close()
        b = DRXFile.open(tmp_path / "x", mode="r")
        with pytest.raises(DRXFileError):
            b.put((0,), 1.0)
        with pytest.raises(DRXFileError):
            b.extend(0, 1)
        b.close()

    def test_closed_handle_rejected(self, tmp_path):
        a = DRXFile.create(tmp_path / "x", (4,), (2,))
        a.close()
        with pytest.raises(DRXClosedError):
            a.get((0,))
        a.close()   # idempotent

    def test_context_manager(self, tmp_path):
        with DRXFile.create(tmp_path / "x", (4,), (2,)) as a:
            a.put((0,), 1.0)
        assert DRXFile.open(tmp_path / "x").get((0,)) == 1.0

    def test_in_memory_array(self):
        a = DRXFile.create(None, (4, 4), (2, 2))
        a.write((0, 0), np.eye(4))
        assert np.allclose(a.read(), np.eye(4))
        a.close()

    def test_dtypes(self, tmp_path):
        for name, val in [("int", 7), ("double", 2.5), ("complex", 1 + 2j)]:
            a = DRXFile.create(tmp_path / name, (4,), (2,), dtype=name)
            a.put((2,), val)
            a.close()
            b = DRXFile.open(tmp_path / name)
            assert b.get((2,)) == val
            b.close()


class TestElementAccess:
    def test_get_put(self, arr):
        arr.put((9, 11), 42.0)
        assert arr.get((9, 11)) == 42.0
        assert arr.get((0, 0)) == 0.0

    def test_bounds_checks(self, arr):
        with pytest.raises(DRXIndexError):
            arr.get((10, 0))
        with pytest.raises(DRXIndexError):
            arr.put((0, 12), 1.0)
        with pytest.raises(DRXIndexError):
            arr.get((0,))

    def test_non_integer_corners_and_indices(self, arr):
        """Corners and indices go through ``operator.index`` once at the
        API boundary: a float, even an integral one, is refused with
        ``DRXIndexError`` (not a NumPy ``TypeError``/``IndexError``, and
        not truncated), and NumPy integers pass."""
        ref = pattern_array((10, 12))
        arr.write((0, 0), ref)
        # an integral float must not borrow the cached plan of its int twin
        arr.read((1, 0), (10, 10))
        bad = [
            lambda: arr.read((1.5, 0), (10, 10)),
            lambda: arr.read((1.0, 0), (10, 10)),
            lambda: arr.read((0, 0), (10.0, 10)),
            lambda: arr.write((0.5, 0), np.ones((2, 2))),
            lambda: arr.get((1.0, 2)),
            lambda: arr.put((1.0, 2), 3.0),
            lambda: arr.get(("1", 2)),
            lambda: arr.read_slab((1.5, 0), (1, 1), (2, 2)),
            lambda: arr.read_slab((1, 0), (1, 1), (2.0, 2)),
            lambda: arr.write_slab((0, 0.5), (2, 2), np.ones((2, 2))),
            # values of another rank than the corner: not NumPy's
            # broadcast ValueError either
            lambda: arr.write((0, 0), np.ones((2, 2, 2))),
        ]
        for call in bad:
            with pytest.raises(DRXIndexError):
                call()
        assert np.array_equal(arr.read(), ref)       # nothing was written
        i, j = np.int64(2), np.int32(3)
        assert arr.get((i, j)) == ref[2, 3]
        assert np.array_equal(arr.read((i, j), (i + 3, j + 4)),
                              ref[2:5, 3:7])
        assert np.array_equal(arr.read_slab((i, 0), (2, j), (3, 4)),
                              ref[2:8:2, 0:12:3])


class TestSubArrays:
    def test_roundtrip(self, arr, rng):
        ref = rng.random((10, 12))
        arr.write((0, 0), ref)
        assert np.allclose(arr.read(), ref)
        assert np.allclose(arr.read((2, 3), (7, 11)), ref[2:7, 3:11])

    def test_write_partial_box(self, arr, rng):
        block = rng.random((4, 5))
        arr.write((3, 2), block)
        got = arr.read()
        assert np.allclose(got[3:7, 2:7], block)
        got[3:7, 2:7] = 0
        assert np.all(got == 0)

    def test_fortran_order_read(self, arr, rng):
        ref = rng.random((10, 12))
        arr.write((0, 0), ref)
        f = arr.read(order="F")
        assert f.flags["F_CONTIGUOUS"]
        assert np.allclose(f, ref)

    def test_bad_order(self, arr):
        with pytest.raises(DRXIndexError):
            arr.read(order="Z")

    def test_boundary_slabs(self, arr):
        ref = pattern_array((10, 12))
        arr.write((0, 0), ref)
        for lo, hi in boundary_slabs((10, 12), thickness=2):
            got = arr.read(lo, hi)
            want = ref[tuple(slice(l, h) for l, h in zip(lo, hi))]
            assert np.array_equal(got, want), (lo, hi)

    def test_random_boxes(self, arr, rng):
        ref = pattern_array((10, 12))
        arr.write((0, 0), ref)
        for lo, hi in random_boxes((10, 12), 25, seed=3):
            got = arr.read(lo, hi)
            want = ref[tuple(slice(l, h) for l, h in zip(lo, hi))]
            assert np.array_equal(got, want), (lo, hi)

    def test_3d(self, tmp_path, rng):
        with DRXFile.create(tmp_path / "t", (5, 6, 7), (2, 3, 2)) as a:
            ref = rng.random((5, 6, 7))
            a.write((0, 0, 0), ref)
            assert np.allclose(a.read((1, 2, 3), (4, 5, 6)),
                               ref[1:4, 2:5, 3:6])


class TestExtend:
    def test_extend_preserves_data(self, tmp_path, rng):
        ref = rng.random((10, 12))
        with DRXFile.create(tmp_path / "e", (10, 12), (3, 4)) as a:
            a.write((0, 0), ref)
            a.extend(0, 5)
            a.extend(1, 9)
            a.extend(0, 2)
            assert a.shape == (17, 21)
            assert np.allclose(a.read((0, 0), (10, 12)), ref)
            assert np.all(a.read((10, 0), (17, 21)) == 0)

    def test_extend_within_partial_chunk(self, tmp_path):
        with DRXFile.create(tmp_path / "e", (10, 10), (3, 3)) as a:
            n = a.num_chunks
            a.extend(0, 2)   # 10 -> 12 = 4 chunks exactly: no new chunks
            assert a.num_chunks == n
            a.extend(0, 1)   # 12 -> 13: spills into a 5th chunk row
            assert a.num_chunks > n

    def test_write_into_extension(self, tmp_path, rng):
        with DRXFile.create(tmp_path / "e", (4, 4), (2, 2)) as a:
            base = rng.random((4, 4))
            a.write((0, 0), base)
            a.extend(1, 4)
            ext = rng.random((4, 4))
            a.write((0, 4), ext)
            assert np.allclose(a.read((0, 0), (4, 4)), base)
            assert np.allclose(a.read((0, 4), (4, 8)), ext)

    def test_persistence_after_extend(self, tmp_path, rng):
        ref = rng.random((4, 4))
        a = DRXFile.create(tmp_path / "p", (4, 4), (2, 2))
        a.write((0, 0), ref)
        a.extend(0, 4)
        a.write((4, 0), ref)
        a.close()
        b = DRXFile.open(tmp_path / "p")
        assert b.shape == (8, 4)
        assert np.allclose(b.read((0, 0), (4, 4)), ref)
        assert np.allclose(b.read((4, 0), (8, 4)), ref)
        b.close()

    def test_many_random_extends_keep_content(self, tmp_path, rng):
        """Stress: interleave growth and writes, verify no element moves."""
        a = DRXFile.create(tmp_path / "s", (3, 3), (2, 2))
        shadow = np.zeros((3, 3))
        for step in range(12):
            dim = int(rng.integers(0, 2))
            by = int(rng.integers(1, 4))
            a.extend(dim, by)
            grown = np.zeros(a.shape)
            grown[:shadow.shape[0], :shadow.shape[1]] = shadow
            shadow = grown
            # write a random box
            lo = tuple(int(rng.integers(0, s)) for s in a.shape)
            hi = tuple(int(rng.integers(l + 1, s + 1))
                       for l, s in zip(lo, a.shape))
            block = rng.random(tuple(h - l for l, h in zip(lo, hi)))
            a.write(lo, block)
            shadow[tuple(slice(l, h) for l, h in zip(lo, hi))] = block
            assert np.allclose(a.read(), shadow), step
        a.close()

    @pytest.mark.parametrize("codec", ["none", "zlib"])
    def test_unwritten_cells_read_zero_across_extends(self, tmp_path,
                                                      codec):
        """There is no fill value: ``create`` takes none, and every
        never-written cell reads 0, in the created region and in every
        segment an extend adds, on plain and compressed arrays."""
        from repro.pfs import ParallelFileSystem

        with pytest.raises(TypeError):
            DRXFile.create(None, (8, 8), (4, 4), fill=7.0)
        with pytest.raises(TypeError):
            DRXFile.create_pfs(ParallelFileSystem(nservers=2), "f",
                               (8, 8), (4, 4), fill=7.0)
        with DRXFile.create(tmp_path / "z", (8, 8), (4, 4),
                            codec=codec) as a:
            assert np.all(a.read() == 0)
            a.write((2, 2), np.ones((3, 3)))
            a.extend(0, 4)
            a.extend(1, 6)
            a.extend(0, 3)
            want = np.zeros((15, 14))
            want[2:5, 2:5] = 1
            assert np.array_equal(a.read(), want)
            assert a.get((10, 0)) == 0 and a.get((0, 12)) == 0


class TestCache:
    def test_cache_counts(self, tmp_path):
        a = DRXFile.create(tmp_path / "c", (8, 8), (2, 2), cache_pages=4)
        a.write((0, 0), np.ones((8, 8)))
        before = a.cache_stats.hits
        a.read((0, 0), (2, 2))
        a.read((0, 0), (2, 2))
        assert a.cache_stats.hits > before
        a.close()

    def test_tiny_cache_still_correct(self, tmp_path, rng):
        ref = rng.random((8, 8))
        a = DRXFile.create(tmp_path / "c", (8, 8), (2, 2), cache_pages=1)
        a.write((0, 0), ref)
        assert np.allclose(a.read(), ref)
        # requests larger than the pool stream through vectored I/O
        # instead of churning the single-page cache
        assert a._data.stats.readv_calls > 0
        a.close()
        b = DRXFile.open(tmp_path / "c", cache_pages=1)
        assert np.allclose(b.read(), ref)
        b.close()

    def test_tiny_cache_per_chunk_path(self, tmp_path, rng):
        # one request per chunk: every chunk round-trips through the
        # one-page pool, so the cache churns on each of them
        ref = rng.random((8, 8))
        a = DRXFile.create(tmp_path / "c", (8, 8), (2, 2), cache_pages=1)
        got = np.empty_like(ref)
        for (r0, c0), (r1, c1) in chunk_boxes((0, 0), a.shape,
                                              a.chunk_shape):
            a.write((r0, c0), ref[r0:r1, c0:c1])
        for (r0, c0), (r1, c1) in chunk_boxes((0, 0), a.shape,
                                              a.chunk_shape):
            got[r0:r1, c0:c1] = a.read((r0, c0), (r1, c1))
        assert np.allclose(got, ref)
        assert a.cache_stats.evictions > 0
        # nothing streamed: every chunk of every request went through
        # the pool (16 writes, 16 reads)
        assert a.cache_stats.accesses == 32
        a.close()
