"""Unit tests for derived datatypes: construction, extents, pack/unpack."""

from __future__ import annotations

import numpy as np
import pytest

from repro import mpi
from repro.core.errors import MPIDatatypeError
from repro.mpi.datatypes import Datatype, from_numpy_dtype


class TestBasics:
    def test_named_types(self):
        assert mpi.BYTE.size == 1
        assert mpi.INT.size == 4
        assert mpi.INT64.size == 8
        assert mpi.DOUBLE.size == 8
        assert mpi.COMPLEX.size == 16
        assert mpi.DOUBLE.is_contiguous

    def test_from_numpy(self):
        assert from_numpy_dtype(np.float64) is mpi.DOUBLE
        assert from_numpy_dtype(np.int64) is mpi.INT64
        with pytest.raises(MPIDatatypeError):
            from_numpy_dtype(np.float16)

    def test_commit_required(self):
        t = mpi.DOUBLE.Create_contiguous(3)
        with pytest.raises(MPIDatatypeError):
            t.pack(np.zeros(3))
        t.Commit()
        t.pack(np.zeros(3))

    def test_free(self):
        t = mpi.DOUBLE.Create_contiguous(3).Commit()
        t.Free()
        with pytest.raises(MPIDatatypeError):
            t.pack(np.zeros(3))
        with pytest.raises(MPIDatatypeError):
            t.Create_contiguous(2)

    def test_get_size_extent(self):
        t = mpi.DOUBLE.Create_vector(3, 2, 5).Commit()
        assert t.Get_size() == 3 * 2 * 8
        lb, extent = t.Get_extent()
        assert lb == 0
        assert extent == ((3 - 1) * 5 + 2) * 8   # MPI vector extent


class TestConstructors:
    def test_contiguous_coalesces(self):
        t = mpi.DOUBLE.Create_contiguous(10)
        assert t.num_runs == 1
        assert t.size == 80 and t.extent == 80
        assert t.is_contiguous

    def test_contiguous_zero(self):
        t = mpi.DOUBLE.Create_contiguous(0)
        assert t.size == 0

    def test_vector_runs(self):
        t = mpi.INT.Create_vector(3, 1, 4)
        assert [tuple(r) for r in zip(t.offsets, t.lengths)] == \
            [(0, 4), (16, 4), (32, 4)]

    def test_vector_blocklength_merges(self):
        t = mpi.INT.Create_vector(2, 4, 4)   # stride == blocklength
        assert t.num_runs == 1 and t.size == 32

    def test_hvector(self):
        t = mpi.INT.Create_hvector(2, 1, 100)
        assert [int(o) for o in t.offsets] == [0, 100]

    def test_indexed(self):
        t = mpi.DOUBLE.Create_indexed([2, 1], [0, 5])
        assert t.size == 24
        assert [tuple(r) for r in zip(t.offsets, t.lengths)] == \
            [(0, 16), (40, 8)]

    def test_indexed_block(self):
        t = mpi.DOUBLE.Create_indexed_block(2, [0, 4, 8])
        assert t.size == 6 * 8
        assert t.num_runs == 3

    def test_indexed_length_mismatch(self):
        with pytest.raises(MPIDatatypeError):
            mpi.DOUBLE.Create_indexed([1, 2], [0])

    def test_indexed_preserves_data_order(self):
        """Non-monotonic displacements keep their argument order —
        required by the listing's inMemoryMap {0,2,4,1,3,5}."""
        chunk = mpi.DOUBLE.Create_contiguous(6).Commit()
        mt = chunk.Create_indexed([1] * 6, [0, 2, 4, 1, 3, 5]).Commit()
        buf = np.zeros(36)
        mt.unpack(buf, np.arange(36, dtype=np.float64).tobytes())
        order = [0, 2, 4, 1, 3, 5]
        expect = np.zeros(36)
        for datapos, slot in enumerate(order):
            expect[slot * 6:(slot + 1) * 6] = np.arange(6) + datapos * 6
        assert np.array_equal(buf, expect)
        # pack is the inverse
        assert mt.pack(buf) == np.arange(36, dtype=np.float64).tobytes()

    def test_overlapping_runs_rejected(self):
        with pytest.raises(MPIDatatypeError):
            mpi.DOUBLE.Create_indexed([2, 2], [0, 1])

    def test_struct(self):
        t = Datatype.Create_struct([1, 2], [0, 16], [mpi.INT, mpi.DOUBLE])
        assert t.size == 4 + 16
        assert t.extent == 32

    def test_resized(self):
        t = mpi.DOUBLE.Create_resized(0, 24)
        tiled = t.Create_contiguous(2)
        assert [int(o) for o in tiled.offsets] == [0, 24]

    @pytest.mark.parametrize("base", [
        mpi.BYTE,
        mpi.DOUBLE.Create_vector(3, 2, 5),
        mpi.INT.Create_resized(-4, 16),
        mpi.BYTE.Create_indexed([2, 0, 3], [0, 4, 9]),
    ], ids=["byte", "vector", "resized", "holey"])
    def test_hindexed_matches_block_by_block(self, base):
        """The vectorized typemap equals the struct of per-block types,
        the block-by-block construction."""
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(0, 6))
            bl = rng.integers(0, 4, n).tolist()
            disp = (np.arange(n) * (4 * base.extent + 64)
                    + rng.integers(0, 3, n)).tolist()
            if rng.random() < 0.3:
                disp = disp[::-1]
            got = base.Create_hindexed(bl, disp)
            ref = Datatype.Create_struct(bl, disp, [base] * n)
            assert got.offsets.tolist() == ref.offsets.tolist()
            assert got.lengths.tolist() == ref.lengths.tolist()
            assert (got.lb, got.extent) == (ref.lb, ref.extent)


class TestSubarray:
    def test_2d_c_order(self):
        t = mpi.DOUBLE.Create_subarray([4, 6], [2, 3], [1, 2]).Commit()
        buf = np.arange(24, dtype=np.float64).reshape(4, 6)
        got = np.frombuffer(t.pack(buf), dtype=np.float64)
        assert np.array_equal(got, buf[1:3, 2:5].ravel())
        assert t.extent == 24 * 8     # full array extent

    def test_2d_f_order(self):
        t = mpi.DOUBLE.Create_subarray([4, 6], [2, 3], [1, 2],
                                       order="F").Commit()
        buf = np.asfortranarray(
            np.arange(24, dtype=np.float64).reshape(4, 6, order="F"))
        got = np.frombuffer(t.pack(buf), dtype=np.float64)
        # F-order pack enumerates the sub-block in column-major order
        assert np.array_equal(got, buf[1:3, 2:5].ravel(order="F"))

    def test_3d_roundtrip(self):
        t = mpi.INT64.Create_subarray([3, 4, 5], [2, 2, 2],
                                      [1, 1, 1]).Commit()
        src = np.arange(60, dtype=np.int64).reshape(3, 4, 5)
        dst = np.zeros_like(src)
        t.unpack(dst, t.pack(src))
        assert np.array_equal(dst[1:3, 1:3, 1:3], src[1:3, 1:3, 1:3])
        assert np.all(dst[0] == 0)

    def test_invalid_subarray(self):
        with pytest.raises(MPIDatatypeError):
            mpi.DOUBLE.Create_subarray([4], [5], [0])
        with pytest.raises(MPIDatatypeError):
            mpi.DOUBLE.Create_subarray([4], [2], [3])
        with pytest.raises(MPIDatatypeError):
            mpi.DOUBLE.Create_subarray([4, 4], [2], [0])
        with pytest.raises(MPIDatatypeError):
            mpi.DOUBLE.Create_subarray([4], [2], [0], order="X")

    def test_tiling_contiguous_count(self):
        """Subarray extent = whole array, so count=2 covers two arrays."""
        t = mpi.DOUBLE.Create_subarray([2, 2], [1, 2], [0, 0]).Commit()
        buf = np.arange(8, dtype=np.float64).reshape(4, 2)  # two 2x2 arrays
        got = np.frombuffer(t.pack(buf, count=2), dtype=np.float64)
        assert np.array_equal(got, [0, 1, 4, 5])


class TestPackUnpack:
    def test_pack_beyond_buffer(self):
        t = mpi.DOUBLE.Create_contiguous(4).Commit()
        with pytest.raises(MPIDatatypeError):
            t.pack(np.zeros(2))

    def test_unpack_short_data_is_partial(self):
        t = mpi.DOUBLE.Create_contiguous(4).Commit()
        buf = np.full(4, -1.0)
        consumed = t.unpack(buf, np.array([7.0]).tobytes())
        assert consumed == 8
        assert buf.tolist() == [7.0, -1.0, -1.0, -1.0]

    def test_unpack_readonly_rejected(self):
        t = mpi.DOUBLE.Create_contiguous(1).Commit()
        arr = np.zeros(1)
        arr.flags.writeable = False
        with pytest.raises(MPIDatatypeError):
            t.unpack(arr, b"\x00" * 8)

    def test_noncontiguous_buffer_rejected(self):
        t = mpi.DOUBLE.Create_contiguous(2).Commit()
        arr = np.zeros((4, 4))[:, 0]
        with pytest.raises(MPIDatatypeError):
            t.pack(arr)

    def test_pack_count_tiles_extent(self):
        t = mpi.INT.Create_vector(2, 1, 2).Commit()   # ints 0 and 2
        buf = np.arange(8, dtype=np.int32)
        got = np.frombuffer(t.pack(buf, count=2), dtype=np.int32)
        # tile 0 picks 0, 2; tile 1 starts at extent 3 ints: picks 3, 5
        assert got.tolist() == [0, 2, 3, 5]
