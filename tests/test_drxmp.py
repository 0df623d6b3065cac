"""Integration tests of the DRX-MP parallel library.

Covers the DRXMPFile object API, the paper-style DRXMP_* functions,
zone-collective and independent I/O, collective extension, and failure
modes.  Every test runs a real SPMD job through ``mpiexec``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import mpi
from repro.core.errors import (
    DRXExtendError,
    DRXFileError,
    DRXFileExistsError,
    DRXFileNotFoundError,
)
from repro.drxmp import (
    DRXMP_Close,
    DRXMP_Extend,
    DRXMP_Init,
    DRXMP_Open,
    DRXMP_Read_all,
    DRXMP_Terminate,
    DRXMP_Write_all,
    DRXMPFile,
)
from repro.mpi.runner import SPMDFailure
from repro.pfs import ParallelFileSystem
from repro.workloads import pattern_array


def run(n, fn, *args, **kw):
    return mpi.mpiexec(n, fn, *args, timeout=kw.pop("timeout", 60), **kw)


class TestLifecycle:
    def test_create_then_open(self, pfs):
        def creator(comm):
            a = DRXMPFile.create(comm, pfs, "A", (8, 8), (2, 2))
            a.close()
            return True
        assert all(run(2, creator))
        assert pfs.exists("A.xmd") and pfs.exists("A.xta")

        def opener(comm):
            a = DRXMPFile.open(comm, pfs, "A")
            shape = a.shape
            a.close()
            return shape
        assert run(3, opener) == [(8, 8)] * 3

    def test_create_existing_fails_on_all_ranks(self, pfs):
        run(2, lambda c: DRXMPFile.create(c, pfs, "B", (4,), (2,)).close())
        def body(comm):
            DRXMPFile.create(comm, pfs, "B", (4,), (2,))
        with pytest.raises(SPMDFailure) as ei:
            run(2, body)
        assert all(isinstance(e, DRXFileExistsError)
                   for e in ei.value.failures.values())

    def test_open_missing(self, pfs):
        def body(comm):
            DRXMPFile.open(comm, pfs, "missing")
        with pytest.raises(SPMDFailure) as ei:
            run(2, body)
        assert all(isinstance(e, DRXFileNotFoundError)
                   for e in ei.value.failures.values())

    def test_mismatched_create_args(self, pfs):
        def body(comm):
            DRXMPFile.create(comm, pfs, "C",
                             (4, 4) if comm.rank == 0 else (8, 8), (2, 2))
        with pytest.raises(SPMDFailure):
            run(2, body)

    def test_readonly_mode(self, pfs):
        run(1, lambda c: DRXMPFile.create(c, pfs, "RO", (4,), (2,)).close())
        def body(comm):
            a = DRXMPFile.open(comm, pfs, "RO", mode="r")
            with pytest.raises(DRXFileError):
                a.write((0,), np.ones(2))
            with pytest.raises(DRXFileError):
                a.extend(0, 2)
            a.close()
            return True
        assert all(run(2, body))

    def test_meta_replicated_identically(self, pfs):
        def body(comm):
            a = DRXMPFile.create(comm, pfs, "R", (10, 12), (2, 3))
            blob = a.meta.to_bytes()
            a.close()
            blobs = comm.allgather(blob)
            return all(b == blobs[0] for b in blobs)
        assert all(run(4, body))


class TestZoneIO:
    @pytest.mark.parametrize("nproc", [1, 2, 4, 6])
    def test_zone_write_read_roundtrip(self, pfs, hints, nproc):
        ref = pattern_array((11, 13))
        name = f"Z{nproc}"
        def body(comm):
            a = DRXMPFile.create(comm, pfs, name, (11, 13), (3, 4),
                                 info=hints)
            part = a.partition()
            mem = a.read_zone(part)
            lo, hi = mem.zone.element_box(a.chunk_shape, a.shape)
            mem.array[...] = ref[tuple(slice(l, h)
                                       for l, h in zip(lo, hi))]
            a.write_zone(mem)
            comm.barrier()
            ok = np.array_equal(a.read((0, 0), (11, 13)), ref)
            a.close()
            return ok
        assert all(run(nproc, body))

    def test_fortran_order_zone(self, pfs, hints):
        ref = pattern_array((8, 9))
        def body(comm):
            a = DRXMPFile.create(comm, pfs, "F", (8, 9), (2, 2),
                                 info=hints)
            if comm.rank == 0:
                a.write((0, 0), ref)
            comm.barrier()
            mem = a.read_zone(order="F")
            lo, hi = mem.zone.element_box(a.chunk_shape, a.shape)
            want = ref[tuple(slice(l, h) for l, h in zip(lo, hi))]
            ok = (mem.array.flags["F_CONTIGUOUS"]
                  and np.array_equal(mem.array, want))
            a.close()
            return ok
        assert all(run(4, body))

    def test_independent_zone_io(self, pfs, hints):
        ref = pattern_array((9, 9))
        def body(comm):
            a = DRXMPFile.create(comm, pfs, "I", (9, 9), (2, 2),
                                 info=hints)
            part = a.partition()
            mem = a.read_zone(part, collective=False)
            lo, hi = mem.zone.element_box(a.chunk_shape, a.shape)
            mem.array[...] = ref[tuple(slice(l, h)
                                       for l, h in zip(lo, hi))]
            a.write_zone(mem, collective=False)
            comm.barrier()
            ok = np.array_equal(a.read((0, 0), (9, 9)), ref)
            a.close()
            return ok
        assert all(run(4, body))

    def test_zone_write_shape_mismatch(self, pfs):
        def body(comm):
            a = DRXMPFile.create(comm, pfs, "S", (8, 8), (2, 2))
            mem = a.read_zone()
            mem.array = np.zeros((1, 1))
            try:
                a.write_zone(mem)
                return False
            except Exception:
                a.close()
                return True
        # every rank raises the same way, so collectives stay matched
        assert all(run(2, body))


class TestBoxIO:
    def test_disjoint_writers(self, pfs, hints):
        # slabs are chunk-aligned: concurrent writers must never share a
        # chunk (the chunk is the unit of access; unaligned concurrent
        # writes would race on the read-modify-write, in the real system
        # as much as here)
        ref = pattern_array((16, 8))
        def body(comm):
            a = DRXMPFile.create(comm, pfs, "D", (16, 8), (4, 4),
                                 info=hints)
            rows = 16 // comm.size
            lo = (comm.rank * rows, 0)
            hi = ((comm.rank + 1) * rows, 8)
            a.write(lo, ref[lo[0]:hi[0], :])
            comm.barrier()
            got = a.read((0, 0), (16, 8))
            a.close()
            return np.array_equal(got, ref)
        assert all(run(4, body))

    def test_unaligned_writers_serialized(self, pfs, hints):
        """Non-chunk-aligned disjoint boxes are fine when the writes are
        ordered (here: one rank after another via a token ring)."""
        ref = pattern_array((12, 8))
        def body(comm):
            a = DRXMPFile.create(comm, pfs, "DS", (12, 8), (4, 4),
                                 info=hints)
            rows = 12 // comm.size
            lo = (comm.rank * rows, 0)
            if comm.rank > 0:
                comm.recv(source=comm.rank - 1, tag=77)
            a.write(lo, ref[lo[0]:lo[0] + rows, :])
            if comm.rank < comm.size - 1:
                comm.send(None, dest=comm.rank + 1, tag=77)
            comm.barrier()
            got = a.read((0, 0), (12, 8))
            a.close()
            return np.array_equal(got, ref)
        assert all(run(4, body))

    def test_unaligned_box_read_write(self, pfs, hints):
        ref = pattern_array((10, 10))
        def body(comm):
            a = DRXMPFile.create(comm, pfs, "U", (10, 10), (3, 3),
                                 info=hints)
            if comm.rank == 0:
                a.write((0, 0), ref)
            comm.barrier()
            got = a.read((1, 2), (8, 9))
            ok = np.array_equal(got, ref[1:8, 2:9])
            comm.barrier()
            # read-modify-write of an unaligned box preserves neighbours
            if comm.rank == 1:
                a.write((4, 4), np.full((2, 2), -1.0))
            comm.barrier()
            got = a.read((0, 0), (10, 10))
            want = ref.copy()
            want[4:6, 4:6] = -1
            ok = ok and np.array_equal(got, want)
            a.close()
            return ok
        assert all(run(2, body))


class TestExtend:
    def test_collective_extend(self, pfs):
        ref = pattern_array((6, 6))
        def body(comm):
            a = DRXMPFile.create(comm, pfs, "E", (6, 6), (2, 2))
            if comm.rank == 0:
                a.write((0, 0), ref)
            comm.barrier()
            a.extend(1, 6)
            a.extend(0, 2)
            ok = a.shape == (8, 12)
            ok = ok and np.array_equal(a.read((0, 0), (6, 6)), ref)
            ok = ok and np.all(a.read((6, 0), (8, 12)) == 0)
            # partition reflects the grown chunk grid
            part = a.partition()
            ok = ok and part.chunk_bounds == a.meta.chunk_bounds
            a.close()
            return ok
        assert all(run(4, body))

    def test_mismatched_extend_detected(self, pfs):
        def body(comm):
            a = DRXMPFile.create(comm, pfs, "EM", (4, 4), (2, 2))
            a.extend(0 if comm.rank == 0 else 1, 2)
        with pytest.raises(SPMDFailure):
            run(2, body)

    def test_extend_persists(self, pfs):
        def body(comm):
            a = DRXMPFile.create(comm, pfs, "EP", (4, 4), (2, 2))
            a.extend(0, 4)
            a.close()
            b = DRXMPFile.open(comm, pfs, "EP")
            shape = b.shape
            b.close()
            return shape
        assert run(2, body) == [(8, 4)] * 2


class TestPaperStyleAPI:
    def test_full_cycle(self, pfs):
        ref = pattern_array((10, 12))
        def body(comm):
            hdl = DRXMP_Init(comm, pfs, "P", kdim=2, initsize=(10, 12),
                             chkshape=(2, 3))
            mem = DRXMP_Read_all(hdl)
            lo, hi = mem.zone.element_box(hdl.chunk_shape, hdl.shape)
            mem.array[...] = ref[tuple(slice(l, h)
                                       for l, h in zip(lo, hi))]
            DRXMP_Write_all(hdl, mem)
            DRXMP_Extend(hdl, 0, 2)
            DRXMP_Close(hdl)
            hdl2 = DRXMP_Open(comm, pfs, "P")
            ok = hdl2.shape == (12, 12)
            ok = ok and np.array_equal(hdl2.read((0, 0), (10, 12)), ref)
            DRXMP_Terminate()
            return ok and hdl2.handle.closed
        assert all(run(4, body))

    def test_init_kdim_mismatch(self, pfs):
        def body(comm):
            DRXMP_Init(comm, pfs, "K", kdim=3, initsize=(4, 4),
                       chkshape=(2, 2))
        with pytest.raises(SPMDFailure) as ei:
            run(1, body)
        assert isinstance(ei.value.failures[0], DRXExtendError)


class TestPlanMemoization:
    """``chunk_datatype`` and the sorted F* plan are memoized on the
    meta-data object; extension invalidates the plans (generation bump)
    but not the chunk datatype (chunk shape is immutable)."""

    def test_chunk_datatype_is_memoized(self):
        from repro.core.metadata import DRXMeta
        from repro.drxmp.subarray import chunk_datatype
        meta = DRXMeta.create((8, 8), (2, 2))
        dt = chunk_datatype(meta)
        assert chunk_datatype(meta) is dt
        meta.extend_elements(0, 4)      # chunk dtype unaffected by growth
        assert chunk_datatype(meta) is dt
        other = DRXMeta.create((8, 8), (2, 2))
        assert chunk_datatype(other) is not dt

    def test_plan_cache_hits_and_generation_invalidation(self):
        import numpy as np
        from repro.core.metadata import DRXMeta
        from repro.drxmp.subarray import _sorted_chunk_plan
        meta = DRXMeta.create((8, 8), (2, 2))
        idx = np.asarray([[0, 0], [1, 1], [0, 1]], dtype=np.int64)
        p1 = _sorted_chunk_plan(meta, idx)
        p2 = _sorted_chunk_plan(meta, idx)
        assert p1[0] is p2[0] and p1[1] is p2[1]          # cache hit
        gen = meta.eci.generation
        meta.extend_elements(0, 2)
        assert meta.eci.generation != gen
        p3 = _sorted_chunk_plan(meta, idx)
        assert p3[0] is not p1[0]                          # invalidated
        assert np.array_equal(p3[0], p1[0])                # same mapping
        p4 = _sorted_chunk_plan(meta, idx)
        assert p4[0] is p3[0]                              # re-cached

    def test_plan_cache_not_shared_across_metas(self):
        import numpy as np
        from repro.core.metadata import DRXMeta
        from repro.drxmp.subarray import _sorted_chunk_plan
        idx = np.asarray([[0, 0], [1, 0]], dtype=np.int64)
        a = DRXMeta.create((4, 4), (2, 2))
        b = DRXMeta.create((4, 4), (2, 2))
        pa = _sorted_chunk_plan(a, idx)
        pb = _sorted_chunk_plan(b, idx)
        assert pa[0] is not pb[0]
        assert np.array_equal(pa[0], pb[0])

    def test_replicated_meta_does_not_share_cache(self):
        """``replicate()`` must hand each rank an independent cache —
        committed MPI datatypes are communicator-local state."""
        from repro.core.metadata import DRXMeta
        from repro.drxmp.subarray import chunk_datatype
        meta = DRXMeta.create((8, 8), (2, 2))
        dt = chunk_datatype(meta)
        clone = meta.replicate()
        assert clone._cache == {} or chunk_datatype(clone) is not dt
