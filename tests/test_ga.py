"""Tests of the Global-Array-style one-sided layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro import mpi
from repro.drxmp import BlockCyclicPartition, DRXMPFile, GlobalArray
from repro.pfs import ParallelFileSystem
from repro.workloads import pattern_array


def run(n, fn, *args, **kw):
    return mpi.mpiexec(n, fn, *args, timeout=kw.pop("timeout", 60), **kw)


class TestOwnership:
    def test_owner_and_slot_consistent_across_ranks(self, pfs):
        def body(comm):
            a = DRXMPFile.create(comm, pfs, "O", (8, 8), (2, 2))
            ga = GlobalArray.from_file(a)
            # ownership arithmetic must agree on every rank
            table = [ga.owner_and_slot((i, j))
                     for i in range(4) for j in range(4)]
            tables = comm.allgather(table)
            a.close()
            return all(t == tables[0] for t in tables)
        assert all(run(4, body))

    def test_every_chunk_owned_exactly_once(self, pfs):
        def body(comm):
            a = DRXMPFile.create(comm, pfs, "O2", (8, 8), (2, 2))
            ga = GlobalArray.from_file(a)
            owners = [ga.owner_and_slot((i, j))[0]
                      for i in range(4) for j in range(4)]
            counts = comm.allgather(len(ga.local_addresses))
            a.close()
            return sum(counts) == 16 and set(owners) <= set(range(comm.size))
        assert all(run(4, body))


class TestGetPutAcc:
    def test_get_whole_array_any_rank(self, pfs):
        ref = pattern_array((9, 7))
        def body(comm):
            a = DRXMPFile.create(comm, pfs, "G", (9, 7), (2, 3))
            if comm.rank == comm.size - 1:
                a.write((0, 0), ref)
            comm.barrier()
            ga = GlobalArray.from_file(a)
            got = ga.get((0, 0), (9, 7))
            a.close()
            return np.array_equal(got, ref)
        assert all(run(4, body))

    def test_put_visible_everywhere(self, pfs):
        def body(comm):
            a = DRXMPFile.create(comm, pfs, "P", (8, 8), (2, 2))
            ga = GlobalArray.from_file(a)
            if comm.rank == 0:
                ga.put((3, 3), np.full((3, 3), 42.0))
            ga.sync()
            got = ga.get((3, 3), (6, 6))
            a.close()
            return np.all(got == 42.0)
        assert all(run(4, body))

    def test_put_preserves_neighbours(self, pfs):
        ref = pattern_array((6, 6))
        def body(comm):
            a = DRXMPFile.create(comm, pfs, "PN", (6, 6), (4, 4))
            if comm.rank == 0:
                a.write((0, 0), ref)
            comm.barrier()
            ga = GlobalArray.from_file(a)
            if comm.rank == 1:
                # partial-chunk put: must read-modify-write
                ga.put((1, 1), np.zeros((2, 2)))
            ga.sync()
            got = ga.get((0, 0), (6, 6))
            want = ref.copy()
            want[1:3, 1:3] = 0
            a.close()
            return np.array_equal(got, want)
        assert all(run(2, body))

    def test_acc_sums_atomically(self, pfs):
        def body(comm):
            a = DRXMPFile.create(comm, pfs, "ACC", (4, 4), (2, 2))
            ga = GlobalArray.from_file(a)
            for _ in range(10):
                ga.acc((0, 0), np.ones((4, 4)))
            ga.sync()
            got = ga.get((0, 0), (4, 4))
            a.close()
            return np.all(got == 10 * comm.size)
        assert all(run(4, body))

    def test_local_elements_and_update(self, pfs):
        ref = pattern_array((8, 8))
        def body(comm):
            a = DRXMPFile.create(comm, pfs, "L", (8, 8), (2, 2))
            if comm.rank == 0:
                a.write((0, 0), ref)
            comm.barrier()
            ga = GlobalArray.from_file(a)
            local, lo = ga.local_elements()
            want = ref[lo[0]:lo[0] + local.shape[0],
                       lo[1]:lo[1] + local.shape[1]]
            ok = np.array_equal(local, want)
            # double the local zone, write back, verify globally
            ga.update_local(local * 2)
            ga.sync()
            got = ga.get((0, 0), (8, 8))
            a.close()
            return ok and np.array_equal(got, ref * 2)
        assert all(run(4, body))


class TestFileRoundtrip:
    def test_to_file_from_file(self, pfs, hints):
        ref = pattern_array((10, 10))
        def body(comm):
            a = DRXMPFile.create(comm, pfs, "RT", (10, 10), (3, 3),
                                 info=hints)
            ga = GlobalArray.from_file(a)
            if comm.rank == 0:
                ga.put((0, 0), ref)
            ga.sync()
            ga.to_file(a)
            comm.barrier()
            got = a.read((0, 0), (10, 10))
            a.close()
            return np.array_equal(got, ref)
        assert all(run(4, body))

    def test_block_cyclic_distribution(self, pfs, hints):
        ref = pattern_array((8, 8))
        def body(comm):
            a = DRXMPFile.create(comm, pfs, "BC", (8, 8), (2, 2),
                                 info=hints)
            if comm.rank == 0:
                a.write((0, 0), ref)
            comm.barrier()
            part = BlockCyclicPartition(a.meta.chunk_bounds, comm.size,
                                        block=1)
            ga = GlobalArray.from_file(a, part)
            got = ga.get((0, 0), (8, 8))
            a.close()
            return np.array_equal(got, ref)
        assert all(run(4, body))

    def test_extended_array_through_ga(self, pfs, hints):
        """GA over an array with a non-trivial growth history: the slot
        arithmetic must follow the axial addresses, not row-major."""
        def body(comm):
            a = DRXMPFile.create(comm, pfs, "EX", (4, 4), (2, 2),
                                 info=hints)
            a.extend(1, 4)
            a.extend(0, 4)
            ref = pattern_array((8, 8))
            if comm.rank == 0:
                a.write((0, 0), ref)
            comm.barrier()
            ga = GlobalArray.from_file(a)
            got = ga.get((0, 0), (8, 8))
            a.close()
            return np.array_equal(got, ref)
        assert all(run(4, body))
