"""DRX and DRX-MP share one ``.xmd``/``.xta`` format.

Arrays written by ``DRXFile`` — plain, checksummed, compressed — read
back identically through every DRX-MP path (collective zone reads,
independent box reads, the Global-Array loader), and arrays DRX-MP writes
open in ``DRXFile`` with a current CRC table.  A compressed array opens
read-only in DRX-MP.  Runs in the CI chaos job: ``DRX_FAULT_SEED`` picks
the chunk torn behind the library's back in the arbitration test.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import mpi
from repro.core.errors import DRXFormatError
from repro.drx import DRXFile
from repro.drxmp import DRXMDMemHdl, DRXMPFile, GlobalArray
from repro.mpi.runner import SPMDFailure
from repro.pfs import ParallelFileSystem

SEED = int(os.environ.get("DRX_FAULT_SEED", "0"))
NPROCS = 2
CHUNK = (4, 3)

FORMATS = [
    pytest.param("none", False, id="plain"),
    pytest.param("none", True, id="plain-crc"),
    pytest.param("zlib", False, id="zlib"),
    pytest.param("zlib", True, id="zlib-crc"),
]
WRITABLE = [f for f in FORMATS if f.values[0] == "none"]


def run(fn, n=NPROCS):
    return mpi.mpiexec(n, fn, timeout=60)


def make_fs(replication=1):
    return ParallelFileSystem(nservers=4, stripe_size=256,
                              replication=replication)


def drx_array(fs, codec, checksums, name="arr"):
    """A ``DRXFile`` array grown by two extends with partial edge chunks
    and a corner never written (a compressed array stores no slot for
    it).  Returns the NumPy model."""
    rng = np.random.default_rng(SEED)
    a = DRXFile.create_pfs(fs, name, (10, 8), CHUNK, codec=codec,
                           checksums=checksums)
    ref = np.zeros((17, 14))
    ref[:10, :8] = rng.random((10, 8))
    a.write((0, 0), ref[:10, :8])
    a.extend(0, 7)
    a.extend(1, 6)
    ref[10:, :5] = rng.random((7, 5))
    a.write((10, 0), ref[10:, :5])
    a.close()
    return ref


def assemble(parts, shape):
    out = np.full(shape, np.nan)
    for lo, hi, arr in parts:
        out[lo[0]:hi[0], lo[1]:hi[1]] = arr
    return out


class TestDRXMPReadsDRXFile:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("codec,checksums", FORMATS)
    def test_read_zone(self, codec, checksums, order):
        fs = make_fs()
        ref = drx_array(fs, codec, checksums)

        def body(comm):
            a = DRXMPFile.open(comm, fs, "arr")
            mem = a.read_zone(order=order)
            lo, hi = mem.zone.element_box(a.chunk_shape, a.shape)
            a.close()
            assert mem.array.flags[f"{order}_CONTIGUOUS"]
            return lo, hi, mem.array.copy()

        assert np.array_equal(assemble(run(body), ref.shape), ref)

    @pytest.mark.parametrize("codec,checksums", FORMATS)
    def test_box_read(self, codec, checksums):
        fs = make_fs()
        ref = drx_array(fs, codec, checksums)

        def body(comm):
            a = DRXMPFile.open(comm, fs, "arr")
            lo = (comm.rank * 3, 1)
            got = a.read(lo, (lo[0] + 11, 13), order="F")
            whole = a.read((0, 0), ref.shape)
            a.close()
            return (np.array_equal(got, ref[lo[0]:lo[0] + 11, 1:13])
                    and np.array_equal(whole, ref))

        assert all(run(body))

    @pytest.mark.parametrize("kind", ["block", "block_cyclic"])
    @pytest.mark.parametrize("codec,checksums", FORMATS)
    def test_global_array_from_file(self, codec, checksums, kind):
        fs = make_fs()
        ref = drx_array(fs, codec, checksums)

        def body(comm):
            a = DRXMPFile.open(comm, fs, "arr")
            ga = GlobalArray.from_file(a, a.partition(kind))
            got = ga.get((0, 0), ref.shape)
            ga.free()
            a.close()
            return np.array_equal(got, ref)

        assert all(run(body))

    @pytest.mark.parametrize("codec", ["none", "zlib"])
    def test_torn_replica_is_arbitrated(self, codec):
        """A chunk's primary copy is torn behind the library's back:
        the rank whose zone holds it reads the replica that matches its
        CRC, and the zone comes back intact."""
        fs = make_fs(replication=2)
        ref = drx_array(fs, codec, True)
        with DRXFile.open_pfs(fs, "arr") as f:
            written = sorted(f.meta.chunk_crcs)
            chunk = written[SEED % len(written)]
            _rows, offsets, _lengths = f._store.physical_extents([chunk])
        server, local = fs.layout.to_server_offset(int(offsets[0]))
        fs.servers[server].corrupt("arr.xta", local, b"\x5a" * 8)

        def body(comm):
            a = DRXMPFile.open(comm, fs, "arr")
            mem = a.read_zone()
            lo, hi = mem.zone.element_box(a.chunk_shape, a.shape)
            arbitrated = a.handle.store.guard.arbitrated
            a.close()
            return lo, hi, mem.array.copy(), arbitrated

        out = run(body)
        assert np.array_equal(assemble([o[:3] for o in out], ref.shape), ref)
        assert sum(o[3] for o in out) == 1


class TestDRXFileReadsDRXMP:
    @pytest.mark.parametrize("codec,checksums", WRITABLE)
    def test_collective_and_independent_writes(self, codec, checksums):
        fs = make_fs()
        ref = drx_array(fs, codec, checksums)
        rng = np.random.default_rng(SEED + 1)
        new = rng.random(ref.shape)
        box = rng.random((5, 6))
        ref[...] = new
        ref[6:11, 4:10] = box

        def body(comm):
            a = DRXMPFile.open(comm, fs, "arr", "r+")
            zone = a.my_zone()
            lo, hi = zone.element_box(a.chunk_shape, a.shape)
            a.write_zone(DRXMDMemHdl(
                array=new[lo[0]:hi[0], lo[1]:hi[1]].copy(), zone=zone,
                origin=lo))
            comm.barrier()
            if comm.rank == NPROCS - 1:
                a.write((6, 4), box)        # independent, across zones
            a.close()
            return True

        assert all(run(body))
        with DRXFile.open_pfs(fs, "arr") as f:
            assert np.array_equal(f.read(), ref)
            report = f.scrub()
            assert report.corrupt == []
            if checksums:
                assert report.checked == f.meta.num_chunks

    @pytest.mark.parametrize("turns", [(1, 0), (0, 1)],
                             ids=["high-first", "low-first"])
    def test_two_ranks_write_one_chunk(self, turns):
        """Both ranks write chunk (0, 0) whole and independently between
        collective points, in either order: the stored bytes, not rank
        order, decide the committed CRC."""
        fs = make_fs()
        ref = drx_array(fs, "none", True)
        ref[:4, :3] = np.arange(12.0).reshape(CHUNK) * (turns[-1] + 1)

        def body(comm):
            a = DRXMPFile.open(comm, fs, "arr", "r+")
            for turn in turns:
                if comm.rank == turn:
                    a.write((0, 0), np.arange(12.0).reshape(CHUNK)
                            * (turn + 1))
                comm.barrier()
            a.close()
            return True

        assert all(run(body))
        with DRXFile.open_pfs(fs, "arr") as f:
            assert np.array_equal(f.read(), ref)
            assert f.scrub().corrupt == []

    @pytest.mark.parametrize("codec,checksums", WRITABLE)
    def test_global_array_to_file(self, codec, checksums):
        fs = make_fs()
        ref = drx_array(fs, codec, checksums)

        def body(comm):
            a = DRXMPFile.open(comm, fs, "arr", "r+")
            ga = GlobalArray.from_file(a, a.partition("block_cyclic"))
            ga.local[...] *= 2.0
            ga.to_file(a)
            ga.free()
            a.close()
            return True

        assert all(run(body))
        with DRXFile.open_pfs(fs, "arr") as f:
            assert np.array_equal(f.read(), 2.0 * ref)
            assert f.scrub().corrupt == []


class TestRankWithoutChunks:
    @pytest.mark.parametrize("codec,checksums", FORMATS)
    def test_empty_zone(self, codec, checksums):
        """Five ranks over a 2 x 2 chunk grid: three hold no chunk and
        still join every collective."""
        fs = make_fs()
        a = DRXFile.create_pfs(fs, "arr", (8, 6), CHUNK, codec=codec,
                               checksums=checksums)
        ref = np.random.default_rng(SEED).random((8, 6))
        a.write((0, 0), ref)
        a.close()
        mode = "r+" if codec == "none" else "r"

        def body(comm):
            f = DRXMPFile.open(comm, fs, "arr", mode)
            mem = f.read_zone()
            if mode == "r+":
                mem.array[...] *= 3.0
                f.write_zone(mem)
            f.close()
            return mem.array.size

        assert sorted(run(body, n=5)) == [0, 0, 0, 24, 24]
        with DRXFile.open_pfs(fs, "arr") as f:
            want = 3.0 * ref if mode == "r+" else ref
            assert np.array_equal(f.read(), want)
            assert f.scrub().corrupt == []


class TestCompressedReadOnly:
    @pytest.mark.parametrize("checksums", [False, True])
    def test_open_rw_refused(self, checksums):
        fs = make_fs()
        drx_array(fs, "zlib", checksums)
        xta = fs.open("arr.xta")
        before = xta.read(0, xta.size)

        def body(comm):
            DRXMPFile.open(comm, fs, "arr", "r+")

        with pytest.raises(SPMDFailure) as ei:
            run(body)
        assert all(isinstance(e, DRXFormatError)
                   for e in ei.value.failures.values())
        assert xta.read(0, xta.size) == before


# ---------------------------------------------------------------------------
# property: the two front ends interleave on one array
# ---------------------------------------------------------------------------

@st.composite
def histories(draw):
    steps = []
    for _ in range(draw(st.integers(2, 5))):
        kind = draw(st.sampled_from(
            ["drx_write", "mp_zone", "mp_box", "drx_extend", "mp_extend"]))
        if kind.endswith("extend"):
            steps.append((kind, draw(st.integers(0, 1)),
                          draw(st.integers(1, 5))))
        else:
            steps.append((kind, draw(st.integers(0, 2 ** 16)), None))
    return draw(st.booleans()), draw(st.sampled_from("CF")), steps


def _box(rng, shape):
    lo = tuple(int(rng.integers(0, n)) for n in shape)
    hi = tuple(int(rng.integers(l + 1, n + 1)) for l, n in zip(lo, shape))
    return lo, hi


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(histories())
def test_interleaved_front_ends(case):
    checksums, order, steps = case
    fs = make_fs()
    a = DRXFile.create_pfs(fs, "p", (6, 5), CHUNK, checksums=checksums)
    a.close()
    ref = np.zeros((6, 5))
    for kind, arg, by in steps:
        rng = np.random.default_rng(arg)
        if kind == "drx_extend":
            with DRXFile.open_pfs(fs, "p", "r+") as f:
                f.extend(arg, by)
        elif kind == "mp_extend":
            def grow(comm, dim=arg, by=by):
                f = DRXMPFile.open(comm, fs, "p", "r+")
                f.extend(dim, by)
                f.close()
            run(grow)
        if kind.endswith("extend"):
            grown = list(ref.shape)
            grown[arg] += by
            bigger = np.zeros(grown)
            bigger[:ref.shape[0], :ref.shape[1]] = ref
            ref = bigger
            continue
        lo, hi = _box(rng, ref.shape)
        vals = rng.random((hi[0] - lo[0], hi[1] - lo[1]))
        ref[lo[0]:hi[0], lo[1]:hi[1]] = vals
        if kind == "drx_write":
            with DRXFile.open_pfs(fs, "p", "r+") as f:
                f.write(lo, vals)
        elif kind == "mp_box":
            def body(comm, lo=lo, vals=vals):
                f = DRXMPFile.open(comm, fs, "p", "r+")
                if comm.rank == 0:
                    f.write(lo, vals)
                f.close()
            run(body)
        else:
            model = ref.copy()

            def body(comm, model=model):
                f = DRXMPFile.open(comm, fs, "p", "r+")
                zone = f.my_zone()
                zlo, zhi = zone.element_box(f.chunk_shape, f.shape)
                f.write_zone(DRXMDMemHdl(
                    array=model[zlo[0]:zhi[0], zlo[1]:zhi[1]].copy(),
                    zone=zone, origin=zlo))
                f.close()
            run(body)
        # every step is read back through both front ends
        with DRXFile.open_pfs(fs, "p") as f:
            assert np.array_equal(f.read(), ref)
            assert f.scrub().corrupt == []

        def read(comm):
            f = DRXMPFile.open(comm, fs, "p")
            mem = f.read_zone(order=order)
            zlo, zhi = mem.zone.element_box(f.chunk_shape, f.shape)
            f.close()
            return zlo, zhi, mem.array.copy()
        assert np.array_equal(assemble(run(read), ref.shape), ref)

