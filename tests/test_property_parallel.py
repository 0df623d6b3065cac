"""Property-based tests of the parallel layers (hypothesis).

Invariants pinned here:

* any BLOCK / BLOCK_CYCLIC partition covers the chunk grid exactly once
  and ``owner_of`` agrees with ``chunks_of``;
* zone write + zone read round-trips arbitrary arrays for arbitrary
  shapes, chunkings, growth histories and process counts;
* derived datatypes: pack∘unpack is the identity on the described bytes;
* a FileView's extents cover exactly the bytes a brute-force expansion
  of the typemap predicts.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import mpi
from repro.core import replay_history
from repro.drxmp import DRXMPFile
from repro.drxmp.partition import BlockCyclicPartition, BlockPartition
from repro.mpi.datatypes import DOUBLE
from repro.mpi.file import FileView
from repro.pfs import ParallelFileSystem

# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


@st.composite
def partition_cases(draw):
    k = draw(st.integers(1, 3))
    bounds = tuple(draw(st.integers(1, 9)) for _ in range(k))
    nproc = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["block", "cyclic"]))
    block = draw(st.integers(1, 3))
    return bounds, nproc, kind, block


@settings(max_examples=80, deadline=None)
@given(partition_cases())
def test_partition_covers_exactly_once(case):
    bounds, nproc, kind, block = case
    if kind == "block":
        part = BlockPartition(bounds, nproc)
    else:
        part = BlockCyclicPartition(bounds, nproc, block=block)
    seen = np.zeros(bounds, dtype=int)
    for r in range(nproc):
        for ci in part.chunks_of(r):
            t = tuple(int(x) for x in ci)
            assert part.owner_of(t) == r
            seen[t] += 1
    assert np.all(seen == 1)


@settings(max_examples=60, deadline=None)
@given(partition_cases())
def test_owners_vectorized_matches_scalar(case):
    bounds, nproc, kind, block = case
    if kind == "block":
        part = BlockPartition(bounds, nproc)
    else:
        part = BlockCyclicPartition(bounds, nproc, block=block)
    idx = np.array(list(np.ndindex(*bounds)), dtype=np.int64)
    if idx.size == 0:
        return
    vec = part.owners_of(idx)
    assert vec.tolist() == [part.owner_of(tuple(r)) for r in idx]


# ---------------------------------------------------------------------------
# zone I/O round-trips
# ---------------------------------------------------------------------------


@st.composite
def zone_io_cases(draw):
    k = draw(st.integers(1, 2))
    chunk = tuple(draw(st.integers(1, 3)) for _ in range(k))
    bounds = tuple(draw(st.integers(c, 4 * c))
                   for c in chunk)
    steps = draw(st.integers(0, 3))
    history = [(draw(st.integers(0, k - 1)), draw(st.integers(1, 2)))
               for _ in range(steps)]
    nproc = draw(st.sampled_from([1, 2, 4]))
    seed = draw(st.integers(0, 2 ** 16))
    return bounds, chunk, history, nproc, seed


_case_counter = [0]


# ``hints`` hands back a constant, so reusing it across examples is safe
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(zone_io_cases())
def test_zone_roundtrip_arbitrary(hints, case):
    bounds, chunk, history, nproc, seed = case
    _case_counter[0] += 1
    name = f"prop{_case_counter[0]}"
    fs = ParallelFileSystem(nservers=2, stripe_size=512)
    # pre-generate the reference OUTSIDE the SPMD body: a shared RNG
    # drawn concurrently would give each rank different data
    final_bounds = list(bounds)
    for dim, by in history:
        final_bounds[dim] += by * chunk[dim]
    ref = np.random.default_rng(seed).random(tuple(final_bounds))

    def body(comm):
        a = DRXMPFile.create(comm, fs, name, bounds, chunk, info=hints)
        for dim, by in history:
            a.extend(dim, by * chunk[dim])   # element-level growth
        assert a.shape == tuple(final_bounds)
        mem = a.read_zone()
        lo, hi = mem.zone.element_box(a.chunk_shape, a.shape)
        mem.array[...] = ref[tuple(slice(l, h) for l, h in zip(lo, hi))]
        a.write_zone(mem)
        comm.barrier()
        got = a.read(tuple(0 for _ in a.shape), a.shape)
        a.close()
        return np.allclose(got, ref)

    assert all(mpi.mpiexec(nproc, body, timeout=60))


# ---------------------------------------------------------------------------
# datatypes
# ---------------------------------------------------------------------------


@st.composite
def indexed_types(draw):
    n = draw(st.integers(1, 6))
    blocklens = [draw(st.integers(0, 3)) for _ in range(n)]
    # non-overlapping displacements: lay blocks on a coarse lattice
    slots = draw(st.permutations(range(n)))
    displacements = [s * 4 for s in slots]
    return blocklens, displacements


@settings(max_examples=80, deadline=None)
@given(indexed_types(), st.integers(1, 3))
def test_pack_unpack_identity(spec, count):
    blocklens, displacements = spec
    t = DOUBLE.Create_indexed(blocklens, displacements).Commit()
    if t.size == 0:
        return
    total_elems = (max(d + b for d, b in zip(displacements, blocklens))
                   + (count - 1) * (t.extent // 8 if t.extent else 0))
    buf = np.arange(max(total_elems, 1) + 8, dtype=np.float64)
    packed = t.pack(buf, count)
    assert len(packed) == t.size * count
    out = np.full_like(buf, -1.0)
    consumed = t.unpack(out, packed, count)
    assert consumed == len(packed)
    # unpacking what we packed reproduces the described bytes and ONLY them
    packed2 = t.pack(out, count)
    assert packed2 == packed


@settings(max_examples=60, deadline=None)
@given(indexed_types(), st.integers(0, 40), st.integers(0, 64))
def test_fileview_extents_match_bruteforce(spec, data_offset, nbytes):
    blocklens, displacements = spec
    ft = DOUBLE.Create_indexed(blocklens, displacements).Commit()
    if ft.size == 0:
        return
    # brute force: enumerate the absolute byte of every data position
    tiles = 1 + (data_offset + nbytes) // ft.size
    flat: list[int] = []
    for tile in range(tiles + 1):
        base = tile * ft.extent
        for off, ln in zip(ft.offsets.tolist(), ft.lengths.tolist()):
            flat.extend(base + off + i for i in range(ln))
    want = flat[data_offset:data_offset + nbytes]
    view = FileView(disp=16, etype=DOUBLE, filetype=ft) \
        if _sorted(ft) else None
    if view is None:
        return
    got: list[int] = []
    for off, ln in view.extents(data_offset, nbytes):
        got.extend(range(off - 16, off - 16 + ln))
    assert got == want


def _sorted(ft) -> bool:
    offs = ft.offsets
    return bool(np.all(offs[1:] >= offs[:-1]))
