"""Shared fixtures for the DRX / DRX-MP test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.extendible import ExtendibleChunkIndex
from repro.pfs import ParallelFileSystem


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20070917)  # CLUSTER 2007 week


@pytest.fixture
def fig3_index() -> ExtendibleChunkIndex:
    """The paper's Fig. 3 growth history: A[4][3][1], +D2 +D2 (merged),
    +D1, +D0 x2 (one call of 2), +D2."""
    eci = ExtendibleChunkIndex([4, 3, 1])
    eci.extend(2)
    eci.extend(2)
    eci.extend(1)
    eci.extend(0, 2)
    eci.extend(2)
    return eci


@pytest.fixture
def fig1_index() -> ExtendibleChunkIndex:
    """The paper's Fig. 1 growth history to the 5x4 chunk grid."""
    eci = ExtendibleChunkIndex([1, 1])
    for dim in (1, 0, 0, 1, 0, 1, 0):
        eci.extend(dim)
    return eci


@pytest.fixture
def pfs() -> ParallelFileSystem:
    return ParallelFileSystem(nservers=4, stripe_size=1024)


@pytest.fixture(params=[
    pytest.param(None, id=pytest.HIDDEN_PARAM),
    pytest.param({"cb_nodes": 2, "romio_ds_read": "enable"},
                 id="two-aggregator"),
])
def hints(request) -> dict | None:
    """MPI-IO hints to pass as ``info=``: the defaults (that leg keeps
    the test's plain id), and a steering that takes the other branches
    of the collective engine — two aggregators, so the byte range is
    split into file domains and extents cross their boundaries, and
    read sieving forced on.  Hints never change results, so any
    round-trip or bit-identity test may take it."""
    return request.param
