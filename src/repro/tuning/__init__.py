"""Cost-model-driven performance advice (``repro.tuning``).

The paper's future-work list asks for "optimizing the access by
reconciling the chunk size with the strip size of the parallel file
system"; PRs 1–9 added the machinery that makes every other knob matter
too (run coalescing, the Mpool read-ahead window, codecs, the executor
tiers).  This package closes the loop: it combines the analytic PFS
cost model (:mod:`repro.pfs.costmodel`) with the counters the system
already keeps about itself (:class:`~repro.drx.storage.StoreStats`,
:class:`~repro.drx.mpool.MpoolStats`,
:class:`~repro.drx.codec.CodecStats`) into an **explainable advisor**:

>>> from repro.tuning import Workload, advise
>>> w = Workload(bounds=(4096, 4096), chunk_shape=(64, 64))
>>> advice = advise(w)
>>> advice.settings()["readahead"]        # doctest: +SKIP
8
>>> print(advice.explain())               # doctest: +SKIP

Every candidate value of every knob carries its *predicted* cost in
cost-model seconds — and, when observed counters are supplied, the
cost-model replay of what actually happened — so a recommendation is
never a black box.  ``DRXFile.create(..., tune="auto")`` applies the
runtime-adjustable knobs (read-ahead window, executor width) at open
time; the creation-time knobs (chunk shape, stripe size, codec) are
printed by the CLI::

    python -m repro.tuning report --bounds 4096,4096 --chunk 64,64

The chunk-shape heuristics (E5's chunk/stripe reconciliation) live in
:mod:`repro.tuning.chunkshape`, so this package is the single entry
point for tuning questions.
"""

from .advisor import (
    Advice,
    Candidate,
    Observed,
    Workload,
    advise,
    advise_file,
    observed_profile,
    pfs_geometry,
)
from .chunkshape import chunk_stripe_report, suggest_chunk_shape

__all__ = [
    "Advice",
    "Candidate",
    "Observed",
    "Workload",
    "advise",
    "advise_file",
    "observed_profile",
    "pfs_geometry",
    "suggest_chunk_shape",
    "chunk_stripe_report",
]
