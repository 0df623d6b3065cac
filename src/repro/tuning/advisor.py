"""The knob advisor: predicted vs. observed cost per candidate setting.

The advisor prices one *pass* of a workload (``requests`` rectilinear
requests against an extendible array) under the analytic PFS cost model
and a small CPU model of the request-assembly path, then sweeps each
tuning knob over a candidate list and keeps the cheapest value:

``chunk_shape``
    Candidates from :func:`~repro.tuning.chunkshape.suggest_chunk_shape`
    around the current shape; priced by how many server requests a
    chunk access costs (the E5 curve) and how much per-chunk assembly
    CPU a pass burns.
``stripe_size``
    Powers of two around the chunk payload; a chunk that exactly fills
    a stripe is one request, a straddling chunk is two.
``codec``
    ``none`` vs. the observed compression ratio: compression pays when
    the transfer seconds saved exceed the encode/decode seconds added
    (rates come from :class:`~repro.drx.codec.CodecStats` when
    available, else a conservative default).
The PFS visits a pass's servers one after another on the caller's
thread, and the Mpool faults on the caller's thread with nothing read
ahead, so a pass costs the *sum* of its per-server batch times plus its
CPU, whatever the executor width and whatever the access order.

Every candidate is returned with its predicted cost; when an
:class:`Observed` counter block is supplied, the candidates matching
the *current* settings also carry the cost-model replay of the observed
transfer counters — predicted vs. observed on one line is the
explainability contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import prod
from typing import Any, Sequence

import numpy as np

from ..core.metadata import DRXType
from ..pfs.costmodel import DEFAULT_COST_MODEL, CostModel
from .chunkshape import chunk_stripe_report, suggest_chunk_shape

__all__ = ["Workload", "Candidate", "Advice", "Observed",
           "advise", "advise_file", "observed_profile", "pfs_geometry"]

#: Default PFS geometry when the workload doesn't pin one (matches the
#: simulator's defaults).
DEFAULT_STRIPE = 64 * 1024
DEFAULT_SERVERS = 4

#: Per-chunk request-assembly CPU (seconds): the vectorized kernels
#: amortize the interpreter over whole batches, the scalar fallback pays
#: a Python iteration per chunk.  Calibrated against the autotune
#: benchmark's measured per-chunk costs; only their ratio and order of
#: magnitude matter (the advisor compares candidates, it does not
#: forecast absolutes).
CPU_PER_CHUNK_VECTOR = 2e-6
CPU_PER_CHUNK_SCALAR = 40e-6

#: Conservative zlib-class codec throughput (bytes/second) used when no
#: observed :class:`CodecStats` rate is available.
DEFAULT_CODEC_RATE = 150e6

KNOBS = ("chunk_shape", "stripe_size", "codec")


def _itemsize(dtype) -> int:
    if isinstance(dtype, str):
        try:
            return DRXType.to_numpy(dtype).itemsize
        except Exception:
            return np.dtype(dtype).itemsize
    return np.dtype(dtype).itemsize


@dataclass(frozen=True)
class Workload:
    """What the advisor prices: a stream of rectilinear requests.

    ``request_shape=None`` means whole-array requests (the scan
    workloads of E1/E2/E7).  The pool is demand-paged, so the order of
    the requests is not priced.  ``read_fraction`` weighs the codec's
    decode vs. encode rates.
    """

    bounds: tuple[int, ...]
    chunk_shape: tuple[int, ...]
    dtype: Any = "double"
    request_shape: tuple[int, ...] | None = None
    requests: int = 1
    read_fraction: float = 1.0
    stripe_size: int = DEFAULT_STRIPE
    nservers: int = DEFAULT_SERVERS
    growth_dims: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "bounds", tuple(int(b) for b in self.bounds))
        object.__setattr__(self, "chunk_shape",
                           tuple(int(c) for c in self.chunk_shape))
        if self.request_shape is not None:
            object.__setattr__(self, "request_shape",
                               tuple(int(r) for r in self.request_shape))

    @property
    def itemsize(self) -> int:
        return _itemsize(self.dtype)

    @property
    def effective_request(self) -> tuple[int, ...]:
        req = self.request_shape or self.bounds
        return tuple(min(r, b) for r, b in zip(req, self.bounds))

    def chunk_counts(self, chunk_shape: Sequence[int] | None = None
                     ) -> tuple[int, ...]:
        """Chunks touched per request, per dimension (aligned box)."""
        cs = tuple(chunk_shape or self.chunk_shape)
        return tuple(-(-r // c) for r, c in zip(self.effective_request, cs))

    def chunks_per_request(self, chunk_shape=None) -> int:
        return prod(self.chunk_counts(chunk_shape))

    def runs_per_request(self, chunk_shape=None) -> int:
        """Coalesced contiguous runs per request.

        Under ``F*`` the chunks of a rectilinear box are contiguous
        along the last (row-major) chunk dimension, so a request of
        ``(n0, ..., nk-1)`` chunks coalesces into ``prod(n0..nk-2)``
        runs of length ``nk-1``.
        """
        counts = self.chunk_counts(chunk_shape)
        return max(1, prod(counts[:-1])) if counts else 1


@dataclass
class Candidate:
    """One candidate value of one knob, with its price tags."""

    knob: str
    value: Any
    predicted_cost: float               #: cost-model seconds per pass
    observed_cost: float | None = None  #: replay of observed counters
    chosen: bool = False
    current: bool = False
    why: str = ""

    def to_dict(self) -> dict:
        return {
            "knob": self.knob,
            "value": list(self.value) if isinstance(self.value, tuple)
            else self.value,
            "predicted_cost_s": self.predicted_cost,
            "observed_cost_s": self.observed_cost,
            "chosen": self.chosen,
            "current": self.current,
            "why": self.why,
        }


@dataclass
class Observed:
    """Raw counter snapshots pulled from a live handle (all optional)."""

    store: Any = None      #: StoreStats snapshot
    pool: Any = None       #: MpoolStats
    codec: Any = None      #: CodecStats
    scatter: Any = None    #: ScatterStats
    datatypes: Any = None  #: DatatypeStats

    def codec_ratio(self) -> float | None:
        c = self.codec
        if c is None or getattr(c, "stored_bytes", 0) == 0:
            return None
        return c.raw_bytes / c.stored_bytes

    def codec_rate(self) -> float | None:
        """Observed encode+decode throughput in raw bytes/second."""
        c = self.codec
        if c is None:
            return None
        t = getattr(c, "encode_time", 0.0) + getattr(c, "decode_time", 0.0)
        if t <= 0:
            return None
        return c.raw_bytes / t

    def replay_cost(self, model: CostModel, nservers: int) -> float | None:
        """Cost-model seconds of the transfers the store actually saw.

        Requests = physical transfers issued; seeks = one per vectored
        call (a call's runs are ascending, so intra-call transfers are
        near-sequential); bytes at model bandwidth; servers overlap.
        """
        st = self.store
        if st is None or st.syscalls == 0:
            return None
        vec = st.readv_calls + st.writev_calls
        seeks = vec if vec else st.syscalls
        total = (st.syscalls * model.request_overhead
                 + seeks * model.seek_time
                 + st.bytes_moved / model.bandwidth)
        return total / max(1, nservers)


def pfs_geometry(store) -> tuple[int, int]:
    """``(stripe_size, nservers)`` of a PFS-backed byte store.

    Unwraps one store decorator to its inner store and reads the
    striping off the PFS file's layout; non-PFS stores get the simulator
    defaults (the advisor still prices them consistently).
    """
    pfile = getattr(store, "_pfile", None)
    if pfile is None:
        pfile = getattr(getattr(store, "_inner", None), "_pfile", None)
    layout = getattr(pfile, "layout", None)
    return (int(getattr(layout, "stripe_size", DEFAULT_STRIPE)),
            int(getattr(layout, "nservers", DEFAULT_SERVERS)))


def observed_profile(f) -> Observed:
    """Collect an :class:`Observed` block from a live ``DRXFile``."""
    from ..core.scatter import SCATTER_STATS
    from ..mpi.datatypes import DATATYPE_STATS

    store = getattr(f, "_data", None)
    pool = getattr(f, "_pool", None)
    return Observed(
        store=store.stats.snapshot() if store is not None
        and hasattr(store, "stats") else None,
        pool=pool.stats if pool is not None else None,
        codec=getattr(f, "codec_stats", None),
        scatter=SCATTER_STATS.snapshot(),
        datatypes=DATATYPE_STATS.snapshot(),
    )


# ---------------------------------------------------------------------------
# the price functions
# ---------------------------------------------------------------------------

def _pass_io_parallel(w: Workload, model: CostModel,
                      chunk_shape=None, stripe=None,
                      codec_ratio: float = 1.0) -> float:
    """Max-of-servers cost-model seconds for one pass (the floor the
    simulator charges when every server works concurrently)."""
    cs = tuple(chunk_shape or w.chunk_shape)
    stripe = int(stripe or w.stripe_size)
    chunks = w.chunks_per_request(cs)
    runs = w.runs_per_request(cs)
    chunk_nbytes = prod(cs) * w.itemsize
    nbytes = chunks * chunk_nbytes / max(1.0, codec_ratio)
    per_server_bytes = nbytes / w.nservers
    # each run is a vectored extent: its stripes round-robin the
    # servers, one request per (run, server) plus the tail stripes
    stripes_per_run = max(1, math.ceil(nbytes / runs / stripe))
    per_server_reqs = runs * max(1, -(-stripes_per_run // w.nservers))
    per_server_seeks = max(1, -(-runs // w.nservers))
    t = (per_server_reqs * model.request_overhead
         + per_server_seeks * model.seek_time
         + per_server_bytes / model.bandwidth)
    return w.requests * t


def _pass_cpu(w: Workload, chunk_shape=None, vectorized: bool = True,
              codec_on: bool = False,
              codec_rate: float | None = None) -> float:
    """Assembly + codec CPU seconds for one pass."""
    cs = tuple(chunk_shape or w.chunk_shape)
    chunks = w.chunks_per_request(cs) * w.requests
    per_chunk = CPU_PER_CHUNK_VECTOR if vectorized else CPU_PER_CHUNK_SCALAR
    t = chunks * per_chunk
    if codec_on:
        nbytes = chunks * prod(cs) * w.itemsize
        t += nbytes / (codec_rate or DEFAULT_CODEC_RATE)
    return t


def _wall(io_par: float, cpu: float, w: Workload) -> float:
    """Wall-clock seconds combining the I/O and CPU prices: the servers
    are visited one after another (sum), and nothing overlaps the CPU."""
    return io_par * w.nservers + cpu


# ---------------------------------------------------------------------------
# candidate sweeps
# ---------------------------------------------------------------------------

def _pow2_near(n: int) -> int:
    return 1 << max(0, int(math.ceil(math.log2(max(1, n)))))


def _chunk_candidates(w: Workload) -> list[tuple[int, ...]]:
    cands = [w.chunk_shape]
    try:
        cands.append(suggest_chunk_shape(
            w.bounds, w.stripe_size, w.dtype, growth_dims=w.growth_dims))
    except Exception:
        pass
    halved = tuple(max(1, c // 2) for c in w.chunk_shape)
    doubled = tuple(min(b, c * 2) for c, b in zip(w.chunk_shape, w.bounds))
    cands.extend([halved, doubled])
    out: list[tuple[int, ...]] = []
    for c in cands:
        if c not in out:
            out.append(c)
    return out


def _stripe_candidates(w: Workload, chunk_shape) -> list[int]:
    chunk_nbytes = prod(chunk_shape) * w.itemsize
    cands = {w.stripe_size, _pow2_near(chunk_nbytes)}
    for shift in (-1, 1):
        s = w.stripe_size * 2 ** shift
        if 4096 <= s <= 16 << 20:
            cands.add(int(s))
    return sorted(cands)


def _knob_cost(w: Workload, model: CostModel, settings: dict) -> float:
    """Full wall-clock price of one pass under a settings dict."""
    codec_on = settings.get("codec", "none") != "none"
    ratio = settings.get("codec_ratio", 1.0) if codec_on else 1.0
    io = _pass_io_parallel(w, model, settings["chunk_shape"],
                           settings["stripe_size"], ratio)
    cpu = _pass_cpu(w, settings["chunk_shape"], vectorized=True,
                    codec_on=codec_on,
                    codec_rate=settings.get("codec_rate"))
    return _wall(io, cpu, w)


@dataclass
class Advice:
    """The advisor's full output: every candidate, every price."""

    workload: Workload
    candidates: list[Candidate] = field(default_factory=list)

    def chosen(self, knob: str) -> Any:
        for c in self.candidates:
            if c.knob == knob and c.chosen:
                return c.value
        raise KeyError(f"no chosen candidate for knob {knob!r}")

    def settings(self) -> dict:
        return {k: self.chosen(k) for k in KNOBS}

    def to_dict(self) -> dict:
        return {
            "workload": {
                "bounds": list(self.workload.bounds),
                "chunk_shape": list(self.workload.chunk_shape),
                "request_shape": list(self.workload.effective_request),
                "requests": self.workload.requests,
                "stripe_size": self.workload.stripe_size,
                "nservers": self.workload.nservers,
            },
            "candidates": [c.to_dict() for c in self.candidates],
            "settings": {k: (list(v) if isinstance(v, tuple) else v)
                         for k, v in self.settings().items()},
        }

    def explain(self) -> str:
        """The human-readable predicted-vs-observed report."""
        lines = [
            f"workload: bounds={self.workload.bounds} "
            f"chunk={self.workload.chunk_shape} "
            f"request={self.workload.effective_request} "
            f"x{self.workload.requests}",
            f"pfs: stripe={self.workload.stripe_size} "
            f"servers={self.workload.nservers}",
            "",
            f"{'knob':<20}{'candidate':<22}{'predicted':>12}"
            f"{'observed':>12}  note",
        ]
        for c in self.candidates:
            mark = "*" if c.chosen else (">" if c.current else " ")
            obs = f"{c.observed_cost:.4f}s" if c.observed_cost is not None \
                else "-"
            val = "x".join(map(str, c.value)) \
                if isinstance(c.value, tuple) else str(c.value)
            lines.append(
                f"{mark} {c.knob:<18}{val:<22}"
                f"{c.predicted_cost:>11.4f}s{obs:>12}  {c.why}")
        lines.append("")
        lines.append("* = chosen, > = current; costs are cost-model "
                     "seconds per workload pass")
        return "\n".join(lines)


def advise(workload: Workload, observed: Observed | None = None,
           model: CostModel = DEFAULT_COST_MODEL,
           current: dict | None = None) -> Advice:
    """Sweep every knob and return the full candidate table.

    ``current`` pins the settings the handle runs with today (defaults:
    the workload's own geometry, no codec); the matching candidates are
    flagged and — when ``observed`` counters are given — priced a second
    time by replaying those counters through the cost model.
    """
    cur = {
        "chunk_shape": workload.chunk_shape,
        "stripe_size": workload.stripe_size,
        "codec": "none",
    }
    if current:
        cur.update(current)
    obs_cost = observed.replay_cost(model, workload.nservers) \
        if observed is not None else None
    ratio = (observed.codec_ratio() if observed is not None else None)
    rate = (observed.codec_rate() if observed is not None else None)

    advice = Advice(workload)
    settings = dict(cur)
    settings.setdefault("codec_ratio", 1.0)
    settings.setdefault("codec_rate", rate)

    def sweep(knob: str, values, why_fn, extra=None):
        best_val, best_cost = None, math.inf
        rows = []
        for v in values:
            trial = dict(settings)
            trial[knob] = v
            if extra:
                trial.update(extra(v))
            cost = _knob_cost(workload, model, trial)
            rows.append((v, cost))
            if cost < best_cost - 1e-12:
                best_val, best_cost = v, cost
        for v, cost in rows:
            is_cur = (v == cur[knob])
            advice.candidates.append(Candidate(
                knob=knob, value=v, predicted_cost=cost,
                observed_cost=obs_cost if is_cur else None,
                chosen=(v == best_val), current=is_cur,
                why=why_fn(v)))
        settings[knob] = best_val
        if extra:
            settings.update(extra(best_val))

    def chunk_why(v):
        rep = chunk_stripe_report(v, settings["stripe_size"],
                                  workload.dtype)
        return (f"{rep['chunk_nbytes']}B/chunk, "
                f"{rep['worst_case_requests']} req worst case")

    sweep("chunk_shape", _chunk_candidates(workload), chunk_why)

    def stripe_why(v):
        rep = chunk_stripe_report(settings["chunk_shape"], v,
                                  workload.dtype)
        return (f"chunk/stripe ratio {rep['ratio']:.2f}"
                + (", fits one stripe" if rep["fits_one_stripe"] else ""))

    sweep("stripe_size", _stripe_candidates(workload,
                                            settings["chunk_shape"]),
          stripe_why)

    codec_name = cur["codec"] if cur["codec"] != "none" else "zlib"
    codec_vals = ["none", codec_name]
    codec_ratio = ratio if ratio is not None else 1.0

    def codec_extra(v):
        return {"codec_ratio": 1.0 if v == "none" else codec_ratio}

    def codec_why(v):
        if v == "none":
            return "no codec CPU, full-size transfers"
        if ratio is not None:
            return f"observed ratio {ratio:.2f}x"
        return "no observed ratio; assumed incompressible"

    sweep("codec", codec_vals, codec_why, extra=codec_extra)
    return advice


def advise_file(f, request_shape: tuple[int, ...] | None = None,
                requests: int = 1,
                model: CostModel = DEFAULT_COST_MODEL,
                with_observed: bool = True) -> Advice:
    """Advice for a live ``DRXFile`` handle.

    The workload defaults to whole-array scans; the PFS
    geometry is discovered from the backing store when it is
    PFS-backed, else the simulator defaults are assumed.  The codec is
    read off the handle so the report marks what the file runs with
    today.
    """
    meta = f.meta
    stripe, nservers = pfs_geometry(getattr(f, "_data", None))
    w = Workload(bounds=meta.element_bounds, chunk_shape=meta.chunk_shape,
                 dtype=meta.dtype, request_shape=request_shape,
                 requests=requests, stripe_size=stripe, nservers=nservers)
    obs = observed_profile(f) if with_observed else None
    return advise(w, observed=obs, model=model,
                  current={"codec": meta.codec})
