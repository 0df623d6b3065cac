"""The ROMIO-style collective-I/O engine: data sieving + two-phase I/O.

This module implements the two optimizations of Thakur, Gropp & Lusk,
"Data Sieving and Collective I/O in ROMIO" (see PAPERS.md), on top of
the simulated parallel file system:

**Data sieving** (independent noncontiguous access).  A strided or
indexed file view turns one ``Read_at``/``Write_at`` into many small
extents separated by holes.  Instead of issuing them one by one, the
engine reads a single *covering* extent per hole-bearing run group and
extracts the requested pieces in memory; writes become an atomic
read-modify-write of the covering extent (:meth:`PFSFile.sieve_writev`
holds the file lock across the read and the write-back, so concurrent
sieved writers cannot clobber each other).  The price is *wasted* hole
bytes, so merging is gated by a hole-size threshold
(``romio_ds_read``/``romio_ds_write`` = ``auto``) or unleashed up to the
independent buffer size (``enable``).

**Two-phase collective buffering** (``Read_at_all``/``Write_at_all``).
The aggregate byte range of all ranks is partitioned into contiguous,
stripe-aligned *file domains*, each owned by one *aggregator* rank
(``cb_nodes`` of them, placed one per simulated node via the pluggable
:meth:`Intracomm.node_map`).  Phase A exchanges requests and data
point-to-point — O(total data) bytes, not the O(P x data) of a
bulletin-board broadcast — so only aggregators ever touch the PFS.
Payloads pass by reference (ranks are threads of one process), so a
read's aggregator hands the PFS views into each requesting rank's own
buffer, and the servers copy every byte once, straight from their
stores into the rank that asked for it; a write's aggregator hands
views into each rank's buffer straight to the PFS.  Nothing is staged
or carved on the aggregator.
Phase B issues one large vectored request per aggregator per
``cb_buffer_size`` window, data-sieving hole-bearing windows.
Overlapping collective writers are legal and resolved in rank order
(the higher rank's bytes win, matching the serial reference in which
ranks write one after the other).

Aggregator PFS calls funnel through :meth:`PFSFile.readv`/``writev``,
which visit the servers on the aggregator's own thread, in server
order; under an armed fault plan the aggregators additionally serialize
phase B in aggregator order through a token chain, so kill sites fire
in one scripted order across ranks too.

Both optimizations are one kernel: coalesce the requested extents into
runs, merge runs across tolerable holes into covering groups, move the
covering extents window by window.  A read names the requested pieces
as sinks of the covering read, so the hole bytes it reads through are
accounted but land nowhere.  Independent sieving is phase B with one
source and one window.

Steering comes from MPI-IO hints only (``info`` at ``File.Open`` /
``Set_info`` / ``Set_view``), resolved once into a
:class:`CollectiveHints` stored on the file.

Everything is accounted in :class:`~repro.pfs.stats.CollectiveStats`
(``PFSFile.cstats``): requests before/after aggregation, sieve covering
reads and read-modify-writes, wasted hole bytes, phase-A exchange
bytes and time, phase-B simulated I/O time.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Any, Iterable, Iterator, Sequence

from ..core.errors import MPIFileError
from ..core import faultsites
from ..core.faultsites import crash_point
from ..pfs.pfile import PFSFile
from ..pfs.striping import Extent, coalesce_extents

__all__ = ["CollectiveHints", "HINT_KEYS", "account",
           "choose_aggregators", "file_domains",
           "sieved_readv", "sieved_writev",
           "two_phase_read", "two_phase_write"]

#: phase-A mailbox tags (collectives are globally ordered per
#: communicator, and (source, tag) matching is FIFO per pair, so fixed
#: tags cannot mismatch across consecutive collective operations)
TAG_REQ = 0x7E01     # requests (reads) / requests + data (writes)
TAG_DATA = 0x7E02    # read replies, aggregator -> requester
TAG_TOKEN = 0x7E03   # aggregator serialization under armed faults

#: ``auto`` is ``enable``: only ``disable`` turns two-phase off
_CB_MODES = ("enable", "disable", "auto")
_DS_MODES = ("enable", "disable", "auto")


@dataclass(frozen=True)
class CollectiveHints:
    """Resolved MPI-IO hints (ROMIO names)."""

    #: number of aggregator ranks; None = one per simulated node
    cb_nodes: int | None = None
    #: bytes an aggregator moves per phase-B window
    cb_buffer_size: int = 4 << 20
    #: covering-extent cap for independent sieved reads
    ind_rd_buffer_size: int = 4 << 20
    #: covering-extent cap for independent sieved writes
    ind_wr_buffer_size: int = 512 << 10
    #: two-phase on reads: enable | disable | auto
    romio_cb_read: str = "auto"
    #: two-phase on writes: enable | disable | auto
    romio_cb_write: str = "auto"
    #: data sieving on reads: enable | disable | auto
    romio_ds_read: str = "auto"
    #: data sieving on writes: enable | disable | auto
    romio_ds_write: str = "auto"
    #: largest hole ``auto`` sieving will read through
    ds_hole_threshold: int = 4096

    @classmethod
    def resolve(cls, info: dict | None = None) -> "CollectiveHints":
        """Validate ``info`` over the defaults."""
        vals: dict[str, Any] = {}
        for key, val in (info or {}).items():
            if key not in HINT_KEYS:
                raise MPIFileError(
                    f"unknown hint {key!r} (known: {sorted(HINT_KEYS)})")
            if key.startswith("romio_"):
                mode = str(val).lower()
                allowed = _CB_MODES if "cb" in key else _DS_MODES
                if mode not in allowed:
                    raise MPIFileError(
                        f"hint {key}={val!r} not in {allowed}")
                vals[key] = mode
            else:
                try:
                    n = int(val)
                except (TypeError, ValueError):
                    raise MPIFileError(
                        f"hint {key}={val!r} is not an integer") from None
                if key == "ds_hole_threshold":
                    if n < 0:
                        raise MPIFileError(f"hint {key}={n} must be >= 0")
                elif n < 1:
                    raise MPIFileError(f"hint {key}={n} must be >= 1")
                vals[key] = n
        return cls(**vals)

    def digest(self) -> tuple:
        """Comparable fingerprint for cross-rank consistency checks."""
        return tuple(getattr(self, f.name) for f in fields(self))

    def as_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


HINT_KEYS = tuple(f.name for f in fields(CollectiveHints))


# ---------------------------------------------------------------------------
# stats plumbing
# ---------------------------------------------------------------------------

def account(pfile: PFSFile, **deltas: Any) -> None:
    """Accumulate counter deltas into the file's shared CollectiveStats."""
    with pfile.cstats_lock:
        cs = pfile.cstats
        for key, val in deltas.items():
            setattr(cs, key, getattr(cs, key) + val)


# ---------------------------------------------------------------------------
# aggregator placement and file domains
# ---------------------------------------------------------------------------

def choose_aggregators(comm, hints: CollectiveHints) -> list[int]:
    """Pick the aggregator ranks, topology-aware.

    One aggregator per simulated node first (nodes in order of their
    first rank), then a second rank per node, and so on until
    ``cb_nodes`` aggregators are chosen.  With the default node map
    (every rank on one node) and no ``cb_nodes`` hint this degenerates
    to a single aggregator, rank 0.
    """
    node_of = comm.node_map()
    by_node: dict[int, list[int]] = {}
    node_order: list[int] = []
    for rank, node in enumerate(node_of):
        if node not in by_node:
            by_node[node] = []
            node_order.append(node)
        by_node[node].append(rank)
    want = hints.cb_nodes if hints.cb_nodes is not None else len(node_order)
    want = max(1, min(int(want), comm.size))
    aggs: list[int] = []
    sweep = 0
    while len(aggs) < want:
        added = False
        for node in node_order:
            ranks = by_node[node]
            if sweep < len(ranks):
                aggs.append(ranks[sweep])
                added = True
                if len(aggs) == want:
                    break
        sweep += 1
        if not added:       # pragma: no cover - want is capped at size
            break
    return sorted(aggs)


def file_domains(lo: int, hi: int, ndomains: int, align: int) -> list[int]:
    """Split ``[lo, hi)`` into ``ndomains`` contiguous domains.

    Returns the ``ndomains + 1`` boundary offsets.  Interior boundaries
    are aligned down to a stripe boundary so one stripe never straddles
    two aggregators; a boundary collapsing onto its neighbour simply
    leaves that domain empty.
    """
    span = hi - lo
    bounds = [lo]
    for i in range(1, ndomains):
        b = lo + (span * i) // ndomains
        b -= b % align
        bounds.append(min(hi, max(b, bounds[-1])))
    bounds.append(hi)
    return bounds


def _domain_splits(extents: Sequence[Extent], bounds: list[int]
                   ) -> list[list[tuple[int, int, int]]]:
    """Chop data-ordered extents at the domain boundaries.

    Returns, per domain, ``(offset, length, data_position)`` pieces in
    data order — the third element locates the piece in the rank's flat
    data buffer, which is how replies are stitched back (reads) and how
    payloads are carved out (writes).
    """
    ndom = len(bounds) - 1
    out: list[list[tuple[int, int, int]]] = [[] for _ in range(ndom)]
    pos = 0
    for off, length in extents:
        cur = off
        end = off + length
        while cur < end:
            d = min(bisect_right(bounds, cur) - 1, ndom - 1)
            stop = min(end, bounds[d + 1])
            out[d].append((cur, stop - cur, pos + (cur - off)))
            cur = stop
        pos += length
    return out


# ---------------------------------------------------------------------------
# the aggregation kernel: covering groups, moved window by window
# ---------------------------------------------------------------------------

#: a covering group: (start, end, holes, useful_bytes, first_run, end_run)
Group = tuple[int, int, int, int, int, int]


def _plan_groups(runs: list[Extent], max_hole: int, max_cover: int
                 ) -> list[Group]:
    """Merge coalesced runs across holes into covering groups.

    ``runs`` must be sorted and disjoint (``coalesce_extents`` output).
    Holes no larger than ``max_hole`` are merged as long as the covering
    extent stays within ``max_cover``.
    """
    groups: list[Group] = []
    for i, (off, length) in enumerate(runs):
        if groups:
            s, e, holes, useful, i0, _i1 = groups[-1]
            gap = off - e
            if 0 < gap <= max_hole and (off + length) - s <= max_cover:
                groups[-1] = (s, off + length, holes + 1,
                              useful + length, i0, i + 1)
                continue
        groups.append((off, off + length, 0, length, i, i + 1))
    return groups


def _sieve_plan(extents: list[Extent], mode: str, hints: CollectiveHints,
                cap: int) -> tuple[list[Extent], list[Group]]:
    """Coalesce ``extents`` into runs and merge the runs into covering
    groups no longer than ``cap``, as the ``romio_ds_*`` ``mode``
    allows.  Returns ``(runs, groups)``."""
    runs = coalesce_extents(extents)
    # largest hole to read through: none when sieving is off, anything
    # the buffer covers when forced on, the threshold under ``auto``
    max_hole = {"disable": -1, "enable": cap}.get(mode,
                                                  hints.ds_hole_threshold)
    return runs, _plan_groups(runs, max_hole, cap)


def _windows(groups: Iterable[Group], cap: int | None
             ) -> Iterator[list[Group]]:
    """Batch covering groups into windows of at most ``cap`` bytes
    (``None``: everything in one window)."""
    win: list[Group] = []
    size = 0
    for g in groups:
        glen = g[1] - g[0]
        if win and cap is not None and size + glen > cap:
            yield win
            win, size = [], 0
        win.append(g)
        size += glen
    if win:
        yield win


def _read_into(pfile: PFSFile, groups: list[Group], window: int | None,
                 sinks: list[tuple[int, Any]],
                 sieve_site: str | None = None) -> float:
    """Read every group's covering extent, one vectored request per
    window, the PFS copying the requested bytes straight into ``sinks``
    — ``(offset, view)`` pairs, each inside one group (a piece never
    straddles the run that covers it).  Hole bytes land nowhere.
    Returns the summed simulated time; ``sieve_site`` names the crash
    point visited before a hole-bearing window."""
    wins = list(_windows(groups, window))
    starts = [win[0][0] for win in wins]
    per_win: list[list[tuple[int, Any]]] = [[] for _ in wins]
    for sink in sinks:
        per_win[bisect_right(starts, sink[0]) - 1].append(sink)
    io_t = 0.0
    after = 0
    for win, into in zip(wins, per_win):
        if sieve_site and any(g[2] for g in win):
            crash_point(sieve_site)
        covering = [(s, e - s) for s, e, *_ in win]
        io_t += pfile.readv(covering, into)[1]
        after += len(covering)
    account(pfile,
            sieve_reads=sum(1 for g in groups if g[2]),
            wasted_bytes=sum((e - s) - u for s, e, _h, u, *_ in groups),
            requests_after=after)
    return io_t


def _sinks(pieces: Iterable[tuple[int, int, int]], dest
           ) -> list[tuple[int, memoryview]]:
    """The ``(offset, view)`` read sinks of ``(offset, length,
    data_position)`` pieces: each a view of ``dest`` at its data
    position."""
    view = memoryview(dest).cast("B")
    return [(off, view[at:at + n]) for off, n, at in pieces if n]


def _write_groups(pfile: PFSFile,
                  sources: list[tuple[list[tuple[int, int, int]], Any]],
                  runs: list[Extent], groups: list[Group],
                  window: int | None,
                  sieve_site: str | None = None) -> float:
    """Write every source's ``(pieces, data)`` — its ``(offset, length,
    data_position)`` pieces and the byte view they index — into the
    coalesced ``runs``, window by window: hole-free runs in one vectored
    write, hole-bearing groups as read-modify-writes of the covering
    extent (see :meth:`PFSFile.sieve_writev` for why that is
    concurrency-safe).  The pieces travel as views into the sources'
    own buffers, in source order, so a later source wins an overlap.
    Returns the summed simulated time; ``sieve_site`` names the crash
    point visited before a window with a read-modify-write."""
    run_starts = [s for s, _n in runs]
    by_run: list[list[tuple[int, memoryview]]] = [[] for _ in runs]
    for pieces, data in sources:
        view = memoryview(data)
        for off, length, at in pieces:
            by_run[bisect_right(run_starts, off) - 1].append(
                (off, view[at:at + length]))
    io_t = 0.0
    after = rmw_n = waste = 0
    for win in _windows(groups, window):
        direct_ext: list[Extent] = []
        direct: list[tuple[int, memoryview]] = []
        rmw: list[tuple[int, int, list[tuple[int, memoryview]]]] = []
        for s, e, holes, useful, i0, i1 in win:
            if holes == 0:      # hole-free group is exactly one run
                direct_ext.append((s, e - s))
                direct.extend(by_run[i0])
            else:
                rmw.append((s, e - s,
                            [p for i in range(i0, i1) for p in by_run[i]]))
                waste += (e - s) - useful
        if sieve_site and rmw:
            crash_point(sieve_site)
        io_t += pfile.sieve_writev((direct_ext, direct), rmw)
        after += len(direct_ext) + len(rmw)
        rmw_n += len(rmw)
    account(pfile, sieve_rmw=rmw_n, wasted_bytes=waste,
            requests_after=after)
    return io_t


# ---------------------------------------------------------------------------
# independent data sieving: the kernel with one source and one window
# ---------------------------------------------------------------------------

def _data_pieces(extents: Iterable[Extent]) -> list[tuple[int, int, int]]:
    """``(offset, length, data_position)`` of data-ordered extents packed
    back to back from position 0."""
    out = []
    pos = 0
    for off, n in extents:
        out.append((off, n, pos))
        pos += n
    return out


def sieved_readv(pfile: PFSFile, extents: list[Extent],
                 hints: CollectiveHints, dest) -> float:
    """Independent vectored read with data sieving into ``dest``, a
    writable byte view at least as long as ``extents``: the bytes land
    in data order from position 0.  Returns the simulated time.

    The extents themselves are read whenever sieving is disabled or no
    hole gets merged; otherwise one vectored read of the covering
    extents.  Either way the pieces' places in ``dest`` are the
    :meth:`PFSFile.readv` sinks, so the servers copy straight into it.
    """
    _runs, groups = _sieve_plan(extents, hints.romio_ds_read, hints,
                                hints.ind_rd_buffer_size)
    sinks = _sinks(_data_pieces(extents), dest)
    if not any(g[2] for g in groups):
        return pfile.readv(extents, sinks)[1]
    elapsed = _read_into(pfile, groups, None, sinks)
    account(pfile, requests_before=len(extents))
    return elapsed


def sieved_writev(pfile: PFSFile, extents: list[Extent], data,
                  hints: CollectiveHints) -> float:
    """Independent vectored write with data sieving.

    Falls through to a plain ``pfile.writev`` whenever sieving is
    disabled or no hole gets merged; otherwise hole-bearing run groups
    become atomic read-modify-writes of the covering extent.
    """
    runs, groups = _sieve_plan(extents, hints.romio_ds_write, hints,
                               hints.ind_wr_buffer_size)
    if not any(g[2] for g in groups):
        return pfile.writev(extents, data)
    elapsed = _write_groups(pfile, [(_data_pieces(extents), data)], runs,
                            groups, None)
    account(pfile, requests_before=len(extents))
    return elapsed


# ---------------------------------------------------------------------------
# two-phase collective I/O
# ---------------------------------------------------------------------------

def _agree(comm, pfile: PFSFile, extents: list[Extent],
           hints: CollectiveHints) -> tuple[float, list[tuple]]:
    """Open a collective: every rank publishes its byte range, request
    count and hint digest (this allgather is also the operation's
    synchronization).  Returns the start time and the gathered meta."""
    lo = min(o for o, _n in extents) if extents else None
    hi = max(o + n for o, n in extents) if extents else None
    t0 = time.perf_counter()
    meta = comm.allgather((lo, hi, len(extents), hints.digest()))
    if len({m[3] for m in meta}) > 1:
        raise MPIFileError(
            "collective I/O hints differ across ranks; set them "
            "identically (File.Set_info is collective configuration)")
    if comm.rank == 0:
        account(pfile, collectives=1,
                requests_before=sum(m[2] for m in meta))
    return t0, meta


def _domains(comm, pfile: PFSFile, extents: list[Extent],
             hints: CollectiveHints, meta: list[tuple]
             ) -> tuple[list[int], list[list[tuple[int, int, int]]]]:
    """Partition the aggregate byte range into one stripe-aligned file
    domain per aggregator.  Returns the aggregator ranks and this
    rank's extents chopped per domain (see :func:`_domain_splits`),
    both empty when no rank moves a byte; visits the ``exchange`` crash
    site once the split is planned."""
    los = [m[0] for m in meta if m[0] is not None]
    if not los:
        return [], []
    agg_hi = max(m[1] for m in meta if m[1] is not None)
    aggs = choose_aggregators(comm, hints)
    bounds = file_domains(min(los), agg_hi, len(aggs),
                          pfile.layout.stripe_size)
    mine = _domain_splits(extents, bounds)
    crash_point("server.kill.collective.exchange")
    return aggs, mine


def _faults_armed(pfile: PFSFile) -> bool:
    """Whether any fault machinery — an active fault-site plan or a
    per-server fault plan — is observing ``pfile``'s servers."""
    return faultsites.any_active() or any(
        s.fault_plan is not None for s in pfile.servers)


@contextmanager
def _aggregator_turn(comm, pfile: PFSFile, aggs: list[int]):
    """Phase B of one aggregator.  Under an armed fault plan the
    aggregators take turns in aggregator order (a token chain), so
    scripted fault schedules see a deterministic PFS call order."""
    my_idx = aggs.index(comm.rank)
    serialize = _faults_armed(pfile) and len(aggs) > 1
    if serialize and my_idx > 0:
        comm.recv(source=aggs[my_idx - 1], tag=TAG_TOKEN)
    yield
    if serialize and my_idx + 1 < len(aggs):
        comm.send(None, aggs[my_idx + 1], tag=TAG_TOKEN)


def two_phase_read(comm, pfile: PFSFile, extents: list[Extent],
                   hints: CollectiveHints, dest) -> None:
    """Collective read through two-phase buffering into ``dest``, a
    writable byte view at least as long as ``extents`` (which must be
    clamped); this rank's bytes land in data order from position 0.

    Phase A ships ``dest`` itself with this rank's request to every
    aggregator (:meth:`Intracomm.exchange_p2p` passes payloads by
    reference).  Each aggregator hands the requested pieces to
    :meth:`PFSFile.readv` as sinks into it, so the servers fill ``dest``
    directly and nothing is carved; the aggregator then answers with a
    bare completion message.  ``exchange_bytes`` counts the bytes
    delivered.
    ``dest`` is undefined when the collective fails: with several
    aggregators, one may have filled its part before another raised."""
    t0, meta = _agree(comm, pfile, extents, hints)
    if hints.romio_cb_read == "disable":
        # every rank accesses the PFS itself (sieved); the allgather
        # above already provided the collective synchronization
        sieved_readv(pfile, extents, hints, dest)
        return
    aggs, mine = _domains(comm, pfile, extents, hints, meta)
    if not aggs:
        return
    incoming = comm.exchange_p2p(
        {agg: (mine[d], dest) for d, agg in enumerate(aggs)},
        range(comm.size) if comm.rank in aggs else (),
        TAG_REQ)
    done: dict[int, None] = {}
    if comm.rank in aggs:
        account(pfile, exchange_time=time.perf_counter() - t0)
        with _aggregator_turn(comm, pfile, aggs):
            crash_point("server.kill.collective.read")
            # phase B: serve this file domain, one vectored request per
            # collective-buffer window
            flat = [(off, n) for src in range(comm.size)
                    for off, n, _p in incoming[src][0]]
            _runs, groups = _sieve_plan(flat, hints.romio_ds_read, hints,
                                        hints.cb_buffer_size)
            io_t = _read_into(
                pfile, groups, hints.cb_buffer_size,
                [sink for src in range(comm.size)
                 for sink in _sinks(*incoming[src])],
                "server.kill.collective.sieve")
            account(pfile, io_time=io_t)
        account(pfile, exchange_bytes=sum(
            n for src in range(comm.size) for _o, n, _p in incoming[src][0]))
        done = dict.fromkeys(range(comm.size))
    # ``dest`` is complete once every aggregator has answered
    comm.exchange_p2p(done, aggs, TAG_DATA)


def two_phase_write(comm, pfile: PFSFile, extents: list[Extent],
                    data, hints: CollectiveHints) -> None:
    """Collective write through two-phase buffering.  Overlapping
    writers are resolved in rank order (higher rank wins).

    ``data`` is a contiguous byte view of this rank's payload in data
    order, borrowed until the call returns: phase A ships it by
    reference with this rank's pieces to every aggregator, and the
    aggregators' phase B hands views into it straight to the PFS, which
    copies each byte once, into the server store."""
    t0, meta = _agree(comm, pfile, extents, hints)
    if hints.romio_cb_write == "disable":
        sieved_writev(pfile, extents, data, hints)
        comm.barrier()
        return
    aggs, mine = _domains(comm, pfile, extents, hints, meta)
    if not aggs:
        comm.barrier()
        return
    account(pfile, exchange_bytes=sum(
        n for pieces in mine for _off, n, _p in pieces))
    incoming = comm.exchange_p2p(
        {agg: (mine[d], data) for d, agg in enumerate(aggs)},
        range(comm.size) if comm.rank in aggs else (),
        TAG_REQ)
    if comm.rank in aggs:
        account(pfile, exchange_time=time.perf_counter() - t0)
        with _aggregator_turn(comm, pfile, aggs):
            crash_point("server.kill.collective.write")
            # phase B: every rank's pieces in rank order, flushed per
            # collective-buffer window
            sources = [incoming[src] for src in range(comm.size)]
            flat = [(off, n) for pieces, _data in sources
                    for off, n, _p in pieces]
            runs, groups = _sieve_plan(flat, hints.romio_ds_write, hints,
                                       hints.cb_buffer_size)
            io_t = _write_groups(pfile, sources, runs, groups,
                                 hints.cb_buffer_size,
                                 "server.kill.collective.sieve")
            account(pfile, io_time=io_t)
    # the senders' buffers are free once every aggregator has written
    comm.barrier()
