"""``drx-serve`` — run the array service daemon, or query one.

Serve a directory of ``.xmd``/``.xta`` pairs::

    drx-serve --root /data/arrays --port 7870

Serve a fresh simulated parallel file system (demos, soak rigs)::

    drx-serve --pfs 4 --port 7870

Query a running daemon's QoS / substrate counters as JSON::

    drx-serve --host 127.0.0.1 --port 7870 --dump-stats

Observe a *shard set* as one system — pass several ``host:port``
addresses and get each shard's snapshot plus the merged aggregate
(summed QoS counters, max high-water marks, totalled journal gauges)::

    drx-serve --dump-stats 127.0.0.1:7870 127.0.0.1:7871 127.0.0.1:7872

Recover eagerly after a crash (every array's journal is scanned,
committed transactions replayed, the summary printed) instead of
lazily on first open::

    drx-serve --root /data/arrays --recover

Durability has no switch: every mutation is journaled under its
idempotency key and fsynced before its OK.  ``--checkpoint-interval``
bounds journal growth between flushes.

The daemon drains gracefully on SIGTERM / SIGINT: it stops accepting,
answers queued admissions with ``RETRY_LATER``, finishes (or
deadlines-out) in-flight requests, flushes every array, rotates every
journal, and exits 0.
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="drx-serve",
        description="multi-tenant DRX array service daemon")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 = ephemeral, printed on start)")
    backend = p.add_mutually_exclusive_group()
    backend.add_argument("--root", metavar="DIR",
                         help="serve the .xmd/.xta arrays in DIR")
    backend.add_argument("--pfs", type=int, metavar="NSERVERS",
                         help="serve a fresh in-memory parallel file "
                              "system with NSERVERS I/O servers")
    p.add_argument("--max-inflight", type=int, default=8,
                   help="global in-flight request limit")
    p.add_argument("--per-client", type=int, default=4,
                   help="per-client in-flight request limit")
    p.add_argument("--max-queue", type=int, default=16,
                   help="admission queue depth before RETRY_LATER")
    p.add_argument("--checkpoint-interval", type=float, default=None,
                   metavar="SECONDS",
                   help="periodically flush arrays and truncate their "
                        "journals (default: only on flush/drain)")
    p.add_argument("--recover", action="store_true",
                   help="recover every array in the backing store at "
                        "startup (replay journals eagerly) and print "
                        "the per-array summary")
    p.add_argument("--dump-stats", action="store_true",
                   help="query RUNNING daemon(s) and print stats as "
                        "JSON: one daemon at --host/--port, or several "
                        "shards via positional host:port addresses "
                        "(merged per-shard + aggregate snapshot)")
    p.add_argument("addresses", nargs="*", metavar="HOST:PORT",
                   help="shard addresses for --dump-stats (merged view)")
    p.add_argument("--timeout", type=float, default=5.0,
                   help="request deadline for --dump-stats")
    return p


def _parse_address(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"bad address {text!r} (want HOST:PORT)")
    return (host or "127.0.0.1", int(port))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.dump_stats:
        from .shard import HashRing, ShardedClient
        if args.addresses:
            try:
                targets = [_parse_address(a) for a in args.addresses]
            except ValueError as exc:
                print(f"drx-serve: {exc}", file=sys.stderr)
                return 2
        elif args.port != 0:
            targets = [(args.host, args.port)]
        else:
            print("drx-serve: --dump-stats needs --port or HOST:PORT "
                  "addresses", file=sys.stderr)
            return 2
        with ShardedClient(HashRing(targets), client_id="drx-serve-cli",
                           timeout=args.timeout) as shards:
            merged = shards.stats()
        print(json.dumps(merged if len(targets) > 1
                         else merged["shards"][0], indent=2,
                         sort_keys=True))
        return 0

    if args.addresses:
        print("drx-serve: positional addresses only apply to "
              "--dump-stats", file=sys.stderr)
        return 2

    from .server import DRXServer
    kwargs = dict(host=args.host, port=args.port,
                  max_inflight=args.max_inflight,
                  max_inflight_per_client=args.per_client,
                  max_queue=args.max_queue,
                  checkpoint_interval=args.checkpoint_interval)
    if args.pfs is not None:
        from ..pfs import ParallelFileSystem
        server = DRXServer(fs=ParallelFileSystem(nservers=args.pfs),
                           **kwargs)
    else:
        root = args.root if args.root is not None else "."
        server = DRXServer(root=root, **kwargs)
    server.install_signal_handlers()
    server.start()
    if args.recover:
        summary = server.recover_all()
        print(json.dumps({"recovered": summary}, indent=2,
                         sort_keys=True), flush=True)
    host, port = server.address
    print(f"drx-serve: listening on {host}:{port}", flush=True)
    server.wait()
    print("drx-serve: drained, bye", flush=True)
    return 0


if __name__ == "__main__":      # pragma: no cover - module smoke entry
    raise SystemExit(main())
