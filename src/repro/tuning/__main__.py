"""Advisor CLI: ``python -m repro.tuning report``.

Prints the full predicted-vs-observed candidate table for a workload
described on the command line (no live handle needed — the costs come
from the analytic model), or a one-line chunk-shape suggestion via
``suggest``::

    python -m repro.tuning report --bounds 4096,4096 --chunk 64,64
    python -m repro.tuning report --bounds 4096,4096 --chunk 64,64 \\
        --request 512,512 --requests 64
    python -m repro.tuning suggest --bounds 4096,4096 --stripe 65536
"""

from __future__ import annotations

import argparse
import json
import sys

from . import Workload, advise, suggest_chunk_shape


def _dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(x) for x in text.split(",") if x != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dimension list {text!r}")
    if not dims or any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError(f"bad dimension list {text!r}")
    return dims


def _indices(text: str) -> tuple[int, ...]:
    try:
        idx = tuple(int(x) for x in text.split(",") if x != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad index list {text!r}")
    if any(d < 0 for d in idx):
        raise argparse.ArgumentTypeError(f"bad index list {text!r}")
    return idx


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.tuning",
        description="cost-model-driven tuning advice for DRX arrays")
    sub = p.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="full knob-by-knob advice table")
    rep.add_argument("--bounds", type=_dims, required=True,
                     help="array element bounds, e.g. 4096,4096")
    rep.add_argument("--chunk", type=_dims, required=True,
                     help="current chunk shape, e.g. 64,64")
    rep.add_argument("--dtype", default="double")
    rep.add_argument("--request", type=_dims, default=None,
                     help="per-request box shape (default: whole array)")
    rep.add_argument("--requests", type=int, default=1)
    rep.add_argument("--stripe", type=int, default=64 * 1024)
    rep.add_argument("--servers", type=int, default=4)
    rep.add_argument("--growth-dims", type=_indices, default=None,
                     help="dimensions expected to extend, e.g. 0")
    rep.add_argument("--codec", default="none",
                     help="codec the array currently uses")
    rep.add_argument("--json", action="store_true",
                     help="emit the machine-readable advice document")

    sug = sub.add_parser("suggest", help="one-line chunk-shape suggestion")
    sug.add_argument("--bounds", type=_dims, required=True)
    sug.add_argument("--stripe", type=int, default=64 * 1024)
    sug.add_argument("--dtype", default="double")
    sug.add_argument("--growth-dims", type=_indices, default=None)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    growth = tuple(args.growth_dims) if args.growth_dims else ()
    if args.command == "suggest":
        shape = suggest_chunk_shape(args.bounds, args.stripe, args.dtype,
                                    growth_dims=growth)
        print("x".join(map(str, shape)))
        return 0
    w = Workload(bounds=args.bounds, chunk_shape=args.chunk,
                 dtype=args.dtype, request_shape=args.request,
                 requests=args.requests, stripe_size=args.stripe,
                 nservers=args.servers, growth_dims=growth)
    advice = advise(w, current={"codec": args.codec})
    if args.json:
        json.dump(advice.to_dict(), sys.stdout, indent=2)
        print()
    else:
        print(advice.explain())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
