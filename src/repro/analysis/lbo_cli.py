"""``repro-lbo``: run and report LBO cost-distillation studies.

::

    repro-lbo run --benchmarks xalan --gcs ParallelOld ZGC \\
        --heaps 8g 16g 32g --seeds 1 2 3 --store /tmp/lbo --out study.json
    repro-lbo report study.json

``run`` prints the distilled-cost table and (with ``--out``) writes the
canonical study JSON — byte-identical across reruns of the same config,
which the CI ``study-smoke`` job enforces with ``cmp``. Cell cache
accounting goes to stdout only, never into the JSON.
"""

from __future__ import annotations

import argparse
import json
from typing import List, Optional

from ..campaign.store import ResultStore
from ..errors import ConfigError
from ..gc.registry import TABLE8_GC_NAMES
from .lbo import LBOConfig, LBOStudyResult, run_lbo_study


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lbo",
        description="LBO cost distillation: min-over-heaps GC overhead "
                    "vs an ideal no-GC baseline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an LBO study")
    run.add_argument("--benchmarks", nargs="+", default=["xalan"],
                     help="DaCapo benchmarks to distill over")
    run.add_argument("--gcs", nargs="+", default=list(TABLE8_GC_NAMES),
                     help="collectors to distill (the EpsilonGC baseline "
                          "is implicit)")
    run.add_argument("--heaps", nargs="+", default=["8g", "16g", "32g"],
                     help="heap-size ladder (HotSpot size strings)")
    run.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3],
                     help="JVM invocations averaged per cell")
    run.add_argument("--iterations", type=int, default=6,
                     help="harness iterations per invocation")
    run.add_argument("--system-gc", action="store_true",
                     help="force a full collection between iterations")
    run.add_argument("--store", default=None, metavar="DIR",
                     help="campaign ResultStore for the study's cells")
    run.add_argument("--out", default=None, metavar="FILE",
                     help="write canonical study JSON here")
    run.set_defaults(func=cmd_run)

    report = sub.add_parser("report", help="render the table from a study JSON")
    report.add_argument("study", help="study JSON written by `run --out`")
    report.set_defaults(func=cmd_report)
    return parser


def cmd_run(args) -> int:
    config = LBOConfig(
        benchmarks=tuple(args.benchmarks),
        gcs=tuple(args.gcs),
        heaps=tuple(args.heaps),
        seeds=tuple(args.seeds),
        iterations=args.iterations,
        system_gc=args.system_gc,
    )
    store = ResultStore(args.store) if args.store else None
    result = run_lbo_study(config, store=store)
    # Cache accounting stays OUT of the JSON: a cached rerun must be
    # byte-identical to the run that populated the cache.
    print(f"cells: {result.cache_hits}/{result.cells_total} cache hits")
    print(result.render())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(result.to_json())
        print(f"study written to {args.out}")
    return 0


def cmd_report(args) -> int:
    with open(args.study) as fh:
        result = LBOStudyResult.from_dict(json.load(fh))
    print(result.render())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}")
        return 2
