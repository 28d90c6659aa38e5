"""``repro-energy``: run and report energy/pause Pareto studies.

::

    repro-energy run --gcs ParallelOld CMS G1 \\
        --placements p-cores e-cores adaptive \\
        --topologies asym-hybrid --heap 8g --seeds 1 2 \\
        --store /tmp/energy --out study.json
    repro-energy report study.json

``run`` prints the Pareto table (frontier rows starred) and (with
``--out``) writes the canonical study JSON — byte-identical across
reruns of the same config, which the CI ``study-smoke`` job enforces
with ``cmp``. Cell cache accounting goes to stdout only, never into
the JSON.
"""

from __future__ import annotations

import argparse
import json
from typing import List, Optional

from ..campaign.store import ResultStore
from ..errors import ConfigError
from .placement import PLACEMENT_NAMES
from .study import EnergyStudyConfig, EnergyStudyResult, run_energy_study


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-energy",
        description="energy/pause Pareto study over "
                    "{collector x GC placement x topology}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an energy study")
    run.add_argument("--benchmarks", nargs="+", default=["xalan"],
                     help="DaCapo benchmarks to aggregate over")
    run.add_argument("--gcs", nargs="+",
                     default=["ParallelOldGC", "ConcMarkSweepGC", "G1GC"],
                     help="collectors to study")
    run.add_argument("--placements", nargs="+",
                     default=list(PLACEMENT_NAMES),
                     help="GC placement policies (p-cores, e-cores, adaptive)")
    run.add_argument("--topologies", nargs="+", default=["asym-hybrid"],
                     help="registered machine topologies")
    run.add_argument("--heap", default="8g",
                     help="heap size (HotSpot size string)")
    run.add_argument("--seeds", nargs="+", type=int, default=[1, 2],
                     help="JVM invocations averaged per combination")
    run.add_argument("--iterations", type=int, default=4,
                     help="harness iterations per invocation")
    run.add_argument("--system-gc", action="store_true",
                     help="force a full collection between iterations")
    run.add_argument("--store", default=None, metavar="DIR",
                     help="campaign ResultStore for the study's cells")
    run.add_argument("--out", default=None, metavar="FILE",
                     help="write canonical study JSON here")
    run.set_defaults(func=cmd_run)

    report = sub.add_parser("report",
                            help="render the table from a study JSON")
    report.add_argument("study", help="study JSON written by `run --out`")
    report.set_defaults(func=cmd_report)
    return parser


def cmd_run(args) -> int:
    config = EnergyStudyConfig(
        benchmarks=tuple(args.benchmarks),
        gcs=tuple(args.gcs),
        placements=tuple(args.placements),
        topologies=tuple(args.topologies),
        heap=args.heap,
        seeds=tuple(args.seeds),
        iterations=args.iterations,
        system_gc=args.system_gc,
    )
    store = ResultStore(args.store) if args.store else None
    result = run_energy_study(config, store=store)
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
        result = EnergyStudyResult.from_dict(json.load(fh))
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
