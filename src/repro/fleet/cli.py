"""``repro-fleet``: run, report and plot fleet studies.

::

    repro-fleet run --nodes 16 --gcs ParallelOld CMS --store /tmp/fleet \\
        --out study.json
    repro-fleet report study.json
    repro-fleet plot study.json --gc CMS --kind nodes

``run`` prints the comparison tables and (with ``--out``) writes the
canonical study JSON — byte-identical across reruns of the same seed,
which the CI study-smoke job enforces with ``cmp``. Calibration cache
accounting goes to stdout only, never into the JSON.
"""

from __future__ import annotations

import argparse
import json
from typing import List, Optional

from ..campaign.store import ResultStore
from ..errors import ConfigError
from .policies import POLICY_NAMES
from .study import FleetStudyConfig, FleetStudyResult, run_fleet_study
from .traffic import TrafficConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fleet",
        description="GC-aware fleet load balancing and scaling studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a fleet study")
    run.add_argument("--gcs", nargs="+", default=["ParallelOld", "CMS", "G1"],
                     help="collectors to study")
    run.add_argument("--policies", nargs="+", default=list(POLICY_NAMES),
                     choices=list(POLICY_NAMES),
                     help="balancing policies to compare")
    run.add_argument("--nodes", type=int, default=16,
                     help="initial fleet size")
    run.add_argument("--duration", type=float, default=86_400.0,
                     help="simulated seconds (default: one day)")
    run.add_argument("--period", type=float, default=86_400.0,
                     help="diurnal period in simulated seconds")
    run.add_argument("--users", type=int, default=2_000_000,
                     help="simulated user population")
    run.add_argument("--seed", type=int, default=0, help="study seed")
    run.add_argument("--calibration-duration", type=float, default=3600.0,
                     help="simulated seconds per calibration JVM run")
    run.add_argument("--store", default=None, metavar="DIR",
                     help="campaign ResultStore for calibration cells")
    run.add_argument("--out", default=None, metavar="FILE",
                     help="write canonical study JSON here")
    run.set_defaults(func=cmd_run)

    report = sub.add_parser("report", help="render tables from a study JSON")
    report.add_argument("study", help="study JSON written by `run --out`")
    report.set_defaults(func=cmd_report)

    plot = sub.add_parser("plot", help="ASCII plots from a study JSON")
    plot.add_argument("study", help="study JSON written by `run --out`")
    plot.add_argument("--gc", required=True, help="collector to plot")
    plot.add_argument("--kind", choices=["nodes", "tail"], default="nodes",
                      help="nodes: fleet size over time; tail: P50..P99.9")
    plot.set_defaults(func=cmd_plot)
    return parser


def cmd_run(args) -> int:
    config = FleetStudyConfig(
        gcs=tuple(args.gcs),
        policies=tuple(args.policies),
        n_nodes=args.nodes,
        duration=args.duration,
        traffic=TrafficConfig(users=args.users, period=args.period),
        calibration_duration=args.calibration_duration,
        seed=args.seed,
    )
    store = ResultStore(args.store) if args.store else None
    result = run_fleet_study(config, store=store)
    # Cache accounting stays OUT of the JSON: a cached rerun must be
    # byte-identical to the run that populated the cache.
    print(f"calibration: {result.calibration_hits}/"
          f"{result.calibration_total} cache hits")
    print(result.render())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(result.to_json())
        print(f"study written to {args.out}")
    return 0


def _load(path: str) -> FleetStudyResult:
    with open(path) as fh:
        return FleetStudyResult.from_dict(json.load(fh))


def cmd_report(args) -> int:
    print(_load(args.study).render())
    return 0


def cmd_plot(args) -> int:
    result = _load(args.study)
    if args.kind == "nodes":
        print(result.plot_nodes(args.gc))
    else:
        print(result.plot_tail(args.gc))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}")
        return 2
