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

from typing import List, Optional

from ..cli import FLAGS, add_flags, load_study, study_command
from .policies import POLICY_NAMES
from .study import FleetStudyConfig, FleetStudyResult, run_fleet_study
from .traffic import TrafficConfig


def _add_run_args(p) -> None:
    add_flags(p, "gcs")
    p.add_argument("--policies", nargs="+", default=list(POLICY_NAMES),
                   choices=list(POLICY_NAMES),
                   help="balancing policies to compare")
    p.add_argument("--nodes", type=int, default=16,
                   help="initial fleet size")
    FLAGS["duration"](p, help="simulated seconds (default: one day)")
    p.add_argument("--period", type=float, default=86_400.0,
                   help="diurnal period in simulated seconds")
    p.add_argument("--users", type=int, default=2_000_000,
                   help="simulated user population")
    FLAGS["seed"](p, help="study seed")
    p.add_argument("--calibration-duration", type=float, default=3600.0,
                   help="simulated seconds per calibration JVM run")
    p.set_defaults(gcs=["ParallelOld", "CMS", "G1"], duration=86_400.0)


def _run(args, store):
    result = run_fleet_study(FleetStudyConfig(
        gcs=tuple(args.gcs),
        policies=tuple(args.policies),
        n_nodes=args.nodes,
        duration=args.duration,
        traffic=TrafficConfig(users=args.users, period=args.period),
        calibration_duration=args.calibration_duration,
        seed=args.seed,
    ), store=store)
    return result, result.calibration_hits, result.calibration_total


def _plot(args) -> int:
    result = load_study(args.study, FleetStudyResult)
    if args.kind == "nodes":
        print(result.plot_nodes(args.gc))
    else:
        print(result.plot_tail(args.gc))
    return 0


def _add_plot(sub) -> None:
    p = sub.add_parser("plot", help="ASCII plots from a study JSON")
    p.add_argument("study", help="study JSON written by `run --out`")
    FLAGS["gc"](p, required=True, default=None, help="collector to plot")
    p.add_argument("--kind", choices=["nodes", "tail"], default="nodes",
                   help="nodes: fleet size over time; tail: P50..P99.9")
    p.set_defaults(fn=_plot)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-fleet``."""
    return study_command(
        argv, prog="repro-fleet",
        description="GC-aware fleet load balancing and scaling studies",
        add_run_args=_add_run_args, run=_run, result_cls=FleetStudyResult,
        hits="calibration", add_commands=_add_plot)
