"""The ``repro-campaign`` command: run / status / resume / clean.

``run`` executes a grid campaign (and is implicitly resumable: cells
already in the store are cache hits); ``resume`` re-runs the spec
recorded in a store's manifest without re-typing the axes; ``status``
inspects a store; ``clean`` clears records.

Examples::

    repro-campaign run --name smoke --store /tmp/camp \\
        --benchmarks lusearch batik --gcs Serial ParallelOld \\
        --heaps 1g --youngs 256m --seeds 0 1 --iterations 3 \\
        --executor process --workers 4 --progress
    repro-campaign status --store /tmp/camp
    repro-campaign resume --store /tmp/camp --workers 2
    repro-campaign clean --store /tmp/camp --failures-only
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..analysis.report import render_campaign_summary, render_table
from ..cli import FLAGS, add_flags, run_command
from ..errors import ConfigError
from ..studies import GridSpec
from .progress import WALL_CLOCK, ProgressReporter
from .runner import CampaignResult, run_campaign
from .spec import CampaignSpec
from .store import ResultStore, store_status


def add_grid_args(parser: argparse.ArgumentParser) -> None:
    """The grid axes ``campaign run`` and ``repro-cluster submit`` take."""
    grid = parser.add_argument_group("grid axes")
    FLAGS["benchmarks"](grid, required=True)
    add_flags(grid, "gcs", "heaps", "youngs", "seeds")
    FLAGS["iterations"](grid, short=False, help="DaCapo iterations per cell")
    add_flags(grid, "no-system-gc", "no-tlab")


def _add_exec_args(parser: argparse.ArgumentParser) -> None:
    ex = parser.add_argument_group("execution")
    add_flags(ex, "executor", "workers", "timeout", "retries", "progress")
    ex.add_argument("--csv", default=None, help="export all cells to a CSV file")
    ex.add_argument("--trace-dir", default=None, metavar="DIR",
                    help="write one telemetry trace per simulated cell to "
                         "DIR/<digest>.trace.jsonl (compare cells with "
                         "`repro-trace diff`)")


def grid_from_args(args) -> GridSpec:
    """The :class:`GridSpec` the :func:`add_grid_args` flags describe."""
    return GridSpec(
        benchmarks=args.benchmarks,
        gcs=args.gcs,
        heaps=args.heaps,
        youngs=args.youngs if args.youngs is not None else [None],
        seeds=args.seeds,
        iterations=args.iterations,
        system_gc=not args.no_system_gc,
        tlab_enabled=not args.no_tlab,
    )


def _execute(spec: CampaignSpec, args, store: Optional[ResultStore]) -> int:
    reporter = (ProgressReporter(spec.size, clock=WALL_CLOCK)
                if args.progress else None)
    result = run_campaign(
        spec, store=store, executor=args.executor, workers=args.workers,
        timeout=args.timeout, retries=args.retries, reporter=reporter,
        trace_dir=args.trace_dir,
    )
    _report(result, csv_path=args.csv)
    return 1 if result.stats.quarantined else 0


def _report(result: CampaignResult, csv_path: Optional[str] = None) -> None:
    print(render_campaign_summary(result))
    for failure in result.quarantined:
        print(f"quarantined: {failure.format()}")
    if csv_path:
        result.to_csv(csv_path)
        print(f"results exported to {csv_path}")


def run_cmd(args) -> int:
    """``repro-campaign run``: execute (or resume) a campaign."""
    spec = CampaignSpec(name=args.name, grids=[grid_from_args(args)])
    store = ResultStore(args.store) if args.store else None
    return _execute(spec, args, store)


def resume_cmd(args) -> int:
    """``repro-campaign resume``: re-run the spec recorded in the store."""
    store = ResultStore(args.store)
    campaigns = store.read_manifest().get("campaigns", [])
    if not campaigns:
        raise ConfigError(f"no campaign recorded in {store.root}; "
                          "run `repro-campaign run` first")
    entry = campaigns[-1]
    if args.name is not None:
        matches = [c for c in campaigns if c["name"] == args.name]
        if not matches:
            known = ", ".join(sorted({c["name"] for c in campaigns}))
            raise ConfigError(f"no campaign named {args.name!r} in "
                              f"{store.root} (known: {known})")
        entry = matches[-1]
    spec = CampaignSpec.from_dict(entry["spec"])
    print(f"resuming campaign {spec.name!r} ({spec.size} cells) from {store.root}")
    return _execute(spec, args, store)


def status_cmd(args) -> int:
    """``repro-campaign status``: inspect a store.

    Text by default; ``--json`` emits the :func:`store_status` schema the
    ``repro-serve`` status endpoint shares, so CI and service tooling
    parse one format.
    """
    status = store_status(ResultStore(args.store))
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    print(f"store {status['root']}: {status['records']} records "
          f"({status['ok']} ok, {status['failed']} failed)")
    if status["quarantined_lines"]:
        print(f"quarantined {status['quarantined_lines']} corrupt record line(s)")
    if status["campaigns"]:
        rows = [[c["name"], c["cells"], c["ok"], c["failed"], c["missing"]]
                for c in status["campaigns"]]
        print(render_table(["campaign", "cells", "ok", "failed", "missing"], rows))
    else:
        print("no campaigns recorded in the manifest")
    return 0


def clean_cmd(args) -> int:
    """``repro-campaign clean``: drop failure records, or everything."""
    store = ResultStore(args.store)
    if args.failures_only:
        n = store.drop_failures()
        print(f"dropped {n} failure record(s) from {store.root}")
    else:
        n = store.clear()
        print(f"dropped all {n} record(s) from {store.root}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-campaign``."""
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Parallel, cached, resumable experiment-campaign runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run (or resume) a campaign")
    p_run.add_argument("--name", default="campaign", help="campaign name")
    FLAGS["store"](p_run, help="result-store directory (omit for an "
                               "uncached run)")
    add_grid_args(p_run)
    _add_exec_args(p_run)
    p_run.set_defaults(fn=run_cmd)

    p_resume = sub.add_parser("resume",
                              help="re-run the campaign recorded in a store")
    FLAGS["store"](p_resume, required=True)
    p_resume.add_argument("--name", default=None,
                          help="campaign name (default: most recent entry)")
    _add_exec_args(p_resume)
    p_resume.set_defaults(fn=resume_cmd)

    p_status = sub.add_parser("status", help="inspect a result store")
    FLAGS["store"](p_status, required=True)
    FLAGS["json"](p_status, help="machine-readable store/campaign stats "
                                 "(same schema as the repro-serve status "
                                 "endpoint's `store` section)")
    p_status.set_defaults(fn=status_cmd)

    p_clean = sub.add_parser("clean", help="drop records from a store")
    FLAGS["store"](p_clean, required=True)
    p_clean.add_argument("--failures-only", action="store_true",
                         help="only drop failure records (so they retry)")
    p_clean.set_defaults(fn=clean_cmd)
    return run_command(parser, argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
