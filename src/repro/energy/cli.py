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

from typing import List, Optional

from ..cli import FLAGS, add_flags, study_command
from .placement import PLACEMENT_NAMES
from .study import EnergyStudyConfig, EnergyStudyResult, run_energy_study


def _add_run_args(p) -> None:
    add_flags(p, "benchmarks", "gcs")
    p.add_argument("--placements", nargs="+",
                   default=list(PLACEMENT_NAMES),
                   help="GC placement policies (p-cores, e-cores, adaptive)")
    p.add_argument("--topologies", nargs="+", default=["asym-hybrid"],
                   help="registered machine topologies")
    add_flags(p, "heap", "seeds")
    FLAGS["iterations"](p, short=False,
                        help="harness iterations per invocation")
    add_flags(p, "system-gc")
    p.set_defaults(benchmarks=["xalan"],
                   gcs=["ParallelOldGC", "ConcMarkSweepGC", "G1GC"],
                   heap="8g", seeds=[1, 2], iterations=4)


def _run(args, store):
    result = run_energy_study(EnergyStudyConfig(
        benchmarks=tuple(args.benchmarks),
        gcs=tuple(args.gcs),
        placements=tuple(args.placements),
        topologies=tuple(args.topologies),
        heap=args.heap,
        seeds=tuple(args.seeds),
        iterations=args.iterations,
        system_gc=args.system_gc,
    ), store=store)
    return result, result.cache_hits, result.cells_total


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-energy``."""
    return study_command(
        argv, prog="repro-energy",
        description="energy/pause Pareto study over "
                    "{collector x GC placement x topology}",
        add_run_args=_add_run_args, run=_run, result_cls=EnergyStudyResult)
