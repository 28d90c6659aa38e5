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

from typing import List, Optional

from ..cli import FLAGS, add_flags, study_command
from ..gc.registry import TABLE8_GC_NAMES
from .lbo import LBOConfig, LBOStudyResult, run_lbo_study


def _add_run_args(p) -> None:
    add_flags(p, "benchmarks")
    FLAGS["gcs"](p, help="collectors to distill (the EpsilonGC baseline "
                         "is implicit)")
    add_flags(p, "heaps", "seeds")
    FLAGS["iterations"](p, short=False,
                        help="harness iterations per invocation")
    add_flags(p, "system-gc")
    p.set_defaults(benchmarks=["xalan"], gcs=list(TABLE8_GC_NAMES),
                   heaps=["8g", "16g", "32g"], seeds=[1, 2, 3], iterations=6)


def _run(args, store):
    result = run_lbo_study(LBOConfig(
        benchmarks=tuple(args.benchmarks),
        gcs=tuple(args.gcs),
        heaps=tuple(args.heaps),
        seeds=tuple(args.seeds),
        iterations=args.iterations,
        system_gc=args.system_gc,
    ), store=store)
    return result, result.cache_hits, result.cells_total


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-lbo``."""
    return study_command(
        argv, prog="repro-lbo",
        description="LBO cost distillation: min-over-heaps GC overhead "
                    "vs an ideal no-GC baseline",
        add_run_args=_add_run_args, run=_run, result_cls=LBOStudyResult)
