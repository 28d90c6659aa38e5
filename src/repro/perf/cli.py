"""The ``repro-perf`` command: profile the simulator itself.

``profile`` runs one DaCapo cell under cProfile and prints where the
host's wall-clock went, alongside engine event rates; ``fastpath``
reports whether the batched-allocation fast path is active in this
environment (the ``REPRO_FASTPATH`` gate).

Examples::

    repro-perf profile xalan -n 10 --gc CMS --seed 1
    repro-perf profile avrora --gc G1 --top 40 --json -o g1.perf.json
    repro-perf fastpath
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..cli import FLAGS, add_flags, config_from_args, run_command
from ..workloads.dacapo import ALL_BENCHMARKS
from . import fastpath
from .profile import profile_run
from .report import render_text, to_json


def profile_cmd(args) -> int:
    """``repro-perf profile``: cProfile one cell, print the hot spots."""
    result = profile_run(
        config_from_args(args), args.benchmark,
        iterations=args.iterations,
        system_gc=not args.no_system_gc,
        top=args.top,
    )
    text = to_json(result) if args.json else render_text(result) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"report written to {args.output}")
    else:
        sys.stdout.write(text)
    return 1 if result.crashed else 0


def fastpath_cmd(args) -> int:
    """``repro-perf fastpath``: print the fast-path gate state."""
    state = "enabled" if fastpath.enabled() else "disabled"
    print(f"fastpath: {state} (REPRO_FASTPATH)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-perf",
        description="Profile the simulator: hot spots and event rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="cProfile one DaCapo cell")
    p.add_argument("benchmark", choices=ALL_BENCHMARKS)
    add_flags(p, "iterations", "gc", "heap", "young", "no-tlab", "seed",
              "no-system-gc")
    p.add_argument("--top", type=int, default=25,
                   help="hot functions to keep (default 25)")
    FLAGS["json"](p, help="emit the JSON report instead of text")
    FLAGS["output"](p, help="write the report to a file instead of stdout")
    p.set_defaults(fn=profile_cmd)

    p = sub.add_parser("fastpath", help="show the REPRO_FASTPATH gate state")
    p.set_defaults(fn=fastpath_cmd)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-perf``; returns the process exit code."""
    return run_command(build_parser(), argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
