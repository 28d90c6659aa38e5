"""The repository's benchmark: one command, three workloads, one JSON line.

    python3 perfbench/run.py --workload dacapo-campaign --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

Run from the root of a checkout. Each workload runs in fresh interpreters
(``worker.py``) with their own temporary store and socket directory under
``.perfbench-tmp/``, removed on exit, also after a failure. An untraced
run uses ``INTERPRETERS`` of them in turn, each setting up and measuring
its share of ``--seconds``, and reports the median of each metric. The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``. The exit code is non-zero when any output check failed.
Metric names, units and bounds are declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Callable

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dacapo-campaign", "cassandra-ycsb", "serve-cache")

#: Fresh interpreters per untraced run. Each sets the workload up and
#: measures a third of the seconds; reporting their median keeps one
#: interpreter's luck (hash seeds, memory layout, a slow host minute)
#: out of the figures, ``setup_s`` included.
INTERPRETERS = 3

#: Every interpreter must have ended this long after the command started.
BUDGET_S = 170.0

#: The orchestrator's clock (referenced, not called, here; the workers
#: inject theirs the same way, see measure.HostClock).
CLOCK: Callable[[], float] = time.perf_counter


def spawn(args, seconds: float, tmp: pathlib.Path, deadline: float) -> dict:
    """Run one worker interpreter; its last stdout line is its result."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--size", args.size, "--tmp", str(tmp),
           # CLOCK_MONOTONIC is shared by every process on the host.
           "--spawned-at", repr(CLOCK())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=max(1.0, deadline - CLOCK()))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"worker exited {proc.returncode} without a result")
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    return result


def run_workload(args, deadline: float) -> dict:
    """Untraced: INTERPRETERS workers share the measured seconds and every
    metric is their median. Traced: one worker measures them all."""
    tmp_root = ROOT / ".perfbench-tmp" / f"{args.workload}-{os.getpid()}"
    n = 1 if args.trace else INTERPRETERS
    try:
        results = [spawn(args, args.seconds / n, tmp_root / f"w{i}", deadline)
                   for i in range(n)]
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    merged = {"correct": all(r.get("correct") for r in results),
              "attempted": sum(r.get("attempted", 0) for r in results),
              "failed": sum(r.get("failed", 0) for r in results),
              "exit": max(r["exit"] for r in results), "metrics": {}}
    for name, metric in results[0].get("metrics", {}).items():
        values = [r["metrics"][name]["value"] for r in results]
        merged["metrics"][name] = {"value": statistics.median(values),
                                   "unit": metric["unit"]}
    return merged


def declared(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a seconds-long smoke of the same code paths")
    args = ap.parse_args(argv)
    # A SIGTERM unwinds like an error: the running worker is killed and
    # waited for, and the temporary directories are removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    deadline = CLOCK() + BUDGET_S
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    expected = declared(args.trace)
    status = 0
    for name in names:
        args.workload = name
        try:
            result = run_workload(args, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 2
        exit_code = result.pop("exit")
        metrics = result.get("metrics", {})
        if set(metrics) != set(expected) or exit_code not in (0, 1):
            missing = sorted(set(expected) - set(metrics))
            extra = sorted(set(metrics) - set(expected))
            print(f"perfbench: {name}: worker exit {exit_code}, missing "
                  f"{missing}, undeclared {extra}", file=sys.stderr)
            return 2
        print(f"{name} (seed {args.seed}, trace {args.trace}): "
              f"{result['attempted']} operations, {result['failed']} failed")
        for metric in sorted(metrics):
            m = metrics[metric]
            print(f"  {metric:32s} {m['value']:14.6g} {m['unit']}")
        print(json.dumps(result, sort_keys=True))
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
