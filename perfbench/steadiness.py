"""Run-to-run spread of the end-to-end metrics, the way they are judged.

    python3 perfbench/steadiness.py --workload serve-cache --runs 10 [--first-seed 1]

Runs ``run.py`` once per seed (seeds ``first-seed .. first-seed+runs-1``)
and prints, per metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median
next to a third of the metric's bound from BENCHMARK.json. ``--json``
appends the raw values to a JSON-lines file for later comparison.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--json", type=pathlib.Path)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: exit {proc.returncode}, "
                  f"{result['failed']} failed", file=sys.stderr)
            return 1
        row = {k: v["value"] for k, v in result["metrics"].items()}
        for name in values:
            values[name].append(row[name])
        print(f"seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, v in sorted(row.items())),
              file=sys.stderr)
        if args.json:
            with open(args.json, "a") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                     "metrics": row}, sort_keys=True) + "\n")

    print(f"{args.workload}: {args.runs} runs of {seconds:g} s")
    print(f"  {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound/3':>8s}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        print(f"  {name:18s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.3f} {bounds[name] / 3:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
