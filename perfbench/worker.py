"""One workload in one fresh interpreter: set up, measure, check, report.

``run.py`` starts this file for every share of a measured run, so peak
RSS and the interpreter's own GC state never leak between workloads or
runs. The last line of standard output is one JSON
object; everything else goes to standard error.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --size full|tiny --tmp DIR --spawned-at T
    python3 perfbench/worker.py --write-pins      # regenerate pins.json
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import pathlib
import resource
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from measure import HostClock, NullSpans, Samples, Spans  # noqa: E402

#: Workload name -> module in this directory.
WORKLOADS = {
    "dacapo-campaign": "wl_dacapo",
    "cassandra-ycsb": "wl_cassandra",
    "serve-cache": "wl_serve",
}

#: Pinned expectations: per workload, size and seed key.
PINS_PATH = HERE / "pins.json"

#: Distinct input sets per workload; ``--seed`` selects one by modulo.
SEED_KEYS = 8


class Run:
    """Everything one measured run shares with its workload module."""

    def __init__(self, clock: HostClock, *, seed: int, seconds: float,
                 trace: bool, size: str, tmp: pathlib.Path,
                 pins: dict):
        self.clock = clock
        self.seed = seed
        self.key = seed % SEED_KEYS
        self.seconds = seconds
        self.trace = trace
        self.size = size
        self.tmp = tmp
        self.pins = pins
        self.samples = Samples(clock)
        self.spans = Spans(clock) if trace else NullSpans()
        self.attempted = 0
        self.failed = 0
        self._complaints = 0

    def fail(self, what: str, count: int = 1) -> None:
        """Count *count* failed operations and say why (first 20 only)."""
        self.failed += count
        self._complaints += 1
        if self._complaints <= 20:
            print(f"perfbench: FAILED {what}", file=sys.stderr)

    def another_pass(self, started: float, last_pass: float) -> bool:
        """Whether a pass as long as the last one still fits: it may end
        at most half a pass after ``seconds``, so runs keep their length."""
        return self.clock.now() - started + last_pass / 2.0 < self.seconds


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_pins() -> dict:
    if PINS_PATH.exists():
        return json.loads(PINS_PATH.read_text())
    return {}


def layer_report(measured: dict) -> dict:
    """Every per-layer metric BENCHMARK.json declares; a layer this
    workload never reaches (or too few samples for a percentile) reads 0."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {}
    for m in spec["per_layer"]:
        value = float(measured.get(m["name"], (0.0,))[0])
        out[m["name"]] = {"value": 0.0 if math.isnan(value) else value,
                          "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--tmp", type=pathlib.Path)
    ap.add_argument("--spawned-at", type=float)
    ap.add_argument("--write-pins", action="store_true")
    args = ap.parse_args(argv)

    clock = HostClock()
    t0 = clock.now()
    clock.checkpoint()                  # host speed at interpreter start
    spin0 = clock.now() - t0
    sys.path.insert(0, str(ROOT / "src"))

    if args.write_pins:
        return write_pins()

    module = importlib.import_module(WORKLOADS[args.workload])
    args.tmp.mkdir(parents=True, exist_ok=True)
    os.chdir(args.tmp)                  # short relative socket paths
    run = Run(clock, seed=args.seed, seconds=args.seconds,
              trace=bool(args.trace), size=args.size, tmp=args.tmp,
              pins=load_pins().get(args.workload, {}).get(args.size, {}))
    state = module.setup(run)
    spawned_at = args.spawned_at if args.spawned_at is not None else t0
    setup_raw = clock.now() - spawned_at - spin0
    clock.checkpoint()                  # host speed at the end of set-up
    setup_s = setup_raw * clock.factor_between(0, 1)

    gc.collect()
    gen2_before = gc.get_stats()[2]["collections"]
    try:
        e2e, layers = module.measure(run, state)
    finally:
        module.teardown(state)
    gen2 = gc.get_stats()[2]["collections"] - gen2_before

    if args.trace:
        metrics = dict(layers)
        metrics["host.spin_ms"] = (1e3 * sorted(clock.spins)[len(clock.spins) // 2], "ms")
        metrics["host.raw_s"] = (clock.raw_seconds(), "s")
        metrics["host.pygc_gen2"] = (gen2, "count")
        metrics = layer_report(metrics)
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        run.spans.write(out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl")
    else:
        e2e = dict(e2e)
        e2e["peak_rss_mb"] = (peak_rss_mb(), "MiB")
        e2e["setup_s"] = (setup_s, "s")
        bad = [k for k, (v, _u) in e2e.items()
               if not (math.isfinite(float(v)) and float(v) > 0.0)]
        if bad:
            print(f"perfbench: no valid value for {', '.join(sorted(bad))} "
                  "(too few samples in the run?)", file=sys.stderr)
            return 3
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in e2e.items()}
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0 if run.failed == 0 else 1


def write_pins() -> int:
    """Recompute pins.json from the current simulator (a model change
    that alters results must say so and regenerate)."""
    pins = {}
    for name, modname in sorted(WORKLOADS.items()):
        module = importlib.import_module(modname)
        pins[name] = {size: module.fingerprints(size, SEED_KEYS)
                      for size in ("full", "tiny")}
        print(f"pinned {name}", file=sys.stderr)
    PINS_PATH.write_text(json.dumps(pins, sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
