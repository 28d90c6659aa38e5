"""The benchmark's own tests: output contract, calibration, checks.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

import measure
import worker

HERE = pathlib.Path(__file__).resolve().parents[1]
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


class TickClock:
    """A fake clock: every read advances time by one tick."""

    def __init__(self, tick: float):
        self.t = 0.0
        self.tick = tick

    def __call__(self) -> float:
        self.t += self.tick
        return self.t


def measured(workload, tmp_path, *, tick=1e-3, trace=False, pins=None):
    """One pass of the tiny workload, in process, on a fake clock.

    Every spin sample reads as one tick and every operation as a fixed
    number of ticks, so calibrated figures depend on the code path only.
    A zero checkpoint interval keeps the checkpoints in the same places
    whatever the tick.
    """
    clock = measure.HostClock(now=TickClock(tick), spin_fn=lambda: None,
                              interval=0.0)
    clock.checkpoint()
    if pins is None:
        pins = worker.load_pins()[workload]["tiny"]
    run = worker.Run(clock, seed=3, seconds=0.0, trace=trace, size="tiny",
                     tmp=tmp_path, pins=pins)
    module = importlib.import_module(worker.WORKLOADS[workload])
    tmp_path.mkdir(parents=True, exist_ok=True)
    with contextlib.chdir(tmp_path):        # the service's socket lives here
        state = module.setup(run)
        try:
            e2e, layers = module.measure(run, state)
        finally:
            module.teardown(state)
    return e2e, layers, run


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(n) and len(n) <= 64 for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "3",
                 "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace == "1" else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split()[0]: line.split()[-1] for line in lines[1:-1]}
    for name, metric in result["metrics"].items():
        assert NAME.match(name)
        assert math.isfinite(metric["value"])
        assert printed[name] == metric["unit"]
        if trace == "0":
            assert metric["value"] > 0


@pytest.mark.parametrize("workload", ["dacapo-campaign", "cassandra-ycsb"])
def test_a_uniformly_slower_host_leaves_calibrated_metrics_unchanged(workload, tmp_path):
    fast, _, run_fast = measured(workload, tmp_path / "fast", tick=1e-3)
    slow, _, run_slow = measured(workload, tmp_path / "slow", tick=2e-3)
    assert run_fast.failed == run_slow.failed == 0
    for name, (value, _unit) in fast.items():
        assert slow[name][0] == pytest.approx(value, rel=1e-9), name


@pytest.mark.parametrize("workload", ["dacapo-campaign", "cassandra-ycsb"])
def test_traced_and_untraced_runs_give_identical_results(workload, tmp_path):
    _, _, plain = measured(workload, tmp_path / "plain")
    _, layers, traced = measured(workload, tmp_path / "traced", trace=True)
    assert plain.failed == traced.failed == 0
    # Both matched the same pins, and every Tracer re-run hashed like
    # the untraced run of the same cell.
    assert traced.attempted > plain.attempted
    assert layers["sim.engine_events"][0] > 0


@pytest.mark.parametrize("workload", ["dacapo-campaign", "cassandra-ycsb", "serve-cache"])
def test_a_result_that_differs_from_the_pins_counts_as_failed(workload, tmp_path):
    pins = json.loads(json.dumps(worker.load_pins()[workload]["tiny"]))
    if workload == "serve-cache":
        pins["pool"] = ["0" * 16] * len(pins["pool"])
    else:
        entry = pins[str(3 % worker.SEED_KEYS)]
        key = "cells" if "cells" in entry else "runs"
        entry[key][0] = "0" * 16
    _, _, run = measured(workload, tmp_path, pins=pins)
    assert run.failed >= 1


def test_calibration_prices_each_segment_by_the_spins_around_it():
    reads = iter([0.0, 1.0, 1.0, 2.0, 2.0, 3.0,   # begin: spin 0, 1 s samples
                  3.0,                   # open segment 0
                  13.0,                  # close it after 10 s of work
                  13.0, 16.0, 16.0, 19.0, 19.0, 22.0,   # spin 1: 3 s each
                  22.0])                 # (end: not reopened)
    clock = measure.HostClock(now=lambda: next(reads), spin_fn=lambda: None)
    clock.begin()
    clock.end()
    assert clock.spins == [1.0, 3.0]
    assert clock.raw_seconds() == 10.0
    assert clock.host_seconds() == pytest.approx(10.0 * measure.NOMINAL_SPIN_S / 2.0)


def test_percentiles_need_ten_samples_beyond_them():
    assert math.isnan(measure.percentile(list(range(19)), 50))
    assert measure.percentile(list(range(20)), 50) == 9
    assert math.isnan(measure.percentile(list(range(999)), 99))
    assert measure.percentile(list(range(1000)), 99) == 989


def test_without_the_simulator_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "serve-cache", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
