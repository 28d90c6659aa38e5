"""``dacapo-campaign``: the paper's Fig. 3 grid plus an LBO study, cold store.

One pass is what a user of the reproduction runs: a serial-executor
``run_campaign`` of the Fig. 3 grid (the 7 stable DaCapo benchmarks x
the paper's 6 collectors x 5 heap/young points, System.gc() on and off)
into a fresh store, a ``run_lbo_study`` of ZGC, Shenandoah, ParallelOld
and G1 against Epsilon in the same store, the Fig. 3 ranking fold and a
second LBO study that the warm store answers from cache. Simulation is
almost all of the host time and the store is mostly written. G1, ZGC
and Shenandoah keep a remembered set, the other collectors none, so a
remembered-set change shows in the per-collector cell times.
"""

from __future__ import annotations

import shutil
import tempfile

from repro import GB
from repro.analysis.lbo import LBOConfig, run_lbo_study
from repro.analysis.ranking import rank_by_wins
from repro.campaign import (CampaignSpec, CellSpec, ResultStore,
                            SerialExecutor, run_campaign, run_cell)
from repro.gc import GC_NAMES
from repro.paper import FIG3_RANKING
from repro.studies import GridSpec
from repro.workloads.dacapo import STABLE_SUBSET

import traced
from measure import cell_median, median, median_rate, percentile

#: Fig. 3 (heap, young) points of the quick grid, baseline -> machine RAM.
FIG3_POINTS = [(16 * GB, 5.6 * GB), (32 * GB, 5.6 * GB), (64 * GB, 5.6 * GB),
               (64 * GB, 12 * GB), (64 * GB, 24 * GB)]
LBO_GCS = ("ZGC", "ShenandoahGC", "ParallelOldGC", "G1GC")
#: Every collector a pass simulates, for the per-collector cell times.
ALL_GCS = tuple(GC_NAMES) + ("ZGC", "ShenandoahGC", "EpsilonGC")


def specs(size: str, key: int):
    """(CampaignSpec, LBOConfig) of one pass for seed key *key*."""
    if size == "tiny":
        benchmarks, gcs, points, iterations = (
            ["batik"], ["ParallelOldGC", "G1GC"], [("1g", "256m")], 2)
        lbo = LBOConfig(benchmarks=("batik",), gcs=("ZGC", "G1GC"),
                        heaps=("1g",), seeds=(key + 1,), iterations=2)
    else:
        benchmarks, gcs, points, iterations = STABLE_SUBSET, GC_NAMES, FIG3_POINTS, 10
        lbo = LBOConfig(gcs=LBO_GCS, seeds=(3 * key + 1, 3 * key + 2, 3 * key + 3))
    grids = [GridSpec(benchmarks=benchmarks, gcs=gcs, heaps=[heap],
                      youngs=[young], seeds=[key], iterations=iterations,
                      system_gc=system_gc)
             for system_gc in (True, False) for heap, young in points]
    return CampaignSpec(f"fig3-seed{key}", grids), lbo


def pass_cells(spec: CampaignSpec, lbo: LBOConfig):
    """Every cell a pass simulates, once each, in execution order."""
    seen = {}
    for cells in spec.cell_specs():
        for cell in cells:
            seen.setdefault(cell.digest(), cell)
    for cell in lbo.cells():
        seen.setdefault(cell.digest(), cell)
    return list(seen.values())


def fingerprint(store: ResultStore, cells) -> dict:
    """Pinned facts of a pass: run hash per cell, simulated seconds, pauses."""
    shas, sim_s, pauses = [], 0.0, 0
    for cell in cells:
        rec = store.get(cell.digest())
        if rec is None or rec["status"] != "ok":
            shas.append(None)
            continue
        shas.append(traced.run_sha(rec["run"]))
        sim_s += rec["run"]["execution_time"]
        pauses += len(rec["run"]["gc_log"]["pauses"])
    return {"cells": shas, "sim_s": sim_s, "pauses": pauses}


def fig3_rankings(result):
    """System.gc() setting -> Fig. 3 ranking over the campaign's grids."""
    experiments = {True: {}, False: {}}
    for grid in result.grids:
        exps = experiments[grid.spec.system_gc]
        for key, run in grid.runs.items():
            if not run.crashed:
                exps.setdefault((key.benchmark, key.heap, key.young),
                                {})[key.gc] = run.execution_time
    return {sysgc: rank_by_wins(exps) for sysgc, exps in experiments.items()}


class TimedExecutor(SerialExecutor):
    """The serial executor, timing each ``run_cell`` from outside."""

    def __init__(self, run, timed: list):
        self.run = run
        self.timed = timed

    def run_cells(self, cells, fn, *, timeout=None, on_submit=None):
        clock, spans = self.run.clock, self.run.spans

        def timed_fn(cell):
            clock.tick()
            segment, t0 = clock.segment, clock.now()
            with spans.span("run_cell", op=cell.digest()[:16]):
                out = fn(cell)
            self.timed.append((cell, segment, clock.now() - t0))
            return out

        return super().run_cells(cells, timed_fn, timeout=timeout,
                                 on_submit=on_submit)


class TimedStore(ResultStore):
    """A ResultStore that spans its reads and appends.

    ``run_lbo_study`` calls ``run_cell`` between a missed ``get_run`` and
    the ``record_ok`` of the same digest; while ``time_misses`` is on,
    that interval is recorded as the cell's host time.
    """

    def __init__(self, root, run, timed: list):
        self.run = run
        self.timed = timed
        self.time_misses = False
        self._missed = {}
        super().__init__(root)

    def get_run(self, digest):
        clock = self.run.clock
        with self.run.spans.span("store.get_run", op=digest[:16]) as span:
            out = super().get_run(digest)
        if span is not None and out is not None:
            span["name"] = "store.get_run.hit"
        if out is None and self.time_misses:
            self._missed[digest] = (clock.segment, clock.now())
        return out

    def record_ok(self, cell, result):
        clock = self.run.clock
        digest = cell.digest()
        missed = self._missed.pop(digest, None)
        if missed is not None:
            self.timed.append((cell, missed[0], clock.now() - missed[1]))
        with self.run.spans.span("store.record_ok", op=digest[:16]):
            super().record_ok(cell, result)
        if missed is not None:
            clock.tick()


def setup(run):
    # Warm-up cell: first-call costs (lazy imports, numpy kernels) stay
    # out of the timed passes.
    run_cell(CellSpec.from_axes("batik", "SerialGC", "1g", "256m", 0, iterations=2))
    spec, lbo = specs(run.size, run.key)
    return {"spec": spec, "lbo": lbo, "cells": pass_cells(spec, lbo)}


def teardown(state):
    pass


def one_pass(run, state, index: int):
    """Run and time one pass; returns (timed cells, store, campaign result,
    rankings, cold and warm LBO studies)."""
    clock, spans = run.clock, run.spans
    timed = []
    clock.begin()
    with spans.span("pass", op=f"pass{index}"):
        with spans.span("store.open"):
            store = TimedStore(run.tmp / f"store-{index}", run, timed)
        with spans.span("run_campaign"):
            result = run_campaign(state["spec"], store=store,
                                  executor=TimedExecutor(run, timed))
        store.time_misses = True
        with spans.span("run_lbo_study"):
            study = run_lbo_study(state["lbo"], store=store)
        store.time_misses = False
        with spans.span("fold"):
            rankings = fig3_rankings(result)
            warm = run_lbo_study(state["lbo"], store=store)
    clock.end()
    return timed, store, result, rankings, study, warm


def check_pass(run, state, store, result, rankings, study, warm) -> float:
    """Count the pass's operations and failures; returns simulated seconds."""
    cells = state["cells"]
    run.attempted += len(cells) + 1          # every cell, plus the folds
    got = fingerprint(store, cells)
    pinned = run.pins.get(str(run.key))
    if pinned is None:
        run.fail(f"no pins for seed key {run.key}", len(cells) + 1)
        return got["sim_s"]
    bad = sum(1 for a, b in zip(got["cells"], pinned["cells"]) if a != b)
    bad += abs(len(got["cells"]) - len(pinned["cells"]))
    if bad:
        run.fail(f"{bad} cell result(s) differ from the pins", bad)
    elif result.stats.quarantined:
        run.fail("quarantined cells", result.stats.quarantined)
    if not (got["sim_s"] == pinned["sim_s"] and got["pauses"] == pinned["pauses"]):
        run.fail("simulated seconds or pause count differ from the pins")
    elif rankings[True].percentage("G1GC") != FIG3_RANKING["system_gc"]["G1GC"]:
        run.fail("Fig. 3 shape: G1 wins experiments with System.gc()")
    elif not (warm.to_json() == study.to_json() and warm.cache_hits == warm.cells_total):
        run.fail("the warm LBO study differs from the cold one")
    return got["sim_s"]


def measure(run, state):
    clock = run.clock
    started = clock.now()
    timed_all, first_counts, passes = [], None, 0
    sims, cells = [], []            # per pass: (first segment, end, amount)
    while True:
        first, pass_started = clock.segment, clock.now()
        timed, store, *outputs = one_pass(run, state, passes)
        sim_s = check_pass(run, state, store, *outputs)
        sims.append((first, clock.segment, sim_s))
        cells.append((first, clock.segment, len(timed)))
        timed_all.extend(timed)
        if run.trace:
            counts = trace_extras(run, store, timed)
            if first_counts is None:
                first_counts = counts
                store_bytes = store.records_path.stat().st_size
            elif counts.totals != first_counts.totals:
                run.fail("traced counts differ between identical passes")
        shutil.rmtree(store.root, ignore_errors=True)
        passes += 1
        if not run.another_pass(started, clock.now() - pass_started):
            break

    by_cell = {}
    for cell, seg, raw in timed_all:
        by_cell.setdefault(cell, []).append(clock.calibrate(raw, seg))
    e2e = {
        "sim_s_per_host_s": (median_rate(clock, sims), "sim_s/s"),
        "jobs_per_s": (median_rate(clock, cells), "jobs/s"),
        "cell_p50_ms": (1e3 * cell_median(by_cell), "ms"),
    }
    if not run.trace:
        return e2e, {}
    layers = traced.layer_metrics(run, first_counts, passes)
    cell_s = [t for times in by_cell.values() for t in times]
    layers["cell_p95_ms"] = (1e3 * percentile(cell_s, 95), "ms")
    layers["campaign.store_bytes"] = (store_bytes, "bytes")
    for gc_name in ALL_GCS:
        times = [clock.calibrate(raw, seg) for c, seg, raw in timed_all if c.gc == gc_name]
        layers[f"dacapo.cell_ms.{gc_name}"] = (1e3 * median(times), "ms")
    s = run.samples
    for span, metric in (("store.open", "campaign.store_open_ms"),
                         ("store.get_run.hit", "campaign.store_get_ms"),
                         ("store.record_ok", "campaign.store_append_ms"),
                         ("fold", "analysis.fold_ms")):
        run.spans.durations(span, s, span)
        layers[metric] = (1e3 * median(s.calibrated(span)), "ms")
    return e2e, layers


def trace_extras(run, store, timed):
    """After a traced pass: digest/codec probes on every tenth cell, then
    a Tracer re-run of every cell (all outside the timed pass)."""
    clock = run.clock
    counts = traced.Counts()
    clock.begin()
    for i, (cell, seg, raw) in enumerate(timed):
        op = cell.digest()[:16]
        encoded = store.get(cell.digest())["run"]
        if i % 10 == 0:
            clock.tick()
            pseg, t0 = clock.segment, clock.now()
            cell.digest()
            run.samples.add("digest", pseg, clock.now() - t0)
            traced.codec_probe(run, encoded, op)
        traced.rerun_cell(run, counts, cell, expected_sha=traced.run_sha(encoded),
                          plain=(seg, raw), op=op)
    clock.end()
    return counts


def fingerprints(size: str, keys: int) -> dict:
    """Pins for every seed key: one untimed pass each."""
    out = {}
    for key in range(keys):
        spec, lbo = specs(size, key)
        with tempfile.TemporaryDirectory(dir=".") as tmp:
            store = ResultStore(tmp)
            run_campaign(spec, store=store)
            run_lbo_study(lbo, store=store)
            out[str(key)] = fingerprint(store, pass_cells(spec, lbo))
    return out
