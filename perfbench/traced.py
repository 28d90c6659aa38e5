"""Traced-run extras shared by the workloads.

A traced run measures the timed passes exactly like an untraced one
(spans are cheap bookkeeping in the benchmark's own code) and then,
outside the timed segments, re-simulates every run with a
``repro.telemetry.Tracer`` attached. The re-run yields the exact counts
(engine events, TLAB refills, slow paths, promotions, pauses), the JVM
construction time and the tracing overhead; its result must hash like
the untraced one, or the run counts as failed.
"""

from __future__ import annotations

import hashlib
import json

from repro.campaign import decode_run, encode_run
from repro.heap.tlab import TLABConfig
from repro.jvm import JVM, JVMConfig
from repro.perf.profile import engine_event_count
from repro.serve import protocol
from repro.telemetry import Tracer
from repro.workloads.dacapo import get_benchmark

from measure import median

#: Tracer event name -> per-layer count metric.
COUNTED = {"tlab_refill": "jvm.tlab_refills", "alloc_slow": "jvm.alloc_slow_paths",
           "promotion": "heap.promotions", "gc_phase": "gc.pauses"}


def run_sha(encoded: dict, *extra: bytes) -> str:
    """First 16 hex digits of sha256 over the canonical run JSON (+ *extra*)."""
    h = hashlib.sha256(json.dumps(encoded, sort_keys=True,
                                  separators=(",", ":")).encode())
    for blob in extra:
        h.update(blob)
    return h.hexdigest()[:16]


class Counts:
    """Exact counts over the runs of one pass."""

    def __init__(self):
        self.totals = {"sim.engine_events": 0, "telemetry.trace_events": 0,
                       "gc.sim_pause_s": 0.0, **{m: 0 for m in COUNTED.values()}}

    def add(self, tracer: Tracer, result) -> None:
        self.totals["sim.engine_events"] += engine_event_count(tracer)
        self.totals["telemetry.trace_events"] += tracer.seq
        self.totals["gc.sim_pause_s"] += result.gc_log.total_pause
        for event, metric in COUNTED.items():
            self.totals[metric] += tracer.counts.get(event, 0)


def traced_rerun(run, counts: Counts, config, workload, run_kwargs: dict, *,
                 expected_sha: str, plain: tuple, op: str, sha_fn=None):
    """Re-simulate one run with a Tracer; check it matches the untraced one.

    *plain* is the ``(segment, raw seconds)`` of the untraced run, kept
    beside the traced time for the overhead and per-event figures, or
    None where the benchmark did not time the run alone. Call inside an
    open host-time segment.
    """
    clock = run.clock
    clock.tick()
    seg, t0 = clock.segment, clock.now()
    tracer = Tracer(meta={"op": op})
    jvm = JVM(config, tracer=tracer)
    t1 = clock.now()
    result = jvm.run(workload, **run_kwargs)
    t2 = clock.now()
    run.spans.add("traced.jvm_construct", op, seg, t0, t1)
    run.spans.add("traced.jvm_run", op, seg, t1, t2)
    run.samples.add("construct", seg, t1 - t0)
    if plain is not None:
        run.samples.add("traced", seg, t2 - t0)
        run.samples.add("plain", *plain)
    counts.add(tracer, result)
    sha = sha_fn(result, workload) if sha_fn else run_sha(encode_run(result))
    run.attempted += 1
    if sha != expected_sha:
        run.fail(f"traced re-run of {op} differs from the untraced run")


def cell_config(cell) -> JVMConfig:
    """The JVMConfig ``run_cell`` builds for *cell* (the re-run's hash
    check proves the two agree)."""
    return JVMConfig(gc=cell.gc, heap=cell.heap, young=cell.young,
                     seed=cell.seed, tlab=TLABConfig(enabled=cell.tlab_enabled),
                     **dict(cell.overrides))


def rerun_cell(run, counts: Counts, cell, *, expected_sha: str, plain: tuple,
               op: str) -> None:
    """:func:`traced_rerun` of one DaCapo campaign cell."""
    traced_rerun(run, counts, cell_config(cell), get_benchmark(cell.benchmark),
                 {"iterations": cell.iterations, "system_gc": cell.system_gc},
                 expected_sha=expected_sha, plain=plain, op=op)


def codec_probe(run, encoded: dict, op: str, wire: bool = False) -> None:
    """Time the store/protocol codecs on one stored run, from outside."""
    clock = run.clock
    seg = clock.segment
    t0 = clock.now()
    decoded = decode_run(encoded)
    t1 = clock.now()
    encode_run(decoded)
    t2 = clock.now()
    run.samples.add("decode_run", seg, t1 - t0)
    run.samples.add("encode_run", seg, t2 - t1)
    run.spans.add("campaign.decode_run", op, seg, t0, t1)
    run.spans.add("campaign.encode_run", op, seg, t1, t2)
    if wire:
        msg = protocol.result_msg(1, op, encoded, cached=True, meta={})
        t0 = clock.now()
        line = protocol.encode(msg)
        t1 = clock.now()
        protocol.decode(line)
        t2 = clock.now()
        run.samples.add("protocol_encode", seg, t1 - t0)
        run.samples.add("protocol_decode", seg, t2 - t1)


def layer_metrics(run, counts: Counts, passes: int = 1) -> dict:
    """Per-layer metrics from the re-runs and codec probes (call after
    the last segment closed; *counts* are the first pass's)."""
    s = run.samples
    out = {}
    if counts is not None:
        for name, value in counts.totals.items():
            out[name] = (value, "s" if name.endswith("_s") else "count")
        # Per pass: the re-runs cover every pass, the totals one pass.
        plain = sum(s.calibrated("plain")) / passes
        events = counts.totals["sim.engine_events"]
        if events:
            out["simulate.us_per_event"] = (1e6 * plain / events, "us")
        if plain:
            out["telemetry.trace_overhead"] = (
                sum(s.calibrated("traced")) / passes / plain, "ratio")
        out["jvm.construct_ms"] = (1e3 * median(s.calibrated("construct")), "ms")
    for sample, metric, scale, unit in (
            ("digest", "campaign.digest_us", 1e6, "us"),
            ("decode_run", "campaign.decode_run_ms", 1e3, "ms"),
            ("encode_run", "campaign.encode_run_ms", 1e3, "ms"),
            ("protocol_encode", "serve.protocol_encode_us", 1e6, "us"),
            ("protocol_decode", "serve.protocol_decode_us", 1e6, "us")):
        if s.count(sample):
            out[metric] = (scale * median(s.calibrated(sample)), unit)
    return out
