"""``cassandra-ycsb``: in-process Cassandra runs over a large old generation.

One pass is six runs, each for a fixed simulated duration: the paper's
50/50 YCSB mix (``WORKLOAD_A_LIKE`` through ``YCSBClient.run``) at a
64 GB heap with a 12 GB young generation under ParallelOld, CMS, G1 and
ZGC, and the Fig. 4 ``stress_config`` insert load with 8 M preloaded
records under CMS and G1. These are few, long operations: card-table
bookkeeping, the memtable/commit-log/SSTable path and YCSB latency
synthesis carry the host time, and the store, protocol and service are
not touched at all.
"""

from __future__ import annotations

from repro import GB, JVM, JVMConfig
from repro.campaign import encode_run
from repro.cassandra import CassandraServer, default_config, stress_config
from repro.ycsb import WORKLOAD_A_LIKE, YCSBClient

import traced
from measure import NullSpans, cell_median, median, median_rate

YCSB_GCS = ("ParallelOldGC", "ConcMarkSweepGC", "G1GC", "ZGC")
STRESS_GCS = ("ConcMarkSweepGC", "G1GC")
HEAP, YOUNG = 64 * GB, 12 * GB

#: size -> (YCSB seconds, stress seconds, preloaded records, stress ops/s)
SIZES = {"full": (1800.0, 1800.0, 8_000_000, 1350.0),
         "tiny": (60.0, 60.0, 100_000, 1350.0)}


def plan(size: str, key: int):
    """The six runs of one pass: (name, kind, jvm config, server config,
    run kwargs)."""
    ycsb_s, stress_s, preload, rate = SIZES[size]
    w = WORKLOAD_A_LIKE
    runs = []
    for gc in YCSB_GCS:
        runs.append((f"ycsb.{gc}", "ycsb",
                     JVMConfig(gc=gc, heap=HEAP, young=YOUNG, seed=key),
                     default_config(HEAP),
                     # The arguments YCSBClient.run passes to JVM.run.
                     {"duration": ycsb_s, "ops_per_second": w.operations_per_second,
                      "read_fraction": w.read_proportion,
                      "update_fraction": w.update_proportion,
                      "n_client_threads": w.client_threads}))
    for gc in STRESS_GCS:
        runs.append((f"stress.{gc}", "stress",
                     JVMConfig(gc=gc, heap=HEAP, young=YOUNG, seed=key),
                     stress_config(HEAP, preload_records=preload),
                     {"duration": stress_s, "ops_per_second": rate}))
    return runs


def client_sha(client_result) -> str:
    """Pinned hash of a YCSB run: server result plus synthesized latencies."""
    return traced.run_sha(encode_run(client_result.server_result),
                          client_result.op_times.tobytes(),
                          client_result.latencies_ms.tobytes(),
                          client_result.kinds.tobytes())


def execute(name, kind, jvm_config, server_config, kwargs, seed, spans=None):
    """One run through the public API; returns (RunResult, sha).

    With *spans* (traced runs), a YCSB run is split into the layers that
    ``YCSBClient.run`` composes: ``JVM.run`` then ``YCSBClient.synthesize``.
    """
    if kind == "ycsb" and spans is None:
        cr = YCSBClient(WORKLOAD_A_LIKE, seed=seed).run(
            jvm_config, server_config, duration=kwargs["duration"])
        return cr.server_result, client_sha(cr)
    spans = spans or NullSpans()
    server = CassandraServer(server_config)
    jvm = JVM(jvm_config)
    with spans.span(f"cassandra.run.{name}"):
        result = jvm.run(server, **kwargs)
    if kind == "stress":
        return result, traced.run_sha(encode_run(result))
    with spans.span("ycsb.synthesize"):
        cr = YCSBClient(WORKLOAD_A_LIKE, seed=seed).synthesize(
            jvm_config, result, server)
    return result, client_sha(cr)


def setup(run):
    # Warm-up run: a short YCSB run pays the first-call costs.
    YCSBClient(WORKLOAD_A_LIKE, seed=0).run(
        JVMConfig(gc="ParallelOld", heap=HEAP, young=YOUNG, seed=0),
        default_config(HEAP), duration=30.0)
    return {"plan": plan(run.size, run.key)}


def teardown(state):
    pass


def measure(run, state):
    clock, spans = run.clock, run.spans
    pinned = run.pins.get(str(run.key))
    started = clock.now()
    timed, first_counts, passes = [], None, 0
    sims, runs = [], []             # per pass: (first segment, end, amount)
    while True:
        first, pass_started = clock.segment, clock.now()
        clock.begin()
        done = []
        for name, kind, jc, sc, kwargs in state["plan"]:
            clock.tick()
            seg, t0 = clock.segment, clock.now()
            with spans.span("run", op=f"{passes}.{name}"):
                result, sha = execute(name, kind, jc, sc, kwargs, run.key,
                                      spans if run.trace else None)
            raw = clock.now() - t0
            timed.append((name, seg, raw))
            if run.trace:       # the re-run compares against JVM.run alone
                span = spans.last(f"cassandra.run.{name}")
                raw = span["end"] - span["start"]
            done.append((name, kind, jc, sc, kwargs, result, sha, (seg, raw)))
        clock.end()

        shas = [d[6] for d in done]
        sim_s = sum(d[5].execution_time for d in done)
        pauses = sum(d[5].gc_log.count for d in done)
        run.attempted += len(done)
        if pinned is None:
            run.fail(f"no pins for seed key {run.key}", len(done))
        else:
            bad = sum(1 for a, b in zip(shas, pinned["runs"]) if a != b)
            if bad:
                run.fail(f"{bad} Cassandra run(s) differ from the pins", bad)
            elif sim_s != pinned["sim_s"] or pauses != pinned["pauses"]:
                run.fail("simulated seconds or pause count differ from the pins",
                         len(done))
        sims.append((first, clock.segment, sim_s))
        runs.append((first, clock.segment, len(done)))
        if run.trace:
            counts = trace_extras(run, done)
            if first_counts is None:
                first_counts = counts
            elif counts.totals != first_counts.totals:
                run.fail("traced counts differ between identical passes")
        passes += 1
        if not run.another_pass(started, clock.now() - pass_started):
            break

    by_run = {}
    for name, seg, raw in timed:
        by_run.setdefault(name, []).append(clock.calibrate(raw, seg))
    e2e = {
        "sim_s_per_host_s": (median_rate(clock, sims), "sim_s/s"),
        "jobs_per_s": (median_rate(clock, runs), "jobs/s"),
        "cell_p50_ms": (1e3 * cell_median(by_run), "ms"),
    }
    if not run.trace:
        return e2e, {}
    layers = traced.layer_metrics(run, first_counts, passes)
    s = run.samples
    for name, *_rest in state["plan"]:
        span = f"cassandra.run.{name}"
        run.spans.durations(span, s, span)
        layers[f"cassandra.run_ms.{name}"] = (1e3 * median(s.calibrated(span)), "ms")
    run.spans.durations("ycsb.synthesize", s, "synthesize")
    layers["ycsb.synthesize_ms"] = (1e3 * median(s.calibrated("synthesize")), "ms")
    return e2e, layers


def trace_extras(run, done):
    """Tracer re-run of every run of the pass (outside the timed pass)."""
    counts = traced.Counts()
    run.clock.begin()
    for name, kind, jc, sc, kwargs, _result, sha, plain in done:
        sha_fn = None
        if kind == "ycsb":
            def sha_fn(result, server, jc=jc):
                return client_sha(YCSBClient(WORKLOAD_A_LIKE, seed=run.key)
                                  .synthesize(jc, result, server))
        traced.traced_rerun(run, counts, jc, CassandraServer(sc), kwargs,
                            expected_sha=sha, plain=plain, op=name, sha_fn=sha_fn)
    run.clock.end()
    return counts


def fingerprints(size: str, keys: int) -> dict:
    out = {}
    for key in range(keys):
        results = [execute(*entry, seed=key) for entry in plan(size, key)]
        out[str(key)] = {"runs": [sha for _r, sha in results],
                         "sim_s": sum(r.execution_time for r, _s in results),
                         "pauses": sum(r.gc_log.count for r, _s in results)}
    return out
