"""``serve-cache``: an in-process experiment service answering mostly from cache.

An ``ExperimentService`` (serial executor, 2 job slots) listens on a Unix
socket; one ``ServiceClient`` connection drives it in a closed loop with
2 jobs in flight. Jobs follow a seeded stream over a fixed pool of cheap
DaCapo cells (collectors without a remembered set, 2 iterations): Zipf
draws over a warm pool that set-up pre-warms into the store, so most
jobs are cache hits, and 1 % of jobs that ask for the next cell of a
cold list, which misses, simulates and appends to the store with fsync. This is the one workload where the protocol, the
service and store reads carry the host time, and the store is read as
well as written, the opposite of ``dacapo-campaign``.

Every answer is checked: the ``run`` payload must be byte-identical to
the store's record and hash to the pinned value for its cell.
"""

from __future__ import annotations

import asyncio
import bisect
import json

from repro.campaign import ResultStore, run_cell
from repro.errors import ProtocolError
from repro.seeding import rng_for
from repro.serve import protocol
from repro.serve.client import ServiceClient
from repro.serve.service import ExperimentService, ServiceConfig

import traced
from measure import median, median_rate, percentile

#: size -> pool axes. Seeds ``range(warm)`` make the warm pool, ranked by
#: cell digest for the Zipf draws and pre-warmed into the store; seeds
#: ``range(warm, warm + cold)`` make the cold list, each cell of which is
#: asked for once, so it always misses.
POOLS = {
    "full": {"benchmarks": ("batik", "luindex", "fop", "avrora"),
             "gcs": ("SerialGC", "ParNewGC", "ParallelGC", "ParallelOldGC"),
             "heaps": ("1g", "2g"), "warm": 4, "cold": 32},
    "tiny": {"benchmarks": ("batik", "fop"), "gcs": ("SerialGC", "ParallelOldGC"),
             "heaps": ("1g",), "warm": 4, "cold": 16},
}
YOUNG, ITERATIONS = "256m", 2
ZIPF_S = 1.0
#: Share of jobs that ask for the next cold cell. Misses then arrive at a
#: steady rate for the whole run (a finite Zipf tail would warm up and
#: front-load them), and simulation stays a minority of host time.
MISS_SHARE = 0.01
IN_FLIGHT = 2
#: Raw seconds of load between two host-speed checkpoints; the loop
#: waits for both in-flight jobs before each checkpoint.
BATCH_S = 0.15
JOB_TIMEOUT_S = 20.0
SOCKET = "serve.sock"           # relative: the worker runs in its temp dir


def pool(size: str):
    """(cells, jobs, warm): warm cells first in Zipf rank order, then the
    cold list."""
    axes = POOLS[size]

    def part(seeds):
        jobs = [{"benchmark": b, "gc": gc, "heap": heap, "young": YOUNG,
                 "seed": seed, "iterations": ITERATIONS}
                for b in axes["benchmarks"] for gc in axes["gcs"]
                for heap in axes["heaps"] for seed in seeds]
        cells = [protocol.job_to_cell(job) for job in jobs]
        order = sorted(range(len(cells)), key=lambda i: cells[i].digest())
        return [cells[i] for i in order], [jobs[i] for i in order]

    warm_cells, warm_jobs = part(range(axes["warm"]))
    cold_cells, cold_jobs = part(range(axes["warm"], axes["warm"] + axes["cold"]))
    return warm_cells + cold_cells, warm_jobs + cold_jobs, len(warm_cells)


def canon(encoded: dict) -> str:
    return json.dumps(encoded, sort_keys=True, separators=(",", ":"))


class Stream:
    """Seeded job stream: Zipf draws over the warm ranks, and with
    probability MISS_SHARE the next cold cell (once the cold list is
    used up, misses stop)."""

    def __init__(self, warm: int, total: int, seed: int):
        self.rng = rng_for(seed, "perfbench", "serve-cache")
        self.next_cold, self.total = warm, total
        acc, self.cum = 0.0, []
        for rank in range(warm):
            acc += 1.0 / (rank + 1) ** ZIPF_S
            self.cum.append(acc)

    def next(self) -> int:
        if self.rng.random() < MISS_SHARE and self.next_cold < self.total:
            self.next_cold += 1
            return self.next_cold - 1
        return min(bisect.bisect(self.cum, self.rng.random() * self.cum[-1]),
                   len(self.cum) - 1)


def setup(run):
    cells, jobs, warm = pool(run.size)
    store_dir = run.tmp / "store"
    store = ResultStore(store_dir)
    for cell in cells[:warm]:
        store.record_ok(cell, run_cell(cell))
    loop = asyncio.new_event_loop()
    service = ExperimentService(
        ServiceConfig(store=str(store_dir), socket_path=SOCKET,
                      workers=IN_FLIGHT, executor="serial"),
        clock=run.clock.now)
    loop.run_until_complete(service.start())
    client = loop.run_until_complete(ServiceClient.connect(SOCKET))
    return {"cells": cells, "jobs": jobs, "warm": warm,
            "digests": [c.digest() for c in cells],
            "store_dir": store_dir, "loop": loop, "service": service,
            "client": client, "verified": {}, "seen": {}}


def teardown(state):
    loop = state["loop"]
    loop.run_until_complete(state["client"].close())
    loop.run_until_complete(state["service"].close())
    loop.close()


def check(run, state, idx: int, msg: dict) -> bool:
    """The served payload equals the store's record and the pinned hash."""
    digest = state["digests"][idx]
    if msg.get("digest") != digest:
        return False
    payload = canon(msg["run"])
    expected = state["verified"].get(digest)
    if expected is None:
        rec = state["service"].store.get(digest)
        pins = run.pins.get("pool", [])
        if rec is None or idx >= len(pins):
            return False
        expected = canon(rec["run"])
        if traced.run_sha(rec["run"]) != pins[idx]:
            return False
        state["verified"][digest] = expected
    return payload == expected


async def closed_loop(run, state, stream: Stream, deadline: float):
    """Drive the service in batches; returns ({segment: [jobs, simulated
    seconds]}, {pool index: (segment, service exec seconds)} of misses)."""
    clock, client, samples = run.clock, state["client"], run.samples
    jobs_done = [0]
    batches, misses = {}, {}

    async def slot(batch_end: float):
        while clock.now() < batch_end:
            idx = stream.next()
            seg, t0 = clock.segment, clock.now()
            run.attempted += 1
            try:
                msg = await client.submit(state["jobs"][idx], timeout=JOB_TIMEOUT_S)
            except (asyncio.TimeoutError, ProtocolError, OSError) as exc:
                run.fail(f"job {idx}: {type(exc).__name__}: {exc}")
                continue
            rtt = clock.now() - t0
            if msg.get("type") != "result":
                run.fail(f"job {idx}: {msg.get('type')} "
                         f"{msg.get('reason') or msg.get('failure')}")
                continue
            if not check(run, state, idx, msg):
                run.fail(f"job {idx}: served run differs from the store or the pins")
                continue
            tally = batches.setdefault(seg, [0, 0.0])
            tally[0] += 1
            tally[1] += msg["run"]["execution_time"]
            meta = msg["meta"]
            kind = "hit" if msg["cached"] else "miss"
            samples.add(kind, seg, rtt)
            samples.add("overhead", seg, rtt - meta["exec_s"])
            if kind == "miss":
                misses[idx] = (seg, meta["exec_s"])
                samples.add("queued", seg, meta["queued_s"])
            state["seen"].setdefault(kind, {}).setdefault(idx, None)
            jobs_done[0] += 1
            run.spans.add("serve.round_trip", f"job{jobs_done[0]}.{kind}",
                          seg, t0, t0 + rtt)

    clock.begin()
    while True:                         # one batch is one host-time segment
        batch_end = clock.now() + BATCH_S
        await asyncio.gather(*(slot(batch_end) for _ in range(IN_FLIGHT)))
        if clock.now() >= deadline:
            break
        clock.checkpoint()              # nothing in flight here
    clock.end()
    return batches, misses


def measure(run, state):
    clock, s = run.clock, run.samples
    if run.trace:
        clock.begin()
        seg, t0 = clock.segment, clock.now()
        ResultStore(state["store_dir"])
        s.add("store_open", seg, clock.now() - t0)
        clock.end()
        store_bytes = (state["store_dir"] / "records.jsonl").stat().st_size
    stream = Stream(state["warm"], len(state["cells"]), run.seed)
    batches, misses = state["loop"].run_until_complete(
        closed_loop(run, state, stream, clock.now() + run.seconds))
    for seg, exec_s in misses.values():
        s.add("exec", seg, exec_s)

    e2e = {
        "sim_s_per_host_s": (median_rate(clock, [(seg, seg + 1, sim_s)
                                                 for seg, (_n, sim_s) in batches.items()]),
                             "sim_s/s"),
        "jobs_per_s": (median_rate(clock, [(seg, seg + 1, n)
                                           for seg, (n, _s) in batches.items()]),
                       "jobs/s"),
        # Misses are distinct cells, so this is the cells' median.
        "cell_p50_ms": (1e3 * median(s.calibrated("exec")), "ms"),
    }
    if not run.trace:
        return e2e, {}
    jobs = run.attempted
    counts = probe(run, state, misses)
    layers = traced.layer_metrics(run, counts)
    hits = s.calibrated("hit")
    layers.update({
        "hit_p50_ms": (1e3 * percentile(hits, 50), "ms"),
        "hit_p99_ms": (1e3 * percentile(hits, 99), "ms"),
        "miss_p50_ms": (1e3 * percentile(s.calibrated("miss"), 50), "ms"),
        "serve.queued_ms": (1e3 * median(s.calibrated("queued")), "ms"),
        "serve.exec_ms": (1e3 * median(s.calibrated("exec")), "ms"),
        "serve.overhead_ms": (1e3 * median(s.calibrated("overhead")), "ms"),
        "serve.hit_ratio": (len(hits) / jobs, "ratio"),
        "campaign.store_open_ms": (1e3 * median(s.calibrated("store_open")), "ms"),
        "campaign.store_bytes": (store_bytes, "bytes"),
        "campaign.store_get_ms": (1e3 * median(s.calibrated("store_get")), "ms"),
        "campaign.store_append_ms": (1e3 * median(s.calibrated("store_append")), "ms"),
    })
    return e2e, layers


def probe(run, state, misses, limit: int = 200):
    """After the timed loop: time the layers a job crosses, from outside,
    on cells the loop served (digest, store read, codecs, wire codec, and
    for misses an fsynced append to a scratch store), then re-run every
    missed cell with a Tracer. Returns the re-runs' counts."""
    clock, store = run.clock, state["service"].store
    scratch = ResultStore(run.tmp / "probe-store")
    counts = traced.Counts()
    clock.begin()
    for idx in misses:      # the service timed them sharing the interpreter
        traced.rerun_cell(run, counts, state["cells"][idx],
                          expected_sha=run.pins["pool"][idx], plain=None,
                          op=f"miss.{idx}")
    for kind in ("hit", "miss"):
        for idx in list(state["seen"].get(kind, {}))[:limit]:
            clock.tick()
            cell, op = state["cells"][idx], f"probe.{idx}"
            seg, t0 = clock.segment, clock.now()
            digest = cell.digest()
            t1 = clock.now()
            run_result = store.get_run(digest)
            t2 = clock.now()
            run.samples.add("digest", seg, t1 - t0)
            run.samples.add("store_get", seg, t2 - t1)
            run.spans.add("campaign.digest", op, seg, t0, t1)
            run.spans.add("campaign.store_get_run", op, seg, t1, t2)
            traced.codec_probe(run, store.get(digest)["run"], op, wire=True)
            if kind == "miss":
                t0 = clock.now()
                scratch.record_ok(cell, run_result)
                run.samples.add("store_append", seg, clock.now() - t0)
    clock.end()
    return counts


def fingerprints(size: str, keys: int) -> dict:
    """The pool is seed-independent: one pinned hash per pool cell."""
    from repro.campaign import encode_run
    cells, _jobs, _warm = pool(size)
    return {"pool": [traced.run_sha(encode_run(run_cell(c))) for c in cells]}
