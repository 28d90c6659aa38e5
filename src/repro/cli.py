"""Command-line entry points and the option table every command shares.

Four commands mirror the paper's workflow and live here:

* ``repro-dacapo``    — run a DaCapo benchmark under a chosen GC and print
  the per-iteration times plus the GC log;
* ``repro-cassandra`` — run the Cassandra/YCSB experiment and print the
  server pause trace and client latency statistics;
* ``repro-report``    — parse a GC log file (HotSpot-style text, as
  emitted by ``--gc-log``) and print pause statistics;
* ``repro-specjbb``   — run the SPECjbb-style warehouse ramp.

The others live with their subsystems, and ``[project.scripts]`` points
at each module's ``main``: ``repro-campaign`` (:mod:`repro.campaign`),
``repro-trace`` (:mod:`repro.telemetry`), ``repro-perf``
(:mod:`repro.perf`), ``repro-serve`` (:mod:`repro.serve`),
``repro-cluster`` (:mod:`repro.cluster`; the failure-detector study is
its ``failures`` subcommand), ``repro-lint`` (:mod:`repro.lint`),
``repro-fleet`` (:mod:`repro.fleet`), ``repro-lbo``
(:mod:`repro.analysis.lbo`) and ``repro-energy`` (:mod:`repro.energy`).

Every command takes its shared flags from :data:`FLAGS` — the axes the
paper sweeps in §3.1 (collector, heap, young generation, TLAB, seed) and
their grid forms, the service connection, the store and the outputs. A
command names the flags it takes, sets its own defaults with
``set_defaults`` and runs through :func:`run_command`, the one error
wrapper. The study commands share :func:`study_command`.

``repro-dacapo --audit`` additionally attaches the runtime
:class:`~repro.lint.audit.InvariantAuditor` to the run — the simulator's
``-XX:+VerifyBeforeGC``/``-XX:+VerifyAfterGC``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from .analysis.latency import latency_band_stats
from .analysis.pauses import pause_stats
from .analysis.report import render_table
from .errors import ConfigError, ReproError
from .gc.registry import GCType
from .heap.tlab import TLABConfig
from .jvm import JVM, JVMConfig
from .jvm.gclog import format_gc_log, parse_gc_log
from .units import parse_size

#: ``--gc``/``--gcs`` help: every collector the registry resolves.
GC_HELP = "|".join(t.value for t in GCType) + " (or short names: G1, CMS ...)"


def _kw(kw: Dict[str, Any], **defaults: Any) -> Dict[str, Any]:
    return {**defaults, **kw}


#: The one definition of every flag more than one command takes. Each
#: entry adds its flag to a parser or argument group; keyword arguments
#: override what ``set_defaults`` cannot (``required``, ``help``).
FLAGS: Dict[str, Callable[..., argparse.Action]] = {
    # -- one JVM run (paper §3.1) ---------------------------------------
    "gc": lambda p, **kw: p.add_argument("--gc", **_kw(
        kw, default="ParallelOld", help=f"collector: {GC_HELP}")),
    "heap": lambda p, **kw: p.add_argument("--heap", **_kw(
        kw, default="16g", help="heap size (-Xmx/-Xms)")),
    "young": lambda p, **kw: p.add_argument("--young", **_kw(
        kw, default=None, help="young size (-Xmn)")),
    "no-tlab": lambda p, **kw: p.add_argument("--no-tlab", **_kw(
        kw, action="store_true", help="disable TLABs")),
    "seed": lambda p, **kw: p.add_argument("--seed", **_kw(
        kw, type=int, default=0, help="simulation seed")),
    "topology": lambda p, **kw: p.add_argument("--topology", **_kw(
        kw, default=None, metavar="NAME",
        help="registered machine topology (default: the paper's "
             "48-core server)")),
    "placement": lambda p, **kw: p.add_argument("--placement", **_kw(
        kw, default=None, metavar="POLICY",
        help="GC-thread placement policy on asymmetric machines "
             "(p-cores|e-cores|adaptive)")),
    # ``short=False`` drops ``-n`` (the grid and study commands).
    "iterations": lambda p, short=True, **kw: p.add_argument(
        *(("-n",) if short else ()), "--iterations", **_kw(
            kw, type=int, default=10, help="benchmark iterations per run")),
    "no-system-gc": lambda p, **kw: p.add_argument("--no-system-gc", **_kw(
        kw, action="store_true",
        help="disable the forced full GC between iterations")),
    "system-gc": lambda p, **kw: p.add_argument("--system-gc", **_kw(
        kw, action="store_true",
        help="force a full collection between iterations")),
    "duration": lambda p, **kw: p.add_argument("--duration", **_kw(
        kw, type=float, default=3600.0,
        help="serving time in simulated seconds")),
    "ops": lambda p, **kw: p.add_argument("--ops", **_kw(
        kw, type=float, default=1350.0, help="offered operations per second")),
    # -- grid axes: one list per axis ------------------------------------
    "benchmarks": lambda p, **kw: p.add_argument("--benchmarks", **_kw(
        kw, nargs="+", default=None, help="DaCapo benchmark names")),
    "gcs": lambda p, **kw: p.add_argument("--gcs", **_kw(
        kw, nargs="+", default=["ParallelOld"], help=f"collectors ({GC_HELP})")),
    "heaps": lambda p, **kw: p.add_argument("--heaps", **_kw(
        kw, nargs="+", default=["16g"], help="heap sizes (-Xmx), e.g. 1g 16g")),
    "youngs": lambda p, **kw: p.add_argument("--youngs", **_kw(
        kw, nargs="+", default=None,
        help="young sizes (-Xmn); omit for the default fraction")),
    "seeds": lambda p, **kw: p.add_argument("--seeds", **_kw(
        kw, nargs="+", type=int, default=[0], help="simulation seeds")),
    # -- execution and the result store ----------------------------------
    "store": lambda p, **kw: p.add_argument("--store", **_kw(
        kw, default=None, metavar="DIR",
        help="ResultStore directory: cells already in it are cache hits")),
    "executor": lambda p, **kw: p.add_argument("--executor", **_kw(
        kw, choices=["serial", "process"], default="process",
        help="where cells run")),
    "workers": lambda p, **kw: p.add_argument("--workers", **_kw(
        kw, type=int, default=None, help="concurrent workers")),
    "timeout": lambda p, **kw: p.add_argument("--timeout", **_kw(
        kw, type=float, default=None,
        help="per-cell wall-clock budget in seconds")),
    "retries": lambda p, **kw: p.add_argument("--retries", **_kw(
        kw, type=int, default=2,
        help="retries before a failing cell is quarantined")),
    "queue-limit": lambda p, **kw: p.add_argument("--queue-limit", **_kw(
        kw, type=int, default=64,
        help="admission bound; submits beyond it get a 429")),
    "progress": lambda p, **kw: p.add_argument("--progress", **_kw(
        kw, action="store_true",
        help="live progress (done/total, ETA) on stderr")),
    # -- service connection ----------------------------------------------
    "socket": lambda p, **kw: p.add_argument("--socket", **_kw(
        kw, default=None, metavar="PATH",
        help="Unix socket path (preferred locally)")),
    "host": lambda p, **kw: p.add_argument("--host", **_kw(
        kw, default="127.0.0.1", help="TCP host")),
    "port": lambda p, **kw: p.add_argument("--port", **_kw(
        kw, type=int, default=0, help="TCP port")),
    "wait": lambda p, **kw: p.add_argument("--wait", **_kw(
        kw, type=float, default=600.0,
        help="client-side response timeout (seconds)")),
    # -- outputs ---------------------------------------------------------
    "out": lambda p, **kw: p.add_argument("--out", **_kw(
        kw, default=None, metavar="FILE", help="write the JSON result here")),
    "output": lambda p, **kw: p.add_argument("-o", "--output", **_kw(
        kw, default=None, help="write the output to this file")),
    "json": lambda p, **kw: p.add_argument("--json", **_kw(
        kw, action="store_true", help="machine-readable JSON output")),
}

#: The flags of one JVM run, as ``repro-dacapo`` takes them.
JVM_FLAGS = ("gc", "heap", "young", "no-tlab", "seed", "topology", "placement")
#: The service connection flags every ``repro-serve``/``repro-cluster``
#: subcommand takes.
CONN_FLAGS = ("socket", "host", "port")


def add_flags(parser, *names: str) -> None:
    """Add the :data:`FLAGS` entries *names*, in order, to *parser* (a
    parser or an argument group)."""
    for name in names:
        FLAGS[name](parser)


def config_from_args(args):
    """The :class:`~repro.jvm.JVMConfig` the :data:`JVM_FLAGS` describe
    (``--topology``/``--placement`` are optional)."""
    kw = {}
    if getattr(args, "topology", None):
        kw["topology"] = args.topology
    if getattr(args, "placement", None):
        kw["gc_placement"] = args.placement
    return JVMConfig(
        gc=args.gc,
        heap=parse_size(args.heap),
        young=parse_size(args.young) if args.young else None,
        tlab=TLABConfig(enabled=not args.no_tlab),
        seed=args.seed,
        **kw,
    )


def run_command(parser: argparse.ArgumentParser,
                argv: Optional[List[str]] = None) -> int:
    """Parse *argv* and run the chosen command's ``fn``.

    A library failure (:class:`~repro.errors.ReproError`) or an OS
    error prints ``<prog>: error: <message>`` on stderr and exits 2; a
    reader that closes stdout early (``... | head``) is a quiet exit 0.
    """
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Point stdout at /dev/null so the interpreter's final flush
        # does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except (ReproError, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


def load_study(path: str, result_cls):
    """Rehydrate a study JSON written by ``run --out``; a file that is
    not such a study is a :class:`ConfigError`."""
    with open(path) as fh:
        try:
            return result_cls.from_dict(json.load(fh))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ConfigError(f"{path} is not a valid study JSON "
                              f"({type(exc).__name__}: {exc})") from None


def study_command(argv: Optional[List[str]], *, prog: str, description: str,
                  add_run_args: Callable[[argparse.ArgumentParser], None],
                  run: Callable[..., Tuple[Any, int, int]], result_cls,
                  hits: str = "cells",
                  add_commands: Optional[Callable] = None) -> int:
    """The ``run``/``report`` command the studies share.

    ``run`` takes the study's flags (*add_run_args*) plus ``--store`` and
    ``--out``; *run(args, store)* returns ``(result, cache hits, cells)``.
    The cache line goes to stdout only, never into the JSON: a cached
    rerun must write a byte-identical ``--out`` file. ``report``
    re-renders a study JSON; *add_commands(sub)* adds more subcommands.
    """
    parser = argparse.ArgumentParser(prog=prog, description=description)
    sub = parser.add_subparsers(dest="command", required=True)

    def run_cmd(args) -> int:
        from .campaign.store import ResultStore

        store = ResultStore(args.store) if args.store else None
        result, cached, total = run(args, store)
        print(f"{hits}: {cached}/{total} cache hits")
        print(result.render())
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(result.to_json())
            print(f"study written to {args.out}")
        return 0

    def report_cmd(args) -> int:
        print(load_study(args.study, result_cls).render())
        return 0

    p = sub.add_parser("run", help="run a study")
    add_run_args(p)
    add_flags(p, "store", "out")
    p.set_defaults(fn=run_cmd)

    p = sub.add_parser("report", help="render the tables from a study JSON")
    p.add_argument("study", help="study JSON written by `run --out`")
    p.set_defaults(fn=report_cmd)
    if add_commands is not None:
        add_commands(sub)
    return run_command(parser, argv)


# -- the paper's commands ---------------------------------------------------


def _dacapo(args) -> int:
    from .workloads.dacapo import get_benchmark

    tracer = None
    if args.trace:
        from .telemetry import Tracer

        tracer = Tracer()
    jvm = JVM(config_from_args(args), tracer=tracer)
    auditor = None
    if args.audit:
        from .lint import InvariantAuditor

        auditor = InvariantAuditor()
        auditor.attach(jvm)
    reporter = None
    on_iteration = None
    if args.progress:
        from .campaign.progress import WALL_CLOCK, ProgressReporter

        reporter = ProgressReporter(args.iterations, label="iterations",
                                    clock=WALL_CLOCK)
        reporter.start()
        on_iteration = lambda _i, _t: reporter.advance()  # noqa: E731
    result = jvm.run(
        get_benchmark(args.benchmark),
        iterations=args.iterations,
        system_gc=not args.no_system_gc,
        threads=args.threads,
        on_iteration=on_iteration,
    )
    if reporter is not None:
        reporter.finish()
    print(result.summary())
    rows = [(i + 1, round(t, 3)) for i, t in enumerate(result.iteration_times)]
    print(render_table(["iteration", "duration (s)"], rows))
    if args.gc_log:
        with open(args.gc_log, "w") as fh:
            fh.write(format_gc_log(result.gc_log, jvm.config.heap_bytes))
        print(f"GC log written to {args.gc_log}")
    if tracer is not None:
        from .telemetry import write_trace

        write_trace(tracer, args.trace)
        print(f"trace written to {args.trace} ({tracer.seq} events, "
              f"{tracer.ring.dropped} dropped)")
    if auditor is not None:
        print(auditor.summary())
        for violation in auditor.violations:
            print(violation.format())
        if not auditor.ok:
            return 1
    return 1 if result.crashed else 0


def dacapo_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-dacapo``."""
    from .workloads.dacapo import ALL_BENCHMARKS

    parser = argparse.ArgumentParser(
        prog="repro-dacapo", description="Run a synthetic DaCapo benchmark."
    )
    parser.add_argument("benchmark", choices=ALL_BENCHMARKS)
    add_flags(parser, "iterations", "no-system-gc")
    parser.add_argument("-t", "--threads", type=int, default=None)
    parser.add_argument("--gc-log", default=None, help="write a GC log file")
    parser.add_argument("--audit", action="store_true",
                        help="attach the runtime InvariantAuditor "
                             "(VerifyBeforeGC/VerifyAfterGC analogue)")
    add_flags(parser, "progress")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a JSONL telemetry trace (JFR analogue; "
                             "inspect with repro-trace report/export)")
    add_flags(parser, *JVM_FLAGS)
    parser.set_defaults(fn=_dacapo)
    return run_command(parser, argv)


def _cassandra(args) -> int:
    from .cassandra import default_config, stress_config
    from .ycsb import LOAD_PHASE, WORKLOAD_A_LIKE, YCSBClient

    config = config_from_args(args)
    heap_bytes = config.heap_bytes
    cass = stress_config(heap_bytes) if args.stress else default_config(heap_bytes)
    workload = (LOAD_PHASE if args.phase == "load" else WORKLOAD_A_LIKE).with_(
        operations_per_second=args.ops
    )
    client = YCSBClient(workload, seed=args.seed)
    trace = client.run(config, cass, duration=args.duration)
    server = trace.server_result
    print(server.summary())
    stats = pause_stats(server.gc_log, server.execution_time)
    print(render_table(
        ["#pauses(full)", "avg pause (s)", "total pause (s)", "exec (s)"],
        [stats.row()],
    ))
    for name, sub in (("READ", trace.reads), ("UPDATE", trace.updates)):
        if len(sub.latencies_ms) == 0:
            continue
        bands = latency_band_stats(sub.op_times, sub.latencies_ms, sub.pause_intervals)
        print(render_table(["metric", name], bands.rows(), title=f"{name} latency"))
    return 1 if server.crashed else 0


def cassandra_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-cassandra``."""
    parser = argparse.ArgumentParser(
        prog="repro-cassandra",
        description="Run the Cassandra server under a YCSB workload.",
    )
    parser.add_argument("--phase", choices=["load", "run"], default="load",
                        help="load = pure inserts; run = 50/50 read-update")
    parser.add_argument("--stress", action="store_true",
                        help="paper's stress configuration (nothing flushes)")
    add_flags(parser, "duration", "ops", *JVM_FLAGS)
    parser.set_defaults(heap="64g", young="12g", fn=_cassandra)
    return run_command(parser, argv)


def _report(args) -> int:
    with open(args.logfile) as fh:
        log = parse_gc_log(fh.read())
    if not log.pauses:
        print("no pauses in log")
        return 0
    end = max(p.end for p in log.pauses)
    stats = pause_stats(log, end)
    print(log.summary())
    print(render_table(
        ["#pauses(full)", "avg pause (s)", "total pause (s)", "span (s)"],
        [stats.row()],
    ))
    return 0


def report_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-report``: analyse a GC log file."""
    parser = argparse.ArgumentParser(
        prog="repro-report", description="Analyse a repro GC log file."
    )
    parser.add_argument("logfile")
    parser.set_defaults(fn=_report)
    return run_command(parser, argv)


def _specjbb(args) -> int:
    from .workloads.specjbb import SPECjbbWorkload

    jvm = JVM(config_from_args(args))
    result = jvm.run(SPECjbbWorkload(), warehouses=args.warehouses,
                     measurement_seconds=args.measure)
    if result.crashed:
        print(result.summary())
        return 1
    rows = [
        (p.warehouses, round(p.bops), round(p.gc_pause_seconds, 2),
         f"{100 * p.gc_pause_seconds / p.elapsed:.1f}%")
        for p in result.extras["points"]
    ]
    print(render_table(
        ["warehouses", "BOPS", "GC pause (s)", "GC share"],
        rows, title=f"SPECjbb-style ramp [{jvm.config.gc.value}]",
    ))
    print(f"score: {result.extras['score']:.0f} BOPS")
    return 0


def specjbb_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-specjbb``: warehouse throughput ramp."""
    parser = argparse.ArgumentParser(
        prog="repro-specjbb",
        description="SPECjbb-style warehouse throughput ramp.",
    )
    parser.add_argument("-w", "--warehouses", type=int, nargs="*", default=None,
                        help="warehouse counts (default: 1..2x cores ramp)")
    parser.add_argument("-m", "--measure", type=float, default=20.0,
                        help="measurement seconds per point")
    add_flags(parser, *JVM_FLAGS)
    parser.set_defaults(fn=_specjbb)
    return run_command(parser, argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(dacapo_main())
