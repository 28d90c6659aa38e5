"""The energy/pause Pareto study over {collector x placement x topology}.

:func:`run_energy_study` runs every combination as content-addressed
campaign cells (served from a shared
:class:`~repro.campaign.store.ResultStore` when given one — a cached
rerun must produce byte-identical JSON, enforced by the CI
``study-smoke`` job with ``cmp``) and reports, per combination:

* mean execution time and pooled nearest-rank pause percentiles;
* the folded :class:`~repro.energy.model.EnergyAccount` — exact
  integer microjoules per (phase, core class), so totals computed from
  per-shard stores and from a ``merge_stores`` result agree to the bit;
* GC joules per GB allocated, the figure of merit the Pareto frontier
  trades against the P99.9 pause.

The qualitative result (EXPERIMENTS.md X7): pinning GC to the P-cores
buys the shortest tail pauses at the highest GC power; pinning to the
E-cores stretches pauses by ~35% (the bandwidth-scale gap, damped by
the wider thread pool) while the GC power drops by half, so E-pinned
points dominate on joules/GB and P-pinned points dominate on the tail
— the frontier keeps both, and the adaptive split sits between them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis.lbo import nearest_rank
from ..analysis.report import render_table
from ..errors import ConfigError, require_axes
from ..gc.registry import resolve_gc
from ..machine.topology import resolve_topology
from ..units import GB, parse_size
from .model import ENERGY_PHASES, EnergyAccount, EnergyModel, UJ_PER_J
from .placement import PLACEMENT_NAMES, resolve_placement

#: Bump on incompatible study-output changes (part of the JSON).
ENERGY_SCHEMA_VERSION = 1

#: Pause percentiles reported per combination (the tail view).
_QS = (50.0, 99.0, 99.9)


@dataclass(frozen=True)
class EnergyStudyConfig:
    """One Pareto study: collectors x placements x topologies."""

    benchmarks: Tuple[str, ...] = ("xalan",)
    gcs: Tuple[str, ...] = ("ParallelOldGC", "ConcMarkSweepGC", "G1GC")
    placements: Tuple[str, ...] = PLACEMENT_NAMES
    topologies: Tuple[str, ...] = ("asym-hybrid",)
    heap: object = 8 * GB
    seeds: Tuple[int, ...] = (1, 2)
    iterations: int = 4
    system_gc: bool = False

    def __post_init__(self) -> None:
        require_axes("an energy study", benchmark=self.benchmarks,
                     collector=self.gcs, placement=self.placements,
                     topology=self.topologies, seed=self.seeds)
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        # Normalised, then deduplicated (G1/G1GC are one collector; a
        # repeated seed must not weigh twice in a mean).
        object.__setattr__(self, "benchmarks",
                           tuple(dict.fromkeys(str(b) for b in self.benchmarks)))
        object.__setattr__(
            self, "gcs",
            tuple(dict.fromkeys(resolve_gc(g).value for g in self.gcs)))
        object.__setattr__(
            self, "placements",
            tuple(dict.fromkeys(resolve_placement(p).name
                                for p in self.placements)))
        object.__setattr__(
            self, "topologies",
            tuple(dict.fromkeys(resolve_topology(t).name
                                for t in self.topologies)))
        object.__setattr__(self, "heap", float(parse_size(self.heap)))
        object.__setattr__(self, "seeds",
                           tuple(sorted({int(s) for s in self.seeds})))

    def cell(self, topology: str, gc: str, placement: str, benchmark: str,
             seed: int) -> "CellSpec":
        """The content-addressed identity of one study run.

        Topology and placement ride in the cell's ``overrides`` as plain
        registered names, so the digest stays a pure function of JSON
        scalars.
        """
        # Deferred: campaign.cells imports repro.jvm which (lazily)
        # imports this package.
        from ..campaign.cells import CellSpec

        return CellSpec.from_axes(
            benchmark, gc, self.heap, None, seed,
            iterations=self.iterations, system_gc=self.system_gc,
            overrides={"topology": topology, "gc_placement": placement},
        )

    def cells(self) -> List["CellSpec"]:
        """Every cell of the grid, in deterministic execution order."""
        out = []
        for topology in self.topologies:
            for gc in self.gcs:
                for placement in self.placements:
                    for benchmark in self.benchmarks:
                        for seed in self.seeds:
                            out.append(self.cell(topology, gc, placement,
                                                 benchmark, seed))
        return out


@dataclass
class ComboResult:
    """Everything the study reports about one (topology, gc, placement)."""

    topology: str
    gc: str
    placement: str
    exec_s: Optional[float] = None  #: mean over non-crashed runs
    crashed_cells: int = 0
    pause_count: int = 0
    pause_percentiles: Dict[str, float] = field(default_factory=dict)
    max_pause: float = 0.0
    energy: EnergyAccount = field(default_factory=EnergyAccount)
    allocated_bytes: float = 0.0

    @property
    def gc_j_per_gb(self) -> Optional[float]:
        """GC joules (STW + concurrent) per GB allocated."""
        if self.allocated_bytes <= 0.0:
            return None
        return (self.energy.gc_uj / UJ_PER_J) / (self.allocated_bytes / GB)

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-safe form. The ``uj`` ledger stays integral;
        derived joule figures are rounded for byte stability."""
        gjg = self.gc_j_per_gb
        return {
            "exec_s": None if self.exec_s is None else round(self.exec_s, 6),
            "crashed_cells": self.crashed_cells,
            "pauses": {
                "count": self.pause_count,
                "percentiles": {k: round(v, 9)
                                for k, v in self.pause_percentiles.items()},
                "max": round(self.max_pause, 9),
            },
            "energy": {
                "uj": self.energy.to_dict(),
                "phases_j": {p: round(self.energy.joules(p), 6)
                             for p in ENERGY_PHASES},
                "total_j": round(self.energy.joules(), 6),
                "gc_j": round(self.energy.gc_uj / UJ_PER_J, 6),
                "gc_j_per_gb": None if gjg is None else round(gjg, 6),
            },
            "allocated_gb": round(self.allocated_bytes / GB, 6),
        }

    @classmethod
    def from_dict(cls, topology: str, gc: str, placement: str,
                  d: Dict[str, object]) -> "ComboResult":
        combo = cls(
            topology=topology, gc=gc, placement=placement,
            exec_s=d["exec_s"], crashed_cells=d["crashed_cells"],
            pause_count=d["pauses"]["count"],
            pause_percentiles=dict(d["pauses"]["percentiles"]),
            max_pause=d["pauses"]["max"],
            energy=EnergyAccount.from_dict(d["energy"]["uj"]),
            allocated_bytes=float(d["allocated_gb"]) * GB,
        )
        return combo


def pareto_frontier(combos: List[ComboResult]) -> List[ComboResult]:
    """The non-dominated set minimising (P99.9 pause, GC joules/GB).

    A combo is dominated when another is no worse on both axes and
    strictly better on at least one. Combos without a valid joules/GB
    figure (crashed everywhere) are excluded. Deterministic order:
    ascending P99.9, then joules/GB, then names.
    """
    pts = [(c.pause_percentiles.get("p99.9", 0.0), c.gc_j_per_gb, c)
           for c in combos if c.gc_j_per_gb is not None]
    frontier = []
    for p, j, c in pts:
        dominated = any(
            (p2 <= p and j2 <= j) and (p2 < p or j2 < j)
            for p2, j2, c2 in pts if c2 is not c)
        if not dominated:
            frontier.append((p, j, c))
    frontier.sort(key=lambda pjc: (pjc[0], pjc[1], pjc[2].gc,
                                   pjc[2].placement))
    return [c for _p, _j, c in frontier]


@dataclass
class EnergyStudyResult:
    """All combination results plus the knobs that produced them."""

    config: EnergyStudyConfig
    combos: List[ComboResult] = field(default_factory=list)
    #: Cache accounting (stdout-only — a cached rerun must stay
    #: byte-identical to the run that populated the cache).
    cache_hits: int = 0
    cells_total: int = 0

    def combo(self, topology: str, gc: str, placement: str) -> ComboResult:
        """Result for one combination (:class:`ConfigError` if absent)."""
        gc = resolve_gc(gc).value
        placement = resolve_placement(placement).name
        topology = resolve_topology(topology).name
        for c in self.combos:
            if (c.topology, c.gc, c.placement) == (topology, gc, placement):
                return c
        raise ConfigError(f"no result for {topology}/{gc}/{placement}")

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-safe form of the whole study."""
        c = self.config
        results: Dict[str, Dict[str, Dict[str, object]]] = {}
        for combo in self.combos:
            results.setdefault(combo.topology, {}).setdefault(
                combo.gc, {})[combo.placement] = combo.to_dict()
        pareto = {
            topo: [{"gc": f.gc, "placement": f.placement,
                    "p99_9": round(f.pause_percentiles.get("p99.9", 0.0), 9),
                    "gc_j_per_gb": round(f.gc_j_per_gb, 6)}
                   for f in pareto_frontier(
                       [x for x in self.combos if x.topology == topo])]
            for topo in c.topologies
        }
        return {
            "v": ENERGY_SCHEMA_VERSION,
            "config": {
                "benchmarks": list(c.benchmarks),
                "gcs": list(c.gcs),
                "placements": list(c.placements),
                "topologies": list(c.topologies),
                "heap": c.heap,
                "seeds": list(c.seeds),
                "iterations": c.iterations,
                "system_gc": c.system_gc,
            },
            "results": results,
            "pareto": pareto,
        }

    def to_json(self) -> str:
        """Byte-stable serialization (same config ⇒ identical bytes)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":")) + "\n"

    # -- rendering -----------------------------------------------------

    def render(self) -> str:
        """The Pareto table, grouped by topology, frontier rows starred."""
        rows = []
        for topo in self.config.topologies:
            topo_combos = [c for c in self.combos if c.topology == topo]
            frontier = set(map(id, pareto_frontier(topo_combos)))
            for c in topo_combos:
                gjg = c.gc_j_per_gb
                rows.append([
                    topo,
                    c.gc,
                    c.placement + (" *" if id(c) in frontier else ""),
                    ("-" if c.exec_s is None else f"{c.exec_s:.2f}"),
                    f"{1e3 * c.pause_percentiles.get('p99.9', 0.0):.2f}",
                    f"{c.energy.gc_uj / UJ_PER_J:.1f}",
                    f"{c.energy.joules():.1f}",
                    ("-" if gjg is None else f"{gjg:.2f}"),
                    c.crashed_cells,
                ])
        return render_table(
            ["topology", "collector", "placement", "exec s", "P99.9 ms",
             "GC J", "total J", "J/GB", "crashed"],
            rows,
            title="Energy/pause Pareto study (* = frontier point)",
        )

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "EnergyStudyResult":
        """Rehydrate a study from its JSON (``report`` path)."""
        c = d["config"]
        config = EnergyStudyConfig(
            benchmarks=tuple(c["benchmarks"]), gcs=tuple(c["gcs"]),
            placements=tuple(c["placements"]),
            topologies=tuple(c["topologies"]), heap=c["heap"],
            seeds=tuple(c["seeds"]), iterations=int(c["iterations"]),
            system_gc=bool(c["system_gc"]),
        )
        result = cls(config=config)
        for topo in config.topologies:
            for gc in config.gcs:
                for placement in config.placements:
                    result.combos.append(ComboResult.from_dict(
                        topo, gc, placement,
                        d["results"][topo][gc][placement]))
        return result


# ----------------------------------------------------------------------
# the study
# ----------------------------------------------------------------------


def run_energy_study(config: EnergyStudyConfig,
                     store=None) -> EnergyStudyResult:
    """Run the full {collector x placement x topology} grid.

    Energy is folded per combination by merging per-run integer
    accounts, so any partition of the same cells — per-seed shards, a
    ``merge_stores`` result, a cached rerun — yields identical totals.
    A quarantined cell raises :class:`~repro.errors.QuarantinedCellError`.
    """
    from ..campaign.runner import execute_cells

    done = execute_cells(config.cells(), store=store)
    runs = done.complete("energy study")
    result = EnergyStudyResult(config=config, cache_hits=done.stats.cached,
                               cells_total=done.stats.total)
    for topology in config.topologies:
        for gc in config.gcs:
            for placement in config.placements:
                combo = ComboResult(topology=topology, gc=gc,
                                    placement=placement)
                times: List[float] = []
                pooled: List[float] = []
                for benchmark in config.benchmarks:
                    for seed in config.seeds:
                        run = runs[config.cell(topology, gc, placement,
                                               benchmark, seed).digest()]
                        if run.crashed:
                            combo.crashed_cells += 1
                            continue
                        times.append(run.execution_time)
                        pooled.extend(p.duration
                                      for p in run.gc_log.pauses)
                        combo.allocated_bytes += float(run.allocated_bytes)
                        model = EnergyModel.for_config(run.config)
                        combo.energy.merge(model.account_run(run))
                combo.exec_s = sum(times) / len(times) if times else None
                pooled.sort()
                combo.pause_count = len(pooled)
                combo.pause_percentiles = {
                    f"p{q:g}": nearest_rank(pooled, q) for q in _QS}
                combo.max_pause = pooled[-1] if pooled else 0.0
                result.combos.append(combo)
    return result
