"""repro.energy: placement policies, the joules ledger, the Pareto study.

The micro-grid used by ``TestStudy`` (1 collector x 2 placements x
asym-hybrid x 2 seeds on xalan) is a subset of the CI ``study-smoke``
recipe, so these tests and the workflow enforce the same contract:
100% cache hits on a rerun, byte-identical JSON, and the qualitative
ordering P-pinned tails < E-pinned tails while E-pinned GC joules <
P-pinned GC joules.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.store import ResultStore, merge_stores
from repro.energy.model import (ENERGY_COUNTERS, ENERGY_PHASES, GC_PHASE_MAP,
                                EnergyAccount, EnergyModel, UJ_PER_J,
                                energy_section)
from repro.energy.placement import (ADAPTIVE, PIN_E, PIN_P, PLACEMENT_NAMES,
                                    GCPlacementPolicy, apply_placement,
                                    effective_gc_threads, gc_thread_cap,
                                    resolve_placement)
from repro.energy.study import (ComboResult, EnergyStudyConfig,
                                EnergyStudyResult, pareto_frontier,
                                run_energy_study)
from repro.errors import ConfigError
from repro.gc import ALL_GC_NAMES
from repro.jvm import JVM, JVMConfig
from repro.machine import CostModel
from repro.machine.topology import ASYM_HYBRID, PAPER_SERVER
from repro.units import GB
from repro.workloads.dacapo import get_benchmark


class TestPlacementResolution:
    def test_names_and_aliases(self):
        assert resolve_placement("p-cores") is PIN_P
        assert resolve_placement("P") is PIN_P
        assert resolve_placement("pin-e") is PIN_E
        assert resolve_placement("hybrid") is ADAPTIVE
        assert resolve_placement(ADAPTIVE) is ADAPTIVE

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            resolve_placement("big-cores")

    def test_bad_selector_rejected(self):
        with pytest.raises(ConfigError):
            GCPlacementPolicy(name="x", young="medium")

    def test_placement_names_sorted(self):
        assert list(PLACEMENT_NAMES) == sorted(PLACEMENT_NAMES)


class TestPlacementRates:
    def test_homogeneous_is_exact_noop(self):
        """Byte-identity cornerstone: every policy resolves to scale 1.0
        on a single-class machine, so the cost model is bit-unchanged."""
        costs = CostModel(topology=PAPER_SERVER)
        for name in PLACEMENT_NAMES:
            applied = apply_placement(costs, name)
            assert applied == costs

    def test_asym_rates(self):
        p = PIN_P.rates(ASYM_HYBRID)
        e = PIN_E.rates(ASYM_HYBRID)
        a = ADAPTIVE.rates(ASYM_HYBRID)
        assert p == (1.0, 1.0, 1.0)
        assert e[0] == e[1] == e[2] < 1.0
        assert a == (1.0, e[1], e[2])

    def test_rates_slow_stw_phases(self):
        costs = apply_placement(CostModel(topology=ASYM_HYBRID), "e-cores")
        base = CostModel(topology=ASYM_HYBRID)
        assert (costs.stw_duration(n_threads=4, marked=1 * GB)
                > base.stw_duration(n_threads=4, marked=1 * GB))


class TestThreadCap:
    def test_homogeneous_cap_is_core_count(self):
        for name in PLACEMENT_NAMES:
            assert gc_thread_cap(PAPER_SERVER, name) == 48

    def test_asym_caps(self):
        assert gc_thread_cap(ASYM_HYBRID, "p-cores") == 8
        assert gc_thread_cap(ASYM_HYBRID, "e-cores") == 16
        # adaptive pins young on P (8 cores): the shared pool is bounded
        # by the smallest STW class.
        assert gc_thread_cap(ASYM_HYBRID, "adaptive") == 8

    def test_effective_threads_ergonomics_unchanged_without_policy(self):
        assert effective_gc_threads(PAPER_SERVER, None) == 8 + (48 - 8) * 5 // 8

    def test_effective_threads_capped_by_placement(self):
        assert effective_gc_threads(ASYM_HYBRID, PIN_P) == 8
        assert effective_gc_threads(ASYM_HYBRID, PIN_E) == 16

    def test_explicit_override_wins(self):
        assert effective_gc_threads(ASYM_HYBRID, PIN_P, 12) == 12


class TestEnergyAccount:
    def test_unknown_phase_rejected(self):
        with pytest.raises(ConfigError):
            EnergyAccount().add_uj("nap", "P", 1)

    def test_round_trip(self):
        a = EnergyAccount()
        a.add_uj("stw", "P", 123)
        a.add_uj("idle", "E", 456)
        assert EnergyAccount.from_dict(a.to_dict()) == a

    def test_gc_uj_is_stw_plus_concurrent(self):
        a = EnergyAccount()
        a.add_uj("stw", "P", 10)
        a.add_uj("concurrent", "E", 5)
        a.add_uj("mutator", "P", 100)
        assert a.gc_uj == 15
        assert a.joules() == pytest.approx(115 / UJ_PER_J)

    entries = st.lists(
        st.tuples(st.sampled_from(ENERGY_PHASES),
                  st.sampled_from(["P", "E", "uniform"]),
                  st.integers(0, 10**12)),
        max_size=20)

    @given(xs=entries, ys=entries, zs=entries)
    @settings(max_examples=50, deadline=None)
    def test_merge_is_associative_and_commutative(self, xs, ys, zs):
        def acct(entries):
            a = EnergyAccount()
            for phase, cls, uj in entries:
                a.add_uj(phase, cls, uj)
            return a

        left = acct(xs).merge(acct(ys)).merge(acct(zs))
        right = acct(xs).merge(acct(ys).merge(acct(zs)))
        swapped = acct(zs).merge(acct(xs)).merge(acct(ys))
        assert left == right == swapped
        assert left.items() == right.items()


class TestPhaseMap:
    def test_every_collector_has_a_mapping(self):
        # The nightly registry guard asserts the same invariant; keeping
        # it in the suite means a new collector fails fast locally.
        assert sorted(set(ALL_GC_NAMES) - set(GC_PHASE_MAP)) == []

    def test_buckets_are_young_or_old(self):
        for gc, kinds in GC_PHASE_MAP.items():
            for kind, bucket in kinds.items():
                assert bucket in ("young", "old"), (gc, kind)

    def test_unknown_kind_defaults_to_old(self):
        model = EnergyModel(topology=PAPER_SERVER, collector="G1GC",
                            mutator_threads=4, young_threads=4,
                            old_threads=4, conc_threads=1)
        assert model.work_for("vm-op") == "old"
        assert model.work_for("brand-new-kind") == "old"


class TestEnergySection:
    def test_derived_figures(self):
        counters = {"energy.mutator_uj": 2_000_000,
                    "energy.stw_uj": 500_000,
                    "energy.concurrent_uj": 250_000,
                    "energy.idle_uj": 1_000_000}
        section = energy_section(counters)
        assert section["gc_j"] == pytest.approx(0.75)
        assert section["total_j"] == pytest.approx(3.75)
        assert section["phases_j"]["mutator"] == pytest.approx(2.0)

    def test_counter_names_cover_phases(self):
        assert len(ENERGY_COUNTERS) == len(ENERGY_PHASES)
        for phase in ENERGY_PHASES:
            assert f"energy.{phase}_uj" in ENERGY_COUNTERS


def _run(gc, placement, seed=1, topology="asym-hybrid"):
    config = JVMConfig(gc=gc, heap=8 * GB, seed=seed, topology=topology,
                       gc_placement=placement)
    result = JVM(config).run(get_benchmark("xalan"), iterations=3,
                             system_gc=False)
    assert not result.crashed
    return result, EnergyModel.for_config(config).account_run(result)


class TestAccountRun:
    @pytest.fixture(scope="class")
    def pinned(self):
        p = _run("ParallelOldGC", "p-cores")
        e = _run("ParallelOldGC", "e-cores")
        return p, e

    def test_idle_baseline_exact(self, pinned):
        (result, account), _ = pinned
        expected = sum(c.count * c.idle_w for c in ASYM_HYBRID.core_classes)
        expected_uj = int(round(expected * result.execution_time * UJ_PER_J))
        assert account.uj("idle") == expected_uj

    def test_all_phases_present(self, pinned):
        (_, account), _ = pinned
        for phase in ("mutator", "stw", "idle"):
            assert account.uj(phase) > 0

    def test_p_pinned_charges_p_class_first(self, pinned):
        (_, p_account), (_, e_account) = pinned
        # 8 GC threads fit entirely on the 8 P-cores / 16 E-cores.
        assert p_account.uj("stw", "E") == 0
        assert e_account.uj("stw", "P") == 0

    def test_pareto_orderings(self, pinned):
        """The CI study-smoke assertions, in-suite: P-pinning buys the
        shorter tail, E-pinning the lower GC energy."""
        (p_res, p_account), (e_res, e_account) = pinned
        assert max(x.duration for x in p_res.gc_log.pauses) < \
            max(x.duration for x in e_res.gc_log.pauses)
        assert e_account.gc_uj < p_account.gc_uj

    def test_account_is_deterministic(self):
        a = _run("ParallelOldGC", "adaptive")[1]
        b = _run("ParallelOldGC", "adaptive")[1]
        assert a == b


class TestStudyConfig:
    def test_empty_axes_rejected(self):
        for axis in ("benchmarks", "gcs", "placements", "topologies",
                     "seeds"):
            with pytest.raises(ConfigError):
                EnergyStudyConfig(**{axis: ()})

    def test_axes_normalised(self):
        config = EnergyStudyConfig(gcs=("CMS",), placements=("P",),
                                   topologies=(ASYM_HYBRID,), heap="8g",
                                   seeds=(2, 1))
        assert config.gcs == ("ConcMarkSweepGC",)
        assert config.placements == ("p-cores",)
        assert config.topologies == ("asym-hybrid",)
        assert config.heap == 8 * GB
        assert config.seeds == (1, 2)

    def test_cell_count(self):
        config = EnergyStudyConfig(gcs=("ParallelOld",),
                                   placements=("p-cores", "e-cores"),
                                   seeds=(1, 2))
        assert len(config.cells()) == 4

    def test_duplicate_axis_values_collapse(self):
        config = EnergyStudyConfig(gcs=("G1", "G1GC"),
                                   placements=("P", "p-cores"),
                                   topologies=(ASYM_HYBRID, "asym-hybrid"),
                                   seeds=(1, 1, 2))
        assert config.gcs == ("G1GC",)
        assert config.placements == ("p-cores",)
        assert config.topologies == ("asym-hybrid",)
        assert config.seeds == (1, 2)
        digests = [cell.digest() for cell in config.cells()]
        assert len(digests) == len(set(digests)) == 2


class TestParetoFrontier:
    def _combo(self, gc, placement, p999, j_per_gb):
        c = ComboResult(topology="asym-hybrid", gc=gc, placement=placement,
                        pause_percentiles={"p99.9": p999},
                        allocated_bytes=1 * GB)
        c.energy.add_uj("stw", "P", int(j_per_gb * UJ_PER_J))
        return c

    def test_dominated_point_excluded(self):
        a = self._combo("A", "p-cores", 0.1, 10.0)
        b = self._combo("B", "e-cores", 0.2, 5.0)
        dominated = self._combo("C", "adaptive", 0.3, 12.0)
        front = pareto_frontier([a, b, dominated])
        assert [c.gc for c in front] == ["A", "B"]

    def test_crashed_combos_excluded(self):
        a = self._combo("A", "p-cores", 0.1, 10.0)
        crashed = ComboResult(topology="asym-hybrid", gc="B",
                              placement="e-cores",
                              pause_percentiles={"p99.9": 0.0})
        assert pareto_frontier([a, crashed]) == [a]


MICRO = dict(benchmarks=("xalan",), gcs=("ParallelOldGC",),
             placements=("p-cores", "e-cores"), topologies=("asym-hybrid",),
             heap=8 * GB, seeds=(1, 2), iterations=3)


class TestStudy:
    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        return ResultStore(str(tmp_path_factory.mktemp("energy-store")))

    @pytest.fixture(scope="class")
    def cold(self, store):
        return run_energy_study(EnergyStudyConfig(**MICRO), store=store)

    def test_cold_run_has_no_hits(self, cold):
        assert cold.cells_total == 4
        assert cold.cache_hits == 0

    def test_warm_run_is_all_hits_and_byte_identical(self, store, cold):
        warm = run_energy_study(EnergyStudyConfig(**MICRO), store=store)
        assert warm.cache_hits == warm.cells_total == 4
        assert warm.to_json() == cold.to_json()

    def test_cache_accounting_not_in_json(self, cold):
        payload = json.loads(cold.to_json())
        assert "cache_hits" not in payload
        assert "cells_total" not in payload

    def test_orderings(self, cold):
        p = cold.combo("asym-hybrid", "ParallelOldGC", "p-cores")
        e = cold.combo("asym-hybrid", "ParallelOldGC", "e-cores")
        assert p.pause_percentiles["p99.9"] < e.pause_percentiles["p99.9"]
        assert e.energy.gc_uj < p.energy.gc_uj
        assert e.gc_j_per_gb < p.gc_j_per_gb

    def test_both_pins_on_frontier(self, cold):
        front = pareto_frontier(cold.combos)
        assert {c.placement for c in front} == {"p-cores", "e-cores"}

    def test_json_round_trip(self, cold):
        clone = EnergyStudyResult.from_dict(json.loads(cold.to_json()))
        assert clone.to_json() == cold.to_json()
        assert clone.render() == cold.render()

    def test_render_stars_frontier(self, cold):
        assert "*" in cold.render()

    def test_ci_micro_grid_json_pinned(self):
        """sha256 of the CI micro-grid's study JSON (3 collectors x 3
        placements x 2 seeds), pinned from the study loop that preceded
        the shared cell-execution core: it must not change a byte."""
        config = EnergyStudyConfig(
            benchmarks=("xalan",), gcs=("ParallelOld", "CMS", "G1"),
            placements=("p-cores", "e-cores", "adaptive"),
            topologies=("asym-hybrid",), heap="8g", seeds=(1, 2),
            iterations=4)
        result = run_energy_study(config)
        assert result.cells_total == 18
        assert hashlib.sha256(result.to_json().encode()).hexdigest() == (
            "9ee41ee75b655e6e461f8b783e02e66596ebe6557c5bb14fc9e8a63dc18337ff")

    def test_energy_folds_exactly_under_merge_stores(self, tmp_path, cold):
        """Shard the grid per-seed, merge the shards, and re-run against
        the merged store: pure cache hits, byte-identical JSON — the
        integer ledger cannot drift under any fold order."""
        shards = []
        for seed in MICRO["seeds"]:
            shard = ResultStore(str(tmp_path / f"shard-{seed}"))
            run_energy_study(
                EnergyStudyConfig(**{**MICRO, "seeds": (seed,)}),
                store=shard)
            shards.append(shard)
        merged = ResultStore(str(tmp_path / "merged"))
        merge_stores(shards, merged)
        replay = run_energy_study(EnergyStudyConfig(**MICRO), store=merged)
        assert replay.cache_hits == replay.cells_total == 4
        assert replay.to_json() == cold.to_json()
