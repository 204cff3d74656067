"""The unified Engine interface: conformance, determinism, golden numbers.

The two anchors:

* Every fidelity satisfies the same :class:`repro.engines.Engine`
  protocol and fills the shared :class:`RunResult` schema.
* A default-config :class:`FabricEngine` run reproduces the seed
  harness's Fig 7-1 peak numbers *bit for bit* -- the refactor moved
  constants into :class:`CostModel` without changing a single cycle.
"""

import pickle

import pytest

from repro.config import CostModel, SimConfig
from repro.engines import (
    ENGINES,
    Engine,
    FabricEngine,
    RouterEngine,
    RunResult,
    WordLevelEngine,
    WorkloadSpec,
    make_engine,
    run_config,
)

#: Seed-repo golden value: fig7_1_peak "1024B" with quanta=2000, seed=0.
GOLDEN_PEAK_1024B_GBPS = 26.77124183006536


class TestProtocol:
    @pytest.mark.parametrize("fidelity", sorted(ENGINES))
    def test_every_engine_satisfies_protocol(self, fidelity):
        engine = make_engine(SimConfig(fidelity=fidelity))
        assert isinstance(engine, Engine)
        assert engine.fidelity == fidelity

    def test_configure_chains(self):
        config = SimConfig(seed=3)
        engine = FabricEngine()
        assert engine.configure(config) is engine
        assert engine.config is config

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(fidelity="spice")
        assert isinstance(make_engine(SimConfig(fidelity="router")), RouterEngine)

    def test_workload_validation(self):
        bad = (
            {"pattern": "tornado"},
            {"packet_bytes": 8},
            # Unrunnable budgets: rejected up front, never a silent
            # zero-throughput run.
            {"quanta": 0},
            {"quanta": -5},
            {"warmup_quanta": -1},
            {"packets": 0},
            {"packets": -1},
            {"cycles": 0},
            {"warmup_cycles": -10},
        )
        for kwargs in bad:
            with pytest.raises(ValueError):
                WorkloadSpec(**kwargs)
        # The smallest runnable budgets stay legal.
        WorkloadSpec(quanta=1, warmup_quanta=0, packets=1, cycles=1,
                     warmup_cycles=0)

    def test_specs_pickle(self):
        workload = WorkloadSpec(pattern="hotspot", p_hot=0.9)
        assert pickle.loads(pickle.dumps(workload)) == workload


class TestGoldenNumbers:
    def test_fabric_engine_matches_seed_harness_bit_for_bit(self):
        result = FabricEngine(SimConfig()).run(WorkloadSpec())
        assert result.gbps == GOLDEN_PEAK_1024B_GBPS

    def test_fig7_1_routes_through_engines_unchanged(self):
        from repro.experiments.fig7_1 import _fabric_gbps

        assert (
            _fabric_gbps(1024, uniform=False, quanta=2000, seed=0)
            == GOLDEN_PEAK_1024B_GBPS
        )

    def test_closed_form_peak_agrees(self):
        from repro.core.phases import peak_gbps

        assert FabricEngine(SimConfig()).run(
            WorkloadSpec(quanta=200)
        ).gbps == pytest.approx(peak_gbps(1024), rel=0.05)


class TestDeterminism:
    @pytest.mark.parametrize("fidelity", ["fabric", "router"])
    def test_same_seed_same_result(self, fidelity):
        config = SimConfig(fidelity=fidelity, seed=11)
        workload = WorkloadSpec(pattern="uniform", quanta=300)
        a = run_config(config, workload)
        b = run_config(config, workload)
        assert a.to_dict() == b.to_dict()

    def test_different_seed_different_uniform_result(self):
        workload = WorkloadSpec(pattern="uniform", quanta=300)
        a = run_config(SimConfig(seed=1), workload)
        b = run_config(SimConfig(seed=2), workload)
        assert a.gbps != b.gbps


class TestRunResultSchema:
    def test_fabric_result_fields(self):
        result = FabricEngine(SimConfig()).run(WorkloadSpec(quanta=100))
        assert result.fidelity == "fabric"
        assert result.cycles > 0
        assert result.delivered_words > 0
        assert len(result.per_port_packets) == 4
        assert result.latency == {}  # fabric loop has no packet timestamps
        d = result.to_dict()
        assert d["config"]["ports"] == 4
        assert d["workload"]["packet_bytes"] == 1024
        assert "trace" not in d

    def test_router_result_has_latency_percentiles(self):
        result = RouterEngine(SimConfig(fidelity="router")).run(
            WorkloadSpec(packets=200)
        )
        assert result.fidelity == "router"
        for key in ("p50_cycles", "p99_cycles", "mean_us"):
            assert key in result.latency
        assert result.latency["p50_cycles"] > 0

    def test_wordlevel_runs_with_cycle_budget(self):
        result = WordLevelEngine(
            SimConfig(fidelity="wordlevel")
        ).run(WorkloadSpec(packet_bytes=256, cycles=30_000, warmup_cycles=5_000))
        assert result.fidelity == "wordlevel"
        assert result.delivered_packets > 0
        assert result.gbps > 0

    def test_wordlevel_rejects_non_prototype_shapes(self):
        engine = WordLevelEngine(SimConfig(fidelity="wordlevel", ports=8))
        with pytest.raises(ValueError):
            engine.run(WorkloadSpec())
        engine = WordLevelEngine(SimConfig(fidelity="wordlevel"))
        # Saturated-only engine: arrival processes are rejected.
        with pytest.raises(ValueError):
            engine.run(WorkloadSpec(traffic="bernoulli"))

    def test_wordlevel_rejects_warmup_covering_the_run(self):
        engine = WordLevelEngine(SimConfig(fidelity="wordlevel"))
        # The default 20,000-cycle warmup would leave nothing to measure.
        with pytest.raises(ValueError, match="warmup_cycles=20000.*cycles=15000"):
            engine.run(WorkloadSpec(cycles=15_000))
        result = engine.run(WorkloadSpec(cycles=20_001, warmup_cycles=20_000))
        assert result.cycles == 1

    def test_wordlevel_hotspot_now_runs(self):
        # Historically raised; the unified traffic factory lifted it.
        result = WordLevelEngine(SimConfig(fidelity="wordlevel")).run(
            WorkloadSpec(
                pattern="hotspot", packet_bytes=256,
                cycles=30_000, warmup_cycles=5_000,
            )
        )
        assert result.delivered_packets > 0
        hot = result.per_port_packets[0]
        assert hot >= max(result.per_port_packets[1:])


class TestCostInjection:
    def test_faster_clock_scales_fabric_gbps(self):
        base = FabricEngine(SimConfig()).run(WorkloadSpec(quanta=200))
        fast = FabricEngine(SimConfig(clock_hz=500e6)).run(WorkloadSpec(quanta=200))
        assert fast.gbps == pytest.approx(2 * base.gbps)

    def test_control_overhead_reaches_the_quantum_loop(self):
        lean_costs = CostModel.default().replace(quantum_ctl_overhead=24)
        lean = FabricEngine(SimConfig(costs=lean_costs)).run(WorkloadSpec(quanta=200))
        base = FabricEngine(SimConfig()).run(WorkloadSpec(quanta=200))
        assert lean.gbps > base.gbps

    def test_quantum_words_override_reaches_fragmentation(self):
        small = FabricEngine(SimConfig(quantum_words=64)).run(
            WorkloadSpec(quanta=400)
        )
        base = FabricEngine(SimConfig()).run(WorkloadSpec(quanta=400))
        # 1024B = 256 words: quantum 64 pays control overhead 4x per packet
        assert small.gbps < base.gbps


class TestSweepEndToEnd:
    def test_sweep_row_matches_golden_peak(self):
        from repro.sweep import parse_grid, run_sweep

        table = run_sweep(parse_grid(["ports=4", "quantum=256"]), workers=1)
        assert len(table["rows"]) == 1
        assert table["rows"][0]["result"]["gbps"] == GOLDEN_PEAK_1024B_GBPS

    def test_sweep_uses_multiple_workers(self):
        from repro.sweep import parse_grid, run_sweep

        table = run_sweep(
            parse_grid(["quantum=64,128,256,512"]),
            workers=4,
            base_workload=WorkloadSpec(quanta=300),
        )
        assert table["sweep"]["cells"] == 4
        assert len(table["sweep"]["worker_pids"]) > 1

    def test_sweep_rows_stable_across_worker_counts(self):
        from repro.sweep import parse_grid, run_sweep

        grid = parse_grid(["bytes=64,1024", "pattern=uniform"])
        base = WorkloadSpec(quanta=300)
        serial = run_sweep(grid, workers=1, base_workload=base)
        parallel = run_sweep(grid, workers=2, base_workload=base)
        assert [r["result"] for r in serial["rows"]] == [
            r["result"] for r in parallel["rows"]
        ]
