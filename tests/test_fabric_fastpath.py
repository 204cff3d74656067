"""Fabric fast path: allocation cache, compiled tables, steady-state
fast-forward, and snapshot/resume identity.

The contract under test everywhere: every fast-path layer is
*bit-identical* to the plain step loop -- same Allocation objects, same
FabricStats fields, same clock and token state.
"""

import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CostModel, SimConfig
from repro.core import allocator as allocator_mod
from repro.core.allocator import (
    Allocator,
    CompiledAllocator,
    plain_allocation,
    shared_compiled,
)
from repro.core.fabricsim import (
    CounterUniformSource,
    FabricSimulator,
    FabricStats,
    saturated_permutation,
    saturated_uniform,
    saturated_uniform_counter,
)
from repro.core.ring import RingGeometry
from repro.core.token import RotatingToken
from repro.engines import WorkloadSpec, run_config
from repro.faults import FaultEvent, FaultPlan
from repro.telemetry import runtime
from repro.traffic.build import fabric_source_for_shard, shard_source
from repro.traffic.spec import PRESETS, spec_from_legacy

EXAMPLE_TRACE = str(
    pathlib.Path(__file__).resolve().parent.parent
    / "examples" / "traces" / "imix_1k.csv"
)


@st.composite
def alloc_cases(draw):
    """(n, networks, requests, token) over ring sizes 4/8/16."""
    n = draw(st.sampled_from((4, 8, 16)))
    networks = draw(st.sampled_from((1, 2)))
    requests = tuple(
        draw(st.one_of(st.none(), st.integers(0, n - 1))) for _ in range(n)
    )
    token = draw(st.integers(0, n - 1))
    return n, networks, requests, token


@st.composite
def lean_cases(draw):
    """(n, networks, requests, token) over odd and even ring sizes."""
    n = draw(st.sampled_from((2, 3, 4, 5, 8, 16)))
    networks = draw(st.sampled_from((1, 2)))
    requests = tuple(
        draw(st.one_of(st.none(), st.integers(0, n - 1))) for _ in range(n)
    )
    token = draw(st.integers(0, n - 1))
    return n, networks, requests, token


def assert_stats_identical(a: FabricStats, b: FabricStats) -> None:
    """Field-for-field equality of every accumulated statistic."""
    for f in FabricStats._COUNTER_FIELDS:
        assert getattr(a, f) == getattr(b, f), f
    for f in FabricStats._VECTOR_FIELDS:
        assert list(getattr(a, f)) == list(getattr(b, f)), f
    assert a.gbps == b.gbps
    assert a.mpps == b.mpps


def _traffic_source(spec, seed: int, ports: int = 4):
    """The counter-based source the space engine builds for ``spec``."""
    return fabric_source_for_shard(
        shard_source(spec, seed=seed), ports=ports, costs=CostModel.default()
    )


#: Snapshot/resume workloads: id -> (ports, quanta N, snapshot quantum k,
#: source factory).  Every TrafficSpec preset, the example trace, and a
#: legacy-trio spec forced onto the counter model (the space path's
#: build) ride along with the two hand-rolled fabric sources.
RESUME_CASES = {
    "permutation": (
        8, 400, 100, lambda: saturated_permutation(256, shift=3, n=8)
    ),
    "uniform_counter": (
        16, 331, 17, lambda: saturated_uniform_counter(256, 42, n=16)
    ),
    **{
        f"preset_{name}": (
            4, 320, 137, lambda name=name: _traffic_source(name, seed=11)
        )
        for name in PRESETS
    },
    "trace_csv": (4, 300, 150, lambda: _traffic_source(EXAMPLE_TRACE, seed=0)),
    "legacy_uniform": (
        4, 320, 160,
        lambda: _traffic_source(
            spec_from_legacy(pattern="uniform", packet_bytes=512), seed=2
        ),
    ),
}


class TestAllocationCache:
    @given(alloc_cases())
    @settings(max_examples=200, deadline=None)
    def test_cached_allocator_bit_identical(self, case):
        n, networks, requests, token = case
        ring = RingGeometry(n)
        fast = Allocator(ring, networks=networks, cache_size=64)
        ref = plain_allocation(ring, networks, requests, token)
        miss = fast.allocate(requests, token)
        hit = fast.allocate(requests, token)
        assert miss == ref
        assert hit == ref
        assert hit is miss  # the cached object is shared
        assert fast.cache_hits == 1 and fast.cache_misses == 1

    @given(alloc_cases())
    @settings(max_examples=200, deadline=None)
    def test_compiled_grants_match_allocation(self, case):
        n, networks, requests, token = case
        ring = RingGeometry(n)
        comp = CompiledAllocator(ring, networks).allocate(requests, token)
        plain = plain_allocation(ring, networks, requests, token)

        def triples(alloc):
            return tuple(
                (g.src, g.dst, g.expansion) for g in alloc.grants.values()
            )

        assert comp == plain
        assert triples(comp) == triples(plain)  # grant order too

    def test_lru_eviction_bound(self):
        ring = RingGeometry(4)
        alloc = Allocator(ring, cache_size=4)
        for token in range(4):
            for dst in range(4):
                alloc.allocate((dst, None, None, None), token)
        info = alloc.cache_info()
        assert info["size"] <= 4
        assert info["maxsize"] == 4
        assert info["misses"] == 16

    def test_hit_rate_on_recurring_workload(self):
        sim = FabricSimulator(allocator=Allocator(RingGeometry(4), cache_size=64))
        sim.run(saturated_permutation(64, shift=1), quanta=100)
        info = sim.allocator.cache_info()
        # One distinct (requests, token) key per token position.
        assert info["hits"] + info["misses"] == 100
        assert info["hit_rate"] > 0.9

    def test_enable_disable(self):
        alloc = Allocator(RingGeometry(4))
        assert not alloc.cache_enabled
        alloc.enable_cache(16)
        assert alloc.cache_enabled
        alloc.disable_cache()
        assert not alloc.cache_enabled
        with pytest.raises(ValueError):
            alloc.enable_cache(0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(alloc_cache=-1)


class TestPlainOracle:
    """``plain_allocation`` is the reference rule; the runtime
    ``Allocator`` evaluates the same rule on the shared compiled table."""

    @given(lean_cases())
    @settings(max_examples=300, deadline=None)
    def test_plain_rule_equals_allocator(self, case):
        n, networks, requests, token = case
        ring = RingGeometry(n)
        ref = plain_allocation(ring, networks, requests, token)
        got = Allocator(ring, networks).allocate(requests, token)
        assert got == ref
        assert list(got.grants.items()) == list(ref.grants.items())

    @pytest.mark.parametrize("networks", (1, 2))
    @pytest.mark.parametrize(
        "requests,token,match",
        [
            ((0, 1, 2), 0, "expected 4 requests"),
            ((0, 1, 2, 3, None), 0, "expected 4 requests"),
            ((0, 1, 2, 3), 4, "token 4 out of range"),
            ((0, 1, 2, 3), -1, "token -1 out of range"),
            ((None, 1, 4, 3), 0, "request 4 out of range"),
            ((None, -1, 2, 3), 0, "request -1 out of range"),
        ],
    )
    def test_same_argument_checks(self, networks, requests, token, match):
        ring = RingGeometry(4)
        with pytest.raises(ValueError, match=match):
            plain_allocation(ring, networks, requests, token)
        with pytest.raises(ValueError, match=match):
            Allocator(ring, networks).allocate(requests, token)

    def test_runtime_allocator_builds_no_paths(self, monkeypatch):
        ring = RingGeometry(4)
        shared_compiled(4)  # the table is built once, up front

        def no_paths(*args, **kwargs):
            raise AssertionError("the plain rule ran at runtime")

        monkeypatch.setattr(RingGeometry, "candidate_paths", no_paths)
        alloc = Allocator(ring).allocate((1, 0, 3, 2), 0)
        assert alloc.num_granted == 4
        for fidelity, budget in (("fabric", {"quanta": 50}),
                                 ("router", {"packets": 50})):
            res = run_config(
                SimConfig(fidelity=fidelity),
                WorkloadSpec(pattern="uniform", packet_bytes=256, **budget),
            )
            assert res.delivered_packets > 0
        with pytest.raises(AssertionError, match="plain rule"):
            plain_allocation(ring, 1, (1, 0, 3, 2), 0)


class TestSharedTable:
    """One immutable compiled table per geometry, and the lean
    ``grant_hops`` evaluation the space chips step on."""

    @given(lean_cases())
    @settings(max_examples=300, deadline=None)
    def test_grant_hops_matches_plain_rule(self, case):
        n, networks, requests, token = case
        ref = plain_allocation(RingGeometry(n), networks, requests, token)
        grants, blocked = shared_compiled(n, networks).grant_hops(
            requests, token
        )
        # Token-visit order, exactly as Allocation.grants iterates.
        assert grants == [(s, g.expansion) for s, g in ref.grants.items()]
        assert blocked == len(ref.blocked)

    @pytest.mark.parametrize(
        "requests,token,match",
        [
            ((0, 1, 2), 0, "expected 4 requests"),
            ((0, 1, 2, 3), 4, "token 4 out of range"),
            ((None, 1, 4, 3), 0, "request 4 out of range"),
        ],
    )
    def test_grant_hops_checks_arguments(self, requests, token, match):
        with pytest.raises(ValueError, match=match):
            shared_compiled(4).grant_hops(requests, token)

    def test_allocators_share_one_table(self):
        table = Allocator(RingGeometry(16), cache_size=8).compiled()
        assert table is Allocator(RingGeometry(16), cache_size=8).compiled()
        assert table is shared_compiled(16, 1)
        assert shared_compiled(16, 2) is not table
        assert isinstance(table.table, tuple)
        assert all(isinstance(row, tuple) for row in table.table)

    def test_n256_space_run_compiles_one_table(self, monkeypatch):
        compiles = []
        init = CompiledAllocator.__init__

        def counting_init(self, *args, **kwargs):
            compiles.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(allocator_mod, "_SHARED", {})
        monkeypatch.setattr(CompiledAllocator, "__init__", counting_init)
        res = run_config(
            SimConfig(fidelity="space", ports=256, partitions=1,
                      link_latency=4),
            WorkloadSpec(traffic="imix", quanta=20, warmup_quanta=5),
        )
        assert res.delivered_packets > 0
        # 48 chips, one table.
        assert len(compiles) == 1


class TestFastForward:
    @pytest.mark.parametrize(
        "n,shift,words",
        [(4, 2, 256), (8, 3, 64), (16, 8, 256), (8, 1, 600)],
    )
    def test_bit_identical_to_stepping(self, n, shift, words):
        """words=600 > max_quantum_words exercises fragmented packets."""
        source = saturated_permutation(words, shift=shift, n=n)
        ring = RingGeometry(n)
        stepped_sim = FabricSimulator(ring=ring, token=RotatingToken(n))
        stepped = stepped_sim.run(source, quanta=700, warmup_quanta=60)
        ff_sim = FabricSimulator(
            ring=ring, token=RotatingToken(n), fast_forward=True
        )
        ff = ff_sim.run(source, quanta=700, warmup_quanta=60)
        assert ff_sim.ff_quanta > 0
        assert_stats_identical(stepped, ff)
        assert ff_sim.clock == stepped_sim.clock
        assert ff_sim.token.rotations == stepped_sim.token.rotations
        assert ff_sim.token.master == stepped_sim.token.master

    def test_disabled_for_stochastic_source(self):
        sim = FabricSimulator(fast_forward=True)
        sim.run(saturated_uniform_counter(64, seed=7), quanta=200)
        assert sim.ff_quanta == 0

    def test_disabled_under_keep_history(self):
        sim = FabricSimulator(keep_history=True, fast_forward=True)
        sim.run(saturated_permutation(64, shift=1), quanta=120)
        assert sim.ff_quanta == 0
        assert len(sim.history) == 120

    def test_disabled_under_telemetry(self):
        with runtime.capture():
            sim = FabricSimulator(fast_forward=True)
            sim.run(saturated_permutation(64, shift=1), quanta=120)
        assert sim.ff_quanta == 0

    def test_disabled_under_min_packets_stopping(self):
        sim = FabricSimulator(fast_forward=True)
        stats = sim.run(saturated_permutation(64, shift=1), min_packets=50)
        assert sim.ff_quanta == 0
        assert stats.delivered_packets >= 50

    def test_disabled_under_faults_and_still_bit_identical(self):
        plan = FaultPlan(
            events=(FaultEvent(cycle=2_000, kind="token_loss"),)
        )
        source = saturated_permutation(64, shift=1)
        ref_sim = FabricSimulator()
        ref_sim.install_faults(plan)
        ref = ref_sim.run(source, quanta=300)
        ff_sim = FabricSimulator(fast_forward=True)
        ff_sim.install_faults(plan)
        got = ff_sim.run(source, quanta=300)
        assert ff_sim.ff_quanta == 0
        assert_stats_identical(ref, got)


class TestSnapshotRestore:
    def test_continuation_is_bit_identical(self):
        source = saturated_permutation(128, shift=2, n=8)
        whole_sim = FabricSimulator(ring=RingGeometry(8), token=RotatingToken(8))
        whole = whole_sim.run(source, quanta=300, warmup_quanta=100)

        first = FabricSimulator(ring=RingGeometry(8), token=RotatingToken(8))
        first.run(source, quanta=100, warmup_quanta=0)  # the warmup region
        snap = first.snapshot()
        resumed = FabricSimulator(ring=RingGeometry(8), token=RotatingToken(8))
        resumed.restore(snap)
        cont = resumed.run(source, quanta=300, warmup_quanta=0)
        assert_stats_identical(whole, cont)
        assert resumed.clock == whole_sim.clock

    def test_snapshot_refuses_armed_faults(self):
        sim = FabricSimulator()
        sim.install_faults(
            FaultPlan(events=(FaultEvent(cycle=10, kind="token_loss"),))
        )
        with pytest.raises(ValueError):
            sim.snapshot()

    def test_snapshot_allowed_once_fault_plan_quiescent(self):
        # A stall window early in the run: snapshot must refuse while the
        # window is pending/open, then succeed once every event has fired
        # and expired -- and the continuation must stay bit-identical.
        plan = FaultPlan(
            events=(
                FaultEvent(
                    cycle=500, kind="stall", target="port:1", duration=2_000
                ),
            )
        )
        source = saturated_permutation(64, shift=1)
        whole_sim = FabricSimulator()
        whole_sim.install_faults(plan)
        whole = whole_sim.run(source, quanta=400, warmup_quanta=100)

        first = FabricSimulator()
        first.install_faults(plan)
        first.run(source, quanta=100, warmup_quanta=0)
        snap = first.snapshot()  # clock is far past the window by now
        assert first.faults.quiescent()
        resumed = FabricSimulator().restore(snap)
        cont = resumed.run(source, quanta=400, warmup_quanta=0)
        assert_stats_identical(whole, cont)

    def test_snapshot_still_refuses_mid_window(self):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    cycle=0, kind="stall", target="port:0", duration=10**9
                ),
            )
        )
        sim = FabricSimulator()
        sim.install_faults(plan)
        sim.run(saturated_permutation(64, shift=1), quanta=5, warmup_quanta=0)
        with pytest.raises(ValueError, match="pending"):
            sim.snapshot()

    def test_snapshot_refuses_dead_port_forever(self):
        # port_down permanently remaps routing; that is never quiescent.
        plan = FaultPlan(
            events=(FaultEvent(cycle=0, kind="port_down", target="port:2"),)
        )
        sim = FabricSimulator()
        sim.install_faults(plan)
        sim.run(saturated_permutation(64, shift=1), quanta=50, warmup_quanta=0)
        with pytest.raises(ValueError):
            sim.snapshot()

    def test_restore_rejects_wrong_port_count(self):
        snap = FabricSimulator(ring=RingGeometry(8)).snapshot()
        with pytest.raises(ValueError):
            FabricSimulator(ring=RingGeometry(4)).restore(snap)

    def test_counter_source_state_roundtrip(self):
        src = CounterUniformSource(64, seed=11, n=4)
        draws = [src(p) for p in (0, 1, 2, 0, 3)]
        state = src.state()
        more = [src(p) for p in (0, 1, 2)]
        replay = CounterUniformSource(64, seed=11, n=4).restore(state)
        assert [replay(p) for p in (0, 1, 2)] == more
        assert draws[0] != (0, 64)  # exclude_self held

    @pytest.mark.parametrize("case", sorted(RESUME_CASES))
    def test_resume_matches_straight_run(self, case):
        """N quanta straight == k quanta, then the simulator snapshot and
        the source state restored into fresh objects for N - k more
        quanta: identical counters and clock."""
        ports, quanta, split, make_source = RESUME_CASES[case]
        straight_sim = FabricSimulator(ring=RingGeometry(ports))
        straight = straight_sim.run(make_source(), quanta=quanta)
        assert straight.delivered_packets > 0

        first, source = FabricSimulator(ring=RingGeometry(ports)), make_source()
        stats = first.run(source, quanta=split)
        snap = first.snapshot()
        state = source.state() if hasattr(source, "state") else None
        resumed = FabricSimulator(ring=RingGeometry(ports)).restore(snap)
        resumed_source = make_source()
        if state is not None:
            resumed_source.restore(state)
        stats.add_counters(resumed.run(resumed_source, quanta=quanta - split))
        assert_stats_identical(straight, stats)
        assert resumed.clock == straight_sim.clock


class TestSourceGuards:
    def test_saturated_uniform_rejects_self_only_ring(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            saturated_uniform(64, rng, n=1, exclude_self=True)

    def test_counter_uniform_rejects_self_only_ring(self):
        with pytest.raises(ValueError):
            CounterUniformSource(64, seed=0, n=1, exclude_self=True)

    def test_n1_allowed_without_exclusion(self):
        rng = np.random.default_rng(0)
        source = saturated_uniform(64, rng, n=1, exclude_self=False)
        assert source(0) == (0, 64)


class TestGaugeRegistration:
    def test_rerun_does_not_reregister(self):
        """Regression: run() used to re-register fabric.clock and the
        ingress queue-depth gauges on every invocation."""
        with runtime.capture() as tel:
            sim = FabricSimulator(
                allocator=Allocator(RingGeometry(4), cache_size=16)
            )
            source = saturated_permutation(64, shift=1)
            sim.run(source, quanta=20)
            registered = []
            orig = tel.registry.gauge

            def spy(name, fn):
                registered.append(name)
                orig(name, fn)

            tel.registry.gauge = spy
            try:
                sim.run(source, quanta=20)
            finally:
                tel.registry.gauge = orig
            assert registered == []
            assert tel.registry.read_gauge("fabric.clock") == sim.clock
            assert tel.registry.read_gauge("fabric.alloc_cache.hits") == (
                sim.allocator.cache_hits
            )

    def test_new_registry_gets_fresh_gauges(self):
        sim = FabricSimulator(fast_forward=True)
        source = saturated_permutation(64, shift=1)
        with runtime.capture() as tel1:
            sim.run(source, quanta=10)
            assert tel1.registry.read_gauge("fabric.clock") == sim.clock
        with runtime.capture() as tel2:
            sim.run(source, quanta=10)
            assert tel2.registry.read_gauge("fabric.clock") == sim.clock
            assert tel2.registry.read_gauge("fabric.fast_forward.quanta") == 0


class _PlainRuleTable:
    """Stands in for the shared compiled table and evaluates the plain
    rule instead, counting its calls."""

    calls = 0

    def __init__(self, ring, networks):
        self.ring, self.networks = ring, networks

    def allocate(self, requests, token):
        _PlainRuleTable.calls += 1
        return plain_allocation(self.ring, self.networks, requests, token)


def _default_and_oracle(monkeypatch, config, workload):
    """One run on the default allocator, then one with the plain rule
    swapped in for the compiled table."""
    default = run_config(config, workload)
    monkeypatch.setattr(
        Allocator, "compiled",
        lambda self: _PlainRuleTable(self.ring, self.networks),
    )
    before = _PlainRuleTable.calls
    oracle = run_config(config, workload)
    assert _PlainRuleTable.calls > before  # the oracle really ran
    return default, oracle


def _signature(res):
    return (
        res.cycles,
        res.delivered_packets,
        res.delivered_words,
        res.gbps,
        list(res.per_port_packets),
        res.extra.get("blocked_events"),
    )


#: Fig 7-1 bars: (fidelity, pattern, packet bytes).
FIG7_1_BARS = [
    (fidelity, pattern, size)
    for fidelity in ("fabric", "router")
    for pattern in ("permutation", "uniform")
    for size in (64, 128, 256, 512, 1024)
]


class TestWiring:
    @pytest.mark.parametrize("fidelity,pattern,size", FIG7_1_BARS)
    def test_fig7_1_bar_identical_under_plain_rule(
        self, monkeypatch, fidelity, pattern, size
    ):
        budget = {"quanta": 200} if fidelity == "fabric" else {"packets": 200}
        default, oracle = _default_and_oracle(
            monkeypatch,
            SimConfig(fidelity=fidelity, seed=1),
            WorkloadSpec(pattern=pattern, packet_bytes=size, **budget),
        )
        assert _signature(default) == _signature(oracle)

    def test_full_budget_peak_golden_under_plain_rule(self, monkeypatch):
        default, oracle = _default_and_oracle(
            monkeypatch,
            SimConfig(fidelity="fabric"),
            WorkloadSpec(pattern="permutation", packet_bytes=1024),
        )
        assert default.gbps == oracle.gbps == 26.77124183006536
        assert _signature(default) == _signature(oracle)

    def test_engine_reports_fast_path_and_stays_bit_identical(self):
        workload = WorkloadSpec(pattern="permutation", quanta=250)
        compiled_default = run_config(SimConfig(fidelity="fabric"), workload)
        fast = run_config(
            SimConfig(fidelity="fabric", alloc_cache=1024, fast_forward=True),
            workload,
        )
        assert "fabric_fast_path" not in compiled_default.extra
        fp = fast.extra["fabric_fast_path"]
        assert fp["ff_quanta"] > 0
        assert 0.0 <= fp["cache_hit_rate"] <= 1.0
        assert fast.cycles == compiled_default.cycles
        assert fast.delivered_packets == compiled_default.delivered_packets
        assert fast.gbps == compiled_default.gbps
        assert fast.per_port_packets == compiled_default.per_port_packets

    def test_telemetry_summary_carries_fast_path(self):
        with runtime.capture() as tel:
            sim = FabricSimulator(
                allocator=Allocator(RingGeometry(4), cache_size=64)
            )
            sim.run(saturated_permutation(64, shift=1), quanta=50)
            summary = tel.summary()
        fp = summary["fabric_fast_path"]
        assert fp["cache_hits"] == sim.allocator.cache_hits
        assert fp["cache_misses"] == sim.allocator.cache_misses
        assert fp["ff_quanta"] == 0  # telemetry forces the step loop

    def test_sweep_summary_line_shows_fast_path(self):
        from repro.sweep import summarize

        table = {
            "sweep": {"cells": 1, "workers": 1, "worker_pids": [1]},
            "rows": [{
                "cell": {"ports": 4},
                "result": {
                    "gbps": 1.0, "mpps": 0.5, "delivered_packets": 10,
                    "cycles": 100,
                    "extra": {"fabric_fast_path": {
                        "cache_hits": 9, "cache_misses": 1,
                        "cache_hit_rate": 0.9, "ff_quanta": 40,
                    }},
                },
            }],
        }
        text = summarize(table)
        assert "cache 90% hit" in text
        assert "ff 40q" in text
