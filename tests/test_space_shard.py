"""Partition-boundary invariants of the space-partitioned fabric.

The contract under test (ISSUE 8 / DESIGN.md §13): a P-partitioned
token-window run is *bit-identical* to the single-process reference for
every supported cell -- across partition counts, chip sizes, channel
latencies, and traffic families -- and the stats merge is associative,
so any grouping of partitions folds to the same totals.
"""

from __future__ import annotations

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CostModel, SimConfig
from repro.core.fabricsim import FabricStats
from repro.core.spacetopo import (
    PartitionSim,
    build_topology,
    clos_topology,
    merge_part_stats,
    part_payload,
    payload_to_stats,
)
from repro.engines import WorkloadSpec, run_config
from repro.parallel import (
    SpaceSpec,
    SpaceWorkerPool,
    run_space,
    run_space_inprocess,
    run_space_serial,
)
from repro.telemetry import runtime


def assert_stats_identical(a: FabricStats, b: FabricStats) -> None:
    assert a.counters() == b.counters()


SOURCES = {
    "permutation": {"kind": "permutation", "words": 64, "shift": 3},
    "uniform": {"kind": "uniform_counter", "words": 48, "seed": 11},
    "imix": {"kind": "traffic", "spec": "imix", "seed": 5},
}


def spec_for(k: int, partitions: int, source_key: str, latency: int = 2,
             quanta: int = 200, warmup: int = 30) -> SpaceSpec:
    return SpaceSpec(
        k=k,
        latency=latency,
        partitions=partitions,
        source=SpaceSpec.pack_source(SOURCES[source_key]),
        quanta=quanta,
        warmup_quanta=warmup,
    )


# ---------------------------------------------------------------------------
# Topology invariants.
# ---------------------------------------------------------------------------
class TestTopology:
    def test_clos_shape(self):
        topo = clos_topology(4, latency=3)
        assert topo.num_nodes == 12
        assert topo.num_ports == 16
        assert len(topo.channels) == 32  # k^2 ingress->middle + k^2 ->egress
        assert all(ch.latency == 3 for ch in topo.channels)
        # Every global port maps in and out exactly once.
        assert sorted(topo.ext_in) == list(range(16))
        assert sorted(topo.ext_out.values()) == list(range(16))

    def test_route_reaches_every_destination(self):
        topo = clos_topology(4)
        for src in range(16):
            for dst in range(16):
                node, leg = topo.ext_in[src]
                # ingress -> middle
                mid_ch = topo.out_channel[(node, topo.route(node, dst))]
                # middle -> egress
                eg_ch = topo.out_channel[
                    (mid_ch.dst_node, topo.route(mid_ch.dst_node, dst))
                ]
                out_leg = topo.route(eg_ch.dst_node, dst)
                assert topo.ext_out[(eg_ch.dst_node, out_leg)] == dst

    def test_partition_balanced_and_window(self):
        topo = clos_topology(4, latency=5)
        blocks = topo.partition(5)  # 12 nodes over 5 parts: 3,3,2,2,2
        assert [len(b) for b in blocks] == [3, 3, 2, 2, 2]
        assert sorted(n for b in blocks for n in b) == list(range(12))
        assert topo.window(blocks) == 5
        # One partition: no boundary, effectively unbounded window.
        assert topo.window(topo.partition(1)) > 10**6

    def test_partition_clamps_to_node_count(self):
        topo = clos_topology(2)  # 6 nodes
        assert len(topo.partition(64)) == 6

    def test_latency_must_be_positive(self):
        with pytest.raises(ValueError):
            clos_topology(4, latency=0)

    def test_unknown_geometry(self):
        with pytest.raises(ValueError):
            build_topology("mesh", 4)


# ---------------------------------------------------------------------------
# Bit-identity: partitioned == serial, every supported cell.
# ---------------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("source_key", sorted(SOURCES))
    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("partitions", [1, 2, 4])
    def test_inprocess_matches_serial(self, k, partitions, source_key):
        spec = spec_for(k, partitions, source_key)
        ref = run_space_serial(spec)
        got, info = run_space_inprocess(spec)
        assert_stats_identical(ref, got)
        assert info.partitions == min(partitions, 3 * k)

    def test_unequal_partition_sizes(self):
        # P=5 over 12 chips: blocks of 3/3/2/2/2 -- the window-batch
        # ordering must hold when partitions straddle stage boundaries.
        spec = spec_for(4, 5, "permutation", latency=1)
        ref = run_space_serial(spec)
        got, info = run_space_inprocess(spec)
        assert_stats_identical(ref, got)
        assert [len(b) for b in info.node_blocks] == [3, 3, 2, 2, 2]

    def test_larger_chip_short_run(self):
        spec = spec_for(8, 4, "permutation", latency=4, quanta=80, warmup=10)
        ref = run_space_serial(spec)
        got, _ = run_space_inprocess(spec)
        assert_stats_identical(ref, got)

    def test_cached_serial_matches_uncached(self):
        spec = spec_for(4, 1, "uniform")
        assert_stats_identical(
            run_space_serial(spec, cached=False),
            run_space_serial(spec, cached=True),
        )

    def test_compiled_chips_match_plain_rule_at_n256(self):
        # The benchmark's chip size: 48 16-port chips on the shared
        # compiled table against the plain rule, serial and P=2.
        spec = spec_for(16, 2, "imix", latency=4, quanta=60, warmup=10)
        oracle = run_space_serial(spec, cached=False)
        compiled = run_space_serial(spec)
        got, info = run_space_inprocess(spec)
        assert info.partitions == 2
        assert oracle.delivered_packets > 0
        # counters() covers every scalar and per-port vector.
        assert_stats_identical(oracle, compiled)
        assert_stats_identical(oracle, got)

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.sampled_from((2, 3, 4)),
        partitions=st.integers(1, 6),
        latency=st.integers(1, 4),
        source_key=st.sampled_from(sorted(SOURCES)),
    )
    def test_property_partitioning_never_changes_stats(
        self, k, partitions, latency, source_key
    ):
        spec = spec_for(
            k, partitions, source_key, latency=latency, quanta=90, warmup=15
        )
        ref = run_space_serial(spec, cached=False)
        got, _ = run_space_inprocess(spec)
        assert_stats_identical(ref, got)

    def test_worker_pool_matches_serial_and_stays_warm(self):
        spec = spec_for(4, 4, "permutation", latency=3, quanta=250, warmup=30)
        ref = run_space_serial(spec)
        with SpaceWorkerPool(4) as pool:
            got1, info1 = run_space(spec, pool=pool)
            # Second, different workload through the same warm workers.
            spec2 = spec_for(4, 4, "uniform", latency=3, quanta=250, warmup=30)
            got2, _ = run_space(spec2, pool=pool)
            assert pool.runs == 2
        assert_stats_identical(ref, got1)
        assert not info1.serial_fallback
        assert info1.workers == 4
        assert_stats_identical(run_space_serial(spec2), got2)

    def test_pool_rejects_mismatched_partition_count(self):
        with SpaceWorkerPool(2) as pool:
            with pytest.raises(ValueError, match="partitions"):
                pool.run(spec_for(4, 3, "permutation"))


# ---------------------------------------------------------------------------
# Window protocol details.
# ---------------------------------------------------------------------------
class TestWindowProtocol:
    def test_window_counters_consistent(self):
        spec = spec_for(4, 3, "permutation", latency=2, quanta=200, warmup=20)
        _, info = run_space_inprocess(spec)
        total = spec.quanta + spec.warmup_quanta
        expected_rounds = -(-total // spec.latency)
        assert info.window == spec.latency
        assert info.rounds == expected_rounds
        assert info.windows_per_worker == [expected_rounds] * 3
        # Ingress and middle partitions send boundary flits; the egress
        # partition only receives.
        assert info.boundary_flits[-1] == 0
        assert sum(info.boundary_flits) > 0

    def test_boundary_flits_conserved_across_partitionings(self):
        # Total delivered traffic is partitioning-invariant even though
        # boundary volume is not.
        spec2 = spec_for(4, 2, "permutation")
        spec4 = spec_for(4, 4, "permutation")
        s2, i2 = run_space_inprocess(spec2)
        s4, i4 = run_space_inprocess(spec4)
        assert_stats_identical(s2, s4)
        # More cuts can only expose more (or equal) boundary traffic.
        assert sum(i4.boundary_flits) >= sum(i2.boundary_flits)

    def test_missing_batch_is_detected(self):
        # Running a consumer partition before its producer violates the
        # window protocol; the transport must fail loudly (empty
        # mailbox), not silently simulate with missing traffic.
        from collections import deque

        from repro.parallel.space_shard import _simulate_partition

        spec = spec_for(4, 3, "permutation")
        topo = spec.topology()
        blocks = topo.partition(3)
        empty = deque()

        def starved_recv():
            if not empty:
                raise RuntimeError("deadlock: empty mailbox")
            return empty.popleft()

        sent = []
        # Partition 1 (middle chips) consumes ingress batches that were
        # never produced.
        with pytest.raises(RuntimeError, match="deadlock"):
            _simulate_partition(
                spec,
                1,
                blocks,
                recv_fns={0: starved_recv},
                send_fns={2: sent.append},
            )

    def test_batch_count_matches_round_count(self):
        # Each producer sends exactly rounds-1 batches per out-peer
        # (every round but the last), empty windows included -- the
        # receiver counts batches, not flits, to frame its windows.
        from collections import deque

        from repro.parallel.space_shard import _simulate_partition

        spec = spec_for(2, 3, "permutation", latency=3, quanta=50, warmup=10)
        topo = spec.topology()
        blocks = topo.partition(3)
        total = spec.quanta + spec.warmup_quanta
        rounds = -(-total // spec.latency)
        sent_to_middle = deque()
        _, got_rounds, _, _, _ = _simulate_partition(
            spec, 0, blocks, recv_fns={}, send_fns={1: sent_to_middle.append}
        )
        assert got_rounds == rounds
        assert len(sent_to_middle) == rounds - 1


# ---------------------------------------------------------------------------
# Merge associativity of per-partition stats.
# ---------------------------------------------------------------------------
class TestMergeAssociativity:
    def _partition_payloads(self, spec: SpaceSpec):
        """Run the window protocol in-process and keep the raw
        per-partition PartStats (before the merge folds them)."""
        from collections import deque

        from repro.parallel.space_shard import (
            _simulate_partition,
            _toposort_partitions,
        )

        topo = spec.topology()
        blocks = topo.partition(spec.partitions)
        parts = len(blocks)
        mailboxes = {
            (s, d): deque()
            for s in range(parts)
            for d in range(parts)
            if s != d
        }
        payloads = {}
        for part_id in _toposort_partitions(topo, blocks):
            recv_fns = {
                s: mailboxes[(s, part_id)].popleft
                for s in range(parts)
                if (s, part_id) in mailboxes
            }
            send_fns = {
                d: mailboxes[(part_id, d)].append
                for d in range(parts)
                if (part_id, d) in mailboxes
            }
            payloads[part_id], *_ = _simulate_partition(
                spec, part_id, blocks, recv_fns, send_fns
            )
        return topo, [payload_to_stats(payloads[p]) for p in range(parts)]

    @staticmethod
    def _combine(a, b):
        """Fold two PartStats into one, the way a tree merge would."""
        from repro.core.spacetopo import PartStats

        return PartStats(
            num_ports=a.num_ports,
            delivered_words=a.delivered_words + b.delivered_words,
            delivered_packets=a.delivered_packets + b.delivered_packets,
            per_port_words=[
                x + y for x, y in zip(a.per_port_words, b.per_port_words)
            ],
            per_port_packets=[
                x + y for x, y in zip(a.per_port_packets, b.per_port_packets)
            ],
            blocked_events=a.blocked_events + b.blocked_events,
            body_max=[max(x, y) for x, y in zip(a.body_max, b.body_max)],
        )

    def test_merge_is_order_invariant(self):
        spec = spec_for(4, 3, "uniform")
        ref = run_space_serial(spec)
        topo, parts = self._partition_payloads(spec)
        for order in [(0, 1, 2), (2, 0, 1), (1, 2, 0)]:
            merged = merge_part_stats(
                [parts[i] for i in order], topo.num_ports, spec.costs
            )
            assert_stats_identical(ref, merged)

    def test_merge_is_grouping_invariant(self):
        # ((p0+p1), p2) == (p0, (p1+p2)) == flat -- true associativity
        # over space partitions.
        spec = spec_for(4, 3, "permutation")
        topo, parts = self._partition_payloads(spec)
        flat = merge_part_stats(parts, topo.num_ports, spec.costs)
        left = merge_part_stats(
            [self._combine(parts[0], parts[1]), parts[2]],
            topo.num_ports,
            spec.costs,
        )
        right = merge_part_stats(
            [parts[0], self._combine(parts[1], parts[2])],
            topo.num_ports,
            spec.costs,
        )
        assert_stats_identical(flat, left)
        assert_stats_identical(flat, right)

    def test_merge_rejects_mismatched_quanta(self):
        from repro.core.spacetopo import PartStats

        a = PartStats(num_ports=4, body_max=[1, 2])
        b = PartStats(num_ports=4, body_max=[1])
        with pytest.raises(ValueError, match="quantum counts"):
            merge_part_stats([a, b], 4, CostModel.default())

    def test_merge_rejects_mismatched_ports(self):
        from repro.core.spacetopo import PartStats

        a = PartStats(num_ports=4, body_max=[1])
        b = PartStats(num_ports=8, body_max=[1])
        with pytest.raises(ValueError, match="port counts"):
            merge_part_stats([a, b], 4, CostModel.default())

    def test_payload_roundtrip(self):
        spec = spec_for(2, 1, "permutation", quanta=50, warmup=5)
        topo = spec.topology()
        sim = PartitionSim(topo, range(topo.num_nodes), costs=spec.costs)
        from repro.parallel.space_shard import make_space_source

        sim.advance(make_space_source(spec), 0, 55, 5)
        restored = payload_to_stats(part_payload(sim.stats))
        assert restored == sim.stats


# ---------------------------------------------------------------------------
# Engine integration + loud fallback.
# ---------------------------------------------------------------------------
class TestSpaceEngine:
    def test_run_config_partition_invariance(self):
        wl = WorkloadSpec(pattern="permutation", shift=5, quanta=200)
        base = SimConfig(ports=16, fidelity="space", link_latency=2)
        ref = run_config(base, wl)
        for p in (2, 4):
            got = run_config(base.replace(partitions=p), wl)
            assert got.cycles == ref.cycles
            assert got.delivered_words == ref.delivered_words
            assert got.per_port_packets == ref.per_port_packets
            assert not got.extra["space_shard"]["serial_fallback"]

    def test_space_extra_surfaces_counters(self):
        cfg = SimConfig(ports=16, fidelity="space", partitions=2)
        res = run_config(cfg, WorkloadSpec(quanta=120))
        sp = res.extra["space_shard"]
        assert sp["workers"] == 2
        assert sp["window"] == cfg.link_latency
        assert len(sp["pipe_stall_s"]) == 2
        assert len(sp["boundary_flits"]) == 2

    def test_nonsquare_ports_rejected(self):
        cfg = SimConfig(ports=8, fidelity="space")
        with pytest.raises(ValueError, match="square"):
            run_config(cfg, WorkloadSpec(quanta=50))

    def test_second_network_rejected(self):
        # The space chips model one static network; a networks=2 run
        # must be refused, not silently reported as networks=1.
        cfg = SimConfig(ports=16, fidelity="space", networks=2)
        with pytest.raises(ValueError, match="networks=2"):
            run_config(cfg, WorkloadSpec(pattern="permutation", quanta=50))

    def test_fault_plans_rejected(self):
        from repro.faults import FaultEvent, FaultPlan

        cfg = SimConfig(ports=16, fidelity="space")
        wl = WorkloadSpec(
            quanta=50,
            fault_plan=FaultPlan(
                events=(FaultEvent(cycle=10, kind="token_loss"),)
            ),
        )
        with pytest.raises(ValueError, match="fault"):
            run_config(cfg, wl)

    def test_telemetry_runs_distributed_and_merges(self):
        # Telemetry no longer forces a serial fallback: workers record
        # locally, states merge on the coordinator, and the run stays
        # distributed, silent, and bit-identical.
        spec = spec_for(4, 3, "permutation", quanta=100, warmup=10)
        ref = run_space_serial(spec)
        with runtime.capture() as tel:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got, info = run_space(spec)
        assert not info.serial_fallback
        assert info.workers == 3
        assert not caught
        assert_stats_identical(ref, got)
        summary = tel.summary()
        assert summary["space_shard"]["serial_fallback"] is False
        assert summary["space_shard"]["partitions"] == 3
        assert sorted(tel.workers) == [0, 1, 2]
        assert tel.journeys.completed > 0

    def test_telemetry_tables_identical_across_partitions(self):
        # The merged stage/dimension tables and the detailed-journey
        # reservoir must not depend on the partition count.
        tables = {}
        for parts in (1, 3):
            spec = spec_for(4, parts, "permutation", quanta=100, warmup=10)
            with runtime.capture() as tel:
                run_space(spec)
            tables[parts] = (
                {s: h.to_dict() for s, h in tel.journeys.stage_hist.items()},
                {k: h.to_dict() for k, h in tel.journeys.dim_hist.items()},
                [j.to_dict() for j in tel.journeys.detailed],
                (tel.journeys.completed, tel.journeys.dropped),
            )
        assert tables[1] == tables[3]

    def test_partitions_one_is_silent_serial(self):
        spec = spec_for(4, 1, "permutation", quanta=100, warmup=10)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got, info = run_space(spec)
        assert info.serial_fallback and info.fallback_reason == "partitions=1"
        assert not caught  # asking for 1 worker and getting 1 is not a lie
        assert_stats_identical(run_space_serial(spec), got)
