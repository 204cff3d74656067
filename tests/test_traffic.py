"""Traffic generation: the counter-based model's patterns and arrivals,
sizes, the engine adapters, and packet minting."""

import numpy as np
import pytest

from repro.config import CostModel
from repro.traffic.arrivals import CounterSlotArrivals
from repro.traffic.build import FabricModelSource
from repro.traffic.model import SpecModel
from repro.traffic.sizes import BimodalSizes, FixedSize, IMix, UniformSizes
from repro.traffic.spec import ArrivalSpec, PatternSpec, SizeSpec, TrafficSpec
from repro.traffic.workload import PacketFactory


def _model(n=4, seed=0, sizes=SizeSpec(), arrivals=ArrivalSpec(), **pattern):
    spec = TrafficSpec(
        pattern=PatternSpec(**pattern), sizes=sizes, arrivals=arrivals
    )
    return SpecModel(spec, n=n, seed=seed)


def _dests(model, port, count):
    return [model.next_packet(port)[0] for _ in range(count)]


class TestPatterns:
    def test_fixed_permutation(self):
        m = _model(kind="permutation", shift=2)
        assert [m.next_packet(i)[0] for i in range(4)] == [2, 3, 0, 1]

    def test_shift_constructor(self):
        m = _model(n=8, kind="permutation", shift=3)
        for _ in range(3):
            assert [m.next_packet(i)[0] for i in range(8)] == [
                (i + 3) % 8 for i in range(8)
            ]
        assert m.deterministic

    def test_uniform_exclude_self(self):
        m = _model(seed=1, kind="uniform", exclude_self=True)
        for port in range(4):
            seen = _dests(m, port, 300)
            assert port not in seen
            assert set(seen) == set(range(4)) - {port}

    def test_uniform_covers_all_destinations(self):
        m = _model(kind="uniform", exclude_self=False)
        assert set(_dests(m, 1, 300)) == {0, 1, 2, 3}

    def test_hotspot_bias(self):
        m = _model(seed=1, kind="hotspot", hot_port=2, p_hot=0.8)
        dests = _dests(m, 0, 4000)
        # The non-hot draws are uniform over all n ports, hot included.
        expected = 0.8 + (1 - 0.8) / 4
        assert dests.count(2) / len(dests) == pytest.approx(expected, abs=0.03)

    def test_hotspot_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            _model(kind="hotspot", hot_port=9)
        with pytest.raises(ValueError, match="p_hot"):
            _model(kind="hotspot", p_hot=1.5)

    def test_bursty_produces_runs(self):
        n, mean_burst = 4, 16.0
        m = _model(n=n, seed=2, kind="bursty", mean_burst=mean_burst)
        dests = _dests(m, 0, 20_000)
        changes = sum(a != b for a, b in zip(dests, dests[1:]))
        # A new train keeps the old destination with probability
        # 1/(n-1), so observed runs are mean_burst * (n-1)/(n-2) long.
        mean_run = len(dests) / (changes + 1)
        assert mean_run == pytest.approx(
            mean_burst * (n - 1) / (n - 2), rel=0.1
        )

    def test_bursty_never_self_when_excluded(self):
        m = _model(seed=2, kind="bursty", exclude_self=True)
        assert 3 not in _dests(m, 3, 300)


class TestSizes:
    def test_fixed(self):
        s = FixedSize(512)
        assert s.next_size() == 512
        assert s.mean() == 512

    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            FixedSize(65)
        with pytest.raises(ValueError):
            FixedSize(8)

    def test_imix_values_and_mean(self):
        rng = np.random.default_rng(0)
        s = IMix(rng)
        draws = [s.next_size() for _ in range(500)]
        assert set(draws) <= set(IMix.SIZES)
        assert abs(np.mean(draws) - s.mean()) < 60

    def test_uniform_sizes_bounds(self):
        rng = np.random.default_rng(0)
        s = UniformSizes(rng, 64, 256)
        for _ in range(200):
            v = s.next_size()
            assert 64 <= v <= 256 and v % 4 == 0

    def test_uniform_sizes_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            UniformSizes(rng, 256, 64)

    def test_bimodal(self):
        rng = np.random.default_rng(0)
        s = BimodalSizes(rng, 64, 1024, p_small=0.5)
        draws = {s.next_size() for _ in range(100)}
        assert draws == {64, 1024}


def _arrivals(model, port, polls):
    return [model.next_packet(port) is not None for _ in range(polls)]


class TestArrivals:
    def test_saturated(self):
        m = _model(kind="uniform")
        assert all(_arrivals(m, 0, 100))
        assert m.load == 1.0

    def test_bernoulli_rate(self):
        m = _model(kind="uniform", arrivals=ArrivalSpec(kind="bernoulli", p=0.3))
        assert np.mean(_arrivals(m, 0, 4000)) == pytest.approx(0.3, abs=0.03)

    def test_bernoulli_validation(self):
        with pytest.raises(ValueError, match="arrival p"):
            ArrivalSpec(kind="bernoulli", p=1.5)

    def test_bernoulli_is_counter_replayable(self):
        bern = ArrivalSpec(kind="bernoulli", p=0.4)
        a = _model(seed=7, kind="uniform", arrivals=bern)
        head = [a.next_packet(1) for _ in range(50)]
        mark = a.state()
        tail = [a.next_packet(1) for _ in range(50)]
        b = _model(seed=7, kind="uniform", arrivals=bern).restore(mark)
        assert [b.next_packet(1) for _ in range(50)] == tail
        # Replaying from scratch reproduces the head too.
        c = _model(seed=7, kind="uniform", arrivals=bern)
        assert [c.next_packet(1) for _ in range(50)] == head

    def test_bernoulli_ports_independent(self):
        bern = ArrivalSpec(kind="bernoulli", p=0.5)
        a = _model(seed=3, kind="uniform", arrivals=bern)
        p0 = [a.next_packet(0) for _ in range(200)]
        b = _model(seed=3, kind="uniform", arrivals=bern)
        # Interleaving draws on another port must not perturb port 0.
        p0_interleaved = []
        for _ in range(200):
            b.next_packet(1)
            p0_interleaved.append(b.next_packet(0))
        assert p0 == p0_interleaved

    def test_onoff_load_and_gaps(self):
        onoff = ArrivalSpec(kind="onoff", mean_on=8.0, mean_off=8.0)
        assert onoff.load == pytest.approx(0.5)
        m = _model(seed=1, kind="uniform", arrivals=onoff)
        draws = _arrivals(m, 0, 8000)
        assert np.mean(draws) == pytest.approx(onoff.load, abs=0.1)
        # On-off must produce runs of idle polls, unlike Bernoulli(0.5).
        longest_gap = cur = 0
        for d in draws:
            cur = 0 if d else cur + 1
            longest_gap = max(longest_gap, cur)
        assert longest_gap >= 8

    def test_onoff_state_restore(self):
        heavy = ArrivalSpec(
            kind="onoff", mean_on=4.0, mean_off=4.0, heavy=True, alpha=1.5
        )
        a = _model(seed=5, kind="uniform", arrivals=heavy)
        [a.next_packet(0) for _ in range(77)]
        mark = a.state()
        tail = [a.next_packet(0) for _ in range(100)]
        b = _model(seed=5, kind="uniform", arrivals=heavy).restore(mark)
        assert [b.next_packet(0) for _ in range(100)] == tail

    def test_onoff_validation(self):
        with pytest.raises(ValueError, match="mean durations"):
            ArrivalSpec(kind="onoff", mean_on=0.5)
        with pytest.raises(ValueError, match="alpha > 1"):
            ArrivalSpec(kind="onoff", heavy=True, alpha=1.0)

    def test_counter_slot_arrivals_restore(self):
        a = CounterSlotArrivals(4, seed=2)
        [a.slot(0.6) for _ in range(20)]
        mark = a.state()
        tail = [a.slot(0.6) for _ in range(20)]
        b = CounterSlotArrivals(4, seed=2).restore(mark)
        assert [b.slot(0.6) for _ in range(20)] == tail


class TestWorkload:
    def test_next_packet(self):
        m = _model(kind="permutation", shift=1, sizes=SizeSpec(bytes=256))
        assert m.next_packet(0) == (1, 256)
        assert m.n == 4

    def test_fabric_source_converts_to_words(self):
        m = _model(kind="permutation", shift=1, sizes=SizeSpec(bytes=256))
        src = FabricModelSource(m, CostModel.default())
        assert src(2) == (3, 64)

    def test_no_arrival_is_none(self):
        never = ArrivalSpec(kind="bernoulli", p=0.0)
        m = _model(kind="permutation", arrivals=never)
        assert m.next_packet(0) is None
        assert FabricModelSource(m, CostModel.default())(0) is None


class TestPacketFactory:
    def test_addresses_resolve_to_intended_port(self):
        """The minted destination address must LPM back to the intended
        output through the uniform-split table -- the end-to-end wiring
        of traffic intent and route lookup."""
        from repro.ip.lookup import RoutingTable

        rng = np.random.default_rng(3)
        factory = PacketFactory(4, rng)
        table = RoutingTable.uniform_split(4)
        for out_port in range(4):
            for _ in range(25):
                pkt = factory.make(0, out_port, 128)
                assert table.lookup(pkt.dst) == out_port
                assert pkt.checksum_ok()

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            PacketFactory(3, np.random.default_rng(0))

    def test_idents_unique(self):
        rng = np.random.default_rng(0)
        f = PacketFactory(4, rng)
        idents = {f.make(0, 1, 64).ident for _ in range(200)}
        assert len(idents) == 200

    def test_from_workload(self):
        rng = np.random.default_rng(0)
        f = PacketFactory(4, rng)
        m = _model(kind="permutation", shift=2, sizes=SizeSpec(bytes=128))
        pkt = f.from_workload(m, 1)
        assert pkt.output_port == 3
        assert pkt.total_length == 128
