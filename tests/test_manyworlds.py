"""The many-worlds engine's correctness contract.

The vectorized engine (`repro.parallel.manyworlds`) promises that world
0 is *bit-identical* to the scalar fabric engine (`run_config`), for
every supported configuration -- not approximately equal, identical in
every counter.  These tests pin that contract across ring sizes,
traffic families (flat-kwarg workloads included) and quantum lengths,
pin the batch allocation rule to the scalar `CompiledAllocator.grants`,
and check the reduction (envelope) statistics against plain numpy over
independent scalar runs.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.core.allocator import Allocator, CompiledAllocator
from repro.core.ring import RingGeometry
from repro.engines import RunResult, WorkloadSpec, run_config
from repro.parallel.manyworlds import (
    ManyWorldsResult,
    envelope,
    run_scalar_world,
    run_worlds,
    scalar_world_stats,
    supports,
)
from repro.seeds import world_seed


def _assert_worlds_match_scalar(mw: ManyWorldsResult, config, workload,
                                worlds=(0,)):
    """Every listed world's full counter set == the scalar engine's."""
    for w in worlds:
        vec = mw.stats[w]
        ref = scalar_world_stats(config, workload, w)
        assert vec.quanta == ref.quanta
        assert vec.idle_quanta == ref.idle_quanta
        assert vec.cycles == ref.cycles
        assert vec.delivered_words == ref.delivered_words
        assert vec.delivered_packets == ref.delivered_packets
        assert vec.blocked_events == ref.blocked_events
        assert list(vec.per_port_words) == list(ref.per_port_words)
        assert list(vec.per_port_packets) == list(ref.per_port_packets)
        assert list(vec.grant_histogram) == list(ref.grant_histogram)


# ---------------------------------------------------------------------------
# World-0 bit-identity, property-tested over the supported matrix.
# ---------------------------------------------------------------------------
@given(
    ports=st.sampled_from([4, 8, 16]),
    traffic=st.sampled_from(["uniform", "imix", "imix_onoff"]),
    quanta=st.sampled_from([60, 150]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=12, deadline=None)
def test_world0_bit_identical_to_scalar(ports, traffic, quanta, seed):
    config = SimConfig(seed=seed, ports=ports)
    if traffic == "uniform":
        # Not a preset: the flat-kwargs uniform pattern.
        workload = WorkloadSpec(pattern="uniform", quanta=quanta)
    else:
        workload = WorkloadSpec(traffic=traffic, quanta=quanta)
    assert supports(config, workload) is None
    mw = run_worlds(config, workload, 2)
    assert mw.vectorized
    _assert_worlds_match_scalar(mw, config, workload, worlds=(0,))


@given(
    quantum=st.sampled_from([64, 128, 512]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=6, deadline=None)
def test_world0_identity_across_quantum_lengths(quantum, seed):
    config = SimConfig(seed=seed, ports=8, quantum_words=quantum)
    workload = WorkloadSpec(traffic="imix", quanta=80)
    if supports(config, workload) is not None:
        # Tiny quanta can make IMIX's 1024B class multi-fragment; the
        # contract there is a loud fallback, checked separately.
        return
    mw = run_worlds(config, workload, 2)
    assert mw.vectorized
    _assert_worlds_match_scalar(mw, config, workload, worlds=(0,))


def test_every_world_matches_its_scalar_run():
    """Not just world 0: each lane is its own bit-exact scalar run."""
    config = SimConfig(seed=3, ports=4)
    workload = WorkloadSpec(traffic="imix_onoff", quanta=120)
    mw = run_worlds(config, workload, 5)
    assert mw.vectorized
    _assert_worlds_match_scalar(mw, config, workload, worlds=range(5))


def test_networks2_unpacked_table_world0_identity():
    """networks=2 at n=16 needs all 64 mask bits (no hop packing)."""
    config = SimConfig(seed=9, ports=16, networks=2)
    workload = WorkloadSpec(pattern="uniform", quanta=60)
    assert supports(config, workload) is None
    mw = run_worlds(config, workload, 2)
    assert mw.vectorized
    _assert_worlds_match_scalar(mw, config, workload, worlds=(0,))


# ---------------------------------------------------------------------------
# The batch allocation rule vs the scalar one.
# ---------------------------------------------------------------------------
@given(
    geometry=st.sampled_from([(4, 1), (8, 1), (16, 1), (8, 2), (16, 2)]),
    token=st.integers(min_value=0, max_value=15),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_batch_grants_matches_scalar_grants(geometry, token, data):
    """batch_grants over random request vectors == the plain allocation
    rule's grants per world, covering both the hop-packed (bits <= 55)
    and unpacked (64-bit) table layouts."""
    n, networks = geometry
    token %= n
    ring = RingGeometry(n)
    compiled = CompiledAllocator(ring, networks=networks)
    plain = Allocator(ring, networks=networks)
    dests = np.array(
        [
            data.draw(
                st.lists(
                    st.integers(min_value=-1, max_value=n - 1),
                    min_size=n, max_size=n,
                )
            )
            for _ in range(4)
        ],
        dtype=np.int64,
    )
    granted, hops = compiled.batch_grants(dests, token)
    for w in range(dests.shape[0]):
        requests = [None if d < 0 else int(d) for d in dests[w]]
        ref = {
            (g.src, g.dst, g.expansion)
            for g in plain.allocate(requests, token).grants.values()
        }
        got = {
            (src, requests[src], int(hops[w, src]))
            for src in range(n)
            if granted[w, src]
        }
        assert got == ref


def test_worlds_share_one_compiled_table(monkeypatch):
    from repro.core import allocator as allocator_mod

    compiles = []
    init = CompiledAllocator.__init__

    def counting_init(self, *args, **kwargs):
        compiles.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(allocator_mod, "_SHARED", {})
    monkeypatch.setattr(CompiledAllocator, "__init__", counting_init)
    config = SimConfig(ports=8, seed=3)
    workload = WorkloadSpec(pattern="uniform", quanta=40)
    for _ in range(2):
        assert run_worlds(config, workload, 3).vectorized
    assert len(compiles) == 1


def test_batch_grants_rejects_bad_inputs():
    compiled = CompiledAllocator(RingGeometry(4))
    with pytest.raises(ValueError):
        compiled.batch_grants(np.array([[0, 1, 2, 4]]), 0)  # dest out of range
    with pytest.raises(ValueError):
        compiled.batch_grants(np.array([[0, 1, 2]]), 0)  # wrong width
    with pytest.raises(ValueError):
        compiled.batch_grants(np.array([[0, 1, 2, 3]]), 7)  # bad token


# ---------------------------------------------------------------------------
# World 0 == the stock engine (run_config), flat-kwarg workloads included.
# ---------------------------------------------------------------------------
def _assert_world0_is_run_config(config, workload):
    vec = run_worlds(config, workload, 2).stats[0]
    ref = run_config(config, workload)
    assert vec.cycles == ref.cycles
    assert vec.delivered_packets == ref.delivered_packets
    assert vec.delivered_words == ref.delivered_words
    assert list(vec.per_port_packets) == ref.per_port_packets
    assert vec.quanta == ref.extra["quanta"]
    assert vec.idle_quanta == ref.extra["idle_quanta"]
    assert vec.blocked_events == ref.extra["blocked_events"]
    assert vec.gbps == ref.gbps


@pytest.mark.parametrize("pattern", ["uniform", "hotspot"])
def test_world0_equals_run_config_for_flat_kwargs(pattern):
    _assert_world0_is_run_config(
        SimConfig(seed=5),
        WorkloadSpec(pattern=pattern, packet_bytes=256, quanta=400),
    )


@given(
    pattern=st.sampled_from(["uniform", "hotspot"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=4, deadline=None)
def test_world0_equals_run_config_any_seed(pattern, seed):
    _assert_world0_is_run_config(
        SimConfig(seed=seed),
        WorkloadSpec(pattern=pattern, packet_bytes=256, quanta=400),
    )


# ---------------------------------------------------------------------------
# Reduction statistics.
# ---------------------------------------------------------------------------
def test_envelope_matches_numpy_reference():
    vals = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    env = envelope(vals)
    arr = np.array(vals)
    assert env["n"] == len(vals)
    assert env["mean"] == pytest.approx(arr.mean())
    assert env["std"] == pytest.approx(arr.std(ddof=1))
    # Student-t half-width: t_{0.975, 7} (scipy.stats.t.ppf), not 1.96.
    assert env["ci95"] == pytest.approx(
        2.364624251592784 * arr.std(ddof=1) / np.sqrt(len(vals))
    )
    assert env["p50"] == pytest.approx(np.percentile(arr, 50))
    assert env["p99"] == pytest.approx(np.percentile(arr, 99))
    assert env["min"] == arr.min() and env["max"] == arr.max()


def test_single_world_envelope_degenerates():
    env = envelope([2.5])
    assert env["std"] == 0.0 and env["ci95"] == 0.0
    assert env["mean"] == env["p50"] == env["min"] == env["max"] == 2.5


def test_manyworlds_stats_match_independent_scalar_seeds():
    """The envelope over K vectorized worlds == numpy over K genuinely
    independent scalar runs with the same derived seeds."""
    config = SimConfig(seed=11, ports=4)
    workload = WorkloadSpec(pattern="uniform", quanta=100)
    k = 6
    mw = run_worlds(config, workload, k)
    assert mw.vectorized
    ref_gbps = [scalar_world_stats(config, workload, w).gbps for w in range(k)]
    env = mw.envelope("gbps")
    assert mw.metric("gbps").tolist() == ref_gbps
    assert env["mean"] == pytest.approx(np.mean(ref_gbps))
    assert env["std"] == pytest.approx(np.std(ref_gbps, ddof=1))


# ---------------------------------------------------------------------------
# Result schema, seeds, fallback matrix.
# ---------------------------------------------------------------------------
def test_world_seeds_and_world_result_shape():
    config = SimConfig(seed=42, ports=4)
    workload = WorkloadSpec(traffic="imix", quanta=60)
    mw = run_worlds(config, workload, 3)
    assert mw.seeds == [world_seed(42, w) for w in range(3)]
    assert mw.seeds[0] == 42  # world 0 IS the base-seed run
    res = mw.world_result(0)
    assert isinstance(res, RunResult)
    assert res.config.seed == 42
    assert res.gbps == mw.stats[0].gbps
    assert res.delivered_packets == mw.stats[0].delivered_packets
    d = mw.to_dict()
    assert d["n_worlds"] == 3 and len(d["worlds"]) == 3
    assert set(d["envelopes"]) == {"gbps", "mpps", "delivered_packets",
                                   "delivered_words"}


def test_fallback_is_loud_and_seed_compatible():
    """Unsupported cells warn with the reason and still produce the
    same world seeds and result shape."""
    config = SimConfig(seed=5, ports=4, fidelity="router")
    workload = WorkloadSpec(pattern="uniform", packets=60)
    reason = supports(config, workload)
    assert reason is not None and "fabric-only" in reason
    with pytest.warns(UserWarning, match="cannot vectorize"):
        mw = run_worlds(config, workload, 2)
    assert not mw.vectorized
    assert mw.fallback_reason == reason
    assert mw.seeds == [world_seed(5, w) for w in range(2)]
    assert isinstance(mw.world_result(0), RunResult)
    assert mw.world_result(0).fidelity == "router"


def test_supports_fallback_matrix():
    base = SimConfig(seed=0, ports=4)
    wl = WorkloadSpec(pattern="uniform", quanta=50)
    assert supports(base, wl) is None
    assert "fabric-only" in supports(base.replace(fidelity="wordlevel"), wl)
    assert "64" in supports(base.replace(ports=32, networks=2), wl)
    big = WorkloadSpec(pattern="uniform", packet_bytes=65_536, quanta=50)
    assert "multi-fragment" in supports(base, big)
    from repro.faults.plan import FaultEvent, FaultPlan

    armed = wl.replace(fault_plan=FaultPlan(
        events=(FaultEvent(cycle=10, kind="token_loss"),), name="t"))
    assert "fault plan" in supports(base, armed)


def test_forced_scalar_matches_vectorized():
    """force_scalar runs the same worlds through the scalar loop; the
    two paths agree on every counter (no warning -- the caller asked)."""
    config = SimConfig(seed=7, ports=4)
    workload = WorkloadSpec(traffic="imix", quanta=80)
    vec = run_worlds(config, workload, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sca = run_worlds(config, workload, 3, force_scalar=True)
    assert vec.vectorized and not sca.vectorized
    for v, s in zip(vec.stats, sca.stats):
        assert v.cycles == s.cycles
        assert v.delivered_words == s.delivered_words
        assert list(v.grant_histogram) == list(s.grant_histogram)


def test_run_scalar_world_is_runresult_view():
    config = SimConfig(seed=13, ports=4)
    workload = WorkloadSpec(pattern="uniform", quanta=80)
    res = run_scalar_world(config, workload, 1)
    ref = scalar_world_stats(config, workload, 1)
    assert res.config.seed == world_seed(13, 1)
    assert res.delivered_words == ref.delivered_words
    assert res.cycles == ref.cycles
    assert res.gbps == pytest.approx(ref.gbps)


# ---------------------------------------------------------------------------
# Sweep integration.
# ---------------------------------------------------------------------------
def test_sweep_worlds_rows_carry_envelopes():
    from repro.sweep import run_sweep

    table = run_sweep(
        {"ports": [4], "traffic": ["imix"], "quanta": [60]}, worlds=3
    )
    assert table["sweep"]["worlds"] == 3
    (row,) = table["rows"]
    assert row["worlds"] == 3 and row["vectorized"]
    assert "fallback_reason" not in row
    env = row["envelope"]["gbps"]
    assert env["n"] == 3
    assert env["min"] <= env["p50"] <= env["max"]
    # ``result`` keeps the single-run row shape (world 0).
    assert row["result"]["gbps"] == pytest.approx(env["mean"], rel=0.5)
    assert row["result"]["fidelity"] == "fabric"


def test_sweep_worlds_rejects_bad_combinations():
    from repro.sweep import run_sweep

    with pytest.raises(ValueError):
        run_sweep({"ports": [4]}, worlds=0)


def test_sweep_worlds_with_telemetry_merges_per_world():
    # worlds + telemetry now combine: each world records into its own
    # recorder (forcing the scalar path) and the merged summary lands on
    # the row with per-world provenance.
    from repro.sweep import run_sweep

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = run_sweep(
            {"ports": [4], "quanta": [60]}, worlds=2, telemetry=True
        )
    (row,) = table["rows"]
    assert not row["vectorized"]
    tel = row["telemetry"]
    assert sorted(tel["workers"]) == ["0", "1"]
    assert tel["journeys"]["completed"] > 0
