"""Tests of the benchmark's own logic.

Run from the repository root with ``python -m pytest simbench -q``.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.config import SimConfig  # noqa: E402
from repro.engines import RunResult, WorkloadSpec, run_config  # noqa: E402


# -- self time ---------------------------------------------------------------
def test_self_time_subtracts_nested_children():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 7]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 7.0]
    parents = [-1, 0, 1, 0]
    assert spans.self_times(starts, ends, parents) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_counts_overlap_once_and_clips_to_parent():
    # Children [1, 4] and [3, 6] overlap; [8, 12] sticks out of [0, 10].
    starts = [0.0, 1.0, 3.0, 8.0]
    ends = [10.0, 4.0, 6.0, 12.0]
    parents = [-1, 0, 0, 0]
    assert spans.self_times(starts, ends, parents)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_tracer_records_parents_and_summarizes():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) + inner(x))
    assert outer(1) == 4
    names = [(name, parent) for name, _s, _e, parent in tracer.spans()]
    assert names == [("outer", -1), ("inner", 0), ("inner", 0)]
    table = spans.summarize(tracer)
    assert table["inner"].count == 2 and table["outer"].count == 1
    assert table["outer"].self_s == pytest.approx(
        table["outer"].total_s - table["inner"].total_s
    )
    assert sum(s.self_s for s in table.values()) == pytest.approx(table["outer"].total_s)


def test_install_traces_a_job_and_restores_every_target():
    from repro.core.allocator import Allocator
    from repro.core.fabricsim import FabricSimulator

    before = (Allocator.allocate, FabricSimulator.run)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        run_config(SimConfig(seed=3), WorkloadSpec(pattern="uniform", quanta=60))
    finally:
        restore()
    assert (Allocator.allocate, FabricSimulator.run) == before
    table = spans.summarize(tracer)
    assert table["fabricsim.run"].count == 1
    assert table["allocator.allocate"].count > 0
    assert table["traffic.draw"].count > 0


# -- metric names ------------------------------------------------------------
def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_match_the_pattern_and_are_unique():
    names = [name for name, _u, _b in layers.END_TO_END + layers.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names + sorted(workloads.WHY):
        assert layers.NAME_RE.fullmatch(name), name
    for bad in ("", ".lead", "has space", "slash/name", "x" * 65):
        assert not layers.NAME_RE.fullmatch(bad)


def test_benchmark_json_lists_the_same_metrics_and_workloads():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        layers.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER
    )
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WHY)


def test_traced_run_reports_exactly_the_per_layer_metrics():
    names = set(layers.layer_metrics({}, [], 1.0, {}))
    names |= {"fig7_1_err_pct", "trace.overhead_pct"}
    assert names == {name for name, _u, _b in layers.PER_LAYER}


# -- failure counting --------------------------------------------------------
def _result(job, gbps, packets=8, extra=None):
    return RunResult(
        fidelity=job.config.fidelity, cycles=100, delivered_packets=packets,
        delivered_words=packets * 4, gbps=gbps, mpps=1.0,
        per_port_packets=[packets // 2, packets - packets // 2],
        extra=extra or {},
    )


def test_failures_are_counted_per_job():
    jobs = {j.label: j for j in workloads.build_jobs("fig7_1", 1)}
    golden = jobs["fabric/peak/1024B"]
    avg64 = jobs["router/avg/64B"]
    passes = [[
        run.JobRecord(golden, _result(golden, workloads.GOLDEN_PEAK_1024B_GBPS), 1.0, 1.0),
        run.JobRecord(avg64, _result(avg64, 5.0), 1.0, 1.0),
    ], [
        # Inside the 16% band but off the golden, and not repeating pass 1.
        run.JobRecord(golden, _result(golden, 26.9), 1.0, 1.0),
        # Outside the band.
        run.JobRecord(avg64, _result(avg64, 5.0 * 1.2), 1.0, 1.0),
        run.JobRecord(avg64, None, 1.0, 1.0, error="Traceback\nValueError: boom\n"),
    ]]
    attempted, failed, problems = run.count_failures(passes, {})
    assert (attempted, failed) == (5, 3)
    assert any("golden" in p for p in problems)
    assert any("ValueError: boom" in p for p in problems)


def test_distributed_job_must_match_its_serial_reference():
    from repro.core.fabricsim import FabricStats

    job = workloads.build_jobs("clos256_p2", 1)[0]
    extra = {"space_shard": {"serial_fallback": False}, "blocked_events": 0}
    ref = FabricStats(num_ports=2, cycles=100, delivered_words=32, delivered_packets=8)
    same = FabricStats(num_ports=2, cycles=100, delivered_words=32, delivered_packets=8)
    other = FabricStats(num_ports=2, cycles=101, delivered_words=32, delivered_packets=8)
    passes = [[
        run.JobRecord(job, _result(job, 1.0, extra=extra), 1.0, 1.0, merged=same),
        run.JobRecord(job, _result(job, 1.0, extra=extra), 1.0, 1.0, merged=other),
    ]]
    attempted, failed, problems = run.count_failures(passes, {job.label: ref})
    assert (attempted, failed) == (2, 1)
    assert problems == [f"{job.label}: merged counters differ from the serial path"]
    fallback = dict(extra, space_shard={"serial_fallback": True})
    bad = [[run.JobRecord(job, _result(job, 1.0, extra=fallback), 1.0, 1.0, merged=same)]]
    assert run.count_failures(bad, {job.label: ref})[1] == 1


# -- job lists ---------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(workloads.WHY))
def test_job_list_is_a_function_of_the_seed(name):
    a, b = workloads.build_jobs(name, 5), workloads.build_jobs(name, 5)
    assert a == b
    other = workloads.build_jobs(name, 6)
    assert [j.config.seed for j in a] == [5] * len(a)
    assert [j.config.seed for j in other] == [6] * len(a)
    assert [j.config.replace(seed=0) for j in a] == [j.config.replace(seed=0) for j in other]
    assert [(j.label, j.workload, j.bar) for j in a] == [
        (j.label, j.workload, j.bar) for j in other
    ]


def test_fig7_1_runs_every_bar_on_both_engines():
    jobs = workloads.build_jobs("fig7_1", 1)
    assert len(jobs) == 20
    assert {(j.config.fidelity, j.bar) for j in jobs} == {
        (f, (chart, size))
        for f in ("fabric", "router")
        for chart in ("peak", "avg")
        for size in workloads.FIG7_1_SIZES
    }
    assert all(j.config.alloc_cache == 0 and j.config.ports == 4 for j in jobs)


def test_clos_workloads_differ_only_in_partitions():
    serial = workloads.build_jobs("clos256_serial", 1)[0]
    p2 = workloads.build_jobs("clos256_p2", 1)[0]
    assert serial.config.partitions == 1 and p2.config.partitions == 2
    assert serial.config.replace(partitions=2) == p2.config
    assert serial.workload == p2.workload
