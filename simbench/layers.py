"""Metric tables, and per-layer metrics from one traced pass.

Span names come from :data:`spans.TARGETS`.  Counts marked exact in
the rationale note (draws, calls, compiles, chip steps, quanta, kernel
events, boundary flits) repeat exactly for one seed; times do not.
Distributed-worker internals come from the program's own counters in
``RunResult.extra["space_shard"]``, since spans stop at the process
boundary.
"""

from __future__ import annotations

import re
from typing import Dict, List

from spans import SpanStat

#: (name, unit, better) of the end-to-end metrics (untraced runs).
END_TO_END = (
    ("sim_pkts_per_s", "pkt/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

#: (name, unit, better) of the per-layer metrics (traced runs).
PER_LAYER = (
    ("traffic.draws", "count", "lower"),
    ("traffic.self_s", "s", "lower"),
    ("traffic.ns_per_draw", "ns", "lower"),
    ("allocator.calls", "count", "lower"),
    ("allocator.self_s", "s", "lower"),
    ("allocator.compiled_self_s", "s", "lower"),
    ("allocator.us_per_call", "us", "lower"),
    ("allocator.compiles", "count", "lower"),
    ("allocator.compile_s", "s", "lower"),
    ("allocator.cache_hits", "count", "higher"),
    ("allocator.cache_misses", "count", "lower"),
    ("allocator.cache_hit_rate", "ratio", "higher"),
    ("spacetopo.chip_steps", "count", "lower"),
    ("spacetopo.chip_step_self_s", "s", "lower"),
    ("spacetopo.advance_self_s", "s", "lower"),
    ("spacetopo.ns_per_chip_quantum", "ns", "lower"),
    ("spacetopo.topology_s", "s", "lower"),
    ("fabricsim.quanta", "count", "lower"),
    ("fabricsim.run_self_s", "s", "lower"),
    ("kernel.events", "count", "lower"),
    ("kernel.run_self_s", "s", "lower"),
    ("kernel.ns_per_event", "ns", "lower"),
    ("router.build_s", "s", "lower"),
    ("router.run_self_s", "s", "lower"),
    ("space_shard.pool_launch_s", "s", "lower"),
    ("space_shard.pool_run_s", "s", "lower"),
    ("space_shard.pool_close_s", "s", "lower"),
    ("space_shard.merge_s", "s", "lower"),
    ("space_shard.busy_imbalance", "ratio", "lower"),
    ("transport.stall_s.w0", "s", "lower"),
    ("transport.stall_s.w1", "s", "lower"),
    ("transport.stall_share", "ratio", "lower"),
    ("transport.bytes_moved", "bytes", "lower"),
    ("transport.boundary_flits", "count", "lower"),
    ("transport.windows", "count", "lower"),
    ("transport.coalesced_rounds", "count", "higher"),
    ("fig7_1_err_pct", "%", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

#: What a metric name may be made of (and it starts with a letter or
#: digit, at most 64 characters).
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

_NONE = SpanStat(0, 0.0, 0.0)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(
    stats: Dict[str, SpanStat],
    results: List,
    job_wall_s: float,
    cache_info: Dict[str, int],
) -> Dict[str, float]:
    """Every per-layer metric of one traced pass except those measured
    across passes (``trace.overhead_pct``, ``fig7_1_err_pct``).

    ``results`` are the pass's ``RunResult`` values (None for a job
    that raised), ``job_wall_s`` the summed wall time of its jobs and
    ``cache_info`` the summed hit/miss counters of every allocator the
    pass built in this process.
    """
    def span(name: str) -> SpanStat:
        return stats.get(name, _NONE)

    m: Dict[str, float] = {}
    draw = span("traffic.draw")
    m["traffic.draws"] = draw.count
    m["traffic.self_s"] = draw.self_s
    m["traffic.ns_per_draw"] = _ratio(draw.self_s, draw.count, 1e9)

    alloc, compiled = span("allocator.allocate"), span("allocator.compiled_allocate")
    compile_ = span("allocator.compile")
    m["allocator.calls"] = alloc.count
    m["allocator.self_s"] = alloc.self_s
    m["allocator.compiled_self_s"] = compiled.self_s
    m["allocator.us_per_call"] = _ratio(alloc.self_s + compiled.self_s, alloc.count, 1e6)
    m["allocator.compiles"] = compile_.count
    m["allocator.compile_s"] = compile_.total_s
    hits, misses = cache_info.get("hits", 0), cache_info.get("misses", 0)
    m["allocator.cache_hits"] = hits
    m["allocator.cache_misses"] = misses
    m["allocator.cache_hit_rate"] = _ratio(hits, hits + misses)

    step, advance = span("spacetopo.chip_step"), span("spacetopo.advance")
    m["spacetopo.chip_steps"] = step.count
    m["spacetopo.chip_step_self_s"] = step.self_s
    m["spacetopo.advance_self_s"] = advance.self_s
    m["spacetopo.ns_per_chip_quantum"] = _ratio(
        step.self_s + advance.self_s, step.count, 1e9
    )
    m["spacetopo.topology_s"] = span("spacetopo.build_topology").total_s

    done = [r for r in results if r is not None]
    m["fabricsim.quanta"] = sum(r.extra["quanta"] for r in done if r.fidelity == "fabric")
    m["fabricsim.run_self_s"] = span("fabricsim.run").self_s
    kernel = span("kernel.run")
    events = sum(r.extra.get("kernel_events", 0) for r in done if r.fidelity == "router")
    m["kernel.events"] = events
    m["kernel.run_self_s"] = kernel.self_s
    m["kernel.ns_per_event"] = _ratio(kernel.self_s, events, 1e9)
    m["router.build_s"] = span("router.from_config").total_s
    m["router.run_self_s"] = span("router.run").self_s

    pool_run = span("space_shard.pool_run")
    m["space_shard.pool_launch_s"] = span("space_shard.pool_init").total_s
    m["space_shard.pool_run_s"] = pool_run.total_s
    m["space_shard.pool_close_s"] = span("space_shard.pool_close").total_s
    m["space_shard.merge_s"] = span("space_shard.merge").total_s
    shards = [r.extra["space_shard"] for r in done if "space_shard" in r.extra]
    shards = [s for s in shards if not s["serial_fallback"]]
    stalls = [0.0, 0.0]
    for s in shards:
        for w, stall in enumerate(s["pipe_stall_s"][:2]):
            stalls[w] += stall
    m["transport.stall_s.w0"], m["transport.stall_s.w1"] = stalls
    workers = sum(s["workers"] for s in shards) / len(shards) if shards else 0
    m["transport.stall_share"] = _ratio(sum(stalls), workers * pool_run.total_s)
    busy = [pool_run.total_s - s for s in stalls] if shards else []
    m["space_shard.busy_imbalance"] = _ratio(
        max(busy, default=0.0), sum(busy) / len(busy) if busy else 0.0
    )
    for key in ("bytes_moved", "boundary_flits", "coalesced_rounds"):
        m[f"transport.{key}"] = sum(sum(s[key]) for s in shards)
    m["transport.windows"] = sum(sum(s["windows_per_worker"]) for s in shards)

    named_self = sum(s.self_s for s in stats.values())
    m["trace.coverage"] = _ratio(named_self, job_wall_s)
    return m
