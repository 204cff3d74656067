"""Wall-clock benchmark harness: how fast does the simulator itself run?

Every other benchmark in this repository measures the *simulated* router
(Gbps, Mpps, cycle counts).  This module measures the *simulator*: wall
time, simulated cycles per second, and kernel events per second for each
of the three engines, so kernel optimizations have a recorded
trajectory.  ``python -m repro bench`` runs the suite and merges the
numbers into ``benchmarks/BENCH_results.json`` (next to the paper
tables) under a ``kernel_bench`` key:

* the first ever run for a budget mode is stored as the ``baseline``
  (the pre-optimization kernel; re-pin explicitly with
  ``--set-baseline``),
* every run updates ``current`` and recomputes per-engine
  ``speedup_vs_baseline`` as the wall-clock ratio baseline/current.

``--quick`` shrinks the budgets for CI smoke runs; ``--check``
validates the schema of an existing results file and exits.

``--engine fabric-large`` selects the *fabric fast-path* suite instead:
large-ring (N=16/32) saturated runs timed twice -- once with the
compiled step loop (the best serial path: every allocation evaluated
on the shared compiled table), once with the fast path (allocation
LRU + steady-state fast-forward).  Results land under a separate
``fabric_large`` key; every scenario records ``stats_match`` (the fast
path must be bit-identical to the step loop).  With ``--check`` the
suite still runs, then fails the process if any scenario mismatches or
slows down (speedup < 1.0) -- the CI smoke configuration.

``--engine manyworlds`` selects the vectorized Monte Carlo suite: a
``worlds``-seed batch through :mod:`repro.parallel.manyworlds` timed
against a measured sample of scalar reference runs, recording the
aggregate speedup (scalar extrapolation / batch wall) and per-sampled
world bit-identity under a ``manyworlds`` key.  The same ``--check``
semantics apply (bit-identity + speedup >= 1).
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.config import SimConfig
from repro.engines import WorkloadSpec, run_config

#: Schema tag stored in the results file; bump on incompatible changes.
BENCH_SCHEMA = "repro-kernel-bench/1"

#: Default output path: next to the paper-table benchmark results.
DEFAULT_RESULTS_PATH = (
    Path(__file__).resolve().parent.parent.parent / "benchmarks" / "BENCH_results.json"
)

#: Per-engine budgets.  ``full`` matches the experiment harness's
#: standard budgets (the wordlevel one is the Fig 7-3 regime); ``quick``
#: is sized for a CI smoke step.
BUDGETS: Dict[str, Dict[str, WorkloadSpec]] = {
    "full": {
        "fabric": WorkloadSpec(quanta=2000),
        "router": WorkloadSpec(packets=1500),
        "wordlevel": WorkloadSpec(cycles=120_000, warmup_cycles=20_000),
    },
    "quick": {
        "fabric": WorkloadSpec(quanta=400),
        "router": WorkloadSpec(packets=250),
        "wordlevel": WorkloadSpec(cycles=24_000, warmup_cycles=4_000),
    },
}


def bench_engine(
    fidelity: str, mode: str = "full", repeats: int = 1
) -> Dict[str, Any]:
    """Time one engine at the given budget; returns a result row.

    ``wall_s`` is the best (minimum) of ``repeats`` timings of a full
    engine build + run; ``sim_cycles`` includes warmup (the kernel
    simulates those cycles too, so they belong in cycles/sec)."""
    workload = BUDGETS[mode][fidelity]
    config = SimConfig(fidelity=fidelity)
    best: Optional[float] = None
    result = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = run_config(config, workload)
        wall = time.perf_counter() - t0
        best = wall if best is None else min(best, wall)
    assert result is not None and best is not None
    warmup = workload.warmup_cycles if fidelity == "wordlevel" else 0
    sim_cycles = result.cycles + warmup
    events = result.extra.get("kernel_events")
    return {
        "engine": fidelity,
        "wall_s": best,
        "sim_cycles": sim_cycles,
        "cycles_per_sec": sim_cycles / best if best > 0 else None,
        "kernel_events": events,
        "events_per_sec": (events / best) if (events and best > 0) else None,
        "delivered_packets": result.delivered_packets,
        "gbps": result.gbps,
        "workload": workload.to_dict(),
    }


def run_bench(
    mode: str = "full",
    engines: Optional[List[str]] = None,
    repeats: int = 1,
) -> Dict[str, Any]:
    """Run the bench suite; returns the JSON-ready report."""
    if mode not in BUDGETS:
        raise ValueError(f"unknown bench mode {mode!r}")
    engines = list(engines or BUDGETS[mode])
    runs = [bench_engine(f, mode=mode, repeats=repeats) for f in engines]
    return {
        "schema": BENCH_SCHEMA,
        "mode": mode,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "runs": runs,
    }


# ---------------------------------------------------------------------------
# The fabric fast-path suite (``--engine fabric-large``).
# ---------------------------------------------------------------------------
#: Schema tag for the ``fabric_large`` results section.
FABRIC_LARGE_SCHEMA = "repro-fabric-large-bench/1"

#: Scenario budgets.  Each saturated-permutation scenario is timed as
#: (compiled step loop, no LRU) vs (fast path); ``optimized`` names the
#: fast-path layers the scenario exercises.
FABRIC_LARGE_SCENARIOS: Dict[str, List[Dict[str, Any]]] = {
    "full": [
        {"name": "saturated_n16", "ports": 16, "quanta": 20_000, "warmup": 200,
         "words": 256, "shift": 8, "optimized": "cache+fast_forward"},
        {"name": "saturated_n32", "ports": 32, "quanta": 8_000, "warmup": 200,
         "words": 256, "shift": 16, "optimized": "cache+fast_forward"},
    ],
    "quick": [
        {"name": "saturated_n16", "ports": 16, "quanta": 2_500, "warmup": 100,
         "words": 256, "shift": 8, "optimized": "cache+fast_forward"},
    ],
}


def _bench_fabric_large_scenario(sc: Dict[str, Any]) -> Dict[str, Any]:
    """Time one scenario both ways; the fast path must be bit-identical.

    The baseline is the compiled step loop with no LRU and no
    fast-forward: the best serial path."""
    from repro.core.allocator import Allocator
    from repro.core.fabricsim import FabricSimulator, saturated_permutation
    from repro.core.ring import RingGeometry

    def timed_run(cache_size: int, fast_forward: bool):
        ring = RingGeometry(sc["ports"])
        sim = FabricSimulator(
            ring=ring,
            allocator=Allocator(ring, cache_size=cache_size),
            fast_forward=fast_forward,
        )
        source = saturated_permutation(sc["words"], shift=sc["shift"],
                                       n=sc["ports"])
        t0 = time.perf_counter()
        stats = sim.run(source, quanta=sc["quanta"], warmup_quanta=sc["warmup"])
        return sim, stats, time.perf_counter() - t0

    _, baseline, baseline_wall = timed_run(cache_size=0, fast_forward=False)
    sim, fast, fast_wall = timed_run(cache_size=4096, fast_forward=True)
    extra = {"ff_quanta": sim.ff_quanta, "cache": sim.allocator.cache_info()}
    return {
        "scenario": sc["name"],
        "ports": sc["ports"],
        "quanta": sc["quanta"],
        "optimized": sc["optimized"],
        "baseline_wall_s": baseline_wall,
        "fast_wall_s": fast_wall,
        "speedup": baseline_wall / fast_wall if fast_wall > 0 else None,
        "stats_match": baseline.counters() == fast.counters(),
        "gbps": fast.gbps,
        "delivered_words": fast.delivered_words,
        "fast_path": extra,
    }


def run_fabric_large(mode: str = "full") -> Dict[str, Any]:
    """Run the fabric fast-path suite; returns the JSON-ready report."""
    if mode not in FABRIC_LARGE_SCENARIOS:
        raise ValueError(f"unknown bench mode {mode!r}")
    return {
        "schema": FABRIC_LARGE_SCHEMA,
        "mode": mode,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scenarios": [
            _bench_fabric_large_scenario(sc)
            for sc in FABRIC_LARGE_SCENARIOS[mode]
        ],
    }


def merge_fabric_large(
    data: Dict[str, Any], report: Dict[str, Any]
) -> Dict[str, Any]:
    """Fold a fast-path report into the results dict (keyed by mode, so
    a ``--quick`` CI run never clobbers the full-budget numbers)."""
    fl = data.setdefault("fabric_large", {"schema": FABRIC_LARGE_SCHEMA})
    fl[report["mode"]] = report
    return data


def check_fabric_large(report: Dict[str, Any]) -> List[str]:
    """CI invariants: every scenario bit-identical and not slower."""
    problems: List[str] = []
    for row in report["scenarios"]:
        if not row["stats_match"]:
            problems.append(
                f"{row['scenario']}: fast-path stats differ from step loop"
            )
        if row["speedup"] is None or row["speedup"] < 1.0:
            problems.append(
                f"{row['scenario']}: speedup {row['speedup']} < 1.0"
            )
    return problems


def validate_fabric_large(data: Dict[str, Any]) -> List[str]:
    """Schema check for the ``fabric_large`` section (if present)."""
    errors: List[str] = []
    fl = data.get("fabric_large")
    if fl is None:
        return errors
    if fl.get("schema") != FABRIC_LARGE_SCHEMA:
        errors.append(
            f"fabric_large schema is {fl.get('schema')!r}, "
            f"expected {FABRIC_LARGE_SCHEMA!r}"
        )
    for mode, report in fl.items():
        if mode == "schema":
            continue
        rows = report.get("scenarios") if isinstance(report, dict) else None
        if not isinstance(rows, list) or not rows:
            errors.append(f"fabric_large.{mode} has no scenarios")
            continue
        for row in rows:
            for field in ("scenario", "baseline_wall_s", "fast_wall_s",
                          "speedup", "stats_match"):
                if field not in row:
                    errors.append(
                        f"fabric_large.{mode} scenario missing {field!r}"
                    )
            if row.get("stats_match") is not True:
                errors.append(
                    f"fabric_large.{mode}.{row.get('scenario')}: "
                    "stats_match is not true"
                )
    return errors


def format_fabric_large(report: Dict[str, Any]) -> str:
    lines = [
        f"fabric fast-path bench ({report['mode']} budgets, "
        f"python {report['python']})",
        f"{'scenario':<16} {'opt':<20} {'base (s)':>10} {'fast (s)':>10} "
        f"{'speedup':>9} {'identical':>10}",
    ]
    for row in report["scenarios"]:
        lines.append(
            f"{row['scenario']:<16} {row['optimized']:<20} "
            f"{row['baseline_wall_s']:>10.3f} {row['fast_wall_s']:>10.3f} "
            f"{row['speedup']:>8.1f}x "
            f"{('yes' if row['stats_match'] else 'NO'):>10}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The space-partitioned suite (``--engine space``).
# ---------------------------------------------------------------------------
#: Schema tag for the ``space_shard`` results section.  ``/2`` adds the
#: per-backend sub-table (``backends``): every scenario is measured once
#: per configured transport against one shared uncached-serial baseline,
#: with the legacy top-level fields mirroring the ``pipe`` row so ``/1``
#: consumers keep reading the compatibility baseline.  Rows may also
#: carry the compiled serial wall (``best_serial_wall_s``) and, per
#: backend, ``speedup_vs_best_serial``.
SPACE_SCHEMA = "repro-space-bench/2"

#: Scenario budgets.  Each scenario times the uncached single-process
#: reference (the plain allocation rule) and the compiled serial run
#: (every chip on the shared compiled table: the best serial path)
#: against the space-partitioned run (the same compiled chips in
#: token-window workers) once per transport backend, asserting
#: bit-identity throughout.  ``speedup`` is against the uncached
#: reference, like the fabric fast-path suite; ``speedup_vs_best_serial``
#: is the honest ratio, and may be below 1 on a host with few cores.
#: ``clos_n256`` is the scale headline: a 256-port
#: Clos (48 16-port chips) across 4 workers on every backend.
#: ``clos_n64_fine`` runs window=1 with sparse fragments -- one tiny
#: batch per quantum per boundary edge -- which is the regime where
#: per-batch transport overhead dominates, so it carries the
#: shm-beats-pipe comparison (``expect_shm_wins``, min-of-``reps``
#: walls).  Socket rows measure the hub-relayed TCP path; on one host
#: that doubles every boundary hop, so they are checked for identity
#: and distribution, not speed.
SPACE_SCENARIOS: Dict[str, List[Dict[str, Any]]] = {
    "full": [
        {"name": "clos_n256", "k": 16, "latency": 8, "partitions": 4,
         "quanta": 1_200, "warmup": 200,
         "backends": ("pipe", "shm", "socket"),
         "source": {"kind": "permutation", "words": 256, "shift": 128}},
        {"name": "clos_n64", "k": 8, "latency": 8, "partitions": 4,
         "quanta": 3_000, "warmup": 200,
         "backends": ("pipe", "shm"),
         "source": {"kind": "permutation", "words": 256, "shift": 32}},
        {"name": "clos_n64_fine", "k": 8, "latency": 1, "partitions": 4,
         "quanta": 3_000, "warmup": 200, "reps": 2,
         "backends": ("pipe", "shm"), "expect_shm_wins": True,
         "source": {"kind": "permutation", "words": 16, "shift": 32}},
        {"name": "clos_n16_uniform", "k": 4, "latency": 4, "partitions": 3,
         "quanta": 4_000, "warmup": 200,
         "source": {"kind": "uniform_counter", "words": 256, "seed": 42,
                    "exclude_self": True}},
        {"name": "clos_n16", "k": 4, "latency": 4, "partitions": 3,
         "quanta": 6_000, "warmup": 200,
         "backends": ("pipe", "socket"),
         "source": {"kind": "permutation", "words": 256, "shift": 8}},
    ],
    "quick": [
        {"name": "clos_n256", "k": 16, "latency": 8, "partitions": 4,
         "quanta": 300, "warmup": 50,
         "backends": ("pipe", "shm"),
         "source": {"kind": "permutation", "words": 256, "shift": 128}},
        {"name": "clos_n64", "k": 8, "latency": 8, "partitions": 4,
         "quanta": 800, "warmup": 100,
         "source": {"kind": "permutation", "words": 256, "shift": 32}},
        {"name": "clos_n16", "k": 4, "latency": 4, "partitions": 3,
         "quanta": 1_500, "warmup": 100,
         "backends": ("pipe", "socket"),
         "source": {"kind": "permutation", "words": 256, "shift": 8}},
    ],
}


def _bench_space_scenario(sc: Dict[str, Any]) -> Dict[str, Any]:
    """Time one scenario per backend against one shared uncached serial
    reference and the compiled serial run; every run must be
    bit-identical to the reference."""
    from repro.parallel.space_shard import (
        SpaceSpec, run_space, run_space_serial,
    )

    spec = SpaceSpec(
        k=sc["k"],
        latency=sc["latency"],
        partitions=sc["partitions"],
        source=SpaceSpec.pack_source(sc["source"]),
        quanta=sc["quanta"],
        warmup_quanta=sc["warmup"],
    )
    t0 = time.perf_counter()
    baseline = run_space_serial(spec, cached=False)
    baseline_wall = time.perf_counter() - t0
    reps = sc.get("reps", 1)
    walls = []
    for _ in range(reps):
        t0 = time.perf_counter()
        best = run_space_serial(spec)
        walls.append(time.perf_counter() - t0)
    best_wall = min(walls)
    backends: Dict[str, Dict[str, Any]] = {}
    runs: Dict[str, Any] = {}
    for tr in sc.get("backends", ("pipe",)):
        walls = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fast, info = run_space(spec, transport=tr)
            walls.append(time.perf_counter() - t0)
        wall = min(walls)
        runs[tr] = (fast, info, wall)
        backends[tr] = {
            "fast_wall_s": wall,
            "speedup": baseline_wall / wall if wall > 0 else None,
            "speedup_vs_best_serial": best_wall / wall if wall > 0 else None,
            "stats_match": baseline.counters() == fast.counters(),
            "serial_fallback": info.serial_fallback,
            "stall_s": round(sum(info.pipe_stall_s), 4),
            "boundary_flits": sum(info.boundary_flits),
            "bytes_moved": sum(info.bytes_moved),
            "coalesced_rounds": sum(info.coalesced_rounds),
            "gbps": fast.gbps,
        }
    legacy = "pipe" if "pipe" in runs else next(iter(runs))
    fast, info, fast_wall = runs[legacy]
    return {
        "scenario": sc["name"],
        "ports": spec.num_ports,
        "chips": 3 * sc["k"],
        "partitions": info.workers,
        "window": info.window,
        "quanta": sc["quanta"],
        "baseline_wall_s": baseline_wall,
        "best_serial_wall_s": best_wall,
        "best_serial_match": baseline.counters() == best.counters(),
        "fast_wall_s": fast_wall,
        "speedup": backends[legacy]["speedup"],
        "stats_match": backends[legacy]["stats_match"],
        "gbps": fast.gbps,
        "delivered_words": fast.delivered_words,
        "expect_shm_wins": bool(sc.get("expect_shm_wins")),
        "backends": backends,
        "space": {
            "rounds": info.rounds,
            "windows_per_worker": info.windows_per_worker,
            "pipe_stall_s": [round(s, 4) for s in info.pipe_stall_s],
            "boundary_flits": info.boundary_flits,
            "bytes_moved": info.bytes_moved,
            "coalesced_rounds": info.coalesced_rounds,
            "serial_fallback": info.serial_fallback,
        },
    }


def run_space_bench(mode: str = "full") -> Dict[str, Any]:
    """Run the space-partitioned suite; returns the JSON-ready report."""
    if mode not in SPACE_SCENARIOS:
        raise ValueError(f"unknown bench mode {mode!r}")
    return {
        "schema": SPACE_SCHEMA,
        "mode": mode,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scenarios": [
            _bench_space_scenario(sc) for sc in SPACE_SCENARIOS[mode]
        ],
    }


def merge_space(data: Dict[str, Any], report: Dict[str, Any]) -> Dict[str, Any]:
    """Fold a space report into the results dict (keyed by mode, so a
    ``--quick`` CI run never clobbers the full-budget numbers)."""
    sp = data.setdefault("space_shard", {})
    sp["schema"] = SPACE_SCHEMA
    sp[report["mode"]] = report
    return data


def check_space(report: Dict[str, Any]) -> List[str]:
    """CI invariants: every backend bit-identical and distributed, the
    in-host backends (pipe/shm) not slower than uncached serial, and shm
    beating pipe where the scenario was built to show it.  Socket rows
    are exempt from the speed floor: hub relay on one host doubles every
    boundary hop, so only identity and distribution are load-bearing."""
    problems: List[str] = []
    for row in report["scenarios"]:
        if row.get("best_serial_match") is False:
            problems.append(
                f"{row['scenario']}: compiled serial stats differ from "
                "the plain-rule reference"
            )
        for tr, be in row.get("backends", {}).items():
            if not be["stats_match"]:
                problems.append(
                    f"{row['scenario']}[{tr}]: partitioned stats differ "
                    "from the single-process reference"
                )
            if be["serial_fallback"]:
                problems.append(
                    f"{row['scenario']}[{tr}]: fell back to serial (not "
                    "a distributed measurement)"
                )
            if tr != "socket" and (
                be["speedup"] is None or be["speedup"] < 1.0
            ):
                problems.append(
                    f"{row['scenario']}[{tr}]: speedup "
                    f"{be['speedup']} < 1.0"
                )
        if row.get("expect_shm_wins"):
            be = row.get("backends", {})
            pipe_w = be.get("pipe", {}).get("fast_wall_s")
            shm_w = be.get("shm", {}).get("fast_wall_s")
            if pipe_w is None or shm_w is None:
                problems.append(
                    f"{row['scenario']}: expect_shm_wins set but pipe/"
                    "shm walls missing"
                )
            elif shm_w > pipe_w:
                problems.append(
                    f"{row['scenario']}: shm wall {shm_w:.3f}s slower "
                    f"than pipe wall {pipe_w:.3f}s"
                )
    return problems


def validate_space(data: Dict[str, Any]) -> List[str]:
    """Schema check for the ``space_shard`` section (if present)."""
    errors: List[str] = []
    sp = data.get("space_shard")
    if sp is None:
        return errors
    if sp.get("schema") != SPACE_SCHEMA:
        errors.append(
            f"space_shard schema is {sp.get('schema')!r}, "
            f"expected {SPACE_SCHEMA!r}"
        )
    for mode, report in sp.items():
        if mode == "schema":
            continue
        rows = report.get("scenarios") if isinstance(report, dict) else None
        if not isinstance(rows, list) or not rows:
            errors.append(f"space_shard.{mode} has no scenarios")
            continue
        for row in rows:
            for field in ("scenario", "partitions", "baseline_wall_s",
                          "fast_wall_s", "speedup", "stats_match",
                          "backends"):
                if field not in row:
                    errors.append(
                        f"space_shard.{mode} scenario missing {field!r}"
                    )
            if row.get("stats_match") is not True:
                errors.append(
                    f"space_shard.{mode}.{row.get('scenario')}: "
                    "stats_match is not true"
                )
            if row.get("best_serial_match") is False:
                errors.append(
                    f"space_shard.{mode}.{row.get('scenario')}: "
                    "best_serial_match is false"
                )
            for tr, be in (row.get("backends") or {}).items():
                if be.get("stats_match") is not True:
                    errors.append(
                        f"space_shard.{mode}.{row.get('scenario')}"
                        f"[{tr}]: stats_match is not true"
                    )
    return errors


def format_space(report: Dict[str, Any]) -> str:
    lines = [
        f"space-partitioned bench ({report['mode']} budgets, "
        f"python {report['python']})",
        f"{'scenario':<18} {'backend':<8} {'ports':>6} {'P':>3} "
        f"{'base (s)':>10} {'serial (s)':>10} {'fast (s)':>10} "
        f"{'speedup':>9} {'vs serial':>9} "
        f"{'identical':>10} {'KiB moved':>10}",
    ]
    for row in report["scenarios"]:
        for tr, be in row.get("backends", {}).items():
            lines.append(
                f"{row['scenario']:<18} {tr:<8} {row['ports']:>6} "
                f"{row['partitions']:>3} {row['baseline_wall_s']:>10.3f} "
                f"{row['best_serial_wall_s']:>10.3f} "
                f"{be['fast_wall_s']:>10.3f} {be['speedup']:>8.1f}x "
                f"{be['speedup_vs_best_serial']:>8.2f}x "
                f"{('yes' if be['stats_match'] else 'NO'):>10} "
                f"{be['bytes_moved'] / 1024:>10.0f}"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The many-worlds suite (``--engine manyworlds``).
# ---------------------------------------------------------------------------
#: Schema tag for the ``manyworlds`` results section.
MANYWORLDS_SCHEMA = "repro-manyworlds-bench/1"

#: Scenario budgets.  Each scenario times a ``worlds``-seed vectorized
#: batch against a measured sample of ``sample_worlds`` scalar reference
#: runs (``aggregate speedup`` extrapolates the scalar sample to the
#: full world count); the sampled worlds must be bit-identical to their
#: vectorized lanes.
MANYWORLDS_SCENARIOS: Dict[str, List[Dict[str, Any]]] = {
    "full": [
        {"name": "uniform_n16_1000w", "ports": 16, "seed": 7,
         "quanta": 2000, "worlds": 1000, "sample_worlds": 3,
         "workload": {"pattern": "uniform"}},
        {"name": "imix_n16_500w", "ports": 16, "seed": 11,
         "quanta": 2000, "worlds": 500, "sample_worlds": 3,
         "workload": {"traffic": "imix"}},
        {"name": "imix_onoff_n8_500w", "ports": 8, "seed": 13,
         "quanta": 2000, "worlds": 500, "sample_worlds": 3,
         "workload": {"traffic": "imix_onoff"}},
    ],
    "quick": [
        {"name": "uniform_n16_64w", "ports": 16, "seed": 7,
         "quanta": 300, "worlds": 64, "sample_worlds": 2,
         "workload": {"pattern": "uniform"}},
        {"name": "imix_n8_32w", "ports": 8, "seed": 11,
         "quanta": 300, "worlds": 32, "sample_worlds": 2,
         "workload": {"traffic": "imix"}},
    ],
}


def _bench_manyworlds_scenario(sc: Dict[str, Any]) -> Dict[str, Any]:
    """Time one vectorized batch against a measured scalar sample."""
    from repro.parallel.manyworlds import run_worlds, scalar_world_stats

    config = SimConfig(ports=sc["ports"], seed=sc["seed"])
    workload = WorkloadSpec(quanta=sc["quanta"], **sc["workload"])
    mw = run_worlds(config, workload, sc["worlds"])
    vec_wall = mw.elapsed_s

    sample = list(range(sc["sample_worlds"]))
    t0 = time.perf_counter()
    refs = [scalar_world_stats(config, workload, w) for w in sample]
    scalar_wall = time.perf_counter() - t0
    per_world = scalar_wall / len(sample)
    extrapolated = per_world * sc["worlds"]

    stats_match = all(
        mw.stats[w].counters() == refs[i].counters()
        and mw.stats[w].per_port_words == refs[i].per_port_words
        and mw.stats[w].grant_histogram == refs[i].grant_histogram
        for i, w in enumerate(sample)
    )
    env = mw.envelope("gbps")
    return {
        "scenario": sc["name"],
        "ports": sc["ports"],
        "quanta": sc["quanta"],
        "worlds": sc["worlds"],
        "vectorized": mw.vectorized,
        "vector_wall_s": vec_wall,
        "scalar_sample_worlds": len(sample),
        "scalar_sample_wall_s": scalar_wall,
        "scalar_wall_s_extrapolated": extrapolated,
        "aggregate_speedup": extrapolated / vec_wall if vec_wall > 0 else None,
        "stats_match": stats_match,
        "gbps_envelope": env,
    }


def run_manyworlds_bench(mode: str = "full") -> Dict[str, Any]:
    """Run the many-worlds suite; returns the JSON-ready report."""
    if mode not in MANYWORLDS_SCENARIOS:
        raise ValueError(f"unknown bench mode {mode!r}")
    return {
        "schema": MANYWORLDS_SCHEMA,
        "mode": mode,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scenarios": [
            _bench_manyworlds_scenario(sc)
            for sc in MANYWORLDS_SCENARIOS[mode]
        ],
    }


def merge_manyworlds(
    data: Dict[str, Any], report: Dict[str, Any]
) -> Dict[str, Any]:
    """Fold a many-worlds report into the results dict (keyed by mode,
    like ``fabric_large``)."""
    mw = data.setdefault("manyworlds", {"schema": MANYWORLDS_SCHEMA})
    mw[report["mode"]] = report
    return data


def check_manyworlds(report: Dict[str, Any]) -> List[str]:
    """CI invariants: sampled worlds bit-identical, vectorized path
    taken, and the batch not slower than the scalar extrapolation (the
    >= 100x full-budget headline is recorded, not gated -- CI machines
    are too noisy to pin a two-order-of-magnitude ratio)."""
    problems: List[str] = []
    for row in report["scenarios"]:
        if not row["stats_match"]:
            problems.append(
                f"{row['scenario']}: sampled worlds differ from scalar runs"
            )
        if not row["vectorized"]:
            problems.append(f"{row['scenario']}: fell back to scalar runs")
        speedup = row["aggregate_speedup"]
        if speedup is None or speedup < 1.0:
            problems.append(
                f"{row['scenario']}: aggregate speedup {speedup} < 1.0"
            )
    return problems


def validate_manyworlds(data: Dict[str, Any]) -> List[str]:
    """Schema check for the ``manyworlds`` section (if present)."""
    errors: List[str] = []
    mw = data.get("manyworlds")
    if mw is None:
        return errors
    if mw.get("schema") != MANYWORLDS_SCHEMA:
        errors.append(
            f"manyworlds schema is {mw.get('schema')!r}, "
            f"expected {MANYWORLDS_SCHEMA!r}"
        )
    for mode, report in mw.items():
        if mode == "schema":
            continue
        rows = report.get("scenarios") if isinstance(report, dict) else None
        if not isinstance(rows, list) or not rows:
            errors.append(f"manyworlds.{mode} has no scenarios")
            continue
        for row in rows:
            for field in ("scenario", "worlds", "vector_wall_s",
                          "aggregate_speedup", "stats_match", "gbps_envelope"):
                if field not in row:
                    errors.append(
                        f"manyworlds.{mode} scenario missing {field!r}"
                    )
            if row.get("stats_match") is not True:
                errors.append(
                    f"manyworlds.{mode}.{row.get('scenario')}: "
                    "stats_match is not true"
                )
    return errors


def format_manyworlds(report: Dict[str, Any]) -> str:
    lines = [
        f"many-worlds bench ({report['mode']} budgets, "
        f"python {report['python']})",
        f"{'scenario':<20} {'worlds':>7} {'vec (s)':>9} {'scalar est (s)':>15} "
        f"{'speedup':>9} {'identical':>10}",
    ]
    for row in report["scenarios"]:
        lines.append(
            f"{row['scenario']:<20} {row['worlds']:>7} "
            f"{row['vector_wall_s']:>9.3f} "
            f"{row['scalar_wall_s_extrapolated']:>15.3f} "
            f"{row['aggregate_speedup']:>8.1f}x "
            f"{('yes' if row['stats_match'] else 'NO'):>10}"
        )
        env = row["gbps_envelope"]
        lines.append(
            f"{'':<20} gbps {env['mean']:.3f} ± {env['ci95']:.3f} "
            f"(p50 {env['p50']:.3f}, p99 {env['p99']:.3f})"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Results-file plumbing.
# ---------------------------------------------------------------------------
def load_results(path: Path) -> Dict[str, Any]:
    if path.exists():
        return json.loads(path.read_text())
    return {}


def merge_results(
    data: Dict[str, Any], report: Dict[str, Any], set_baseline: bool = False
) -> Dict[str, Any]:
    """Fold a bench report into the results dict (pure; returns it).

    The first report seen for a budget mode becomes that mode's
    baseline; later reports update ``current`` and the per-engine
    speedups.  Paper tables under other keys are left untouched."""
    kb = data.setdefault("kernel_bench", {"schema": BENCH_SCHEMA})
    baselines = kb.setdefault("baseline", {})
    mode = report["mode"]
    if set_baseline or mode not in baselines:
        baselines[mode] = report
    kb["current"] = report
    base_walls = {r["engine"]: r["wall_s"] for r in baselines[mode]["runs"]}
    kb["speedup_vs_baseline"] = {
        r["engine"]: base_walls[r["engine"]] / r["wall_s"]
        for r in report["runs"]
        if r["engine"] in base_walls and r["wall_s"] > 0
    }
    return data


def validate_results(data: Dict[str, Any]) -> List[str]:
    """Schema check for the ``kernel_bench`` section; returns problems."""
    errors: List[str] = []
    kb = data.get("kernel_bench")
    if not isinstance(kb, dict):
        return ["missing kernel_bench section"]
    if kb.get("schema") != BENCH_SCHEMA:
        errors.append(f"schema is {kb.get('schema')!r}, expected {BENCH_SCHEMA!r}")
    for section in ("baseline", "current"):
        if section not in kb:
            errors.append(f"missing kernel_bench.{section}")
    reports = [kb.get("current")] + list(kb.get("baseline", {}).values())
    for report in reports:
        if not isinstance(report, dict):
            errors.append("report is not an object")
            continue
        if report.get("mode") not in BUDGETS:
            errors.append(f"bad mode {report.get('mode')!r}")
        runs = report.get("runs")
        if not isinstance(runs, list) or not runs:
            errors.append("report has no runs")
            continue
        for run in runs:
            for field in ("engine", "wall_s", "sim_cycles", "cycles_per_sec"):
                if field not in run:
                    errors.append(f"run missing {field!r}")
            if not isinstance(run.get("wall_s"), (int, float)):
                errors.append("wall_s is not a number")
    if "speedup_vs_baseline" in kb and not isinstance(
        kb["speedup_vs_baseline"], dict
    ):
        errors.append("speedup_vs_baseline is not an object")
    return errors


def format_report(report: Dict[str, Any], speedups: Dict[str, float]) -> str:
    lines = [
        f"kernel bench ({report['mode']} budgets, python {report['python']})",
        f"{'engine':<10} {'wall (s)':>10} {'cycles/s':>12} {'events/s':>12} "
        f"{'Gbps':>8} {'speedup':>8}",
    ]
    for run in report["runs"]:
        eps = run["events_per_sec"]
        speed = speedups.get(run["engine"])
        lines.append(
            f"{run['engine']:<10} {run['wall_s']:>10.3f} "
            f"{run['cycles_per_sec']:>12.0f} "
            f"{(f'{eps:.0f}' if eps else '-'):>12} "
            f"{run['gbps']:>8.3f} "
            f"{(f'{speed:.2f}x' if speed else '-'):>8}"
        )
    return "\n".join(lines)


def main(
    mode: str = "full",
    engines: Optional[List[str]] = None,
    repeats: int = 1,
    out: Optional[Path] = None,
    set_baseline: bool = False,
    check_only: bool = False,
) -> int:
    """Entry point behind ``python -m repro bench``.

    ``fabric-large`` in ``engines`` selects the fast-path suite; with
    ``--check`` that suite still *runs* (it is its own correctness
    check: bit-identity + speedup >= 1), whereas a plain ``--check``
    only validates the existing results file."""
    path = Path(out) if out is not None else DEFAULT_RESULTS_PATH
    engines = list(engines) if engines else None
    fabric_large = engines is not None and "fabric-large" in engines
    manyworlds = engines is not None and "manyworlds" in engines
    space = engines is not None and "space" in engines
    kernel_engines = (
        [e for e in engines if e not in ("fabric-large", "manyworlds", "space")]
        if engines
        else None
    )
    if space:
        report = run_space_bench(mode=mode)
        data = merge_space(load_results(path), report)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data, indent=2) + "\n")
        print(format_space(report))
        print(f"wrote {path}")
        if check_only:
            problems = check_space(report)
            for p in problems:
                print(f"space check failed: {p}", file=sys.stderr)
            if problems:
                return 1
            print(
                "space check ok: every backend bit-identical and "
                "distributed, in-host speedups >= 1"
            )
        if not kernel_engines and not fabric_large and not manyworlds:
            return 0
    if manyworlds:
        report = run_manyworlds_bench(mode=mode)
        data = merge_manyworlds(load_results(path), report)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data, indent=2) + "\n")
        print(format_manyworlds(report))
        print(f"wrote {path}")
        if check_only:
            problems = check_manyworlds(report)
            for p in problems:
                print(f"many-worlds check failed: {p}", file=sys.stderr)
            if problems:
                return 1
            print(
                "many-worlds check ok: sampled worlds bit-identical, "
                "vectorized, speedup >= 1"
            )
        if not kernel_engines and not fabric_large:
            return 0
    if fabric_large:
        report = run_fabric_large(mode=mode)
        data = merge_fabric_large(load_results(path), report)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data, indent=2) + "\n")
        print(format_fabric_large(report))
        print(f"wrote {path}")
        if check_only:
            problems = check_fabric_large(report)
            for p in problems:
                print(f"fast-path check failed: {p}", file=sys.stderr)
            if problems:
                return 1
            print("fast-path check ok: all scenarios bit-identical, speedup >= 1")
        if not kernel_engines:
            return 0
    if check_only and not fabric_large and not manyworlds and not space:
        data = load_results(path)
        errors = (
            validate_results(data)
            + validate_fabric_large(data)
            + validate_manyworlds(data)
            + validate_space(data)
        )
        if errors:
            for err in errors:
                print(f"schema error: {err}", file=sys.stderr)
            return 1
        speedups = data["kernel_bench"].get("speedup_vs_baseline", {})
        print(f"{path} kernel_bench schema ok; speedups: "
              + (", ".join(f"{k}={v:.2f}x" for k, v in speedups.items()) or "n/a"))
        return 0
    report = run_bench(mode=mode, engines=kernel_engines, repeats=repeats)
    data = merge_results(load_results(path), report, set_baseline=set_baseline)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2) + "\n")
    print(format_report(report, data["kernel_bench"]["speedup_vs_baseline"]))
    print(f"wrote {path}")
    return 0
