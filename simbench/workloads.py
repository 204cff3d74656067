"""The benchmark's workloads: seed -> job list, and each job's checks.

A job is one call of the public entry point
``repro.engines.run_config(config, workload)``.  A workload's job list
is one *pass*; the runner repeats passes back to back in a closed loop.
The seed reaches the program only as ``SimConfig.seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Default workload seed, and one held out from any tuning so a later
#: claim can be re-checked on inputs it was not developed against.
DEFAULT_SEED = 1
HELD_OUT_SEED = 97

#: Clos workloads: 16-port Rotating Crossbar chips, 3-stage Clos.
CLOS_PORTS = 256
CLOS_QUANTA = 300
#: fig7_1: fabric quanta / router delivered-packet target per bar.
FIG7_1_BUDGET = 1000
FIG7_1_SIZES = (64, 128, 256, 512, 1024)

#: The Fig 7-1 1024 B peak golden (fabric engine, permutation traffic).
GOLDEN_PEAK_1024B_GBPS = 26.77124183006536
#: Per-bar tolerance against the paper, as the experiment tests use.
BAR_REL_BAND = 0.16

WHY = {
    "clos256_serial": "N=256 Clos, one process, cached allocator: "
    "traffic draws, per-chip allocator compiles/lookups and chip stepping",
    "clos256_p2": "the same Clos and seed on two pipe workers: adds pool "
    "launch, boundary transport, stall and merge; bit-identical to serial",
    "fig7_1": "the paper's 20 Fig 7-1 bars on the fabric and router "
    "engines: event kernel and uncached 4-port allocator, against paperdata",
}


@dataclass(frozen=True)
class Job:
    """One ``run_config`` call.  ``bar`` is ``(chart, bytes)`` for a
    Fig 7-1 bar, ``("peak"|"avg", size)``; None for Clos jobs."""

    label: str
    config: object  #: repro.config.SimConfig
    workload: object  #: repro.engines.WorkloadSpec
    bar: Optional[Tuple[str, int]] = None


def build_jobs(name: str, seed: int) -> List[Job]:
    """The job list (one pass) of workload ``name`` under ``seed``."""
    from repro.config import SimConfig
    from repro.engines import WorkloadSpec

    if name in ("clos256_serial", "clos256_p2"):
        config = SimConfig(
            fidelity="space",
            ports=CLOS_PORTS,
            partitions=1 if name == "clos256_serial" else 2,
            link_latency=4,
            alloc_cache=4096,
            transport="pipe",
            seed=seed,
        )
        workload = WorkloadSpec(traffic="imix", quanta=CLOS_QUANTA)
        return [Job(name, config, workload)]
    if name == "fig7_1":
        jobs = []
        for fidelity in ("fabric", "router"):
            for chart, pattern in (("peak", "permutation"), ("avg", "uniform")):
                for size in FIG7_1_SIZES:
                    budget = (
                        {"quanta": FIG7_1_BUDGET}
                        if fidelity == "fabric"
                        else {"packets": FIG7_1_BUDGET}
                    )
                    jobs.append(Job(
                        f"{fidelity}/{chart}/{size}B",
                        SimConfig(fidelity=fidelity, seed=seed),
                        WorkloadSpec(pattern=pattern, packet_bytes=size, **budget),
                        bar=(chart, size),
                    ))
        return jobs
    raise ValueError(f"unknown workload {name!r}; expected one of {sorted(WHY)}")


def paper_gbps(bar: Tuple[str, int]) -> float:
    from repro.experiments import paperdata

    chart, size = bar
    return (paperdata.PEAK_GBPS if chart == "peak" else paperdata.AVG_GBPS)[size]


def signature(result) -> Tuple:
    """The counters two runs of one job must agree on exactly."""
    return (
        result.cycles,
        result.delivered_packets,
        result.delivered_words,
        result.gbps,
        tuple(result.per_port_packets),
        result.extra.get("blocked_events"),
    )


def space_signature(stats) -> Tuple:
    """Serial-vs-distributed identity: the merged fabric counters."""
    return (
        stats.cycles,
        stats.delivered_words,
        stats.delivered_packets,
        tuple(stats.per_port_words),
        stats.blocked_events,
    )


def check_job(job: Job, result, first=None) -> List[str]:
    """Why ``result`` is wrong (empty when it passes).  ``first`` is the
    same job's result from the run's first pass, which every later pass
    must repeat exactly."""
    problems = []
    if result.delivered_packets <= 0:
        problems.append("delivered no packets")
    if sum(result.per_port_packets) != result.delivered_packets:
        problems.append("per-port packets do not sum to delivered packets")
    if first is not None and signature(result) != signature(first):
        problems.append("differs from the first pass under the same seed")
    if job.bar is not None:
        ref = paper_gbps(job.bar)
        if abs(result.gbps - ref) > BAR_REL_BAND * ref:
            problems.append(
                f"{result.gbps:.4f} Gbps is outside {BAR_REL_BAND:.0%} of the "
                f"paper's {ref} Gbps"
            )
        if (job.config.fidelity, job.bar) == ("fabric", ("peak", 1024)) and (
            result.gbps != GOLDEN_PEAK_1024B_GBPS
        ):
            problems.append(
                f"1024 B peak {result.gbps!r} != golden {GOLDEN_PEAK_1024B_GBPS!r}"
            )
    if job.config.fidelity == "space":
        shard = result.extra["space_shard"]
        distributed = job.config.partitions > 1
        if shard["serial_fallback"] == distributed:
            problems.append(f"serial_fallback is {shard['serial_fallback']}")
    return problems


def fig7_1_err_pct(jobs: List[Job], results: List) -> float:
    """Mean |simulated - paper| / paper over the Fig 7-1 bars, in %."""
    errs = [
        abs(r.gbps - paper_gbps(j.bar)) / paper_gbps(j.bar)
        for j, r in zip(jobs, results)
        if j.bar is not None and r is not None
    ]
    return 100.0 * sum(errs) / len(errs) if errs else 0.0


def reference_jobs(jobs: List[Job]) -> Dict[str, Job]:
    """For distributed Clos jobs, the serial job they must equal."""
    return {
        j.label: Job(j.label + "/serial", j.config.replace(partitions=1), j.workload)
        for j in jobs
        if j.config.fidelity == "space" and j.config.partitions > 1
    }
