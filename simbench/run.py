"""Simulator benchmark: host throughput of the public entry point.

Usage, from the repository root::

    python3 simbench/run.py --workload clos256_serial --seed 1 --seconds 25 --trace 0

One client runs its workload's job list (one *pass*) through
``repro.engines.run_config`` over and over in a closed loop until
``--seconds`` have passed, checks every job's outputs, and prints a
summary followed, as the last line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics from the
spans the traced passes record (see ``spans.py``).  Each run also writes
its full record, host fingerprint included, under ``.simbench_out/``.
See ``README.md`` in this directory for the workloads and metrics.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # the process's set-up clock starts here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Any, Dict, List  # noqa: E402

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".simbench_out")

#: Every module a job imports lazily; set-up imports them up front.
PROGRAM_MODULES = (
    "repro.config",
    "repro.engines",
    "repro.traffic.build",
    "repro.core.allocator",
    "repro.core.fabricsim",
    "repro.core.spacetopo",
    "repro.parallel.space_shard",
    "repro.router.router",
    "repro.sim.kernel",
    "repro.experiments.paperdata",
)
#: Fresh processes that repeat set-up, beside this one (median of all).
SETUP_CHILDREN = 2
#: Raw spans kept in the trace file (the per-name table has them all).
SPAN_FILE_CAP = 50_000


def setup(workload: str, seed: int) -> List[workloads.Job]:
    """Import the program, build and validate the job list."""
    import importlib

    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise ImportError(f"no program source under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    jobs = workloads.build_jobs(workload, seed)
    for job in jobs:
        job.workload.effective_traffic()
    return jobs


def setup_in_child(args) -> float:
    """Set-up seconds of one fresh interpreter running this script."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


@dataclass
class JobRecord:
    job: workloads.Job
    result: Any  #: RunResult, or None when the job raised
    wall_s: float
    cpu_s: float
    merged: Any = None  #: the space engine's merged FabricStats
    error: str = ""


@contextlib.contextmanager
def capture_merged_stats(sink: list):
    """Keep every FabricStats the space engine merges (it carries the
    per-port words that ``RunResult`` drops)."""
    from repro.parallel import space_shard

    orig = space_shard.merge_part_stats

    def capture(*args, **kwargs):
        stats = orig(*args, **kwargs)
        sink.append(stats)
        return stats

    space_shard.merge_part_stats = capture
    try:
        yield
    finally:
        space_shard.merge_part_stats = orig


@contextlib.contextmanager
def watch_allocators(sink: list):
    """Collect every Allocator built in this process."""
    from repro.core.allocator import Allocator

    orig = Allocator.__init__

    def init(self, *args, **kwargs):
        orig(self, *args, **kwargs)
        sink.append(self)

    Allocator.__init__ = init
    try:
        yield
    finally:
        Allocator.__init__ = orig


def _cpu_now() -> float:
    """User+sys CPU seconds of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_job(job: workloads.Job, merged_sink: list) -> JobRecord:
    from repro.engines import run_config

    merged_sink.clear()
    cpu0, t0 = _cpu_now(), time.perf_counter()
    try:
        result, error = run_config(job.config, job.workload), ""
    except Exception:  # a failed job is counted, not fatal
        result, error = None, traceback.format_exc()
    wall = time.perf_counter() - t0
    cpu = _cpu_now() - cpu0
    return JobRecord(job, result, wall, cpu,
                     merged_sink[-1] if merged_sink else None, error)


def run_pass(jobs, merged_sink) -> List[JobRecord]:
    return [run_job(job, merged_sink) for job in jobs]


def pass_rate(records: List[JobRecord]) -> float:
    pkts = sum(r.result.delivered_packets for r in records if r.result is not None)
    return pkts / sum(r.wall_s for r in records)


def count_failures(passes: List[List[JobRecord]], references: Dict[str, Any]):
    """(attempted, failed, problems): each job is checked on its own,
    against the first pass, and (distributed jobs) against its serial
    reference's merged counters."""
    attempted = failed = 0
    problems: List[str] = []
    first: Dict[str, Any] = {}
    for records in passes:
        for rec in records:
            attempted += 1
            label = rec.job.label
            if rec.result is None:
                why = [rec.error.strip().splitlines()[-1]]
            else:
                why = workloads.check_job(rec.job, rec.result, first.get(label))
                first.setdefault(label, rec.result)
            if label in references and rec.result is not None:
                ref = references[label]
                if ref is None or rec.merged is None:
                    why.append("no serial reference to compare against")
                elif workloads.space_signature(rec.merged) != workloads.space_signature(ref):
                    why.append("merged counters differ from the serial path")
            if why:
                failed += 1
                problems.extend(f"{label}: {w}" for w in why)
    return attempted, failed, problems


def fingerprint() -> Dict[str, Any]:
    import numpy

    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0:
                commit = head.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def traced_pass(jobs, merged_sink, tracer: spans.Tracer):
    """One pass with every layer wrapper installed: (records, the span
    table, the per-layer metrics)."""
    allocators: list = []
    tracer.clear()
    with watch_allocators(allocators):
        restore = spans.install(tracer)
        try:
            records = run_pass(jobs, merged_sink)
        finally:
            restore()
    table = spans.summarize(tracer)
    cache = {
        "hits": sum(a.cache_hits for a in allocators),
        "misses": sum(a.cache_misses for a in allocators),
    }
    metrics = layers.layer_metrics(
        table, [r.result for r in records], sum(r.wall_s for r in records), cache
    )
    return records, table, metrics


def measure(args, jobs) -> Dict[str, Any]:
    """The timed closed loop (plus traced passes under ``--trace 1``)."""
    merged: list = []
    run: Dict[str, Any] = {
        "untraced": [], "traced": [], "layer_samples": [], "trace_tables": [],
        "spans": None,
    }
    tracer = spans.Tracer()
    with capture_merged_stats(merged):
        start = time.perf_counter()
        while True:
            run["untraced"].append(run_pass(jobs, merged))
            if args.trace:
                records, table, metrics = traced_pass(jobs, merged, tracer)
                run["traced"].append(records)
                run["layer_samples"].append(metrics)
                run["trace_tables"].append({k: v._asdict() for k, v in table.items()})
                if run["spans"] is None:
                    run["spans"] = tracer.spans()[:SPAN_FILE_CAP]
            if time.perf_counter() - start >= args.seconds:
                break
        run["references"] = {}
        for label, ref_job in workloads.reference_jobs(jobs).items():
            rec = run_job(ref_job, merged)
            run["references"][label] = rec.merged if rec.result is not None else None
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help=f"workload seed (default {workloads.DEFAULT_SEED}; "
                             f"held out from tuning: {workloads.HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only time set-up and print it (used internally)")
    args = parser.parse_args(argv)

    try:
        jobs = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"simbench: cannot import the simulator: {exc}", file=sys.stderr)
        return 2
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    load_start = os.getloadavg()
    run = measure(args, jobs)
    passes = run["untraced"] + run["traced"]
    attempted, failed, problems = count_failures(passes, run["references"])
    setup_samples = [setup_s] + [setup_in_child(args) for _ in range(SETUP_CHILDREN)]

    first = run["untraced"][0]
    err_pct = (
        workloads.fig7_1_err_pct(jobs, [r.result for r in first])
        if any(j.bar for j in jobs) else 0.0
    )
    rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    e2e = {
        "sim_pkts_per_s": statistics.median([pass_rate(p) for p in run["untraced"]]),
        "cpu_s": statistics.median([sum(r.cpu_s for r in p) for p in run["untraced"]]),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": rss_kib / 1024.0,
    }
    summary = dict(e2e)
    summary["fig7_1_err_pct"] = err_pct
    summary["failed_frac"] = failed / attempted
    if args.trace:
        per_layer = {
            name: statistics.median([s[name] for s in run["layer_samples"]])
            for name in run["layer_samples"][0]
        }
        per_layer["fig7_1_err_pct"] = err_pct
        untraced_wall = statistics.median([sum(r.wall_s for r in p) for p in run["untraced"]])
        traced_wall = statistics.median([sum(r.wall_s for r in p) for p in run["traced"]])
        per_layer["trace.overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0)
        summary.update(per_layer)
        reported = per_layer
    else:
        reported = e2e

    host = fingerprint()
    host["loadavg_start"] = list(load_start)
    host["loadavg_end"] = list(os.getloadavg())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "passes": len(run["untraced"]),
        "pass_rates": [pass_rate(p) for p in run["untraced"]],
        "setup_samples": setup_samples,
        "metrics": summary,
        "problems": problems,
    }
    if args.trace:
        record["trace_tables"] = run["trace_tables"]
        record["spans_first_pass"] = run["spans"]
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(record, fh)

    for problem in problems[:20]:
        print(f"FAILED {problem}")
    print(f"# {args.workload} seed={args.seed} passes={len(run['untraced'])} "
          f"traced={len(run['traced'])} attempted={attempted} failed={failed}")
    print("# host " + json.dumps(host, sort_keys=True))
    for name, value in summary.items():
        unit = layers.UNITS.get(name, "ratio")
        print(f"{name:32s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": layers.UNITS[name]}
            for name, value in reported.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
