"""One interface over the three simulation engines.

The repository evaluates the thesis's cost model at three fidelities:

* ``fabric`` -- the quantum-level loop (:mod:`repro.core.fabricsim`):
  no kernel processes, fastest, used by throughput/fairness sweeps;
* ``router`` -- the phase-level pipelined router
  (:mod:`repro.router.router`): ingress/lookup/egress stages as kernel
  processes, per-packet latency;
* ``wordlevel`` -- the word-level chip model
  (:mod:`repro.router.wordlevel`): every word crosses the simulated
  static network, per-cycle truth.

Historically each exposed a different constructor and result type, so
comparing fidelities or sweeping configurations meant bespoke glue per
engine.  This module gives all three the same shape: build from a
:class:`~repro.config.SimConfig`, feed a declarative
:class:`WorkloadSpec`, get back a :class:`RunResult` with a shared
schema (throughput, latency percentiles, per-port counters, trace
handle).  ``run_config(config, workload)`` is the one-call entry point
the sweep runner (:mod:`repro.sweep`) fans across processes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Protocol, runtime_checkable

from repro.config import CostModel, SimConfig

#: Traffic pattern names understood by every engine (the deprecated
#: flat-kwargs surface; the ``traffic=`` spec supersedes it).
PATTERNS = ("permutation", "uniform", "hotspot")

#: Schema tag on :meth:`WorkloadSpec.to_dict`; bump on breaking changes.
WORKLOAD_SCHEMA = "repro-workload/1"


@dataclass(frozen=True)
class WorkloadSpec:
    """A declarative, picklable workload description.

    ``traffic`` is the workload proper: a
    :class:`~repro.traffic.spec.TrafficSpec` (or anything
    :func:`~repro.traffic.spec.resolve_traffic` accepts -- a spec dict,
    a preset name like ``"imix_onoff"``, a ``.json`` spec path, or a
    ``.csv``/``.jsonl`` trace path).  The flat ``pattern`` / ``shift``
    / ``hot_port`` / ``p_hot`` / ``packet_bytes`` kwargs are the
    deprecated compat shim: when ``traffic`` is None they map onto the
    equivalent spec via :meth:`effective_traffic`, bit-identical to the
    historical engines.  The budget fields are interpreted by fidelity:
    ``quanta`` bounds the fabric engine, ``packets`` the phase-level
    router (defaults to ``quanta`` deliveries), ``cycles`` the
    word-level model.  ``None`` warmups pick each engine's historical
    default so results stay comparable with the seed's experiment
    harness.
    """

    pattern: str = "permutation"
    packet_bytes: int = 1024
    shift: int = 2  #: permutation: port i -> (i + shift) mod N
    exclude_self: bool = True  #: uniform: redraw self-destinations
    hot_port: int = 0
    p_hot: float = 0.7
    quanta: int = 2000
    warmup_quanta: Optional[int] = None  #: default max(50, quanta // 20)
    packets: Optional[int] = None
    cycles: int = 120_000
    warmup_cycles: int = 20_000
    #: Optional :mod:`repro.faults` chaos schedule: a
    #: :class:`~repro.faults.plan.FaultPlan`, its dict form, or a JSON
    #: path.  None / an empty plan keeps every engine on its fault-free
    #: fast path (bit-for-bit identical to the field not existing).
    fault_plan: Any = None
    #: The declarative workload (see class docstring); overrides the
    #: flat pattern kwargs when set.
    traffic: Any = None

    def __post_init__(self):
        if self.pattern not in PATTERNS:
            raise ValueError(
                f"unknown pattern {self.pattern!r}; expected one of {PATTERNS}"
            )
        if self.packet_bytes < 24:
            raise ValueError("packet must at least hold an IPv4 header + word")
        if not 0.0 <= self.p_hot <= 1.0:
            raise ValueError(f"p_hot must be in [0, 1], got {self.p_hot}")
        if self.shift < 0:
            raise ValueError(f"shift must be >= 0, got {self.shift}")
        if self.hot_port < 0:
            # The upper bound depends on the engine's port count, which
            # is unknown here; traffic.build range-checks it at build time.
            raise ValueError(f"hot_port must be >= 0, got {self.hot_port}")
        # Budgets: an unrunnable one must fail here, not return a silent
        # zero-throughput result from an engine.
        if self.quanta < 1:
            raise ValueError(f"quanta must be >= 1, got {self.quanta}")
        if self.warmup_quanta is not None and self.warmup_quanta < 0:
            raise ValueError(
                f"warmup_quanta must be >= 0, got {self.warmup_quanta}"
            )
        if self.packets is not None and self.packets < 1:
            raise ValueError(f"packets must be >= 1, got {self.packets}")
        if self.cycles < 1:
            raise ValueError(f"cycles must be >= 1, got {self.cycles}")
        if self.warmup_cycles < 0:
            raise ValueError(
                f"warmup_cycles must be >= 0, got {self.warmup_cycles}"
            )

    def replace(self, **changes: Any) -> "WorkloadSpec":
        return dataclasses.replace(self, **changes)

    def effective_traffic(self):
        """The workload as a TrafficSpec: ``traffic`` if set, else the
        deprecated flat kwargs mapped onto the equivalent spec."""
        from repro.traffic.spec import resolve_traffic, spec_from_legacy

        if self.traffic is not None:
            return resolve_traffic(self.traffic)
        return spec_from_legacy(
            pattern=self.pattern,
            packet_bytes=self.packet_bytes,
            shift=self.shift,
            exclude_self=self.exclude_self,
            hot_port=self.hot_port,
            p_hot=self.p_hot,
        )

    def to_dict(self) -> Dict[str, Any]:
        d = dataclasses.asdict(self)
        d["schema"] = WORKLOAD_SCHEMA
        if hasattr(self.fault_plan, "to_dict"):
            # Canonical schema-tagged form, so workload dicts round-trip
            # through resolve_plan().
            d["fault_plan"] = self.fault_plan.to_dict()
        if hasattr(self.traffic, "to_dict"):
            # Same for traffic specs and resolve_traffic().
            d["traffic"] = self.traffic.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "WorkloadSpec":
        """Round-trip a :meth:`to_dict` form (schema-checked).

        Nested ``fault_plan`` / ``traffic`` dicts ride through as-is --
        ``resolve_plan()`` / ``resolve_traffic()`` normalize them at
        engine build time."""
        d = dict(d)
        schema = d.pop("schema", WORKLOAD_SCHEMA)
        if schema != WORKLOAD_SCHEMA:
            raise ValueError(
                f"workload schema is {schema!r}, expected {WORKLOAD_SCHEMA!r}"
            )
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown workload fields: {sorted(unknown)}")
        return cls(**d)


@dataclass
class RunResult:
    """What any engine run measured, in one schema.

    ``latency`` is empty for engines that do not track per-packet
    latency (the fabric loop has no notion of a packet's arrival time);
    ``trace`` is a live :class:`~repro.sim.trace.Trace` handle when the
    run was traced, and is dropped by :meth:`to_dict` so results stay
    JSON- and pickle-friendly.
    """

    fidelity: str
    cycles: int
    delivered_packets: int
    delivered_words: int
    gbps: float
    mpps: float
    per_port_packets: List[int]
    latency: Dict[str, float] = field(default_factory=dict)
    config: Optional[SimConfig] = None
    workload: Optional[WorkloadSpec] = None
    trace: Any = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fidelity": self.fidelity,
            "cycles": self.cycles,
            "delivered_packets": self.delivered_packets,
            "delivered_words": self.delivered_words,
            "gbps": self.gbps,
            "mpps": self.mpps,
            "per_port_packets": list(self.per_port_packets),
            "latency": dict(self.latency),
            "config": self.config.to_dict() if self.config else None,
            "workload": self.workload.to_dict() if self.workload else None,
            "extra": dict(self.extra),
        }


@runtime_checkable
class Engine(Protocol):
    """The common engine contract: configure, then run workloads."""

    fidelity: str

    def configure(self, config: SimConfig) -> "Engine":
        """Bind a configuration; returns self for chaining."""
        ...

    def run(self, workload: WorkloadSpec) -> RunResult:
        """Simulate ``workload`` under the bound configuration."""
        ...


def _install_port_classes(workload: "WorkloadSpec", ports: int) -> None:
    """Thread ``TrafficSpec.classes`` into an active telemetry recorder
    so completed journeys also bucket under their traffic class."""
    from repro.telemetry import runtime as _telemetry

    tel = _telemetry.RECORDER
    if tel is None:
        return
    from repro.traffic.spec import resolve_traffic

    spec = resolve_traffic(workload.effective_traffic())
    if spec is not None and spec.classes:
        tel.journeys.set_port_classes(spec.port_class_labels(ports))


class _BaseEngine:
    fidelity = "?"

    def __init__(self, config: Optional[SimConfig] = None):
        self.config = config or SimConfig()

    def configure(self, config: SimConfig) -> "_BaseEngine":
        self.config = config
        return self

    # ------------------------------------------------------------------
    def _rng(self):
        import numpy as np

        return np.random.default_rng(self.config.seed)


class FabricEngine(_BaseEngine):
    """Quantum-level fidelity: :class:`~repro.core.fabricsim.FabricSimulator`."""

    fidelity = "fabric"

    #: Build counter-based models even for legacy specs.  The many-worlds
    #: scalar reference path (:mod:`repro.parallel.manyworlds`) flips this
    #: on: only counter-based draws vectorize, so its per-world scalar
    #: runs must consume the same streams the vectorized engine does.
    force_counter = False

    def _source(self, workload: WorkloadSpec):
        from repro.traffic.build import fabric_source

        return fabric_source(
            workload.effective_traffic(), self.config,
            force_counter=self.force_counter,
        )

    def run(self, workload: WorkloadSpec) -> RunResult:
        from repro.core.fabricsim import FabricSimulator
        from repro.core.ring import RingGeometry

        costs = self.config.cost_model()
        ring = RingGeometry(self.config.ports)
        from repro.core.allocator import Allocator

        allocator = Allocator(
            ring,
            networks=self.config.networks,
            cache_size=self.config.alloc_cache,
        )
        sim = FabricSimulator(
            ring=ring,
            allocator=allocator,
            pipelined=self.config.pipelined,
            costs=costs,
            fast_forward=self.config.fast_forward,
        )
        faults = sim.install_faults(workload.fault_plan)
        _install_port_classes(workload, self.config.ports)
        warmup = (
            workload.warmup_quanta
            if workload.warmup_quanta is not None
            else max(50, workload.quanta // 20)
        )
        stats = sim.run(
            self._source(workload),
            quanta=workload.quanta,
            warmup_quanta=warmup,
        )
        extra = {
            "quanta": stats.quanta,
            "idle_quanta": stats.idle_quanta,
            "blocked_events": stats.blocked_events,
            "mean_grants_per_quantum": stats.mean_grants_per_quantum,
        }
        if allocator.cache_enabled or self.config.fast_forward:
            info = allocator.cache_info() if allocator.cache_enabled else {}
            extra["fabric_fast_path"] = {
                "cache_hits": info.get("hits", 0),
                "cache_misses": info.get("misses", 0),
                "cache_hit_rate": info.get("hit_rate", 0.0),
                "ff_quanta": sim.ff_quanta,
            }
        if faults is not None:
            extra["resilience"] = faults.metrics.to_dict()
        return RunResult(
            fidelity=self.fidelity,
            cycles=stats.cycles,
            delivered_packets=stats.delivered_packets,
            delivered_words=stats.delivered_words,
            gbps=stats.gbps,
            mpps=stats.mpps,
            per_port_packets=list(stats.per_port_packets),
            latency={},  # the fabric loop does not track per-packet latency
            config=self.config,
            workload=workload,
            extra=extra,
        )


class SpaceEngine(_BaseEngine):
    """Multi-chip fidelity: a Clos of k-port crossbar chips run as
    space partitions (:mod:`repro.parallel.space_shard`).

    ``config.ports`` must be a perfect square ``k*k`` (the Clos wants
    ``3k`` chips of ``k`` ports); ``config.partitions`` workers advance
    ``config.link_latency``-quantum token windows.  A reusable warm
    :class:`~repro.parallel.space_shard.SpaceWorkerPool` can be bound
    via :attr:`pool` to amortize process setup across runs.
    """

    fidelity = "space"

    def __init__(self, config: Optional[SimConfig] = None):
        super().__init__(config)
        self.pool = None  #: optional warm SpaceWorkerPool
        #: Optional ``(part_id, state)`` callback receiving live worker
        #: telemetry snaps during distributed runs (``repro top`` wires
        #: its collector here).
        self.on_snapshot = None

    def _spec(self, workload: WorkloadSpec):
        import math

        from repro.core.spacetopo import build_topology
        from repro.faults.plan import resolve_plan
        from repro.parallel.space_shard import SpaceSpec, auto_partitions
        from repro.traffic.build import shard_source

        ports = self.config.ports
        k = math.isqrt(ports)
        if k * k != ports or k < 2:
            raise ValueError(
                f"space fidelity needs a square port count (k*k), got {ports}"
            )
        if self.config.networks != 1:
            raise ValueError(
                f"space fidelity models one static network per chip, got "
                f"networks={self.config.networks} (the second-network "
                "ablation runs on fidelity='fabric')"
            )
        partitions = self.config.partitions
        if partitions == 0:
            # Adaptive: as many workers as the Clos's middle stage (= k
            # chips per block boundary cut) and the box's cores allow.
            partitions = auto_partitions(
                build_topology("clos", k, latency=self.config.link_latency)
            )
        source = shard_source(workload.effective_traffic(), seed=self.config.seed)
        warmup = (
            workload.warmup_quanta
            if workload.warmup_quanta is not None
            else max(50, workload.quanta // 20)
        )
        return SpaceSpec(
            k=k,
            latency=self.config.link_latency,
            partitions=partitions,
            costs=self.config.cost_model(),
            source=SpaceSpec.pack_source(source),
            quanta=workload.quanta,
            warmup_quanta=warmup,
            fault_plan=resolve_plan(workload.fault_plan),
        )

    def _check_fault_plan(self, spec) -> None:
        """Accept fault plans the space fabric can realize exactly:
        ``link_down`` events on channels that stay inside one partition.
        Boundary-channel faults are refused loudly -- a deferred arrival
        there would interact with the token-window framing that the
        stall/coalescing accounting assumes fault-free."""
        from repro.core.spacetopo import link_fault_windows

        if spec.fault_plan is None:
            return
        topo = spec.topology()
        windows = link_fault_windows(spec.fault_plan, len(topo.channels))
        boundary = {
            ch.cid
            for ch in topo.boundary_channels(topo.partition(spec.partitions))
        }
        bad = sorted(set(windows) & boundary)
        if bad:
            raise ValueError(
                f"fault plan targets cross-partition channel(s) {bad} at "
                f"partitions={spec.partitions}; the space engine only "
                "realizes faults on intra-partition links (lower "
                "--partitions or move the fault)"
            )

    def run(self, workload: WorkloadSpec) -> RunResult:
        from repro.parallel.space_shard import run_space

        spec = self._spec(workload)
        self._check_fault_plan(spec)
        _install_port_classes(workload, self.config.ports)
        stats, info = run_space(spec, pool=self.pool,
                                on_snapshot=self.on_snapshot,
                                transport=self.config.transport)
        info.partitions_auto = self.config.partitions == 0
        return RunResult(
            fidelity=self.fidelity,
            cycles=stats.cycles,
            delivered_packets=stats.delivered_packets,
            delivered_words=stats.delivered_words,
            gbps=stats.gbps,
            mpps=stats.mpps,
            per_port_packets=list(stats.per_port_packets),
            latency={},  # quantum-level loop; no per-packet latency
            config=self.config,
            workload=workload,
            extra={
                "quanta": stats.quanta,
                "idle_quanta": stats.idle_quanta,
                "blocked_events": stats.blocked_events,
                "space_shard": info.extra_dict(),
            },
        )


class RouterEngine(_BaseEngine):
    """Phase-level fidelity: the full pipelined :class:`RawRouter`."""

    fidelity = "router"
    warmup_cycles = 30_000

    def run(self, workload: WorkloadSpec) -> RunResult:
        from repro.router.router import RawRouter
        from repro.traffic.build import router_traffic

        router = RawRouter.from_config(self.config, warmup_cycles=self.warmup_cycles)
        router.install_faults(workload.fault_plan)
        _install_port_classes(workload, self.config.ports)
        spec = workload.effective_traffic()
        traffic, factory, offered_load = router_traffic(spec, self.config)
        target = workload.packets if workload.packets is not None else workload.quanta
        if offered_load is None:
            router.attach_saturated(traffic, factory)
        else:
            # Non-saturated arrivals: the kernel-process ingress treats a
            # None supply as end-of-stream, so sub-line-rate specs run
            # through the paced line-card sources at the process's mean
            # offered load instead of per-poll gating.  Deliveries inside
            # the warmup window are not measured, so each line card's
            # packet budget must cover the warmup burn plus its share of
            # the target (with slack for pacing jitter).
            costs = self.config.cost_model()
            mean_words = max(1, costs.bytes_to_words(int(spec.sizes.mean_bytes())))
            warmup_burn = int(self.warmup_cycles * offered_load / mean_words) + 1
            share = -(-target // self.config.ports)
            router.attach_linecards(
                traffic,
                factory,
                offered_load=offered_load,
                rng=self._rng(),
                packets_per_port=warmup_burn + share + max(8, share // 4),
            )
        result = router.run(target_packets=target)
        stats = router.stats
        bits = sum(stats.per_port_bits)
        extra = {
            "quanta": stats.quanta,
            "idle_quanta": stats.idle_quanta,
            "line_drops": stats.line_drops,
            "checksum_drops": stats.checksum_drops,
            "ttl_drops": stats.ttl_drops,
            "kernel_events": router.sim.events_processed,
        }
        if router.faults_on:
            extra["drops"] = stats.drop_taxonomy()
            extra["resilience"] = router.resilience.to_dict()
        return RunResult(
            fidelity=self.fidelity,
            cycles=result.cycles,
            delivered_packets=stats.delivered_packets,
            delivered_words=bits // costs_word_bits(router.costs),
            gbps=result.gbps,
            mpps=result.mpps,
            per_port_packets=list(stats.per_port_delivered),
            latency=stats.latency.summary(clock_hz=router.costs.clock_hz),
            config=self.config,
            workload=workload,
            extra=extra,
        )


class WordLevelEngine(_BaseEngine):
    """Word-level fidelity: every word crosses the simulated network.

    Restricted (like the underlying model) to the prototype's 4-port
    layout and single-quantum packets; two orders of magnitude slower
    than the other engines, so budgets are in cycles.
    """

    fidelity = "wordlevel"

    def run(self, workload: WorkloadSpec) -> RunResult:
        from repro.router.wordlevel import WordLevelRouter
        from repro.traffic.build import wordlevel_source

        if self.config.ports != 4:
            raise ValueError("the word-level model is fixed at 4 ports")
        costs = self.config.cost_model()
        _install_port_classes(workload, self.config.ports)
        source = wordlevel_source(workload.effective_traffic(), self.config)
        router = WordLevelRouter(source, costs=costs, faults=workload.fault_plan)
        res = router.run(
            until_cycles=workload.cycles, warmup_cycles=workload.warmup_cycles
        )
        extra = {
            "payload_errors": router.payload_errors,
            "kernel_events": router.chip.sim.events_processed,
        }
        if router.resilience is not None:
            extra["corrupt_drops"] = router.corrupt_drops
            extra["resilience"] = router.resilience.to_dict()
        return RunResult(
            fidelity=self.fidelity,
            cycles=res.cycles,
            delivered_packets=res.delivered_packets,
            delivered_words=res.delivered_words,
            gbps=res.gbps,
            mpps=res.mpps,
            per_port_packets=list(res.per_port_packets),
            latency={},
            config=self.config,
            workload=workload,
            trace=res.trace,
            extra=extra,
        )


def costs_word_bits(costs: CostModel) -> int:
    return costs.word_bits


ENGINES = {
    FabricEngine.fidelity: FabricEngine,
    SpaceEngine.fidelity: SpaceEngine,
    RouterEngine.fidelity: RouterEngine,
    WordLevelEngine.fidelity: WordLevelEngine,
}


def make_engine(config: SimConfig) -> Engine:
    """An engine of ``config.fidelity``, already configured."""
    try:
        cls = ENGINES[config.fidelity]
    except KeyError:
        raise ValueError(
            f"unknown fidelity {config.fidelity!r}; expected one of {tuple(ENGINES)}"
        ) from None
    return cls(config)


def run_config(config: SimConfig, workload: WorkloadSpec) -> RunResult:
    """Build the right engine for ``config`` and run ``workload``.

    This is the top-level function the sweep runner dispatches to
    ``multiprocessing`` workers (both arguments and the result pickle)."""
    return make_engine(config).run(workload)
