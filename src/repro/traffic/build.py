"""``traffic.build``: the one factory every engine builds sources through.

Dispatch rule: the *legacy trio* -- a drift-free
permutation/uniform/hotspot pattern with fixed sizes and saturated
arrivals -- routes to each engine's historical constructor with the
historical RNG and draw order, so pre-existing workloads are
bit-identical through this factory (the compat guarantee
``tests/test_traffic_spec.py`` pins).  Everything else (replay, IMIX,
on-off/MMPP, bursty, hotspot drift, Bernoulli) builds the unified
counter-based :class:`~repro.traffic.model.SpecModel` /
:class:`~repro.traffic.replay.TraceReplay` and wraps it in the
engine-specific adapter.  Counter-based draws are what let the new
sources snapshot/resume and partition across space-engine workers
(`{"kind": "traffic", ...}` in
:class:`~repro.parallel.space_shard.SpaceSpec`).
"""

from __future__ import annotations

import json
from typing import Any, Optional, Tuple

from repro.config import CostModel, SimConfig
from repro.traffic.model import SpecModel, TrafficModel
from repro.traffic.replay import TraceReplay
from repro.traffic.spec import (
    ArrivalSpec,
    TrafficLike,
    TrafficSpec,
    resolve_traffic,
)


def _check_hot_port(spec: TrafficSpec, ports: int) -> None:
    """The engine-build-time range check (port count is not known when
    the spec is constructed)."""
    p = spec.pattern
    if spec.kind == "synthetic" and p.kind == "hotspot" and p.hot_port >= ports:
        raise ValueError(
            f"hot_port {p.hot_port} out of range: the engine has {ports} "
            f"ports (valid hot ports are 0..{ports - 1})"
        )


def _is_legacy(spec: TrafficSpec) -> bool:
    """True when the spec is exactly a thesis-era canned workload."""
    return (
        spec.kind == "synthetic"
        and spec.arrivals.kind == "saturated"
        and spec.sizes.kind == "fixed"
        and spec.pattern.kind in ("permutation", "uniform", "hotspot")
        and not (spec.pattern.kind == "hotspot" and spec.pattern.drift_packets)
    )


def _model(spec: TrafficSpec, ports: int, seed: int,
           gate_arrivals: bool = True, loop: Optional[bool] = None) -> TrafficModel:
    if spec.kind == "replay":
        return TraceReplay(
            spec.trace, n=ports, loop=spec.loop if loop is None else loop
        )
    return SpecModel(spec, n=ports, seed=seed, gate_arrivals=gate_arrivals)


# ---------------------------------------------------------------------------
# Fabric (quantum-level) fidelity.
# ---------------------------------------------------------------------------
class FabricModelSource:
    """Adapt a TrafficModel to the fabric PortSource protocol
    (destination + word count per poll; ``state()``/``restore()`` pass
    through)."""

    def __init__(self, model: TrafficModel, costs: CostModel):
        self.model = model
        self.costs = costs
        self.deterministic = bool(getattr(model, "deterministic", False))

    def __call__(self, port: int) -> Optional[Tuple[int, int]]:
        drawn = self.model.next_packet(port)
        if drawn is None:
            return None
        dest, nbytes = drawn
        return dest, self.costs.bytes_to_words(nbytes)

    def state(self):
        return self.model.state()

    def restore(self, state) -> "FabricModelSource":
        self.model.restore(state)
        return self


def fabric_source(spec: TrafficLike, config: SimConfig,
                  force_counter: bool = False):
    """A fabric PortSource for ``spec`` under ``config``.

    ``force_counter`` builds the counter-based model even for legacy
    workloads -- snapshot/resume and the space engine need
    ``state()``/``restore()`` and per-port draws, which the historical
    shared-RNG sources cannot provide.
    """
    import numpy as np

    from repro.core.fabricsim import (
        saturated_hotspot,
        saturated_permutation,
        saturated_uniform,
    )

    spec = resolve_traffic(spec)
    if spec is None:
        raise ValueError("fabric_source needs a traffic spec")
    n = config.ports
    costs = config.cost_model()
    _check_hot_port(spec, n)
    if _is_legacy(spec) and not force_counter:
        p = spec.pattern
        words = costs.bytes_to_words(spec.sizes.bytes)
        if p.kind == "permutation":
            return saturated_permutation(words, shift=p.shift, n=n)
        rng = np.random.default_rng(config.seed)
        if p.kind == "uniform":
            return saturated_uniform(
                words, rng, n=n, exclude_self=p.exclude_self
            )
        return saturated_hotspot(
            words, rng, hot=p.hot_port, p_hot=p.p_hot, n=n
        )
    return FabricModelSource(_model(spec, n, config.seed), costs)


def shard_source(spec: TrafficLike, seed: int = 0) -> dict:
    """The ``SpaceSpec.source`` dict for a traffic spec (counter-based,
    so state/restore and per-port draws apply to every kind)."""
    resolved = resolve_traffic(spec)
    if resolved is None:
        raise ValueError("shard_source needs a traffic spec")
    return {"kind": "traffic", "json": resolved.to_json(), "seed": seed}


def fabric_source_for_shard(source_dict: dict, ports: int,
                            costs: CostModel) -> FabricModelSource:
    """Build the source for a ``{"kind": "traffic", ...}`` source dict
    (see :func:`shard_source`)."""
    if "json" in source_dict:
        spec = TrafficSpec.from_dict(json.loads(source_dict["json"]))
    elif "spec" in source_dict:
        spec = resolve_traffic(source_dict["spec"])
    else:
        raise ValueError("traffic shard source needs a 'json' or 'spec' entry")
    seed = int(source_dict.get("seed", 0))
    config = SimConfig(ports=ports, costs=costs, seed=seed)
    src = fabric_source(spec, config, force_counter=True)
    assert isinstance(src, FabricModelSource)
    return src


# ---------------------------------------------------------------------------
# Router (phase-level) fidelity.
# ---------------------------------------------------------------------------
def router_traffic(spec: TrafficLike, config: SimConfig):
    """(workload-like, PacketFactory, offered_load) for the router engine.

    ``offered_load`` is None for saturated specs (attach via
    ``attach_saturated``); otherwise the line-card path paces the
    pattern/size stream at the arrival process's mean load in simulated
    time (``attach_linecards``), since the kernel-process ingress treats
    a None supply as end-of-stream rather than an idle poll.
    """
    import numpy as np

    from repro.traffic.arrivals import Saturated
    from repro.traffic.patterns import (
        FixedPermutation,
        HotspotDestinations,
        UniformDestinations,
    )
    from repro.traffic.sizes import FixedSize
    from repro.traffic.workload import PacketFactory, Workload

    spec = resolve_traffic(spec)
    if spec is None:
        raise ValueError("router_traffic needs a traffic spec")
    n = config.ports
    _check_hot_port(spec, n)
    rng = np.random.default_rng(config.seed)
    factory = PacketFactory(n, rng)
    if spec.kind == "replay":
        return TraceReplay(spec.trace, n=n, loop=spec.loop), factory, None
    if _is_legacy(spec):
        p = spec.pattern
        if p.kind == "permutation":
            pattern = FixedPermutation.shift(n, p.shift)
        elif p.kind == "uniform":
            pattern = UniformDestinations(n, rng, exclude_self=p.exclude_self)
        else:
            pattern = HotspotDestinations(n, rng, hot=p.hot_port, p_hot=p.p_hot)
        workload = Workload(pattern, FixedSize(spec.sizes.bytes), Saturated())
        return workload, factory, None
    if spec.arrivals.kind == "saturated":
        return SpecModel(spec, n=n, seed=config.seed), factory, None
    # Paced: strip the arrival gate (line cards pace in simulated time).
    model = SpecModel(spec, n=n, seed=config.seed, gate_arrivals=False)
    return model, factory, spec.arrivals.load


# ---------------------------------------------------------------------------
# Word-level fidelity.
# ---------------------------------------------------------------------------
class WordModelSource:
    """Adapt a (saturated) TrafficModel to the word-level WordSource
    protocol: mint real IPv4 packets the way the historical closures do."""

    def __init__(self, model: TrafficModel, max_bytes: int):
        from repro.ip.packet import IPv4Packet  # noqa: F401  (import check)

        self.model = model
        self.max_bytes = max_bytes
        self._count = 0

    def __call__(self, port: int):
        from repro.ip.packet import IPv4Packet

        drawn = self.model.next_packet(port)
        if drawn is None:
            raise RuntimeError(
                "word-level source ran dry: the word-level model needs a "
                "saturated traffic model (loop replay traces)"
            )
        dest, nbytes = drawn
        self._count += 1
        pkt = IPv4Packet.synthesize(
            src=(10 << 24) | port,
            dst=(dest << 30) | self._count % (1 << 24),
            size_bytes=nbytes,
            ident=self._count,
        )
        return dest, pkt


def wordlevel_source(spec: TrafficLike, config: SimConfig):
    """A word-level WordSource for ``spec`` (4 ports, saturated,
    single-quantum packets -- the model's standing restrictions)."""
    import numpy as np

    from repro.router.wordlevel import permutation_source, uniform_source

    spec = resolve_traffic(spec)
    if spec is None:
        raise ValueError("wordlevel_source needs a traffic spec")
    n = config.ports
    costs = config.cost_model()
    _check_hot_port(spec, n)
    max_bytes = costs.max_quantum_words * costs.word_bytes
    if spec.kind == "replay":
        # Saturated-only engine: loop the trace so it never runs dry.
        model = TraceReplay(spec.trace, n=n, loop=True)
        return WordModelSource(model, max_bytes)
    if spec.arrivals.kind != "saturated":
        raise ValueError(
            "the word-level engine is saturated-only; arrival processes "
            "apply at fabric/router fidelity"
        )
    if spec.sizes.max_bytes() > max_bytes:
        raise ValueError(
            f"word-level packets are single-quantum: size distribution "
            f"reaches {spec.sizes.max_bytes()}B > {max_bytes}B"
        )
    if _is_legacy(spec):
        p = spec.pattern
        if p.kind == "permutation":
            return permutation_source(spec.sizes.bytes, shift=p.shift)
        if p.kind == "uniform":
            return uniform_source(
                spec.sizes.bytes,
                np.random.default_rng(config.seed),
                exclude_self=p.exclude_self,
            )
        # Legacy hotspot historically raised on this engine; it now runs
        # through the unified model below.
    model = SpecModel(spec, n=n, seed=config.seed)
    return WordModelSource(model, max_bytes)


# ---------------------------------------------------------------------------
# Baselines (cell switches / backplanes).
# ---------------------------------------------------------------------------
def slot_arrivals(n: int, rng=None, seed: Optional[int] = None):
    """Per-slot iid arrivals for the cell-switch baselines.

    With ``rng`` this preserves the historical shared-generator draw
    order (the chapter-2 experiments are seeded on it); with ``seed``
    it returns the counter-based, shard-safe variant.
    """
    from repro.traffic.arrivals import CounterSlotArrivals, IIDSlotArrivals

    if rng is not None:
        return IIDSlotArrivals(n, rng)
    return CounterSlotArrivals(n, seed=seed or 0)


def size_distribution(sizes: Any, rng=None):
    """Normalize a SizeDistribution | SizeSpec | spec dict to a
    SizeDistribution (the backplane baselines' constructor contract)."""
    import numpy as np

    from repro.traffic.sizes import (
        BimodalSizes,
        FixedSize,
        IMix,
        SizeDistribution,
        UniformSizes,
    )
    from repro.traffic.spec import SizeSpec

    if isinstance(sizes, SizeDistribution):
        return sizes
    if isinstance(sizes, dict):
        sizes = SizeSpec(**sizes)
    if not isinstance(sizes, SizeSpec):
        raise TypeError(
            f"cannot build a size distribution from {type(sizes).__name__}"
        )
    rng = rng if rng is not None else np.random.default_rng(0)
    if sizes.kind == "fixed":
        return FixedSize(sizes.bytes)
    if sizes.kind == "imix":
        return IMix(rng)
    if sizes.kind == "uniform":
        return UniformSizes(rng, sizes.lo, sizes.hi)
    return BimodalSizes(rng, sizes.small, sizes.large, p_small=sizes.p_small)


# ---------------------------------------------------------------------------
# The one entry point.
# ---------------------------------------------------------------------------
def build(spec: TrafficLike, config: SimConfig, fidelity: Optional[str] = None):
    """Build the source object for ``config``'s (or ``fidelity``'s) engine.

    fabric -> PortSource, router -> (workload, factory, offered_load),
    wordlevel -> WordSource.
    """
    fidelity = fidelity or config.fidelity
    if fidelity == "fabric":
        return fabric_source(spec, config)
    if fidelity == "router":
        return router_traffic(spec, config)
    if fidelity == "wordlevel":
        return wordlevel_source(spec, config)
    raise ValueError(f"unknown fidelity {fidelity!r}")
