"""``traffic.build``: the one factory every engine builds sources through.

Every synthetic spec -- the flat-kwarg permutation/uniform/hotspot
workloads included -- realizes as the counter-based
:class:`~repro.traffic.model.SpecModel`, and every trace as
:class:`~repro.traffic.replay.TraceReplay`; the factory only wraps the
model in the engine-specific adapter.  Counter-based draws are what let
every source snapshot/resume and partition across space-engine workers
(`{"kind": "traffic", ...}` in
:class:`~repro.parallel.space_shard.SpaceSpec`), and what makes the
many-worlds engine's world 0 the stock fabric run.
"""

from __future__ import annotations

import json
from typing import Any, Optional, Tuple

from repro.config import CostModel, SimConfig
from repro.traffic.model import SpecModel, TrafficModel
from repro.traffic.replay import TraceReplay
from repro.traffic.spec import (
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


def _model(spec: TrafficSpec, ports: int, seed: int) -> TrafficModel:
    if spec.kind == "replay":
        return TraceReplay(spec.trace, n=ports, loop=spec.loop)
    return SpecModel(spec, n=ports, seed=seed)


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


def fabric_source(spec: TrafficLike, config: SimConfig) -> FabricModelSource:
    """A fabric PortSource for ``spec`` under ``config``."""
    spec = resolve_traffic(spec)
    if spec is None:
        raise ValueError("fabric_source needs a traffic spec")
    _check_hot_port(spec, config.ports)
    return FabricModelSource(
        _model(spec, config.ports, config.seed), config.cost_model()
    )


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
    return fabric_source(spec, config)


# ---------------------------------------------------------------------------
# Router (phase-level) fidelity.
# ---------------------------------------------------------------------------
def router_traffic(spec: TrafficLike, config: SimConfig):
    """(TrafficModel, PacketFactory, offered_load) for the router engine.

    ``offered_load`` is None for saturated specs (attach via
    ``attach_saturated``); otherwise the line-card path paces the
    pattern/size stream at the arrival process's mean load in simulated
    time (``attach_linecards``), since the kernel-process ingress treats
    a None supply as end-of-stream rather than an idle poll.
    """
    import numpy as np

    from repro.traffic.workload import PacketFactory

    spec = resolve_traffic(spec)
    if spec is None:
        raise ValueError("router_traffic needs a traffic spec")
    n = config.ports
    _check_hot_port(spec, n)
    factory = PacketFactory(n, np.random.default_rng(config.seed))
    if spec.kind == "replay" or spec.arrivals.kind == "saturated":
        return _model(spec, n, config.seed), factory, None
    # Paced: strip the arrival gate (line cards pace in simulated time).
    model = SpecModel(spec, n=n, seed=config.seed, gate_arrivals=False)
    return model, factory, spec.arrivals.load


# ---------------------------------------------------------------------------
# Word-level fidelity.
# ---------------------------------------------------------------------------
class WordModelSource:
    """Adapt a (saturated) TrafficModel to the word-level WordSource
    protocol: mint a real IPv4 packet per draw, its destination address
    naming the output port."""

    def __init__(self, model: TrafficModel, max_bytes: int):
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
    return WordModelSource(SpecModel(spec, n=n, seed=config.seed), max_bytes)


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

    fabric -> PortSource, router -> (TrafficModel, factory, offered_load),
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
