"""Workload generation: one replayable traffic layer for every engine.

The thesis's evaluation uses two traffic regimes: conflict-free
permutation traffic for peak rate (section 7.2) and uniform traffic
"under complete fairness" for the average rate (section 7.3).  This
package provides those plus the adversarial workloads real switch cores
are judged on -- bursty trains, hotspots (static and drifting), IMIX
size mixes, on-off/MMPP and heavy-tailed arrivals, and recorded-trace
replay -- all behind one declarative, schema-tagged
:class:`~repro.traffic.spec.TrafficSpec` and one factory,
:func:`build` (:mod:`repro.traffic.build`), that every engine and
baseline constructs its sources through.

Stochastic draws are counter-based (:mod:`repro.traffic.rng`), so every
source snapshots and resumes bit-identically -- the state is a handful
of integers per port -- and partitions across the space engine's
workers (:mod:`repro.parallel.space_shard`).
"""

from repro.traffic.arrivals import (
    ArrivalProcess,
    Bernoulli,
    CounterSlotArrivals,
    IIDSlotArrivals,
    OnOff,
    Saturated,
)
from repro.traffic.build import (
    build,
    fabric_source as build_fabric_source,
    router_traffic as build_router_traffic,
    shard_source,
    size_distribution,
    slot_arrivals,
    wordlevel_source as build_wordlevel_source,
)
from repro.traffic.model import SpecModel, TrafficModel
from repro.traffic.patterns import (
    BurstyDestinations,
    DestinationPattern,
    FixedPermutation,
    HotspotDestinations,
    RotatingPermutation,
    UniformDestinations,
)
from repro.traffic.replay import TraceReplay, generate_trace, iter_flows, scan_trace
from repro.traffic.sizes import (
    PAPER_SIZES,
    BimodalSizes,
    FixedSize,
    IMix,
    SizeDistribution,
    UniformSizes,
)
from repro.traffic.spec import (
    PRESETS,
    TRAFFIC_SCHEMA,
    ArrivalSpec,
    PatternSpec,
    SizeSpec,
    TrafficSpec,
    resolve_traffic,
    spec_from_legacy,
)
from repro.traffic.workload import PacketFactory, Workload, fabric_source

__all__ = [
    "DestinationPattern",
    "UniformDestinations",
    "FixedPermutation",
    "RotatingPermutation",
    "HotspotDestinations",
    "BurstyDestinations",
    "SizeDistribution",
    "FixedSize",
    "IMix",
    "UniformSizes",
    "BimodalSizes",
    "PAPER_SIZES",
    "ArrivalProcess",
    "Saturated",
    "Bernoulli",
    "OnOff",
    "IIDSlotArrivals",
    "CounterSlotArrivals",
    "Workload",
    "PacketFactory",
    "fabric_source",
    # The declarative layer.
    "TrafficSpec",
    "PatternSpec",
    "SizeSpec",
    "ArrivalSpec",
    "TRAFFIC_SCHEMA",
    "PRESETS",
    "resolve_traffic",
    "spec_from_legacy",
    "TrafficModel",
    "SpecModel",
    "TraceReplay",
    "generate_trace",
    "iter_flows",
    "scan_trace",
    # The one factory.
    "build",
    "build_fabric_source",
    "build_router_traffic",
    "build_wordlevel_source",
    "shard_source",
    "slot_arrivals",
    "size_distribution",
]
