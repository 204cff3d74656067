"""Declarative traffic specifications: the schema behind ``traffic=``.

A :class:`TrafficSpec` is a frozen, picklable, schema-tagged value
describing a workload as three orthogonal choices -- destination
pattern, packet sizes, arrival process -- or as a recorded trace to
replay.  It is what rides inside
:class:`~repro.engines.WorkloadSpec.traffic`, what ``repro sweep``'s
``traffic=`` axis fans across workers, and what
:func:`repro.traffic.build.shard_source` serializes into a
:class:`~repro.parallel.space_shard.SpaceSpec` source.

Like :mod:`repro.faults.plan`, specs round-trip through tagged dicts
(:meth:`TrafficSpec.to_dict` / :meth:`TrafficSpec.from_dict`) and
:func:`resolve_traffic` normalizes every spelling a caller might hold:
an existing spec, its dict form, a JSON file path, a trace file path
(``.csv`` / ``.jsonl``), or a named preset from :data:`PRESETS`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple, Union

TRAFFIC_SCHEMA = "repro-traffic/1"

#: Destination-pattern kinds the unified model understands.
PATTERN_KINDS = ("permutation", "uniform", "hotspot", "bursty")
SIZE_KINDS = ("fixed", "imix", "uniform", "bimodal")
ARRIVAL_KINDS = ("saturated", "bernoulli", "onoff")


@dataclass(frozen=True)
class PatternSpec:
    """Who sends to whom.

    ``drift_packets`` applies to ``hotspot``: after every
    ``drift_packets`` packets a port offers, its hot output advances by
    one (mod N) -- a nonstationary hotspot that defeats any static
    provisioning.  0 keeps the hotspot fixed.  ``mean_burst`` applies to
    ``bursty``: geometric trains of packets sharing one destination.
    """

    kind: str = "permutation"
    shift: int = 2
    exclude_self: bool = True
    hot_port: int = 0
    p_hot: float = 0.7
    drift_packets: int = 0
    mean_burst: float = 8.0

    def __post_init__(self):
        if self.kind not in PATTERN_KINDS:
            raise ValueError(
                f"unknown pattern kind {self.kind!r}; expected one of {PATTERN_KINDS}"
            )
        if self.shift < 0:
            raise ValueError(f"pattern shift must be >= 0, got {self.shift}")
        if self.hot_port < 0:
            raise ValueError(f"hot_port must be >= 0, got {self.hot_port}")
        if not 0.0 <= self.p_hot <= 1.0:
            raise ValueError(f"p_hot must be in [0, 1], got {self.p_hot}")
        if self.drift_packets < 0:
            raise ValueError("drift_packets must be >= 0")
        if self.mean_burst < 1.0:
            raise ValueError("mean_burst must be >= 1")


@dataclass(frozen=True)
class SizeSpec:
    """How big each packet is.

    ``imix`` mixes 64/576/1024-byte packets in 7:4:1 proportions within
    one run (:class:`repro.traffic.sizes.IMix`'s mix, counter-drawn);
    ``uniform`` draws word-aligned sizes in ``[lo, hi]``; ``bimodal``
    is the ACKs-vs-MTU mix.
    """

    kind: str = "fixed"
    bytes: int = 1024
    lo: int = 64
    hi: int = 1024
    small: int = 64
    large: int = 1024
    p_small: float = 0.5

    #: The IMIX points (word-aligned stand-ins for 40/576/1500).
    IMIX_SIZES = (64, 576, 1024)
    IMIX_WEIGHTS = (7, 4, 1)

    def __post_init__(self):
        if self.kind not in SIZE_KINDS:
            raise ValueError(
                f"unknown size kind {self.kind!r}; expected one of {SIZE_KINDS}"
            )
        for name in ("bytes", "lo", "hi", "small", "large"):
            v = getattr(self, name)
            if v < 20 or v % 4:
                raise ValueError(
                    f"size field {name}={v}: packet sizes must be word-aligned "
                    "and at least an IP header (20 bytes)"
                )
        if self.lo > self.hi:
            raise ValueError("size lo must be <= hi")
        if not 0.0 <= self.p_small <= 1.0:
            raise ValueError("p_small must be a probability")

    def max_bytes(self) -> int:
        """The largest packet this distribution can emit (engines with a
        single-quantum packet limit validate against this)."""
        if self.kind == "fixed":
            return self.bytes
        if self.kind == "imix":
            return max(self.IMIX_SIZES)
        if self.kind == "uniform":
            return self.hi
        return max(self.small, self.large)

    def mean_bytes(self) -> float:
        if self.kind == "fixed":
            return float(self.bytes)
        if self.kind == "imix":
            total = sum(self.IMIX_WEIGHTS)
            return sum(s * w for s, w in zip(self.IMIX_SIZES, self.IMIX_WEIGHTS)) / total
        if self.kind == "uniform":
            return (self.lo + self.hi) / 2.0
        return self.p_small * self.small + (1 - self.p_small) * self.large


@dataclass(frozen=True)
class ArrivalSpec:
    """When packets show up.

    ``bernoulli``: each poll offers with probability ``p`` (iid, the
    crossbar-literature load model).  ``onoff``: a two-state modulated
    process -- in the on state polls offer with probability ``p``, in
    the off state never; state durations are geometric with means
    ``mean_on`` / ``mean_off`` polls, or Pareto(``alpha``) when
    ``heavy`` (the heavy-tailed trains of measured internet traffic).
    """

    kind: str = "saturated"
    p: float = 1.0
    mean_on: float = 16.0
    mean_off: float = 16.0
    heavy: bool = False
    alpha: float = 1.5

    def __post_init__(self):
        if self.kind not in ARRIVAL_KINDS:
            raise ValueError(
                f"unknown arrival kind {self.kind!r}; expected one of {ARRIVAL_KINDS}"
            )
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"arrival p must be in [0, 1], got {self.p}")
        if self.mean_on < 1.0 or self.mean_off < 1.0:
            raise ValueError("on/off mean durations must be >= 1 poll")
        if self.heavy and self.alpha <= 1.0:
            raise ValueError(
                "heavy-tailed durations need alpha > 1 (finite mean)"
            )

    @property
    def load(self) -> float:
        """Nominal offered load in [0, 1]."""
        if self.kind == "saturated":
            return 1.0
        if self.kind == "bernoulli":
            return self.p
        return self.p * self.mean_on / (self.mean_on + self.mean_off)


@dataclass(frozen=True)
class TrafficSpec:
    """A complete declarative workload.

    ``kind="synthetic"`` composes the three sub-specs; ``kind="replay"``
    streams flow records from ``trace`` (see
    :mod:`repro.traffic.replay`), with ``loop`` wrapping at EOF for
    engines that need saturated sources.
    """

    kind: str = "synthetic"
    pattern: PatternSpec = PatternSpec()
    sizes: SizeSpec = SizeSpec()
    arrivals: ArrivalSpec = ArrivalSpec()
    trace: str = ""
    loop: bool = False
    #: Traffic-class labels cycled over source ports (port ``p`` belongs
    #: to ``classes[p % len(classes)]``); empty disables the per-class
    #: journey dimension.  Purely observational -- classes never change
    #: what the workload generates.
    classes: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in ("synthetic", "replay"):
            raise ValueError(
                f"unknown traffic kind {self.kind!r}; expected synthetic or replay"
            )
        if self.kind == "replay" and not self.trace:
            raise ValueError("replay traffic needs a trace path")
        if not isinstance(self.classes, tuple):
            object.__setattr__(self, "classes", tuple(self.classes))
        if any(not c or not isinstance(c, str) for c in self.classes):
            raise ValueError("traffic classes must be non-empty strings")

    def port_class_labels(self, num_ports: int) -> Tuple[str, ...]:
        """Per-port class labels for ``num_ports`` ports (empty when no
        classes are declared)."""
        if not self.classes:
            return ()
        k = len(self.classes)
        return tuple(self.classes[p % k] for p in range(num_ports))

    def replace(self, **changes: Any) -> "TrafficSpec":
        return dataclasses.replace(self, **changes)

    # -- schema-tagged round-trip --------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        d = dataclasses.asdict(self)
        d["schema"] = TRAFFIC_SCHEMA
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "TrafficSpec":
        d = dict(d)
        schema = d.pop("schema", TRAFFIC_SCHEMA)
        if schema != TRAFFIC_SCHEMA:
            raise ValueError(
                f"traffic spec schema is {schema!r}, expected {TRAFFIC_SCHEMA!r}"
            )
        for field, sub in (
            ("pattern", PatternSpec),
            ("sizes", SizeSpec),
            ("arrivals", ArrivalSpec),
        ):
            if field in d and isinstance(d[field], Mapping):
                d[field] = sub(**d[field])
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown traffic spec fields: {sorted(unknown)}")
        return cls(**d)

    def to_json(self) -> str:
        """Canonical JSON form (stable key order, picklable-spec friendly)."""
        return json.dumps(self.to_dict(), sort_keys=True)


#: Named workload presets: sweepable as ``--grid traffic=imix,bursty``.
PRESETS: Dict[str, TrafficSpec] = {
    "imix": TrafficSpec(
        pattern=PatternSpec(kind="uniform"), sizes=SizeSpec(kind="imix")
    ),
    "imix_onoff": TrafficSpec(
        pattern=PatternSpec(kind="uniform"),
        sizes=SizeSpec(kind="imix"),
        arrivals=ArrivalSpec(kind="onoff", mean_on=16.0, mean_off=16.0),
    ),
    "imix_heavy": TrafficSpec(
        pattern=PatternSpec(kind="uniform"),
        sizes=SizeSpec(kind="imix"),
        arrivals=ArrivalSpec(
            kind="onoff", mean_on=24.0, mean_off=24.0, heavy=True, alpha=1.5
        ),
    ),
    "bursty": TrafficSpec(
        pattern=PatternSpec(kind="bursty", mean_burst=8.0),
        sizes=SizeSpec(kind="fixed", bytes=1024),
    ),
    "hotspot_drift": TrafficSpec(
        pattern=PatternSpec(kind="hotspot", p_hot=0.7, drift_packets=256),
        sizes=SizeSpec(kind="fixed", bytes=1024),
    ),
    "bernoulli": TrafficSpec(
        pattern=PatternSpec(kind="uniform"),
        sizes=SizeSpec(kind="fixed", bytes=1024),
        arrivals=ArrivalSpec(kind="bernoulli", p=0.6),
    ),
}

#: Everything :func:`resolve_traffic` accepts.
TrafficLike = Union["TrafficSpec", Mapping[str, Any], str, None]


def spec_from_legacy(
    pattern: str,
    packet_bytes: int,
    shift: int = 2,
    exclude_self: bool = True,
    hot_port: int = 0,
    p_hot: float = 0.7,
) -> TrafficSpec:
    """The deprecated flat WorkloadSpec kwargs, as a TrafficSpec.

    This is the compat shim: old-style workloads map onto the exact
    spec their kwargs describe, and the build factory routes that spec
    through the historical per-engine constructors, so old kwargs and
    the equivalent explicit spec are bit-identical by construction.
    """
    return TrafficSpec(
        pattern=PatternSpec(
            kind=pattern,
            shift=shift,
            exclude_self=exclude_self,
            hot_port=hot_port,
            p_hot=p_hot,
        ),
        sizes=SizeSpec(kind="fixed", bytes=packet_bytes),
        arrivals=ArrivalSpec(kind="saturated"),
    )


def resolve_traffic(spec: TrafficLike) -> Optional[TrafficSpec]:
    """Normalize any traffic spelling to a TrafficSpec (None passes through).

    Strings resolve as: a ``.json`` path holding a spec dict, a
    ``.csv`` / ``.jsonl`` trace path (becomes a replay spec), or a
    preset name from :data:`PRESETS`.
    """
    if spec is None:
        return None
    if isinstance(spec, TrafficSpec):
        return spec
    if isinstance(spec, Mapping):
        return TrafficSpec.from_dict(spec)
    if isinstance(spec, str):
        if spec.endswith(".json"):
            with open(spec) as fh:
                return TrafficSpec.from_dict(json.load(fh))
        if spec.endswith((".csv", ".jsonl")):
            return TrafficSpec(kind="replay", trace=spec)
        if spec in PRESETS:
            return PRESETS[spec]
        raise ValueError(
            f"unknown traffic {spec!r}: not a preset "
            f"({', '.join(sorted(PRESETS))}), a .json spec, or a "
            ".csv/.jsonl trace"
        )
    raise TypeError(f"cannot resolve a traffic spec from {type(spec).__name__}")
