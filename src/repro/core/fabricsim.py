"""Quantum-level fabric simulator: the allocator driven over time.

This is the lightweight engine behind the fabric-only experiments
(average throughput, fairness, scaling, second-network and quantum-size
ablations): no kernel processes, just the Rotating Crossbar's quantum
loop -- poll head-of-line requests, run the allocation rule, advance the
clock by the quantum's phase cost, deliver fragments, rotate the token.
The full router model (:mod:`repro.router`) layers ingress/lookup/egress
pipelines on top; for saturated inputs both models agree on throughput
(cross-checked in tests) because the fabric is the bottleneck stage.

Fast path
---------
Every quantum's allocation is evaluated on the shared compiled table
(:func:`~repro.core.allocator.shared_compiled`), always: the step loop
builds no ring paths.  On top of that, three cooperating layers make
this engine fast at scale, each bit-identical to the step loop and
each independently toggleable:

* **allocation memoization** -- hand the simulator an
  :class:`~repro.core.allocator.Allocator` with an LRU
  (``enable_cache()``, ``SimConfig.alloc_cache``);
* **steady-state fast-forward** (``fast_forward=True``) -- for
  deterministic sources the (queue-contents, token) state recurs with a
  short period; once a cycle is detected the per-cycle stats delta is
  applied in closed form over the remaining quanta.  Automatically
  disabled whenever faults, telemetry recording, ``keep_history``, a
  stochastic source, or a ``min_packets`` stopping rule are active;
* **snapshot/restore** (:meth:`FabricSimulator.snapshot` /
  :meth:`~FabricSimulator.restore`) -- the RNG-free simulator state
  (queues, clock, token) as a picklable value: a run resumed from a
  snapshot plus its source's ``state()`` finishes bit-identical to the
  straight run (``repro replay --check`` verifies this).
"""

from __future__ import annotations

import struct
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.config import CostModel
from repro.core.allocator import Allocation, Allocator
from repro.core.phases import DEFAULT_TIMING, PhaseTiming, idle_quantum_cycles, quantum_cycles
from repro.core.ring import RingGeometry
from repro.core.token import RotatingToken
from repro.seeds import counter_seed
from repro.telemetry import runtime as _telemetry
from repro.telemetry.events import EV_XBAR_CONFIG

#: A port source: called when the port's input queue is empty; returns
#: (destination port, packet words) or None for "no packet right now".
PortSource = Callable[[int], Optional[Tuple[int, int]]]


@dataclass
class _HolFragment:
    dest: int
    words: int
    is_last: bool
    packet_words: int  #: total words of the parent packet
    corrupt: bool = False  #: fault-injected; dropped by egress verification
    #: Journey key shared by every fragment of the packet; ``None`` when
    #: telemetry is off or the fragment was restored from a snapshot
    #: (journeys do not survive snapshot/restore -- a documented
    #: limitation of resuming a run).
    tag: Optional[int] = None


class _FabricFaultState:
    """Quantum-granular realization of a fault plan for the fabric loop.

    The fabric engine has no words or channels, so faults are quantized
    to quantum boundaries: an event applies at the first boundary whose
    clock reaches its cycle, and a window covers the quanta starting
    inside ``[cycle, end)``.  Kind mapping at this fidelity: ``stall``
    and ``link_down`` silence the port's requests, ``overload``
    suppresses grants toward the port, ``corrupt`` poisons the port's
    queued packet (dropped at delivery, modeling egress verification),
    ``port_down`` + ``token_loss`` use the shared recovery machinery.
    """

    def __init__(self, plan, n: int, metrics):
        from repro.faults.recovery import DegradedRouting, TokenRecovery

        self.plan = plan
        self.metrics = metrics
        self.degraded = DegradedRouting(n, metrics)
        self.recovery = TokenRecovery(n, metrics)
        self._events = list(plan.events)  # cycle-sorted by construction
        self._next = 0
        self._windows = []  # (end_clock, kind, port, target)
        self._recovery_left = 0
        for ev in self._events:
            if ev.kind == "token_loss":
                continue
            if ev.target.startswith("link:"):
                raise ValueError(
                    "the fabric engine has no word-level links; "
                    f"cannot realize target {ev.target!r}"
                )
            if ev.port is None or not 0 <= ev.port < n:
                raise ValueError(
                    f"{ev.kind} fault needs a port-scoped target, got {ev.target!r}"
                )

    # -- per-boundary bookkeeping --------------------------------------
    def advance_to(self, clock: int, queues) -> None:
        """Apply every event due by ``clock`` and expire old windows."""
        kept = []
        for end, kind, port, target in self._windows:
            if clock >= end:
                self.metrics.close_open(kind, target, clock)
            else:
                kept.append((end, kind, port, target))
        self._windows = kept

        while self._next < len(self._events) and self._events[self._next].cycle <= clock:
            ev = self._events[self._next]
            self._next += 1
            if ev.kind == "token_loss":
                self.metrics.record_fault(clock, ev.kind, ev.target)
                self.recovery.lose(ev.cycle)
                self._recovery_left = self.recovery.recovery_quanta()
            elif ev.kind == "port_down":
                self.metrics.record_fault(clock, ev.kind, ev.target)
                if self.degraded.kill(ev.port):
                    for q in queues:
                        stale = [f for f in q if f.dest == ev.port]
                        if stale:
                            for _ in stale:
                                self.metrics.record_drop("dead_port")
                            q_live = [f for f in q if f.dest != ev.port]
                            q.clear()
                            q.extend(q_live)
                    drained = queues[ev.port]
                    self.metrics.record_drop("dead_port", len(drained))
                    drained.clear()
                    # Reconvergence is immediate at this fidelity: the
                    # next refill already remaps around the dead port.
                    self.degraded.converged(ev.port, clock)
            elif ev.kind == "corrupt":
                q = queues[ev.port]
                for frag in q:
                    frag.corrupt = True
                rec = self.metrics.record_fault(
                    clock, ev.kind, ev.target, applied=bool(q)
                )
                rec.recovered_at = clock
            else:  # windowed: link_down / stall / overload
                self.metrics.record_fault(clock, ev.kind, ev.target)
                self._windows.append((ev.end, ev.kind, ev.port, ev.target))

    # -- queries the quantum loop asks ---------------------------------
    def in_recovery(self) -> bool:
        return self.recovery.lost

    def recovery_quantum_done(self, token, clock: int) -> None:
        """One idle recovery quantum elapsed; regenerate when done."""
        self._recovery_left -= 1
        if self._recovery_left <= 0:
            self.recovery.recover(token, clock)

    def port_silenced(self, port: int) -> bool:
        """Dead, stalled, or its input link is down."""
        if not self.degraded.alive(port):
            return True
        return any(
            kind in ("stall", "link_down") and p == port
            for _end, kind, p, _t in self._windows
        )

    def dest_suppressed(self, dest: int) -> bool:
        """Grants toward an overloaded output are withheld this quantum."""
        return any(
            kind == "overload" and p == dest for _end, kind, p, _t in self._windows
        )

    def map_dest(self, dest: int):
        """Degraded-mode rerouting at the source (None: nowhere to go)."""
        if not self.degraded.any_dead:
            return dest
        return self.degraded.remap(dest)

    def quiescent(self) -> bool:
        """True once the plan can no longer influence the future: every
        event consumed, every window expired, token recovery finished,
        and no port permanently dead (dead ports remap routing forever,
        which a queues+clock+token snapshot cannot carry)."""
        return (
            self._next >= len(self._events)
            and not self._windows
            and not self.recovery.lost
            and not self.degraded.any_dead
        )


@dataclass
class FabricStats:
    """Aggregate counters from a fabric run."""

    num_ports: int
    quanta: int = 0
    idle_quanta: int = 0
    cycles: int = 0
    delivered_words: int = 0
    delivered_packets: int = 0
    per_port_words: List[int] = field(default_factory=list)
    per_port_packets: List[int] = field(default_factory=list)
    blocked_events: int = 0
    grant_histogram: List[int] = field(default_factory=list)  #: index = #grants
    costs: CostModel = field(default_factory=CostModel.default)

    def __post_init__(self):
        if not self.per_port_words:
            self.per_port_words = [0] * self.num_ports
        if not self.per_port_packets:
            self.per_port_packets = [0] * self.num_ports
        if not self.grant_histogram:
            self.grant_histogram = [0] * (self.num_ports + 1)

    @property
    def gbps(self) -> float:
        """Aggregate delivered throughput at the configured clock."""
        if self.cycles == 0:
            return 0.0
        return self.costs.gbps(self.delivered_words * self.costs.word_bits, self.cycles)

    @property
    def mpps(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.costs.mpps(self.delivered_packets, self.cycles)

    @property
    def words_per_cycle(self) -> float:
        return self.delivered_words / self.cycles if self.cycles else 0.0

    @property
    def mean_grants_per_quantum(self) -> float:
        total = sum(i * c for i, c in enumerate(self.grant_histogram))
        n = sum(self.grant_histogram)
        return total / n if n else 0.0

    # -- fast-forward / resume support ----------------------------------
    _COUNTER_FIELDS = (
        "quanta", "idle_quanta", "cycles", "delivered_words",
        "delivered_packets", "blocked_events",
    )
    _VECTOR_FIELDS = ("per_port_words", "per_port_packets", "grant_histogram")

    def counters(self) -> Tuple:
        """Every accumulated counter as one comparable/subtractable tuple."""
        return tuple(getattr(self, f) for f in self._COUNTER_FIELDS) + tuple(
            tuple(getattr(self, f)) for f in self._VECTOR_FIELDS
        )

    def add_counters(self, other: "FabricStats", times: int = 1) -> None:
        """Accumulate ``other``'s counters ``times`` times (associative:
        slices of a timeline merge in any grouping)."""
        for f in self._COUNTER_FIELDS:
            setattr(self, f, getattr(self, f) + getattr(other, f) * times)
        for f in self._VECTOR_FIELDS:
            mine, theirs = getattr(self, f), getattr(other, f)
            for i, v in enumerate(theirs):
                mine[i] += v * times

    def delta_since(self, baseline: Tuple) -> "FabricStats":
        """The stats accumulated since ``baseline`` (a :meth:`counters`
        snapshot) as a fresh :class:`FabricStats`."""
        delta = FabricStats(num_ports=self.num_ports, costs=self.costs)
        now = self.counters()
        nscalar = len(self._COUNTER_FIELDS)
        for i, f in enumerate(self._COUNTER_FIELDS):
            setattr(delta, f, now[i] - baseline[i])
        for j, f in enumerate(self._VECTOR_FIELDS):
            setattr(
                delta, f,
                [a - b for a, b in zip(now[nscalar + j], baseline[nscalar + j])],
            )
        return delta


class FabricSimulator:
    """Drives the Rotating Crossbar over saturated or stochastic inputs.

    Parameters
    ----------
    ring, allocator, token:
        The fabric under test; defaults build the plain 4-port setup.
    max_quantum_words:
        Fragmentation threshold (thesis section 4.3): packets longer
        than this cross the crossbar in multiple quanta.
    timing, pipelined:
        Phase cost model knobs (see :mod:`repro.core.phases`).
    keep_history:
        Record (requests, allocation) per quantum for fairness analysis
        (costs memory; leave off for long throughput runs).
    fast_forward:
        Detect steady-state cycles under deterministic sources and apply
        the per-cycle stats delta in closed form over the remaining
        quanta (bit-identical to stepping; see the module docstring for
        the automatic-disable conditions).
    """

    #: Give up on cycle detection past this many distinct states.
    FF_MAX_STATES = 4096

    def __init__(
        self,
        ring: Optional[RingGeometry] = None,
        allocator: Optional[Allocator] = None,
        token: Optional[RotatingToken] = None,
        max_quantum_words: Optional[int] = None,
        timing: Optional[PhaseTiming] = None,
        pipelined: bool = True,
        keep_history: bool = False,
        costs: CostModel = CostModel.default(),
        fast_forward: bool = False,
    ):
        self.costs = costs
        self.ring = ring or RingGeometry(4)
        self.allocator = allocator or Allocator(self.ring)
        self.token = token or RotatingToken(self.ring.n)
        if max_quantum_words is None:
            max_quantum_words = costs.max_quantum_words
        if max_quantum_words < 1:
            raise ValueError("max_quantum_words must be >= 1")
        self.max_quantum_words = max_quantum_words
        if timing is None:
            timing = (
                DEFAULT_TIMING
                if costs.quantum_ctl_overhead == DEFAULT_TIMING.control_total
                else PhaseTiming.for_model(costs)
            )
        self.timing = timing
        self.pipelined = pipelined
        self.keep_history = keep_history
        self.history: List[Tuple[Tuple[Optional[int], ...], Allocation]] = []
        self._queues: List[Deque[_HolFragment]] = [
            deque() for _ in range(self.ring.n)
        ]
        #: Global clock in cycles, accumulated by every quantum (warmup
        #: included) -- the timeline fault plans are scheduled against.
        self.clock = 0
        self.faults: Optional[_FabricFaultState] = None
        self.fast_forward = fast_forward
        #: Quanta skipped by steady-state fast-forward (cumulative).
        self.ff_quanta = 0
        self._gauge_registry = None  # registry the gauges were installed in
        self._journey_seq = 0  # next journey tag (telemetry only)

    # ------------------------------------------------------------------
    def install_faults(self, plan, metrics=None) -> Optional[_FabricFaultState]:
        """Arm a fault plan (None / empty plan: stay fault-free)."""
        from repro.faults.plan import resolve_plan
        from repro.metrics.resilience import ResilienceMetrics

        plan = resolve_plan(plan)
        if plan is None:
            return None
        if metrics is None:
            metrics = ResilienceMetrics()
        self.faults = _FabricFaultState(plan, self.ring.n, metrics)
        return self.faults

    # ------------------------------------------------------------------
    # Snapshot/restore: the RNG-free simulator state as a picklable value.
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The complete continuation state at a quantum boundary.

        Queues, clock, and token -- everything the step loop reads
        (stochastic *source* state is the caller's to pair with this,
        via the source's ``state()``/``restore()``).  Fault state is
        deliberately excluded, so an armed plan only permits snapshot
        once it is *quiescent* -- every event consumed, every window
        expired, recovery done, no dead ports, and no corrupt fragments
        still queued (the corrupt flag is not captured).  Mid-window
        snapshots keep raising: the continuation would silently drop the
        remaining fault behavior."""
        if self.faults is not None:
            if not self.faults.quiescent():
                raise ValueError(
                    "cannot snapshot a simulator with an armed fault plan "
                    "(fault events or windows still pending)"
                )
            if any(f.corrupt for q in self._queues for f in q):
                raise ValueError(
                    "cannot snapshot while corrupt fragments are queued "
                    "(the corrupt flag is not part of the snapshot)"
                )
        token = self.token
        return {
            "clock": self.clock,
            "queues": [
                [(f.dest, f.words, f.is_last, f.packet_words) for f in q]
                for q in self._queues
            ],
            "token": {
                "master": token.master,
                "rotations": token.rotations,
                "remaining": getattr(token, "_remaining", None),
            },
        }

    def restore(self, snap: Dict[str, Any]) -> "FabricSimulator":
        """Adopt a :meth:`snapshot`; returns self for chaining."""
        queues = snap["queues"]
        if len(queues) != self.ring.n:
            raise ValueError(
                f"snapshot has {len(queues)} ports, simulator has {self.ring.n}"
            )
        self.clock = snap["clock"]
        for port, frags in enumerate(queues):
            q = self._queues[port]
            q.clear()
            q.extend(
                _HolFragment(dest=d, words=w, is_last=last, packet_words=pw)
                for d, w, last, pw in frags
            )
        tstate = snap["token"]
        self.token._master = tstate["master"]
        self.token.rotations = tstate["rotations"]
        if tstate["remaining"] is not None:
            self.token._remaining = tstate["remaining"]
        return self

    def _state_key(self):
        """Hashable steady-state fingerprint: token + full queue contents
        (the entire input to the next quantum under a deterministic
        source)."""
        token = self.token
        return (
            token.master,
            getattr(token, "_remaining", None),
            tuple(
                tuple((f.dest, f.words, f.is_last, f.packet_words) for f in q)
                for q in self._queues
            ),
        )

    def _refill(self, port: int, source: PortSource, tel=None) -> None:
        if self._queues[port]:
            return
        pkt = source(port)
        if pkt is None:
            return
        dest, words = pkt
        if words < 1:
            raise ValueError("packet must have at least one word")
        tag = None
        if tel is not None:
            tag = self._journey_seq
            self._journey_seq += 1
            jt = tel.journeys
            jt.arrive(tag, port, self.clock)
            jt.lookup(
                tag, dest, words * (self.costs.word_bits // 8), self.clock
            )
        if self.faults is not None:
            self.faults.metrics.offered_words += words
            dest = self.faults.map_dest(dest)
            if dest is None:  # every port is dead
                self.faults.metrics.record_drop("dead_port")
                if tel is not None:
                    tel.journeys.drop(tag, "dead_port", self.clock)
                return
        if tel is not None:
            tel.journeys.enqueue(tag, self.clock)
        remaining = words
        while remaining > 0:
            q = min(remaining, self.max_quantum_words)
            remaining -= q
            self._queues[port].append(
                _HolFragment(dest=dest, words=q, is_last=remaining == 0,
                             packet_words=words, tag=tag)
            )

    def run(
        self,
        source: PortSource,
        quanta: Optional[int] = None,
        min_packets: Optional[int] = None,
        warmup_quanta: int = 0,
    ) -> FabricStats:
        """Run until ``quanta`` quanta elapse or ``min_packets`` deliver.

        ``warmup_quanta`` initial quanta are simulated but excluded from
        the returned statistics (queues reach steady state first).
        """
        if quanta is None and min_packets is None:
            raise ValueError("need a stopping condition")
        stats = FabricStats(num_ports=self.ring.n, costs=self.costs)
        tel = _telemetry.RECORDER
        if tel is not None and self._gauge_registry is not tel.registry:
            # Idempotent per registry: a second run() on the same
            # simulator must not re-register (regression-tested).
            self._register_gauges(tel.registry)
        # Steady-state fast-forward eligibility: only the plain,
        # fully-observable step loop may be skipped.  Faults, telemetry,
        # history recording, stochastic sources, and packet-count
        # stopping all force the step loop (bit-identical to PR 4).
        ff_seen = (
            {}
            if (
                self.fast_forward
                and quanta is not None
                and min_packets is None
                and self.faults is None
                and tel is None
                and not self.keep_history
                and getattr(source, "deterministic", False)
            )
            else None
        )
        total = None if quanta is None else quanta + warmup_quanta
        done = 0
        while True:
            if total is not None and done >= total:
                break
            if (
                min_packets is not None
                and stats.delivered_packets >= min_packets
                and done >= warmup_quanta
            ):
                break
            measuring = done >= warmup_quanta
            self._step(source, stats if measuring else None)
            done += 1
            if ff_seen is not None and measuring:
                key = self._state_key()
                prev = ff_seen.get(key)
                if prev is not None:
                    done += self._apply_fast_forward(stats, prev, done, total)
                    ff_seen = None  # at most one fast-forward per run
                else:
                    ff_seen[key] = (done, stats.counters(), self.clock,
                                    self.token.rotations)
                    if len(ff_seen) > self.FF_MAX_STATES:
                        ff_seen = None  # state space too rich; give up
        if tel is not None:
            tel.registry.snapshot(self.clock)
        return stats

    def _register_gauges(self, registry) -> None:
        registry.gauge("fabric.clock", lambda: self.clock)
        for p, q in enumerate(self._queues):
            registry.gauge(f"ingress.{p}.queue_depth", lambda q=q: len(q))
        if self.allocator.cache_enabled:
            registry.gauge(
                "fabric.alloc_cache.hits", lambda: self.allocator.cache_hits
            )
            registry.gauge(
                "fabric.alloc_cache.misses", lambda: self.allocator.cache_misses
            )
        if self.fast_forward:
            # Always 0 under telemetry (recording forces the step loop);
            # the gauge documents that the feature was requested.
            registry.gauge(
                "fabric.fast_forward.quanta", lambda: self.ff_quanta
            )
        self._gauge_registry = registry

    def _apply_fast_forward(
        self, stats: FabricStats, prev: Tuple, done: int, total: int
    ) -> int:
        """The simulator state equals ``prev``'s: every period repeats it
        exactly, so multiply the per-period deltas over as many whole
        periods as fit before ``total``.  Returns the quanta skipped."""
        prev_done, prev_counters, prev_clock, prev_rotations = prev
        period = done - prev_done
        cycles = (total - done) // period
        if cycles <= 0:
            return 0
        delta = stats.delta_since(prev_counters)
        stats.add_counters(delta, times=cycles)
        self.clock += (self.clock - prev_clock) * cycles
        self.token.rotations += (
            self.token.rotations - prev_rotations
        ) * cycles
        skipped = cycles * period
        self.ff_quanta += skipped
        return skipped

    def _step(self, source: PortSource, stats: Optional[FabricStats]) -> None:
        n = self.ring.n
        faults = self.faults
        tel = _telemetry.RECORDER
        if faults is not None:
            # Refill before applying events: at saturation every queue is
            # re-armed at each boundary, so a corruption event aimed at a
            # busy input actually finds a word to hit.
            for port in range(n):
                if faults.degraded.alive(port):
                    self._refill(port, source, tel)
            faults.advance_to(self.clock, self._queues)
            if faults.in_recovery():
                # Token lost: one idle quantum of the regeneration
                # protocol (no grants, no rotation -- there is no token).
                idle = idle_quantum_cycles(self.timing)
                if stats:
                    stats.quanta += 1
                    stats.idle_quanta += 1
                    stats.cycles += idle
                self.clock += idle
                faults.recovery_quantum_done(self.token, self.clock)
                return
            requests = tuple(
                self._queues[p][0].dest
                if (
                    self._queues[p]
                    and not faults.port_silenced(p)
                    and not faults.dest_suppressed(self._queues[p][0].dest)
                )
                else None
                for p in range(n)
            )
        else:
            for port in range(n):
                self._refill(port, source, tel)
            requests = tuple(
                self._queues[p][0].dest if self._queues[p] else None for p in range(n)
            )
        if all(r is None for r in requests):
            idle = idle_quantum_cycles(self.timing)
            if stats:
                stats.quanta += 1
                stats.idle_quanta += 1
                stats.cycles += idle
            self.clock += idle
            self.token.advance()
            return
        alloc = self.allocator.allocate(requests, self.token.master)
        if tel is not None:
            tel.events.emit(
                self.clock, EV_XBAR_CONFIG, "fabric",
                (self.token.master,
                 tuple(sorted((g.src, g.dst) for g in alloc.grants.values()))),
            )
            tel.registry.count("fabric.xbar_configs")
            tel.registry.maybe_snapshot(self.clock)
        body = 0
        for grant in alloc.grants.values():
            frag = self._queues[grant.src][0]
            body = max(body, frag.words + grant.expansion)
        duration = (
            quantum_cycles(0, 0, self.timing, self.pipelined, costs=self.costs) + body
        )
        if self.keep_history:
            self.history.append((requests, alloc))
        if stats:
            stats.quanta += 1
            stats.cycles += duration
            stats.blocked_events += len(alloc.blocked)
            stats.grant_histogram[alloc.num_granted] += 1
        self.clock += duration
        for grant in alloc.grants.values():
            frag = self._queues[grant.src].popleft()
            if faults is not None and frag.corrupt:
                # Egress verification catches the broken checksum; the
                # words crossed the fabric but never reach the line.
                faults.metrics.record_drop("corrupt")
                if tel is not None and frag.tag is not None:
                    tel.journeys.drop(frag.tag, "corrupt", self.clock)
                continue
            if faults is not None:
                faults.metrics.delivered_words += frag.words
            if stats:
                stats.delivered_words += frag.words
                stats.per_port_words[grant.src] += frag.words
                if frag.is_last:
                    stats.delivered_packets += 1
                    stats.per_port_packets[grant.src] += 1
            if tel is not None and frag.tag is not None:
                tel.journeys.hop(frag.tag, self.clock)
                if frag.is_last:
                    tel.journeys.depart(frag.tag, self.clock)
        self.token.advance()


# ---------------------------------------------------------------------------
# Canned sources for the common workloads.
# ---------------------------------------------------------------------------
def saturated_permutation(words: int, shift: int = 2, n: int = 4) -> PortSource:
    """Conflict-free peak workload: port i always sends to (i+shift) mod n.

    Marked ``deterministic``: the returned destination is a pure function
    of the port, which is what licenses steady-state fast-forward.
    """

    def source(port: int) -> Tuple[int, int]:
        return ((port + shift) % n, words)

    source.deterministic = True
    return source


def saturated_uniform(words: int, rng, n: int = 4, exclude_self: bool = False) -> PortSource:
    """Uniform iid destinations (the thesis's "complete fairness" traffic)."""
    if exclude_self and n < 2:
        raise ValueError(
            "exclude_self needs at least 2 ports: with n=1 every draw is "
            "the self-destination and the rejection loop never terminates"
        )

    def source(port: int) -> Tuple[int, int]:
        while True:
            dest = int(rng.integers(0, n))
            if not exclude_self or dest != port:
                return (dest, words)

    return source


class CounterUniformSource:
    """Uniform iid destinations from counter-based (stateless-replayable)
    randomness: draw ``k`` for port ``p`` hashes ``(seed, p, k)``.

    Unlike :func:`saturated_uniform` (which consumes a shared sequential
    RNG), the only mutable state is one draw counter per port, so a run
    can be snapshot at any quantum boundary and resumed bit-identically
    in another process -- the property snapshot/resume needs from a
    stochastic workload.  Not marked ``deterministic``:
    the destination stream is aperiodic, so fast-forward never applies.
    """

    deterministic = False

    def __init__(self, words: int, seed: int, n: int = 4,
                 exclude_self: bool = True):
        if exclude_self and n < 2:
            raise ValueError(
                "exclude_self needs at least 2 ports: with n=1 every draw "
                "is the self-destination and the rejection loop never "
                "terminates"
            )
        self.words = words
        self.seed = counter_seed(seed)
        self.n = n
        self.exclude_self = exclude_self
        self._draws = [0] * n

    def __call__(self, port: int) -> Tuple[int, int]:
        k = self._draws[port]
        n = self.n
        while True:
            dest = zlib.crc32(struct.pack("<III", self.seed, port, k)) % n
            k += 1
            if not self.exclude_self or dest != port:
                break
        self._draws[port] = k
        return (dest, self.words)

    # -- snapshot protocol ----------------------------------------------
    def state(self) -> Tuple[int, ...]:
        return tuple(self._draws)

    def restore(self, state) -> "CounterUniformSource":
        if len(state) != self.n:
            raise ValueError("source state has the wrong port count")
        self._draws = list(state)
        return self


def saturated_uniform_counter(words: int, seed: int, n: int = 4,
                              exclude_self: bool = True) -> CounterUniformSource:
    """The resumable stochastic workload (see :class:`CounterUniformSource`)."""
    return CounterUniformSource(words, seed, n=n, exclude_self=exclude_self)


def saturated_hotspot(words: int, rng, hot: int = 0, p_hot: float = 0.7, n: int = 4) -> PortSource:
    """All inputs prefer one output with probability ``p_hot``."""
    if not 0.0 <= p_hot <= 1.0:
        raise ValueError("p_hot must be a probability")

    def source(port: int) -> Tuple[int, int]:
        if rng.random() < p_hot:
            return (hot, words)
        return (int(rng.integers(0, n)), words)

    return source
