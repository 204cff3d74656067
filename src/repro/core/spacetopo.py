"""Space-partitionable fabric topology: chips, boundary channels, windows.

:mod:`repro.core.compose` composes 4-port Rotating Crossbars into one
Clos fabric, but its step loop reads remote state inside a quantum
(same-quantum occupancy back-pressure, a global blocked reduction), so
it can only run in one process.  This module rebuilds the composition as
an explicitly *distributable* graph:

* a :class:`ChipNode` is one k-port Rotating Crossbar (token and
  per-input-leg FIFOs, stepping on the allocation table every chip of
  its size shares) making **local-only** decisions;
* a :class:`Channel` is a directed point-to-point link between chip legs
  with a fixed ``latency`` measured in routing quanta -- a fragment sent
  at quantum ``t`` becomes visible to the receiving chip at ``t +
  latency``, never earlier;
* a :class:`SpaceTopology` is the wiring: nodes, channels, and the
  external input/output port maps.

Because every cross-chip dependency flows through a fixed-latency
channel, a set of chips can advance ``L`` quanta (``L`` = the minimum
latency of any channel entering the set) using only fragments that were
sent before the window began.  That is the classic conservative
lookahead of distributed switch simulators (firesim's token-queue
switches use exactly this window), and it is what
:mod:`repro.parallel.space_shard` exploits: workers own disjoint node
sets and exchange one *window* of channel traffic per round instead of
synchronizing every quantum.

:class:`PartitionSim` is the single stepper both execution modes share:
the serial reference runs one instance owning every node, the
distributed run gives each worker an instance owning its partition plus
:meth:`~PartitionSim.inject` / :meth:`~PartitionSim.drain_outgoing` for
the boundary traffic.  Bit-identity between the two is therefore
structural -- same chip code, same per-channel FIFO order, same quantum
arithmetic -- and is property-tested across partition counts in
``tests/test_space_shard.py``.

Fragments are plain tuples ``(dest, words, is_last)`` so boundary
batches pickle cheaply over multiprocessing pipes.  Under an active
telemetry recorder a fourth element rides along -- a globally unique
journey tag minted at external admission (``admission_seq * num_ports +
port``, identical regardless of partitioning) -- so packet journeys
survive partition crossings: each partition records the marks it
witnesses into its local :class:`~repro.telemetry.journey.JourneyTracker`
(shared-key mode) and the coordinator folds the partial entries.  The
step code only ever indexes ``frag[0..2]``, so the extra element cannot
change simulation behavior, and with telemetry off fragments stay
3-tuples.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from repro.config import CostModel
from repro.core.allocator import plain_allocation, shared_compiled
from repro.core.phases import DEFAULT_TIMING, PhaseTiming, idle_quantum_cycles
from repro.core.ring import RingGeometry
from repro.core.token import RotatingToken
from repro.telemetry import runtime as _telemetry

#: A fragment crossing the space fabric: (global dest port, words, is_last)
#: plus an optional trailing journey tag when telemetry is recording.
SpaceFrag = Tuple[int, int, bool]


@dataclass(frozen=True)
class Channel:
    """A directed chip-to-chip link with fixed latency in quanta.

    ``latency >= 1`` is what makes the topology partitionable: a window
    of ``min latency`` quanta can be simulated without seeing the
    sender's current quantum.
    """

    cid: int
    src_node: int
    src_leg: int
    dst_node: int
    dst_leg: int
    latency: int

    def __post_init__(self):
        if self.latency < 1:
            raise ValueError("channel latency must be >= 1 quantum")


class SpaceTopology:
    """The partitionable fabric graph.

    ``k`` is the chip port count (each node is a k-port Rotating
    Crossbar ring); ``num_ports`` the external port count.  ``ext_in``
    maps a global input port to its (node, leg); ``ext_out`` maps an
    egress (node, leg) to its global output port.  :meth:`route` is the
    chip-local forwarding decision: which output leg a fragment for
    ``dest`` takes at ``node``.
    """

    def __init__(
        self,
        geometry: str,
        k: int,
        num_nodes: int,
        num_ports: int,
        channels: List[Channel],
        ext_in: Dict[int, Tuple[int, int]],
        ext_out: Dict[Tuple[int, int], int],
    ):
        self.geometry = geometry
        self.k = k
        self.num_nodes = num_nodes
        self.num_ports = num_ports
        self.channels = channels
        self.ext_in = ext_in
        self.ext_out = ext_out
        #: (node, leg) -> outgoing channel; each leg has at most one.
        self.out_channel: Dict[Tuple[int, int], Channel] = {}
        for ch in channels:
            key = (ch.src_node, ch.src_leg)
            if key in self.out_channel:
                raise ValueError(f"duplicate out-channel at {key}")
            self.out_channel[key] = ch

    # -- forwarding -----------------------------------------------------
    def route(self, node: int, dest: int) -> int:
        """The output leg a fragment for global port ``dest`` takes at
        ``node`` (clos: spread by dest over middles, then by egress
        chip, then the local output leg; torus: shortest way around the
        ring, ties broken toward +, then the local output leg)."""
        k = self.k
        if self.geometry == "torus":
            ext = k - 2
            d = dest // ext
            if d == node:
                return 2 + dest % ext
            delta = (d - node) % self.num_nodes
            return 0 if delta <= self.num_nodes - delta else 1
        if node < k:  # ingress chip -> middle index
            return dest % k
        if node < 2 * k:  # middle chip -> egress chip index
            return dest // k
        return dest % k  # egress chip -> local output leg

    @property
    def preferred_partitions(self) -> int:
        """The topology's natural worker count before the CPU clamp: the
        middle-stage chip count for a Clos (each stage block then holds
        whole chips), every chip for a torus."""
        return self.k if self.geometry == "clos" else self.num_nodes

    # -- partitioning ---------------------------------------------------
    def partition(self, parts: int) -> List[List[int]]:
        """Contiguous, balanced node blocks (first blocks get the
        remainder).  ``parts`` is clamped to ``num_nodes``."""
        parts = max(1, min(parts, self.num_nodes))
        base, rem = divmod(self.num_nodes, parts)
        blocks: List[List[int]] = []
        start = 0
        for i in range(parts):
            size = base + (1 if i < rem else 0)
            blocks.append(list(range(start, start + size)))
            start += size
        return blocks

    def boundary_channels(self, blocks: List[List[int]]) -> List[Channel]:
        """Channels whose endpoints live in different blocks."""
        owner = self.node_owner(blocks)
        return [
            ch for ch in self.channels
            if owner[ch.src_node] != owner[ch.dst_node]
        ]

    def node_owner(self, blocks: List[List[int]]) -> Dict[int, int]:
        owner: Dict[int, int] = {}
        for part, nodes in enumerate(blocks):
            for nid in nodes:
                owner[nid] = part
        if len(owner) != self.num_nodes:
            raise ValueError("partition does not cover every node exactly once")
        return owner

    def window(self, blocks: List[List[int]]) -> int:
        """The safe lookahead: min latency over inter-partition channels
        (the whole horizon when nothing crosses a boundary)."""
        boundary = self.boundary_channels(blocks)
        if not boundary:
            return 1 << 30
        return min(ch.latency for ch in boundary)


def clos_topology(k: int, latency: int = 1) -> SpaceTopology:
    """A three-stage Clos of 3k k-port crossbar chips (k*k ports).

    Node ids: ingress ``0..k-1``, middle ``k..2k-1``, egress
    ``2k..3k-1``.  Global input ``g`` enters ingress chip ``g // k`` on
    leg ``g % k``; ingress chip ``i`` leg ``m`` feeds middle chip ``m``
    leg ``i``; middle chip ``m`` leg ``o`` feeds egress chip ``o`` leg
    ``m``; egress chip ``o`` leg ``l`` is global output ``o*k + l``.
    Every inter-chip channel carries the same ``latency``.
    """
    if k < 2:
        raise ValueError("crossbar chips need at least 2 ports")
    channels: List[Channel] = []
    for i in range(k):
        for m in range(k):
            channels.append(Channel(
                cid=len(channels), src_node=i, src_leg=m,
                dst_node=k + m, dst_leg=i, latency=latency,
            ))
    for m in range(k):
        for o in range(k):
            channels.append(Channel(
                cid=len(channels), src_node=k + m, src_leg=o,
                dst_node=2 * k + o, dst_leg=m, latency=latency,
            ))
    ext_in = {g: (g // k, g % k) for g in range(k * k)}
    ext_out = {(2 * k + o, l): o * k + l for o in range(k) for l in range(k)}
    return SpaceTopology(
        geometry="clos", k=k, num_nodes=3 * k, num_ports=k * k,
        channels=channels, ext_in=ext_in, ext_out=ext_out,
    )


def torus_topology(k: int, latency: int = 1) -> SpaceTopology:
    """A 1-D bidirectional torus (ring) of ``k`` k-port crossbar chips.

    Node ids ``0..k-1`` around the ring.  Each chip spends leg ``0`` on
    its ``+1`` neighbor and leg ``1`` on its ``-1`` neighbor; legs
    ``2..k-1`` are external, so the fabric exposes ``k * (k - 2)``
    ports, global port ``g`` mapping to chip ``g // (k-2)`` leg
    ``2 + g % (k-2)`` for both input and output.  Channel ``2c`` runs
    ``c -> c+1`` (src leg 0 into dst leg 1), channel ``2c + 1`` runs
    ``c -> c-1`` (src leg 1 into dst leg 0); every channel carries the
    same ``latency``.  Unlike the feed-forward Clos, the partition graph
    is cyclic, so torus runs need the worker pool (the in-process
    toposort helper refuses them).
    """
    if k < 3:
        raise ValueError("a torus chip needs >= 3 ports (2 ring + 1 external)")
    channels: List[Channel] = []
    for c in range(k):
        channels.append(Channel(
            cid=len(channels), src_node=c, src_leg=0,
            dst_node=(c + 1) % k, dst_leg=1, latency=latency,
        ))
        channels.append(Channel(
            cid=len(channels), src_node=c, src_leg=1,
            dst_node=(c - 1) % k, dst_leg=0, latency=latency,
        ))
    ext = k - 2
    ext_in = {g: (g // ext, 2 + g % ext) for g in range(k * ext)}
    ext_out = {(c, 2 + l): c * ext + l for c in range(k) for l in range(ext)}
    return SpaceTopology(
        geometry="torus", k=k, num_nodes=k, num_ports=k * ext,
        channels=channels, ext_in=ext_in, ext_out=ext_out,
    )


#: Geometry name -> (ports for chip size k, topology builder).
GEOMETRIES = {
    "clos": (lambda k: k * k, clos_topology),
    "torus": (lambda k: k * (k - 2), torus_topology),
}


def geometry_ports(geometry: str, k: int) -> int:
    """External port count of ``geometry`` at chip size ``k`` without
    building the topology."""
    try:
        ports_of, _ = GEOMETRIES[geometry]
    except KeyError:
        raise ValueError(
            f"unknown space geometry {geometry!r}; expected one of "
            f"{tuple(GEOMETRIES)}"
        ) from None
    return ports_of(k)


def build_topology(geometry: str, k: int, latency: int = 1) -> SpaceTopology:
    try:
        _, builder = GEOMETRIES[geometry]
    except KeyError:
        raise ValueError(
            f"unknown space geometry {geometry!r}; expected one of "
            f"{tuple(GEOMETRIES)}"
        ) from None
    return builder(k, latency=latency)


def link_fault_windows(
    plan, num_channels: int
) -> Dict[int, List[Tuple[int, int]]]:
    """Normalize a fault plan into per-channel down-windows.

    The space fabric realizes exactly one fault kind: ``link_down`` on a
    ``"link:<cid>"`` target, with ``cycle``/``duration`` read in
    *quanta*.  A downed channel holds traffic: any fragment whose
    arrival quantum lands inside ``[cycle, cycle + duration)`` is
    deferred to the window's end.  Deferral is monotone (earlier
    arrivals never land after later ones), so per-channel FIFO order --
    the property bit-identity rests on -- survives.  Returns
    ``{cid: [(start, end), ...]}`` with overlaps merged; raises
    ``ValueError`` on any event the space fabric cannot realize.
    """
    windows: Dict[int, List[Tuple[int, int]]] = {}
    if not plan:
        return windows
    for ev in plan.events:
        if ev.kind != "link_down":
            raise ValueError(
                f"space fabric cannot realize fault kind {ev.kind!r}; "
                "only link_down on link:<cid> targets is supported"
            )
        if not ev.target.startswith("link:"):
            raise ValueError(
                f"space link faults need a link:<cid> target, got "
                f"{ev.target!r}"
            )
        try:
            cid = int(ev.target[5:])
        except ValueError:
            raise ValueError(
                f"space link faults need a link:<cid> target, got "
                f"{ev.target!r}"
            ) from None
        if not 0 <= cid < num_channels:
            raise ValueError(
                f"fault target channel {cid} out of range "
                f"(topology has {num_channels} channels)"
            )
        windows.setdefault(cid, []).append((ev.cycle, ev.end))
    for cid, ws in windows.items():
        ws.sort()
        merged = [ws[0]]
        for s, e in ws[1:]:
            if s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        windows[cid] = merged
    return windows


def plain_grant_hops(k: int):
    """The plain allocation rule in :meth:`CompiledAllocator.grant_hops
    <repro.core.allocator.CompiledAllocator.grant_hops>` form: the
    uncached oracle the compiled chip path is checked against."""
    ring = RingGeometry(k)

    def grant_hops(requests, token):
        alloc = plain_allocation(ring, 1, requests, token)
        grants = [(src, g.expansion) for src, g in alloc.grants.items()]
        return grants, len(alloc.blocked)

    return grant_hops


class ChipNode:
    """One k-port Rotating Crossbar chip with per-input-leg FIFOs.

    Queue entries are ``(frag, out_leg)`` -- the forwarding decision is
    made once at enqueue time, exactly like
    :class:`repro.core.compose._Crossbar`.  Every chip of size ``k``
    evaluates the allocation rule on the one process-wide compiled
    table (:func:`~repro.core.allocator.shared_compiled`) through its
    lean ``grant_hops`` path; ``cached=False`` swaps in the plain rule
    (:func:`plain_grant_hops`), the bit-identity oracle.
    """

    __slots__ = ("nid", "k", "grant_hops", "token", "queues")

    def __init__(self, nid: int, k: int, cached: bool = True):
        self.nid = nid
        self.k = k
        self.grant_hops = (
            shared_compiled(k).grant_hops if cached else plain_grant_hops(k)
        )
        self.token = RotatingToken(k)
        self.queues: List[Deque[Tuple[SpaceFrag, int]]] = [
            deque() for _ in range(k)
        ]

    def step(self) -> Tuple[List[Tuple[int, SpaceFrag]], int, int]:
        """One quantum: ([(out leg, frag)], body cycles, blocked count)."""
        queues = self.queues
        token = self.token
        if not any(queues):
            token.advance()
            return [], 0, 0
        grants, blocked = self.grant_hops(
            [q[0][1] if q else None for q in queues], token.master
        )
        moved: List[Tuple[int, SpaceFrag]] = []
        body = 0
        for src, hops in grants:
            frag, leg = queues[src].popleft()
            b = frag[1] + hops
            if b > body:
                body = b
            moved.append((leg, frag))
        token.advance()
        return moved, body, blocked


@dataclass
class PartStats:
    """One partition's accumulated counters: everything local plus the
    per-quantum body maxima that :func:`merge_part_stats` folds into the
    global clock.  Plain lists/ints, so worker results pickle cheaply.
    """

    num_ports: int
    delivered_words: int = 0
    delivered_packets: int = 0
    per_port_words: List[int] = field(default_factory=list)
    per_port_packets: List[int] = field(default_factory=list)
    blocked_events: int = 0
    #: max (words + expansion) over the partition's chips, one entry per
    #: *measured* quantum (0 = every owned chip idled that quantum).
    body_max: List[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.per_port_words:
            self.per_port_words = [0] * self.num_ports
        if not self.per_port_packets:
            self.per_port_packets = [0] * self.num_ports


class PartitionSim:
    """Advance one partition (a node subset plus its internal channels)
    quantum by quantum.

    Boundary traffic flows through :meth:`inject` (fragments received
    from other partitions) and :attr:`outgoing` / :meth:`drain_outgoing`
    (fragments this partition sent over boundary channels).  A serial
    run is simply a :class:`PartitionSim` owning every node -- no
    boundary traffic exists and the same code path executes.

    Every chip steps on the shared compiled allocation table;
    ``cached=False`` steps them on the plain rule instead (the oracle
    the identity tests and the bench's uncached baseline use).
    """

    def __init__(
        self,
        topo: SpaceTopology,
        node_ids: Iterable[int],
        costs: CostModel = CostModel.default(),
        cached: bool = True,
        max_quantum_words: Optional[int] = None,
        fault_plan=None,
    ):
        self.topo = topo
        self.costs = costs
        #: cid -> merged (start, end) down-windows; arrivals landing in
        #: a window defer to its end (identical on both halves of a cut
        #: boundary because the plan travels inside the spec).
        self._fault_windows = link_fault_windows(
            fault_plan, len(topo.channels)
        )
        self.owned = sorted(node_ids)
        own = set(self.owned)
        self.max_quantum_words = (
            costs.max_quantum_words
            if max_quantum_words is None
            else max_quantum_words
        )
        if self.max_quantum_words < 1:
            raise ValueError("max_quantum_words must be >= 1")
        self.nodes: Dict[int, ChipNode] = {
            nid: ChipNode(nid, topo.k, cached=cached)
            for nid in self.owned
        }
        #: Per-channel arrival FIFO of (arrival quantum, frag) for every
        #: channel terminating in this partition (internal or boundary).
        self.arrivals: Dict[int, Deque[Tuple[int, SpaceFrag]]] = {
            ch.cid: deque() for ch in topo.channels if ch.dst_node in own
        }
        self._in_cids = sorted(self.arrivals)
        #: Owned source legs: leg -> channel, split by whether the far
        #: end is also owned (internal) or not (boundary).
        self._channel_of: Dict[Tuple[int, int], Channel] = {}
        self._is_boundary: Dict[int, bool] = {}
        for ch in topo.channels:
            if ch.src_node in own:
                self._channel_of[(ch.src_node, ch.src_leg)] = ch
                self._is_boundary[ch.cid] = ch.dst_node not in own
        #: External inputs this partition drives, in global-port order.
        self._ext_in = sorted(
            (g, nid, leg) for g, (nid, leg) in topo.ext_in.items()
            if nid in own
        )
        self.outgoing: List[Tuple[int, int, SpaceFrag]] = []
        self.stats = PartStats(num_ports=topo.num_ports)
        #: Captured at construction like the other engines; shared-key
        #: journey mode because a journey's marks span partitions.
        self._tel = _telemetry.RECORDER
        if self._tel is not None:
            self._tel.journeys.share_keys()
        #: Per-external-port admission counter: the journey tag is
        #: ``seq * num_ports + port``, deterministic and identical for
        #: any partitioning (each port is admitted by exactly one
        #: partition, in the same order as the serial reference).
        self._adm_seq: Dict[int, int] = {}

    # -- boundary protocol ---------------------------------------------
    def _arrival(self, ch: Channel, send_quantum: int) -> int:
        """When a fragment sent at ``send_quantum`` becomes visible:
        ``latency`` quanta later, pushed to the end of any down-window
        it lands in (monotone, so per-channel FIFO order holds)."""
        arrival = send_quantum + ch.latency
        windows = self._fault_windows.get(ch.cid)
        if windows:
            for start, end in windows:
                if start <= arrival < end:
                    return end
                if arrival < start:
                    break
        return arrival

    def inject(self, cid: int, send_quantum: int, frag: SpaceFrag) -> None:
        """Deliver a boundary fragment: visible ``latency`` quanta after
        its send quantum (the receiver-side half of the token window)."""
        ch = self.topo.channels[cid]
        self.arrivals[cid].append((self._arrival(ch, send_quantum), frag))

    def drain_outgoing(self) -> List[Tuple[int, int, SpaceFrag]]:
        """(cid, send quantum, frag) sends since the last drain."""
        out = self.outgoing
        self.outgoing = []
        return out

    # -- the stepper ----------------------------------------------------
    def advance(self, source, q_start: int, count: int, warmup: int) -> None:
        """Simulate quanta ``[q_start, q_start + count)``; quanta ``>=
        warmup`` accumulate into :attr:`stats`.

        ``source`` follows the fabric ``PortSource`` protocol and must
        make per-port-independent draws (counter-based models): each
        partition polls only its own external ports, and the draws must
        match what a single process polling all ports would have seen.
        """
        topo = self.topo
        route = topo.route
        ext_out = topo.ext_out
        mqw = self.max_quantum_words
        stats = self.stats
        tel = self._tel
        for q in range(q_start, q_start + count):
            measuring = q >= warmup
            # 1. Channel deliveries due this quantum, in channel order
            #    (each leg has one feeding channel, so per-leg FIFO
            #    order is the channel's send order).
            for cid in self._in_cids:
                fifo = self.arrivals[cid]
                if not fifo or fifo[0][0] > q:
                    continue
                ch = topo.channels[cid]
                node = self.nodes[ch.dst_node]
                queue = node.queues[ch.dst_leg]
                while fifo and fifo[0][0] <= q:
                    _, frag = fifo.popleft()
                    queue.append((frag, route(ch.dst_node, frag[0])))
            # 2. External admissions (one packet when the leg idles).
            for g, nid, leg in self._ext_in:
                queue = self.nodes[nid].queues[leg]
                if queue:
                    continue
                pkt = source(g)
                if pkt is None:
                    continue
                dest, words = pkt
                if not 0 <= dest < topo.num_ports:
                    raise ValueError(f"destination {dest} out of range")
                if words < 1:
                    raise ValueError("packet must have at least one word")
                out_leg = route(nid, dest)
                if tel is not None:
                    seq = self._adm_seq.get(g, 0)
                    self._adm_seq[g] = seq + 1
                    tag = seq * topo.num_ports + g
                    jt = tel.journeys
                    jt.arrive(tag, g, q)
                    jt.lookup(
                        tag, dest, words * (self.costs.word_bits // 8), q
                    )
                    jt.enqueue(tag, q)
                    remaining = words
                    while remaining > 0:
                        w = min(remaining, mqw)
                        remaining -= w
                        queue.append(((dest, w, remaining == 0, tag), out_leg))
                    continue
                remaining = words
                while remaining > 0:
                    w = min(remaining, mqw)
                    remaining -= w
                    queue.append(((dest, w, remaining == 0), out_leg))
            # 3. Step every owned chip; grants fan out to channels,
            #    boundary batches, or external delivery.
            body = 0
            blocked = 0
            for nid in self.owned:
                moved, chip_body, chip_blocked = self.nodes[nid].step()
                if chip_body > body:
                    body = chip_body
                blocked += chip_blocked
                for leg, frag in moved:
                    if tel is not None and len(frag) > 3:
                        tel.journeys.hop(frag[3], q)
                    port = ext_out.get((nid, leg))
                    if port is not None:
                        if measuring:
                            stats.delivered_words += frag[1]
                            stats.per_port_words[port] += frag[1]
                            if frag[2]:
                                stats.delivered_packets += 1
                                stats.per_port_packets[port] += 1
                        if tel is not None and len(frag) > 3 and frag[2]:
                            tel.journeys.depart(frag[3], q)
                        continue
                    ch = self._channel_of[(nid, leg)]
                    if self._is_boundary[ch.cid]:
                        self.outgoing.append((ch.cid, q, frag))
                    else:
                        self.arrivals[ch.cid].append(
                            (self._arrival(ch, q), frag)
                        )
            if measuring:
                stats.body_max.append(body)
                stats.blocked_events += blocked


def merge_part_stats(
    parts: List[PartStats],
    num_ports: int,
    costs: CostModel,
    timing: Optional[PhaseTiming] = None,
) -> "FabricStats":
    """Fold partition counters into one :class:`FabricStats`.

    Local counters sum; the global quantum durations come from the
    element-wise max of the per-quantum body maxima (a quantum's length
    is set by its longest transfer anywhere in the fabric, and ``max``
    is associative, so any partition grouping merges identically).
    """
    from repro.core.fabricsim import FabricStats

    if not parts:
        raise ValueError("nothing to merge")
    if timing is None:
        timing = (
            DEFAULT_TIMING
            if costs.quantum_ctl_overhead == DEFAULT_TIMING.control_total
            else PhaseTiming.for_model(costs)
        )
    lengths = {len(p.body_max) for p in parts}
    if len(lengths) != 1:
        raise ValueError(
            "partitions measured different quantum counts: "
            f"{sorted(lengths)}"
        )
    quanta = lengths.pop()
    stats = FabricStats(num_ports=num_ports, costs=costs)
    stats.quanta = quanta
    body = [0] * quanta
    for p in parts:
        if p.num_ports != num_ports:
            raise ValueError("cannot merge stats with different port counts")
        stats.delivered_words += p.delivered_words
        stats.delivered_packets += p.delivered_packets
        stats.blocked_events += p.blocked_events
        for i, v in enumerate(p.per_port_words):
            stats.per_port_words[i] += v
        for i, v in enumerate(p.per_port_packets):
            stats.per_port_packets[i] += v
        for i, b in enumerate(p.body_max):
            if b > body[i]:
                body[i] = b
    ctl = timing.control_total
    idle = idle_quantum_cycles(timing)
    for b in body:
        if b:
            stats.cycles += ctl + b
        else:
            stats.idle_quanta += 1
            stats.cycles += idle
    return stats


def part_payload(stats: PartStats) -> Dict[str, Any]:
    """The picklable worker-result form of :class:`PartStats`."""
    return {
        "num_ports": stats.num_ports,
        "delivered_words": stats.delivered_words,
        "delivered_packets": stats.delivered_packets,
        "per_port_words": list(stats.per_port_words),
        "per_port_packets": list(stats.per_port_packets),
        "blocked_events": stats.blocked_events,
        "body_max": list(stats.body_max),
    }


def payload_to_stats(payload: Dict[str, Any]) -> PartStats:
    return PartStats(**payload)
