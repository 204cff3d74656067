"""Space-partitioned distributed fabric: token-window worker processes.

This module shards one fabric run's topology in *space*.  A
:class:`~repro.core.spacetopo.SpaceTopology` (a Clos of k-port Rotating
Crossbar chips) is cut into ``P`` partitions of whole chips; each worker
process owns one partition and advances it locally for ``L`` quanta
(``L`` = the minimum latency of any inter-partition channel) before
exchanging one *window* of boundary traffic with its peers -- the
firesim token-queue discipline, where every boundary link carries a
link-latency window's worth of flit tokens per round instead of a
per-cycle handshake.

Why this is safe (the conservative-lookahead argument, DESIGN.md §13):
a fragment consumed during round ``r`` (quanta ``[rL, (r+1)L)``) arrives
at ``send_quantum + latency >= send_quantum + L``, so it was sent at a
quantum ``< rL`` -- i.e. during some round ``<= r - 1``, whose batches
the receiver holds before round ``r`` begins.  The (worker, round)
dependency graph is acyclic, so the protocol cannot deadlock, and no
worker ever needs a peer's *current* quantum.

Bit-identity with the serial reference is structural: both paths run the
same :class:`~repro.core.spacetopo.PartitionSim` stepper (serial = one
instance owning every chip) and the same associative
:func:`~repro.core.spacetopo.merge_part_stats` fold; property tests in
``tests/test_space_shard.py`` pin P ∈ {1, 2, 4, 5} against serial across
chip sizes and traffic families.

Workers are *persistent*: :class:`SpaceWorkerPool` keeps the processes
warm between runs and streams successive :class:`SpaceSpec` s to them
over command pipes -- the seed of the long-lived simulator service the
ROADMAP names.  Boundary batches travel over a pluggable transport
(:mod:`repro.parallel.transport`): multiprocessing pipes (the compat
default), shared-memory flit rings (fixed-layout numpy records, no
pickling on the hot path), or TCP sockets (``repro serve`` workers on
other machines).  All transports preserve the pipelining property: a
worker that finished its window blocks only on the specific peers
feeding it.

Two adaptive knobs sit on top, both bit-identity-preserving:

* **Adaptive window coalescing** (``SpaceSpec.adaptive_window``): a
  worker whose in-peers have already shipped their *next* window
  batches -- provably idle boundary channels, in the conservative-
  lookahead sense that every fragment that could arrive in the widened
  span is in hand -- injects them early and advances several windows
  in one stride.  Outgoing traffic is still framed one batch per round
  (bucketed by ``send_quantum // window``), so receivers are none the
  wiser; partitions with no incoming boundary channels (a Clos ingress
  stage) coalesce their entire timeline.
* **Adaptive partition counts** (:func:`auto_partitions`,
  ``partitions=0`` in the engine/CLI layer): P defaults to
  ``min(middle-stage chips, cpu_count)`` instead of a hard-coded
  constant.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.config import CostModel
from repro.core.fabricsim import (
    FabricStats,
    saturated_permutation,
    saturated_uniform_counter,
)
from repro.core.spacetopo import (
    PartitionSim,
    SpaceTopology,
    build_topology,
    geometry_ports,
    merge_part_stats,
    part_payload,
    payload_to_stats,
)
from repro.faults.plan import FaultPlan
from repro.parallel import transport as _transport
from repro.telemetry import runtime as _telemetry


@dataclass(frozen=True)
class SpaceSpec:
    """A picklable description of one space-partitionable fabric run.

    ``k`` is the chip port count; a ``"clos"`` geometry yields ``k * k``
    external ports on ``3k`` chips.  ``latency`` is the uniform
    inter-chip channel latency in quanta and therefore the token window.
    ``source`` is a declarative workload: ``{"kind": "permutation",
    "words": W, "shift": k}``, ``{"kind": "uniform_counter", "words": W,
    "seed": s, "exclude_self": bool}``, or ``{"kind": "traffic", ...}``
    from :func:`repro.traffic.build.shard_source` -- always instantiated
    counter-based so per-port draws are partition-independent.
    """

    k: int = 4
    geometry: str = "clos"
    latency: int = 4
    partitions: int = 3
    costs: CostModel = field(default_factory=CostModel.default)
    source: Tuple[Tuple[str, Any], ...] = (("kind", "permutation"), ("words", 256))
    quanta: int = 2000
    warmup_quanta: int = 200
    adaptive_window: bool = True  #: coalesce windows over idle boundaries
    max_coalesce: int = 64  #: most windows one adaptive stride may cover
    fault_plan: Optional[FaultPlan] = None  #: intra-partition link faults

    def __post_init__(self):
        if self.latency < 1:
            raise ValueError("channel latency must be >= 1 quantum")
        if self.partitions < 1:
            raise ValueError("partitions must be >= 1")
        if self.warmup_quanta < 0 or self.quanta < 1:
            raise ValueError("need quanta >= 1 and warmup_quanta >= 0")
        if self.max_coalesce < 1:
            raise ValueError("max_coalesce must be >= 1")

    @property
    def num_ports(self) -> int:
        return geometry_ports(self.geometry, self.k)

    def source_dict(self) -> Dict[str, Any]:
        return dict(self.source)

    @staticmethod
    def pack_source(source: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
        """Dict -> hashable/picklable tuple form for the frozen spec."""
        return tuple(sorted(source.items()))

    def topology(self) -> SpaceTopology:
        return build_topology(self.geometry, self.k, latency=self.latency)


@dataclass
class SpaceRunInfo:
    """How a space-partitioned run was actually executed, including the
    per-worker window/stall/boundary counters surfaced in
    ``RunResult.extra`` and ``Telemetry.summary()``."""

    partitions: int
    workers: int
    window: int
    rounds: int
    node_blocks: List[List[int]]
    windows_per_worker: List[int]
    pipe_stall_s: List[float]
    boundary_flits: List[int]
    serial_fallback: bool = False
    fallback_reason: str = ""
    transport: str = "pipe"
    bytes_moved: List[int] = field(default_factory=list)
    coalesced_rounds: List[int] = field(default_factory=list)
    partitions_auto: bool = False

    def extra_dict(self) -> Dict[str, Any]:
        """The JSON-safe form attached to ``RunResult.extra``."""
        return {
            "partitions": self.partitions,
            "workers": self.workers,
            "window": self.window,
            "rounds": self.rounds,
            "windows_per_worker": list(self.windows_per_worker),
            "pipe_stall_s": [round(s, 6) for s in self.pipe_stall_s],
            "boundary_flits": list(self.boundary_flits),
            "serial_fallback": self.serial_fallback,
            "fallback_reason": self.fallback_reason,
            "transport": self.transport,
            "bytes_moved": list(self.bytes_moved),
            "coalesced_rounds": list(self.coalesced_rounds),
            "partitions_auto": self.partitions_auto,
        }


def make_space_source(spec: SpaceSpec):
    """Instantiate the declarative workload for ``spec.num_ports`` ports.

    Every supported kind draws per-port from independent counters, which
    is what lets a partition poll only its own external ports and still
    reproduce the serial draw sequence exactly.
    """
    src = spec.source_dict()
    kind = src["kind"]
    n = spec.num_ports
    if kind == "permutation":
        return saturated_permutation(src["words"], shift=src.get("shift", 2), n=n)
    if kind == "uniform_counter":
        return saturated_uniform_counter(
            src["words"],
            src["seed"],
            n=n,
            exclude_self=src.get("exclude_self", True),
        )
    if kind == "traffic":
        from repro.traffic.build import fabric_source_for_shard

        return fabric_source_for_shard(src, ports=n, costs=spec.costs)
    raise ValueError(f"unknown space source kind {kind!r}")


def build_partition(
    spec: SpaceSpec, topo: SpaceTopology, node_ids, cached: bool = True
) -> PartitionSim:
    return PartitionSim(
        topo,
        node_ids,
        costs=spec.costs,
        cached=cached,
        fault_plan=spec.fault_plan,
    )


def auto_partitions(topo: SpaceTopology) -> int:
    """The adaptive partition-count heuristic: as many workers as the
    topology's natural cut width supports, bounded by the cores actually
    available -- ``min(middle-stage chips, cpu_count)`` for a Clos.
    Returns 1 on single-core boxes (the silent serial fallback)."""
    import os as _os

    cpus = _os.cpu_count() or 1
    return max(1, min(topo.preferred_partitions, cpus))


#: Associative/commutative per-backend counter keys folded through the
#: telemetry merge path (sum-merge; see :func:`merge_backend_counters`).
BACKEND_COUNTER_KEYS = (
    "windows",
    "boundary_flits",
    "bytes_moved",
    "coalesced_rounds",
)


def backend_counters(info: SpaceRunInfo) -> Dict[str, int]:
    """One worker-set's transport counters in sum-mergeable form."""
    return {
        "windows": sum(info.windows_per_worker),
        "boundary_flits": sum(info.boundary_flits),
        "bytes_moved": sum(info.bytes_moved),
        "coalesced_rounds": sum(info.coalesced_rounds),
    }


def merge_backend_counters(
    a: Dict[str, int], b: Dict[str, int]
) -> Dict[str, int]:
    """Sum-merge two per-backend counter dicts (associative and
    commutative over integer counters, so partial merges fold in any
    order -- the same algebra the telemetry merge path relies on)."""
    out = dict(a)
    for key, val in b.items():
        out[key] = out.get(key, 0) + val
    return out


def run_space_serial(spec: SpaceSpec, cached: bool = True) -> FabricStats:
    """The single-process reference: one :class:`PartitionSim` owning
    every chip, stepped over the whole timeline on the shared compiled
    allocation table (``cached=False`` steps on the plain rule instead:
    the oracle the identity tests and the bench's uncached baseline
    use)."""
    topo = spec.topology()
    sim = build_partition(spec, topo, range(topo.num_nodes), cached=cached)
    source = make_space_source(spec)
    sim.advance(source, 0, spec.warmup_quanta + spec.quanta, spec.warmup_quanta)
    if sim.outgoing:
        raise AssertionError("serial partition produced boundary traffic")
    return merge_part_stats([sim.stats], topo.num_ports, spec.costs)


# ---------------------------------------------------------------------------
# The worker side: one process per partition, persistent across runs.
# ---------------------------------------------------------------------------
def _simulate_partition(
    spec: SpaceSpec,
    part_id: int,
    blocks: List[List[int]],
    recv_fns: Dict[int, Any],
    send_fns: Dict[int, Any],
    poll_fns: Optional[Dict[int, Any]] = None,
    tel_cfg: Optional[Dict[str, Any]] = None,
    snap_fn=None,
) -> Tuple:
    """Run one partition's token-window rounds.

    ``recv_fns[peer]()`` blocks until that peer's next batch arrives;
    ``send_fns[peer](batch)`` ships one; ``poll_fns[peer]()`` (optional)
    reports whether a batch is already waiting -- the hook adaptive
    window coalescing needs.  Returns ``(stats payload, windows,
    pipe-stall seconds, boundary flits sent, coalesced rounds)`` -- plus
    the worker-local telemetry state when ``tel_cfg`` asked for
    recording.  The same function drives the multiprocessing workers
    (any transport) and the in-process fallback used by tests.

    ``tel_cfg`` (from :meth:`Telemetry.config` plus ``port_classes``)
    installs a fresh *worker-local* recorder for the duration: journeys
    use shared-key mode so partial cross-partition entries fold on the
    coordinator, and per-worker gauges/snapshots describe this
    partition.  ``snap_fn(state)``, when given, streams a full
    point-in-time state every few rounds (each snap *replaces* the
    worker's previous one -- consumers keep the latest per worker).
    """
    topo = spec.topology()
    owner = topo.node_owner(blocks)
    prev_recorder = _telemetry.RECORDER
    tel = None
    if tel_cfg is not None:
        tel = _telemetry.Telemetry(
            capacity=tel_cfg.get("capacity", 65536),
            snapshot_interval=tel_cfg.get("snapshot_interval", 0),
            detail_limit=tel_cfg.get("detail_limit", 64),
        )
        tel.journeys.share_keys()
        if tel_cfg.get("port_classes"):
            tel.journeys.set_port_classes(tel_cfg["port_classes"])
        _telemetry.RECORDER = tel
    try:
        return _run_partition_rounds(
            spec, part_id, blocks, recv_fns, send_fns, poll_fns, topo,
            owner, tel, snap_fn,
        )
    finally:
        _telemetry.RECORDER = prev_recorder


def _run_partition_rounds(
    spec: SpaceSpec,
    part_id: int,
    blocks: List[List[int]],
    recv_fns: Dict[int, Any],
    send_fns: Dict[int, Any],
    poll_fns: Optional[Dict[int, Any]],
    topo: SpaceTopology,
    owner: Dict[int, int],
    tel,
    snap_fn,
) -> Tuple:
    sim = build_partition(spec, topo, blocks[part_id])
    source = make_space_source(spec)
    if tel is not None:
        reg = tel.registry
        reg.gauge("space.delivered_words",
                  lambda: sim.stats.delivered_words)
        reg.gauge("space.delivered_packets",
                  lambda: sim.stats.delivered_packets)
        reg.gauge("space.blocked_events",
                  lambda: sim.stats.blocked_events)
    window = min(topo.window(blocks), spec.warmup_quanta + spec.quanta)
    in_peers = sorted(
        {
            owner[ch.src_node]
            for ch in topo.channels
            if owner[ch.dst_node] == part_id and owner[ch.src_node] != part_id
        }
    )
    out_peers = sorted(
        {
            owner[ch.dst_node]
            for ch in topo.channels
            if owner[ch.src_node] == part_id and owner[ch.dst_node] != part_id
        }
    )
    total = spec.warmup_quanta + spec.quanta
    rounds = -(-total // window)
    # Stream at most ~16 live snaps per run so snap traffic stays small
    # relative to the boundary batches.
    snap_every = max(1, rounds // 16) if snap_fn is not None else 0
    # Adaptive coalescing stays off under telemetry: snapshot cadence is
    # keyed to the per-round advance, and determinism of the exported
    # state matters more there than wall-clock.
    adaptive = (
        spec.adaptive_window and tel is None and poll_fns is not None
    )
    stall = 0.0
    flits_sent = 0
    coalesced = 0
    q = 0
    r = 0
    while r < rounds:
        if r > 0:
            # Collect every in-peer's round r-1 window in peer order; the
            # per-channel FIFOs inside inject() preserve send order, so
            # arrival order at each input leg matches the serial run.
            for peer in in_peers:
                t0 = time.perf_counter()
                batch = recv_fns[peer]()
                stall += time.perf_counter() - t0
                for cid, send_q, frag in batch:
                    sim.inject(cid, send_q, frag)
        # Widen the stride while every in-peer's *next* window batch has
        # already arrived: holding batch r+s-1 from all feeders means
        # every fragment that can arrive before quantum (r+s+1)*window
        # is in hand (conservative lookahead), so rounds r..r+s can run
        # in one advance.  Partitions with no in-peers (all([]) is True)
        # coalesce their whole timeline.
        span = 1
        if adaptive:
            limit = min(spec.max_coalesce, rounds - r)
            while span < limit and all(
                poll_fns[peer]() for peer in in_peers
            ):
                for peer in in_peers:
                    for cid, send_q, frag in recv_fns[peer]():
                        sim.inject(cid, send_q, frag)
                span += 1
        count = min(span * window, total - q)
        sim.advance(source, q, count, spec.warmup_quanta)
        q += count
        if tel is not None:
            tel.registry.maybe_snapshot(q)
        if snap_every and (r + 1) % snap_every == 0 and r < rounds - 1:
            snap_fn(tel.to_state(worker=part_id,
                                 meta={"partition": part_id, "round": r + 1}))
        # Ship boundary sends framed exactly one batch per covered round
        # per out-peer (empty batches included -- the receiver counts
        # arrivals, not contents, to know a window is complete), so a
        # coalescing sender is indistinguishable from a round-at-a-time
        # one.  The final protocol round never ships.
        out = sim.drain_outgoing()
        flits_sent += len(out)
        send_hi = min(r + span, rounds - 1)
        if send_hi > r:
            buckets: Dict[int, Dict[int, List[Tuple[int, int, Any]]]] = {
                rr: {peer: [] for peer in out_peers}
                for rr in range(r, send_hi)
            }
            for cid, send_q, frag in out:
                rr = send_q // window
                if rr >= send_hi:
                    continue  # final-round traffic drains but never ships
                dst_part = owner[topo.channels[cid].dst_node]
                buckets[rr][dst_part].append((cid, send_q, frag))
            for rr in range(r, send_hi):
                for peer in out_peers:
                    send_fns[peer](buckets[rr][peer])
        coalesced += span - 1
        r += span
    if tel is None:
        return part_payload(sim.stats), rounds, stall, flits_sent, coalesced
    tel.registry.snapshot(q)
    state = tel.to_state(worker=part_id,
                         meta={"partition": part_id, "rounds": rounds,
                               "chips": len(blocks[part_id])})
    return (part_payload(sim.stats), rounds, stall, flits_sent, coalesced,
            state)


def _space_worker(part_id, cmd_conn, link):
    """Persistent worker loop: block on the command channel, run one
    partition per ``("run", spec, blocks, tel_cfg)`` message, exit on
    ``None`` (or the coordinator hanging up).  Live telemetry snaps
    stream back over the same channel as ``("snap", part_id, state)``
    messages ahead of the terminal ``("ok", result, bytes_sent)`` /
    ``("err", msg)``.  ``link`` is any transport worker link (pipe
    bundle, shm ring bundle, or the socket :class:`HubEndpoint`, which
    doubles as ``cmd_conn``)."""
    # The fork start method hands children the parent's recorder; each
    # run installs its own local one (or none) via tel_cfg instead.
    _telemetry.RECORDER = None
    ports = link.open()
    # The socket hub demultiplexes commands from relayed data batches.
    recv_cmd = getattr(cmd_conn, "recv_cmd", None) or cmd_conn.recv
    try:
        while True:
            try:
                msg = recv_cmd()
            except EOFError:
                return
            if msg is None:
                return
            _tag, spec, blocks, tel_cfg = msg
            ports.reset_counters()
            try:
                result = _simulate_partition(
                    spec, part_id, blocks,
                    ports.recv_fns, ports.send_fns,
                    poll_fns=ports.poll_fns,
                    tel_cfg=tel_cfg,
                    snap_fn=(
                        (lambda state: cmd_conn.send(
                            ("snap", part_id, state)))
                        if tel_cfg is not None and tel_cfg.get("stream_snaps")
                        else None
                    ),
                )
                cmd_conn.send(("ok", result, ports.bytes_sent()))
            except Exception as exc:  # surfaced in the parent
                cmd_conn.send(("err", f"{type(exc).__name__}: {exc}"))
    finally:
        ports.close()


class SpaceWorkerPool:
    """A warm pool of ``P`` partition workers plus their boundary links.

    Construction launches the workers over the chosen transport backend
    (``"pipe"`` pickle-over-pipe, ``"shm"`` shared-memory flit rings, or
    ``"socket"`` / ``"socket:HOST:PORT"`` TCP hub -- see
    :mod:`repro.parallel.transport`) with one directed boundary link per
    ordered partition pair (full mesh -- any geometry's boundary graph
    is a subgraph).  :meth:`run` streams a :class:`SpaceSpec` to every
    worker and gathers the merged stats; the workers survive between
    runs, so successive workloads skip process/link setup entirely.
    Use as a context manager or call :meth:`close`.
    """

    def __init__(
        self,
        partitions: int,
        transport: str = "pipe",
        authkey: bytes = _transport.DEFAULT_AUTHKEY,
    ):
        if partitions < 2:
            raise ValueError("a worker pool needs at least 2 partitions")
        self.partitions = partitions
        self.transport = _transport.transport_name(transport)
        self._backend = _transport.create(transport, partitions,
                                          authkey=authkey)
        self._backend.launch(_space_worker)
        self.runs = 0

    # ------------------------------------------------------------------
    def run(
        self,
        spec: SpaceSpec,
        tel_cfg: Optional[Dict[str, Any]] = None,
        on_snapshot=None,
    ) -> Tuple[FabricStats, SpaceRunInfo]:
        """Run ``spec`` across the pool.

        ``tel_cfg`` (see :func:`_simulate_partition`) makes every worker
        record into a local telemetry recorder; the shipped states are
        folded into the coordinator's active recorder in partition
        order.  ``on_snapshot(part_id, state)`` receives the live
        mid-run snaps (implies streaming); each snap replaces the
        worker's previous one.
        """
        from multiprocessing.connection import wait as _conn_wait

        if spec.partitions != self.partitions:
            raise ValueError(
                f"pool has {self.partitions} workers; spec wants "
                f"{spec.partitions} partitions"
            )
        topo = spec.topology()
        blocks = topo.partition(self.partitions)
        if len(blocks) != self.partitions:
            raise ValueError(
                f"{self.partitions} partitions over {topo.num_nodes} chips "
                "leaves empty workers; lower --partitions"
            )
        if tel_cfg is not None and on_snapshot is not None:
            tel_cfg = dict(tel_cfg, stream_snaps=True)
        cmd_conns = self._backend.cmd_conns
        for conn in cmd_conns:
            conn.send(("run", spec, blocks, tel_cfg))
        results: Dict[int, Tuple] = {}
        worker_bytes: Dict[int, int] = {}
        errors = []
        part_of = {id(conn): p for p, conn in enumerate(cmd_conns)}
        pending = list(cmd_conns)
        while pending:
            for conn in _conn_wait(pending):
                p = part_of[id(conn)]
                try:
                    msg = conn.recv()
                except EOFError:
                    errors.append(f"partition {p}: worker died")
                    pending.remove(conn)
                    continue
                if msg[0] == "data":
                    # Socket hub: boundary batches relay through the
                    # coordinator; the payload stays pickled end to end.
                    self._backend.route_data(p, msg)
                    continue
                if msg[0] == "snap":
                    if on_snapshot is not None:
                        on_snapshot(msg[1], msg[2])
                    continue
                pending.remove(conn)
                if msg[0] != "ok":
                    errors.append(f"partition {p}: {msg[1]}")
                else:
                    results[p] = msg[1]
                    worker_bytes[p] = msg[2] if len(msg) > 2 else 0
        if errors:
            raise RuntimeError("space workers failed: " + "; ".join(errors))
        self.runs += 1
        ordered = [results[p] for p in range(self.partitions)]
        payloads = [r[0] for r in ordered]
        rounds_seen = [r[1] for r in ordered]
        stalls = [r[2] for r in ordered]
        flits = [r[3] for r in ordered]
        coalesced = [r[4] for r in ordered]
        if tel_cfg is not None and _telemetry.RECORDER is not None:
            for r in ordered:
                _telemetry.RECORDER.merge_state(r[5])
        stats = merge_part_stats(
            [payload_to_stats(p) for p in payloads], topo.num_ports, spec.costs
        )
        info = SpaceRunInfo(
            partitions=self.partitions,
            workers=self.partitions,
            window=min(topo.window(blocks), spec.warmup_quanta + spec.quanta),
            rounds=max(rounds_seen),
            node_blocks=blocks,
            windows_per_worker=rounds_seen,
            pipe_stall_s=stalls,
            boundary_flits=flits,
            transport=self.transport,
            bytes_moved=[worker_bytes[p] for p in range(self.partitions)],
            coalesced_rounds=coalesced,
        )
        return stats, info

    # ------------------------------------------------------------------
    def close(self) -> None:
        if getattr(self, "_backend", None) is not None:
            self._backend.close()
            self._backend = None

    def __enter__(self) -> "SpaceWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        if getattr(self, "_backend", None) is not None:
            self.close()


# ---------------------------------------------------------------------------
# The driver.
# ---------------------------------------------------------------------------
def run_space(
    spec: SpaceSpec,
    pool: Optional[SpaceWorkerPool] = None,
    on_snapshot=None,
    transport: str = "pipe",
) -> Tuple[FabricStats, SpaceRunInfo]:
    """Run ``spec`` space-partitioned; bit-identical to
    :func:`run_space_serial`.

    An active telemetry recorder is honored on *both* paths: each worker
    records into a local recorder whose state ships back over the
    command pipe and folds into the coordinator's, so a distributed run
    under telemetry is indistinguishable from a single-process one
    (journeys use shared-key tags, so even packets crossing partitions
    stitch back together).  Only ``partitions == 1`` stays in-process --
    silently, because one partition *is* a single-process run.
    ``on_snapshot(part_id, state)`` streams live mid-run worker states
    (distributed runs only).  A supplied warm ``pool`` is used as-is
    (its transport wins); otherwise a throwaway pool on ``transport``
    is created and torn down around the run.
    """
    tel = _telemetry.RECORDER
    if spec.partitions == 1:
        if tel is not None:
            tel.journeys.share_keys()
        stats = run_space_serial(spec)
        topo = spec.topology()
        blocks = topo.partition(1)
        info = SpaceRunInfo(
            partitions=spec.partitions,
            workers=1,
            window=min(topo.window(blocks), spec.warmup_quanta + spec.quanta),
            rounds=1,
            node_blocks=blocks,
            windows_per_worker=[1],
            pipe_stall_s=[0.0],
            boundary_flits=[0],
            serial_fallback=True,
            fallback_reason="partitions=1",
            transport=_transport.transport_name(transport),
            bytes_moved=[0],
            coalesced_rounds=[0],
        )
        if tel is not None:
            tel.journeys.finalize()
        _register_gauges(info)
        return stats, info
    tel_cfg = None
    if tel is not None:
        tel_cfg = dict(tel.config())
        if tel.journeys.port_classes:
            tel_cfg["port_classes"] = list(tel.journeys.port_classes)
    owned_pool = pool is None
    if owned_pool:
        pool = SpaceWorkerPool(spec.partitions, transport=transport)
    try:
        stats, info = pool.run(spec, tel_cfg=tel_cfg, on_snapshot=on_snapshot)
    finally:
        if owned_pool:
            pool.close()
    if tel is not None:
        # Every worker state is folded in; convert the partial
        # cross-partition journey entries into final histograms.
        tel.journeys.finalize()
    _register_gauges(info)
    return stats, info


def _register_gauges(info: SpaceRunInfo) -> None:
    """Publish the distributed-run counters to an active recorder.
    ``pipe_stall_s`` is wall-clock and therefore volatile: it stays out
    of snapshots and exported JSON, which must be deterministic."""
    tel = _telemetry.RECORDER
    if tel is None:
        return
    reg = tel.registry
    reg.set_gauge("space.windows", sum(info.windows_per_worker))
    reg.set_gauge("space.pipe_stall_s", round(sum(info.pipe_stall_s), 6),
                  volatile=True)
    reg.set_gauge("space.boundary_flits", sum(info.boundary_flits))
    reg.set_gauge("space.partitions", info.partitions)
    reg.set_gauge("space.serial_fallback", info.serial_fallback)
    reg.set_gauge("space.bytes_moved", sum(info.bytes_moved))
    # Coalescing depends on arrival timing (and is disabled entirely
    # when telemetry records), so the count is volatile like stall time.
    reg.set_gauge("space.coalesced_rounds", sum(info.coalesced_rounds),
                  volatile=True)


# ---------------------------------------------------------------------------
# In-process round loop (no processes): used by tests to exercise the
# exact window protocol deterministically under unequal partitions.
# ---------------------------------------------------------------------------
def run_space_inprocess(spec: SpaceSpec) -> Tuple[FabricStats, SpaceRunInfo]:
    """Execute the token-window protocol with all partitions in one
    process, interleaved round-robin via queue-backed pipes.

    Same :func:`_simulate_partition` code as the worker processes --
    only the transport differs (plain lists instead of pipes) -- so it
    pins the *protocol* (window sizing, batch ordering, unequal
    partition sizes) without multiprocessing nondeterminism.
    """
    from collections import deque as _dq

    topo = spec.topology()
    blocks = topo.partition(spec.partitions)
    parts = len(blocks)
    mailboxes: Dict[Tuple[int, int], Any] = {
        (src, dst): _dq()
        for src in range(parts)
        for dst in range(parts)
        if src != dst
    }

    def recv_fn(src: int, dst: int):
        def _recv():
            box = mailboxes[(src, dst)]
            if not box:
                raise RuntimeError(
                    f"deadlock: partition {dst} waiting on {src} with an "
                    "empty mailbox (window protocol violated)"
                )
            return box.popleft()

        return _recv

    def poll_fn(src: int, dst: int):
        return lambda: bool(mailboxes[(src, dst)])

    results = []
    # Round-robin co-execution: because each round's receives depend only
    # on the previous round's sends, running partitions to completion one
    # at a time *in any order* would deadlock, but stepping them through
    # the protocol as generators is unnecessary -- sends all happen
    # before the next round's receives, so executing partitions in order
    # per *round* works.  _simulate_partition runs the whole timeline,
    # so instead exploit the acyclic dependency: run partitions in an
    # order where every in-peer batch is already present.  For arbitrary
    # graphs that order may not exist within a single pass, so this
    # helper simply pre-computes each partition fully, relying on the
    # protocol property that partition p's round-r sends never depend on
    # any other partition's round-r sends ... which holds only for
    # DAG-ordered topologies like the feed-forward Clos (ingress ->
    # middle -> egress).  The general case is what the process pool is
    # for; tests use this helper on Clos only.
    order = _toposort_partitions(topo, blocks)
    for part_id in order:
        recv_fns = {
            src: recv_fn(src, part_id)
            for src in range(parts)
            if (src, part_id) in mailboxes
        }
        send_fns = {
            dst: mailboxes[(part_id, dst)].append
            for dst in range(parts)
            if (part_id, dst) in mailboxes
        }
        poll_fns = {
            src: poll_fn(src, part_id)
            for src in range(parts)
            if (src, part_id) in mailboxes
        }
        results.append(
            (part_id,
             _simulate_partition(spec, part_id, blocks, recv_fns, send_fns,
                                 poll_fns=poll_fns))
        )
    results.sort()
    payloads = [payload_to_stats(r[1][0]) for r in results]
    stats = merge_part_stats(payloads, topo.num_ports, spec.costs)
    info = SpaceRunInfo(
        partitions=parts,
        workers=1,
        window=min(topo.window(blocks), spec.warmup_quanta + spec.quanta),
        rounds=max(r[1][1] for r in results),
        node_blocks=blocks,
        windows_per_worker=[r[1][1] for r in results],
        pipe_stall_s=[r[1][2] for r in results],
        boundary_flits=[r[1][3] for r in results],
        transport="inprocess",
        bytes_moved=[0 for _ in results],
        coalesced_rounds=[r[1][4] for r in results],
    )
    return stats, info


def _toposort_partitions(
    topo: SpaceTopology, blocks: List[List[int]]
) -> List[int]:
    """Partition order where every boundary producer precedes its
    consumers; raises on cyclic partition graphs (those need the real
    process pool)."""
    owner = topo.node_owner(blocks)
    parts = len(blocks)
    deps: Dict[int, set] = {p: set() for p in range(parts)}
    for ch in topo.channels:
        a, b = owner[ch.src_node], owner[ch.dst_node]
        if a != b:
            deps[b].add(a)
    order: List[int] = []
    ready = [p for p in range(parts) if not deps[p]]
    while ready:
        p = ready.pop()
        order.append(p)
        for q in range(parts):
            if p in deps[q]:
                deps[q].discard(p)
                if not deps[q]:
                    ready.append(q)
    if len(order) != parts:
        raise ValueError(
            "cyclic partition graph: in-process execution needs a "
            "feed-forward topology (use the worker pool)"
        )
    return order


# ---------------------------------------------------------------------------
# The multi-machine worker entry point (``python -m repro serve``).
# ---------------------------------------------------------------------------
def serve_worker(
    address: str, authkey: bytes = _transport.DEFAULT_AUTHKEY
) -> int:
    """Connect to a ``socket:HOST:PORT`` coordinator and serve space
    partitions until it hangs up.  ``address`` is ``HOST:PORT``."""
    host, _, port = address.rpartition(":")
    if not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {address!r}")
    return _transport._serve_client(
        (host or "127.0.0.1", int(port)), authkey, _space_worker
    )
