"""Section 8.5 realized: a (k*k)-port router from 3k k-port crossbars.

The thesis's scaling future-work: compose the 4-port Rotating Crossbar
rather than grow one ring.  This experiment measures why -- the single
k*k-ring's bisection caps antipodal permutations near the 4-port rate,
while a three-stage Clos of kxk Rotating Crossbars (with adaptive
middle-stage reselection) restores ~4x of it -- and what it costs
(3k crossbar chips and a 3-quantum pipeline instead of 1 ring).

``run()`` is parameterized over chip count (``k``: k*k external ports
on 3k chips), geometry, and -- via the space-partitioned engine
(:mod:`repro.parallel.space_shard`, DESIGN.md §13) -- the number of
worker processes the Clos is distributed across.  The distributed
numbers are asserted bit-identical to the serial reference before they
are reported, so the partitioned rows measure *the same* fabric.
"""

from __future__ import annotations

import numpy as np

from repro.core.compose import ClosFabric, clos_vs_single_ring
from repro.core.fabricsim import saturated_uniform
from repro.experiments.common import ExperimentResult
from repro.raw import costs


def run(
    size_bytes: int = 1024,
    quanta: int = 2000,
    seed: int = 0,
    k: int = 4,
    geometry: str = "clos",
    partitions: int = 3,
    latency: int = 4,
    transport: str = "pipe",
) -> ExperimentResult:
    """Compare one big ring against composed crossbars at ``k*k`` ports.

    ``k`` sets the chip size and port count (k*k ports from 3k chips);
    ``partitions``/``latency``/``transport`` drive the same Clos through
    the space-partitioned token-window engine for the distributed rows
    (``transport``: pipe, shm, or socket -- DESIGN.md §15).
    """
    if geometry != "clos":
        raise ValueError(f"unknown multichip geometry {geometry!r}")
    num_ports = k * k
    result = ExperimentResult(
        name="ext_multichip",
        description=(
            f"{num_ports} ports: one big ring vs a Clos of {k}-port "
            f"crossbars ({3 * k} chips, P={partitions} space partitions)"
        ),
    )
    words = costs.bytes_to_words(size_bytes)

    ring_gbps, clos_gbps = clos_vs_single_ring(
        num_ports=num_ports, words=words, quanta=quanta, shift=num_ports // 2
    )
    result.add("antipodal_single_ring_gbps", ring_gbps)
    result.add("antipodal_clos_gbps", clos_gbps)
    result.add("antipodal_clos_gain", clos_gbps / ring_gbps if ring_gbps else 0.0)

    ring_n_gbps, clos_n_gbps = clos_vs_single_ring(
        num_ports=num_ports, words=words, quanta=quanta, shift=1
    )
    result.add("neighbor_single_ring_gbps", ring_n_gbps)
    result.add("neighbor_clos_gbps", clos_n_gbps)

    rng = np.random.default_rng(seed)
    clos = ClosFabric(k=k)
    uni = clos.run(
        saturated_uniform(words, rng, n=num_ports, exclude_self=True),
        quanta=quanta,
        warmup_quanta=quanta // 10,
    )
    result.add("uniform_clos_gbps", uni.gbps)

    # The same Clos through the space-partitioned engine: serial
    # reference first, then P token-window workers, asserted identical.
    from repro.parallel.space_shard import (
        SpaceSpec,
        run_space,
        run_space_serial,
    )

    spec = SpaceSpec(
        k=k,
        latency=latency,
        partitions=partitions,
        source=SpaceSpec.pack_source(
            {"kind": "permutation", "words": words, "shift": num_ports // 2}
        ),
        quanta=quanta,
        warmup_quanta=quanta // 10,
    )
    serial = run_space_serial(spec)
    dist, info = run_space(spec, transport=transport)
    if dist.counters() != serial.counters():
        raise AssertionError(
            "space-partitioned Clos diverged from the serial reference"
        )
    result.add("space_clos_antipodal_gbps", dist.gbps)
    result.add("space_partitions", float(info.workers))
    result.add(
        "space_boundary_flits_total", float(sum(info.boundary_flits))
    )
    result.add("space_bytes_moved", float(sum(info.bytes_moved)))
    result.notes = (
        "the composition trades 3k chips and a 3-quantum pipeline for "
        "bisection bandwidth: adversarial permutations scale again, the "
        "thesis's multi-crossbar proposal quantified -- and the same "
        "Clos runs space-partitioned across worker processes "
        "bit-identically (DESIGN.md §13)."
    )
    return result
