"""Within-run parallelism: split one simulation's topology across
token-window worker processes (:mod:`~repro.parallel.space_shard`) --
unlike :mod:`repro.sweep`, which only parallelizes *across* independent
cells.  :mod:`~repro.parallel.manyworlds` advances many independent
seeds of one cell as numpy lanes in a single process."""

from repro.parallel.space_shard import (  # noqa: F401
    SpaceRunInfo,
    SpaceSpec,
    SpaceWorkerPool,
    auto_partitions,
    backend_counters,
    merge_backend_counters,
    run_space,
    run_space_inprocess,
    run_space_serial,
    serve_worker,
)
from repro.parallel.transport import (  # noqa: F401
    DEFAULT_AUTHKEY,
    TRANSPORTS,
    transport_name,
)

__all__ = [
    "SpaceSpec",
    "SpaceRunInfo",
    "SpaceWorkerPool",
    "auto_partitions",
    "backend_counters",
    "merge_backend_counters",
    "run_space",
    "run_space_inprocess",
    "run_space_serial",
    "serve_worker",
    "DEFAULT_AUTHKEY",
    "TRANSPORTS",
    "transport_name",
]
