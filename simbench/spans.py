"""Outside-in span tracing for the simulator benchmark.

A :class:`Tracer` records one span (name, start, end, parent) per call
into a layer's public function.  The wrappers are installed from here,
by patching the program's classes and module attributes for the length
of a traced pass, so the program itself carries no tracing code.  Spans
live in flat arrays in memory; :func:`self_times` turns them into each
span's self time (its duration minus the part its child spans cover),
and :func:`summarize` folds those per span name.

Only the process that installed the wrappers records: a forked child
(a space worker) restores the original functions right after the fork,
so worker internals run untraced and at full speed.
"""

from __future__ import annotations

import functools
import importlib
import os
from array import array
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

#: Span name -> (module, attribute path, how to wrap).  ``method``
#: patches a class attribute, ``function`` a module attribute (in every
#: listed module that binds it), ``classmethod`` a classmethod, and
#: ``factory`` wraps every callable the factory returns.
TARGETS: Tuple[Tuple[str, Tuple[str, ...], str, str], ...] = (
    ("traffic.draw", ("repro.traffic.build",), "FabricModelSource.__call__", "method"),
    ("traffic.draw", ("repro.core.fabricsim",), "CounterUniformSource.__call__", "method"),
    ("traffic.draw", ("repro.core.fabricsim",), "saturated_permutation", "factory"),
    ("traffic.draw", ("repro.core.fabricsim",), "saturated_uniform", "factory"),
    ("traffic.draw", ("repro.core.fabricsim",), "saturated_hotspot", "factory"),
    ("allocator.allocate", ("repro.core.allocator",), "Allocator.allocate", "method"),
    ("allocator.compile", ("repro.core.allocator",), "CompiledAllocator.__init__", "method"),
    ("allocator.compiled_allocate", ("repro.core.allocator",), "CompiledAllocator.allocate", "method"),
    ("spacetopo.chip_step", ("repro.core.spacetopo",), "ChipNode.step", "method"),
    ("spacetopo.advance", ("repro.core.spacetopo",), "PartitionSim.advance", "method"),
    ("spacetopo.build_topology", ("repro.core.spacetopo", "repro.parallel.space_shard"), "build_topology", "function"),
    ("space_shard.merge", ("repro.core.spacetopo", "repro.parallel.space_shard"), "merge_part_stats", "function"),
    ("space_shard.pool_init", ("repro.parallel.space_shard",), "SpaceWorkerPool.__init__", "method"),
    ("space_shard.pool_run", ("repro.parallel.space_shard",), "SpaceWorkerPool.run", "method"),
    ("space_shard.pool_close", ("repro.parallel.space_shard",), "SpaceWorkerPool.close", "method"),
    ("fabricsim.run", ("repro.core.fabricsim",), "FabricSimulator.run", "method"),
    ("kernel.run", ("repro.sim.kernel",), "Simulator.run", "method"),
    ("router.from_config", ("repro.router.router",), "RawRouter.from_config", "classmethod"),
    ("router.run", ("repro.router.router",), "RawRouter.run", "method"),
)


class Tracer:
    """Record nested spans into flat arrays (name id, start, end, parent)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.clear()

    def clear(self) -> None:
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span named ``name`` per call."""
        nid = self._intern(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.start)
            stack = tracer._stack
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1])
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()

        return traced

    def spans(self) -> List[Tuple[str, float, float, int]]:
        """Every recorded span as ``(name, start, end, parent index)``."""
        names = self.names
        return [
            (names[n], s, e, p)
            for n, s, e, p in zip(self.name_id, self.start, self.end, self.parent)
        ]


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span), so overlapping or stray children never make a
    self time negative or count twice."""
    kids: Dict[int, List[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            kids.setdefault(p, []).append(i)
    out = [ends[i] - starts[i] for i in range(len(starts))]
    for p, children in kids.items():
        lo, hi = starts[p], ends[p]
        covered = 0.0
        cur_s = cur_e = None
        for s, e in sorted((max(starts[c], lo), min(ends[c], hi)) for c in children):
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            elif e > cur_e:
                cur_e = e
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


class SpanStat(NamedTuple):
    count: int
    total_s: float
    self_s: float


def summarize(tracer: Tracer) -> Dict[str, SpanStat]:
    """Per span name: call count, summed duration and summed self time."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    count = [0] * len(tracer.names)
    total = [0.0] * len(tracer.names)
    own = [0.0] * len(tracer.names)
    for nid, s, e, st in zip(tracer.name_id, tracer.start, tracer.end, selfs):
        count[nid] += 1
        total[nid] += e - s
        own[nid] += st
    return {
        name: SpanStat(count[i], total[i], own[i])
        for i, name in enumerate(tracer.names)
        if count[i]
    }


def _resolve(path: str, module):
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer, targets=TARGETS) -> Callable[[], None]:
    """Wrap every target; returns the function that restores them.

    The restore also runs in any child forked while the wrappers are in
    place, so worker processes never record into their copy of the
    tracer.
    """
    undo: List[Tuple[object, str, object]] = []
    for name, modules, path, kind in targets:
        for modname in modules:
            owner, attr = _resolve(path, importlib.import_module(modname))
            orig = owner.__dict__[attr]
            if kind == "classmethod":
                new = classmethod(tracer.wrap(name, orig.__func__))
            elif kind == "factory":
                def new(*args, _orig=orig, _name=name, **kwargs):
                    return tracer.wrap(_name, _orig(*args, **kwargs))
            else:
                new = tracer.wrap(name, orig)
            setattr(owner, attr, new)
            undo.append((owner, attr, orig))

    def restore() -> None:
        while undo:
            owner, attr, orig = undo.pop()
            setattr(owner, attr, orig)

    os.register_at_fork(after_in_child=restore)
    return restore
