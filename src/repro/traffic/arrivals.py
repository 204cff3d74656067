"""Per-slot arrivals for the cell-switch baselines (:mod:`repro.baselines`).

The Raw-router engines draw their arrivals from
:class:`~repro.traffic.model.SpecModel`; these two classes are the
cell switches' one-slot-at-a-time variant.
"""

from __future__ import annotations

from typing import List, Optional

from repro.traffic.rng import draw_float, draw_int


class IIDSlotArrivals:
    """One slot of per-input Bernoulli arrivals with uniform destinations.

    Preserves the historical shared-generator draw order (per input:
    one ``random()`` gate, then one ``integers(0, n)`` destination) so
    the seeded chapter-2 baseline experiments stay bit-identical.
    """

    def __init__(self, n: int, rng):
        self.n = n
        self.rng = rng

    def slot(self, load: float) -> List[Optional[int]]:
        out: List[Optional[int]] = []
        for _ in range(self.n):
            if self.rng.random() < load:
                out.append(int(self.rng.integers(0, self.n)))
            else:
                out.append(None)
        return out


class CounterSlotArrivals:
    """The counter-based, shard-safe variant of :class:`IIDSlotArrivals`."""

    def __init__(self, n: int, seed: int = 0):
        self.n = n
        self.seed = int(seed)
        self._slots = 0

    def slot(self, load: float) -> List[Optional[int]]:
        k = self._slots
        self._slots = k + 1
        out: List[Optional[int]] = []
        for i in range(self.n):
            if draw_float(self.seed, i * 2, k) < load:
                out.append(draw_int(self.seed, i * 2 + 1, k, self.n))
            else:
                out.append(None)
        return out

    def state(self) -> int:
        return self._slots

    def restore(self, state: int) -> "CounterSlotArrivals":
        self._slots = int(state)
        return self
