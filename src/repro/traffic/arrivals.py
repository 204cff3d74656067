"""Arrival processes: when packets show up at an input.

All stochastic processes here draw counter-based randomness
(:mod:`repro.traffic.rng`): the only mutable state is a few integers
per port, so workloads built on them snapshot/restore bit-identically
across process boundaries -- the contract snapshot/resume and the
space engine require.  (The historical :class:`Bernoulli` consumed a
shared ``np.random.Generator``, which was silently incompatible with
resuming: a resumed run could not replay the generator's interleaved
draw stream.)
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.seeds import coerce_seed as _coerce_seed
from repro.traffic.rng import draw_float, draw_int, geometric_length, pareto_length


class ArrivalProcess:
    """Answers "does this input offer a packet right now?" per poll."""

    def offers(self, port: int) -> bool:
        raise NotImplementedError

    @property
    def load(self) -> float:
        """Nominal offered load in [0, 1] (1 = saturated)."""
        raise NotImplementedError


class Saturated(ArrivalProcess):
    """Inputs always backlogged -- the peak/average measurement regime."""

    def offers(self, port: int) -> bool:
        return True

    @property
    def load(self) -> float:
        return 1.0


class Bernoulli(ArrivalProcess):
    """Each poll independently offers a packet with probability ``p``.

    Under the quantum-per-poll fabric driver this approximates a
    Bernoulli-per-slot arrival process, the standard load model in the
    crossbar-scheduling literature (iSLIP, HOL analyses).  Draws are
    counter-based per port, so Bernoulli workloads resume bit-identically
    (``state()``/``restore()`` are the snapshot protocol).
    """

    def __init__(self, p: float, seed=0, ports: int = 64):
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be a probability")
        self.p = p
        self.seed = _coerce_seed(seed)
        self._draws: List[int] = [0] * ports

    def _ensure(self, port: int) -> None:
        if port >= len(self._draws):
            self._draws.extend([0] * (port + 1 - len(self._draws)))

    def offers(self, port: int) -> bool:
        self._ensure(port)
        k = self._draws[port]
        self._draws[port] = k + 1
        return draw_float(self.seed, port, k) < self.p

    @property
    def load(self) -> float:
        return self.p

    # -- snapshot protocol ----------------------------------------------
    def state(self) -> Tuple[int, ...]:
        return tuple(self._draws)

    def restore(self, state) -> "Bernoulli":
        self._draws = list(state)
        return self


class OnOff(ArrivalProcess):
    """Two-state modulated arrivals (MMPP-style, optionally heavy-tailed).

    In the *on* state each poll offers with probability ``p``; in the
    *off* state never.  State durations (in polls) are geometric with
    means ``mean_on`` / ``mean_off``, or Pareto(``alpha``) when
    ``heavy=True`` -- the long-range-dependent trains of measured
    internet traffic, which stress buffering far beyond iid loads.
    Counter-based and per-port independent, so it resumes exactly.
    """

    def __init__(
        self,
        mean_on: float = 16.0,
        mean_off: float = 16.0,
        p: float = 1.0,
        seed=0,
        heavy: bool = False,
        alpha: float = 1.5,
        ports: int = 64,
    ):
        if mean_on < 1.0 or mean_off < 1.0:
            raise ValueError("on/off mean durations must be >= 1 poll")
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be a probability")
        if heavy and alpha <= 1.0:
            raise ValueError("heavy-tailed durations need alpha > 1")
        self.mean_on = mean_on
        self.mean_off = mean_off
        self.p = p
        self.heavy = heavy
        self.alpha = alpha
        self.seed = _coerce_seed(seed)
        self._draws: List[int] = [0] * ports
        self._on: List[bool] = [False] * ports
        self._left: List[int] = [0] * ports

    def _ensure(self, port: int) -> None:
        if port >= len(self._draws):
            grow = port + 1 - len(self._draws)
            self._draws.extend([0] * grow)
            self._on.extend([False] * grow)
            self._left.extend([0] * grow)

    def _draw(self, port: int, stream_offset: int) -> float:
        k = self._draws[port]
        self._draws[port] = k + 1
        return draw_float(self.seed, port * 4 + stream_offset, k)

    def offers(self, port: int) -> bool:
        self._ensure(port)
        while self._left[port] == 0:
            self._on[port] = not self._on[port]
            mean = self.mean_on if self._on[port] else self.mean_off
            u = self._draw(port, 1)
            self._left[port] = (
                pareto_length(u, mean, self.alpha)
                if self.heavy
                else geometric_length(u, mean)
            )
        self._left[port] -= 1
        if not self._on[port]:
            return False
        return self.p >= 1.0 or self._draw(port, 2) < self.p

    @property
    def load(self) -> float:
        return self.p * self.mean_on / (self.mean_on + self.mean_off)

    # -- snapshot protocol ----------------------------------------------
    def state(self) -> Tuple:
        return tuple(self._draws), tuple(self._on), tuple(self._left)

    def restore(self, state) -> "OnOff":
        draws, on, left = state
        self._draws = list(draws)
        self._on = list(on)
        self._left = list(left)
        return self


# ---------------------------------------------------------------------------
# Per-slot arrivals for the cell-switch baselines (repro.baselines).
# ---------------------------------------------------------------------------
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
