"""Counter-based replayable randomness for the traffic layer.

Every stochastic draw a :class:`~repro.traffic.model.SpecModel` makes is
a pure function ``hash(seed, stream, counter)`` -- the style of
:class:`repro.core.fabricsim.CounterUniformSource`, generalized.  A
shared sequential ``np.random.Generator`` makes a workload unresumable:
resuming mid-run would need the generator's full internal state *and*
a guarantee that ports consume draws in the same interleaving, which a
partitioned worker polling only its own ports cannot reproduce.  With counter-based draws the only
mutable state is a handful of small integers per port, so any source
built on this module snapshots/restores bit-identically across process
boundaries (the contract snapshot/resume and the space engine need).

The hash is a splitmix64-style finalizer: cheap in pure Python (three
multiplies and three xor-shifts on ints) and avalanche-quality, which
the statistical tests in ``tests/test_traffic.py`` rely on.
"""

from __future__ import annotations

import math

_M64 = (1 << 64) - 1
#: Odd 64-bit constants (splitmix64 / Murmur3 finalizer lineage).
_A = 0x9E3779B97F4A7C15
_B = 0xBF58476D1CE4E5B9
_C = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """Finalize ``x`` into a well-mixed unsigned 64-bit value."""
    x &= _M64
    x = ((x ^ (x >> 30)) * _B) & _M64
    x = ((x ^ (x >> 27)) * _C) & _M64
    return x ^ (x >> 31)


def draw_u64(seed: int, stream: int, k: int) -> int:
    """Draw ``k`` of stream ``stream``: a pure function of its inputs."""
    return mix64(seed * _A + stream * _B + k * _C + 1)


def draw_float(seed: int, stream: int, k: int) -> float:
    """Uniform float in [0, 1)."""
    return draw_u64(seed, stream, k) / float(1 << 64)


def draw_int(seed: int, stream: int, k: int, n: int) -> int:
    """Uniform integer in [0, n)."""
    if n <= 0:
        raise ValueError("draw_int needs n >= 1")
    return draw_u64(seed, stream, k) % n


def geometric_length(u: float, mean: float) -> int:
    """A geometric duration (>= 1) with the given mean, from one uniform."""
    if mean <= 1.0:
        return 1
    # P(stop each step) = 1/mean; inverse-CDF of the geometric.
    return 1 + int(math.log(max(1.0 - u, 1e-300)) / math.log(1.0 - 1.0 / mean))


def pareto_length(u: float, mean: float, alpha: float) -> int:
    """A heavy-tailed (Pareto) duration (>= 1) with the given mean.

    ``alpha`` is the tail index; ``alpha <= 1`` has no finite mean, so
    callers validate ``alpha > 1``.  The scale is chosen so the
    continuous Pareto mean equals ``mean``; durations are rounded up to
    whole polls.
    """
    xm = mean * (alpha - 1.0) / alpha
    return max(1, math.ceil(xm * (1.0 - u) ** (-1.0 / alpha)))
