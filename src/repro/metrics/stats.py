"""Small statistics helpers for the experiment harness.

Only numpy and the standard library: the Student-t quantile is a table
for small samples plus a closed-form tail, so importing this module (or
anything that imports :mod:`repro.metrics`) never pulls in scipy.
"""

from __future__ import annotations

from statistics import NormalDist
from typing import List, Sequence, Tuple

import numpy as np

#: Two-sided Student-t critical values ``t_{(1+c)/2, df}`` for
#: ``df = 1..30`` (index ``df - 1``), keyed by confidence ``c``.
_T_TABLE = {
    0.9: (
        6.31375151467504, 2.91998558035372, 2.35336343480182, 2.13184678632665,
        2.01504837333302, 1.9431802805153, 1.89457860509001, 1.8595480375309,
        1.83311293265624, 1.81246112281168, 1.79588481870404, 1.78228755564932,
        1.77093339598687, 1.76131013577489, 1.75305035569257, 1.74588367627625,
        1.73960672607507, 1.73406360661754, 1.72913281152137, 1.72471824292079,
        1.72074290281188, 1.71714437438024, 1.71387152774705, 1.71088207990943,
        1.7081407612519, 1.70561791975927, 1.70328844572213, 1.70113093426593,
        1.6991270265335, 1.69726088659396,
    ),
    0.95: (
        12.7062047361747, 4.30265272974946, 3.18244630528371, 2.77644510519779,
        2.57058183563631, 2.44691185114498, 2.36462425159278, 2.30600413520417,
        2.2621571627982, 2.22813885198627, 2.20098516009164, 2.17881282966723,
        2.16036865646279, 2.1447866879178, 2.13144954555978, 2.11990529922125,
        2.10981557783332, 2.10092204024104, 2.09302405440831, 2.08596344726586,
        2.07961384472768, 2.07387306790403, 2.06865761041905, 2.06389856162802,
        2.0595385527533, 2.05552943864287, 2.05183051648028, 2.04840714179525,
        2.0452296421327, 2.04227245630124,
    ),
    0.99: (
        63.6567411628715, 9.92484320091829, 5.84090930973336, 4.60409487134999,
        4.03214298355523, 3.70742802132481, 3.49948329735049, 3.35538733133339,
        3.24983554159213, 3.16927267261695, 3.10580651553928, 3.0545395893929,
        3.01227583871658, 2.97684273437083, 2.94671288347524, 2.9207816224251,
        2.89823051967742, 2.87844047273861, 2.86093460646498, 2.84533970978611,
        2.83135955802305, 2.81875606060014, 2.80733568377, 2.79693950477446,
        2.78743581367697, 2.77871453332968, 2.77068295712221, 2.76326245546144,
        2.7563859036706, 2.74999565356723,
    ),
}

#: Confidences :func:`t_critical` (and so :func:`mean_ci`) supports.
CONFIDENCES = tuple(_T_TABLE)


def _table(confidence: float) -> Tuple[float, ...]:
    table = _T_TABLE.get(confidence)
    if table is None:
        raise ValueError(
            f"confidence must be one of {CONFIDENCES}, got {confidence!r}"
        )
    return table


def t_critical(confidence: float, df: int) -> float:
    """Two-sided Student-t critical value: the ``(1 + confidence) / 2``
    quantile of the t distribution with ``df`` degrees of freedom.

    ``df <= 30`` is read from an exact table.  Above that it is the
    Cornish-Fisher expansion of the normal quantile (Abramowitz & Stegun
    26.7.5, four terms), within 1.2e-7 relative of the exact value for
    every ``df > 30``.  Only the confidences in :data:`CONFIDENCES` are
    supported; any other raises :class:`ValueError`.
    """
    table = _table(confidence)
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if df <= len(table):
        return table[df - 1]
    x = NormalDist().inv_cdf((1 + confidence) / 2)
    x2 = x * x
    g1 = (x2 + 1) * x / 4
    g2 = ((5 * x2 + 16) * x2 + 3) * x / 96
    g3 = (((3 * x2 + 19) * x2 + 17) * x2 - 15) * x / 384
    g4 = ((((79 * x2 + 776) * x2 + 1482) * x2 - 1920) * x2 - 945) * x / 92160
    return x + (g1 + (g2 + (g3 + g4 / df) / df) / df) / df


def mean_ci(samples: Sequence[float], confidence: float = 0.95) -> Tuple[float, float]:
    """Sample mean and the Student-t half-width of its confidence interval.

    ``confidence`` must be one of :data:`CONFIDENCES` (0.90, 0.95, 0.99).
    """
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("no samples")
    _table(confidence)  # reject an unsupported confidence for any sample size
    if x.size == 1:
        return float(x[0]), 0.0
    mean = float(x.mean())
    sem = float(x.std(ddof=1) / np.sqrt(x.size))
    return mean, t_critical(confidence, x.size - 1) * sem


def batch_means(samples: Sequence[float], num_batches: int = 10) -> List[float]:
    """Batch-means reduction for autocorrelated simulation output."""
    x = np.asarray(samples, dtype=float)
    if num_batches < 2:
        raise ValueError("need at least two batches")
    if x.size < num_batches:
        raise ValueError("fewer samples than batches")
    usable = (x.size // num_batches) * num_batches
    return [float(b.mean()) for b in np.split(x[:usable], num_batches)]
