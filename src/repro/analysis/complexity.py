"""Round-complexity fitting.

The headline claim of the paper is a *shape*: the paper's algorithms'
round counts grow polylogarithmically in Δ while the baselines grow
polynomially (linearly or quadratically).  :func:`loglog_slope`
quantifies that shape from a sweep: the effective polynomial exponent.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x) — the effective exponent.

    A polylogarithmic quantity has slope tending to 0; linear growth has
    slope ≈ 1, quadratic growth slope ≈ 2.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two points")
    log_x = np.log([max(1e-9, float(x)) for x in xs])
    log_y = np.log([max(1e-9, float(y)) for y in ys])
    slope, _intercept = np.polyfit(log_x, log_y, 1)
    return float(slope)
