"""Round-complexity fitting.

The headline claim of the paper is a *shape*: the paper's algorithms'
round counts grow polylogarithmically in Δ while the baselines grow
polynomially (linearly or quadratically).  The helpers here quantify that
shape from a sweep: log–log slopes (the effective polynomial exponent)
and least-squares fits against candidate models.
"""

from __future__ import annotations

from typing import Dict, Sequence

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


def _model_values(name: str, xs: np.ndarray) -> np.ndarray:
    safe = np.maximum(xs, 2.0)
    if name == "polylog":
        return np.log2(safe) ** 2
    if name == "log":
        return np.log2(safe)
    if name == "linear":
        return safe
    if name == "nloglog":
        return safe * np.log2(safe)
    if name == "quadratic":
        return safe ** 2
    raise ValueError(f"unknown model {name}")


def fit_models(
    xs: Sequence[float],
    ys: Sequence[float],
    models: Sequence[str] = ("log", "polylog", "linear", "quadratic"),
) -> Dict[str, float]:
    """Relative residual of fitting y ≈ a·model(x) for each candidate model.

    Smaller is better; the best-fitting model minimizes the returned value.
    """
    x_arr = np.asarray([float(x) for x in xs])
    y_arr = np.asarray([float(y) for y in ys])
    results: Dict[str, float] = {}
    for model in models:
        basis = _model_values(model, x_arr)
        denom = float(np.dot(basis, basis))
        scale = float(np.dot(basis, y_arr)) / denom if denom > 0 else 0.0
        residual = y_arr - scale * basis
        norm = float(np.linalg.norm(y_arr)) or 1.0
        results[model] = float(np.linalg.norm(residual)) / norm
    return results
