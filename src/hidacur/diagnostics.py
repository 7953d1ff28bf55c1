"""Blow-up diagnostics for the first-chaos mass at the origin.

The mass int_delta^T t^(-d/2) dt is computed in closed form on a decreasing
cutoff grid and classified against three models:

  * bounded limit  m = A + B sqrt(delta)   (d = 1: exact, A = 2 sqrt(T))
  * logarithmic    m = A + B log(1/delta)  (d = 2: exact with B = 1)
  * power blow-up  log m = A + e log delta (d >= 3: e -> 1 - d/2)

The scan tests the classification and rate fitting, not quadrature; the
masses are antiderivatives, exact up to rounding.  Tail-weighted fitting
(smallest 60% of cutoffs) suppresses pre-asymptotic bias from the T term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_int, check_positive

__all__ = ["DivergenceReport", "divergence_scan", "default_cutoffs"]


@dataclass(frozen=True, eq=False)
class DivergenceReport:
    d: int
    T: float
    cutoffs: np.ndarray
    masses: np.ndarray
    model: str                  # "bounded" | "log" | "power"
    rate: float                 # limit (bounded), log slope, or power exponent
    residual: float
    verdict: str                # "convergent" | "divergent"


def default_cutoffs(T, k=8):
    """Geometric grid 10^-2 ... 10^-(k+1), scaled into (0, T)."""
    return min(T, 1.0) * 10.0 ** (-np.arange(2.0, k + 2.0))


def _mass(d, T, delta):
    if d == 2:
        return np.log(T / delta)
    e = 1.0 - d / 2.0
    return (T ** e - delta ** e) / e


def _lstsq_1d(u, y, w):
    """Weighted least squares y = intercept + slope * u; returns
    (intercept, slope)."""
    sw, su, sy = w.sum(), (w * u).sum(), (w * y).sum()
    suu, suy = (w * u * u).sum(), (w * u * y).sum()
    denom = sw * suu - su * su
    # u constant up to rounding (e.g. one radius): slope undetermined, take 0
    slope = 0.0 if denom <= 1e-12 * sw * suu else (sw * suy - su * sy) / denom
    intercept = (sy - slope * su) / sw
    return intercept, slope


def divergence_scan(d, T, cutoffs):
    """Classify the cutoff masses as convergent or divergent with a rate."""
    d, T = check_int("d", d, 1), check_positive("T", T)
    cutoffs = np.asarray(cutoffs, dtype=float)
    if cutoffs.size < 4:
        raise ValueError("need at least 4 cutoffs")
    if not np.all((0.0 < cutoffs) & (cutoffs < T)):
        raise ValueError(f"need cutoffs inside (0, T); T={T}")
    if np.any(np.diff(cutoffs) >= 0.0):
        raise ValueError("cutoffs must be strictly decreasing")

    masses = _mass(d, T, cutoffs)

    # tail = smallest 60% of the cutoffs
    n_tail = max(4, int(np.ceil(0.6 * cutoffs.size)))
    delta = cutoffs[-n_tail:]
    m = masses[-n_tail:]
    w = np.ones_like(delta)

    top = max(abs(m).max(), 1.0)  # the mass models' residuals are relative
    models = [("bounded", np.sqrt(delta), m, top),
              ("log", np.log(1.0 / delta), m, top)]
    if np.all(m > 0.0):
        models.append(("power", np.log(delta), np.log(m), 1.0))
    fits = {}
    for name, u, y, scale in models:
        a, b = _lstsq_1d(u, y, w)
        r = float(np.sqrt(np.average((y - a - b * u) ** 2, weights=w)))
        fits[name] = (a, b, r / scale)
    best = min(fits, key=lambda k: fits[k][2])

    intercept, slope, resid = fits[best]
    if best == "bounded":
        rate, verdict = intercept, "convergent"
    elif best == "log":
        rate, verdict = slope, "divergent"
    else:
        rate = slope
        verdict = "divergent" if slope < -0.01 else "convergent"

    return DivergenceReport(d=d, T=T, cutoffs=cutoffs, masses=masses,
                            model=best, rate=float(rate), residual=float(resid),
                            verdict=verdict)
