"""Adaptive quadrature on (0, T] robust to a t^(-d/2) endpoint singularity.

One adaptive bisection covers the whole interval, so there is no tail to
truncate and no stopping rule to guess:

  * a damped integrand, |f| <= M t^p exp(-c/t), is flat at t = 0 and is
    integrated as it is;
  * an undamped one, |f| <= M t^p with -1 < p < 0, is integrated in
    s = t^(p+1): g(s) = m s^(m-1) f(s^m) with m = 1/(p+1) is bounded on
    (0, T^(p+1)] (Davis & Rabinowitz, Methods of Numerical Integration,
    2nd ed., 1984, section 2.12), and smooth when f is t^p times a smooth
    function, as every undamped kernel in this package is.

The initial mesh is (0, min(U, 1)] plus panels that double up to U, the
upper limit in the integration variable, so Gauss nodes land where a
Hermite test function varies for any T.  Each panel gets an embedded
Gauss-Legendre pair (16 vs 32 nodes).  It is accepted when the pair agrees
to max(tol (b - a) / U, tol / 8000), or when floating point cannot split it;
otherwise it is bisected.  The integrand is never evaluated at t = 0.  A
result always carries a summed error estimate <= tol; otherwise
QuadratureBudgetError is raised with the sum accepted so far.

Integrands must accept numpy arrays of nodes; complex-valued integrands are
supported (needed for S-transforms at complex scaling).  A vector integrand
returns shape (k, n) for n nodes: its k rows share one mesh, every
refinement test uses the worst row, and value and error are (k,) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IntegrandFailureError, QuadratureBudgetError

__all__ = ["QuadResult", "integrate_singular"]

DEFAULT_NODE_BUDGET = 10 ** 6
# a panel whose error is below tol / _FLOOR is accepted at any width
_FLOOR = 8000.0


@dataclass(frozen=True, eq=False)
class QuadResult:
    value: float  # or complex; a (k,) array for a (k, n) integrand
    abs_error_estimate: float  # per row for a (k, n) integrand
    node_count: int


@lru_cache(maxsize=None)
def _gauss(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _worst(a):
    """Largest row of a per-row value; skips numpy's slow scalar reduction."""
    return a.max() if a.ndim else a


def _panel(f, a, b):
    """Embedded 16/32-point Gauss estimate of int_a^b f; returns (I, err),
    each per row for a (k, n) integrand."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x16, w16 = _gauss(16)
    x32, w32 = _gauss(32)
    f16 = np.asarray(f(mid + half * x16))
    f32 = np.asarray(f(mid + half * x32))
    if not (np.all(np.isfinite(f16)) and np.all(np.isfinite(f32))):
        raise IntegrandFailureError(f"integrand returned NaN/inf on [{a}, {b}]")
    # .T is a no-op on one row, so a scalar integrand sums as it always has
    i16 = half * np.dot(w16, f16.T)
    i32 = half * np.dot(w32, f32.T)
    return i32, abs(i32 - i16)


def integrate_singular(f, T, sing_exponent, tol, damping=None,
                       node_budget=DEFAULT_NODE_BUDGET):
    """Integrate f over (0, T] with estimated absolute error <= tol.

    Parameters
    ----------
    f : callable mapping a numpy array of n nodes in (0, T] to values,
        shape (n,) or (k, n) for k integrands on one mesh.
    T : finite upper limit, > 0.
    sing_exponent : p such that |f(t)| <= M t^p near 0 (p > -1 required
        unless a damping constant is given).  Without damping, p < 0 selects
        the substitution t = s^(1/(p+1)), which makes the integrand bounded.
    tol : requested absolute error, per row for a (k, n) integrand.
    damping : optional c > 0 when f carries a factor exp(-c/t).  Only its
        sign is used: it says that f is flat at 0, for any exponent.
    node_budget : cap on integrand evaluations (nodes, not rows).

    Raises QuadratureBudgetError (with .best_estimate) when the budget runs
    out or the summed error estimate misses tol, IntegrandFailureError on a
    non-finite integrand value.  A scalar integrand gets a Python float or
    complex value and a float error.
    """
    if not (T > 0.0 and np.isfinite(T)):
        raise ValueError(f"T must be finite and > 0, got {T}")
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    p = float(sing_exponent)
    damped = bool(damping and damping > 0.0)
    if p <= -1.0 and not damped:
        raise ValueError(
            "sing_exponent <= -1 requires a positive damping constant; "
            "the integral would diverge otherwise"
        )

    if damped or p >= 0.0:
        g, U = f, T
    else:
        m = 1.0 / (p + 1.0)
        U = T ** (p + 1.0)

        def g(s):
            return m * s ** (m - 1.0) * np.asarray(f(s ** m))

    edges = [0.0, min(U, 1.0)]
    while edges[-1] < U:
        edges.append(min(2.0 * edges[-1], U))
    # popped left to right; a bisected panel pushes its right half first
    stack = list(zip(edges[:-1], edges[1:]))[::-1]
    total = err_total = 0.0
    nodes = 0
    while stack:
        a, b = stack.pop()
        if nodes + 48 > node_budget:
            raise QuadratureBudgetError(
                f"node budget {node_budget} exhausted", best_estimate=total)
        nodes += 48
        val, err = _panel(g, a, b)
        mid = 0.5 * (a + b)
        if _worst(err) <= max(tol * (b - a) / U, tol / _FLOOR) \
                or not a < mid < b:
            total = total + val
            err_total = err_total + err
        else:
            stack += [(mid, b), (a, mid)]
    if _worst(err_total) > tol:
        raise QuadratureBudgetError(
            f"error estimate {_worst(err_total):g} misses tol {tol:g}",
            best_estimate=total)

    if np.ndim(total) == 0:
        total = total if isinstance(total, complex) else float(total)
        err_total = float(err_total)
    return QuadResult(value=total, abs_error_estimate=err_total,
                      node_count=nodes)
