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

The initial mesh is (0, min(U, 1, c)] plus panels that double up to U, the
upper limit in the integration variable, with c = 1 when f is undamped, so
Gauss nodes land near the peak of exp(-c/t) t^p however small c is, and
where a Hermite test function varies for any T.  Each panel gets an embedded
Gauss-Legendre pair (16 vs 32 nodes).  It is accepted when the pair agrees
to max(tol (b - a) / U, tol / 8000), or when floating point cannot split it;
otherwise it is bisected.  The panels are refined breadth first: one
integrand call per sweep evaluates every open panel, and the accepted set
does not depend on that order.  The integrand is never evaluated at t = 0.
A result always carries a summed error estimate <= tol; otherwise
QuadratureBudgetError is raised with the sum accepted so far.

Integrands must accept a 1-d numpy array of nodes, which holds the nodes of
many panels in no particular order; complex-valued integrands are supported
(needed for S-transforms at complex scaling).  A vector integrand returns
shape (k, n) for n nodes: its k rows share one mesh, every refinement test
uses the worst row, and value and error are (k,) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrandFailureError, QuadratureBudgetError

__all__ = ["QuadResult", "integrate_singular"]

# cap on integrand evaluations (nodes, not rows), read at each call
NODE_BUDGET = 10 ** 6
# a panel whose error is below tol / _FLOOR is accepted at any width
_FLOOR = 8000.0


@dataclass(frozen=True, eq=False)
class QuadResult:
    value: float  # or complex; a (k,) array for a (k, n) integrand
    abs_error_estimate: float  # per row for a (k, n) integrand
    node_count: int


# the embedded Gauss-Legendre pair: a panel's 16 nodes, then its 32
_X16, _W16 = np.polynomial.legendre.leggauss(16)
_X32, _W32 = np.polynomial.legendre.leggauss(32)
_X = np.concatenate([_X16, _X32])


def integrate_singular(f, T, sing_exponent, tol, damping=None):
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
    damping : optional c > 0 when f carries a factor exp(-c/t): f is flat at
        0, for any exponent, and the mesh starts at min(T, 1, c), near its peak.

    Raises QuadratureBudgetError (with .best_estimate) when NODE_BUDGET runs
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

    edges = [0.0, min(U, 1.0, damping if damped else 1.0)]
    while edges[-1] < U:
        edges.append(min(2.0 * edges[-1], U))
    a, b = np.array(edges[:-1]), np.array(edges[1:])
    total = err_total = 0.0
    nodes = 0
    while a.size:
        if nodes + _X.size * a.size > NODE_BUDGET:
            raise QuadratureBudgetError(
                f"node budget {NODE_BUDGET} exhausted", best_estimate=total)
        nodes += _X.size * a.size
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        fx = np.asarray(g((mid[:, None] + half[:, None] * _X).ravel()))
        # (k, panels, 48) for a vector integrand, (panels, 48) for a scalar
        fx = fx.reshape(fx.shape[:-1] + (a.size, _X.size))
        if not np.all(np.isfinite(fx)):
            j = np.nonzero(~np.isfinite(fx))[-2].min()
            raise IntegrandFailureError(
                f"integrand returned NaN/inf on [{a[j]}, {b[j]}]")
        val = half * (fx[..., 16:] @ _W32)
        err = abs(val - half * (fx[..., :16] @ _W16))
        done = (err.reshape(-1, a.size).max(axis=0)
                <= np.maximum(tol * (b - a) / U, tol / _FLOOR)) \
            | ~((a < mid) & (mid < b))
        total = total + val[..., done].sum(axis=-1)
        err_total = err_total + err[..., done].sum(axis=-1)
        a, mid, b = a[~done], mid[~done], b[~done]
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
    worst = np.max(err_total)
    if worst > tol:
        raise QuadratureBudgetError(
            f"error estimate {worst:g} misses tol {tol:g}",
            best_estimate=total)

    if np.ndim(total) == 0:
        total = total if isinstance(total, complex) else float(total)
        err_total = float(err_total)
    return QuadResult(value=total, abs_error_estimate=err_total,
                      node_count=nodes)
