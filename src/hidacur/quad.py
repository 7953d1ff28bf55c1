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
Gauss nodes land near the peak of exp(-c/t) t^p however small c is, and where
a Hermite test function varies for any T.  A damped first panel is split at
1/8, 1/4 and 1/2 of its width, the grading that bisection builds anyway for
the steep rise of exp(-c/t), one sweep per level (Davis & Rabinowitz, 2.12).
Each panel gets an embedded Gauss-Legendre pair (16 vs 32 nodes), placed
at a + (b - a) u for the pair's nodes u on [0, 1]; one product of a sweep's
48 values per panel with a constant (48, 2) weight matrix gives each
panel's 32- and 16-point sums, and the error is their difference, exactly
0 where the two round alike.  A panel is accepted when the pair agrees to
max(tol (b - a) / U, tol / 8000), or when floating point cannot split it;
otherwise it is bisected.  The panels are refined breadth first: one
integrand call per sweep evaluates every open panel, and the accepted set
does not depend on that order.  A sweep whose panels all pass ends the
loop.  The integrand is never evaluated at t = 0.  A result always carries
a summed error estimate <= tol; otherwise QuadratureBudgetError is raised
with the sum accepted so far.

Non-finite integrand values are caught on the panel errors: a NaN or inf
among a panel's 48 values makes that panel's error non-finite, and only
then are the sweep's values scanned, so IntegrandFailureError names the
first bad panel (numpy may warn of an inf - inf on the way).  Finite values
whose Gauss sums overflow are no failure: such a panel is refined.

Integrands must accept a 1-d numpy array of nodes, which holds the nodes of
many panels in no particular order; complex-valued integrands are supported
(needed for S-transforms at complex scaling).  A vector integrand returns
shape (k, n) for n nodes: its k rows share one mesh, every refinement test
uses the worst row, and value and error are (k,) arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (IntegrandFailureError, QuadratureBudgetError,
                     check_positive)

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
    sweeps: int  # integrand calls, one per breadth-first sweep


# the embedded Gauss-Legendre pair: its 16 nodes, then its 32, on the unit
# panel [0, 1]; the columns of _W give, from a panel's 48 values, its 32- and
# its 16-point sum on [-1, 1], to be scaled by the half-width
_X16, _W16 = np.polynomial.legendre.leggauss(16)
_X32, _W32 = np.polynomial.legendre.leggauss(32)
_U = 0.5 + 0.5 * np.concatenate([_X16, _X32])
_W = np.stack([np.concatenate([np.zeros(16), _W32]),
               np.concatenate([_W16, np.zeros(32)])], axis=1)


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
    damping : optional c > 0 when f carries a factor exp(-c/t), flat at 0
        for any exponent, or is bounded with its mass at t <~ c: the mesh
        doubles from (0, min(T, 1, c) / 8], graded into the peak near c.

    Raises QuadratureBudgetError (with .best_estimate) when NODE_BUDGET runs
    out or the summed error estimate misses tol, IntegrandFailureError on a
    non-finite integrand value.  A scalar integrand gets a Python float or
    complex value and a float error.

    The error estimate sums each accepted panel's |Q32 - Q16|, so it misses
    what both rules miss alike, such as an integrable singularity inside
    (0, T): (|t - 1/pi| + 1e-300)^(-1/2) on (0, 1] is off by 2.7e-8 at tol
    1e-5 with an estimate of 4.4e-9, and by 6e133 at tol 1e-6, where a
    panel's nodes round to two floats, one 1/pi, with 8e-10.  No kernel in
    the package has one.  Below tol = eps |value|, rounding decides which
    panels pass and the reported error.
    """
    T, tol = check_positive("T", T), check_positive("tol", tol)
    p = float(sing_exponent)
    damped = damping is not None and bool(check_positive("damping", damping))
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

    edges = [0.0, min(U, 1.0, damping) / 8.0 if damped else min(U, 1.0)]
    while edges[-1] < U:
        edges.append(min(2.0 * edges[-1], U))
    a, b = np.array(edges[:-1]), np.array(edges[1:])
    total = err_total = 0.0
    nodes = sweeps = 0
    while True:
        if nodes + _U.size * a.size > NODE_BUDGET:
            raise QuadratureBudgetError(
                f"node budget {NODE_BUDGET} exhausted", best_estimate=total)
        nodes += _U.size * a.size
        sweeps += 1
        width = b - a
        fx = np.asarray(g((a[:, None] + width[:, None] * _U).ravel()))
        # (k, panels, 48) for a vector integrand, (panels, 48) for a scalar
        fx = fx.reshape(fx.shape[:-1] + (a.size, _U.size))
        q = (fx @ _W) * (0.5 * width)[:, None]
        val, err = q[..., 0], abs(q[..., 0] - q[..., 1])
        # each panel's worst row, non-finite when any of its 48 values is
        panel_err = err if err.ndim == 1 \
            else err.reshape(-1, a.size).max(axis=0)
        if not math.isfinite(panel_err.sum()):
            bad = ~np.isfinite(fx)
            if bad.any():
                j = np.nonzero(bad)[-2].min()
                raise IntegrandFailureError(
                    f"integrand returned NaN/inf on [{a[j]}, {b[j]}]")
        done = panel_err <= np.maximum(width, U / _FLOOR) * (tol / U)
        if done.all():
            total = total + val.sum(axis=-1)
            err_total = err_total + err.sum(axis=-1)
            break
        mid = 0.5 * (a + b)
        done |= ~((a < mid) & (mid < b))  # floating point cannot split it
        total = total + val[..., done].sum(axis=-1)
        err_total = err_total + err[..., done].sum(axis=-1)
        keep = ~done
        if not keep.any():
            break
        a, mid, b = a[keep], mid[keep], b[keep]
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
    worst = err_total.max()
    if worst > tol:
        raise QuadratureBudgetError(
            f"error estimate {worst:g} misses tol {tol:g}",
            best_estimate=total)

    if np.ndim(total) == 0:
        total = total if isinstance(total, complex) else float(total)
        err_total = float(err_total)
    return QuadResult(value=total, abs_error_estimate=err_total,
                      node_count=nodes, sweeps=sweeps)
