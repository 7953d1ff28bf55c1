"""Adaptive quadrature on (0, T] robust to a t^(-d/2) endpoint singularity.

Strategy: dyadic panels graded toward t = 0, each panel integrated with an
embedded Gauss-Legendre pair (16 vs 32 nodes) and bisected adaptively when
the pair disagrees.  The integrand is never evaluated at t = 0.  Two regimes:

  * integrable algebraic singularity, |f| <= M t^sing_exponent with
    sing_exponent > -1: the tail below the last panel is bounded
    analytically by M t_cut^(p+1)/(p+1);
  * essential damping exp(-c/t): panel contributions decay super-
    exponentially, and panels are added until they drop below the
    tolerance floor.

Integrands must accept numpy arrays of nodes; complex-valued integrands are
supported (needed for S-transforms at complex scaling).  A vector integrand
returns shape (k, n) for n nodes: its k rows share one mesh, every stopping
and refinement test uses the worst row, and value and error are (k,) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IntegrandFailureError, QuadratureBudgetError

__all__ = ["QuadResult", "integrate_singular"]

DEFAULT_NODE_BUDGET = 10 ** 6
_MAX_PANELS = 600
_MAX_DEPTH = 30


@dataclass(frozen=True)
class QuadResult:
    value: float  # or complex; a (k,) array for a (k, n) integrand
    abs_error_estimate: float  # per row for a (k, n) integrand
    node_count: int


@lru_cache(maxsize=None)
def _gauss(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


class _Budget:
    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self, n):
        self.used += n
        if self.used > self.limit:
            raise _BudgetExhausted


class _BudgetExhausted(Exception):
    pass


def _worst(a):
    """Largest row of a per-row value; skips numpy's slow scalar reduction."""
    return a.max() if a.ndim else a


def _panel(f, a, b, budget):
    """Embedded 16/32-point Gauss estimate of int_a^b f; returns (I, err, fmax),
    each per row for a (k, n) integrand."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x16, w16 = _gauss(16)
    x32, w32 = _gauss(32)
    budget.spend(48)
    f16 = np.asarray(f(mid + half * x16))
    f32 = np.asarray(f(mid + half * x32))
    if not (np.all(np.isfinite(f16)) and np.all(np.isfinite(f32))):
        raise IntegrandFailureError(f"integrand returned NaN/inf on [{a}, {b}]")
    # .T is a no-op on one row, so a scalar integrand sums as it always has
    i16 = half * np.dot(w16, f16.T)
    i32 = half * np.dot(w32, f32.T)
    fmax = np.abs(f32).max(axis=-1)
    return i32, abs(i32 - i16), fmax


def _adaptive(f, a, b, tol, budget, depth=0):
    """Adaptive bisection until the panel error estimate is below tol."""
    val, err, fmax = _panel(f, a, b, budget)
    if _worst(err) <= tol or depth >= _MAX_DEPTH:
        return val, err, fmax
    m = 0.5 * (a + b)
    v1, e1, m1 = _adaptive(f, a, m, 0.5 * tol, budget, depth + 1)
    v2, e2, m2 = _adaptive(f, m, b, 0.5 * tol, budget, depth + 1)
    return v1 + v2, e1 + e2, np.maximum(m1, m2)


def integrate_singular(f, T, sing_exponent, tol, damping=None,
                       node_budget=DEFAULT_NODE_BUDGET):
    """Integrate f over (0, T] with estimated absolute error <= tol.

    Parameters
    ----------
    f : callable mapping a numpy array of n nodes in (0, T] to values,
        shape (n,) or (k, n) for k integrands on one mesh.
    T : upper limit, > 0.
    sing_exponent : p such that |f(t)| <= M t^p near 0 (p > -1 required
        unless a damping constant is given).
    tol : requested absolute error.
    damping : optional c > 0 when f carries a factor exp(-c/t); enables the
        graded-mesh path for any exponent.
    node_budget : cap on integrand evaluations (nodes, not rows).

    A scalar integrand gets a Python float or complex value and a float error.
    """
    if not T > 0.0:
        raise ValueError(f"T must be > 0, got {T}")
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    p = float(sing_exponent)
    if p <= -1.0 and not (damping and damping > 0.0):
        raise ValueError(
            "sing_exponent <= -1 requires a positive damping constant; "
            "the integral would diverge otherwise"
        )

    budget = _Budget(node_budget)
    total = 0.0
    err_total = 0.0
    floor = tol / 8.0
    try:
        k = 0
        while True:
            a, b = T * 2.0 ** (-(k + 1)), T * 2.0 ** (-k)
            panel_tol = max(tol * (b - a) / (2.0 * T), 1e-3 * floor)
            val, err, fmax = _adaptive(f, a, b, panel_tol, budget)
            total = total + val
            err_total += err
            k += 1
            t_cut = a
            if damping and damping > 0.0:
                # superexponential decay: stop once a panel is negligible
                if _worst(abs(val)) <= floor and _worst(fmax) * (b - a) <= floor:
                    err_total += abs(val) + fmax * (b - a)
                    break
            else:
                # algebraic regime: analytic bound on the remaining mass;
                # infer M in |f| <= M t^p from a probe that includes the
                # cut point itself (Gauss nodes alone sit strictly inside
                # the panel and would understate M for p < 0)
                budget.spend(8)
                probe = t_cut * (b / t_cut) ** np.linspace(0.0, 1.0, 8)
                fp = np.abs(np.asarray(f(probe)))
                m_alg = (fp / probe ** p).max(axis=-1) if np.all(np.isfinite(fp)) \
                    else fmax / t_cut ** p
                # the 1e-10 relative pad absorbs rounding in the bound itself
                tail = m_alg * t_cut ** (p + 1.0) / (p + 1.0) * (1.0 + 1e-10)
                if _worst(tail) <= tol / 2.0:
                    err_total += tail
                    break
            if k >= _MAX_PANELS:
                raise QuadratureBudgetError(
                    "panel limit reached before truncation criterion",
                    best_estimate=total,
                )
    except _BudgetExhausted:
        raise QuadratureBudgetError(
            f"node budget {node_budget} exhausted", best_estimate=total
        ) from None

    # allowance for rounding in the panel-sum accumulation itself
    err_total += (k + 1) * np.finfo(float).eps * (1.0 + abs(total))
    if np.ndim(total) == 0:
        total = total if isinstance(total, complex) else float(total)
        err_total = float(err_total)
    return QuadResult(value=total, abs_error_estimate=err_total,
                      node_count=budget.used)
