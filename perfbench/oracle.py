"""Reference values for the closed-form workload, computed without hidacur.

phi is rebuilt from its Hermite coefficients as P(t) exp(-t^2/2), with P in
the monomial basis taken from scipy.special.hermite.  Its cumulative integral
uses the closed moments

    J_m(t) = int_0^t s^m e^(-s^2/2) ds,
    J_0 = sqrt(pi/2) erf(t/sqrt(2)),  J_1 = 1 - e^(-t^2/2),
    J_m = (m-1) J_(m-2) - t^(m-1) e^(-t^2/2),

so neither hidacur's Hermite recurrences nor its quadrature are involved.
Time integrals go through scipy.integrate.quad; the criterion-1 singular
mass goes through mpmath's incomplete gamma function.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import integrate, special

_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_EPSABS = 1e-14
_EPSREL = 1e-12


class HermiteSeries:
    """A vector test function given by Hermite-function coefficients."""

    def __init__(self, components):
        self.polys = [self._monomial(c) for c in components]
        self.degree = max(len(p) for p in self.polys) - 1

    @staticmethod
    def _monomial(coeffs):
        p = np.zeros(len(coeffs))
        for k, c in enumerate(coeffs):
            norm = 1.0 / math.sqrt(2.0 ** k * math.factorial(k) * math.sqrt(math.pi))
            p[: k + 1] += c * norm * special.hermite(k).coeffs[::-1]
        return p.tolist()

    def value(self, t, i):
        s = 0.0
        for a in reversed(self.polys[i]):
            s = s * t + a
        return s * math.exp(-0.5 * t * t)

    def cumulative(self, t):
        """[int_0^t phi_j(s) ds for each component j]."""
        e = math.exp(-0.5 * t * t)
        j = [_SQRT_HALF_PI * math.erf(t * _INV_SQRT2), 1.0 - e]
        tp = t * e  # t^(m-1) e^(-t^2/2)
        for m in range(2, self.degree + 1):
            j.append((m - 1) * j[m - 2] - tp)
            tp *= t
        return [sum(a * jm for a, jm in zip(p, j)) for p in self.polys]


class QuadFailures:
    """Counts scipy quad calls that reported a problem (ier != 0)."""

    def __init__(self):
        self.count = 0


def _quad(f, a, b, points, failures):
    out = integrate.quad(f, a, b, points=points or None, epsabs=_EPSABS,
                         epsrel=_EPSREL, limit=400, full_output=1)
    if len(out) > 3 and failures is not None:  # a fourth item is a warning
        failures.count += 1
    return out[0]


def _integrate(f, T, r2, d, failures):
    """int_0^T f(t) dt for an integrand with the current's t = 0 behaviour."""
    if r2 == 0.0:
        # x = 0 (only d = 1 exists): t = s^2 removes the t^(-1/2) endpoint
        return _quad(lambda s: 2.0 * s * f(s * s), 0.0, math.sqrt(T), None,
                     failures)
    peak = r2 / d  # where t^(-d/2) exp(-r^2/2t) is largest
    points = [p for p in (peak / 8.0, peak / 2.0, 2.0 * peak, 8.0 * peak)
              if 0.0 < p < T]
    return _quad(f, 0.0, T, points, failures)


def current(x, T, series, eps2=0.0, failures=None):
    """S-transform of the (mollified when eps2 > 0) current, all components."""
    d = len(x)
    norm = (2.0 * math.pi) ** (-d / 2.0)
    memo = {}  # the components' integrals mostly share their nodes

    def kernel(t):
        k = memo.get(t)
        if k is None:
            q = sum((xj - cj) ** 2 for xj, cj in zip(x, series.cumulative(t)))
            te = t + eps2
            k = memo[t] = norm * te ** (-d / 2.0) * math.exp(-q / (2.0 * te))
        return k

    r2 = sum(v * v for v in x)
    out = []
    for i in range(d):
        f = lambda t, i=i: kernel(t) * series.value(t, i)  # noqa: E731
        if eps2 > 0.0:
            out.append(_quad(f, 0.0, T, None, failures))
        else:
            out.append(_integrate(f, T, r2, d, failures))
    return out


def first_pairing(x, T, series, i, failures=None):
    """(2 pi)^(-d/2) int_0^T t^(-d/2) exp(-|x|^2/2t) phi_i(t) dt."""
    d = len(x)
    r2 = sum(v * v for v in x)
    norm = (2.0 * math.pi) ** (-d / 2.0)
    return _integrate(
        lambda t: norm * t ** (-d / 2.0) * math.exp(-r2 / (2.0 * t))
        * series.value(t, i), T, r2, d, failures)


def second_pairing(x, T, series, i, failures=None):
    """(2 pi)^(-d/2) int_0^T t^(-d/2-1) exp(-|x|^2/2t) (x . c(t)) phi_i(t) dt."""
    d = len(x)
    r2 = sum(v * v for v in x)
    norm = (2.0 * math.pi) ** (-d / 2.0)

    def f(t):
        xc = sum(xj * cj for xj, cj in zip(x, series.cumulative(t)))
        return norm * t ** (-d / 2.0 - 1.0) * math.exp(-r2 / (2.0 * t)) \
            * xc * series.value(t, i)

    return _integrate(f, T, r2, d, failures)


def singular_mass(d, r, T):
    """int_0^T t^(-d/2) exp(-r^2/2t) dt = 2^(d/2-1) r^(2-d) Gamma(d/2-1, r^2/2T),
    with mpmath's incomplete gamma at 30 digits."""
    with mpmath.workdps(30):
        a = mpmath.mpf(d) / 2 - 1
        r = mpmath.mpf(r)
        val = 2 ** a * r ** (2 - d) * mpmath.gammainc(a, r * r / (2 * mpmath.mpf(T)))
    return float(val)
