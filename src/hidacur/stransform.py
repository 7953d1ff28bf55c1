"""Closed-form S-transforms of the stochastic-current objects.

Everything here is an explicit integral formula:

  * heat-kernel delta:      S delta(x - B(t))(z phi)
                              = (2 pi t)^(-d/2) exp(-(1/2t) sum_j (x_j - z c_j(t))^2)
  * current component:      S xi_i(x)(phi)
                              = (2 pi)^(-d/2) int_0^T t^(-d/2)
                                  exp(-|x - c(t)|^2 / 2t) phi_i(t) dt
  * mollified current:      same with t -> t + eps2 inside the kernel
                            (Gaussian mollifier of variance eps2; the
                            semigroup property keeps the form closed)

with c_j(t) = int_0^t phi_j.  The current at the origin exists only in
dimension 1; for d > 1 the integral diverges and CurrentParams.origin_exponent
raises NonexistenceError (quantified in the diagnostics module).

One entry point (_integrate_current) integrates the one current kernel for
every component, the mollification and the chaos kernels of every order:
its z^n Taylor coefficients, from one Hermite-type recurrence.  At the
origin the kernels of odd order n < d diverge and the others stay finite.
s_current and s_current_mollified integrate all d components in one vector
quadrature.

A U-functional F(z, phi) takes a scalar z or a 1-d array of z and returns a
result of the same shape (a Python float or complex for a scalar z), so a
caller that needs F at many z makes one call: phi(t) and c(t) do not depend
on z and are computed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diagnostics import _lstsq_1d
from .errors import (IntegrandFailureError, NonexistenceError, check_int,
                     check_positive, check_reals)
from .quad import QuadResult, integrate_singular
from .special import singular_mass_closed

__all__ = [
    "CurrentParams",
    "UFunctional",
    "BoundFit",
    "s_donsker",
    "s_current",
    "s_current_mollified",
    "current_ufunctional",
    "donsker_ufunctional",
    "wick_integrand_ufunctional",
    "check_integrability",
    "fit_ufunctional_bound",
]

_TWO_PI = 2.0 * np.pi
_TINY = np.finfo(float).tiny  # an |x|^2 below it has underflowed


@dataclass(frozen=True, eq=False)
class CurrentParams:
    """One point (x, T), d = len(x); every check of a point is made here."""

    x: np.ndarray
    T: float

    def __init__(self, x, T):
        x = np.atleast_1d(np.asarray(check_reals("x", x), dtype=float))
        if x.ndim != 1 or x.size == 0:
            raise ValueError(f"x must be a nonempty vector, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError(f"x must be finite, got {x.tolist()}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "T", check_positive("T", T))

    @property
    def d(self):
        return len(self.x)

    @property
    def at_origin(self):
        return not self.x.any()

    def origin_exponent(self, n=1):
        """Exponent e of the order-n chaos kernel, O(t^e) at x = 0: (n-1-d)/2
        for odd n (order 1 is the current's own t^(-d/2)), 0 for even n, where
        the kernel vanishes.  Raises NonexistenceError if e <= -1 (d > n)."""
        e = (n - 1 - self.d) / 2.0 if n % 2 else 0.0
        if e <= -1.0:
            chaos = "first" if n == 1 else f"order-{n}"
            raise NonexistenceError(
                f"x=0 with d={self.d}: the {chaos} chaos diverges, so the current "
                "at the origin is not a Hida distribution; see diagnostics.")
        return e


def _shaped_like(value, z):
    """value, computed on np.atleast_1d(z), as a Python scalar for a scalar z."""
    return value if np.ndim(z) else value[0].item()


@dataclass(frozen=True)
class UFunctional:
    """An evaluable map (z, phi) -> complex.

    func(z, phi) gets a 1-d array of z and returns an array of its shape.  A
    call with a scalar z passes it to func as a length-1 array and returns
    a Python float or complex.
    """

    func: Callable

    def __call__(self, z, phi):
        return _shaped_like(self.func(np.atleast_1d(z), phi), z)


@dataclass(frozen=True)
class BoundFit:
    """Fitted growth bound |F(z phi)| <= C1 exp(C2 |z|^2 ||phi||^2)."""

    C1: float
    C2: float


def s_donsker(x, t, phi, z=1.0):
    """S-transform of the Donsker delta at (x, t), evaluated at z*phi.

    z may be a scalar, giving a float for real z and a complex otherwise,
    or a 1-d array, giving an array of the same shape.  The square in the
    exponent is the bilinear one, matching the entire extension in z.
    """
    return donsker_ufunctional(x, t)(z, phi)


def _integrate_current(p, phi, tol, i=None, z=None, eps2=0.0, order=None):
    """The QuadResult of int_0^T f(t) dt held to tol, where
    f(t) = (2 pi te)^(-d/2) exp(-|x - z c(t)|^2 / 2te) z phi(t), te = t + eps2.
    Every current integral goes through here, so the kernel's endpoint
    exponent and damping scale are set in this one place.
    An (m,) array z with component i gives one row per z, shape (m,);
    z None means z = 1, and with i None gives (d,), one row per component.
    order=n >= 1 takes the z^n Taylor coefficient, the n-th chaos kernel
    G_{n-1}(a, b) (2 pi te)^(-d/2) exp(-|x|^2 / 2te) phi(t): with
    a = x . c(t) / te and b = |c(t)|^2 / te, exp(z a - z^2 b / 2) =
    sum_k G_k z^k, G_0 = 1, G_1 = a, G_{k+1} = (a G_k - b G_{k-1}) / (k + 1).
    At x = 0, a = 0, so G_{n-1} = 0 for even n and O(t^((n-1)/2)) for odd n;
    p.origin_exponent gives the kernel's exponent there for every order.
    Elsewhere (x != 0, or eps2 > 0) the kernel is bounded: exponent 0, and
    its mass at t <~ eps2 + |x|^2 / 2, the damping scale the mesh starts at."""
    x, d = p.x, p.d
    r2 = x @ x
    if p.at_origin and not eps2:
        sing, damping = p.origin_exponent(order or 1), None
    else:
        if not eps2 and r2 < _TINY:
            raise IntegrandFailureError(
                f"|x|^2 = {r2:g} underflows at x = {x.tolist()}")
        sing, damping = 0.0, eps2 + r2 / 2.0
    if phi.dimension != d:
        raise ValueError("test function dimension does not match d")
    if i is not None:
        check_int("component index", i, 0, d, IndexError)
    if z is not None and not np.any(z):  # the checks above still hold at z = 0
        return QuadResult(np.zeros_like(z), np.zeros(np.shape(z)), 0, 0)
    # z as a column for the (m, n) rows, x as a column for c's (d, n) or
    # z c's (d, m, n); z None means z = 1, so c is used as it is
    zcol = None if z is None else np.asarray(z)[:, None]
    xcol = x[:, None] if z is None else x[:, None, None]

    def f(t):
        te = t + eps2 if eps2 else t
        # one Hermite table per call: phi alone for order 1, phi and c otherwise
        if order == 1:
            v, c = phi.eval_all(t), None
        else:
            v, c = phi.eval_and_cumulative(t)
        if order:
            q = r2
        else:
            q = xcol - (c if z is None else zcol * c[:, None])
            q = np.add.reduce(np.square(q, out=q), axis=0)
        k = np.divide(q, -2.0 * te)  # -q / 2te, with the sign on the divisor
        np.exp(k, out=k)
        k *= (_TWO_PI * te) ** (-d / 2.0)
        if order is None:
            if z is not None:
                k *= zcol
        elif order > 1:
            a = x @ c / te
            b = np.sum(c * c, axis=0) / te if order > 2 else 0.0
            g_prev, g = 0.0, 1.0  # G_{-1}, G_0
            for m in range(order - 1):
                g_prev, g = g, (a * g - b * g_prev) / (m + 1)
            k = k * g
        return k * (v if i is None else v[i])

    return integrate_singular(f, p.T, sing_exponent=sing, tol=tol,
                              damping=damping)


def s_current(p, phi, tol=1e-10, full_output=False):
    """S-transform of the current, all d components in one quadrature.

    Only defined on the existence region (x != 0, or x = 0 with d = 1);
    raises NonexistenceError otherwise, and IntegrandFailureError for an
    x != 0 whose |x|^2 underflows.  full_output=True also returns the
    QuadResults spent: one, with length-d value and error arrays.
    """
    res = _integrate_current(p, phi, tol)
    return (res.value, [res]) if full_output else res.value


def s_current_mollified(p, phi, eps2, tol=1e-10, full_output=False):
    """Mollified current S-transform; defined for every x, every d.

    Replacing the delta by a Gaussian of variance eps2 shifts t -> t + eps2
    in the kernel, so the integrand is bounded on (0, T].  full_output as
    in s_current.
    """
    eps2 = check_positive("eps2", eps2)
    res = _integrate_current(p, phi, tol, eps2=eps2)
    return (res.value, [res]) if full_output else res.value


def current_ufunctional(p, i, tol=1e-12):
    """Component i of the current S-transform as a U-functional in z.

    A vector of z is integrated in one quadrature, each z a row held to tol
    on one shared mesh.  i is checked against p.d here.  tol is absolute
    per z row and |F| can grow like exp(|z|^2 ||phi||^2 / 2), so on an
    unnormalised phi |z| >~ 2 can ask for digits below rounding and raise
    ``QuadratureBudgetError``; the runners use unit-L^2 phi."""
    check_int("component index", i, 0, p.d, IndexError)

    def f(z, phi):
        return _integrate_current(p, phi, tol, i,
                                  z=np.asarray(z, dtype=complex)).value

    return UFunctional(f)


def donsker_ufunctional(x, t):
    """The Donsker-delta S-transform as a U-functional in z; checks (x, t)."""
    p = CurrentParams(x, t)
    x, t, d = p.x, p.T, p.d

    def f(z, phi):
        if phi.dimension != d:
            raise ValueError("test function dimension does not match d")
        # c(t) once; row k of the outer product is z_k c(t)
        zc = np.multiply.outer(z, phi.cumulative_all(t))
        q = np.sum((x - zc) ** 2, axis=-1)
        return (_TWO_PI * t) ** (-d / 2.0) * np.exp(-q / (2.0 * t))

    return UFunctional(f)


def wick_integrand_ufunctional(x, t, i):
    """U-functional of the current's integrand at fixed t:
    S(delta(x - B(t)))(z phi) * z phi_i(t), with (x, t) and i checked here."""
    donsker = donsker_ufunctional(x, t).func
    check_int("component index", i, 0, np.size(x), IndexError)
    return UFunctional(lambda z, phi: donsker(z, phi) * z * phi.eval(t, i))


def check_integrability(p):
    """Mass int_0^T t^(-d/2) exp(-|x|^2/2t) dt in closed form, 2 sqrt(T) at
    x = 0 with d = 1.  Raises NonexistenceError at x = 0 with d > 1, where
    the mass diverges (diagnostics.divergence_scan classifies the rate).
    """
    if p.at_origin:
        e = p.origin_exponent()
        return p.T ** (e + 1.0) / (e + 1.0)
    return singular_mass_closed(p.d, float(np.linalg.norm(p.x)), p.T)


def fit_ufunctional_bound(F, phi, radii, angles_per_radius=16):
    """Fit |F(z phi)| <= C1 exp(C2 |z|^2 ||phi||^2) from ray samples.

    Samples z = r e^(i theta) in one call of F over all radii and angles;
    takes the max of log|F| over angles at each radius, least-squares fits
    the quadratic growth coefficient with tail-emphasizing weights r^2 (0
    from a single radius), then inflates C1 so every sample satisfies the
    bound (the definition demands a majorant, not a best fit).
    angles_per_radius must be an integer >= 1, and not a bool.  A NaN or
    infinite sample raises IntegrandFailureError.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0 or not np.all((0.0 < radii) & (radii < np.inf)):
        raise ValueError("radii must be nonempty, finite and positive")
    check_int("angles_per_radius", angles_per_radius, 1)
    nrm2 = phi.combined_norm() ** 2
    thetas = 2.0 * np.pi * np.arange(angles_per_radius) / angles_per_radius
    z = (radii[:, None] * np.exp(1j * thetas)).ravel()
    peak = np.abs(F(z, phi)).reshape(radii.size, -1).max(axis=1)
    if not np.isfinite(peak).all():  # max propagates a NaN
        raise IntegrandFailureError(f"U-functional peaks: {peak.tolist()}")
    y = np.log(np.maximum(peak, 1e-300))
    u = radii ** 2 * nrm2
    _, slope = _lstsq_1d(u, y, radii ** 2)
    c2 = max(slope, 0.0)
    log_c1 = np.max(y - c2 * u)
    return BoundFit(C1=float(np.exp(log_c1)), C2=float(c2))

