"""Chaos-kernel pairings: numeric extraction from U(s) = S Psi(s phi) and the
closed-form first/second kernels of the current.

The n-th pairing is (1/n!) d^n/ds^n U(s) at s = 0.  Every implemented
S-transform extends entire in s, so order 1 uses complex-step
differentiation (no subtractive cancellation); order >= 2 uses central
differences.  Either is taken at three step sizes, in one call of U on all
their points, and extrapolated by one Richardson level per neighbouring
pair; the error estimate is the disagreement of the two extrapolants.

The closed forms integrate the z^1 and z^2 Taylor coefficients of the
current's own integrand (stransform._current_kernel) for one component.
The second-chaos closed form ships in two conventions, because the printed
kernel and the direct Taylor coefficient of the S-transform differ by a
factor of -2 (see second_chaos_pairing_closed); the numeric derivative
arbitrates in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .errors import UnstableDerivativeError
from .quad import integrate_singular
from .stransform import _current_kernel

__all__ = [
    "ChaosPairing",
    "extract_chaos_pairing",
    "first_chaos_pairing_closed",
    "second_chaos_pairing_closed",
]


@dataclass(frozen=True)
class ChaosPairing:
    value: float
    error_estimate: float
    order: int


def extract_chaos_pairing(F, phi, n, step=None, rtol=1e-6):
    """(1/n!) d^n/ds^n F(s phi) at s = 0, with an error estimate.

    F is called once, on the vector of every step the estimate needs.
    Raises UnstableDerivativeError when two step sizes disagree by more than
    rtol relative (floored at 1e-9 absolute).
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    if n == 0:
        return ChaosPairing(value=complex(F(0.0, phi)).real, error_estimate=0.0,
                            order=0)

    # derivative estimates at steps h, h/2 and h/4
    hs = (step or (1e-2 if n == 1 else 0.05)) / 2.0 ** np.arange(3)
    if n == 1:
        d_h = np.broadcast_to(F(1j * hs, phi), hs.shape).imag / hs
    else:
        # the n-th central difference at step hh reads U((n/2 - k) hh),
        # k = 0..n; the three stencils share points (0 for even n), each
        # evaluated once
        ks = np.arange(n + 1)
        coef = np.array([(-1.0) ** k * comb(n, k) for k in ks])
        ss, where = np.unique(np.outer(hs, n / 2.0 - ks), return_inverse=True)
        vals = np.real(np.broadcast_to(F(ss, phi), ss.shape))[where]
        d_h = [float(np.dot(coef, v)) / hh ** n
               for v, hh in zip(vals.reshape(3, n + 1), hs.tolist())]
    # one Richardson level per neighbouring pair kills the h^2 term
    r1 = (4.0 * d_h[1] - d_h[0]) / 3.0
    r2 = (4.0 * d_h[2] - d_h[1]) / 3.0
    disagree = abs(r1 - r2)
    if disagree > rtol * max(abs(r2), 1.0) + 1e-9:
        raise UnstableDerivativeError(
            f"order-{n} Richardson estimates differ by {disagree:g}")
    return ChaosPairing(value=float(r2) / factorial(n),
                        error_estimate=float(disagree) / factorial(n), order=n)


def first_chaos_pairing_closed(p, phi, i, tol=1e-11):
    """(2 pi)^(-d/2) int_0^T t^(-d/2) exp(-|x|^2/2t) phi_i(t) dt.

    Exists exactly on the existence region; NonexistenceError otherwise."""
    f, opts = _current_kernel(p, phi, i, order=1)
    return integrate_singular(f, p.T, tol=tol, **opts).value


def second_chaos_pairing_closed(p, phi, i, convention="derivative", tol=1e-11):
    """Second-chaos pairing <xi_i^(2)(x), phi (x) phi> in closed form.

    convention="paper": the printed kernel, which pairs to
        -(1/2) (2 pi)^(-d/2) int_0^T t^(-d/2-1) exp(-|x|^2/2t) (x . c(t)) phi_i(t) dt.
    convention="derivative": the Taylor coefficient (1/2) U''(0) of the
    current's S-transform, which is
        +(2 pi)^(-d/2) int_0^T t^(-d/2-1) exp(-|x|^2/2t) (x . c(t)) phi_i(t) dt,
    i.e. -2 times the paper value.  The numeric-derivative oracle matches
    the derivative convention.
    """
    if convention not in ("paper", "derivative"):
        raise ValueError(f"unknown convention {convention!r}")
    # x.c(t) ~ t near 0, so the t^(-d/2) exponent of the current still holds
    f, opts = _current_kernel(p, phi, i, order=2)
    value = integrate_singular(f, p.T, tol=tol, **opts).value
    return -0.5 * value if convention == "paper" else value
