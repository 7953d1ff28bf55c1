"""Chaos-kernel pairings: numeric extraction from U(s) = S Psi(s phi) and the
closed-form first/second kernels of the current.

The n-th pairing is (1/n!) d^n/ds^n U(s) at s = 0.  Every implemented
S-transform extends entire in s, so order 1 uses complex-step
differentiation (no subtractive cancellation); order >= 2 uses central
differences with one Richardson extrapolation, with the error estimated
from the disagreement between two step sizes.

The closed forms integrate the z^1 and z^2 Taylor coefficients of the
current's own integrand (stransform._current_kernel) for one component.
The second-chaos closed form ships in two conventions, because the printed
kernel and the direct Taylor coefficient of the S-transform differ by a
factor of -2 (see second_chaos_pairing_closed); the numeric derivative
arbitrates in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _real(v):
    v = complex(v)
    return v.real


def extract_chaos_pairing(F, phi, n, step=None, rtol=1e-6):
    """(1/n!) d^n/ds^n F(s phi) at s = 0, with an error estimate.

    Raises UnstableDerivativeError when two step sizes disagree by more than
    rtol relative (floored at 1e-9 absolute).
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    if n == 0:
        return ChaosPairing(value=_real(F(0.0, phi)), error_estimate=0.0, order=0)

    if n == 1:
        # complex step (no cancellation), sharpened by one Richardson level
        # to kill the h^2 truncation term
        h = step or 1e-2
        d_h = [complex(F(1j * (h / 2.0 ** k), phi)).imag / (h / 2.0 ** k)
               for k in range(3)]
        r1 = (4.0 * d_h[1] - d_h[0]) / 3.0
        r2 = (4.0 * d_h[2] - d_h[1]) / 3.0
        disagree = abs(r1 - r2)
        if disagree > rtol * max(abs(r2), 1.0) + 1e-9:
            raise UnstableDerivativeError(
                f"complex-step order-1 estimates differ by {disagree:g}")
        return ChaosPairing(value=r2, error_estimate=disagree, order=1)

    # n >= 2: central differences on the ray plus one Richardson level
    from math import comb, factorial

    h = step or 0.05

    def deriv_n(hh):
        # n-th central difference: sum_k (-1)^k C(n,k) U((n/2 - k) hh) / hh^n
        ks = np.arange(n + 1)
        coef = np.array([(-1.0) ** k * comb(n, k) for k in ks])
        ss = (n / 2.0 - ks) * hh
        vals = np.array([_real(F(s, phi)) for s in ss])
        return float(np.dot(coef, vals)) / hh ** n

    def richardson(hh):
        d1, d2 = deriv_n(hh), deriv_n(hh / 2.0)
        return (4.0 * d2 - d1) / 3.0

    r1, r2 = richardson(h), richardson(h / 2.0)
    disagree = abs(r1 - r2)
    if disagree > rtol * max(abs(r2), 1.0) + 1e-9:
        raise UnstableDerivativeError(
            f"order-{n} Richardson estimates differ by {disagree:g}")
    return ChaosPairing(value=r2 / factorial(n),
                        error_estimate=disagree / factorial(n), order=n)


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
