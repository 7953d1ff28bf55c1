"""Chaos-kernel pairings: numeric extraction from U(s) = S Psi(s phi) and the
closed-form kernels of the current at every order.

The n-th pairing is the Taylor coefficient a_n = (1/n!) d^n/ds^n U(s) at
s = 0.  Every implemented S-transform extends entire in s, so the
trapezoidal rule on a circle |s| = r reads a_n off one FFT of N samples
(half of them conjugates of the others, since U is real on the real axis),
with an aliasing error of a_{n+N} r^N (Lyness & Moler, SIAM J. Numer. Anal.
4, 1967; Bornemann, Found. Comput. Math. 11, 2011).  The same sum over the
even-indexed N/2 samples aliases a_{n+N/2} r^(N/2) instead; the disagreement
of the two is the error estimate.

The closed forms integrate the z^n Taylor coefficient of the current's own
integrand for one component through stransform._integrate_current, whose
t-kernel comes from a Hermite-type recurrence.  The second-chaos closed form
ships in two conventions, because the printed kernel and the direct Taylor
coefficient of the S-transform differ by a factor of -2 (see
second_chaos_pairing_closed); the numeric extraction arbitrates in the
tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnstableDerivativeError, check_int
# not called here: perfbench's tracer test expects chaos to bind this name
from .quad import integrate_singular  # noqa: F401
from .stransform import _integrate_current

__all__ = [
    "ChaosPairing",
    "extract_chaos_pairing",
    "first_chaos_pairing_closed",
    "second_chaos_pairing_closed",
]

# Contour samples and radius.  Rounding in a_n grows like eps max|U| / r^n
# (8^5 = 3e4 at order 5), aliasing like a_{n+N} r^N.  The half sum's
# r^(N/2) = 6e-8 keeps an unnormalized five-mode phi inside the 1e-6
# relative check; N = 12, r = 1/4 (r^6 = 2e-4) raises and misses a_n by 5e-8.
_N_CONTOUR = 16
_R_CONTOUR = 0.125


@dataclass(frozen=True)
class ChaosPairing:
    value: float
    error_estimate: float


def extract_chaos_pairing(F, phi, n):
    """(1/n!) d^n/ds^n F(s phi) at s = 0, with an error estimate.

    F is called once: at s = 0 for n = 0, otherwise on the N/2 + 1 points
    of the contour's upper half (the lower half is their conjugate for a
    real phi).  Raises ValueError unless n is an integer in [0, N/2), and
    UnstableDerivativeError for a non-finite F(0) at n = 0, or at n >= 1
    unless the full and half sums agree to 1e-6 relative (floored at 1e-9
    absolute), so a NaN sample raises at every order.
    """
    n = check_int("order", n, 0, _N_CONTOUR // 2)
    if n == 0:
        value = complex(F(0.0, phi)).real
        if not np.isfinite(value):
            raise UnstableDerivativeError(f"order-0 sample is {value}")
        return ChaosPairing(value=value, error_estimate=0.0)
    s = _R_CONTOUR * np.exp(1j * np.pi * np.arange(_N_CONTOUR // 2 + 1)
                            / (_N_CONTOUR // 2))
    u = F(s, phi)
    scale = _R_CONTOUR ** n
    value = np.fft.hfft(u, _N_CONTOUR)[n] / (_N_CONTOUR * scale)
    half = np.fft.hfft(u[::2], _N_CONTOUR // 2)[n] / (_N_CONTOUR // 2 * scale)
    disagree = abs(value - half)
    if not disagree <= 1e-6 * max(abs(value), 1.0) + 1e-9:
        raise UnstableDerivativeError(
            f"order-{n} contour sums differ by {disagree:g}")
    return ChaosPairing(value=float(value), error_estimate=float(disagree))


def first_chaos_pairing_closed(p, phi, i):
    """(2 pi)^(-d/2) int_0^T t^(-d/2) exp(-|x|^2/2t) phi_i(t) dt.

    Exists exactly on the existence region; NonexistenceError otherwise."""
    return _integrate_current(p, phi, 1e-11, i, order=1).value


def second_chaos_pairing_closed(p, phi, i, convention="derivative"):
    """Second-chaos pairing <xi_i^(2)(x), phi (x) phi> in closed form.

    convention="paper": the printed kernel, which pairs to
        -(1/2) (2 pi)^(-d/2) int_0^T t^(-d/2-1) exp(-|x|^2/2t) (x . c(t)) phi_i(t) dt.
    convention="derivative": the Taylor coefficient (1/2) U''(0) of the
    current's S-transform, which is
        +(2 pi)^(-d/2) int_0^T t^(-d/2-1) exp(-|x|^2/2t) (x . c(t)) phi_i(t) dt,
    i.e. -2 times the paper value.  The numeric extraction matches the
    derivative convention.
    """
    if convention not in ("paper", "derivative"):
        raise ValueError(f"unknown convention {convention!r}")
    value = _integrate_current(p, phi, 1e-11, i, order=2).value
    return -0.5 * value if convention == "paper" else value
