"""The d = 1 current against Tanaka's formula, a second representation of it.

In d = 1 the current is the Ito integral int_0^T delta(x - B) dB, and Tanaka's
formula for the Heaviside function of B - x gives

    xi(x) = 1{B_T > x} - 1{x < 0} - 1/2 1{x = 0} + 1/2 d/dx L_T^x,

with L the local time (Revuz & Yor, Continuous Martingales and Brownian
Motion, ch. VI).  Its S-transform at z phi, with c(t) = z int_0^t phi and p_t
the heat kernel, is

    Phi_bar((x - c(T)) / sqrt(T)) - 1{x < 0} - 1/2 1{x = 0}
        - 1/2 int_0^T (x - c(t)) / t p_t(x - c(t)) dt,

which continues analytically to complex z, with Phi_bar(w) = erfc(w/sqrt 2)/2.

At x = 0 the integrand is about -phi(0) (2 pi t)^(-1/2) near t = 0; scipy's
quad takes the integral in s = sqrt(t), where it is bounded.  For x != 0 the
integrand in s peaks near s = |x| and then decays like x / s^2, so the range
is split at |x| / 4 times powers of 4.  Both sides hold to 1e-11 at x = 0,
on the x = 0 plateau (|x| = 1e-8) and off it, for real and complex z.
"""

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc

from hidacur import CurrentParams, current_ufunctional, s_current

from conftest import random_phi

BOUND = 1e-11
ZS = (-2.0, 0.5, 3.0)
# |z| = 3 at four angles off the real axis, and 1 + 2i
COMPLEX_ZS = tuple(3.0 * np.exp(1j * np.pi * np.array([0.25, 0.5, 0.75, 1.25]))) \
    + (1.0 + 2.0j,)


def tanaka_s_transform(x, T, phi, z=1.0):
    """S xi(x)(z phi) in d = 1 from Tanaka's formula; z may be complex."""
    def c(t):
        return z * float(phi.cumulative(t, 0))

    def integrand(s):  # 2 s (x - c) / t p_t(x - c) at t = s^2
        y = x - c(s * s)
        return 2.0 * y / (s * s * math.sqrt(2.0 * math.pi)) \
            * cmath.exp(-y * y / (2.0 * s * s))

    def part(a, b, get):
        return quad(lambda s: get(integrand(s)), a, b, epsabs=1e-13,
                    epsrel=1e-13, limit=200)[0]

    root = math.sqrt(T)
    edges = [0.0]
    split = abs(x) / 4.0
    while 0.0 < split < root:
        edges.append(split)
        split *= 4.0
    edges.append(root)
    panels = list(zip(edges, edges[1:]))
    integral = complex(
        math.fsum(part(a, b, lambda v: v.real) for a, b in panels),
        math.fsum(part(a, b, lambda v: v.imag) for a, b in panels))
    jump = 1.0 if x < 0 else 0.5 if x == 0 else 0.0
    return 0.5 * erfc((x - c(T)) / math.sqrt(2.0 * T)) - jump - 0.5 * integral


def xs(rng):
    return [0.0, 1e-3, -1e-3, 1e-8, -1e-8, float(rng.uniform(-2.0, 2.0))]


@pytest.mark.parametrize("T", [0.5, 1.0, 3.0, 40.0])
def test_s_current_matches_tanaka(rng, T):
    for x in xs(rng):
        phi = random_phi(rng, 1, 5)
        value, = s_current(CurrentParams([x], T), phi, tol=1e-12)
        assert abs(value - tanaka_s_transform(x, T, phi)) <= BOUND, x


@pytest.mark.parametrize("T", [0.5, 1.0, 3.0, 40.0])
def test_ufunctional_at_real_z_matches_tanaka(rng, T):
    # S xi(x)(z phi) is the oracle at the test function z phi
    for x in xs(rng):
        phi = random_phi(rng, 1, 5)
        F = current_ufunctional(CurrentParams([x], T), 0)
        for z, value in zip(ZS, F(np.array(ZS), phi)):
            expected = tanaka_s_transform(x, T, phi.scaled(z))
            assert abs(value - expected) <= BOUND, (x, z)


# at z = 3i and x = -1e-8 scipy flags roundoff on the oracle's imaginary part,
# which is only x c(t) there; the comparison below still holds to BOUND
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("T", [0.5, 1.0, 3.0, 40.0])
def test_ufunctional_at_complex_z_matches_tanaka(rng, T):
    for x in xs(rng):
        phi = random_phi(rng, 1, 5, unit_l2=True)
        F = current_ufunctional(CurrentParams([x], T), 0)
        for z, value in zip(COMPLEX_ZS, F(np.array(COMPLEX_ZS), phi)):
            expected = tanaka_s_transform(x, T, phi, z)
            assert abs(value - expected) <= BOUND, (x, z)
