"""The d = 1 current against Tanaka's formula, a second representation of it.

In d = 1 the current is the Ito integral int_0^T delta(x - B) dB, and Tanaka's
formula for the Heaviside function of B - x gives

    xi(x) = 1{B_T > x} - 1{x < 0} - 1/2 1{x = 0} + 1/2 d/dx L_T^x,

with L the local time (Revuz & Yor, Continuous Martingales and Brownian
Motion, ch. VI).  Its S-transform at phi, with c(t) = int_0^t phi and p_t the
heat kernel, is

    Phi_bar((x - c(T)) / sqrt(T)) - 1{x < 0} - 1/2 1{x = 0}
        - 1/2 int_0^T (x - c(t)) / t p_t(x - c(t)) dt.

At x = 0 the integrand is about -phi(0) (2 pi t)^(-1/2) near t = 0; scipy's
quad takes the integral in s = sqrt(t), where it is bounded.  For x != 0 the
integrand in s peaks near s = |x| and then decays like x / s^2, so the range
is split at |x| / 4 times powers of 4.  Both sides hold to 1e-11 at x = 0,
on the x = 0 plateau (|x| = 1e-8) and off it.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from hidacur import CurrentParams, current_ufunctional, s_current

from conftest import random_phi

BOUND = 1e-11
ZS = (-2.0, 0.5, 3.0)


def tanaka_s_transform(x, T, phi):
    """S xi(x)(phi) in d = 1 from Tanaka's formula."""
    def c(t):
        return float(phi.cumulative(t, 0))

    def integrand(s):  # 2 s (x - c) / t p_t(x - c) at t = s^2
        y = x - c(s * s)
        return 2.0 * y / (s * s * math.sqrt(2.0 * math.pi)) \
            * math.exp(-y * y / (2.0 * s * s))

    root = math.sqrt(T)
    edges = [0.0]
    split = abs(x) / 4.0
    while 0.0 < split < root:
        edges.append(split)
        split *= 4.0
    edges.append(root)
    integral = math.fsum(
        quad(integrand, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        for a, b in zip(edges, edges[1:]))
    jump = 1.0 if x < 0 else 0.5 if x == 0 else 0.0
    return ndtr(-(x - c(T)) / root) - jump - 0.5 * integral


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
