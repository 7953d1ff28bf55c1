"""Upper incomplete gamma at a = d/2 - 1 and the singular-mass identity."""

import numpy as np
import pytest
from scipy.special import erfc

from hidacur import integrate_singular, singular_mass_closed, upper_incomplete_gamma

mpmath = pytest.importorskip("mpmath")


class TestUpperIncompleteGamma:
    def test_a_one_is_exponential(self):
        assert upper_incomplete_gamma(1.0, 0.5) == pytest.approx(
            np.exp(-0.5), rel=1e-13)

    def test_a_half_is_erfc(self):
        expected = np.sqrt(np.pi) * erfc(np.sqrt(0.5))
        assert upper_incomplete_gamma(0.5, 0.5) == pytest.approx(expected, rel=1e-13)

    def test_negative_half_by_one_recurrence_step(self):
        # Gamma(-1/2, x) = (Gamma(1/2, x) - x^(-1/2) e^(-x)) / (-1/2)
        g_half = np.sqrt(np.pi) * erfc(np.sqrt(0.5))
        expected = (g_half - 0.5 ** -0.5 * np.exp(-0.5)) / -0.5
        assert upper_incomplete_gamma(-0.5, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_against_mpmath_grid(self):
        worst = 0.0
        # every a = d/2 - 1 with |a| <= 10; x = 300 at a = -1/2 is the worst
        for a in np.arange(-0.5, 10.01, 0.5):
            for x in (0.01, 0.05, 0.3, 0.7, 1.0, 2.5, 10.0, 30.0, 61.0, 125.0,
                      300.0):
                ours = upper_incomplete_gamma(float(a), x)
                ref = float(mpmath.gammainc(float(a), x, mpmath.inf))
                worst = max(worst, abs(ours - ref) / abs(ref))
        assert worst <= 1e-12

    def test_recurrence_identity(self):
        # Gamma(a+1, x) = a Gamma(a, x) + x^a e^(-x), rel 1e-11
        for a in np.arange(-0.5, 3.01, 0.5):
            for x in (0.01, 0.1, 1.0, 10.0):
                lhs = upper_incomplete_gamma(a + 1.0, x)
                rhs = a * upper_incomplete_gamma(a, x) + x ** a * np.exp(-x)
                assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), 1e-300)

    def test_monotone_decreasing_in_x(self):
        for a in (-0.5, 0.0, 0.5, 1.0, 3.0):
            xs = np.geomspace(0.01, 20.0, 40)
            vals = [upper_incomplete_gamma(a, x) for x in xs]
            assert np.all(np.diff(vals) < 0.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            upper_incomplete_gamma(0.5, 0.0)
        with pytest.raises(ValueError):
            upper_incomplete_gamma(0.5, -1.0)
        with pytest.raises(ValueError):
            upper_incomplete_gamma(0.5, np.inf)
        for a in (-10.5, -1.0, -1.5, 0.25):
            with pytest.raises(ValueError):
                upper_incomplete_gamma(a, 1.0)
        with pytest.raises(ValueError, match="overflows"):
            upper_incomplete_gamma(199.0, 0.5)

    @pytest.mark.parametrize("a, x", [(150.0, 800.0), (10.0, 750.0),
                                      (200.5, 900.0)])
    def test_normal_value_lost_to_underflow_raises(self, a, x):
        # mpmath: 1.64e85, 1.45e-300 and 4.1e198, all normal floats, while
        # e^-x underflows and the recurrence would return 0.0
        assert float(mpmath.gammainc(a, x)) > np.finfo(float).tiny
        with pytest.raises(ValueError, match="underflows"):
            upper_incomplete_gamma(a, x)

    @pytest.mark.parametrize("a, x", [(1.0, 800.0), (3.0, 746.0)])
    def test_value_below_normal_range_is_zero(self, a, x):
        # mpmath: 3.7e-348 and 5.8e-319, below the least normal float
        assert float(mpmath.gammainc(a, x)) < np.finfo(float).tiny
        assert upper_incomplete_gamma(a, x) == 0.0


class TestSingularMassClosed:
    def test_d3_displayed_identity(self):
        # d=3, r=1, T=1 -> sqrt(2) * Gamma(1/2, 1/2)
        expected = np.sqrt(2.0) * upper_incomplete_gamma(0.5, 0.5)
        assert singular_mass_closed(3, 1.0, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_d2_is_exponential_integral(self):
        # d=2, r=1, T=1 -> E1(1/2)
        expected = float(mpmath.e1(0.5))
        assert singular_mass_closed(2, 1.0, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_d1_finite(self):
        val = singular_mass_closed(1, 1.0, 1.0)
        assert 0.0 < val < 2.0  # bounded by the undamped mass 2 sqrt(T)

    def test_two_sided_identity_grid(self):
        # closed form vs direct adaptive quadrature, rel 1e-9
        for d in (1, 2, 3, 4, 5):
            for r in (0.5, 1.0, 2.0):
                for T in (0.5, 1.0, 2.0):
                    closed = singular_mass_closed(d, r, T)
                    res = integrate_singular(
                        lambda t: t ** (-d / 2.0) * np.exp(-r * r / (2.0 * t)),
                        T, sing_exponent=-d / 2.0,
                        tol=1e-12 * max(closed, 1.0), damping=r * r / 2.0)
                    assert abs(res.value - closed) <= 1e-9 * closed

    def test_high_dimensions_against_mpmath(self):
        # 2^a r^(2-d) Gamma(a, r^2/2T) at r = T = 1, a = d/2 - 1 up to 19
        for d in (24, 30, 40):
            a = d / 2.0 - 1.0
            ref = float(2 ** mpmath.mpf(a) * mpmath.gammainc(a, 0.5, mpmath.inf))
            assert abs(singular_mass_closed(d, 1.0, 1.0) - ref) <= 1e-12 * ref

    def test_overflow_raises(self):
        # d = 340: Gamma(169, 1/2) is finite, the mass is not; d = 30 at
        # r = 1e-12: r^(2-d) overflows
        for d, r in ((340, 1.0), (30, 1e-12)):
            with pytest.raises(ValueError, match="overflows"):
                singular_mass_closed(d, r, 1.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            singular_mass_closed(2, 0.0, 1.0)
        with pytest.raises(ValueError):
            singular_mass_closed(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            singular_mass_closed(2, 1.0, 0.0)
