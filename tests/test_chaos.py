"""Chaos-pairing extraction and the closed-form first/second kernels."""

import numpy as np
import pytest
from scipy.integrate import quad

from hidacur import (CurrentParams, NonexistenceError,
                     TestFunction, UFunctional, UnstableDerivativeError, chaos,
                     extract_chaos_pairing, first_chaos_pairing_closed,
                     second_chaos_pairing_closed)
from hidacur.stransform import (_integrate_current, current_ufunctional,
                                donsker_ufunctional, fit_ufunctional_bound)

from conftest import random_phi


class TestExtraction:
    def test_order_zero_of_current_is_zero(self, rng):
        for _ in range(5):
            d = int(rng.integers(1, 4))
            x = rng.uniform(0.3, 1.5, size=d)
            F = current_ufunctional(CurrentParams(x, 1.0), 0)
            phi = random_phi(rng, d, 5)
            pairing = extract_chaos_pairing(F, phi, 0)
            assert pairing.value == 0.0

    def test_order_one_on_donsker_analytic_oracle(self, rng):
        # d/dz S delta(x - B(t))(z phi) at z=0
        #   = (2 pi t)^(-1/2) e^(-x^2/2t) (x/t) c(t)   (d = 1)
        for _ in range(10):
            x = float(rng.uniform(-1.5, 1.5))
            t = float(rng.uniform(0.3, 2.0))
            phi = random_phi(rng, 1, 5)
            F = donsker_ufunctional([x], t)
            c = phi.cumulative(t, 0)
            expected = (2 * np.pi * t) ** -0.5 * np.exp(-x * x / (2 * t)) \
                * (x / t) * c
            got = extract_chaos_pairing(F, phi, 1)
            assert got.value == pytest.approx(expected, abs=1e-10)

    def test_order_one_matches_closed_form(self, rng):
        for _ in range(10):
            d = int(rng.integers(1, 4))
            x = rng.uniform(0.3, 1.5, size=d) * rng.choice([-1.0, 1.0], size=d)
            i = int(rng.integers(0, d))
            p = CurrentParams(x, 1.0)
            phi = random_phi(rng, d, 5)
            F = current_ufunctional(p, i, tol=1e-13)
            got = extract_chaos_pairing(F, phi, 1)
            closed = first_chaos_pairing_closed(p, phi, i)
            assert got.value == pytest.approx(closed, abs=1e-8)

    def test_homogeneity(self, rng):
        for n in (1, 2, 3):
            phi = random_phi(rng, 1, 4, unit_l2=True)
            F = donsker_ufunctional([0.8], 1.0)
            lam = 1.7
            base = extract_chaos_pairing(F, phi, n).value
            scaled = extract_chaos_pairing(F, phi.scaled(lam), n).value
            assert scaled == pytest.approx(lam ** n * base, abs=1e-8)

    def test_contour_agrees_with_central_difference(self, rng):
        # the contour sum against an independent Richardson-extrapolated
        # central difference on the real axis
        for _ in range(10):
            phi = random_phi(rng, 1, 4)
            F = donsker_ufunctional([float(rng.uniform(-1, 1))], 1.0)
            cs = extract_chaos_pairing(F, phi, 1).value
            h = 1e-5
            cd = (complex(F(h, phi)).real - complex(F(-h, phi)).real) / (2 * h)
            h2 = h / 2
            cd2 = (complex(F(h2, phi)).real - complex(F(-h2, phi)).real) / (2 * h2)
            cd_rich = (4 * cd2 - cd) / 3.0
            assert cs == pytest.approx(cd_rich, abs=1e-9)

    def test_unstable_derivative_raises(self, rng):
        noise = np.random.default_rng(5)

        def alternating(z, phi):
            # noise of alternating sign on each element of a z vector
            z = np.asarray(z, dtype=complex)
            sign = (-1.0) ** np.arange(1, z.size + 1)
            return z + 1e-3 * sign.reshape(z.shape) * 1j

        def gaussian(z, phi):
            # seeded Gaussian noise of size 1e-3 on each element
            z = np.asarray(z, dtype=complex)
            return z + 1e-3 * noise.normal(size=z.shape)

        for noisy in (alternating, gaussian):
            with pytest.raises(UnstableDerivativeError):
                extract_chaos_pairing(UFunctional(noisy),
                                      random_phi(rng, 1, 3), 1)

    def test_nan_sample_raises(self, rng):
        # a NaN F(0), or a NaN disagreement of the contour sums, raises
        nan = UFunctional(lambda z, phi: np.full(z.shape, np.nan, dtype=complex))
        for n in (0, 1, 2):
            with pytest.raises(UnstableDerivativeError):
                extract_chaos_pairing(nan, random_phi(rng, 1, 3), n)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_current_extraction_is_one_quadrature(self, rng, monkeypatch, n):
        # every contour point shares one vector quadrature
        from hidacur import stransform

        calls = []
        integrate = stransform.integrate_singular

        def counted(f, *args, **kwargs):
            calls.append(1)
            return integrate(f, *args, **kwargs)

        monkeypatch.setattr(stransform, "integrate_singular", counted)
        phi = random_phi(rng, 2, 5)
        p = CurrentParams([0.7, -0.4], 1.0)
        extract_chaos_pairing(current_ufunctional(p, 1, tol=1e-13), phi, n)
        assert len(calls) == 1

    def test_bad_order(self, rng):
        # negative, or beyond what the half sum of the contour resolves
        for n in (-1, chaos._N_CONTOUR // 2):
            with pytest.raises(ValueError):
                extract_chaos_pairing(donsker_ufunctional([0.5], 1.0),
                                      random_phi(rng, 1, 3), n)


class TestFirstChaosClosed:
    def test_zero_phi(self):
        p = CurrentParams([0.5], 1.0)
        assert first_chaos_pairing_closed(p, TestFunction.zero(1, 3), 0) == 0.0

    def test_d1_origin_finite(self):
        phi = TestFunction.basis_element(1, 0, 0)
        p = CurrentParams([0.0], 1.0)
        val = first_chaos_pairing_closed(p, phi, 0)
        assert np.isfinite(val) and val > 0.0

    def test_nonexistence(self):
        p = CurrentParams([0.0, 0.0], 1.0)
        with pytest.raises(NonexistenceError):
            first_chaos_pairing_closed(p, TestFunction.zero(2, 2), 0)


class TestSecondChaosClosed:
    def test_orthogonal_x_vanishes(self, rng):
        # d=2, x along component 1, phi supported in component 0:
        # x . c(t) = 0 for all t, so both conventions give 0
        phi = TestFunction([rng.normal(size=4), np.zeros(1)])
        p = CurrentParams([0.0, 1.0], 1.0)
        for conv in ("paper", "derivative"):
            assert second_chaos_pairing_closed(p, phi, 0, convention=conv) \
                == pytest.approx(0.0, abs=1e-14)

    def test_zero_phi(self):
        p = CurrentParams([0.5], 1.0)
        for conv in ("paper", "derivative"):
            assert second_chaos_pairing_closed(
                p, TestFunction.zero(1, 2), 0, convention=conv) == 0.0

    def test_derivative_convention_matches_numeric(self, rng):
        for _ in range(10):
            d = int(rng.integers(1, 3))
            x = rng.uniform(0.4, 1.5, size=d) * rng.choice([-1.0, 1.0], size=d)
            i = int(rng.integers(0, d))
            p = CurrentParams(x, 1.0)
            phi = random_phi(rng, d, 5)
            F = current_ufunctional(p, i, tol=1e-13)
            numeric = extract_chaos_pairing(F, phi, 2)
            closed = second_chaos_pairing_closed(p, phi, i,
                                                 convention="derivative")
            assert numeric.value == pytest.approx(closed, abs=1e-6)

    def test_conventions_differ_by_minus_two(self, rng):
        phi = random_phi(rng, 2, 5)
        p = CurrentParams([1.0, -0.3], 1.0)
        a = second_chaos_pairing_closed(p, phi, 0, convention="derivative")
        b = second_chaos_pairing_closed(p, phi, 0, convention="paper")
        assert a / b == pytest.approx(-2.0, rel=1e-12)

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            second_chaos_pairing_closed(CurrentParams([0.5], 1.0),
                                        TestFunction.zero(1), 0,
                                        convention="other")


class TestHigherOrderClosed:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_recurrence_matches_contour(self, rng, n, d):
        for _ in range(3):
            x = rng.uniform(0.4, 1.5, size=d) * rng.choice([-1.0, 1.0], size=d)
            i = int(rng.integers(0, d))
            p = CurrentParams(x, 1.0)
            phi = random_phi(rng, d, 5)
            numeric = extract_chaos_pairing(
                current_ufunctional(p, i, tol=1e-13), phi, n)
            closed = _integrate_current(p, phi, 1e-13, i, order=n).value
            assert numeric.value == pytest.approx(closed, abs=1e-10)


class TestOrdersAtOrigin:
    """At x = 0 the order-n kernel is O(t^((n-1)/2 - d/2)) for odd n and 0
    for even n: the divergence of the current lives in the odd orders n < d."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_odd_low_orders_diverge_even_vanish(self, rng, d):
        phi = random_phi(rng, d, 5)
        p = CurrentParams(np.zeros(d), 1.0)
        with pytest.raises(NonexistenceError):
            first_chaos_pairing_closed(p, phi, 0)
        assert second_chaos_pairing_closed(p, phi, 0) == 0.0
        # order 3: -(1/2)(2 pi)^(-d/2) int_0^1 t^(-d/2-1) |c(t)|^2 phi_0(t) dt
        got = _integrate_current(p, phi, 1e-10, 0, order=3).value

        def integrand(t):
            c = phi.cumulative_all(t)
            return t ** (-d / 2 - 1) * np.dot(c, c) * phi.eval(t, 0)

        oracle = -0.5 * (2 * np.pi) ** (-d / 2) * quad(
            integrand, 0.0, 1.0, epsabs=1e-13, limit=200)[0]
        assert np.isfinite(got)
        assert got == pytest.approx(oracle, abs=1e-9)
        # the kernel is t^(-1/2) times a smooth function at d = 3, smooth at
        # d = 2, so even tol 1e-12 takes a few panels
        assert _integrate_current(p, phi, 1e-12, 0, order=3).node_count <= 200

    @pytest.mark.parametrize("d", [2, 3])
    def test_order_three_is_continuous_at_origin(self, rng, d):
        phi = random_phi(rng, d, 5)
        v0 = _integrate_current(CurrentParams(np.zeros(d), 1.0), phi, 1e-10,
                                0, order=3).value
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        gaps = [abs(_integrate_current(CurrentParams(r * u, 1.0), phi, 1e-10,
                                       0, order=3).value - v0)
                for r in (1e-2, 1e-3, 1e-4)]
        assert gaps[1] < gaps[0] / 5 and gaps[2] < gaps[1] / 5
        assert gaps[2] < 1e-3 * abs(v0)


class TestTruncatedReconstruction:
    def test_wick_expansion_reproduces_u_at_one(self, rng):
        # U(1) = sum_n (pairing_n); remainder controlled by the growth fit:
        # |U(s)| <= C1 e^(C2 s^2 ||phi||^2) implies Taylor coefficients
        # |a_n| <= C1 e^(C2 r^2 ||phi||^2) / r^n for any r (Cauchy), so the
        # tail past n=3 is bounded by a geometric series
        for _ in range(5):
            phi = random_phi(rng, 1, 4)
            phi = phi.scaled(0.1 / phi.combined_norm())  # ||phi|| = 0.1
            x = float(rng.uniform(0.3, 1.0))
            F = donsker_ufunctional([x], 1.0)
            total = sum(extract_chaos_pairing(F, phi, n).value
                        for n in range(4))
            fit = fit_ufunctional_bound(F, phi, np.geomspace(5.0, 40.0, 6))
            nrm = phi.combined_norm()
            r = 10.0
            coeff_bound = fit.C1 * np.exp(fit.C2 * r * r * nrm * nrm)
            tail = sum(coeff_bound / r ** n for n in range(4, 40))
            u1 = complex(F(1.0, phi)).real
            assert abs(u1 - total) <= tail + 1e-8

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_current_coefficients_meet_cauchy_estimate_of_its_fit(self, rng, d):
        # |F(s phi)| <= C1 e^(C2 |s|^2 ||phi||^2) and Cauchy's estimate on the
        # circle of the best radius give |a_n| <= C1 (2e C2 ||phi||^2 / n)^(n/2);
        # phi has unit L2 norm, as in the experiment runners
        for _ in range(2):
            phi = random_phi(rng, d, 5, unit_l2=True)
            p = CurrentParams(rng.uniform(0.3, 1.5, size=d), 1.0)
            i = int(rng.integers(0, d))
            fit = fit_ufunctional_bound(current_ufunctional(p, i, tol=1e-9),
                                        phi, np.geomspace(0.5, 4.0, 8))
            F = current_ufunctional(p, i, tol=1e-13)
            nrm2 = phi.combined_norm() ** 2
            for n in range(1, 8):
                a_n = extract_chaos_pairing(F, phi, n).value
                bound = fit.C1 * (2.0 * np.e * fit.C2 * nrm2 / n) ** (n / 2)
                assert abs(a_n) <= bound
