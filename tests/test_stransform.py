"""Closed-form S-transforms, the Wick integrand, integrability, growth fits."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma

from hidacur import (CurrentParams, IntegrandFailureError, MCConfig,
                     NonexistenceError, TestFunction, UFunctional,
                     check_integrability, default_cutoffs, divergence_scan,
                     donsker_ufunctional, first_chaos_pairing_closed,
                     fit_ufunctional_bound, mc_s_transform, s_current,
                     s_current_mollified, s_donsker,
                     second_chaos_pairing_closed, upper_incomplete_gamma,
                     wick_integrand_ufunctional)
from hidacur import chaos, schwartz, stransform
from hidacur.stransform import _integrate_current, current_ufunctional

from conftest import random_phi

PI14 = np.pi ** (-0.25)


def constant(c):
    """The U-functional of the constant c."""
    return UFunctional(lambda z, phi: np.full(z.shape, c))


class TestCurrentParams:
    @pytest.mark.parametrize("x, T", [
        ([np.inf], 1.0), ([0.5, -np.inf], 1.0), ([np.nan], 1.0),
        ([0.5], np.inf), ([0.5], np.nan), ([0.5], 0.0)])
    def test_rejects_non_finite_or_non_positive(self, x, T):
        with pytest.raises(ValueError):
            CurrentParams(x, T)

    @pytest.mark.parametrize("x", [[], [[0.5, 0.2]]])
    def test_rejects_empty_or_matrix_x(self, x):
        with pytest.raises(ValueError):
            CurrentParams(x, 1.0)

    def test_d_is_the_length_of_x(self):
        assert CurrentParams([0.5, 0.0, -1.0], 1.0).d == 3
        assert CurrentParams(0.5, 1.0).d == 1

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_origin_exponent(self, n, d):
        # the order-n kernel at x = 0 is O(t^((n-1-d)/2)) for odd n and
        # vanishes for even n; it fails to be integrable exactly for odd n < d
        p = CurrentParams(np.zeros(d), 1.0)
        if n % 2 and n < d:
            with pytest.raises(NonexistenceError):
                p.origin_exponent(n)
        else:
            assert p.origin_exponent(n) == ((n - 1 - d) / 2 if n % 2 else 0.0)

    def test_negative_zero_is_the_origin(self):
        p = CurrentParams([-0.0], 1.0)
        assert p.at_origin is True
        phi = TestFunction([[1.0, 0.3]])
        assert np.array_equal(s_current(p, phi),
                              s_current(CurrentParams([0.0], 1.0), phi))

    def test_origin_message_is_the_existence_refusal(self):
        # the text criterion 2's record stores for d = 2
        with pytest.raises(NonexistenceError) as exc:
            CurrentParams([0.0, 0.0], 1.0).origin_exponent()
        assert str(exc.value) == (
            "x=0 with d=2: the first chaos diverges, so the current at the "
            "origin is not a Hida distribution; see diagnostics.")


def _mc_estimate_d2():
    cfg = MCConfig(d=2, T=1.0, x=(1.0, 0.0), n_paths=64, n_steps=16,
                   eps2=0.05, seed=3)
    return mc_s_transform(cfg, TestFunction([[0.5], [0.2]]), n_threads=1)


class TestRecordsCompare:
    """Records holding arrays support == and hash (by identity) without
    numpy's ambiguous-truth-value error."""

    MAKERS = {
        "CurrentParams": lambda: CurrentParams([0.5, -0.2], 1.0),
        "DivergenceReport": lambda: divergence_scan(2, 1.0,
                                                    default_cutoffs(1.0)),
        "QuadResult": lambda: s_current(
            CurrentParams([0.5, -0.2], 1.0), TestFunction([[1.0], [0.3]]),
            full_output=True)[1][0],
        "MCEstimate": _mc_estimate_d2,
        "TestFunction": lambda: TestFunction([[1.0, 2.0], [0.5]]),
    }

    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_equal_valued_records_compare_and_hash(self, name):
        a, b = self.MAKERS[name](), self.MAKERS[name]()
        assert type(a).__name__ == name
        assert a == a and (a == b) is False
        assert a in {a, b} and b in {a, b}


class TestWhiteNoise:
    """S W_i(t)(phi) = phi_i(t): the white noise needs no function of its own,
    its S-transform is TestFunction.eval."""

    def test_zero_phi(self):
        assert TestFunction.zero(1, 3).eval(0.7, 0) == 0.0

    def test_ground_state_origin(self):
        phi = TestFunction.basis_element(1, 0, 0)
        assert phi.eval(0.0, 0) == pytest.approx(PI14, rel=1e-14)


class TestDonsker:
    def test_z_zero_is_heat_kernel(self, rng):
        phi = random_phi(rng, 2, 5)
        x = np.array([0.4, -1.1])
        t = 0.8
        expected = (2 * np.pi * t) ** -1.0 * np.exp(-np.dot(x, x) / (2 * t))
        assert s_donsker(x, t, phi, z=0.0) == pytest.approx(expected, rel=1e-14)

    def test_origin_plugin(self):
        phi = TestFunction.zero(1, 2)
        assert s_donsker([0.0], 1.0, phi) == pytest.approx(
            (2 * np.pi) ** -0.5, rel=1e-14)

    def test_composed_with_cumulative(self):
        phi = TestFunction.basis_element(1, 0, 0)
        q = phi.cumulative(1.0, 0)
        expected = (2 * np.pi) ** -0.5 * np.exp(-((1.0 - q) ** 2) / 2.0)
        assert s_donsker([1.0], 1.0, phi, z=1.0) == pytest.approx(expected, rel=1e-13)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            s_donsker([0.0], 0.0, TestFunction.zero(1))

    def test_complex_z(self, rng):
        phi = random_phi(rng, 1, 4)
        val = s_donsker([0.5], 1.0, phi, z=0.3 + 0.2j)
        assert isinstance(val, complex)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            s_donsker([0.5, 0.1], 1.0, TestFunction.zero(1))

    @pytest.mark.parametrize("x, t, match", [
        ([np.nan], 1.0, "x must be finite"), ([np.inf], 1.0, "x must be finite"),
        ([0.5], np.inf, "T must be"), ([0.5], np.nan, "T must be")])
    def test_non_finite_point_is_refused(self, rng, x, t, match):
        # s_donsker returned nan, and donsker_ufunctional([inf], 1.0) 0.0;
        # all three go through CurrentParams' check
        phi = random_phi(rng, len(x), 4)
        for f in (lambda: s_donsker(x, t, phi),
                  lambda: donsker_ufunctional(x, t)(1.0, phi),
                  lambda: wick_integrand_ufunctional(x, t, 0)(1.0, phi)):
            with pytest.raises(ValueError, match=match):
                f()

    @pytest.mark.parametrize("x, t, match", [
        ([np.inf], 1.0, "x must be finite"), ([0.5], np.nan, "T must be"),
        ([0.5], 0.0, "T must be"), ([], 1.0, "nonempty")])
    def test_ufunctional_point_is_checked_when_built(self, x, t, match):
        # donsker_ufunctional([inf], 1.0) built, and raised only when called
        for build in (lambda: donsker_ufunctional(x, t),
                      lambda: wick_integrand_ufunctional(x, t, 0)):
            with pytest.raises(ValueError, match=match):
                build()

    @pytest.mark.parametrize("build", [
        lambda: current_ufunctional(CurrentParams([0.5, 0.2], 1.0), 5),
        lambda: current_ufunctional(CurrentParams([0.5, 0.2], 1.0), True),
        lambda: wick_integrand_ufunctional([0.5], 1.0, -1),
        lambda: wick_integrand_ufunctional([0.5, 0.2], 1.0, 2),
    ], ids=["current-5", "current-true", "wick-minus-1", "wick-d"])
    def test_ufunctional_index_is_checked_when_built(self, build):
        # each built, and raised only when called
        with pytest.raises(IndexError, match="component index"):
            build()

    @pytest.mark.parametrize("x", [[True], [0.5, True], np.array([False])],
                             ids=["true", "mixed", "bool-array"])
    def test_bool_entry_of_x_is_refused(self, x):
        # CurrentParams([True], 1.0).x was [1.], a point at x = 1
        with pytest.raises(ValueError, match="x must hold real numbers"):
            CurrentParams(x, 1.0)


class TestSCurrent:
    def test_zero_phi_gives_zero_vector(self):
        p = CurrentParams([0.5, 0.2], 1.0)
        assert np.array_equal(s_current(p, TestFunction.zero(2, 3)),
                              np.zeros(2))

    def test_d1_origin_against_scipy_oracle(self):
        phi = TestFunction.basis_element(1, 0, 0)
        p = CurrentParams([0.0], 1.0)

        def integrand(t):
            c = phi.cumulative(t, 0)
            return (2 * np.pi * t) ** -0.5 * np.exp(-c * c / (2 * t)) \
                * phi.eval(t, 0)

        oracle, _ = quad(integrand, 0.0, 1.0, epsabs=1e-13, limit=400)
        vals, (res,) = s_current(p, phi, tol=1e-11, full_output=True)
        assert vals[0] == pytest.approx(oracle, abs=1e-10)
        # in s = t^(1/2) the kernel is smooth, so a few panels suffice
        assert res.node_count <= 200

    def test_rotational_equivariance(self, rng):
        # 90-degree rotation: s_current(Rx, R phi) = R s_current(x, phi)
        R = np.array([[0.0, -1.0], [1.0, 0.0]])
        phi = random_phi(rng, 2, 5)
        x = np.array([0.7, -0.4])
        rot_phi = TestFunction(R @ np.vstack(phi.components))
        v = s_current(CurrentParams(x, 1.0), phi, tol=1e-12)
        v_rot = s_current(CurrentParams(R @ x, 1.0), rot_phi, tol=1e-12)
        assert np.allclose(v_rot, R @ v, atol=1e-10)

    def test_nonexistence_at_origin(self):
        for d in (2, 3):
            p = CurrentParams(np.zeros(d), 1.0)
            with pytest.raises(NonexistenceError):
                s_current(p, TestFunction.zero(d, 2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            s_current(CurrentParams([0.5], 1.0), TestFunction.zero(2, 2))

    @pytest.mark.parametrize("kw", [
        {}, {"i": 1}, {"eps2": 0.05}, {"i": 0, "eps2": 0.05}, {"order": 1},
        {"i": 1, "order": 1}, {"order": 2}, {"i": 0, "order": 2}, {"order": 3},
        {"i": 1, "order": 5}])
    def test_one_hermite_table_per_integrand_call(self, rng, monkeypatch, kw):
        phi = random_phi(rng, 2, 5)
        integrands = []
        monkeypatch.setattr(stransform, "integrate_singular",
                            lambda f, T, **opts: integrands.append(f))
        _integrate_current(CurrentParams([0.4, -0.3], 1.0), phi, 1e-10, **kw)
        (f,) = integrands
        t = np.linspace(0.05, 1.0, 7)
        expected = f(t)
        calls = []
        table = schwartz.hermite_values

        def counted(n_max, t):
            calls.append(n_max)
            return table(n_max, t)

        monkeypatch.setattr(schwartz, "hermite_values", counted)
        assert np.array_equal(f(t), expected)
        assert len(calls) == 1

    @pytest.mark.parametrize("evaluate", [
        lambda p, phi: s_current(p, phi),
        lambda p, phi: s_current_mollified(p, phi, 0.05),
        lambda p, phi: current_ufunctional(p, 1)(np.array([0.5, 2j, -1.5]),
                                                 phi),
        lambda p, phi: first_chaos_pairing_closed(p, phi, 0),
        lambda p, phi: second_chaos_pairing_closed(p, phi, 1),
    ], ids=["s_current", "mollified", "ufunctional", "first", "second"])
    def test_one_quadrature_through_the_entry_point(self, rng, monkeypatch,
                                                    evaluate):
        # every current integral is one integrate_singular call, made in
        # stransform._integrate_current; chaos integrates nothing itself
        calls = []
        integrate = stransform.integrate_singular

        def counted(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        def fail(*args, **kwargs):
            raise AssertionError("chaos called integrate_singular")

        monkeypatch.setattr(stransform, "integrate_singular", counted)
        monkeypatch.setattr(chaos, "integrate_singular", fail)
        evaluate(CurrentParams([0.4, -0.3], 1.0), random_phi(rng, 2, 5))
        assert len(calls) == 1

    @pytest.mark.parametrize("T", [1.0, 16.0, 40.0, 1e3, 1e5])
    def test_one_quadrature_matches_componentwise_integrals(self, rng, T):
        # the (d, n) vector quadrature against scipy per component, x = 0
        # included for d = 1; phi has died off long before t = 50, and
        # scipy's own integral over [0, 1e4] already misses by up to 9e-2, so
        # the T = 1e5 oracle stops at 50
        upper = T if T <= 1e3 else 50.0
        for d, origin in ((1, True), (1, False), (2, False), (3, False)):
            phi = random_phi(rng, d, 5)
            x = np.zeros(d) if origin else rng.uniform(0.3, 1.2, size=d)
            p = CurrentParams(x, T)
            vals, results = s_current(p, phi, tol=1e-10, full_output=True)
            assert len(results) == 1
            assert results[0].abs_error_estimate.shape == (d,)
            for i in range(d):
                def integrand(t):
                    c = np.array([phi.cumulative(t, j) for j in range(d)])
                    q = float(np.sum((x - c) ** 2))
                    return (2 * np.pi * t) ** (-d / 2) * np.exp(-q / (2 * t)) \
                        * phi.eval(t, i)

                oracle, _ = quad(integrand, 0.0, upper, epsabs=1e-13, limit=400)
                assert vals[i] == pytest.approx(oracle, abs=1e-9)

    def test_near_origin_d2_meets_tol(self):
        # the damping constant |x|^2/2 = 5e-21 puts the kernel's mass down
        # to t ~ 1e-20, where the damped mesh starts
        phi = TestFunction([np.array([1.0, 0.3]), np.array([1.0, 0.3])])
        p = CurrentParams([1e-10, 0.0], 1.0)
        vals, (res,) = s_current(p, phi, tol=1e-10, full_output=True)
        assert np.all(np.isfinite(vals))
        assert np.all(res.abs_error_estimate <= 1e-10)

    def test_near_origin_d3_loose_tol_sees_the_peak(self):
        # the kernel peaks near t = r^2 / 3; on a panel whose nodes all lie
        # past the peak, both Gauss sums see only the undamped tail and agree
        # to 2.37 < tol on 4.66, so the mesh has to start at the peak
        vals, (res,) = s_current(CurrentParams([1e-6, 0.0, 0.0], 1.0),
                                 TestFunction([[1.0, 0.3]] * 3), tol=3.0,
                                 full_output=True)
        assert np.all(np.abs(vals - origin_leading_term(3, 1e-6)) <= 3.0)
        assert np.all(res.abs_error_estimate <= 3.0)

    def test_near_origin_d3_meets_relative_tol(self):
        # tol = 1e-10 |S| is 12 at r = 1e-12; the O(1) correction to the
        # leading term is far below it
        lead = origin_leading_term(3, 1e-12)
        tol = 1e-10 * lead
        vals, (res,) = s_current(CurrentParams([1e-12, 0.0, 0.0], 1.0),
                                 TestFunction([[1.0, 0.3]] * 3), tol=tol,
                                 full_output=True)
        assert np.all(np.abs(vals - lead) <= tol)
        assert np.all(res.abs_error_estimate <= tol)

    @pytest.mark.parametrize("r", [1e-200, 1e-160])
    def test_underflowing_x_raises_before_quadrature(self, monkeypatch, r):
        # |x|^2 is 0 at 1e-200 and subnormal at 1e-160, where the kernel
        # overflowed; either way no quadrature is attempted
        def fail(*args, **kwargs):
            raise AssertionError("quadrature on an underflowing |x|^2")

        monkeypatch.setattr(stransform, "integrate_singular", fail)
        phi = TestFunction([np.array([1.0, 0.3]), np.array([0.5])])
        with pytest.raises(IntegrandFailureError):
            s_current(CurrentParams([r, 0.0], 1.0), phi)


def origin_leading_term(d, r):
    """Leading term of S xi_0(x) at T = 1 as |x| = r -> 0 for phi_0 = h_0 +
    0.3 h_1, phi_0(0) = pi^(-1/4): (2 pi)^(-d/2) Gamma(d/2 - 1)
    (r^2/2)^(1 - d/2) times phi_0(0) for d >= 3, and phi_0(0)
    (log(2/r^2) - gamma) / 2 pi for d = 2."""
    if d == 2:
        return PI14 * (np.log(2.0 / r ** 2) - np.euler_gamma) / (2 * np.pi)
    return PI14 * (2 * np.pi) ** (-d / 2) * gamma(d / 2 - 1) \
        * (r * r / 2) ** (1 - d / 2)


class TestComponentIndex:
    """Every current integral refuses a component index outside [0, d), as
    phi.eval and phi.cumulative do."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("index", ["-1", "d", "true"])
    @pytest.mark.parametrize("call", [
        lambda p, phi, i: first_chaos_pairing_closed(p, phi, i),
        lambda p, phi, i: second_chaos_pairing_closed(p, phi, i),
        lambda p, phi, i: current_ufunctional(p, i)(1.0, phi),
        lambda p, phi, i: current_ufunctional(p, i)(0.0, phi),
        lambda p, phi, i: current_ufunctional(p, i)(np.zeros(3), phi),
    ], ids=["first-chaos", "second-chaos", "ufunctional", "ufunctional-z0",
            "ufunctional-z0-vector"])
    def test_out_of_range_index_raises(self, rng, d, index, call):
        # i = -1 read component d - 1, i = d raised numpy's IndexError from
        # inside the quadrature, and at z = 0 returned 0j; at d = 2, i = True
        # read every component (the closed pairings returned a 1 x 2 array)
        p = CurrentParams(rng.uniform(0.3, 1.0, size=d), 1.0)
        i = {"-1": -1, "d": d, "true": True}[index]
        with pytest.raises(IndexError, match="component index"):
            call(p, random_phi(rng, d, 4), i)


class TestApproachToOrigin:
    # S xi(x) along x = (r, 0, ...), phi = [[1.0, 0.3]] * d, T = 1, at
    # tol = 1e-10 |leading term|: the blow-up of the paper's negative result
    RS = 10.0 ** -np.arange(1, 13)

    @staticmethod
    def run(d, r):
        x = [r] + [0.0] * (d - 1)
        vals, (res,) = s_current(
            CurrentParams(x, 1.0), TestFunction([[1.0, 0.3]] * d),
            tol=1e-10 * abs(origin_leading_term(d, r)), full_output=True)
        return vals[0], res.node_count

    def test_d3_power_law(self):
        for r in self.RS[2:]:
            value, _ = self.run(3, r)
            assert abs(value / origin_leading_term(3, r) - 1.0) <= 1e-3, r

    def test_d2_log_law(self):
        # two decades closer, from 100 r to r, log(2/r^2) grows by ln(10^4)
        step = PI14 * np.log(1e4) / (2 * np.pi)
        for r in self.RS[5:]:
            change = self.run(2, r)[0] - self.run(2, 100 * r)[0]
            assert abs(change / step - 1.0) <= 2e-4, r

    @pytest.mark.parametrize("axis", [0, 1])
    def test_d2_constant(self, axis):
        # 2 pi S xi_i(x)(phi) = phi_i(0) (ln(2T/r^2) - gamma) + C_i
        # + O(r ln(1/r^2)), with the regular integral
        # C_i = int_0^T [exp(-|c(t)|^2 / 2t) phi_i(t) - phi_i(0)] / t dt
        phi = TestFunction([[1.0, 0.3], [0.5, -0.2]])
        phi0 = phi.eval_all(np.zeros(1))[:, 0]

        def bracket(t, i):
            c = phi.cumulative_all(np.array([t]))[:, 0]
            return (np.exp(-(c @ c) / (2 * t)) * phi.eval(t, i) - phi0[i]) / t

        C = np.array([quad(bracket, 0.0, 1.0, args=(i,), epsabs=1e-13,
                           epsrel=1e-13)[0] for i in range(2)])
        for r in (1e-6, 1e-8, 1e-10):
            x = np.zeros(2)
            x[axis] = r
            value = s_current(CurrentParams(x, 1.0), phi, tol=1e-13)
            residual = (2 * np.pi * value - C
                        - phi0 * (np.log(2.0 / r ** 2) - np.euler_gamma))
            assert np.all(np.abs(residual) <= r * np.log(1 / r ** 2)), r

    @pytest.mark.parametrize("d", [2, 3])
    def test_node_count_stays_flat(self, d):
        # the damped mesh starts at r^2 / 16, graded up to r^2 / 2, so each
        # decade closer adds a few doubling panels, not a deeper bisection
        # toward t = 0
        assert max(self.run(d, r)[1] for r in self.RS) <= 4300


class TestMollified:
    def test_zero_phi(self):
        p = CurrentParams([0.0, 0.0], 1.0)
        assert np.array_equal(
            s_current_mollified(p, TestFunction.zero(2, 2), 0.05),
            np.zeros(2))

    def test_converges_to_sharp_limit(self, rng):
        phi = random_phi(rng, 1, 5)
        p = CurrentParams([0.7], 1.0)
        sharp = s_current(p, phi, tol=1e-12)[0]
        gaps = [abs(s_current_mollified(p, phi, e, tol=1e-12)[0] - sharp)
                for e in (1e-2, 1e-3, 1e-4)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 1e-4

    def test_origin_d3_finite_with_half_power_growth(self):
        # at x=0, d=3 the mollified value stays finite and grows like
        # eps2^(-1/2), matching the divergence diagnostic's exponent
        phi = TestFunction([np.array([1.0]), np.zeros(1), np.zeros(1)])
        p = CurrentParams(np.zeros(3), 1.0)
        v1 = s_current_mollified(p, phi, 1e-2, tol=1e-12)[0]
        v2 = s_current_mollified(p, phi, 1e-4, tol=1e-12)[0]
        assert np.isfinite(v1) and np.isfinite(v2)
        ratio = v2 / v1  # expect ~ (1e-4 / 1e-2)^(-1/2) = 10
        assert 5.0 < ratio < 20.0

    def test_origin_d2_meets_tol_as_eps2_shrinks(self):
        # the kernel's mass sits at t <~ eps2: a mesh starting at (0, 1]
        # returned 0.922 for every eps2 <= 1e-6 at tol 0.3
        phi = TestFunction([[1.0, 0.3]] * 2)
        p = CurrentParams([0.0, 0.0], 1.0)

        def kernel(u, eps2):  # in u = log t
            t = np.exp(u)
            c = phi.cumulative_all(np.array([t]))[:, 0]
            return (t * np.exp(-(c @ c) / (2 * (t + eps2))) * phi.eval(t, 0)
                    / (2 * np.pi * (t + eps2)))

        for eps2, pinned in [(1e-4, 1.05295), (1e-6, 1.60339),
                             (1e-10, 2.70444), (1e-14, 3.80550)]:
            split = np.log(eps2)
            ref = sum(quad(kernel, a, b, args=(eps2,), epsabs=0.0,
                           epsrel=1e-13, limit=200)[0]
                      for a, b in [(-800.0, split), (split, 0.0)])
            assert ref == pytest.approx(pinned, abs=1e-5)
            value = s_current_mollified(p, phi, eps2, tol=0.3)[0]
            assert abs(value - ref) <= 0.3, eps2

    def test_eps2_domain(self):
        for eps2 in (0.0, np.inf):
            with pytest.raises(ValueError):
                s_current_mollified(CurrentParams([0.5], 1.0),
                                    TestFunction.zero(1), eps2)


class TestWickProduct:
    def test_integrand_factorization(self, rng):
        # S(delta(x - B(t)) wick W_i(t))(phi)
        #   = s_donsker(x, t, phi, 1) * phi_i(t), phi_i(t) being S W_i(t)(phi)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            x = rng.uniform(-1.5, 1.5, size=d)
            t = float(rng.uniform(0.1, 2.0))
            i = int(rng.integers(0, d))
            phi = random_phi(rng, d, 5)
            lhs = wick_integrand_ufunctional(x, t, i)(1.0, phi)
            rhs = s_donsker(x, t, phi, 1.0) * phi.eval(t, i)
            assert lhs == pytest.approx(rhs, rel=1e-14)


class TestBatchedZ:
    ZS = np.array([0.3, -1.2, 0.0, 0.2 + 0.4j, -2.0 + 1.0j, 3.0j])

    def test_closed_forms_match_scalar_calls(self, rng):
        for d in (1, 2, 3):
            phi = random_phi(rng, d, 5)
            x = rng.uniform(-1.5, 1.5, size=d)
            t = float(rng.uniform(0.3, 2.0))
            for F in (donsker_ufunctional(x, t),
                      wick_integrand_ufunctional(x, t, d - 1)):
                batched = F(self.ZS, phi)
                assert batched.shape == self.ZS.shape
                for z, v in zip(self.ZS, batched):
                    assert v == pytest.approx(F(complex(z), phi), rel=1e-14)

    def test_real_vector_stays_real_and_scalars_stay_python(self, rng):
        phi = random_phi(rng, 2, 4)
        zs = np.array([0.5, 1.0, 2.0])
        assert s_donsker([0.3, 0.1], 0.8, phi, zs).dtype == float
        assert type(s_donsker([0.3, 0.1], 0.8, phi, 0.5)) is float
        assert type(s_donsker([0.3, 0.1], 0.8, phi, 0.5j)) is complex
        F = current_ufunctional(CurrentParams([0.3, 0.1], 1.0), 0)
        assert type(F(0.5, phi)) is complex

    def test_current_matches_scalar_calls_within_tol(self, rng):
        tol = 1e-12
        for d in (1, 2, 3):
            phi = random_phi(rng, d, 5)
            p = CurrentParams(rng.uniform(0.3, 1.2, size=d), 1.0)
            F = current_ufunctional(p, d - 1, tol=tol)
            batched = F(self.ZS, phi)
            assert batched.shape == self.ZS.shape
            for z, v in zip(self.ZS, batched):
                assert abs(v - F(z, phi)) <= 2.0 * tol

    def test_zero_vector_runs_no_quadrature(self, rng, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("quadrature at z = 0")

        monkeypatch.setattr(stransform, "integrate_singular", fail)
        F = current_ufunctional(CurrentParams([0.5], 1.0), 0)
        out = F(np.zeros(3), random_phi(rng, 1, 3))
        assert out.shape == (3,) and not np.any(out)
        assert F(0.0, random_phi(rng, 1, 3)) == 0.0
        res = _integrate_current(CurrentParams([0.5], 1.0),
                                 random_phi(rng, 1, 3), 1e-12, 0,
                                 z=np.zeros(3))
        assert res.node_count == res.sweeps == 0
        # the existence check still runs at z = 0
        with pytest.raises(NonexistenceError):
            current_ufunctional(CurrentParams([0.0, 0.0], 1.0), 0)(
                np.zeros(3), random_phi(rng, 2, 3))

    def test_scalar_z_is_adapted_at_the_call(self, rng):
        # func sees a length-1 array; the caller gets a Python scalar back
        seen = []

        def func(z, phi):
            seen.append(z.shape)
            return np.full(z.shape, 2.0)

        out = UFunctional(func)(0.5, random_phi(rng, 1, 3))
        assert type(out) is float and out == 2.0
        assert seen == [(1,)]


class TestCheckIntegrability:
    def test_d1_origin_is_two_sqrt_T(self):
        val = check_integrability(CurrentParams([0.0], 1.0))
        assert val == pytest.approx(2.0, abs=1e-9)

    def test_gamma_identity_value(self):
        val = check_integrability(CurrentParams([1.0, 0.0, 0.0], 1.0))
        expected = np.sqrt(2.0) * upper_incomplete_gamma(0.5, 0.5)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_origin_d2_divergent_log(self):
        # the mass diverges (logarithmically, see TestExamples in
        # test_diagnostics), so the check refuses it as s_current does
        with pytest.raises(NonexistenceError):
            check_integrability(CurrentParams([0.0, 0.0], 1.0))


class TestFitUFunctionalBound:
    def test_constant_functional(self, rng):
        phi = random_phi(rng, 1, 4)
        fit = fit_ufunctional_bound(constant(3.0), phi,
                                    np.geomspace(1.0, 8.0, 6))
        assert fit.C1 == pytest.approx(3.0, rel=1e-10)
        assert fit.C2 <= 1e-12  # zero up to least-squares rounding

    def test_exact_quadratic_growth(self, rng):
        # F(z phi) = exp(z^2) with ||phi|| = 1 must fit C2 >= 1
        phi = random_phi(rng, 1, 4)
        phi = phi.scaled(1.0 / phi.combined_norm())
        F = UFunctional(lambda z, p: np.exp(np.asarray(z, dtype=complex) ** 2))
        fit = fit_ufunctional_bound(F, phi, np.geomspace(1.0, 6.0, 6))
        assert fit.C2 >= 1.0 - 1e-6

    def test_donsker_within_analytic_half(self, rng):
        for _ in range(10):
            d = int(rng.integers(1, 4))
            x = rng.uniform(-1.5, 1.5, size=d)
            t = float(rng.uniform(0.5, 2.0))
            phi = random_phi(rng, d, 5, unit_l2=True)
            fit = fit_ufunctional_bound(donsker_ufunctional(x, t), phi,
                                        np.geomspace(2.0, 12.0, 8))
            assert np.isfinite(fit.C1) and np.isfinite(fit.C2)
            assert fit.C2 <= 0.5 * (1.0 + 1e-6)

    @pytest.mark.parametrize("angles", [2.5, True, 0, -3, 16.0])
    def test_angle_count_must_be_a_positive_integer(self, rng, angles):
        phi = random_phi(rng, 1, 4)
        with pytest.raises(ValueError, match="angles_per_radius"):
            fit_ufunctional_bound(constant(3.0), phi, [1.0, 2.0], angles)

    def test_one_angle_per_radius_is_a_fit(self, rng):
        phi = random_phi(rng, 1, 4)
        fit = fit_ufunctional_bound(constant(3.0), phi, [1.0, 2.0], 1)
        assert fit.C1 == pytest.approx(3.0, rel=1e-10)

    def test_bound_majorizes_samples(self, rng):
        phi = random_phi(rng, 1, 5, unit_l2=True)
        F = donsker_ufunctional([0.6], 1.0)
        radii = np.geomspace(2.0, 12.0, 8)
        fit = fit_ufunctional_bound(F, phi, radii)
        nrm2 = phi.combined_norm() ** 2
        for r in radii:
            for th in np.linspace(0, 2 * np.pi, 16, endpoint=False):
                mag = abs(F(r * np.exp(1j * th), phi))
                assert mag <= fit.C1 * np.exp(fit.C2 * r * r * nrm2) * (1 + 1e-9)


    def test_single_radius_gives_zero_growth_and_a_majorant(self, rng):
        phi = random_phi(rng, 1, 5, unit_l2=True)
        F = donsker_ufunctional([0.6], 1.0)
        for r in (0.7, 3.0, 11.0):
            fit = fit_ufunctional_bound(F, phi, [r])
            assert fit.C2 == 0.0
            for th in np.linspace(0, 2 * np.pi, 16, endpoint=False):
                assert abs(F(r * np.exp(1j * th), phi)) <= fit.C1 * (1 + 1e-9)

    @pytest.mark.parametrize("kind", ["donsker", "wick"])
    def test_non_finite_samples_raise(self, kind):
        # a 30x phi overflows the samples at the two largest of
        # chaos-growth's radii; the fit returned C1 = C2 = nan
        phi = TestFunction([[18.0, -9.0, 7.5, 4.5, -3.0]])
        F = (donsker_ufunctional([0.8], 1.0) if kind == "donsker"
             else wick_integrand_ufunctional([0.8], 1.0, 0))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrandFailureError, match="peaks"):
                fit_ufunctional_bound(F, phi, np.geomspace(2.0, 12.0, 8))

    def test_radii_must_be_positive(self, rng):
        phi = random_phi(rng, 1, 3)
        for radii in ([], [0.0], [1.0, -2.0], [np.inf], [2.0, 4.0, np.inf]):
            with pytest.raises(ValueError):
                fit_ufunctional_bound(constant(1.0), phi, radii)


class TestProofChainBound:
    def test_integrand_bounded_by_chain(self, rng):
        # chain: with c(t) the cumulative vector and the componentwise
        # sup-norm convention sup_t max_i |phi_i(t)| (Euclidean sup picks
        # up a sqrt(d)),
        #   (a) |c(t)| <= sqrt(t) l2_norm  and  |c(t)| <= t sqrt(d) sup_norm
        #   (b) |s_donsker(x,t,phi,z)|
        #         <= (2 pi t)^(-d/2) e^(-|x|^2/2t) e^(|x|^2/2)
        #            e^(|z|^2 (l2^2 + d sup^2) / 2)
        #       (cross term: |x||z| sqrt(d) sup <= |x|^2/2
        #        + d |z|^2 sup^2/2; quadratic term: the sqrt(t)-l2 bound;
        #        for d = 1 the exponent is exactly |z|^2 ||phi||^2 / 2
        #        with the combined norm)
        #   (c) the full integrand gains the factor |z| sup_norm
        for _ in range(1000):
            d = int(rng.integers(1, 4))
            x = rng.uniform(-1.5, 1.5, size=d)
            t = float(rng.uniform(0.05, 2.0))
            i = int(rng.integers(0, d))
            phi = random_phi(rng, d, 4)
            z = complex(*rng.uniform(-1.2, 1.2, size=2))
            sup = phi.sup_norm()
            l2 = phi.l2_norm()
            nrm2 = l2 ** 2 + d * sup ** 2
            x2 = float(np.dot(x, x))

            # (a) both cumulative bounds
            c = np.array([phi.cumulative(t, j) for j in range(d)])
            c_len = float(np.linalg.norm(c))
            assert c_len <= np.sqrt(t) * l2 * (1 + 1e-9)
            assert c_len <= t * np.sqrt(d) * sup * (1 + 1e-9)

            # (b) the Donsker-delta factor alone
            heat = (2 * np.pi * t) ** (-d / 2.0) * np.exp(-x2 / (2 * t))
            growth = np.exp(x2 / 2.0 + 0.5 * abs(z) ** 2 * nrm2)
            assert abs(s_donsker(x, t, phi, z)) <= heat * growth * (1 + 1e-9)

            # (c) full integrand with C = (2 pi)^(-d/2) |z| sup_norm
            lhs = abs(s_donsker(x, t, phi, z) * z * phi.eval(t, i))
            rhs = abs(z) * sup * heat * growth
            assert lhs <= rhs * (1 + 1e-9)


@pytest.mark.parametrize("module", ["stransform", "chaos"])
def test_closed_forms_load_without_the_monte_carlo_module(module):
    # imports run one way: closed forms, then the Monte Carlo oracle, then
    # the experiments.  A bare package stands in for hidacur/__init__.py,
    # which imports every module.
    code = "\n".join([
        "import sys, types",
        "pkg = types.ModuleType('hidacur')",
        f"pkg.__path__ = [{os.path.dirname(stransform.__file__)!r}]",
        "sys.modules['hidacur'] = pkg",
        f"import hidacur.{module}",
        "loaded = sorted(m for m in sys.modules if m.startswith('hidacur.'))",
        "assert 'hidacur.montecarlo' not in loaded, loaded",
    ])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
