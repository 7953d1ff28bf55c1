"""Endpoint-singular adaptive quadrature."""

import numpy as np
import pytest

from hidacur import (CurrentParams, IntegrandFailureError,
                     QuadratureBudgetError, TestFunction,
                     current_ufunctional, first_chaos_pairing_closed,
                     integrate_singular, quad, s_current,
                     second_chaos_pairing_closed, stransform,
                     upper_incomplete_gamma)

# the three reference integrands with known exact values
CASES = [
    ("sqrt_singularity",
     lambda t: t ** -0.5, 1.0, -0.5, None, 2.0),
    ("damped_three_halves",
     lambda t: t ** -1.5 * np.exp(-0.5 / t), 1.0, -1.5, 0.5,
     np.sqrt(2.0) * upper_incomplete_gamma(0.5, 0.5)),
    ("constant",
     lambda t: np.ones_like(t), 2.0, 0.0, None, 2.0),
]


class TestExamples:
    @pytest.mark.parametrize("name,f,T,p,damping,exact",
                             CASES, ids=[c[0] for c in CASES])
    def test_known_values(self, name, f, T, p, damping, exact):
        res = integrate_singular(f, T, sing_exponent=p, tol=1e-10,
                                 damping=damping)
        assert abs(res.value - exact) <= 1e-9
        assert res.node_count > 0


class TestSweeps:
    # (case, tol, integrand calls, nodes): one call per breadth-first sweep
    # of the open panels; the node counts pin the accepted panel set, whose
    # damped mesh (case 1, c = 0.5) starts graded, (0, c/8], (c/8, c/4],
    # (c/4, c/2], (c/2, c], and at 1e-14 still bisects once
    SWEEPS = [(0, 1e-6, 1, 48), (0, 1e-10, 1, 48),
              (1, 1e-6, 1, 240), (1, 1e-10, 1, 240), (1, 1e-14, 2, 336),
              (2, 1e-6, 1, 96), (2, 1e-10, 1, 96)]

    @staticmethod
    def run(case, tol):
        name, f, T, p, damping, exact = CASES[case]
        calls = []

        def counted(t):
            calls.append(t.size)
            return f(t)

        res = integrate_singular(counted, T, sing_exponent=p, tol=tol,
                                 damping=damping)
        return res, calls

    @pytest.mark.parametrize("case,tol,n_calls,nodes", SWEEPS)
    def test_one_call_per_sweep(self, case, tol, n_calls, nodes):
        res, calls = self.run(case, tol)
        assert res.sweeps == len(calls) == n_calls
        assert res.node_count == sum(calls) == nodes

    @pytest.mark.parametrize("case,tol,n_calls,nodes", SWEEPS)
    def test_budget_boundary(self, case, tol, n_calls, nodes, monkeypatch):
        monkeypatch.setattr(quad, "NODE_BUDGET", nodes)
        res, _ = self.run(case, tol)
        assert res.node_count == nodes
        monkeypatch.setattr(quad, "NODE_BUDGET", nodes - 1)
        with pytest.raises(QuadratureBudgetError) as excinfo:
            self.run(case, tol)
        assert excinfo.value.best_estimate is not None

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_current_integrals_take_one_sweep(self, d, monkeypatch):
        # every current integral of a fixed instance starts on a mesh that
        # already meets its tol: s_current, both closed chaos pairings and
        # the current's U-functional on the 9-point upper contour
        results = []

        def recorded(*args, **kwargs):
            results.append(integrate_singular(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(stransform, "integrate_singular", recorded)
        p = CurrentParams([0.8] + [0.0] * (d - 1), 1.0)
        phi = TestFunction([[0.6, -0.3, 0.25, 0.15, -0.1]] * d)
        s_current(p, phi, tol=1e-8)
        first_chaos_pairing_closed(p, phi, 0)
        second_chaos_pairing_closed(p, phi, 0)
        contour = 0.125 * np.exp(1j * np.pi * np.arange(9) / 8)
        current_ufunctional(p, 0, tol=1e-13)(contour, phi)
        assert [r.sweeps for r in results] == [1, 1, 1, 1]


class TestErrorEstimate:
    def test_estimate_bounds_true_error(self):
        # sampled tolerances; the reported estimate must bound the true
        # error in >= 99% of runs
        tols = np.geomspace(1e-4, 1e-11, 30)
        total = ok = 0
        for name, f, T, p, damping, exact in CASES:
            for tol in tols:
                res = integrate_singular(f, T, sing_exponent=p, tol=tol,
                                         damping=damping)
                total += 1
                ok += abs(res.value - exact) <= max(res.abs_error_estimate, 1e-15)
        assert ok / total >= 0.99

    @pytest.mark.parametrize("f", [lambda t: np.cos(40.0 * t),
                                   lambda t: np.exp(40j * t)],
                             ids=["scalar", "complex"])
    def test_one_panel_error_is_the_gauss_pair_difference(self, f):
        # T = 1 undamped is the one panel (0, 1], accepted at tol 1: the
        # value is its 32-point sum and the error |Q32 - Q16|, each from
        # leggauss on its own
        def gauss(n):
            x, w = np.polynomial.legendre.leggauss(n)
            return 0.5 * (w @ f(0.5 + 0.5 * x))

        res = integrate_singular(f, 1.0, sing_exponent=0.0, tol=1.0)
        assert (res.sweeps, res.node_count) == (1, 48)
        assert res.value == pytest.approx(gauss(32), abs=1e-15)
        assert res.abs_error_estimate == pytest.approx(
            abs(gauss(32) - gauss(16)), rel=1e-12, abs=1e-15)
        assert 1e-6 < res.abs_error_estimate < 1.0

    def test_halving_tol_never_hurts(self):
        for name, f, T, p, damping, exact in CASES:
            prev_err = np.inf
            for tol in (1e-4, 5e-5, 2.5e-5, 1.25e-5, 1e-8, 5e-9):
                res = integrate_singular(f, T, sing_exponent=p, tol=tol,
                                         damping=damping)
                err = abs(res.value - exact)
                assert err <= prev_err + 1e-14
                prev_err = err


class TestFailures:
    def test_divergent_without_damping_rejected(self):
        with pytest.raises(ValueError):
            integrate_singular(lambda t: t ** -1.5, 1.0,
                               sing_exponent=-1.5, tol=1e-8)

    def test_nan_integrand_raises(self):
        def f(t):
            return np.where(t < 0.5, np.nan, 1.0)

        with pytest.raises(IntegrandFailureError,
                           match=r"NaN/inf on \[0\.0, 1\.0\]"):
            integrate_singular(f, 1.0, sing_exponent=0.0, tol=1e-8)

    # T = 4 starts on the panels [0, 1], [1, 2] and [2, 4]
    def test_first_bad_panel_is_named(self):
        def f(t):
            return np.where(t > 2.5, np.nan, 1.0)

        with pytest.raises(IntegrandFailureError,
                           match=r"NaN/inf on \[2\.0, 4\.0\]"):
            integrate_singular(f, 4.0, sing_exponent=0.0, tol=1e-8)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_bad_value_at_one_16_point_node(self, bad):
        # the panel [1, 2] has mid 1.5 and half-width 0.5; its 32-point sum
        # stays finite, so only the 16-point sum sees the bad value
        node = 1.5 + 0.5 * quad._X16[5]
        assert node not in 1.5 + 0.5 * quad._X32

        def f(t):
            return np.where(t == node, bad, 1.0)

        with pytest.raises(IntegrandFailureError,
                           match=r"NaN/inf on \[1\.0, 2\.0\]"):
            integrate_singular(f, 4.0, sing_exponent=0.0, tol=1e-8)

    def test_one_bad_row_of_a_vector_integrand(self):
        def f(t):
            return np.vstack([np.ones_like(t),
                              np.where(t > 2.5, np.inf, t), np.cos(t)])

        with pytest.raises(IntegrandFailureError,
                           match=r"NaN/inf on \[2\.0, 4\.0\]"):
            integrate_singular(f, 4.0, sing_exponent=0.0, tol=1e-8)

    def test_finite_values_whose_sums_overflow_are_not_named(self):
        # every value is finite but the Gauss sums overflow: no panel is
        # accepted, and the budget, not a NaN/inf report, ends the run
        with pytest.raises(QuadratureBudgetError):
            integrate_singular(lambda t: np.full_like(t, 1e308), 1.0,
                               sing_exponent=0.0, tol=1e-8)

    def test_budget_error_carries_best_estimate(self, monkeypatch):
        monkeypatch.setattr(quad, "NODE_BUDGET", 2000)
        with pytest.raises(QuadratureBudgetError) as excinfo:
            integrate_singular(lambda t: np.cos(1.0 / t) / np.sqrt(t), 1.0,
                               sing_exponent=-0.5, tol=1e-14)
        assert excinfo.value.best_estimate is not None

    def test_no_estimate_above_tol_is_returned(self):
        # an interior singularity the Gauss pair cannot resolve: the result
        # either raises or meets tol, never a larger estimate
        def f(t):
            return (np.abs(t - 1.0 / np.pi) + 1e-300) ** -0.5

        try:
            res = integrate_singular(f, 1.0, sing_exponent=0.0, tol=1e-8)
        except QuadratureBudgetError:
            return
        assert res.abs_error_estimate <= 1e-8

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            integrate_singular(lambda t: t, 0.0, sing_exponent=0.0, tol=1e-8)
        with pytest.raises(ValueError):
            integrate_singular(lambda t: t, np.inf, sing_exponent=0.0, tol=1e-8)
        with pytest.raises(ValueError):
            integrate_singular(lambda t: t, 1.0, sing_exponent=0.0, tol=0.0)


class TestComplexIntegrands:
    def test_complex_result(self):
        res = integrate_singular(lambda t: np.exp(1j * t), 1.0,
                                 sing_exponent=0.0, tol=1e-12)
        exact = (np.exp(1j) - 1.0) / 1j
        assert abs(res.value - exact) <= 1e-11
        assert isinstance(res.value, complex)


class TestVectorIntegrands:
    # two damped real integrals and a complex one, stacked on one mesh
    @staticmethod
    def stack(t):
        return np.array([np.exp(-0.5 / t) / np.sqrt(t),
                         np.exp(-0.5 / t) * t ** -1.5,
                         np.exp(1j * t) * np.exp(-0.5 / t)])

    def separate(self, tol):
        return [integrate_singular(lambda t, k=k: self.stack(t)[k], 1.0,
                                   sing_exponent=-1.5, tol=tol, damping=0.5)
                for k in range(3)]

    def test_rows_match_exact_values_on_one_mesh(self):
        tol = 1e-10
        res = integrate_singular(self.stack, 1.0, sing_exponent=-1.5,
                                 tol=tol, damping=0.5)
        exact = [upper_incomplete_gamma(-0.5, 0.5) / np.sqrt(2.0),
                 np.sqrt(2.0) * upper_incomplete_gamma(0.5, 0.5),
                 quad_complex(lambda t: np.exp(1j * t - 0.5 / t))]
        assert res.value.shape == res.abs_error_estimate.shape == (3,)
        assert np.iscomplexobj(res.value)
        assert np.all(np.abs(res.value - exact) <= tol)
        assert np.all(res.abs_error_estimate <= tol)
        alone = self.separate(tol)
        assert res.node_count <= sum(r.node_count for r in alone)
        assert np.all(np.abs(res.value - [r.value for r in alone]) <= 2 * tol)

    def test_algebraic_regime_vector(self):
        res = integrate_singular(
            lambda t: np.array([t ** -0.5, np.ones_like(t)]), 1.0,
            sing_exponent=-0.5, tol=1e-10)
        assert np.allclose(res.value, [2.0, 1.0], atol=1e-9, rtol=0)
        assert res.abs_error_estimate.shape == (2,)

    def test_scalar_integrand_still_returns_scalars(self):
        res = integrate_singular(lambda t: t ** -0.5, 1.0,
                                 sing_exponent=-0.5, tol=1e-10)
        assert type(res.value) is float
        assert type(res.abs_error_estimate) is float
        res = integrate_singular(lambda t: np.exp(1j * t), 1.0,
                                 sing_exponent=0.0, tol=1e-12)
        assert isinstance(res.value, complex) and np.ndim(res.value) == 0
        assert type(res.abs_error_estimate) is float


def quad_complex(f):
    """int_0^1 f by scipy, real and imaginary parts separately."""
    from scipy.integrate import quad

    re = quad(lambda t: f(t).real, 0.0, 1.0, epsabs=1e-14, limit=200)[0]
    im = quad(lambda t: f(t).imag, 0.0, 1.0, epsabs=1e-14, limit=200)[0]
    return re + 1j * im
