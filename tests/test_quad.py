"""Endpoint-singular adaptive quadrature."""

import numpy as np
import pytest

from hidacur import (IntegrandFailureError, QuadratureBudgetError,
                     integrate_singular, quad, upper_incomplete_gamma)

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
    # damped mesh (case 1) starts at (0, c] = (0, 0.5]
    SWEEPS = [(0, 1e-6, 1, 48), (0, 1e-10, 1, 48),
              (1, 1e-6, 2, 192), (1, 1e-10, 4, 384),
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
        assert len(calls) == n_calls
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
