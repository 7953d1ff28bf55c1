"""Hermite-basis test functions: evaluation, cumulative integrals, norms."""

import json
from math import factorial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hidacur import TestFunction, schwartz

from conftest import random_phi

PI14 = np.pi ** (-0.25)


def dense_sup(phi):
    """max_i |phi_i| on a grid of step ~1e-3 over the basis's support, each
    near-peak point then resampled at step ~1e-6 (error ~1e-11 relative)."""
    half_width = np.sqrt(2.0 * phi.n_basis + 1.0) + 8.0
    t = np.linspace(-half_width, half_width, 20_001)
    vals = np.abs(phi.eval_all(t))
    best = vals.max()
    for i, j in zip(*np.nonzero(vals >= best * (1.0 - 1e-3))):
        fine = np.linspace(t[max(j - 1, 0)], t[min(j + 1, t.size - 1)], 2_001)
        best = max(best, np.abs(phi.eval(fine, i)).max())
    return best


def coeff_lists(max_d=3, max_n=8):
    return st.lists(
        st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=max_n),
        min_size=1, max_size=max_d)


class TestEval:
    def test_zero_function(self):
        phi = TestFunction.zero(2, 4)
        assert phi.eval(0.3, 0) == 0.0
        assert phi.eval(-1.7, 1) == 0.0

    def test_ground_state_at_origin(self):
        phi = TestFunction.basis_element(1, 0, 0)
        assert phi.eval(0.0, 0) == pytest.approx(PI14, rel=1e-14)

    def test_ground_state_at_one(self):
        # h_0(t) = pi^(-1/4) exp(-t^2/2)
        phi = TestFunction.basis_element(1, 0, 0)
        assert phi.eval(1.0, 0) == pytest.approx(PI14 * np.exp(-0.5), rel=1e-14)

    def test_matches_gauss_hermite_oracle(self, rng):
        # compare against numpy's physicists' Hermite polynomials
        from numpy.polynomial.hermite import hermval

        for _ in range(20):
            k = int(rng.integers(0, 12))
            t = float(rng.uniform(-4, 4))
            phi = TestFunction.basis_element(1, 0, k)
            c = np.zeros(k + 1)
            c[k] = 1.0
            norm = (2.0 ** k * factorial(k) * np.sqrt(np.pi)) ** -0.5
            expected = norm * hermval(t, c) * np.exp(-t * t / 2.0)
            assert phi.eval(t, 0) == pytest.approx(expected, abs=1e-12)

    def test_index_out_of_range(self):
        phi = TestFunction.zero(2)
        with pytest.raises(IndexError):
            phi.eval(0.0, 2)

    @pytest.mark.parametrize("i", [-1, 2, True])
    def test_basis_element_refuses_component_index(self, i):
        # i = -1 put the unit coefficient in component d - 1
        with pytest.raises(IndexError, match="component index"):
            TestFunction.basis_element(2, i, 0)

    def test_basis_element_refuses_mode(self):
        with pytest.raises(ValueError, match="mode"):
            TestFunction.basis_element(2, 0, -1)

    def test_eval_all_matches_eval(self, rng):
        phi = random_phi(rng, 3, 6)
        t = rng.uniform(-3, 3, size=7)
        all_vals = phi.eval_all(t)
        for i in range(3):
            assert np.allclose(all_vals[i], phi.eval(t, i), atol=1e-14)


class TestL2Norm:
    def test_zero(self):
        assert TestFunction.zero(3).l2_norm() == 0.0

    def test_single_coefficient(self):
        assert TestFunction.basis_element(1, 0, 0).l2_norm() == 1.0

    def test_pythagoras(self):
        phi = TestFunction([[3.0], [0.0, 4.0]])
        assert phi.l2_norm() == pytest.approx(5.0, rel=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(coeff_lists())
    def test_parseval(self, comps):
        phi = TestFunction(comps)
        coef_sq = sum(float(np.dot(c, c)) for c in phi.components)
        assert abs(phi.l2_norm() ** 2 - coef_sq) <= 1e-12

    def test_interval_norm_converges_to_line_norm(self, rng):
        phi = random_phi(rng, 2, 6)
        wide = phi.l2_norm_on_interval(-40.0, 40.0, n_nodes=1024)
        assert wide == pytest.approx(phi.l2_norm(), rel=1e-12)

    def test_interval_norm_oracle(self, rng):
        phi = random_phi(rng, 1, 6)
        val, _ = quad(lambda t: phi.eval(t, 0) ** 2, 0.0, 1.0, epsabs=1e-13)
        assert phi.l2_norm_on_interval(0.0, 1.0) == pytest.approx(
            np.sqrt(val), rel=1e-10)


class TestSupNorm:
    def test_zero(self):
        assert TestFunction.zero(2).sup_norm() == 0.0

    def test_ground_state(self):
        # |h_0| peaks at 0 with value pi^(-1/4)
        phi = TestFunction.basis_element(1, 0, 0)
        assert phi.sup_norm() == pytest.approx(PI14, rel=1e-8)

    def test_first_excited_state(self):
        # h_1(t) = sqrt(2) pi^(-1/4) t e^(-t^2/2) peaks at t = +-1
        phi = TestFunction.basis_element(1, 0, 1)
        expected = np.sqrt(2.0) * PI14 * np.exp(-0.5)
        assert phi.sup_norm() == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("k, peak", [
        (1, np.sqrt(2.0) * PI14 * np.exp(-0.5)),
        # h_2 = (2t^2 - 1) pi^(-1/4) e^(-t^2/2) / sqrt(2) peaks at t^2 = 5/2
        (2, 2.0 * np.sqrt(2.0) * PI14 * np.exp(-1.25))])
    def test_refinement_reaches_the_peak_within_the_inflation(self, k, peak):
        s = TestFunction.basis_element(1, 0, k).sup_norm()
        assert peak <= s <= peak * (1.0 + 2e-10)

    def test_refinement_tables_are_few(self, rng, monkeypatch):
        # the critical points come from eigenvalues, not from tables: one
        # table at those points
        from hidacur import schwartz

        phi = random_phi(rng, 3, 5)
        expected = phi.sup_norm()
        calls = []
        table = schwartz.hermite_values

        def counted(n_max, t):
            calls.append(n_max)
            return table(n_max, t)

        monkeypatch.setattr(schwartz, "hermite_values", counted)
        assert phi.sup_norm() == expected
        assert len(calls) <= 6

    def test_majorizes_a_peak_between_coarse_samples(self):
        # a 4,001-point scan locked onto the wrong peak here and returned
        # 1.4124632929726093, while |phi(-1.924128)| = 1.4124633055464906
        phi = TestFunction([[-1.1877610836807597, 6.006129499383975e-06,
                             -1.2096802482007716, -3.083632630786289e-05,
                             -1.0059731146970812, -0.00012850008707331523,
                             0.6980030485142469]])
        t = np.linspace(-6.0, 6.0, 2_000_001)
        dense = max(np.abs(phi.eval_all(chunk)).max()
                    for chunk in np.array_split(t, 20))
        assert phi.sup_norm() >= dense >= 1.4124633055464906

    @pytest.mark.parametrize("comps", [
        *[[np.random.default_rng([d, n]).normal(size=n) for _ in range(d)]
          for d in (1, 2, 3) for n in (1, 2, 5, 17, 40)],
        # components of different lengths, and degrees that drop below the
        # padded length through zero top coefficients
        [[0.3, -1.1, 0.4], [0.7], [-0.2, 0.5, 0.9, -0.6, 0.1, 0.0, 0.0]],
        [[0.0, 0.0, 1.0, 0.0, 0.0], [1.0, 0.5]],
        # a zero component next to a nonzero one, either way round
        [[0.0, 0.0, 0.0], [0.4, -0.8, 0.2]],
        [[1.2, 0.3], [0.0]],
        # leading coefficients far below the rest
        [[1.0, 0.5, 1e-300]],
        [[1.0, 0.0, 0.0, 1e-20]],
        [[0.6, -0.3, 0.25, 0.15, -0.1, 1e-12], [0.2, 1e-9]],
    ])
    def test_within_the_inflation_of_a_dense_max(self, comps):
        phi = TestFunction(comps)
        dense = dense_sup(phi)
        assert dense <= phi.sup_norm() <= dense * (1.0 + 2e-10)

    def test_majorizes_pointwise_values(self, rng):
        phi = random_phi(rng, 2, 8)
        s = phi.sup_norm()
        t = rng.uniform(-8.0, 8.0, size=10_000)
        vals = np.abs(phi.eval_all(t))
        assert np.all(vals <= s)


class TestCumulative:
    def test_empty_interval(self, rng):
        phi = random_phi(rng, 2, 5)
        assert phi.cumulative(0.0, 0) == 0.0
        assert phi.cumulative(0.0, 1) == 0.0

    def test_zero_function(self):
        assert TestFunction.zero(1, 5).cumulative(2.3, 0) == 0.0

    def test_ground_state_oracle(self):
        phi = TestFunction.basis_element(1, 0, 0)
        val, _ = quad(lambda s: PI14 * np.exp(-s * s / 2.0), 0.0, 1.0,
                      epsabs=1e-14)
        assert phi.cumulative(1.0, 0) == pytest.approx(val, abs=1e-12)

    def test_high_order_against_scipy(self, rng):
        for k in (5, 13, 27, 40):
            phi = TestFunction.basis_element(1, 0, k)
            for t in (0.5, 1.0, 3.0):
                val, _ = quad(lambda s: phi.eval(s, 0), 0.0, t,
                              epsabs=1e-13, limit=200)
                assert phi.cumulative(t, 0) == pytest.approx(val, abs=1e-10)

    def test_linearity(self, rng):
        for _ in range(20):
            a, b = rng.normal(size=2)
            phi = random_phi(rng, 2, 6)
            psi = random_phi(rng, 2, 6)
            combo = TestFunction([a * p + b * q
                                  for p, q in zip(phi.components, psi.components)])
            t = float(rng.uniform(0, 3))
            for i in range(2):
                lhs = combo.cumulative(t, i)
                rhs = a * phi.cumulative(t, i) + b * psi.cumulative(t, i)
                assert abs(lhs - rhs) <= 1e-10

    def test_cumulative_all_matches_cumulative(self, rng):
        phi = random_phi(rng, 3, 6)
        t = rng.uniform(0, 2, size=5)
        allc = phi.cumulative_all(t)
        for i in range(3):
            assert np.allclose(allc[i], phi.cumulative(t, i), atol=1e-13)


def _old_hermite_values(n_max, t):
    """The recurrence as first written: a temporary per term, every row
    copied into the table."""
    t = np.asarray(t, dtype=float)
    out = np.empty((n_max,) + t.shape)
    h_prev = np.zeros_like(t)
    h = PI14 * np.exp(-0.5 * t * t)
    for k in range(n_max):
        out[k] = h
        h_next = (np.sqrt(2.0 / (k + 1)) * t * h
                  - np.sqrt(k / (k + 1.0)) * h_prev)
        h_prev, h = h, h_next
    return out


def _mp_antiderivatives(n_max, t):
    """I_k(t), k < n_max, by the antiderivative recurrence in 40-digit
    arithmetic, where its cancellation costs nothing."""
    mpmath.mp.dps = 40
    t = mpmath.mpf(t)
    norm = [1 / mpmath.sqrt(2 ** k * mpmath.factorial(k) * mpmath.sqrt(mpmath.pi))
            for k in range(n_max)]
    dh = [norm[k] * (mpmath.hermite(k, t) * mpmath.exp(-t * t / 2)
                     - mpmath.hermite(k, 0)) for k in range(n_max)]
    out = [mpmath.pi ** 0.25 / mpmath.sqrt(2) * mpmath.erf(t / mpmath.sqrt(2))]
    for k in range(n_max - 1):
        prev = out[k - 1] if k else 0
        out.append((mpmath.sqrt(mpmath.mpf(k) / 2) * prev - dh[k])
                   / mpmath.sqrt(mpmath.mpf(k + 1) / 2))
    return out


class TestPrimitiveMatrix:
    """The primitive c(t) from the cached recurrence matrix."""

    @pytest.mark.parametrize("n", [6, 17, 40])
    def test_antiderivatives_against_mpmath(self, n):
        t = np.array([-3.0, 0.1, 1.0, 3.0, 7.5, 12.0, 25.0])
        got = schwartz.hermite_antiderivatives(n, t)
        assert got.shape == (n, t.size)
        for j, tj in enumerate(t):
            ref = np.array(_mp_antiderivatives(n, tj), dtype=float)
            assert np.max(np.abs(got[:, j] - ref)) <= 1e-15

    def test_small_t_keeps_relative_accuracy(self):
        # c(t) ~ t phi(0) as t -> 0; subtracting h(0) after the product
        # instead of before loses 6e-6 relative here
        coeffs = [1.0, 0.5, 0.25]
        phi = TestFunction([coeffs])
        t = np.geomspace(1e-12, 1e-2, 21)
        got = phi.cumulative_all(t)[0]
        for tj, g in zip(t, got):
            ref = sum(c * i for c, i in zip(coeffs,
                                            _mp_antiderivatives(3, tj)))
            assert abs(g - float(ref)) <= 2e-8 * abs(float(ref))

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 17, 40])
    @pytest.mark.parametrize("t", [0.7, -3.2, 0.0,
                                   np.linspace(-9.0, 9.0, 37),
                                   np.linspace(-4.0, 5.0, 12).reshape(3, 4)])
    def test_hermite_values_bit_for_bit(self, n, t):
        got = schwartz.hermite_values(n, t)
        want = _old_hermite_values(n, t)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_scalar_and_nd_shapes(self):
        phi = TestFunction([[0.3, -1.1, 0.4], [0.7]])
        t = np.linspace(-2.0, 2.5, 12).reshape(3, 4)
        vals, cums = phi.eval_and_cumulative(t)
        assert vals.shape == cums.shape == (2, 3, 4)
        assert np.array_equal(cums, phi.cumulative_all(t))
        assert np.allclose(phi.cumulative_all(t[1, 2]), cums[:, 1, 2],
                           rtol=0.0, atol=1e-15)
        assert schwartz.hermite_antiderivatives(3, 0.4).shape == (3,)


class TestRaggedComponents:
    # components of lengths 1, 4 and 7 share one zero-padded coefficient
    # matrix; each must evaluate as a test function of its own
    COMPS = [[0.7],
             [0.3, -1.1, 0.4, 0.25],
             [-0.2, 0.5, 0.9, -0.6, 0.1, 0.35, -0.45]]

    @pytest.mark.parametrize("t", [0.8, np.linspace(-3.0, 3.0, 9),
                                   np.linspace(-2.0, 2.5, 12).reshape(3, 4)])
    def test_every_evaluator_matches_single_components(self, t):
        phi = TestFunction(self.COMPS)
        vals, cums = phi.eval_and_cumulative(t)
        evaluated = [(phi.eval(t, i), phi.eval_all(t)[i], vals[i],
                      phi.cumulative(t, i), phi.cumulative_all(t)[i], cums[i])
                     for i in range(3)]
        for comp, got in zip(self.COMPS, evaluated):
            single = TestFunction([comp])
            want = [single.eval(t, 0)] * 3 + [single.cumulative(t, 0)] * 3
            for g, w in zip(got, want):
                assert np.shape(g) == np.shape(t)
                assert np.max(np.abs(g - w)) <= 1e-14

    def test_empty_component_evaluates_to_zero(self):
        phi = TestFunction([[], [1.0]])
        vals, cums = phi.eval_and_cumulative(np.array([0.3, 1.2]))
        assert not vals[0].any() and not cums[0].any()
        assert phi.sup_norm() == TestFunction([[1.0]]).sup_norm()

    def test_sup_norm_is_max_over_components(self):
        phi = TestFunction(self.COMPS)
        singles = [TestFunction([c]).sup_norm() for c in self.COMPS]
        assert phi.sup_norm() == pytest.approx(max(singles), rel=1e-12)
        # make each component dominant in turn, so every row's refinement counts
        for i, comp in enumerate(self.COMPS):
            comps = [c if k != i else 10.0 * np.asarray(c)
                     for k, c in enumerate(self.COMPS)]
            expected = TestFunction([10.0 * np.asarray(comp)]).sup_norm()
            assert TestFunction(comps).sup_norm() == pytest.approx(expected,
                                                                   rel=1e-12)


class TestCombinedNorm:
    def test_zero(self):
        assert TestFunction.zero(1).combined_norm() == 0.0

    def test_ground_state(self):
        phi = TestFunction.basis_element(1, 0, 0)
        expected = np.sqrt(1.0 + np.pi ** -0.5)
        assert phi.combined_norm() == pytest.approx(expected, rel=1e-8)

    def test_homogeneity_all_norms(self, rng):
        for lam in (2.0, -0.3, 7.5):
            phi = random_phi(rng, 2, 6)
            scaled = phi.scaled(lam)
            assert abs(scaled.l2_norm() - abs(lam) * phi.l2_norm()) <= 1e-12
            assert abs(scaled.sup_norm() - abs(lam) * phi.sup_norm()) \
                <= 1e-12 * max(1.0, abs(lam) * phi.sup_norm())
            assert abs(scaled.combined_norm() - abs(lam) * phi.combined_norm()) \
                <= 1e-12 * max(1.0, abs(lam) * phi.combined_norm())


class TestEquality:
    def test_unequal_pairs(self):
        base = TestFunction([[1.0, 2.0]])
        for other in (TestFunction([[1.0, 2.5]]), TestFunction([[1.0, 2.0, 0.0]]),
                      TestFunction([[1.0, 2.0], [0.0]]), TestFunction([[1.0]])):
            assert base != other and other != base
        assert base != [[1.0, 2.0]]


class TestSerialization:
    def test_round_trip(self, rng):
        phi = random_phi(rng, 3, 6)
        clone = TestFunction.from_json(phi.to_json())
        assert clone.dimension == phi.dimension
        for c1, c2 in zip(clone.components, phi.components):
            assert np.array_equal(c1, c2)

    def test_dimension_mismatch_rejected(self):
        bad = json.dumps({"d": 2, "components": [[1.0]]})
        with pytest.raises(ValueError):
            TestFunction.from_json(bad)

    def test_unknown_key_rejected(self):
        bad = json.dumps({"d": 1, "components": [[1.0]], "scale": 2.0})
        with pytest.raises(ValueError, match="'scale'"):
            TestFunction.from_json(bad)

    def test_invalid_coefficients_rejected(self):
        with pytest.raises(ValueError):
            TestFunction([[np.nan]])
        with pytest.raises(ValueError):
            TestFunction([])

    def test_bool_coefficient_and_dimension_rejected(self):
        # JSON true was stored as the coefficient 1.0, and "d": true passed
        # the count check against one component
        with pytest.raises(ValueError, match="components"):
            TestFunction([[True, 0.3]])
        with pytest.raises(ValueError, match="components"):
            TestFunction([np.array([False])])
        with pytest.raises(ValueError, match="d must be an integer"):
            TestFunction.from_json('{"d": true, "components": [[1.0, 0.3]]}')

    @pytest.mark.parametrize("component", [["0.5", 0.3], [[1.0, 2.0], [3.0]]],
                             ids=["string", "ragged"])
    def test_non_real_coefficient_message(self, component):
        with pytest.raises(ValueError,
                           match=r"components must hold real numbers \(no bools\)"):
            TestFunction([component])
