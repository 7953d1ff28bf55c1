"""Divergence scan of the first-chaos mass at the origin."""

import numpy as np
import pytest

from hidacur import default_cutoffs, divergence_scan, singular_mass_closed


class TestExamples:
    def test_d1_convergent_with_limit_two(self):
        rep = divergence_scan(1, 1.0, 10.0 ** -np.arange(2.0, 9.0))
        assert rep.verdict == "convergent"
        assert rep.model == "bounded"
        assert rep.rate == pytest.approx(2.0, abs=1e-9)  # 2 sqrt(T)

    def test_d2_logarithmic(self):
        rep = divergence_scan(2, 1.0, 10.0 ** -np.arange(2.0, 9.0))
        assert rep.verdict == "divergent"
        assert rep.model == "log"
        assert rep.rate == pytest.approx(1.0, abs=0.01)

    def test_d3_power_exponent(self):
        rep = divergence_scan(3, 1.0, 10.0 ** -np.arange(2.0, 9.0))
        assert rep.verdict == "divergent"
        assert rep.model == "power"
        assert rep.rate == pytest.approx(-0.5, abs=0.02)


class TestInvariants:
    def test_verdicts_convergent_iff_d1(self):
        for d in range(1, 7):
            rep = divergence_scan(d, 1.0, default_cutoffs(1.0))
            expected = "convergent" if d == 1 else "divergent"
            assert rep.verdict == expected

    def test_exponents_for_d_geq_3(self):
        for d in (3, 4, 5, 6):
            rep = divergence_scan(d, 1.0, default_cutoffs(1.0))
            assert rep.model == "power"
            assert rep.rate == pytest.approx(1.0 - d / 2.0, abs=0.02)

    def test_masses_increase_as_cutoff_shrinks(self):
        for d in (1, 2, 4):
            rep = divergence_scan(d, 1.0, default_cutoffs(1.0))
            assert np.all(np.diff(rep.masses) > 0.0)

    def test_T_scaling_for_d1(self):
        for T in (0.25, 1.0, 4.0):
            rep = divergence_scan(1, T, default_cutoffs(T))
            assert rep.rate == pytest.approx(2.0 * np.sqrt(T), abs=1e-9)

    def test_never_contradicts_closed_mass_off_origin(self):
        # for x != 0 the damped mass is finite for every d even when the
        # undamped scan diverges
        for d in range(1, 7):
            mass = singular_mass_closed(d, 0.5, 1.0)
            assert np.isfinite(mass) and mass > 0.0


class TestValidation:
    def test_too_few_cutoffs(self):
        with pytest.raises(ValueError):
            divergence_scan(2, 1.0, [0.1, 0.01, 0.001])

    def test_non_decreasing_grid(self):
        with pytest.raises(ValueError):
            divergence_scan(2, 1.0, [0.001, 0.01, 0.1, 0.2])

    def test_cutoffs_outside_range(self):
        with pytest.raises(ValueError):
            divergence_scan(2, 1.0, [2.0, 0.1, 0.01, 0.001])
        with pytest.raises(ValueError):
            divergence_scan(2, 1.0, [0.1, 0.01, 0.001, 0.0])
        with pytest.raises(ValueError):
            divergence_scan(2, 1.0, [0.1, 0.01, np.nan, 0.0001])

    @pytest.mark.parametrize("T", [np.nan, np.inf])
    def test_non_finite_T(self, T):
        with pytest.raises(ValueError):
            divergence_scan(2, T, default_cutoffs(1.0))

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            divergence_scan(0, 1.0, default_cutoffs(1.0))
