"""The package's argument rules."""

from fractions import Fraction

import numpy as np
import pytest

from hidacur.errors import check_int, check_positive, is_real

# (value, is a real, is an integer): exact int and float are answered by
# their type, before the ABC check, and every value keeps the answer it had
VALUES = pytest.mark.parametrize("value, real, integral", [
    (1, True, True), (1.0, True, False), (np.float64(1.0), True, False),
    (np.int64(1), True, True), (Fraction(1, 2), True, False),
    (True, False, False), (np.bool_(True), False, False),
    ("1", False, False), (None, False, False)],
    ids=["int", "float", "float64", "int64", "Fraction", "True", "bool_",
         "str", "None"])


@VALUES
def test_is_real(value, real, integral):
    assert is_real(value) is real


@VALUES
def test_checks_follow_is_real(value, real, integral):
    if integral:
        assert check_int("n", value, 0) == value
    else:
        with pytest.raises(ValueError, match="n must be an integer >= 0"):
            check_int("n", value, 0)
    if real:
        assert check_positive("t", value) == float(value)
    else:
        with pytest.raises(ValueError, match="t must be finite and > 0"):
            check_positive("t", value)
