"""Exception types shared across the package, and the argument rules:
check_int for an integer, check_positive for a positive real and check_reals
for an array of reals, each refusing a bool (JSON true is no count, no time
and no coefficient).  Imports nothing from hidacur."""

import math
import numbers

import numpy as np


def is_real(value):
    # exact float and int by type first: the ABC check costs ~0.5 us
    return type(value) in (float, int) or (
        isinstance(value, numbers.Real) and not isinstance(value, bool))


def check_int(name, value, lo, hi=None, error=ValueError):
    """int(value) for an Integral in [lo, hi) (hi None: no upper end) that
    is not a bool, else error (IndexError for a component index)."""
    if ((type(value) is int or is_real(value)
         and isinstance(value, numbers.Integral))
            and lo <= value and (hi is None or value < hi)):
        return int(value)
    span = f">= {lo}" if hi is None else f"in [{lo}, {hi})"
    raise error(f"{name} must be an integer {span}, got {value!r}")


def check_positive(name, value):
    """float(value) for a finite Real > 0 that is not a bool, else ValueError."""
    if is_real(value) and 0.0 < value < math.inf:
        return float(value)
    raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def check_reals(name, values):
    """values, unchanged, if every entry of the (nested) sequence or array
    is a Real that is not a bool, else ValueError."""
    if all(map(is_real, np.ravel(np.asarray(values, dtype=object)))):
        return values
    raise ValueError(f"{name} must hold real numbers (no bools), got {values!r}")


def check_seed(seed):
    return check_int("seed", seed, 0, 2 ** 64)


class NonexistenceError(ValueError):
    """Raised where the object does not exist: at the origin in dimension > 1
    the current is not a well-defined distribution (first chaos diverges)."""


class QuadratureBudgetError(RuntimeError):
    """Quadrature could not meet the requested tolerance: the node budget ran
    out, or the summed error estimate misses tol.

    Carries the best estimate so far in .best_estimate."""

    def __init__(self, msg, best_estimate=None):
        super().__init__(msg)
        self.best_estimate = best_estimate


class IntegrandFailureError(RuntimeError):
    """An integrand, or a U-functional sampled for a growth fit, returned NaN
    or infinity."""


class UnstableDerivativeError(RuntimeError):
    """The full and half contour sums of a chaos pairing disagree beyond tolerance."""
