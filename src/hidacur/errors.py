"""Exception types shared across the package."""


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
