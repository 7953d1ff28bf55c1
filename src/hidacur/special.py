"""Upper incomplete gamma Gamma(a, x) at a = d/2 - 1, and the singular mass.

Gamma(0, x) = E1(x) and Gamma(1/2, x) = sqrt(pi) e^-x erfcx(sqrt(x)) start the
recurrence Gamma(a+1, x) = a Gamma(a, x) + x^a e^-x: positive terms, a few ulps
(scipy's gammaincc is 40 ulps off at a = 1/2).  Gamma(-1/2, x) = 2 e^-x/sqrt(x)
(1 - sqrt(pi x) erfcx(sqrt(x))), where erfcx keeps large x accurate.
"""

import math
import sys

from .errors import check_int, check_positive

__all__ = ["upper_incomplete_gamma", "singular_mass_closed"]


def upper_incomplete_gamma(a, x):
    """Gamma(a, x) = int_x^inf y^{a-1} e^{-y} dy for 0 < x < inf and
    a in {-1/2, 0, 1/2, 1, ...}; ValueError for any other a or x, for a
    value that overflows, and for a normal-float value lost to e^-x = 0."""
    # a top-level import, run while stransform loads, slows `import hidacur` 10%
    from scipy.special import erfcx, exp1
    a, x = float(a), check_positive("x", x)
    if not (a >= -0.5 and (2.0 * a).is_integer()):
        raise ValueError(f"parameter a={a} is not d/2 - 1 for a dimension d")
    s, e = math.sqrt(x), math.exp(-x)
    if a == -0.5:
        return 2.0 * e / s * (1.0 - math.sqrt(math.pi) * s * float(erfcx(s)))
    if a.is_integer():
        b, value, term = 0.0, float(exp1(x)), e
    else:
        b, value, term = 0.5, math.sqrt(math.pi) * e * float(erfcx(s)), s * e
    # term = x^b e^-x; stop once value is inf, or 0 with e^-x underflowed
    while b < a and value < math.inf and (value or term):
        value = b * value + term
        term *= x
        b += 1.0
    if value == math.inf:
        raise ValueError(f"Gamma({a}, {x}) overflows a float")
    # Gamma(a, x) >= x^(a-1) e^-x for a >= 1: 0.0 is wrong where that is normal
    if not value and (a - 1.0) * math.log(x) - x > math.log(sys.float_info.min):
        raise ValueError(f"Gamma({a}, {x}) underflows in the recurrence")
    return value


def singular_mass_closed(d, r, T):
    """int_0^T t^{-d/2} exp(-r^2 / (2 t)) dt = 2^{d/2-1} r^{2-d} Gamma(d/2 - 1,
    r^2 / (2 T)).  Requires r > 0: the identity fails at the origin, where the
    divergence diagnostics apply."""
    d = check_int("d", d, 1)
    if r == 0.0:
        raise ValueError("r must be > 0; the closed form is invalid at the origin")
    r, T = check_positive("r", r), check_positive("T", T)
    a = d / 2.0 - 1.0
    try:
        mass = 2.0 ** a * r ** (2.0 - d) * upper_incomplete_gamma(a, r * r / (2.0 * T))
    except OverflowError:  # a float power overflows by raising, not as inf
        mass = math.inf
    if mass == math.inf:
        raise ValueError(f"the singular mass at d={d}, r={r}, T={T} overflows")
    return mass
