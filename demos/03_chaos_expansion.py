"""
Chaos-kernel pairings of the current
====================================

The n-th chaos pairing is the n-th Taylor coefficient of the S-transform
along a ray: (1/n!) d^n/ds^n U(s phi) at s = 0.  The toolkit extracts these
numerically from one FFT of U on a small circle (the trapezoidal rule) and
ships closed forms for orders 1 and 2.  The second-order closed form
exists in two conventions that differ by a factor of -2; the numeric
extraction arbitrates between them.
"""

import numpy as np

from hidacur import (CurrentParams, TestFunction, extract_chaos_pairing,
                     first_chaos_pairing_closed, second_chaos_pairing_closed)
from hidacur.stransform import current_ufunctional

rng = np.random.default_rng(7)
phi = TestFunction([rng.normal(size=5), rng.normal(size=5)])
phi = phi.scaled(1.0 / phi.l2_norm())
p = CurrentParams([0.8, -0.4], T=1.0)
F = current_ufunctional(p, 0, tol=1e-13)

# order 0 vanishes identically (the integrand carries a factor of s)
print("order 0:", extract_chaos_pairing(F, phi, 0).value)

# order 1: numeric extraction vs the closed-form kernel pairing
num1 = extract_chaos_pairing(F, phi, 1)
closed1 = first_chaos_pairing_closed(p, phi, 0)
print(f"order 1: numeric {num1.value:.12f}  closed {closed1:.12f}  "
      f"diff {abs(num1.value - closed1):.2e}")

# order 2: the numeric extraction decides between the two conventions
num2 = extract_chaos_pairing(F, phi, 2)
deriv = second_chaos_pairing_closed(p, phi, 0, convention="derivative")
paper = second_chaos_pairing_closed(p, phi, 0, convention="paper")
print(f"order 2: numeric {num2.value:.10f}")
print(f"         derivative convention {deriv:.10f}  "
      f"(diff {abs(num2.value - deriv):.2e})")
print(f"         printed-kernel convention {paper:.10f}  "
      f"(ratio derivative/printed = {deriv / paper:.6f})")
