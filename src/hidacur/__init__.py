"""hidacur: numerics for stochastic currents of Brownian motion.

Closed-form S-transforms, chaos-kernel pairings, mollified Monte Carlo
verification, and divergence diagnostics for the current at the origin.
"""

from .chaos import (ChaosPairing, extract_chaos_pairing,
                    first_chaos_pairing_closed, second_chaos_pairing_closed)
from .diagnostics import DivergenceReport, default_cutoffs, divergence_scan
from .errors import (IntegrandFailureError, NonexistenceError,
                     QuadratureBudgetError, UnstableDerivativeError)
from .montecarlo import (MCConfig, MCEstimate, mc_s_transform,
                         mollified_current_sample, simulate_increments)
from .quad import QuadResult, integrate_singular
from .schwartz import TestFunction
from .special import singular_mass_closed, upper_incomplete_gamma
from .stransform import (BoundFit, CurrentParams, UFunctional,
                         check_integrability, current_ufunctional,
                         donsker_ufunctional, fit_ufunctional_bound,
                         s_current, s_current_mollified, s_donsker,
                         wick_integrand_ufunctional)

__version__ = "0.1.0"
