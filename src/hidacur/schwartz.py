"""Vector-valued Schwartz test functions in a finite Hermite-function basis.

A test function phi with d components is stored as d coefficient vectors
against the orthonormal Hermite functions {h_k} of L^2(R), zero-padded into
one (d, n_basis) matrix that every evaluator contracts with one h_k table.
All norms used downstream live here: the L^2 norm |phi| (exact via
Parseval), the sup norm |phi|_inf, and the combined norm
sqrt(|phi|^2 + |phi|_inf^2).

Component indices are 0-based throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

__all__ = [
    "TestFunction",
    "hermite_values",
    "hermite_antiderivatives",
]

_PI4 = np.pi ** (-0.25)  # h_0(0)


def hermite_values(n_max, t):
    """Values h_k(t) for k = 0..n_max-1, shape (n_max,) + shape(t).

    Uses the stable three-term recurrence on the *normalized* Hermite
    functions (Gaussian factor kept inside), so no overflow for moderate k.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty((n_max,) + t.shape)
    h_prev = np.zeros_like(t)
    h = _PI4 * np.exp(-0.5 * t * t)
    # math.sqrt on the Python-float constants: same value, a fraction of
    # numpy's per-scalar cost
    for k in range(n_max):
        out[k] = h
        h_next = math.sqrt(2.0 / (k + 1)) * t * h - math.sqrt(k / (k + 1.0)) * h_prev
        h_prev, h = h, h_next
    return out


def hermite_antiderivatives(n_max, t):
    """Values I_k(t) = int_0^t h_k(s) ds for k = 0..n_max-1.

    Closed-form recurrence obtained by integrating
    h_k' = sqrt(k/2) h_{k-1} - sqrt((k+1)/2) h_{k+1}:

        I_{k+1} = (sqrt(k/2) I_{k-1} - (h_k(t) - h_k(0))) / sqrt((k+1)/2),

    seeded with I_0(t) = pi^{1/4} erf(t/sqrt(2)) / sqrt(2).  Exact up to
    rounding; accurate to ~1e-14 for the coefficient counts used here.
    """
    t = np.asarray(t, dtype=float)
    return _antiderivatives(hermite_values(n_max + 1, np.append(0.0, t)), t)


def _antiderivatives(h, t):
    """I_k(t) for k = 0..len(h)-2, read off the table
    h = hermite_values(len(h), [0, *t.ravel()]); shape (len(h)-1,) + shape(t)."""
    n_max = len(h) - 1
    dh = (h[:-1, 1:] - h[:-1, :1]).reshape((n_max,) + t.shape)  # h_k(t) - h_k(0)
    out = np.empty_like(dh)
    out[:1] = np.pi ** 0.25 / np.sqrt(2.0) * erf(t / np.sqrt(2.0))
    for k in range(n_max - 1):
        prev = out[k - 1] if k >= 1 else 0.0
        out[k + 1] = (math.sqrt(k / 2.0) * prev - dh[k]) / math.sqrt((k + 1) / 2.0)
    return out


@dataclass(frozen=True, eq=False)
class TestFunction:
    """phi in S_d, represented by Hermite coefficients per component.

    components[i][k] is the coefficient of h_k in component i.  Immutable;
    all operations are pure and safe for concurrent readers.  Test
    functions compare by identity.
    """

    components: tuple = field(default_factory=tuple)

    def __init__(self, components):
        comps = tuple(np.atleast_1d(np.asarray(c, dtype=float)) for c in components)
        if not comps:
            raise ValueError("need at least one component")
        for c in comps:
            if c.ndim != 1 or not np.all(np.isfinite(c)):
                raise ValueError("coefficients must be finite 1-d arrays")
        coef = np.zeros((len(comps), max(1, *(len(c) for c in comps))))
        for i, c in enumerate(comps):
            coef[i, : len(c)] = c
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "_coef", coef)

    @property
    def dimension(self):
        return len(self.components)

    @property
    def n_basis(self):
        return self._coef.shape[1]

    def _check_index(self, i):
        if not 0 <= i < self.dimension:
            raise IndexError(f"component index {i} out of range for d={self.dimension}")

    def _contract(self, table):
        # coef @ table over the basis axis, shape (d,) + table.shape[1:];
        # matmul on a 2-d view costs a fifth of np.tensordot's overhead
        flat = self._coef @ table.reshape(len(table), -1)
        return flat.reshape((-1,) + table.shape[1:])

    def eval(self, t, i):
        """phi_i(t); t may be a scalar or array."""
        self._check_index(i)
        return self.eval_all(t)[i]

    def eval_all(self, t):
        """All components at once, shape (d,) + shape(t)."""
        return self._contract(hermite_values(self.n_basis, t))

    def cumulative(self, t, i):
        """int_0^t phi_i(s) ds, exact via the Hermite antiderivative recurrence."""
        self._check_index(i)
        return self.cumulative_all(t)[i]

    def cumulative_all(self, t):
        """All components, shape (d,) + shape(t)."""
        return self._contract(hermite_antiderivatives(self.n_basis, t))

    def eval_and_cumulative(self, t):
        """(phi(t), c(t)) with c(t) = int_0^t phi, each shape (d,) + shape(t),
        from one Hermite table at the nodes [0, *t]."""
        t = np.asarray(t, dtype=float)
        h = hermite_values(self.n_basis + 1, np.append(0.0, t))
        vals = self._contract(h[:-1, 1:]).reshape((-1,) + t.shape)
        return vals, self._contract(_antiderivatives(h, t))

    def l2_norm(self):
        """L^2(R, R^d) norm; exact by Parseval in the orthonormal basis."""
        return float(np.sqrt(sum(np.dot(c, c) for c in self.components)))

    def l2_norm_on_interval(self, a, b, n_nodes=256):
        """L^2 norm of phi restricted to [a, b], by Gauss-Legendre quadrature.

        phi is a finite Hermite combination, so a few hundred nodes reach
        machine precision for any interval of moderate length.
        """
        x, w = np.polynomial.legendre.leggauss(n_nodes)
        t = 0.5 * (a + b) + 0.5 * (b - a) * x
        vals = self.eval_all(t)
        return float(np.sqrt(0.5 * (b - a) * np.sum(vals ** 2 @ w)))

    def sup_norm(self):
        """Upper estimate of sup_t max_i |phi_i(t)|.

        Dense grid search over the essential support of the basis, refined by
        4 Newton steps on phi_i' = 0 from each component's best grid point
        (quadratic convergence from within 0.01, each step clamped to the two
        grid steps around it), then inflated by a relative 1e-10 so the
        result majorizes pointwise samples.  phi' and phi'' come from one
        table of n_basis + 1 rows: h_k' = sqrt(k/2) h_{k-1} - sqrt((k+1)/2)
        h_{k+1} and h_k'' = (t^2 - 2k - 1) h_k.
        """
        half_width = np.sqrt(2.0 * (self.n_basis + 1)) + 8.0
        t = np.linspace(-half_width, half_width, 4001)
        vals = np.abs(self.eval_all(t))
        j = np.argmax(vals, axis=1)
        lo = t[np.maximum(j - 1, 0)]
        hi = t[np.minimum(j + 1, t.size - 1)]
        k = np.arange(self.n_basis)[:, None]
        up, down = np.sqrt(k / 2.0), np.sqrt((k + 1) / 2.0)
        s = t[j]  # component i is refined at its own point s_i
        for _ in range(4):
            h = hermite_values(self.n_basis + 1, s)
            dh = up * np.vstack([np.zeros_like(s), h[:-2]]) - down * h[1:]
            ddh = (s * s - 2 * k - 1) * h[:-1]
            d1, d2 = (np.einsum("ik,ki->i", self._coef, a) for a in (dh, ddh))
            newton = np.divide(d1, d2, out=np.zeros_like(d1), where=d2 != 0.0)
            s = np.clip(s - newton, lo, hi)
        cand = np.abs(np.diagonal(self.eval_all(s)))
        return float(max(cand.max(), vals.max())) * (1.0 + 1e-10)

    def combined_norm(self):
        """sqrt(l2_norm^2 + sup_norm^2)."""
        return float(np.hypot(self.l2_norm(), self.sup_norm()))

    def scaled(self, a):
        return TestFunction([a * c for c in self.components])

    # -- serialization: {d, components: [[c_ik]]}, binary64 round-trip exact --

    def to_json(self):
        return json.dumps(
            {"d": self.dimension, "components": [c.tolist() for c in self.components]}
        )

    @classmethod
    def from_json(cls, s):
        obj = json.loads(s)
        stray = sorted(set(obj) - {"d", "components"})
        if stray:
            raise ValueError(f"unknown test function keys {stray}")
        comps = obj["components"]
        if len(comps) != obj["d"]:
            raise ValueError("component count does not match d")
        return cls(comps)

    @classmethod
    def zero(cls, d, n_basis=1):
        return cls([np.zeros(n_basis) for _ in range(d)])

    @classmethod
    def basis_element(cls, d, i, k):
        """Test function with a single coefficient c_{i,k} = 1."""
        comps = [np.zeros(k + 1) for _ in range(d)]
        comps[i][k] = 1.0
        return cls(comps)
