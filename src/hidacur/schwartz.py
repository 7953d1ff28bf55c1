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

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import check_int, check_reals

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
    Each row is built in its place in the table from the two above it.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty((n_max,) + t.shape)
    if n_max:
        out[0] = _PI4 * np.exp(-0.5 * t * t)
    # math.sqrt on the Python-float constants: same value, a fraction of
    # numpy's per-scalar cost
    for k in range(n_max - 1):
        out[k + 1] = math.sqrt(2.0 / (k + 1)) * t * out[k]
        if k:
            out[k + 1] -= math.sqrt(k / (k + 1.0)) * out[k - 1]
    return out


@functools.lru_cache(maxsize=None)
def _primitive_matrix(n):
    """(Aa, h0) with I(t) = Aa[:, :n] @ (h(t) - h0) + Aa[:, n] I_0(t) for
    the first n modes: the recurrence of hermite_antiderivatives run once on
    unit inputs, its first n columns the strictly lower-triangular A and its
    last the vector a; h0 = h(0) as an (n, 1) column.  Read-only."""
    Aa = np.zeros((n, n + 1))
    Aa[:1, n] = 1.0
    for k in range(n - 1):
        Aa[k + 1] = math.sqrt(k / 2.0) * (Aa[k - 1] if k else 0.0)
        Aa[k + 1, k] -= 1.0
        Aa[k + 1] /= math.sqrt((k + 1) / 2.0)
    h0 = hermite_values(n, 0.0)[:, None]
    Aa.flags.writeable = h0.flags.writeable = False
    return Aa, h0


def _primitive(coef, h, t):
    """coef @ I(t), shape (len(coef),) + shape(t), from the table
    h = hermite_values(len(h), t), which it overwrites with h - h(0)."""
    # imported on first use, as in special: `import hidacur` loads no scipy
    from scipy.special import erf
    Aa, h0 = _primitive_matrix(len(h))
    diff = h.reshape(len(h), t.size)
    diff -= h0  # before the product: see hermite_antiderivatives
    ca = coef @ Aa  # phi's coefficients carried through the recurrence
    i0 = np.pi ** 0.25 / math.sqrt(2.0) * erf(t.ravel() / math.sqrt(2.0))
    out = ca[:, :-1] @ diff + ca[:, -1:] * i0
    return out.reshape((-1,) + t.shape)


@functools.lru_cache(maxsize=None)
def _derivative_matrix(n):
    """D, shape (n, n + 1), with (coef @ D) @ h = phi' for phi = coef @ h on
    the first n modes, from h_k' = sqrt(k/2) h_{k-1} - sqrt((k+1)/2) h_{k+1}.
    Its entries are those of t h_k = sqrt((k+1)/2) h_{k+1} + sqrt(k/2)
    h_{k-1} up to sign, so |D[:N, :N]| is that recurrence's N x N Jacobi
    matrix.  Read-only."""
    D = np.zeros((n, n + 1))
    k = np.arange(n)
    D[k[1:], k[:-1]] = np.sqrt(k[1:] / 2.0)
    D[k, k + 1] = -np.sqrt((k + 1) / 2.0)
    D.flags.writeable = False
    return D


def hermite_antiderivatives(n_max, t):
    """Values I_k(t) = int_0^t h_k(s) ds for k = 0..n_max-1.

    Closed-form recurrence obtained by integrating
    h_k' = sqrt(k/2) h_{k-1} - sqrt((k+1)/2) h_{k+1}:

        I_{k+1} = (sqrt(k/2) I_{k-1} - (h_k(t) - h_k(0))) / sqrt((k+1)/2),

    seeded with I_0(t) = pi^{1/4} erf(t/sqrt(2)) / sqrt(2).  The recurrence
    is linear, so I = A @ (h(t) - h(0)) + a I_0(t) with a lower-triangular
    A and a vector a unrolled once per n_max and cached.  h(0) is
    subtracted elementwise before the product: as t -> 0 every I_k(t) is
    O(t), and A @ h(t) - A @ h(0) would cancel away the relative accuracy
    of c(t) = int_0^t phi that the current kernel's (x - c(t)) / t needs
    near the origin.  Exact up to rounding; within ~3e-16 absolute of
    mpmath for up to 40 modes and t up to 25.
    """
    t = np.asarray(t, dtype=float)
    return _primitive(np.eye(n_max), hermite_values(n_max, t), t)


@dataclass(frozen=True, eq=False)
class TestFunction:
    """phi in S_d, represented by Hermite coefficients per component.

    components[i][k] is the coefficient of h_k in component i.  Immutable;
    all operations are pure and safe for concurrent readers.  Test
    functions compare by identity.
    """

    components: tuple = field(default_factory=tuple)

    def __init__(self, components):
        comps = tuple(np.atleast_1d(np.asarray(check_reals("components", c),
                                               dtype=float))
                      for c in components)
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

    def _contract(self, table):
        # coef @ table over the basis axis, shape (d,) + table.shape[1:];
        # matmul on a 2-d view costs a fifth of np.tensordot's overhead
        flat = self._coef @ table.reshape(len(table), -1)
        return flat.reshape((-1,) + table.shape[1:])

    def eval(self, t, i):
        """phi_i(t); t may be a scalar or array."""
        check_int("component index", i, 0, self.dimension, IndexError)
        return self.eval_all(t)[i]

    def eval_all(self, t):
        """All components at once, shape (d,) + shape(t)."""
        return self._contract(hermite_values(self.n_basis, t))

    def cumulative(self, t, i):
        """int_0^t phi_i(s) ds, exact via the Hermite antiderivative recurrence."""
        check_int("component index", i, 0, self.dimension, IndexError)
        return self.cumulative_all(t)[i]

    def cumulative_all(self, t):
        """All components, shape (d,) + shape(t)."""
        t = np.asarray(t, dtype=float)
        return _primitive(self._coef, hermite_values(self.n_basis, t), t)

    def eval_and_cumulative(self, t):
        """(phi(t), c(t)) with c(t) = int_0^t phi, each shape (d,) + shape(t),
        from one Hermite table at the nodes t."""
        t = np.asarray(t, dtype=float)
        h = hermite_values(self.n_basis, t)
        return self._contract(h), _primitive(self._coef, h, t)

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
        """sup_t max_i |phi_i(t)| from phi's critical points, times 1 + 1e-10.

        |phi_i| tends to 0 at +-inf, so its maximum sits at a zero of
        phi_i' = sum_k e_ik h_k (e = coef @ D, see _derivative_matrix): a
        zero of the degree-N polynomial sum_k e_ik psi_k in the orthonormal
        Hermite polynomials psi_k.  Those are the eigenvalues of its
        colleague matrix, the Jacobi matrix of t psi_k = sqrt((k+1)/2)
        psi_k+1 + sqrt(k/2) psi_k-1 with its last row reduced by
        sqrt(N/2) e_i,0..N-1 / e_iN: one eigvals call per distinct N, then
        one table at the real parts, each component at its own points.

        Every |phi_i(t)| is a lower bound of the sup and the largest over
        the real critical points is the sup itself, so the result majorizes
        every pointwise sample once the 1e-10 covers the rounding of the
        roots, which moves a peak's value only to second order.  Trailing
        e_ik under 1e-8 of the largest are dropped: they move phi_i' by that
        fraction and its peaks by its square, while a leading coefficient
        that small makes the matrix's last row swamp its small eigenvalues.
        Exactly 0.0 for phi = 0.
        """
        D = _derivative_matrix(self.n_basis)
        e = self._coef @ D
        mag = np.abs(e)
        top = mag > 1e-8 * mag.max(axis=1, keepdims=True)
        deg = (top * np.arange(e.shape[1])).max(axis=1)  # 0 for phi_i = 0
        # row i: component i's points, for the diagonal below; 0-padding is a sample
        t = np.zeros((self.dimension, max(deg.max(), 1)))
        for N in set(deg.tolist()) - {0}:
            rows = deg == N
            C = np.repeat(np.abs(D[None, :N, :N]), rows.sum(), axis=0)
            C[:, -1] -= math.sqrt(N / 2.0) * e[rows, :N] / e[rows, N:N + 1]
            t[rows, :N] = np.linalg.eigvals(C).real
        vals = np.diagonal(self.eval_all(t))
        return float(np.abs(vals).max()) * (1.0 + 1e-10)

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
        if len(comps) != check_int("d", obj["d"], 1):
            raise ValueError("component count does not match d")
        return cls(comps)

    @classmethod
    def zero(cls, d, n_basis=1):
        return cls([np.zeros(n_basis) for _ in range(d)])

    @classmethod
    def basis_element(cls, d, i, k):
        """Test function with a single coefficient c_{i,k} = 1."""
        i = check_int("component index", i, 0, d, IndexError)
        k = check_int("mode", k, 0)
        comps = [np.zeros(k + 1) for _ in range(d)]
        comps[i][k] = 1.0
        return cls(comps)
