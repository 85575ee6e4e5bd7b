"""Entanglement spectra of bipartite pure states and their scalar quantifiers.

A pure state of an N x M system (N <= M) has a reduced density matrix on the
smaller factor whose eigenvalues lambda_1 >= ... >= lambda_N >= 0 sum to one.
Everything downstream (saddle-point solvers, closed-form moments, Monte Carlo)
speaks in terms of these spectra, so this module pins down the two value types
(`BipartitionDims`, `Spectrum`) and the scalar functionals built from them:
purity, Renyi traces, von Neumann entropy, Schmidt number, elementary
symmetric invariants, determinant, and the majorization partial order.

Conventions
-----------
* Spectra are stored in non-increasing order.
* Entropy is the standard -sum(lambda ln lambda) with 0 ln 0 = 0.
* Purity satisfies the exact identity pi = 1 - 2 s_2 with s_2 the second
  elementary symmetric invariant.

`lapack` hands the other modules scipy's compiled LAPACK module,
scipy.linalg._flapack, without importing the scipy.linalg package, which
would load some 70 further scipy modules that no LAPACK call here uses.
"""

from __future__ import annotations

import enum
import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BipartitionDims",
    "Spectrum",
    "MajorizationOrder",
    "purity",
    "renyi_traces",
    "von_neumann_entropy",
    "schmidt_number",
    "elementary_invariants",
    "determinant",
    "majorization_compare",
]

#: sum-to-one slack accepted by the Spectrum constructor
SUM_TOL = 1e-12
#: generated eigenvalues this far below zero are treated as rounding noise
CLAMP_TOL = 1e-13
#: ties in majorization partial sums within this are not ordering violations
MAJORIZATION_TOL = 1e-12
#: rank cut for the Schmidt number, relative to the largest eigenvalue
RANK_REL_TOL = 1e-10


@dataclass(frozen=True)
class BipartitionDims:
    """Dimensions (N, M) of the bipartition, N for the traced-over side's partner.

    N is the dimension whose reduced state we study; M >= N is the other
    factor.  `alpha = M - N` controls the one-body confinement of the
    eigenvalue gas.
    """

    n: int
    m: int

    def __post_init__(self):
        if any(isinstance(d, bool) or not isinstance(d, int) for d in (self.n, self.m)):
            raise ValueError("dimensions must be integers")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.m < self.n:
            raise ValueError(f"m must be >= n, got n={self.n}, m={self.m}")

    @property
    def alpha(self) -> int:
        return self.m - self.n

    @property
    def balanced(self) -> bool:
        return self.m == self.n


_FLAPACK = "scipy.linalg._flapack"


@functools.cache
def lapack():
    """scipy.linalg._flapack, scipy's f2py LAPACK module, loaded on first use.

    Top-level scipy is imported (its library set-up runs) but
    scipy/linalg/__init__.py is not: the extension is found in the linalg
    directory and executed directly.  A copy already in sys.modules, say
    from an earlier `import scipy.linalg`, is returned instead, and a later
    `import scipy.linalg` reuses the one loaded here.
    """
    if _FLAPACK in sys.modules:
        return sys.modules[_FLAPACK]
    import scipy

    path = [os.path.join(entry, "linalg") for entry in scipy.__path__]
    spec = importlib.machinery.PathFinder.find_spec(_FLAPACK, path)
    if spec is None:
        raise ImportError(f"{_FLAPACK} not found in {path}", name=_FLAPACK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sys.modules.setdefault(_FLAPACK, module)


def _as_values(spec) -> np.ndarray:
    values = getattr(spec, "values", spec)
    return np.asarray(values, dtype=float)


@dataclass(frozen=True)
class Spectrum:
    """Non-increasing probability vector: eigenvalues of a reduced density matrix."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("spectrum must be a nonempty 1-d array")
        if np.any(values < 0.0):
            raise ValueError(f"negative eigenvalue {values.min()!r} in spectrum")
        if np.any(np.diff(values) > 0.0):
            raise ValueError("spectrum must be sorted in non-increasing order")
        total = values.sum()
        if not abs(total - 1.0) <= SUM_TOL:  # also rejects nan entries
            raise ValueError(f"spectrum sums to {total!r}, expected 1 within {SUM_TOL}")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def from_values(cls, values) -> "Spectrum":
        """Build a Spectrum from raw eigenvalues: sort, clamp rounding noise, validate.

        Entries in [-CLAMP_TOL, 0) are set to 0; anything more negative is a
        construction error, not noise.
        """
        values = np.asarray(values, dtype=float).copy()
        if values.ndim != 1:
            raise ValueError("expected a 1-d array of eigenvalues")
        below = values < 0.0
        if np.any(values < -CLAMP_TOL):
            raise ValueError(
                f"eigenvalue {values.min()!r} below the clamp tolerance {-CLAMP_TOL}"
            )
        values[below] = 0.0
        values[::-1].sort()
        return cls(values)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def __len__(self) -> int:
        return self.n


class MajorizationOrder(enum.Enum):
    """Outcome of comparing two spectra in the majorization partial order."""

    A_MAJORIZED_BY_B = "a_majorized_by_b"
    B_MAJORIZED_BY_A = "b_majorized_by_a"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def purity(spectrum) -> float:
    """Sum of squared eigenvalues, in [1/N, 1]."""
    v = _as_values(spectrum)
    return float(v @ v)


def renyi_traces(spectrum, k_max: int) -> np.ndarray:
    """tr rho^k for k = 2..k_max (index 0 is k=2)."""
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")
    v = _as_values(spectrum)
    return np.array([float(np.sum(v**k)) for k in range(2, k_max + 1)])


def von_neumann_entropy(spectrum) -> float:
    """-sum(lambda ln lambda), zero eigenvalues contributing nothing."""
    v = _as_values(spectrum)
    positive = v[v > 0.0]
    return float(-np.sum(positive * np.log(positive)))


def schmidt_number(spectrum) -> int:
    """Number of eigenvalues above RANK_REL_TOL * lambda_max (the effective rank)."""
    v = _as_values(spectrum)
    return int(np.count_nonzero(v > RANK_REL_TOL * v.max()))


def elementary_invariants(spectrum) -> np.ndarray:
    """Elementary symmetric polynomials s_1..s_N of the eigenvalues.

    Computed by multiplying out prod_i (x + lambda_i) one root at a time;
    with nonnegative roots every update adds like-signed terms, so there is
    no cancellation.  s_1 = 1 and s_N = det(rho).
    """
    v = _as_values(spectrum)
    n = v.size
    e = np.zeros(n + 1)
    e[0] = 1.0
    for lam in v:
        # RHS is evaluated against the pre-update coefficients, as the recurrence needs
        e[1 : n + 1] = e[1 : n + 1] + lam * e[0:n]
    return e[1:]


def determinant(spectrum) -> float:
    """Product of the eigenvalues, det(rho)."""
    return float(np.prod(_as_values(spectrum)))


def majorization_compare(a, b) -> MajorizationOrder:
    """Compare two equal-length spectra in the majorization partial order.

    `A_MAJORIZED_BY_B` means every partial sum of a (sorted decreasing) is at
    most the matching partial sum of b, i.e. a is the more mixed of the two.
    Ties within MAJORIZATION_TOL do not count as violations in either direction.
    """
    va = np.sort(_as_values(a))[::-1]
    vb = np.sort(_as_values(b))[::-1]
    if va.size != vb.size:
        raise ValueError(f"length mismatch: {va.size} vs {vb.size}")
    ca = np.cumsum(va)
    cb = np.cumsum(vb)
    a_below = bool(np.all(ca <= cb + MAJORIZATION_TOL))
    b_below = bool(np.all(cb <= ca + MAJORIZATION_TOL))
    if a_below and b_below:
        return MajorizationOrder.EQUAL
    if a_below:
        return MajorizationOrder.A_MAJORIZED_BY_B
    if b_below:
        return MajorizationOrder.B_MAJORIZED_BY_A
    return MajorizationOrder.INCOMPARABLE


def maximally_mixed(n: int) -> Spectrum:
    """The flat spectrum (1/N, ..., 1/N)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return Spectrum(np.full(n, 1.0 / n))


def pure_state(n: int) -> Spectrum:
    """The spectrum (1, 0, ..., 0) of an unentangled state."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    v = np.zeros(n)
    v[0] = 1.0
    return Spectrum(v)

