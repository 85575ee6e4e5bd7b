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
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "BipartitionDims",
    "Spectrum",
    "Quantifiers",
    "MajorizationOrder",
    "purity",
    "renyi_traces",
    "von_neumann_entropy",
    "schmidt_number",
    "elementary_invariants",
    "determinant",
    "quantifiers",
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
    eigenvalue gas and `mu_ratio = (M - N)/N` is the exact rational aspect
    ratio used by the large-N formulas.
    """

    n: int
    m: int

    def __post_init__(self):
        if not isinstance(self.n, int) or not isinstance(self.m, int):
            raise ValueError("dimensions must be integers")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.m < self.n:
            raise ValueError(f"m must be >= n, got n={self.n}, m={self.m}")

    @property
    def alpha(self) -> int:
        return self.m - self.n

    @property
    def mu_ratio(self) -> Fraction:
        return Fraction(self.m - self.n, self.n)

    @property
    def total(self) -> int:
        return self.n * self.m

    @property
    def balanced(self) -> bool:
        return self.m == self.n


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
    def from_values(cls, values, clamp_tol: float = CLAMP_TOL) -> "Spectrum":
        """Build a Spectrum from raw eigenvalues: sort, clamp rounding noise, validate.

        Entries in [-clamp_tol, 0) are set to 0; anything more negative is a
        construction error, not noise.
        """
        values = np.asarray(values, dtype=float).copy()
        if values.ndim != 1:
            raise ValueError("expected a 1-d array of eigenvalues")
        below = values < 0.0
        if np.any(values < -clamp_tol):
            raise ValueError(
                f"eigenvalue {values.min()!r} below the clamp tolerance {-clamp_tol}"
            )
        values[below] = 0.0
        values[::-1].sort()
        return cls(values)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def __len__(self) -> int:
        return self.n

    def to_json(self) -> str:
        """JSON array of doubles; repr-exact, so parsing returns the same bits."""
        return json.dumps([float(v) for v in self.values])

    @classmethod
    def from_json(cls, text: str) -> "Spectrum":
        return cls(np.asarray(json.loads(text), dtype=float))

    def to_csv_row(self) -> str:
        return ",".join(repr(float(v)) for v in self.values)


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


def schmidt_number(spectrum, rel_tol: float = RANK_REL_TOL) -> int:
    """Number of eigenvalues above rel_tol * lambda_max (the effective rank)."""
    v = _as_values(spectrum)
    return int(np.count_nonzero(v > rel_tol * v.max()))


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


@dataclass(frozen=True)
class Quantifiers:
    """Scalar entanglement quantifiers of one spectrum."""

    purity: float
    renyi_traces: np.ndarray
    entropy: float
    schmidt_number: int
    invariants: np.ndarray
    determinant: float

    def invariants_s(self, k: int) -> float:
        if not 1 <= k <= self.invariants.size:
            raise ValueError(f"k must be in 1..{self.invariants.size}, got {k}")
        return float(self.invariants[k - 1])


def quantifiers(spectrum, k_max: int = 5) -> Quantifiers:
    """Bundle all scalar quantifiers of a spectrum (Renyi traces up to k_max)."""
    v = _as_values(spectrum)
    inv = elementary_invariants(v)
    return Quantifiers(
        purity=purity(v),
        renyi_traces=renyi_traces(v, k_max),
        entropy=von_neumann_entropy(v),
        schmidt_number=schmidt_number(v),
        invariants=inv,
        determinant=float(inv[-1]),
    )


def majorization_compare(a, b, tol: float = MAJORIZATION_TOL) -> MajorizationOrder:
    """Compare two equal-length spectra in the majorization partial order.

    `A_MAJORIZED_BY_B` means every partial sum of a (sorted decreasing) is at
    most the matching partial sum of b, i.e. a is the more mixed of the two.
    Ties within `tol` do not count as violations in either direction.
    """
    va = np.sort(_as_values(a))[::-1]
    vb = np.sort(_as_values(b))[::-1]
    if va.size != vb.size:
        raise ValueError(f"length mismatch: {va.size} vs {vb.size}")
    ca = np.cumsum(va)
    cb = np.cumsum(vb)
    a_below = bool(np.all(ca <= cb + tol))
    b_below = bool(np.all(cb <= ca + tol))
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

