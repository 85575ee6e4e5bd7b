"""Balanced spectra conditioned on purity.

For balanced dimensions (M = N) the most probable spectrum at fixed purity
pi solves a force balance with two multipliers; its eigenvalues are the
zeros of a Hermite polynomial mapped by x -> sqrt(eta) (x - 1/N), where

    eta = N^2 (N - 1) / (2 (N pi - 1)),      xi = -2 eta / N,

so the multipliers obey the sum rule xi + 2 eta pi = N(N - 1).  The mapped
zeros are stationary points of the Coulomb-gas energy at (eta, xi), which
is how this route and the gas check each other (coulomb.force_residual).

The construction stays meaningful past the point where the smallest zero
crosses 0 (the spectrum simply stops being a spectrum).  That crossing, the
positivity threshold eta_plus, has a closed form in the smallest zero of H_N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BipartitionDims, Spectrum
from .errors import FeasibilityError
from .orthopoly import HermiteSpec, hermite_zeros

__all__ = [
    "IsopurityProblem",
    "FixedPuritySolution",
    "CriticalThreshold",
    "ScanRow",
    "eta_from_purity",
    "purity_from_eta",
    "solve_isopurity",
    "critical_threshold",
    "threshold_scan",
]

#: large-n limit of the rescaled positivity threshold eta_plus / N^3, where
#: the semicircle family of continuum laws starts
BETA_PLUS = 2.0


def purity_critical(n: int) -> float:
    """Large-n purity at the positivity threshold, 5/(4n)."""
    return 5.0 / (4.0 * n)


def eta_from_purity(n: int, purity: float) -> float:
    """Stiffness eta enforcing mean square sum pi: N^2(N-1)/(2(N pi - 1))."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not 1.0 / n < purity <= 1.0:
        raise ValueError(
            f"purity must lie in (1/{n}, 1], got {purity}"
        )
    return n * n * (n - 1) / (2.0 * (n * purity - 1.0))


def purity_from_eta(n: int, eta: float) -> float:
    """Inverse map: pi = 1/N + N(N-1)/(2 eta)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if eta <= 0:
        raise ValueError(f"eta must be > 0, got {eta}")
    return 1.0 / n + n * (n - 1) / (2.0 * eta)


@dataclass(frozen=True)
class IsopurityProblem:
    """Balanced fixed-purity problem, stored as (n, eta) with the target
    purity kept alongside for reporting."""

    n: int
    eta: float
    purity_target: float

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not 0.0 < self.eta < math.inf:
            raise ValueError(f"eta must be finite and > 0, got {self.eta}")

    @classmethod
    def from_purity(cls, n: int, purity: float) -> "IsopurityProblem":
        return cls(n=n, eta=eta_from_purity(n, purity), purity_target=float(purity))

    @classmethod
    def from_eta(cls, n: int, eta: float) -> "IsopurityProblem":
        return cls(n=n, eta=float(eta), purity_target=purity_from_eta(n, eta))

    @property
    def dims(self) -> BipartitionDims:
        return BipartitionDims(self.n, self.n)

    @property
    def beta(self) -> float:
        """Rescaled stiffness eta / N^3."""
        return self.eta / self.n**3

    @property
    def xi(self) -> float:
        """Linear multiplier fixed by the trace constraint, -2 eta / N."""
        return -2.0 * self.eta / self.n


@dataclass(frozen=True)
class FixedPuritySolution:
    """Mapped Hermite zeros for an isopurity problem.

    `values` holds the descending zeros, feasible or not; `spectrum` refuses
    to build a Spectrum from an infeasible solution.
    """

    problem: IsopurityProblem
    values: np.ndarray
    feasible: bool
    min_eigenvalue: float
    purity_residual: float

    @property
    def spectrum(self) -> Spectrum:
        if not self.feasible:
            raise FeasibilityError(
                f"no nonnegative spectrum at n={self.problem.n}, "
                f"eta={self.problem.eta:.6g}: smallest value "
                f"{self.min_eigenvalue:.6g} < 0"
            )
        return Spectrum.from_values(self.values)


def _mapped_zeros(n: int, eta: float) -> np.ndarray:
    spec = HermiteSpec(degree=n, shift=1.0 / n, scale=math.sqrt(eta))
    return hermite_zeros(spec)


def _smallest_hermite_zero(n: int) -> float:
    """h_min < 0, the smallest zero of H_n; the mapped zeros are 1/n + h/sqrt(eta)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return hermite_zeros(HermiteSpec(degree=n, shift=0.0, scale=1.0))[0]


def solve_isopurity(problem: IsopurityProblem) -> FixedPuritySolution:
    """Solve the balanced fixed-purity problem via mapped Hermite zeros."""
    zeros = _mapped_zeros(problem.n, problem.eta)
    values = zeros[::-1].copy()
    min_eig = float(zeros[0])
    actual = float(np.sum(values * values))
    return FixedPuritySolution(
        problem=problem,
        values=values,
        feasible=min_eig >= 0.0,
        min_eigenvalue=min_eig,
        purity_residual=abs(actual - problem.purity_target),
    )


@dataclass(frozen=True)
class CriticalThreshold:
    """Positivity threshold of the fixed-purity family at size n.

    eta_plus is the finite-n value at which the smallest eigenvalue crosses
    zero; beta_plus and purity_critical are its large-n limits, BETA_PLUS = 2
    and purity_critical(n) = 5/(4n).
    """

    n: int
    eta_plus: float
    beta_plus_finite: float
    purity_plus_finite: float
    beta_plus: float
    purity_critical: float


def critical_threshold(n: int) -> CriticalThreshold:
    """Positivity threshold in closed form.

    The smallest mapped zero is 1/n + h_min/sqrt(eta), h_min < 0 being the
    smallest zero of H_n, which does not depend on eta.  It is increasing in
    eta and crosses zero at eta_plus = (n h_min)^2 exactly.
    """
    h_min = _smallest_hermite_zero(n)
    eta_plus = float(n * h_min) ** 2
    return CriticalThreshold(
        n=n,
        eta_plus=eta_plus,
        beta_plus_finite=eta_plus / n**3,
        purity_plus_finite=purity_from_eta(n, eta_plus),
        beta_plus=BETA_PLUS,
        purity_critical=purity_critical(n),
    )


@dataclass(frozen=True)
class ScanRow:
    n: int
    eta: float
    beta: float
    purity: float
    min_eigenvalue: float
    feasible: bool


def threshold_scan(n: int, etas: np.ndarray | list[float]) -> list[ScanRow]:
    """Feasibility scan over stiffness values, one row per eta.

    eta only rescales the zeros, so H_n is solved once: the smallest
    mapped zero is 1/n + h_min/sqrt(eta), as in solve_isopurity.
    """
    h_min = _smallest_hermite_zero(n)
    rows = []
    for eta in np.asarray(etas, dtype=float):
        problem = IsopurityProblem.from_eta(n, float(eta))
        min_eig = float(1.0 / n + h_min / math.sqrt(problem.eta))
        rows.append(
            ScanRow(
                n=n,
                eta=float(eta),
                beta=problem.beta,
                purity=problem.purity_target,
                min_eigenvalue=min_eig,
                feasible=min_eig >= 0.0,
            )
        )
    return rows
