"""Closed-form averages and most-probable quantities of the induced ensemble.

Ensemble averages (over all random pure states) and typical values (at the
saddle point of the eigenvalue gas) are distinct: their difference is
O(1/(NM)).  The normalization and its moments are evaluated through
log-gamma.  The typical invariants s_k and the exact-rational helpers use
`Fraction` arithmetic, so each float is one correctly rounded conversion and
tests can compare derivation routes bit for bit instead of within tolerances.

Normalization of the joint eigenvalue law:

    C_{N,M} = (NM-1)! / prod_{j=1..N} (M-j)! (N-j+1)!
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import BipartitionDims

__all__ = [
    "EnsembleMoments",
    "TypicalQuantities",
    "log_normalization",
    "mean_moments",
    "det_moment",
    "typical_quantities",
    "asymptotic_traces",
    "balanced_det_asymptotic",
    "typical_purity_multiplier_exact",
    "typical_purity_vieta_exact",
    "invariant_s_exact",
    "trace_inverse_exact",
    "FormulaRow",
    "formula_table",
]


def log_normalization(dims: BipartitionDims) -> float:
    """ln C_{N,M} via log-gamma."""
    from scipy.special import gammaln

    n, m = dims.n, dims.m
    j = np.arange(1, n + 1)
    return float(gammaln(n * m) - np.sum(gammaln(m - j + 1) + gammaln(n - j + 2)))


def det_moment(dims: BipartitionDims, k: int) -> float:
    """<det rho^k> = C_{N,M} / C_{N,M+k}; k = 0 gives 1 identically."""
    if k < 0:
        raise ValueError(f"moment order must be >= 0, got {k}")
    if k == 0:
        return 1.0
    larger = BipartitionDims(dims.n, dims.m + k)
    return math.exp(log_normalization(dims) - log_normalization(larger))


@dataclass(frozen=True)
class EnsembleMoments:
    """Exact ensemble averages at finite (N, M)."""

    dims: BipartitionDims
    mean_lambda: float
    sigma_rms: float
    mean_purity: float
    mean_entropy: float
    normalization_log: float

    def det_moment(self, k: int) -> float:
        return det_moment(self.dims, k)


def mean_moments(dims: BipartitionDims) -> EnsembleMoments:
    """Mean eigenvalue, Lubkin rms width, mean purity, and the Page entropy."""
    from scipy.special import digamma

    n, m = dims.n, dims.m
    sigma = math.sqrt((1.0 - 1.0 / n**2) / (m * n + 1))
    # sum_{k=M+1}^{NM} 1/k written as a digamma difference
    entropy = float(digamma(n * m + 1) - digamma(m + 1)) - (n - 1) / (2.0 * m)
    return EnsembleMoments(
        dims=dims,
        mean_lambda=1.0 / n,
        sigma_rms=sigma,
        mean_purity=(n + m) / (m * n + 1),
        mean_entropy=entropy,
        normalization_log=log_normalization(dims),
    )


def balanced_det_asymptotic(n: int) -> float:
    """ln of the balanced-case typical determinant scale, ln N! - 2N ln N."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return 0.0
    return math.lgamma(n + 1) - 2.0 * n * math.log(n)


def asymptotic_traces(k: int, mu: float) -> float:
    """Leading coefficient of tr rho^k ~ coeff * N^(1-k) in the thermodynamic
    limit at aspect ratio mu; the mu = 0 values are the Catalan numbers."""
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    if k == 2:
        return (2.0 + mu) / (1.0 + mu)
    if k == 3:
        return (5.0 + 5.0 * mu + mu**2) / (1.0 + mu) ** 2
    if k == 4:
        return (14.0 + 21.0 * mu + 9.0 * mu**2 + mu**3) / (1.0 + mu) ** 3
    if k == 5:
        return (42.0 + 84.0 * mu + 56.0 * mu**2 + 14.0 * mu**3 + mu**4) / (
            1.0 + mu
        ) ** 4
    raise ValueError(f"asymptotic traces available for k in 2..5, got {k}")


@dataclass(frozen=True)
class TypicalQuantities:
    """Most-probable (saddle-point) quantities at finite (N, M)."""

    dims: BipartitionDims
    purity: float
    determinant_log: float

    def invariants_s(self, k: int) -> float:
        return float(invariant_s_exact(self.dims.n, self.dims.m, k))

    def invariants_s_table(self) -> list[float]:
        """[invariants_s(k) for k in 1..N], bit for bit, in O(N) exact steps.

        s_k = s_(k-1) (N-k+1)(M-k) / (k N (M-1)), so one running rational
        product replaces N factorial ratios.
        """
        n, m = self.dims.n, self.dims.m
        out = []
        s = Fraction(1)
        for k in range(1, n + 1):
            if m == n and k == n:
                # the balanced zero eigenvalue; also keeps N(M-1) = 0 out at N = M = 1
                out.append(0.0)
                break
            s *= Fraction((n - k + 1) * (m - k), k * n * (m - 1))
            out.append(float(s))
        return out


def typical_quantities(dims: BipartitionDims) -> TypicalQuantities:
    """Typical purity and determinant.

    The purity is computed by the multiplier route, numerator and denominator
    in integer arithmetic, so it is bit-identical to (N+M-2)/(N(M-1)).
    For balanced dims the determinant of the typical spectrum is exactly 0;
    determinant_log then carries the asymptotic scale ln N! - 2N ln N instead.
    """
    n, m = dims.n, dims.m
    if n == 1:
        pur = 1.0
    else:
        pur = (2 * (n - 1) + (m - n)) / (n * (m - 1))
    if m > n:
        det_log = math.lgamma(m) - math.lgamma(m - n) - n * math.log(n * (m - 1))
    else:
        det_log = balanced_det_asymptotic(n)
    return TypicalQuantities(dims=dims, purity=pur, determinant_log=det_log)


# ---------------------------------------------------------------------------
# exact-rational routes, used by tests to compare derivations bit for bit


def typical_purity_multiplier_exact(n: int, m: int) -> Fraction:
    """Typical purity from the force-balance sum rule 2(N-1) + (M-N) = xi*pi."""
    if n == 1:
        return Fraction(1)
    return Fraction(2 * (n - 1) + (m - n), n * (m - 1))


def _coefficient_exact(n: int, m: int, nu: int) -> Fraction:
    """Exact c_nu = xi^nu / nu! * C(M-1, N-nu) at xi = N(M-1)."""
    xi = n * (m - 1)
    return Fraction(xi**nu, math.factorial(nu)) * math.comb(m - 1, n - nu)


def typical_purity_vieta_exact(n: int, m: int) -> Fraction:
    """Typical purity from Vieta on the polynomial expansion, 1 - 2 c_{N-2}/c_N."""
    if n == 1:
        return Fraction(1)
    return 1 - 2 * _coefficient_exact(n, m, n - 2) / _coefficient_exact(n, m, n)


def invariant_s_exact(n: int, m: int, k: int) -> Fraction:
    """Exact rational s_k of the typical spectrum."""
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if m == n and k == n:
        return Fraction(0)
    return Fraction(math.comb(n, k) * math.perm(m - 1, k), (n * (m - 1)) ** k)


def trace_inverse_exact(n: int, m: int) -> Fraction:
    """Exact rational tr(rho^-1) = N^2 (M-1)/(M-N) at the typical spectrum."""
    if m == n:
        raise ValueError("trace of the inverse diverges for balanced dimensions")
    return Fraction(n * n * (m - 1), m - n)


# ---------------------------------------------------------------------------
# formula table export


@dataclass(frozen=True)
class FormulaRow:
    quantity: str
    n: int
    m: int
    value: float
    formula: str


def formula_table(dims: BipartitionDims, k_max: int | None = None) -> list[FormulaRow]:
    """All closed forms at (N, M) as rows (quantity, N, M, value, formula)."""
    n, m = dims.n, dims.m
    mom = mean_moments(dims)
    typ = typical_quantities(dims)
    if k_max is None:
        k_max = min(n, 8)
    rows = [
        FormulaRow("mean_purity", n, m, mom.mean_purity, "(N+M)/(N*M+1)"),
        FormulaRow(
            "mean_entropy", n, m, mom.mean_entropy, "sum_{k=M+1}^{NM} 1/k - (N-1)/(2M)"
        ),
        FormulaRow(
            "sigma_rms", n, m, mom.sigma_rms, "sqrt((1-1/N^2)/(M*N+1))"
        ),
        FormulaRow(
            "log_normalization",
            n,
            m,
            mom.normalization_log,
            "ln[(NM-1)!/prod_j (M-j)!(N-j+1)!]",
        ),
        FormulaRow("det_moment_1", n, m, mom.det_moment(1), "C_{N,M}/C_{N,M+1}"),
        FormulaRow("xi_multiplier", n, m, float(n * (m - 1)), "N*(M-1)"),
        FormulaRow("typical_purity", n, m, typ.purity, "(N+M-2)/(N*(M-1))"),
        FormulaRow(
            "typical_det_log",
            n,
            m,
            typ.determinant_log,
            "ln[(M-1)!/(M-N-1)!] - N*ln(N*(M-1))" if m > n else "ln(N!) - 2N*ln(N)",
        ),
    ]
    if m > n:
        inv = float(trace_inverse_exact(n, m))
        rows.append(FormulaRow("trace_inverse", n, m, inv, "N^2*(M-1)/(M-N)"))
    for k in range(1, k_max + 1):
        rows.append(
            FormulaRow(
                f"typical_s_{k}",
                n,
                m,
                typ.invariants_s(k),
                "N!(M-1)!/(k!(N-k)!(M-k-1)!)/(N*(M-1))^k",
            )
        )
    return rows
