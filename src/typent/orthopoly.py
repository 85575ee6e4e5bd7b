"""Zeros of scaled Laguerre and Hermite polynomials.

The typical entanglement spectra computed elsewhere in this package are the
zeros of L_N^(a)(xi * x) (unbalanced, unconstrained) and of H_N(s * (x - b))
(balanced, fixed purity).  Laguerre zeros are the eigenvalues of the Jacobi
matrix (Golub-Welsch), diag_k = 2k + a + 1 (k = 0..N-1) and off_k =
sqrt(k (k + a)), which is positive definite for a > -1, so one LAPACK dpteqr
call (through scipy, imported on the first call) returns them to high
relative accuracy.  Hermite zeros are square roots of Laguerre zeros:
H_2k(y) ~ L_k^(-1/2)(y^2) and H_2k+1(y) ~ y L_k^(1/2)(y^2).

The three-term recurrences check those zeros independently (the
*_relative_residuals functions); each zero's value pair is rescaled jointly
so degrees in the thousands stay inside floating-point range.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

__all__ = [
    "LaguerreSpec",
    "HermiteSpec",
    "laguerre_jacobi",
    "laguerre_zeros",
    "hermite_zeros",
    "laguerre_relative_residuals",
    "hermite_relative_residuals",
]

_RESCALE_LIMIT = 1e250


def _check_degree_and_scale(degree, scale) -> None:
    if isinstance(degree, bool) or not isinstance(degree, numbers.Integral) or degree < 0:
        raise ValueError(f"degree must be an integer >= 0, got {degree!r}")
    if not 0.0 < scale < math.inf:
        raise ValueError(f"scale must be finite and > 0, got {scale}")


@dataclass(frozen=True)
class LaguerreSpec:
    """L_N^(a)(xi * x): degree N, finite order a > -1, finite scale xi > 0."""

    degree: int
    order: float
    scale: float

    def __post_init__(self):
        _check_degree_and_scale(self.degree, self.scale)
        if not -1.0 < self.order < math.inf:
            raise ValueError(f"order must be finite and > -1, got {self.order}")


@dataclass(frozen=True)
class HermiteSpec:
    """H_N(s * (x - b)): degree N, finite shift b, finite scale s > 0."""

    degree: int
    shift: float
    scale: float

    def __post_init__(self):
        _check_degree_and_scale(self.degree, self.scale)
        if not math.isfinite(self.shift):
            raise ValueError(f"shift must be finite, got {self.shift}")


def dpteqr(d: np.ndarray, e: np.ndarray):
    """LAPACK dpteqr through scipy, eigenvalues only (descending), as the
    tuple (d, e, z, info); imported on first use so that `import typent`
    loads no scipy, and a module attribute so that a test can patch it."""
    import scipy.linalg.lapack

    return scipy.linalg.lapack.dpteqr(d, e, np.zeros((1, 1)), compute_z=0)


def laguerre_jacobi(spec: LaguerreSpec) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, off-diagonal) of the degree-N Laguerre Jacobi matrix in y."""
    n, a = spec.degree, spec.order
    k = np.arange(n, dtype=float)
    diag = 2.0 * k + a + 1.0
    koff = np.arange(1, n, dtype=float)
    off = np.sqrt(koff * (koff + a))
    return diag, off


def _laguerre_pair(n: int, a: float, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L_n^(a)(y), L_{n-1}^(a)(y)) elementwise, each element's pair up to its
    own positive rescaling."""
    prev = np.ones_like(y)
    if n == 0:
        return prev, np.zeros_like(y)
    cur = 1.0 + a - y
    for k in range(1, n):
        prev, cur = cur, ((2.0 * k + 1.0 + a - y) * cur - (k + a) * prev) / (k + 1.0)
        _rescale(prev, cur)
    return cur, prev


def _hermite_pair(n: int, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(H_n(y), H_{n-1}(y)) elementwise, each element's pair up to its own
    positive rescaling."""
    prev = np.ones_like(y)
    if n == 0:
        return prev, np.zeros_like(y)
    cur = 2.0 * y
    for k in range(1, n):
        prev, cur = cur, 2.0 * y * cur - 2.0 * k * prev
        _rescale(prev, cur)
    return cur, prev


def _rescale(prev: np.ndarray, cur: np.ndarray) -> None:
    """Divide both members of each pair by _RESCALE_LIMIT, in place, where
    the larger of the two exceeds it."""
    big = np.maximum(np.abs(prev), np.abs(cur)) > _RESCALE_LIMIT
    if big.any():
        prev[big] /= _RESCALE_LIMIT
        cur[big] /= _RESCALE_LIMIT


def _newton_step(val: np.ndarray, deriv: np.ndarray) -> np.ndarray:
    """val / deriv, or 0 where the derivative is zero or not finite."""
    usable = np.isfinite(deriv) & (deriv != 0.0)
    return np.divide(val, deriv, out=np.zeros_like(val), where=usable)


def _laguerre_newton_step(n: int, a: float, y: np.ndarray) -> np.ndarray:
    """Newton corrections L/L' at y; the derivative uses the same-order identity
    y L_n' = n L_n - (n + a) L_{n-1}, so a single recurrence pass suffices."""
    val, below = _laguerre_pair(n, a, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        deriv = (n * val - (n + a) * below) / y
    return _newton_step(val, deriv)


def _hermite_newton_step(n: int, y: np.ndarray) -> np.ndarray:
    """Newton corrections H/H' at y, with H_n' = 2 n H_{n-1}."""
    val, below = _hermite_pair(n, y)
    return _newton_step(val, 2.0 * n * below)


def _laguerre_y(spec: LaguerreSpec) -> np.ndarray:
    """Zeros of L_N^(a)(y) in y, ascending: one dpteqr call for N >= 2."""
    diag, off = laguerre_jacobi(spec)
    if spec.degree < 2:
        return diag
    y, _, _, info = dpteqr(diag, off)
    if info != 0:
        raise ConvergenceError(f"LAPACK dpteqr failed with info={info}")
    return y[::-1]


def laguerre_zeros(spec: LaguerreSpec) -> np.ndarray:
    """Zeros of L_N^(a)(xi x) in x, ascending; all strictly positive.

    Relative errors against long-double Newton references were at most
    5.2e-15 at (N, a) = (1000, 0), 1.5e-14 at (2000, 0) and 1.9e-13 at
    (1000, 1), the last at the smallest zero.
    """
    return _laguerre_y(spec) / spec.scale


def hermite_zeros(spec: HermiteSpec) -> np.ndarray:
    """Zeros of H_N(s (x - b)) in x, ascending; symmetric about b.

    y = +-sqrt of the zeros of L_k^(p - 1/2), k = N // 2 and p = N % 2, plus
    y = 0 for odd N; at b = 0 the zeros are exactly antisymmetric.  The error
    in y is at most 3.1e-14 max(|y|, 1) up to N = 3000.
    """
    n, b, s = spec.degree, spec.shift, spec.scale
    half = np.sqrt(_laguerre_y(LaguerreSpec(n // 2, n % 2 - 0.5, 1.0)))
    y = np.concatenate((-half[::-1], np.zeros(n % 2), half))
    return b + y / s


def laguerre_relative_residuals(spec: LaguerreSpec, zeros_x) -> np.ndarray:
    """|L(y)| / |L'(y) * y| at y = xi * x for each supplied zero."""
    y = spec.scale * np.asarray(zeros_x, dtype=float)
    return np.abs(_laguerre_newton_step(spec.degree, spec.order, y)) / np.abs(y)


def hermite_relative_residuals(spec: HermiteSpec, zeros_x) -> np.ndarray:
    """|H(y) / H'(y)| / max(|y|, 1) at y = s (x - b) for each supplied zero.

    The floor at |y| = 1 keeps the odd-degree zero at y = 0 meaningful.
    """
    y = spec.scale * (np.asarray(zeros_x, dtype=float) - spec.shift)
    return np.abs(_hermite_newton_step(spec.degree, y)) / np.maximum(np.abs(y), 1.0)
