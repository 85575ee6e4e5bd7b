"""Zeros of scaled Laguerre and Hermite polynomials.

The typical entanglement spectra computed elsewhere in this package are the
zeros of L_N^(a)(xi * x) (unbalanced, unconstrained) and of H_N(s * (x - b))
(balanced, fixed purity).  Zeros are found the Golub-Welsch way: eigenvalues
of the symmetric tridiagonal Jacobi matrix of the family, here computed by
LAPACK ?stemr (through scipy, imported on the first call), then polished by
a single Newton step using three-term recurrences run over all zeros at
once.  Polynomials are never evaluated through their expanded coefficients
(closedform holds those as exact rationals for the Vieta cross-checks); the
recurrences carry a joint rescaling of each zero's value pair so degrees in
the thousands stay inside floating-point range.

Jacobi matrices (in the unscaled variable y):

* Laguerre L_N^(a):  diag_k = 2k + a + 1 (k = 0..N-1), off_k = sqrt(k (k + a))
* Hermite  H_N:      diag_k = 0,                      off_k = sqrt(k / 2)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

__all__ = [
    "LaguerreSpec",
    "HermiteSpec",
    "tridiagonal_eigenvalues",
    "laguerre_jacobi",
    "hermite_jacobi",
    "laguerre_zeros",
    "hermite_zeros",
    "laguerre_relative_residuals",
    "hermite_relative_residuals",
]

_RESCALE_LIMIT = 1e250


@dataclass(frozen=True)
class LaguerreSpec:
    """L_N^(a)(xi * x): degree N, order a > -1, scale xi > 0 on the argument."""

    degree: int
    order: float
    scale: float

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")
        if not self.order > -1.0:
            raise ValueError(f"order must be > -1, got {self.order}")
        if not self.scale > 0.0:
            raise ValueError(f"scale must be > 0, got {self.scale}")


@dataclass(frozen=True)
class HermiteSpec:
    """H_N(s * (x - b)): degree N, shift b, scale s > 0."""

    degree: int
    shift: float
    scale: float

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")
        if not self.scale > 0.0:
            raise ValueError(f"scale must be > 0, got {self.scale}")


def tridiagonal_eigenvalues(diag, offdiag) -> np.ndarray:
    """Eigenvalues of a symmetric tridiagonal matrix, ascending.

    LAPACK ?stemr through scipy.linalg.eigvalsh_tridiagonal, imported here so
    that `import typent` loads no scipy.  Raises ValueError for a length
    mismatch or a non-finite entry, and ConvergenceError if LAPACK reports a
    failure.
    """
    d = np.asarray(diag, dtype=float)
    n = d.size
    if n == 0:
        return d.copy()
    e = np.asarray(offdiag, dtype=float) if n > 1 else np.empty(0)
    if e.size != n - 1:
        raise ValueError(f"offdiag must have length {n - 1}, got {e.size}")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("diag and offdiag must be finite")
    from scipy.linalg import eigvalsh_tridiagonal

    try:
        return eigvalsh_tridiagonal(d, e, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK ?stemr failed: {exc}") from exc


def laguerre_jacobi(spec: LaguerreSpec) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, off-diagonal) of the degree-N Laguerre Jacobi matrix in y."""
    n, a = spec.degree, spec.order
    k = np.arange(n, dtype=float)
    diag = 2.0 * k + a + 1.0
    koff = np.arange(1, n, dtype=float)
    off = np.sqrt(koff * (koff + a))
    return diag, off


def hermite_jacobi(spec: HermiteSpec) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, off-diagonal) of the degree-N Hermite Jacobi matrix in y."""
    n = spec.degree
    diag = np.zeros(n)
    koff = np.arange(1, n, dtype=float)
    off = np.sqrt(koff / 2.0)
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


def _polish(y: np.ndarray, step) -> np.ndarray:
    """One guarded Newton step per zero; a step crossing toward a neighbor is
    rejected (the LAPACK eigenvalue is already good to roundoff in that case)."""
    if y.size < 2:
        guard = np.full(y.size, math.inf)
    else:
        gaps = np.diff(y)
        guard = 0.45 * np.minimum(
            np.concatenate(([gaps[0]], gaps)), np.concatenate((gaps, [gaps[-1]]))
        )
    delta = step(y)
    accept = np.isfinite(delta) & (np.abs(delta) < guard)
    return np.where(accept, y - delta, y)


def laguerre_zeros(spec: LaguerreSpec) -> np.ndarray:
    """Zeros of L_N^(a)(xi x) in x, ascending; all strictly positive.

    The relative Newton residual |L| / |L' * y| at the returned zeros grows
    with N, largest at small a: measured below 1e-12 up to N = 500, 6e-12 at
    (N, a, xi) = (1000, 0, 1e6) and 3e-11 at N = 2000.
    """
    n, a, xi = spec.degree, spec.order, spec.scale
    if n == 0:
        return np.empty(0)
    diag, off = laguerre_jacobi(spec)
    y = tridiagonal_eigenvalues(diag, off)
    y = _polish(y, lambda t: _laguerre_newton_step(n, a, t))
    return y / xi


def hermite_zeros(spec: HermiteSpec) -> np.ndarray:
    """Zeros of H_N(s (x - b)) in x, ascending; symmetric about b."""
    n, b, s = spec.degree, spec.shift, spec.scale
    if n == 0:
        return np.empty(0)
    diag, off = hermite_jacobi(spec)
    y = tridiagonal_eigenvalues(diag, off)
    y = _polish(y, lambda t: _hermite_newton_step(n, t))
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
