"""Coulomb-gas energy of an entanglement spectrum and its saddle points.

The N eigenvalues behave like a 2d Coulomb gas on the probability simplex:

    F(lambda) = -2 sum_{i<j} ln|lambda_i - lambda_j| - (M-N) sum_i ln(lambda_i)

with F >= 0 on the simplex and F = +inf at coincident charges (or at a zero
charge when M > N).  `energy` evaluates the full constrained functional

    E(lambda; xi, eta) = F + xi (sum lambda - 1) + eta sum lambda^2

where xi enforces unit trace and eta > 0 biases the gas toward a target
purity.  The eta-constant term -eta * pi_target of the fixed-purity problem
is a constant offset and is deliberately not part of E (EnergyParams carries
no target); gradients and Hessians are unaffected.

`solve_saddle_numeric` is the independent oracle: a damped projected Newton
method on the simplex (sphere added when purity-constrained) that never looks
at the polynomial solutions it is later compared against.

Sign conventions: `gradient` returns dE/dlambda_i, so the balance-of-forces
equations of the gas read gradient = 0; the Hessian off-diagonal is the true
second derivative -2/(lambda_i - lambda_j)^2 (twice the value printed in the
source analysis; finite differences in the test suite arbitrate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BipartitionDims, Spectrum, _as_values
from .errors import ConvergenceError, FeasibilityError
from .fixedpurity import critical_threshold, eta_from_purity
from .orthopoly import LaguerreSpec, laguerre_zeros

__all__ = [
    "EnergyParams",
    "SaddleSolution",
    "energy",
    "gradient",
    "hessian",
    "force_residual",
    "solve_saddle_numeric",
    "typical_solution",
    "multiplier_xi",
    "trace_inverse",
]

MAX_ITERATIONS = 500
#: convergence is declared at force residual <= RESIDUAL_FACTOR * max(|xi|, 1)
RESIDUAL_FACTOR = 1e-10


@dataclass(frozen=True)
class EnergyParams:
    """Multipliers of the constrained gas: eta = 0 is the unbiased ensemble."""

    dims: BipartitionDims
    eta: float = 0.0
    xi: float = 0.0

    def __post_init__(self):
        if self.eta < 0.0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")


@dataclass(frozen=True)
class SaddleSolution:
    """A stationary point of the gas with its multipliers and diagnostics."""

    dims: BipartitionDims
    spectrum: Spectrum
    xi: float
    eta: float
    max_force_residual: float
    constraint_residuals: tuple
    hessian_definite: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.dims.n,
            "m": self.dims.m,
            "eta": self.eta,
            "xi": self.xi,
            "spectrum": [float(v) for v in self.spectrum.values],
            "force_residual": self.max_force_residual,
            "constraint_residuals": [float(c) for c in self.constraint_residuals],
            "hessian_definite": self.hessian_definite,
        }


def _interior_ok(v: np.ndarray, alpha: int) -> bool:
    if alpha > 0 and np.any(v <= 0.0):
        return False
    if v.size > 1:
        s = np.sort(v)
        if np.any(np.diff(s) == 0.0):
            return False
    return True


def _pair_differences(v: np.ndarray) -> np.ndarray:
    """lambda_i - lambda_j as an N x N matrix with a unit diagonal, so that it
    inverts elementwise; callers zero the diagonal of the inverse."""
    diff = v[:, None] - v[None, :]
    np.fill_diagonal(diff, 1.0)
    return diff


def energy(spectrum, params: EnergyParams) -> float:
    """E(lambda; xi, eta); +inf sentinel at coincident charges or at a zero
    charge when M > N (never an exception)."""
    v = _as_values(spectrum)
    alpha = params.dims.alpha
    if not _interior_ok(v, alpha):
        return math.inf
    total = 0.0
    if v.size > 1:
        iu, ju = np.triu_indices(v.size, 1)
        total -= 2.0 * float(np.sum(np.log(np.abs(v[iu] - v[ju]))))
    if alpha > 0:
        total -= alpha * float(np.sum(np.log(v)))
    total += params.xi * (float(v.sum()) - 1.0)
    if params.eta:
        total += params.eta * float(v @ v)
    return total


def gradient(spectrum, params: EnergyParams) -> np.ndarray:
    """dE/dlambda_i at the supplied multipliers; +inf sentinel array off-domain."""
    v = _as_values(spectrum)
    alpha = params.dims.alpha
    if not _interior_ok(v, alpha):
        return np.full(v.size, math.inf)
    g = np.full(v.size, float(params.xi))
    if v.size > 1:
        inv = 1.0 / _pair_differences(v)
        np.fill_diagonal(inv, 0.0)
        g -= 2.0 * inv.sum(axis=1)
    if alpha > 0:
        g -= alpha / v
    if params.eta:
        g += 2.0 * params.eta * v
    return g


def hessian(spectrum, params: EnergyParams) -> np.ndarray:
    """d2E/dlambda_i dlambda_j; off-diagonal -2/(lambda_i-lambda_j)^2."""
    v = _as_values(spectrum)
    alpha = params.dims.alpha
    n = v.size
    if not _interior_ok(v, alpha):
        return np.full((n, n), math.inf)
    h = np.zeros((n, n))
    if n > 1:
        diff = _pair_differences(v)
        inv2 = 1.0 / (diff * diff)
        np.fill_diagonal(inv2, 0.0)
        h = -2.0 * inv2
        np.fill_diagonal(h, 2.0 * inv2.sum(axis=1))
    if alpha > 0:
        h[np.diag_indices(n)] += alpha / (v * v)
    if params.eta:
        h[np.diag_indices(n)] += 2.0 * params.eta
    return h


def force_residual(spectrum, params: EnergyParams) -> float:
    """Infinity norm of the stationarity equations at the supplied multipliers."""
    return float(np.max(np.abs(gradient(spectrum, params))))


def multiplier_xi(dims: BipartitionDims) -> int:
    """Trace multiplier of the unbiased gas, N(M-1), exact."""
    return dims.n * (dims.m - 1)


def trace_inverse(dims: BipartitionDims) -> float:
    """tr(rho^-1) at the typical spectrum, N^2 (M-1)/(M-N); diverges if M = N."""
    if dims.m == dims.n:
        raise ValueError("trace of the inverse diverges for balanced dimensions")
    return dims.n**2 * (dims.m - 1) / (dims.m - dims.n)


def _is_positive_definite(h: np.ndarray) -> bool:
    """Finite, and its Cholesky factorization succeeds."""
    if not np.all(np.isfinite(h)):
        return False
    try:
        np.linalg.cholesky(h)
        return True
    except np.linalg.LinAlgError:
        return False


def _start_point(n: int) -> np.ndarray:
    # maximally mixed plus 1e-3-graded, ordered, zero-sum offsets
    if n == 1:
        return np.array([1.0])
    return (1.0 + 1e-3 * np.linspace(-1.0, 1.0, n)) / n


def _fit_multipliers(v, g0, constrained):
    """Least-squares (xi, eta) minimizing |g0 + xi * 1 + 2 eta * v|."""
    if constrained:
        a = np.stack([np.ones(v.size), 2.0 * v], axis=1)
    else:
        a = np.ones((v.size, 1))
    sol, *_ = np.linalg.lstsq(a, -g0, rcond=None)
    xi = float(sol[0])
    eta = float(sol[1]) if constrained else 0.0
    return xi, eta, a


def _kkt_state(v, dims, purity_target):
    constrained = purity_target is not None
    g0 = gradient(v, EnergyParams(dims))  # F alone: no multiplier terms
    xi, eta, a = _fit_multipliers(v, g0, constrained)
    g = g0 + xi
    if constrained:
        g = g + 2.0 * eta * v
    c = [float(v.sum()) - 1.0]
    if constrained:
        c.append(float(v @ v) - purity_target)
    c = np.asarray(c)
    merit = float(np.sqrt(g @ g + c @ c))
    return g0, xi, eta, a, g, c, merit


def _kkt_hessian(x, dims, xi, eta):
    # eta can be negative transiently, which EnergyParams rejects; add it by hand
    h = hessian(x, EnergyParams(dims, eta=0.0, xi=xi))
    h[np.diag_indices(x.size)] += 2.0 * eta
    return h


def _balanced_feasible(n: int, purity_target: float) -> bool:
    """Smallest zero of the fixed-purity solution stays positive."""
    if n == 1:
        return purity_target == 1.0
    return eta_from_purity(n, purity_target) > critical_threshold(n).eta_plus


def solve_saddle_numeric(dims, purity_target=None, init=None) -> SaddleSolution:
    """Find the interior minimum of the gas by damped projected Newton.

    Independent of the polynomial route: starts at the maximally mixed point
    (plus graded 1e-3 offsets), refits the multipliers to the current gradient
    by least squares each iteration, solves the KKT Newton system, and damps
    steps so iterates keep positivity and strict ordering (the +inf energy
    wall).  Stops at force residual <= 1e-10 * max(|xi|, 1).

    Balanced unconstrained problems are reduced explicitly: one charge sits
    at the origin and the rest solve the (N-1, N+1) problem.

    purity_target is supported for any dims with target in (1/N, 1); the
    contract only promises balanced dims with target in (1/N, 5/(4N)], and
    balanced feasibility is prechecked analytically (FeasibilityError beyond
    the threshold).
    """
    n, alpha = dims.n, dims.alpha
    constrained = purity_target is not None

    if constrained:
        if not 1.0 / n < purity_target <= 1.0:
            raise FeasibilityError(
                f"purity target {purity_target} outside (1/{n}, 1]"
            )
        if dims.balanced and not _balanced_feasible(n, purity_target):
            raise FeasibilityError(
                f"no interior fixed-purity solution at n={n}, target={purity_target}"
            )

    if dims.balanced and not constrained and n >= 2:
        inner = solve_saddle_numeric(
            BipartitionDims(dims.n - 1, dims.n + 1), init=None
        )
        values = np.concatenate((inner.spectrum.values, [0.0]))
        return SaddleSolution(
            dims=dims,
            spectrum=Spectrum(values),
            xi=inner.xi,
            eta=0.0,
            max_force_residual=inner.max_force_residual,
            constraint_residuals=(abs(float(values.sum()) - 1.0),),
            hessian_definite=inner.hessian_definite,
        )

    if n == 1:
        spectrum = Spectrum(np.array([1.0]))
        xi = float(alpha)
        params = EnergyParams(dims, eta=0.0, xi=xi)
        residuals = (0.0, abs(1.0 - purity_target)) if constrained else (0.0,)
        return SaddleSolution(
            dims=dims,
            spectrum=spectrum,
            xi=xi,
            eta=0.0,
            max_force_residual=force_residual(spectrum, params),
            constraint_residuals=residuals,
            hessian_definite=True,
        )

    if init is not None:
        x = np.sort(_as_values(init).astype(float))
        if np.any(x <= 0.0):
            raise ValueError("init must be strictly positive")
    else:
        x = _start_point(n)

    g0, xi, eta, a, g, c, merit = _kkt_state(x, dims, purity_target)
    for _ in range(MAX_ITERATIONS):
        res = float(np.max(np.abs(g)))
        cres = float(np.max(np.abs(c)))
        scale = max(abs(xi), 1.0)
        if res <= 1e-13 * scale and cres <= 1e-13:
            break
        h = _kkt_hessian(x, dims, xi, eta)
        k = a.shape[1]
        kkt = np.zeros((n + k, n + k))
        kkt[:n, :n] = h
        kkt[:n, n:] = a
        kkt[n:, :n] = a.T
        rhs = np.concatenate((-g, -c))
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            break
        dx = sol[:n]

        step = 1.0
        neg = dx < 0.0
        if np.any(neg):
            step = min(step, 0.95 * float(np.min(-x[neg] / dx[neg])))
        gaps = np.diff(x)
        dgaps = np.diff(dx)
        closing = dgaps < 0.0
        if np.any(closing):
            step = min(step, 0.95 * float(np.min(-gaps[closing] / dgaps[closing])))

        improved = False
        while step > 1e-14:
            x_try = x + step * dx
            state = _kkt_state(x_try, dims, purity_target)
            if state[-1] < merit:
                x = x_try
                g0, xi, eta, a, g, c, merit = state
                improved = True
                break
            step *= 0.5
        if not improved:
            break

    res = float(np.max(np.abs(g)))
    cres = float(np.max(np.abs(c)))
    if res > RESIDUAL_FACTOR * max(abs(xi), 1.0) or cres > 1e-10:
        raise ConvergenceError(
            f"saddle solver stalled at force residual {res:.3e}, "
            f"constraint residual {cres:.3e}"
        )

    residuals = tuple(abs(float(ci)) for ci in c)
    return SaddleSolution(
        dims=dims,
        spectrum=Spectrum.from_values(x),
        xi=xi,
        eta=eta,
        max_force_residual=res,
        constraint_residuals=residuals,
        hessian_definite=_is_positive_definite(_kkt_hessian(x, dims, xi, eta)),
    )


def typical_solution(dims: BipartitionDims) -> SaddleSolution:
    """Unbiased typical spectrum by the polynomial route: zeros of
    L_N^(M-N-1)(N(M-1) x), with the balanced case reduced to (N-1, N+1)."""
    n, m = dims.n, dims.m
    xi = float(multiplier_xi(dims))
    if n == 1:
        values = np.array([1.0])
        inner_dims, inner_values = dims, values
    elif dims.balanced:
        inner_dims = BipartitionDims(n - 1, n + 1)
        inner_values = laguerre_zeros(
            LaguerreSpec(n - 1, 1.0, float(multiplier_xi(inner_dims)))
        )
        values = np.concatenate((inner_values, [0.0]))
    else:
        inner_dims = dims
        inner_values = laguerre_zeros(LaguerreSpec(n, float(dims.alpha - 1), xi))
        values = inner_values
    params = EnergyParams(inner_dims, eta=0.0, xi=float(multiplier_xi(inner_dims)))
    res = float(np.max(np.abs(gradient(inner_values, params)))) if inner_dims.n else 0.0
    return SaddleSolution(
        dims=dims,
        spectrum=Spectrum.from_values(values),
        xi=xi,
        eta=0.0,
        max_force_residual=res,
        constraint_residuals=(abs(float(values.sum()) - 1.0),),
        hessian_definite=_is_positive_definite(hessian(inner_values, params)),
    )
