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

`solve_saddle_numeric` is the independent oracle: Newton's method for the
convex function F + eta sum lambda^2 restricted to sum lambda = 1, with eta
fixed by the force sum rules when a (balanced) purity target is given.  It
starts at quantiles of the large-N continuum law (Marchenko-Pastur or the
semicircle, from `continuum`) and never looks at the polynomial solutions
it is later compared against.  It Cholesky-factors the Hessian once per
Newton step (LAPACK dpotrf and dpotrs from scipy's compiled module, loaded
when the solver first runs, without the scipy.linalg package).
hessian_definite, on both routes, is strict diagonal dominance of the
Hessian at the returned point (Gershgorin), so no factorization is made
only to set that flag.
`typical_solution` and the oracle share one builder for the N = 1 case, the
balanced (N-1, N+1) reduction and the diagnostics.

Sign conventions: `gradient` returns dE/dlambda_i, so the balance-of-forces
equations of the gas read gradient = 0; the Hessian off-diagonal is the true
second derivative -2/(lambda_i - lambda_j)^2 (twice the value printed in the
source analysis; finite differences in the test suite arbitrate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .continuum import marchenko_pastur, quantiles, semicircle
from .core import SUM_TOL, BipartitionDims, Spectrum, _as_values, lapack
from .errors import ConvergenceError, FeasibilityError
from .fixedpurity import BETA_PLUS, critical_threshold, eta_from_purity
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
]

MAX_ITERATIONS = 500
#: convergence is declared at force residual <= RESIDUAL_FACTOR * max(|xi|, 1)
RESIDUAL_FACTOR = 1e-10
#: Newton iterates stay this close to sum lambda = 1, half the Spectrum
#: tolerance, so that the returned values validate however their sum rounds
TRACE_TOL = 0.5 * SUM_TOL


@dataclass(frozen=True)
class EnergyParams:
    """Multipliers of the constrained gas: eta = 0 is the unbiased ensemble."""

    dims: BipartitionDims
    eta: float = 0.0
    xi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.eta < math.inf:
            raise ValueError(f"eta must be finite and >= 0, got {self.eta}")


@dataclass(frozen=True)
class SaddleSolution:
    """A stationary point of the gas with its multipliers and diagnostics.

    iterations, min_step and merit_history describe the Newton run of
    solve_saddle_numeric: steps taken, the smallest accepted step fraction,
    and the force norm ||r||_2 after each step.  A solution that took no
    Newton step keeps the defaults.
    """

    dims: BipartitionDims
    spectrum: Spectrum
    xi: float
    eta: float
    max_force_residual: float
    constraint_residuals: tuple
    hessian_definite: bool
    iterations: int = 0
    min_step: float = 1.0
    merit_history: tuple = ()


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
        inv = _pair_differences(v)
        np.reciprocal(inv, out=inv)
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
    if n > 1:
        # one N x N buffer: the pair differences become -2/(l_i - l_j)^2 in place
        h = _pair_differences(v)
        h *= h
        np.reciprocal(h, out=h)
        np.fill_diagonal(h, 0.0)
        row = h.sum(axis=1)
        h *= -2.0
        np.fill_diagonal(h, 2.0 * row)
    else:
        h = np.zeros((n, n))
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


def _start_point(dims: BipartitionDims, eta: float) -> np.ndarray:
    """(i - 1/2)/N quantiles of the continuum law, normalized to unit trace:
    Marchenko-Pastur(N/M) for the unbiased gas (N < M here), the semicircle
    at beta = max(eta/N^3, BETA_PLUS) for a balanced purity target."""
    n = dims.n
    if eta > 0.0:
        law = semicircle(max(eta / n**3, BETA_PLUS))
    else:
        law = marchenko_pastur(n / dims.m)
    x = quantiles(law, n)
    return x / x.sum()


def _trace_force(x: np.ndarray, params: EnergyParams) -> tuple[float, np.ndarray]:
    """Trace multiplier xi = -mean(g) and the force r = g + xi left on the
    hyperplane sum lambda = 1; r is the +inf sentinel off-domain or more
    than TRACE_TOL off the hyperplane, a drift that r itself does not see."""
    g = gradient(x, params)
    if not np.all(np.isfinite(g)) or not abs(float(x.sum()) - 1.0) <= TRACE_TOL:
        return 0.0, np.full(x.size, math.inf)
    xi = -float(g.mean())
    return xi, g + xi


def cho_factor(h: np.ndarray):
    """The pair (c, lower) that scipy.linalg.cho_factor returns, from the
    same LAPACK dpotrf call on scipy's compiled module (`core.lapack`, loaded
    on first use); np.linalg.LinAlgError if h is not positive definite.  A
    module attribute so that a test can count the calls."""
    c, info = lapack().dpotrf(h, lower=0, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(f"leading minor {info} is not positive definite")
    return c, False


def _cholesky(h: np.ndarray):
    """Cholesky factor of h if h is finite and positive definite, else None."""
    if not np.all(np.isfinite(h)):
        return None
    try:
        return cho_factor(h)
    except np.linalg.LinAlgError:
        return None


def _diagonally_dominant(h: np.ndarray) -> bool:
    """Whether h is finite and each diagonal entry exceeds the |h_ij| sum of
    the rest of its row by more than the rounding of the row sums, so that h
    is positive definite (Gershgorin)."""
    if not np.all(np.isfinite(h)):
        return False
    row = np.abs(h).sum(axis=1)
    # h_ii - sum_(j != i) |h_ij| = 2 h_ii - row_i; a sum of N non-negative
    # terms is off by at most (N - 1) eps times itself
    margin = h.shape[0] * np.finfo(float).eps * row
    return bool(np.all(2.0 * np.diagonal(h) - row > margin))


def _saddle(dims, interior, eta=0.0, purity_target=None) -> SaddleSolution:
    """One route's solution with the reductions and diagnostics both share.

    N = 1: the only point of the trace hyperplane, lambda = 1, with
    xi = M - 1; the hyperplane leaves no direction to curve along, so the
    Hessian counts as definite.  Balanced dims at eta = 0: one charge sits at
    the origin and the rest solve the (N-1, N+1) problem by the same route,
    whose multiplier, residuals and diagnostics carry over unchanged.
    Otherwise interior(params) returns the spectrum, the trace multiplier,
    whether the Hessian there is positive definite, and the route's Newton
    fields.
    """
    n = dims.n
    if n == 1:
        x, xi, definite, newton = np.array([1.0]), float(dims.alpha), True, {}
    elif dims.balanced and not eta:
        inner = _saddle(BipartitionDims(n - 1, n + 1), interior)
        values = np.append(inner.spectrum.values, 0.0)
        return replace(inner, dims=dims, spectrum=Spectrum.from_values(values))
    else:
        x, xi, definite, newton = interior(EnergyParams(dims, eta=eta))
    residuals = [abs(float(x.sum()) - 1.0)]
    if purity_target is not None:
        residuals.append(abs(float(x @ x) - purity_target))
    return SaddleSolution(
        dims=dims,
        spectrum=Spectrum.from_values(x),
        xi=xi,
        eta=eta,
        max_force_residual=force_residual(x, EnergyParams(dims, eta=eta, xi=xi)),
        constraint_residuals=tuple(residuals),
        hessian_definite=definite,
        **newton,
    )


def _newton(params: EnergyParams):
    """The Newton loop of solve_saddle_numeric, as a route for _saddle.

    Each point that fails the convergence test gets one Hessian and one
    Cholesky factorization, which the step from it solves with; the loop
    stops where the Hessian does not factor.  hessian_definite is
    _diagonally_dominant at the returned point.
    """
    n = params.dims.n
    x = _start_point(params.dims, params.eta)
    xi, r = _trace_force(x, params)
    norm = float(np.linalg.norm(r))
    min_step, merits = 1.0, []
    for _ in range(MAX_ITERATIONS):
        if float(np.max(np.abs(r))) <= 1e-13 * max(abs(xi), 1.0):
            break
        factor = _cholesky(hessian(x, params))
        if factor is None:
            break
        # finite by construction: _cholesky rejects a non-finite Hessian,
        # and r belongs to an accepted point; dpotrs's info flags only an
        # illegal argument
        c, lower = factor
        rhs = np.column_stack((r, np.ones(n)))
        h_r, h_1 = lapack().dpotrs(c, rhs, lower=lower)[0].T
        dx = h_1 * (h_r.sum() / h_1.sum()) - h_r

        step = 1.0
        while step > 1e-14:
            x_try = x + step * dx
            xi_try, r_try = _trace_force(x_try, params)
            norm_try = float(np.linalg.norm(r_try))
            if norm_try < norm:
                x, xi, r, norm = x_try, xi_try, r_try, norm_try
                min_step = min(min_step, step)
                merits.append(norm)
                break
            step *= 0.5
        else:
            break
    newton = {"iterations": len(merits), "min_step": min_step, "merit_history": tuple(merits)}
    return x, xi, _diagonally_dominant(hessian(x, params)), newton


def solve_saddle_numeric(dims, purity_target=None) -> SaddleSolution:
    """Find the interior minimum of the gas by equality-constrained Newton.

    Independent of the polynomial route.  E = F + eta sum lambda^2 is convex
    on the interior (the pair Hessian is a PSD weighted Laplacian, the
    (M-N)/lambda^2 and 2 eta diagonals are non-negative) and strictly convex
    whenever M > N or eta > 0, so its minimum on sum lambda = 1 is the saddle
    point.  Starting at the continuum law's quantiles (_start_point), the
    loop builds and Cholesky-factors the Hessian once per Newton step, takes
    the step projected onto the hyperplane, and halves it until the force
    norm falls (the +inf sentinel of _trace_force rejects trial points off
    the domain, or off the hyperplane by more than TRACE_TOL: an
    ill-conditioned solve can drift the trace, which the force norm does
    not see).  Stops at force residual <= 1e-13 * max(|xi|, 1);
    ConvergenceError if the final residual exceeds
    RESIDUAL_FACTOR * max(|xi|, 1).  hessian_definite is strict diagonal
    dominance of the Hessian at the returned point, with a margin for the
    rounding of its row sums (Gershgorin): the diagonal 2 sum_j
    1/(lambda_i - lambda_j)^2 + (M-N)/lambda_i^2 + 2 eta against the
    off-diagonal sum 2 sum_j 1/(lambda_i - lambda_j)^2.  The solution reports
    the Newton iterations, smallest accepted step and merit history.

    N = 1 and balanced unconstrained dims are reduced as in typical_solution
    (one charge at the origin, the rest solving the (N-1, N+1) problem).

    purity_target is supported for balanced dims only (ValueError otherwise).
    There eta = eta_from_purity(N, target) follows from the gas's force sum
    rules: sum_i g_i = 0 gives xi = -2 eta / N and sum_i lambda_i g_i = 0
    gives xi + 2 eta pi = N(N-1), so the minimum has purity pi = target; the
    purity residual is checked all the same.  Targets outside (1/N, 1] or at
    or beyond the positivity threshold raise FeasibilityError.
    """
    n = dims.n
    eta = 0.0
    if purity_target is not None:
        if not 1.0 / n < purity_target <= 1.0:
            raise FeasibilityError(
                f"purity target {purity_target} outside (1/{n}, 1]"
            )
        if not dims.balanced:
            raise ValueError(
                f"purity targets need balanced dims, got n={n}, m={dims.m}"
            )
        eta = eta_from_purity(n, purity_target)
        if eta <= critical_threshold(n).eta_plus:
            raise FeasibilityError(
                f"no interior fixed-purity solution at n={n}, target={purity_target}"
            )

    sol = _saddle(dims, _newton, eta, purity_target)
    res, worst = sol.max_force_residual, max(sol.constraint_residuals)
    if res > RESIDUAL_FACTOR * max(abs(sol.xi), 1.0) or worst > 1e-10:
        raise ConvergenceError(
            f"saddle solver stalled at force residual {res:.3e}, "
            f"constraint residual {worst:.3e}"
        )
    return sol


def _laguerre(params: EnergyParams):
    """Zeros of L_N^(M-N-1)(N(M-1) x), as a route for _saddle."""
    dims = params.dims
    xi = float(multiplier_xi(dims))
    x = laguerre_zeros(LaguerreSpec(dims.n, float(dims.alpha - 1), xi))
    return x, xi, _diagonally_dominant(hessian(x, params)), {}


def typical_solution(dims: BipartitionDims) -> SaddleSolution:
    """Unbiased typical spectrum by the polynomial route: zeros of
    L_N^(M-N-1)(N(M-1) x), with N = 1 and balanced dims reduced as in
    solve_saddle_numeric."""
    return _saddle(dims, _laguerre)
