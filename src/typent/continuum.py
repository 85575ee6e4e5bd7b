"""Large-N equilibrium densities of the rescaled spectrum mu = N*lambda.

Two closed-form families: the shifted semicircle for inverse temperature
beta >= 2 (support 1 +- sqrt(2/beta)) and the Marchenko-Pastur law on
(0, 4) for beta = 0.  The interpolating 0 < beta < 2 branch has no closed
form here and is out of scope.  The inverse temperature beta is the
rescaled stiffness eta / N^3 of the balanced fixed-purity problem
(IsopurityProblem.beta); finite_n_convergence measures how fast its
rescaled spectrum approaches the semicircle.

The singular integral machinery checks that each density actually solves
its force-balance equation

    beta*mu + PV integral sigma(l)/(l - mu) dl + zeta/2 = 0,

with the principal value computed by singularity subtraction: an analytic
log term for the subtracted pole plus ordinary adaptive quadrature, and a
small Taylor patch (using the analytic sigma') straddling the pole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import AccuracyError, FeasibilityError
from .fixedpurity import IsopurityProblem, solve_isopurity

__all__ = [
    "ContinuumDensity",
    "ConvergenceRow",
    "semicircle",
    "marchenko_pastur",
    "density_value",
    "density_grid",
    "moments",
    "cdf_value",
    "ks_distance",
    "tricomi_residual",
    "finite_n_convergence",
]

BETA_CRITICAL = 2.0
_QUAD_TARGET = 1e-12
_QUAD_ACCEPT = 1e-9


@dataclass(frozen=True)
class ContinuumDensity:
    kind: str
    beta: float
    support: tuple[float, float]
    rescaled_purity: float


def semicircle(beta: float) -> ContinuumDensity:
    """Semicircle density at inverse temperature beta >= 2."""
    if beta < BETA_CRITICAL:
        raise ValueError(
            f"semicircle family needs beta >= {BETA_CRITICAL}, got {beta}"
        )
    half_width = math.sqrt(BETA_CRITICAL / beta)
    return ContinuumDensity(
        kind="semicircle",
        beta=float(beta),
        support=(1.0 - half_width, 1.0 + half_width),
        rescaled_purity=1.0 + 1.0 / (2.0 * beta),
    )


def marchenko_pastur() -> ContinuumDensity:
    """Square-case Marchenko-Pastur density, the beta = 0 end of the family."""
    return ContinuumDensity(
        kind="marchenko_pastur", beta=0.0, support=(0.0, 4.0), rescaled_purity=2.0
    )


def density_value(d: ContinuumDensity, mu: float) -> float:
    """Density at mu; 0 outside support, +inf at the MP hard edge mu = 0."""
    a, b = d.support
    if d.kind == "semicircle":
        if mu <= a or mu >= b:
            return 0.0
        return d.beta / math.pi * math.sqrt((mu - a) * (b - mu))
    if mu == 0.0:
        return math.inf
    if mu < 0.0 or mu >= 4.0:
        return 0.0
    return math.sqrt((4.0 - mu) / mu) / (2.0 * math.pi)


def _density_slope(d: ContinuumDensity, mu: float) -> float:
    """Analytic sigma'(mu) strictly inside the support."""
    a, b = d.support
    if d.kind == "semicircle":
        return d.beta / math.pi * (a + b - 2.0 * mu) / (2.0 * math.sqrt((mu - a) * (b - mu)))
    return -1.0 / (math.pi * math.sqrt(4.0 - mu) * mu**1.5)


def density_grid(d: ContinuumDensity, points: int = 512) -> tuple[np.ndarray, np.ndarray]:
    """(mu, density) arrays on a uniform grid over the support.

    For MP the left endpoint is inset by half a grid step so the table
    stays finite; the semicircle grid includes both (zero-density) edges.
    """
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    a, b = d.support
    xs = np.linspace(a, b, points)
    if d.kind == "marchenko_pastur":
        xs[0] = a + 0.5 * (b - a) / (points - 1)
    ys = np.array([density_value(d, float(x)) for x in xs])
    return xs, ys


def _quad_checked(f, a: float, b: float, what: str, **kw) -> float:
    val, err = quad(f, a, b, epsabs=_QUAD_TARGET, epsrel=_QUAD_TARGET, limit=200, **kw)
    if err > _QUAD_ACCEPT * max(1.0, abs(val)):
        raise AccuracyError(
            f"quadrature for {what} did not reach target accuracy",
            value=val,
            error_estimate=err,
        )
    return val


def moments(d: ContinuumDensity) -> tuple[float, float, float]:
    """(mass, mean, second moment) by endpoint-weighted adaptive quadrature.

    Both densities are smooth prefactors times algebraic endpoint weights,
    so the integrals are delegated to the weighted rule exactly.
    """
    a, b = d.support
    if d.kind == "semicircle":
        coeff = d.beta / math.pi
        wvar = (0.5, 0.5)
    else:
        coeff = 1.0 / (2.0 * math.pi)
        wvar = (-0.5, 0.5)
    out = []
    for k in range(3):
        out.append(
            _quad_checked(
                lambda x: coeff * x**k,
                a,
                b,
                f"moment {k} of {d.kind}",
                weight="alg",
                wvar=wvar,
            )
        )
    return out[0], out[1], out[2]


def cdf_value(d: ContinuumDensity, x: np.ndarray | float) -> np.ndarray:
    """Closed-form CDF of the density, vectorized and clipped to [0, 1]."""
    x = np.asarray(x, dtype=float)
    a, b = d.support
    if d.kind == "semicircle":
        r = 0.5 * (b - a)
        t = np.clip((x - 1.0) / r, -1.0, 1.0)
        f = 0.5 + (t * np.sqrt(1.0 - t * t) + np.arcsin(t)) / math.pi
    else:
        u = np.arcsin(0.5 * np.sqrt(np.clip(x, 0.0, 4.0)))
        f = (2.0 * u + np.sin(2.0 * u)) / math.pi
    return np.clip(f, 0.0, 1.0)


def ks_distance(values, d: ContinuumDensity) -> float:
    """Kolmogorov sup-distance between an atomic sample and the density."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("ks_distance needs at least one atom")
    f = cdf_value(d, x)
    below = np.arange(0, n) / n
    above = np.arange(1, n + 1) / n
    return float(np.max(np.maximum(np.abs(f - below), np.abs(f - above))))


def _principal_value(d: ContinuumDensity, mu: float) -> float:
    """PV integral of sigma(l)/(l - mu) over the support, mu strictly inside.

    Subtraction form: integrate (sigma(l) - sigma(mu))/(l - mu) with a
    Taylor patch of half-width delta around the pole, then add the exact
    sigma(mu) * ln((b - mu)/(mu - a)) term from the subtracted pole.
    """
    a, b = d.support
    s_mu = density_value(d, mu)

    def h(lam: float) -> float:
        return (density_value(d, lam) - s_mu) / (lam - mu)

    gap = min(mu - a, b - mu)
    delta = min(1e-4, 0.25 * gap)
    left = _quad_checked(h, a, mu - delta, f"pv left of {mu:.6g}")
    right = _quad_checked(h, mu + delta, b, f"pv right of {mu:.6g}")
    patch = 2.0 * delta * _density_slope(d, mu)
    log_term = s_mu * math.log((b - mu) / (mu - a))
    return left + right + patch + log_term


def tricomi_residual(d: ContinuumDensity, grid) -> float:
    """Max residual of the force-balance equation over interior grid points.

    Semicircle: the trace multiplier zeta is read off at the support
    midpoint, so the residual is the spread of beta*mu + PV(mu) across the
    grid.  MP: beta = 0 and PV must equal -1/2 identically, so the residual
    is measured against that constant.
    """
    a, b = d.support
    pts = np.asarray(grid, dtype=float)
    if pts.size == 0:
        raise ValueError("grid must contain at least one point")
    if np.any(pts <= a) or np.any(pts >= b):
        raise ValueError("grid points must lie strictly inside the support")
    if d.kind == "semicircle":
        anchor = d.beta * 1.0 + _principal_value(d, 1.0)
        worst = 0.0
        for mu in pts:
            t = d.beta * mu + _principal_value(d, float(mu))
            worst = max(worst, abs(t - anchor))
        return worst
    worst = 0.0
    for mu in pts:
        worst = max(worst, abs(_principal_value(d, float(mu)) + 0.5))
    return worst


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    ks_distance: float


def finite_n_convergence(n_list, beta: float) -> list[ConvergenceRow]:
    """KS distance of the rescaled fixed-purity spectrum to the semicircle,
    one row per n, at stiffness eta = beta * n^3."""
    if beta < BETA_CRITICAL:
        raise ValueError(f"beta must be >= {BETA_CRITICAL}, got {beta}")
    ns = [int(v) for v in n_list]
    if ns != sorted(ns) or len(set(ns)) != len(ns):
        raise ValueError("n_list must be strictly ascending")
    d = semicircle(beta)
    rows = []
    for n in ns:
        sol = solve_isopurity(IsopurityProblem.from_eta(n, beta * n**3))
        if not sol.feasible:
            raise FeasibilityError(f"eta = {beta}*{n}^3 is below threshold")
        rows.append(ConvergenceRow(n=n, ks_distance=ks_distance(n * sol.values, d)))
    return rows
