"""Large-N equilibrium densities of the rescaled spectrum mu = N*lambda.

Two closed-form families: the shifted semicircle for inverse temperature
beta >= 2 (support 1 +- sqrt(2/beta)) and, at beta = 0, the
Marchenko-Pastur law MP(c) of the unbiased ensemble with ratio c = N/M,
support ((1 - sqrt c)^2, (1 + sqrt c)^2) (the square case c = 1 is (0, 4),
with a hard edge at 0).  The interpolating 0 < beta < 2 branch is not
implemented here.  The inverse temperature beta is the
rescaled stiffness eta / N^3 of the balanced fixed-purity problem
(IsopurityProblem.beta); finite_n_convergence measures how fast its
rescaled spectrum approaches the semicircle.

tricomi_residual checks that each density actually solves its
force-balance equation

    beta*mu + PV integral sigma(l)/(l - mu) dl + zeta/2 = 0.

Moments and principal value use one fixed midpoint (Gauss-Chebyshev) rule
in the angle t of mu = (a+b)/2 + (b-a)/2 cos t; the principal value adds
the subtracted pole's part, Glauert's integral, in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, FeasibilityError
from .fixedpurity import BETA_PLUS, IsopurityProblem, solve_isopurity

__all__ = [
    "ContinuumDensity",
    "ConvergenceRow",
    "semicircle",
    "marchenko_pastur",
    "density_value",
    "density_grid",
    "moments",
    "cdf_value",
    "quantiles",
    "ks_distance",
    "tricomi_residual",
    "finite_n_convergence",
]

_NODES = 16
_MAX_NODES = 2**20


@dataclass(frozen=True)
class ContinuumDensity:
    """A continuum law; ratio is c = N/M for Marchenko-Pastur and 1 for the
    (balanced) semicircle family."""

    kind: str
    beta: float
    support: tuple[float, float]
    rescaled_purity: float
    ratio: float = 1.0


def semicircle(beta: float) -> ContinuumDensity:
    """Semicircle density at finite inverse temperature beta >= 2."""
    if not BETA_PLUS <= beta < math.inf:
        raise ValueError(
            f"semicircle family needs finite beta >= {BETA_PLUS}, got {beta}"
        )
    half_width = math.sqrt(BETA_PLUS / beta)
    a, b = 1.0 - half_width, 1.0 + half_width
    if not a < 1.0 < b:
        raise ValueError(
            f"semicircle support 1 +- {half_width:.3g} rounds to the point 1 at beta = {beta}"
        )
    return ContinuumDensity(
        kind="semicircle",
        beta=float(beta),
        support=(a, b),
        rescaled_purity=1.0 + 1.0 / (2.0 * beta),
    )


def marchenko_pastur(ratio: float = 1.0) -> ContinuumDensity:
    """Marchenko-Pastur density MP(c), c = N/M in (0, 1], the beta = 0 end of
    the family: sqrt((b - mu)(mu - a)) / (2 pi c mu) on (a, b) =
    ((1 - sqrt c)^2, (1 + sqrt c)^2), mean 1, second moment 1 + c."""
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"Marchenko-Pastur ratio must lie in (0, 1], got {ratio}")
    root = math.sqrt(ratio)
    return ContinuumDensity(
        kind="marchenko_pastur",
        beta=0.0,
        support=((1.0 - root) ** 2, (1.0 + root) ** 2),
        rescaled_purity=1.0 + ratio,
        ratio=float(ratio),
    )


def density_value(d: ContinuumDensity, mu: float) -> float:
    """Density at mu; 0 outside support, +inf at the MP(1) hard edge mu = 0."""
    a, b = d.support
    if d.kind == "semicircle":
        if mu <= a or mu >= b:
            return 0.0
        return d.beta / math.pi * math.sqrt((mu - a) * (b - mu))
    if mu == a == 0.0:
        return math.inf
    if mu <= a or mu >= b:
        return 0.0
    # (mu - a)/mu is exactly 1 at c = 1, so MP(1) keeps sqrt((4 - mu)/mu)/(2 pi)
    return math.sqrt((b - mu) / mu * ((mu - a) / mu)) / (2.0 * math.pi * d.ratio)


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


def _angle_rule(d: ContinuumDensity, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint nodes t_j = (j + 1/2) pi/n, each of weight pi/n, and mu at
    each, written b cos^2(t/2) + a sin^2(t/2) to stay accurate near mu = 0."""
    a, b = d.support
    t = (np.arange(n) + 0.5) * (math.pi / n)
    return t, b * np.cos(0.5 * t) ** 2 + a * np.sin(0.5 * t) ** 2


def moments(d: ContinuumDensity) -> tuple[float, float, float]:
    """(mass, mean, second moment) by the midpoint rule in the angle t.

    sigma(mu) dmu = (2/pi) sin^2(t) mu^(-p) dt, with p = 0 for the semicircle
    (whose (b - a)^2/4 is 2/beta) and 1 for MP(c).  That is a trig polynomial
    of degree <= 4, exact on _NODES nodes, except at c < 1, where the rule
    aliases the cos 2nt term, of size c^n/(1-c), of 1/mu: so n = ln(eps
    (1-c)/2)/ln c (43623 at c = 0.999), and AccuracyError before any
    allocation when n exceeds _MAX_NODES.
    """
    c, p = d.ratio, int(d.kind != "semicircle")
    n = _NODES
    if c < 1.0:
        n = max(n, math.ceil(math.log(np.finfo(float).eps * (1.0 - c) / 2.0) / math.log(c)))
    if n > _MAX_NODES:
        raise AccuracyError(f"MP ratio {c!r} needs {n} moment nodes, over the cap {_MAX_NODES}")
    t, mu = _angle_rule(d, n)
    weights = 2.0 / n * np.sin(t) ** 2
    return tuple(math.fsum(weights * mu ** (k - p)) for k in range(3))


def cdf_value(d: ContinuumDensity, x: np.ndarray | float) -> np.ndarray:
    """Closed-form CDF of the density, vectorized and clipped to [0, 1].

    MP(c): with mu = 1 + c + 2 sqrt(c) cos t, F = (2/pi) int_t^pi
    sin^2 / (1 + c + 2 sqrt(c) cos) integrates to

        F = [2(1+c) atan2(q, s) + s q - 2(1-c) atan2(q, k s)] / (2 pi c),

    with s = sqrt(b - mu), q = sqrt(mu - a) and k = (1 - sqrt c)/(1 + sqrt c);
    at c = 1 the last term vanishes.
    """
    x = np.asarray(x, dtype=float)
    a, b = d.support
    if d.kind == "semicircle":
        r = 0.5 * (b - a)
        t = np.clip((x - 1.0) / r, -1.0, 1.0)
        f = 0.5 + (t * np.sqrt(1.0 - t * t) + np.arcsin(t)) / math.pi
    else:
        c = d.ratio
        x = np.clip(x, a, b)
        s, q = np.sqrt(b - x), np.sqrt(x - a)
        k = (1.0 - math.sqrt(c)) / (1.0 + math.sqrt(c))
        f = (
            2.0 * (1.0 + c) * np.arctan2(q, s)
            + s * q
            - 2.0 * (1.0 - c) * np.arctan2(q, k * s)
        ) / (2.0 * math.pi * c)
    return np.clip(f, 0.0, 1.0)


def quantiles(d: ContinuumDensity, n: int) -> np.ndarray:
    """The n points with cdf = (i - 1/2)/n, i = 1..n, ascending.

    Vectorized bisection on cdf_value over the support, run until every
    bracket is down to adjacent floats.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    p = (np.arange(n) + 0.5) / n
    a, b = d.support
    lo, hi = np.full(n, a), np.full(n, b)
    while True:
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            return mid
        below = cdf_value(d, mid) < p
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)


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

    With sigma = sin t p(t) and mu at angle phi, subtracting p(phi) leaves
    Glauert's integral and a bounded quotient:

        PV = -pi cos(phi) p(phi)
             + int_0^pi sin^2 t (p(t) - p(phi))/(cos t - cos phi) dt.

    p = density_value/sin t.  The quotient is 0 for the semicircle and
    -2 sin^2(t/2)/(pi mu) for MP(1), exact on _NODES nodes; more nodes would
    only bring the end ones nearer the MP(1) hard edge, where sigma/sin t
    loses digits.  Of the _NODES and _NODES + 1 rules, which share no node,
    the one whose nearest node is farther from phi is used: no 0/0.
    """
    a, b = d.support
    r = 0.5 * (b - a)
    cos_phi = (mu - 0.5 * (a + b)) / r
    p_phi = density_value(d, mu) * r / math.sqrt((mu - a) * (b - mu))
    phi_pi = math.acos(cos_phi) / math.pi
    n = max(_NODES, _NODES + 1, key=lambda k: abs(phi_pi * k % 1.0 - 0.5) / k)
    t, lam = _angle_rule(d, n)
    p = np.array([density_value(d, float(x)) for x in lam]) / np.sin(t)
    quotient = np.sin(t) ** 2 * (p - p_phi) * r / (lam - mu)
    return -math.pi * cos_phi * p_phi + math.pi / n * math.fsum(quotient)


def tricomi_residual(d: ContinuumDensity, grid) -> float:
    """Max residual of the force-balance equation over interior grid points.

    Semicircle: the trace multiplier zeta is read off at the support
    midpoint, so the residual is the spread of beta*mu + PV(mu) across the
    grid.  MP(1): beta = 0 and PV must equal -1/2 identically, so the
    residual is measured against that constant.  MP(c < 1) feels the extra
    (M - N) log potential, which this equation omits (ValueError).
    """
    if d.kind == "marchenko_pastur" and d.ratio != 1.0:
        raise ValueError(f"tricomi_residual needs ratio 1, got {d.ratio}")
    a, b = d.support
    pts = np.asarray(grid, dtype=float)
    if pts.size == 0:
        raise ValueError("grid must contain at least one point")
    if np.any(pts <= a) or np.any(pts >= b):
        raise ValueError("grid points must lie strictly inside the support")
    anchor = d.beta + _principal_value(d, 1.0) if d.kind == "semicircle" else -0.5
    return max(abs(d.beta * mu + _principal_value(d, mu) - anchor) for mu in pts.tolist())


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    ks_distance: float


def finite_n_convergence(n_list, beta: float) -> list[ConvergenceRow]:
    """KS distance of the rescaled fixed-purity spectrum to the semicircle,
    one row per n, at stiffness eta = beta * n^3."""
    d = semicircle(beta)
    ns = [int(v) for v in n_list]
    if ns != sorted(ns) or len(set(ns)) != len(ns):
        raise ValueError("n_list must be strictly ascending")
    rows = []
    for n in ns:
        sol = solve_isopurity(IsopurityProblem.from_eta(n, beta * n**3))
        if not sol.feasible:
            raise FeasibilityError(f"eta = {beta}*{n}^3 is below threshold")
        rows.append(ConvergenceRow(n=n, ks_distance=ks_distance(n * sol.values, d)))
    return rows
