"""Large-N equilibrium densities of the rescaled spectrum mu = N*lambda.

Two closed-form families: the shifted semicircle for inverse temperature
beta >= 2 (support 1 +- sqrt(2/beta)) and, at beta = 0, the
Marchenko-Pastur law MP(c) of the unbiased ensemble with ratio c = N/M,
support ((1 - sqrt c)^2, (1 + sqrt c)^2) (the square case c = 1 is (0, 4),
with a hard edge at 0).  The interpolating 0 < beta < 2 branch has no
closed form here and is out of scope.  The inverse temperature beta is the
rescaled stiffness eta / N^3 of the balanced fixed-purity problem
(IsopurityProblem.beta); finite_n_convergence measures how fast its
rescaled spectrum approaches the semicircle.

tricomi_residual checks that each density actually solves its
force-balance equation

    beta*mu + PV integral sigma(l)/(l - mu) dl + zeta/2 = 0.

The principal value subtracts the pole: the bounded quotient
(sigma(l) - sigma(mu))/(l - mu) goes to one adaptive quadrature with mu as
a break point, and the subtracted pole contributes an exact log term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    "quantiles",
    "ks_distance",
    "tricomi_residual",
    "finite_n_convergence",
]

BETA_CRITICAL = 2.0
_QUAD_TARGET = 1e-12
_QUAD_ACCEPT = 1e-9


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
    if not BETA_CRITICAL <= beta < math.inf:
        raise ValueError(
            f"semicircle family needs finite beta >= {BETA_CRITICAL}, got {beta}"
        )
    half_width = math.sqrt(BETA_CRITICAL / beta)
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


def quad(f, a: float, b: float, **kw):
    """scipy.integrate.quad, imported on first use so that `import typent`
    does not load scipy.integrate; a module attribute so that perfbench's
    tracer can wrap it."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(f, a, b, **kw)


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
    """(mass, mean, second moment) by adaptive quadrature.

    Both laws are integrated in the angle of mu = b cos^2(t/2) + a sin^2(t/2),
    where sigma(mu) dmu = (2/pi) sin^2(t) mu^(-p) dt is smooth on [0, pi]:
    p = 1 for MP(c) at every ratio, the hard edge of c = 1 included, and
    p = 0 for the semicircle, whose (b - a)^2/4 is 2/beta.
    """
    a, b = d.support
    p = 0 if d.kind == "semicircle" else 1
    out = []
    for k in range(3):

        def integrand(t: float) -> float:
            mu = b * math.cos(0.5 * t) ** 2 + a * math.sin(0.5 * t) ** 2
            return 2.0 / math.pi * math.sin(t) ** 2 * mu ** (k - p)

        out.append(_quad_checked(integrand, 0.0, math.pi, f"moment {k} of {d.kind}"))
    return out[0], out[1], out[2]


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

    Subtraction form: the quotient (sigma(l) - sigma(mu))/(l - mu) is
    bounded near the pole, so one quadrature with mu as a break point
    integrates it; the subtracted pole adds sigma(mu) * ln((b - mu)/(mu - a)).
    """
    a, b = d.support
    s_mu = density_value(d, mu)

    def h(lam: float) -> float:
        return (density_value(d, lam) - s_mu) / (lam - mu)

    smooth = _quad_checked(h, a, b, f"pv at {mu:.6g}", points=[mu])
    return smooth + s_mu * math.log((b - mu) / (mu - a))


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
