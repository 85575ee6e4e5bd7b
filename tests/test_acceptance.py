"""End-to-end acceptance gates for the package.

One test per gate, in a fixed order, so `pytest -v tests/test_acceptance.py`
prints one pass/fail line per gate. Tolerances and runtime budgets are part
of the gate definitions; timed gates measure wall-clock around the whole
computation they cover.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from typent.closedform import (
    invariant_s_exact,
    mean_moments,
    trace_inverse_exact,
    typical_purity_multiplier_exact,
    typical_quantities,
)
from typent.continuum import (
    finite_n_convergence,
    ks_distance,
    marchenko_pastur,
    moments,
    semicircle,
    tricomi_residual,
)
from typent.core import BipartitionDims
from typent.coulomb import (
    EnergyParams,
    energy,
    gradient,
    hessian,
    multiplier_xi,
    solve_saddle_numeric,
    typical_solution,
)
from typent.fixedpurity import (
    IsopurityProblem,
    critical_threshold,
    eta_from_purity,
    purity_from_eta,
    solve_isopurity,
)
from typent.orthopoly import (
    HermiteSpec,
    LaguerreSpec,
    hermite_zeros,
    laguerre_zeros,
)
from typent.sampler import SamplerConfig, estimate_many, rescaled_eigenvalues


def test_01_typical_two_by_three_three_route_agreement():
    t0 = time.perf_counter()
    dims = BipartitionDims(2, 3)
    target = np.array([(2.0 + math.sqrt(2.0)) / 4.0, (2.0 - math.sqrt(2.0)) / 4.0])

    zeros = laguerre_zeros(LaguerreSpec(degree=2, order=0, scale=4.0))[::-1]
    assert np.max(np.abs(zeros - target)) <= 1e-9

    numeric = solve_saddle_numeric(dims)
    assert np.max(np.abs(numeric.spectrum.values - target)) <= 1e-9

    closed = typical_solution(dims)
    assert np.max(np.abs(closed.spectrum.values - target)) <= 1e-9

    assert multiplier_xi(dims) == 4
    assert abs(numeric.xi - 4.0) <= 1e-8

    assert typical_quantities(dims).purity == 0.75
    assert typical_purity_multiplier_exact(2, 3) == Fraction(3, 4)

    assert time.perf_counter() - t0 < 1.0


def test_02_multiplier_law_sweep():
    t0 = time.perf_counter()
    for n in range(2, 12):
        for m in range(n + 1, 13):
            fitted = solve_saddle_numeric(BipartitionDims(n, m)).xi
            exact = n * (m - 1)
            assert abs(fitted - exact) <= 1e-8 * exact, (n, m, fitted)
    assert time.perf_counter() - t0 < 30.0


def test_03_exact_rational_identities_and_inverse_trace():
    for m in range(3, 51):
        for n in range(2, m):
            purity = 1 - 2 * invariant_s_exact(n, m, 2)
            assert purity == Fraction(n + m - 2, n * (m - 1))
            assert trace_inverse_exact(n, m) == Fraction(n * n * (m - 1), m - n)

    for n, m in [(2, 3), (3, 7), (5, 20), (10, 50), (24, 25)]:
        xi = n * (m - 1)
        zeros = laguerre_zeros(LaguerreSpec(degree=n, order=m - n - 1, scale=xi))
        got = float(np.sum(1.0 / zeros))
        want = float(trace_inverse_exact(n, m))
        assert abs(got - want) <= 1e-8 * want, (n, m)


def test_04_desk_scale_ensemble_means():
    t0 = time.perf_counter()
    dims = BipartitionDims(2, 2)
    cfg = SamplerConfig(dims, sample_count=100_000, seed=20260817)
    got = estimate_many(cfg, ["purity", "entropy", "det", "lambda_variance"])
    targets = {
        "purity": 0.8,
        "entropy": 1.0 / 3.0,
        "det": 0.1,
        "lambda_variance": 0.15,
    }
    for name, target in targets.items():
        est = got[name]
        assert abs(est.mean - target) <= 3.0 * est.std_error, (
            name,
            est.mean,
            est.std_error,
        )
    assert time.perf_counter() - t0 < 60.0


def test_05_fixed_purity_worked_example_and_oracle():
    sol = solve_isopurity(IsopurityProblem.from_eta(2, 8.0))
    assert sol.spectrum.values[0] == 0.75
    assert sol.spectrum.values[1] == 0.25

    checked = 0
    for n in range(2, 11):
        top = purity_from_eta(n, critical_threshold(n).eta_plus)
        for f in (0.25, 0.55, 0.85):
            purity = 1.0 / n + f * (top - 1.0 / n)
            eta = eta_from_purity(n, purity)
            assert purity_from_eta(n, eta) == pytest.approx(purity, rel=1e-14)
            assert eta_from_purity(n, purity_from_eta(n, eta)) == pytest.approx(
                eta, rel=1e-14
            )
            hermite = solve_isopurity(IsopurityProblem.from_eta(n, eta))
            assert hermite.feasible
            numeric = solve_saddle_numeric(
                BipartitionDims(n, n), purity_target=purity
            )
            assert np.max(
                np.abs(numeric.spectrum.values - hermite.spectrum.values)
            ) <= 1e-9, (n, purity)
            checked += 1
    assert checked >= 20


def test_06_criticality_threshold_large_n():
    t0 = time.perf_counter()
    crit = critical_threshold(200)
    assert crit.beta_plus == 2.0
    assert crit.purity_critical == pytest.approx(5.0 / (4.0 * 200))
    assert abs(crit.eta_plus / 200**3 - 2.0) <= 0.1 * 2.0

    # independent route to the same constant: the smallest raw Hermite zero
    # scales like -sqrt(2 n), and the threshold is its square over n
    h_min = hermite_zeros(HermiteSpec(degree=200, shift=0.0, scale=1.0))[0]
    scaled = h_min / math.sqrt(200)
    assert abs(scaled + math.sqrt(2.0)) <= 0.1 * math.sqrt(2.0)
    assert crit.eta_plus / 200**3 == pytest.approx(scaled**2, rel=1e-2)
    assert time.perf_counter() - t0 < 30.0


def test_07_continuum_moments_and_singular_equation():
    for beta in (2.0, 4.0, 10.0):
        mass, mean, second = moments(semicircle(beta))
        assert abs(mass - 1.0) <= 1e-8
        assert abs(mean - 1.0) <= 1e-8
        assert abs(second - (1.0 + 1.0 / (2.0 * beta))) <= 1e-8

    mass, mean, second = moments(marchenko_pastur())
    assert abs(mass - 1.0) <= 1e-8
    assert abs(mean - 1.0) <= 1e-8
    assert abs(second - 2.0) <= 1e-8

    for d in (semicircle(2.0), semicircle(10.0)):
        a, b = d.support
        grid = np.linspace(a + 0.04 * (b - a), b - 0.04 * (b - a), 21)
        assert tricomi_residual(d, grid) <= 1e-6
    assert tricomi_residual(marchenko_pastur(), np.linspace(0.1, 3.9, 21)) <= 1e-6


def test_singular_equation_holds_near_the_support_edges():
    """The force balance of gate 07 on grids reaching 0.1 % from the edges."""
    for d in (semicircle(2.0), semicircle(10.0)):
        a, b = d.support
        grid = np.linspace(a + 0.001 * (b - a), b - 0.001 * (b - a), 21)
        assert tricomi_residual(d, grid) <= 1e-6
    assert tricomi_residual(marchenko_pastur(), np.linspace(0.001, 3.999, 21)) <= 1e-6


def test_08_hermite_to_semicircle_convergence():
    t0 = time.perf_counter()
    rows = finite_n_convergence([32, 64, 128, 256], 2.0)
    ks = [r.ks_distance for r in rows]
    assert ks[0] > ks[1] > ks[2] > ks[3]
    assert ks[3] < 0.05
    assert time.perf_counter() - t0 < 60.0


def test_09_sampler_to_marchenko_pastur():
    t0 = time.perf_counter()
    dims = BipartitionDims(64, 64)
    cfg = SamplerConfig(dims, sample_count=10_000, seed=7)
    mu = rescaled_eigenvalues(cfg)
    assert ks_distance(mu, marchenko_pastur()) < 0.08

    purity = estimate_many(cfg, ["purity"])["purity"].mean
    assert abs(64.0 * purity - 2.0) <= 0.05 * 2.0
    assert time.perf_counter() - t0 < 300.0


def test_10_derivative_finite_difference_agreement():
    rng = np.random.default_rng(20260817)

    def interior_point(n):
        while True:
            raw = rng.dirichlet(np.full(n, 5.0))
            srt = np.sort(raw)
            if srt[0] > 1e-3 and np.min(np.diff(srt)) > 1e-3:
                return raw

    for _ in range(100):
        n = int(rng.integers(2, 9))
        m = n + int(rng.integers(0, 5))
        params = EnergyParams(
            BipartitionDims(n, m),
            eta=float(rng.uniform(0.0, 4.0)),
            xi=float(rng.normal(0.0, 3.0)),
        )
        v = interior_point(n)

        g = gradient(v, params)
        step = 1e-6
        for i in range(n):
            e = np.zeros(n)
            e[i] = step
            fd = (energy(v + e, params) - energy(v - e, params)) / (2.0 * step)
            assert abs(fd - g[i]) <= 1e-5 * max(1.0, abs(g[i]))

        h = hessian(v, params)
        for j in range(n):
            e = np.zeros(n)
            e[j] = step
            fd_col = (gradient(v + e, params) - gradient(v - e, params)) / (
                2.0 * step
            )
            scale = np.maximum(1.0, np.abs(h[:, j]))
            assert np.all(np.abs(fd_col - h[:, j]) <= 1e-4 * scale)


def test_11_catalan_trace_table():
    dims = BipartitionDims(64, 64)
    cfg = SamplerConfig(dims, sample_count=10_000, seed=99)
    names = [f"trace_power({k})" for k in range(2, 6)]
    got = estimate_many(cfg, names)
    catalan = {2: 2.0, 3: 5.0, 4: 14.0, 5: 42.0}
    for k in range(2, 6):
        scaled = 64.0 ** (k - 1) * got[f"trace_power({k})"].mean
        assert abs(scaled - catalan[k]) <= 0.10 * catalan[k], (k, scaled)
