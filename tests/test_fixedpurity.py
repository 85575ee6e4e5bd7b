import math

import numpy as np
import pytest

from typent.core import BipartitionDims
from typent.coulomb import solve_saddle_numeric
from typent.errors import FeasibilityError
from typent.fixedpurity import (
    IsopurityProblem,
    critical_threshold,
    eta_from_purity,
    multiplier_relation_check,
    position_variance,
    purity_from_eta,
    solve_isopurity,
    threshold_scan,
)


def test_eta_purity_round_trips():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        purity = rng.uniform(1.0 / n + 1e-6, 1.0)
        eta = eta_from_purity(n, purity)
        assert purity_from_eta(n, eta) == pytest.approx(purity, abs=1e-14)
    for _ in range(50):
        # the eta direction loses precision once n*pi - 1 underflows
        # relative to 1, so keep eta where 1e-12 is honest
        n = int(rng.integers(2, 40))
        eta = rng.uniform(0.5 * n * n, 10.0 * n * n)
        assert eta_from_purity(n, purity_from_eta(n, eta)) == pytest.approx(
            eta, rel=1e-12
        )


def test_worked_example_two_levels():
    problem = IsopurityProblem.from_purity(2, 0.625)
    assert problem.eta == pytest.approx(8.0, rel=1e-14)
    assert problem.beta == pytest.approx(1.0)
    assert problem.xi == pytest.approx(-8.0)
    sol = solve_isopurity(problem)
    assert sol.feasible
    assert sol.spectrum.values == pytest.approx([0.75, 0.25], abs=1e-14)


def test_input_validation():
    with pytest.raises(ValueError):
        eta_from_purity(1, 0.9)
    with pytest.raises(ValueError):
        eta_from_purity(2, 0.5)
    with pytest.raises(ValueError):
        eta_from_purity(2, 1.0 + 1e-9)
    with pytest.raises(ValueError):
        purity_from_eta(2, 0.0)
    with pytest.raises(ValueError):
        IsopurityProblem(n=2, eta=-1.0, purity_target=0.6)
    with pytest.raises(ValueError):
        IsopurityProblem(n=1, eta=4.0, purity_target=1.0)


def test_purity_from_eta_is_decreasing():
    for n in (2, 5, 17):
        etas = np.geomspace(0.5, 1e5, 40)
        vals = [purity_from_eta(n, e) for e in etas]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 1.0 / n


def test_min_eigenvalue_increases_with_eta():
    # squeezing the gas raises the smallest position
    for n in (3, 6):
        problems = [IsopurityProblem.from_eta(n, e) for e in np.geomspace(20, 2e4, 12) * n]
        mins = [solve_isopurity(p).min_eigenvalue for p in problems]
        assert all(a < b for a, b in zip(mins, mins[1:]))


def test_solution_invariants():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        eta = float(rng.uniform(2.0, 50.0)) * n * n * n
        problem = IsopurityProblem.from_eta(n, eta)
        sol = solve_isopurity(problem)
        if not sol.feasible:
            continue
        v = sol.spectrum.values
        assert abs(v.sum() - 1.0) <= 1e-12
        assert abs(float(v @ v) - purity_from_eta(n, eta)) <= 1e-10
        assert sol.min_eigenvalue == pytest.approx(v[-1], abs=1e-15)
        assert sol.purity_residual <= 1e-10


def test_matches_numeric_constrained_solver():
    for n, purity in [(2, 0.7), (3, 0.5), (4, 0.4), (6, 0.3)]:
        problem = IsopurityProblem.from_purity(n, purity)
        sol = solve_isopurity(problem)
        if not sol.feasible:
            continue
        numeric = solve_saddle_numeric(BipartitionDims(n, n), purity_target=purity)
        assert sol.spectrum.values == pytest.approx(
            numeric.spectrum.values, abs=1e-9
        )


def test_infeasible_solution_raises_on_spectrum_access():
    problem = IsopurityProblem.from_purity(5, 0.95)
    sol = solve_isopurity(problem)
    assert not sol.feasible
    assert sol.min_eigenvalue < 0.0
    with pytest.raises(FeasibilityError):
        _ = sol.spectrum


def test_critical_threshold_two_levels():
    crit = critical_threshold(2)
    # eta_plus = 2 exactly: the shifted root h = -1/sqrt(2 eta) hits zero scale
    assert crit.eta_plus == pytest.approx(2.0, abs=1e-8)
    assert crit.beta_plus == 2.0
    assert crit.purity_critical == pytest.approx(5.0 / 8.0)
    assert crit.beta_plus_finite == pytest.approx(crit.eta_plus / 8.0, rel=1e-12)


def test_critical_threshold_closed_form_matches_bisection():
    # values of the bisection on the smallest mapped zero that the closed
    # form eta_plus = (n h_min)^2 replaced
    assert critical_threshold(64).eta_plus == pytest.approx(453833.80560722237, rel=1e-12)
    assert critical_threshold(200).eta_plus == pytest.approx(14960261.561572518, rel=1e-12)
    assert critical_threshold(2).eta_plus == pytest.approx(2.0, rel=1e-14, abs=0.0)


def test_critical_threshold_consistency():
    for n in (3, 5, 9):
        crit = critical_threshold(n)
        assert crit.eta_plus >= n * n / 2.0
        assert crit.purity_critical == pytest.approx(5.0 / (4.0 * n))
        assert crit.purity_plus_finite == pytest.approx(
            purity_from_eta(n, crit.eta_plus), rel=1e-10
        )
        at = solve_isopurity(IsopurityProblem.from_eta(n, crit.eta_plus * (1 + 1e-6)))
        below = solve_isopurity(IsopurityProblem.from_eta(n, crit.eta_plus * (1 - 1e-6)))
        assert at.feasible
        assert not below.feasible


def test_multiplier_relation_holds():
    for n, purity in [(3, 0.4), (2, 0.625), (7, 0.16)]:
        problem = IsopurityProblem.from_purity(n, purity)
        report = multiplier_relation_check(problem, solve_isopurity(problem))
        assert report.ok
        assert report.sum_rule_residual <= report.tolerance
        assert report.force_residual <= report.tolerance


def test_multiplier_relation_infeasible_raises():
    problem = IsopurityProblem.from_purity(6, 0.9)
    with pytest.raises(FeasibilityError):
        multiplier_relation_check(problem, solve_isopurity(problem))


def test_position_variance_identity():
    for n, purity in [(2, 0.625), (4, 0.3)]:
        problem = IsopurityProblem.from_purity(n, purity)
        sol = solve_isopurity(problem)
        v = sol.spectrum.values
        empirical = float(np.mean((v - 1.0 / n) ** 2))
        assert position_variance(n, purity) == pytest.approx(empirical, rel=1e-10)


def test_threshold_scan_rows():
    n = 4
    crit = critical_threshold(n)
    rows = threshold_scan(n, np.linspace(crit.eta_plus * 0.5, crit.eta_plus * 2.0, 9))
    assert len(rows) == 9
    etas = [r.eta for r in rows]
    assert etas == sorted(etas)
    for r in rows:
        assert r.n == n
        assert r.beta == pytest.approx(r.eta / n**3, rel=1e-12)
        assert r.purity == pytest.approx(purity_from_eta(n, r.eta), rel=1e-12)
        assert r.feasible == (r.min_eigenvalue >= 0.0)
        assert r.feasible == (r.eta >= crit.eta_plus * (1 - 1e-9))


def test_scaled_threshold_approaches_two():
    crit = critical_threshold(64)
    assert crit.eta_plus / 64**3 == pytest.approx(2.0, rel=0.2)
