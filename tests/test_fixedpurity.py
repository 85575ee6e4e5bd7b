import numpy as np
import pytest

from typent import fixedpurity
from typent.core import BipartitionDims
from typent.coulomb import EnergyParams, force_residual, solve_saddle_numeric
from typent.errors import FeasibilityError
from typent.fixedpurity import (
    IsopurityProblem,
    critical_threshold,
    eta_from_purity,
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
    # the Hermite route is a stationary point of the Coulomb-gas energy at
    # the problem's own multipliers, which obey xi + 2 eta pi = N(N-1)
    for n, purity in [(3, 0.4), (2, 0.625), (7, 0.16)]:
        problem = IsopurityProblem.from_purity(n, purity)
        v = solve_isopurity(problem).spectrum.values
        tol = 1e-8 * max(abs(problem.xi), 1.0)
        sum_rule = problem.xi + 2.0 * problem.eta * float(v @ v) - n * (n - 1)
        assert abs(sum_rule) <= tol
        params = EnergyParams(problem.dims, eta=problem.eta, xi=problem.xi)
        assert force_residual(v, params) <= tol


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


def test_threshold_scan_solves_hermite_once(monkeypatch):
    calls = []
    real = fixedpurity.hermite_zeros

    def counting(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(fixedpurity, "hermite_zeros", counting)
    n = 16
    etas = np.linspace(200.0, 6000.0, 40)
    rows = threshold_scan(n, etas)
    assert len(rows) == 40
    assert len(calls) == 1
    monkeypatch.undo()
    for eta, row in zip(etas, rows):
        sol = solve_isopurity(IsopurityProblem.from_eta(n, float(eta)))
        assert row.min_eigenvalue == sol.min_eigenvalue
        assert row.feasible == sol.feasible


def test_scaled_threshold_approaches_two():
    crit = critical_threshold(64)
    assert crit.eta_plus / 64**3 == pytest.approx(2.0, rel=0.2)
