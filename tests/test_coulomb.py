import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from typent import coulomb
from typent.core import BipartitionDims
from typent.coulomb import (
    EnergyParams,
    energy,
    force_residual,
    gradient,
    hessian,
    multiplier_xi,
    solve_saddle_numeric,
    typical_solution,
)
from typent.errors import ConvergenceError, FeasibilityError
from typent.fixedpurity import (
    IsopurityProblem,
    critical_threshold,
    purity_from_eta,
    solve_isopurity,
)
from typent.orthopoly import LaguerreSpec, laguerre_zeros


def _interior_point(rng, n):
    """Random strictly interior simplex point with separated entries."""
    while True:
        raw = rng.dirichlet(np.full(n, 5.0))
        if raw.min() > 1e-3 and np.min(np.diff(np.sort(raw))) > 1e-4:
            return raw


def test_energy_small_case_value():
    params = EnergyParams(BipartitionDims(2, 3))
    # -2 ln(1/2) - (ln 3/4 + ln 1/4), frozen
    assert energy([0.75, 0.25], params) == pytest.approx(
        3.0602707946915624, rel=1e-14
    )


@pytest.mark.parametrize("eta", [-1.0, math.nan, math.inf, -math.inf])
def test_energy_params_reject_negative_or_non_finite_eta(eta):
    with pytest.raises(ValueError):
        EnergyParams(BipartitionDims(2, 3), eta=eta)


def test_energy_is_nonnegative_on_random_interior_points():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = n + int(rng.integers(0, 5))
        v = _interior_point(rng, n)
        assert energy(v, EnergyParams(BipartitionDims(n, m))) >= 0.0


def test_energy_sentinels():
    params = EnergyParams(BipartitionDims(2, 4))
    assert energy([0.5, 0.5], params) == math.inf
    assert energy([1.0, 0.0], params) == math.inf
    assert np.all(np.isinf(gradient([0.5, 0.5], params)))


def test_gradient_vanishes_at_laguerre_zeros():
    for n, m in [(2, 3), (3, 5), (4, 9), (6, 12)]:
        xi = n * (m - 1)
        zeros = laguerre_zeros(LaguerreSpec(degree=n, order=m - n - 1, scale=xi))
        params = EnergyParams(BipartitionDims(n, m), eta=0.0, xi=xi)
        assert force_residual(zeros, params) <= 1e-10


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    params_cache = {}
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 9))
        m = n + int(rng.integers(1, 5))
        v = _interior_point(rng, n)
        key = (n, m)
        if key not in params_cache:
            params_cache[key] = EnergyParams(
                BipartitionDims(n, m), eta=rng.uniform(0.0, 3.0), xi=rng.normal()
            )
        params = params_cache[key]
        g = gradient(v, params)
        step = 1e-6
        for i in range(n):
            e = np.zeros(n)
            e[i] = step
            fd = (energy(v + e, params) - energy(v - e, params)) / (2 * step)
            assert abs(fd - g[i]) <= 1e-5 * max(1.0, abs(g[i]))
        checked += 1


def test_hessian_matches_finite_differences_of_gradient():
    """Central differences of the gradient arbitrate the off-diagonal
    curvature: the pair term contributes -2/(gap^2), twice the naive
    reading."""
    rng = np.random.default_rng(19)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        m = n + int(rng.integers(1, 4))
        params = EnergyParams(
            BipartitionDims(n, m), eta=rng.uniform(0.0, 2.0), xi=rng.normal()
        )
        v = _interior_point(rng, n)
        h = hessian(v, params)
        assert np.allclose(h, h.T)
        step = 1e-6
        for j in range(n):
            ej = np.zeros(n)
            ej[j] = step
            fd = (gradient(v + ej, params) - gradient(v - ej, params)) / (
                2 * step
            )
            scale = np.maximum(1.0, np.abs(h[:, j]))
            assert np.all(np.abs(fd - h[:, j]) <= 1e-4 * scale)


def test_hessian_off_diagonal_factor():
    v = np.array([0.7, 0.3])
    h = hessian(v, EnergyParams(BipartitionDims(2, 4)))
    assert h[0, 1] == pytest.approx(-2.0 / 0.4**2, rel=1e-14)


def test_hessian_diagonal_dominance_at_typical_solution():
    for n, m in [(2, 4), (3, 7), (5, 11)]:
        sol = typical_solution(BipartitionDims(n, m))
        h = hessian(sol.spectrum.values, EnergyParams(BipartitionDims(n, m)))
        for i in range(n):
            off = np.sum(np.abs(h[i])) - abs(h[i, i])
            assert h[i, i] > off


def test_definiteness_flag_is_strict_diagonal_dominance_with_a_margin():
    eps = np.finfo(float).eps
    assert coulomb._diagonally_dominant(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    # positive definite, but its rows are not dominated: the test is sufficient only
    assert not coulomb._diagonally_dominant(np.full((3, 3), 0.9) + 0.1 * np.eye(3))
    # the singular Laplacian, and dominance smaller than the rounding of a row sum
    assert not coulomb._diagonally_dominant(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert not coulomb._diagonally_dominant(
        np.array([[1.0, eps - 1.0], [eps - 1.0, 1.0]])
    )
    assert not coulomb._diagonally_dominant(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_multiplier_and_trace_formulas():
    assert multiplier_xi(BipartitionDims(4, 8)) == 28
    assert multiplier_xi(BipartitionDims(2, 3)) == 4


def test_numeric_solver_agrees_with_laguerre_route():
    for n, m in [(2, 3), (3, 5), (5, 8), (7, 12)]:
        dims = BipartitionDims(n, m)
        numeric = solve_saddle_numeric(dims)
        exact = typical_solution(dims)
        assert numeric.spectrum.values == pytest.approx(
            exact.spectrum.values, abs=1e-9
        )
        assert numeric.xi == pytest.approx(n * (m - 1), rel=1e-8)


def test_numeric_solver_fitted_multiplier_identity():
    # sum_i lambda_i * force_i = 0 forces N(N-1) + N(M-N) - xi = 0
    for n, m in [(2, 5), (4, 6), (6, 9)]:
        sol = solve_saddle_numeric(BipartitionDims(n, m))
        assert n * (n - 1) + n * (m - n) == pytest.approx(sol.xi, rel=1e-9)


def test_balanced_reduction_identity():
    """The balanced gas at an interior zero-padded point has the energy of
    the (N-1, N+1) gas on the nonzero part."""
    rng = np.random.default_rng(23)
    for n in (2, 3, 5):
        v = _interior_point(rng, n - 1) if n > 2 else np.array([1.0])
        big = EnergyParams(BipartitionDims(n, n))
        small = EnergyParams(BipartitionDims(n - 1, n + 1))
        assert energy(np.append(v, 0.0), big) == pytest.approx(
            energy(v, small), rel=1e-12
        )


def test_balanced_typical_solution_reduces():
    sol = typical_solution(BipartitionDims(2, 2))
    assert sol.spectrum.values == pytest.approx([1.0, 0.0], abs=1e-12)
    assert sol.xi == pytest.approx(2.0)
    sol4 = typical_solution(BipartitionDims(4, 4))
    assert sol4.spectrum.values[-1] == 0.0
    assert sol4.xi == pytest.approx(12.0)
    inner = sol4.spectrum.values[:3]
    assert force_residual(
        inner, EnergyParams(BipartitionDims(3, 5), xi=12.0)
    ) <= 1e-9


def test_constrained_solver_hits_purity_target():
    dims = BipartitionDims(2, 2)
    sol = solve_saddle_numeric(dims, purity_target=0.625)
    assert sol.spectrum.values == pytest.approx([0.75, 0.25], abs=1e-10)
    assert sol.eta == pytest.approx(8.0, rel=1e-8)
    assert sol.xi == pytest.approx(-8.0, rel=1e-8)


def test_warm_start_converges_in_few_newton_steps():
    """The continuum-quantile start needs a handful of steps where the
    maximally mixed start took 15-18."""
    target = 1.0 / 16 + 0.5 * (purity_from_eta(16, critical_threshold(16).eta_plus) - 1.0 / 16)
    cases = [
        (BipartitionDims(64, 128), None),
        (BipartitionDims(200, 400), None),
        (BipartitionDims(16, 16), target),
    ]
    for dims, purity_target in cases:
        sol = solve_saddle_numeric(dims, purity_target=purity_target)
        assert 1 <= sol.iterations <= 8
        assert len(sol.merit_history) == sol.iterations
        assert 0.0 < sol.min_step <= 1.0
        assert all(a > b for a, b in zip(sol.merit_history, sol.merit_history[1:]))
        assert sol.merit_history[-1] <= sol.max_force_residual * math.sqrt(dims.n)


def test_solver_diagnostics_defaults_and_reduction():
    balanced = solve_saddle_numeric(BipartitionDims(6, 6))
    inner = solve_saddle_numeric(BipartitionDims(5, 7))
    assert balanced.iterations == inner.iterations >= 1
    assert balanced.min_step == inner.min_step
    assert balanced.merit_history == inner.merit_history
    for sol in (solve_saddle_numeric(BipartitionDims(1, 4)), typical_solution(BipartitionDims(3, 5))):
        assert (sol.iterations, sol.min_step, sol.merit_history) == (0, 1.0, ())


def test_constrained_solver_rejects_unreachable_purity():
    with pytest.raises(FeasibilityError):
        solve_saddle_numeric(BipartitionDims(2, 2), purity_target=0.5)
    with pytest.raises(FeasibilityError):
        solve_saddle_numeric(BipartitionDims(3, 3), purity_target=1.2)


def test_numeric_solver_single_level():
    for m, xi in [(1, 0.0), (4, 3.0)]:
        sol = solve_saddle_numeric(BipartitionDims(1, m))
        assert list(sol.spectrum.values) == [1.0]
        assert sol.xi == xi
        assert sol.hessian_definite is True


def test_constrained_solver_needs_balanced_dims():
    with pytest.raises(ValueError):
        solve_saddle_numeric(BipartitionDims(3, 7), purity_target=0.5)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 30),
    extra=st.integers(0, 300),
    fraction=st.one_of(st.none(), st.floats(1e-6, 1.0 - 1e-6)),
)
def test_numeric_solver_matches_polynomial_routes(n, extra, fraction):
    """Unbiased dims, or a balanced purity target a fraction of the way from
    1/N to the finite-N threshold: the oracle matches the polynomial route
    or raises a typed error."""
    if fraction is None:
        dims, target = BipartitionDims(n, n + extra), None
    else:
        n = max(n, 2)
        top = purity_from_eta(n, critical_threshold(n).eta_plus)
        dims, target = BipartitionDims(n, n), 1.0 / n + fraction * (top - 1.0 / n)
    try:
        if target is None:
            poly = typical_solution(dims)
            exact = poly.spectrum.values
        else:
            exact = solve_isopurity(IsopurityProblem.from_purity(n, target)).spectrum.values
        numeric = solve_saddle_numeric(dims, purity_target=target)
    except (ConvergenceError, FeasibilityError):
        return
    assert numeric.hessian_definite
    assert np.max(np.abs(numeric.spectrum.values - exact)) <= 1e-9
    # the Gershgorin flag agrees with a Cholesky factorization where the
    # route solved an N > 1 problem on these dims (balanced unconstrained
    # dims solve (N-1, N+1) beside a charge at 0)
    if n > 1 and (target is not None or not dims.balanced):
        assert numeric.hessian_definite is _cho_factor_succeeds(numeric)
        if target is None:
            assert poly.hessian_definite is _cho_factor_succeeds(poly)


def _cho_factor_succeeds(sol) -> bool:
    h = hessian(sol.spectrum.values, EnergyParams(sol.dims, eta=sol.eta))
    return _factors_as_scipy_does(h)


def _factors_as_scipy_does(h) -> bool:
    """Whether scipy.linalg.cho_factor factors h; coulomb's Cholesky seam
    agrees, and its factor equals scipy's bit for bit."""
    try:
        expected = scipy.linalg.cho_factor(h)
    except np.linalg.LinAlgError:
        expected = None
    factor = coulomb._cholesky(h)
    assert (factor is None) is (expected is None)
    if expected is not None:
        assert factor[1] is expected[1]
        assert factor[0].tobytes() == expected[0].tobytes()
    return expected is not None


def _typical_hessian(n, m):
    dims = BipartitionDims(n, m)
    return hessian(typical_solution(dims).spectrum.values, EnergyParams(dims))


@pytest.mark.parametrize(
    "h, definite",
    [
        (np.array([[1.0, 2.0], [2.0, 1.0]]), False),
        (np.ones((3, 3)), False),
        (_typical_hessian(6, 9), True),
    ],
    ids=["indefinite", "singular", "hessian"],
)
def test_cholesky_agrees_with_scipy(h, definite):
    assert _factors_as_scipy_does(h) is definite


def test_newton_factors_once_per_step_and_the_polynomial_route_never(monkeypatch):
    """Definiteness comes from diagonal dominance at the returned point, not
    from a factorization: scipy's cho_factor runs once per Newton step
    (iterations per solve), never on the polynomial route, and numpy's
    cholesky never runs."""

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.cholesky called")

    real, calls = coulomb.cho_factor, []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    monkeypatch.setattr(coulomb, "cho_factor", counting)
    top = purity_from_eta(16, critical_threshold(16).eta_plus)
    target = 1.0 / 16 + 0.5 * (top - 1.0 / 16)
    solves = [
        lambda: solve_saddle_numeric(BipartitionDims(64, 128)),
        lambda: solve_saddle_numeric(BipartitionDims(16, 16), purity_target=target),
        lambda: typical_solution(BipartitionDims(64, 128)),
    ]
    for solve, factors in zip(solves, (True, True, False)):
        calls.clear()
        sol = solve()
        assert sol.hessian_definite is True
        assert sol.iterations > 0 if factors else sol.iterations == 0
        assert len(calls) == sol.iterations


@pytest.mark.parametrize("n, m", [(1, 1), (1, 4), (2, 2), (6, 6)])
def test_polynomial_and_newton_routes_report_the_same_diagnostics(n, m):
    dims = BipartitionDims(n, m)
    exact = typical_solution(dims)
    numeric = solve_saddle_numeric(dims)
    assert exact.xi == pytest.approx(numeric.xi, abs=1e-15)
    assert exact.hessian_definite is numeric.hessian_definite
    assert exact.constraint_residuals == pytest.approx(
        numeric.constraint_residuals, abs=1e-15
    )
    assert np.max(np.abs(exact.spectrum.values - numeric.spectrum.values)) <= 1e-12
    assert (exact.iterations, exact.min_step, exact.merit_history) == (0, 1.0, ())


def _geometric_start(ratio):
    """A _start_point stand-in: lambda_i proportional to ratio^-i."""

    def start(dims, eta):
        x = ratio ** -np.arange(dims.n, dtype=float)
        return x / x.sum()

    return start


@pytest.mark.parametrize("n, m, min_step", [(8, 12, 0.5), (16, 17, 0.125)])
def test_newton_halves_the_step_from_a_poor_start(monkeypatch, n, m, min_step):
    monkeypatch.setattr(coulomb, "_start_point", _geometric_start(1.3))
    dims = BipartitionDims(n, m)
    sol = solve_saddle_numeric(dims)
    assert sol.min_step == min_step
    assert np.max(np.abs(sol.spectrum.values - typical_solution(dims).spectrum.values)) <= 1e-9


@pytest.mark.parametrize("n, m", [(32, 64), (64, 128)])
def test_newton_trace_drift_is_a_convergence_error(monkeypatch, n, m):
    """From lambda_i ~ 2^-i the Hessian diagonal spans tens of decades and
    the projected step leaks off sum lambda = 1, which the force norm does
    not see: the solver converges or raises ConvergenceError, never
    Spectrum's ValueError."""
    monkeypatch.setattr(coulomb, "_start_point", _geometric_start(2.0))
    dims = BipartitionDims(n, m)
    try:
        sol = solve_saddle_numeric(dims)
    except ConvergenceError:
        return
    assert np.max(np.abs(sol.spectrum.values - typical_solution(dims).spectrum.values)) <= 1e-9


def test_newton_with_an_unfactorable_hessian_is_a_convergence_error(monkeypatch):
    def refuse(*args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(coulomb, "cho_factor", refuse)
    with pytest.raises(ConvergenceError):
        solve_saddle_numeric(BipartitionDims(4, 6))
