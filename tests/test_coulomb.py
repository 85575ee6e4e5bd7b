import math

import numpy as np
import pytest

from typent.core import BipartitionDims
from typent.coulomb import (
    EnergyParams,
    energy,
    force_residual,
    gradient,
    hessian,
    multiplier_xi,
    solve_saddle_numeric,
    trace_inverse,
    typical_solution,
)
from typent.errors import FeasibilityError
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


def test_multiplier_and_trace_formulas():
    assert multiplier_xi(BipartitionDims(4, 8)) == 28
    assert multiplier_xi(BipartitionDims(2, 3)) == 4
    assert trace_inverse(BipartitionDims(2, 4)) == pytest.approx(6.0)
    assert trace_inverse(BipartitionDims(2, 3)) == pytest.approx(8.0)
    with pytest.raises(ValueError):
        trace_inverse(BipartitionDims(3, 3))


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


def test_constrained_solver_rejects_unreachable_purity():
    with pytest.raises(FeasibilityError):
        solve_saddle_numeric(BipartitionDims(2, 2), purity_target=0.5)
    with pytest.raises(FeasibilityError):
        solve_saddle_numeric(BipartitionDims(3, 3), purity_target=1.2)


def test_solution_json_shape():
    sol = typical_solution(BipartitionDims(2, 3))
    d = sol.to_json_dict()
    assert set(d) == {
        "n",
        "m",
        "eta",
        "xi",
        "spectrum",
        "force_residual",
        "constraint_residuals",
        "hessian_definite",
    }
    assert d["hessian_definite"] is True
