import math
from fractions import Fraction

import numpy as np
import pytest

from typent.closedform import (
    FormulaRow,
    asymptotic_traces,
    balanced_det_asymptotic,
    formula_table,
    invariant_s_exact,
    log_normalization,
    mean_moments,
    trace_inverse_exact,
    typical_purity_multiplier_exact,
    typical_purity_vieta_exact,
    typical_quantities,
)
from typent.core import BipartitionDims, elementary_invariants
from typent.orthopoly import LaguerreSpec, laguerre_zeros


def test_normalization_small_cases():
    assert math.exp(log_normalization(BipartitionDims(2, 2))) == pytest.approx(3.0)
    assert math.exp(log_normalization(BipartitionDims(2, 3))) == pytest.approx(30.0)
    assert math.exp(log_normalization(BipartitionDims(2, 4))) == pytest.approx(210.0)


def test_det_moments():
    mom = mean_moments(BipartitionDims(2, 2))
    assert mom.det_moment(1) == pytest.approx(0.1, rel=1e-14)
    assert mean_moments(BipartitionDims(2, 3)).det_moment(1) == pytest.approx(
        1.0 / 7.0, rel=1e-14
    )
    assert mom.det_moment(0) == 1.0
    with pytest.raises(ValueError):
        mom.det_moment(-1)


def test_mean_moments_two_by_two():
    mom = mean_moments(BipartitionDims(2, 2))
    assert mom.mean_lambda == pytest.approx(0.5)
    assert mom.mean_purity == pytest.approx(0.8, rel=1e-14)
    assert mom.mean_entropy == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert mom.sigma_rms == pytest.approx(math.sqrt(0.15), rel=1e-14)


def test_mean_entropy_matches_harmonic_sums():
    cases = {
        (2, 2): Fraction(1, 3),
        (2, 3): Fraction(9, 20),
        (2, 4): Fraction(107, 210),
        (3, 3): Fraction(1669, 2520),
        (3, 7): Fraction(23528717, 25865840),
        (4, 6): Fraction(1920308783, 1784742960),
    }
    for (n, m), frac in cases.items():
        got = mean_moments(BipartitionDims(n, m)).mean_entropy
        assert got == pytest.approx(float(frac), rel=1e-12)


def test_typical_purity_exact_routes_agree():
    for n in range(2, 13):
        for m in range(n + 1, 51, 7):
            vieta = typical_purity_vieta_exact(n, m)
            direct = typical_purity_multiplier_exact(n, m)
            assert vieta == direct
            assert direct == Fraction(n + m - 2, n * (m - 1))
            assert 1 - 2 * invariant_s_exact(n, m, 2) == direct


def test_trace_inverse_exact():
    assert trace_inverse_exact(2, 3) == Fraction(8)
    assert trace_inverse_exact(2, 4) == Fraction(6)
    assert trace_inverse_exact(3, 7) == Fraction(27, 2)
    with pytest.raises(ValueError):
        trace_inverse_exact(3, 3)


def test_invariants_match_laguerre_zero_products():
    for n, m in [(2, 3), (3, 6), (5, 9), (12, 20)]:
        xi = n * (m - 1)
        zeros = laguerre_zeros(LaguerreSpec(degree=n, order=m - n - 1, scale=xi))
        s = elementary_invariants(zeros)
        for k in range(1, n + 1):
            assert s[k - 1] == pytest.approx(
                float(invariant_s_exact(n, m, k)), rel=1e-8
            )


def test_balanced_invariant_s_n_vanishes():
    assert invariant_s_exact(4, 4, 4) == 0
    assert typical_quantities(BipartitionDims(4, 4)).invariants_s(4) == 0.0


def test_invariants_table_equals_per_k_values():
    for n, m in [(1, 1), (5, 5), (7, 12), (300, 301), (4, 2500)]:
        typ = typical_quantities(BipartitionDims(n, m))
        per_k = [typ.invariants_s(k) for k in range(1, n + 1)]
        assert typ.invariants_s_table() == per_k


@pytest.mark.parametrize("n, m", [(4, 2500), (50, 10**6)])
def test_invariants_are_exact_at_large_m(n, m):
    typ = typical_quantities(BipartitionDims(n, m))
    assert typ.invariants_s(1) == 1.0
    exact = [float(invariant_s_exact(n, m, k)) for k in range(1, n + 1)]
    assert typ.invariants_s_table() == exact


def test_typical_vs_mean_purity_gap():
    # the two purities differ at order 1/(NM)
    for n in range(2, 9):
        for m in range(n, 101, 13):
            typ = typical_quantities(BipartitionDims(n, m)).purity
            mean = mean_moments(BipartitionDims(n, m)).mean_purity
            assert abs(typ - mean) * n * m <= 4.0


def test_typical_det_log_small_case():
    q = typical_quantities(BipartitionDims(2, 3))
    assert q.determinant_log == pytest.approx(math.log(0.125), rel=1e-14)
    zeros = laguerre_zeros(LaguerreSpec(degree=2, order=0, scale=4.0))
    assert float(np.prod(zeros)) == pytest.approx(0.125, rel=1e-12)


def test_balanced_det_asymptotic_values():
    assert balanced_det_asymptotic(1) == 0.0
    assert balanced_det_asymptotic(2) == pytest.approx(-3.0 * math.log(2.0), rel=1e-14)
    # frozen: lgamma(11) - 20 ln 10
    assert balanced_det_asymptotic(10) == pytest.approx(
        -30.947289286805407, abs=1e-12
    )


def test_large_n_helpers_approach_finite_formulas():
    for mu in (0.0, 0.5, 1.0):
        n = 400
        m = int(round(n * (1.0 + mu)))
        mean = mean_moments(BipartitionDims(n, m))
        assert asymptotic_traces(2, mu) / n == pytest.approx(
            mean.mean_purity, rel=5e-3
        )


def test_asymptotic_trace_coefficients():
    assert asymptotic_traces(2, 0.0) == pytest.approx(2.0)
    assert asymptotic_traces(3, 0.0) == pytest.approx(5.0)
    assert asymptotic_traces(4, 0.0) == pytest.approx(14.0)
    assert asymptotic_traces(5, 0.0) == pytest.approx(42.0)
    assert asymptotic_traces(3, 1.0) == pytest.approx(11.0 / 4.0)
    assert asymptotic_traces(4, 1.0) == pytest.approx(45.0 / 8.0)
    assert asymptotic_traces(5, 1.0) == pytest.approx(197.0 / 16.0)
    for k in (0, 1, 6):
        with pytest.raises(ValueError):
            asymptotic_traces(k, 0.0)


def test_formula_table_shape():
    rows = formula_table(BipartitionDims(2, 3))
    assert all(isinstance(r, FormulaRow) for r in rows)
    names = [r.quantity for r in rows]
    assert len(names) == len(set(names))
    assert "mean_purity" in names
    assert "trace_inverse" in names
    assert "typical_s_1" in names
    by_name = {r.quantity: r for r in rows}
    assert by_name["typical_s_1"].value == 1.0
    assert by_name["mean_purity"].value == pytest.approx(5.0 / 7.0)
    assert by_name["xi_multiplier"].value == 4.0
    for r in rows:
        assert r.n == 2 and r.m == 3
        assert isinstance(r.formula, str) and r.formula


def test_formula_table_balanced_omits_inverse_trace():
    names = [r.quantity for r in formula_table(BipartitionDims(3, 3))]
    assert "trace_inverse" not in names
