import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_genlaguerre, roots_hermite

from typent.orthopoly import (
    HermiteSpec,
    LaguerreSpec,
    hermite_relative_residuals,
    hermite_zeros,
    hermite_jacobi,
    laguerre_coefficients,
    laguerre_jacobi,
    laguerre_log_coefficients,
    laguerre_relative_residuals,
    laguerre_zeros,
    tridiagonal_eigenvalues,
)

SQRT2 = math.sqrt(2.0)


def test_tridiagonal_against_lapack():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 10, 40):
        d = rng.normal(size=n)
        e = rng.normal(size=n - 1)
        ours = tridiagonal_eigenvalues(d, e)
        full = np.diag(d)
        if n > 1:
            full += np.diag(e, 1) + np.diag(e, -1)
        ref = np.linalg.eigvalsh(full)
        assert ours == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_tridiagonal_input_checks():
    with pytest.raises(ValueError):
        tridiagonal_eigenvalues([1.0, 2.0], [0.5, 0.5])
    assert tridiagonal_eigenvalues([], []).size == 0
    assert tridiagonal_eigenvalues([4.0], []) == pytest.approx([4.0])


@pytest.mark.parametrize(
    "diag,offdiag",
    [
        ([math.inf, 1.0], [0.5]),
        ([math.nan, 1.0], [0.5]),
        ([1.0, 2.0], [math.inf]),
        ([1.0, 2.0, 3.0], [0.5, math.nan]),
        ([math.nan], []),
    ],
)
def test_tridiagonal_rejects_non_finite(diag, offdiag):
    with pytest.raises(ValueError):
        tridiagonal_eigenvalues(diag, offdiag)


@pytest.mark.parametrize("n,a", [(2, 0.0), (3, 1.0), (5, 2.0), (12, 0.0), (30, 3.0)])
def test_laguerre_zeros_match_scipy(n, a):
    ours = laguerre_zeros(LaguerreSpec(degree=n, order=a, scale=1.0))
    ref = roots_genlaguerre(n, a)[0]
    assert ours == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("n", [2, 5, 16, 50])
def test_hermite_zeros_match_scipy(n):
    ours = hermite_zeros(HermiteSpec(degree=n, shift=0.0, scale=1.0))
    ref = roots_hermite(n)[0]
    assert ours == pytest.approx(ref, rel=1e-12, abs=1e-13)


def test_scaled_laguerre_small_case_is_exact():
    # L_2^(0)(4x) has zeros (2 +- sqrt(2))/4
    zeros = laguerre_zeros(LaguerreSpec(degree=2, order=0.0, scale=4.0))
    assert zeros == pytest.approx([(2 - SQRT2) / 4, (2 + SQRT2) / 4], rel=1e-14)
    assert zeros.sum() == pytest.approx(1.0, abs=1e-14)


def test_scaled_hermite_small_case_is_exact():
    # H_2(sqrt(8)(x - 1/2)) vanishes at 1/2 +- 1/4
    zeros = hermite_zeros(HermiteSpec(degree=2, shift=0.5, scale=math.sqrt(8.0)))
    assert zeros == pytest.approx([0.25, 0.75], abs=1e-15)


def test_laguerre_large_n_zeros_match_mpmath_oracle():
    # smallest three and largest zero of L_1000^(0), frozen from a 50-digit
    # mpmath Newton solve on the three-term recurrence (cross-checked with
    # mpmath.laguerre at 80 digits); the zeros behind `typical --n 1000 --m 1001`
    z = laguerre_zeros(LaguerreSpec(degree=1000, order=0.0, scale=1.0))
    oracle = [0.0014450740675415123, 0.007614013093376568, 0.018712423886009355]
    assert z[:3] == pytest.approx(oracle, rel=2e-11)
    assert z[-1] == pytest.approx(3943.247394845271, rel=2e-11)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=120),
    a=st.floats(min_value=-1.0, max_value=40.0, exclude_min=True),
)
def test_laguerre_zeros_match_scipy_and_interlace(n, a):
    outer = laguerre_zeros(LaguerreSpec(degree=n, order=a, scale=1.0))
    inner = laguerre_zeros(LaguerreSpec(degree=n - 1, order=a, scale=1.0))
    assert np.all(outer[:-1] < inner) and np.all(inner < outer[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        ref = roots_genlaguerre(n, a)[0]
    # scipy's own Newton step returns NaN within an ulp or so of a = -1
    if np.all(np.isfinite(ref)):
        assert outer == pytest.approx(ref, rel=1e-12)


def test_laguerre_zero_interlacing():
    for n in range(2, 51):
        inner = laguerre_zeros(LaguerreSpec(degree=n - 1, order=1.0, scale=1.0))
        outer = laguerre_zeros(LaguerreSpec(degree=n, order=1.0, scale=1.0))
        assert np.all(outer[:-1] < inner) and np.all(inner < outer[1:])


def test_hermite_symmetry_about_shift():
    for n in (3, 8, 21, 64):
        z = hermite_zeros(HermiteSpec(degree=n, shift=0.3, scale=2.0))
        assert np.max(np.abs((z + z[::-1]) / 2 - 0.3)) < 1e-12


def _scalar_newton_steps(kind, n, a, ys):
    """Reference for the vectorized recurrences: one Python loop per point,
    the same arithmetic and the same joint 1e250 rescale."""
    out = []
    for y in ys:
        prev, cur = 1.0, (1.0 + a - y if kind == "laguerre" else 2.0 * y)
        for k in range(1, n):
            if kind == "laguerre":
                nxt = ((2.0 * k + 1.0 + a - y) * cur - (k + a) * prev) / (k + 1.0)
            else:
                nxt = 2.0 * y * cur - 2.0 * k * prev
            prev, cur = cur, nxt
            if max(abs(prev), abs(cur)) > 1e250:
                prev /= 1e250
                cur /= 1e250
        if kind == "laguerre":
            deriv = (n * cur - (n + a) * prev) / y
        else:
            deriv = 2.0 * n * prev
        out.append(cur / deriv if deriv != 0.0 and math.isfinite(deriv) else 0.0)
    return np.array(out)


# degree 300 drives both recurrences past the rescale limit at the outer zeros
@pytest.mark.parametrize(
    "kind,n,a",
    [("laguerre", 300, 0.0), ("laguerre", 40, 7.0), ("hermite", 300, 0.0), ("hermite", 7, 0.0)],
)
def test_vectorized_polish_matches_scalar_loop(kind, n, a):
    if kind == "laguerre":
        spec = LaguerreSpec(degree=n, order=a, scale=1.0)
        raw = tridiagonal_eigenvalues(*laguerre_jacobi(spec))
        zeros = laguerre_zeros(spec)
        residuals = laguerre_relative_residuals(spec, raw)
        floor = np.abs(raw)
    else:
        spec = HermiteSpec(degree=n, shift=0.0, scale=1.0)
        raw = tridiagonal_eigenvalues(*hermite_jacobi(spec))
        zeros = hermite_zeros(spec)
        residuals = hermite_relative_residuals(spec, raw)
        floor = np.maximum(np.abs(raw), 1.0)
    steps = _scalar_newton_steps(kind, n, a, raw)
    # bit-equal: every step here is far inside the 0.45-gap guard
    assert np.array_equal(zeros, raw - steps)
    assert np.array_equal(residuals, np.abs(steps) / floor)


def test_polished_residuals_meet_contract():
    spec = LaguerreSpec(degree=40, order=7.0, scale=80.0)
    res = laguerre_relative_residuals(spec, laguerre_zeros(spec))
    assert np.max(res) <= 1e-12
    hspec = HermiteSpec(degree=48, shift=0.25, scale=30.0)
    hres = hermite_relative_residuals(hspec, hermite_zeros(hspec))
    assert np.max(hres) <= 1e-12


def test_laguerre_coefficients_small_case():
    # expansion of L_2^(0)(4x) in powers of (-x): coefficients (1, 8, 8)
    spec = LaguerreSpec(degree=2, order=0.0, scale=4.0)
    assert laguerre_coefficients(spec) == pytest.approx([1.0, 8.0, 8.0], rel=1e-14)


def test_vieta_sum_rule():
    for n, a, xi in [(2, 0.0, 4.0), (5, 3.0, 40.0), (9, 1.0, 90.0)]:
        spec = LaguerreSpec(degree=n, order=a, scale=xi)
        c = laguerre_coefficients(spec)
        zeros = laguerre_zeros(spec)
        assert c[n - 1] / c[n] == pytest.approx(zeros.sum(), rel=1e-10)


def test_log_coefficients_survive_large_degree():
    logs = laguerre_log_coefficients(LaguerreSpec(degree=500, order=10.0, scale=5000.0))
    assert logs.size == 501 and np.all(np.isfinite(logs))
    with pytest.raises(OverflowError):
        laguerre_coefficients(LaguerreSpec(degree=500, order=10.0, scale=5000.0))


def test_smallest_hermite_zero_oracle_at_200():
    # frozen from an independent dense-solver run; also pins the LAPACK path
    z = hermite_zeros(HermiteSpec(degree=200, shift=0.0, scale=1.0))
    assert z[0] == pytest.approx(-19.33924866791141, rel=1e-13)
    scaled = z[0] / math.sqrt(200.0)
    assert scaled == pytest.approx(-1.3674913876133064, rel=1e-13)
    # the approach to the -sqrt(2) edge is still 3.3% off at this size
    assert abs(scaled + SQRT2) / SQRT2 == pytest.approx(0.033038, abs=5e-5)


def test_smallest_hermite_zero_within_three_percent_at_256():
    z = hermite_zeros(HermiteSpec(degree=256, shift=0.0, scale=1.0))
    assert abs(z[0] / math.sqrt(256.0) + SQRT2) / SQRT2 < 0.03


def test_spec_validation():
    with pytest.raises(ValueError):
        LaguerreSpec(degree=-1, order=0.0, scale=1.0)
    with pytest.raises(ValueError):
        LaguerreSpec(degree=2, order=-1.5, scale=1.0)
    with pytest.raises(ValueError):
        HermiteSpec(degree=2, shift=0.0, scale=0.0)
    assert hermite_zeros(HermiteSpec(degree=0, shift=0.0, scale=1.0)).size == 0
