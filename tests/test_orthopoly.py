import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_genlaguerre, roots_hermite

from typent import cli, fixedpurity, orthopoly
from typent.errors import ConvergenceError
from typent.orthopoly import (
    HermiteSpec,
    LaguerreSpec,
    hermite_relative_residuals,
    hermite_zeros,
    laguerre_relative_residuals,
    laguerre_zeros,
)

SQRT2 = math.sqrt(2.0)


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
    assert z[:3] == pytest.approx(oracle, rel=1e-14, abs=0.0)
    assert z[-1] == pytest.approx(3943.247394845271, rel=1e-14, abs=0.0)


def _scaled_laguerre_sign(n, a, x):
    """Sign of n! L_n^(a)(x) at the float x, in exact integer arithmetic:
    n! L_n^(a)(x) = sum_j (-1)^j C(n + a, n - j) n!/j! x^j with x = p/q."""
    p, q = Fraction(x).as_integer_ratio()
    acc = 0
    for j in range(n, -1, -1):
        coeff = (-1) ** j * math.comb(n + a, n - j) * (math.factorial(n) // math.factorial(j))
        acc = acc * p + coeff * q ** (n - j)
    return (acc > 0) - (acc < 0)


@pytest.mark.parametrize("a", [0, 1])
def test_smallest_laguerre_zeros_bracketed_exactly(a):
    # the three smallest zeros of L_200^(a) are each within 1e-13 relative
    # of a sign change of the exactly evaluated polynomial
    z = laguerre_zeros(LaguerreSpec(degree=200, order=float(a), scale=1.0))
    for zero in z[:3]:
        below = _scaled_laguerre_sign(200, a, zero * (1.0 - 1e-13))
        above = _scaled_laguerre_sign(200, a, zero * (1.0 + 1e-13))
        assert below * above == -1


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
        zeros = laguerre_zeros(spec)
        residuals = laguerre_relative_residuals(spec, zeros)
        floor = np.abs(zeros)
    else:
        spec = HermiteSpec(degree=n, shift=0.0, scale=1.0)
        zeros = hermite_zeros(spec)
        residuals = hermite_relative_residuals(spec, zeros)
        floor = np.maximum(np.abs(zeros), 1.0)
    steps = _scalar_newton_steps(kind, n, a, zeros)
    assert np.array_equal(residuals, np.abs(steps) / floor)


@pytest.mark.parametrize("n", [1000, 1001])
def test_large_hermite_zeros_contract(n):
    spec = HermiteSpec(degree=n, shift=0.0, scale=1.0)
    z = hermite_zeros(spec)
    assert np.max(hermite_relative_residuals(spec, z)) <= 5e-14
    assert np.array_equal(z, -z[::-1])
    if n % 2:
        assert z[n // 2] == 0.0


def test_polished_residuals_meet_contract():
    spec = LaguerreSpec(degree=40, order=7.0, scale=80.0)
    res = laguerre_relative_residuals(spec, laguerre_zeros(spec))
    assert np.max(res) <= 1e-12
    hspec = HermiteSpec(degree=48, shift=0.25, scale=30.0)
    hres = hermite_relative_residuals(hspec, hermite_zeros(hspec))
    assert np.max(hres) <= 1e-12


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
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            LaguerreSpec(degree=3, order=bad, scale=1.0)
        with pytest.raises(ValueError):
            LaguerreSpec(degree=3, order=1.0, scale=bad)
        with pytest.raises(ValueError):
            HermiteSpec(degree=3, shift=bad, scale=1.0)
        with pytest.raises(ValueError):
            HermiteSpec(degree=3, shift=0.0, scale=bad)
    for degree in (True, 2.0, "3"):
        with pytest.raises(ValueError):
            LaguerreSpec(degree=degree, order=1.0, scale=1.0)
        with pytest.raises(ValueError):
            HermiteSpec(degree=degree, shift=0.0, scale=1.0)
    assert laguerre_zeros(LaguerreSpec(np.int64(2), 0.0, 1.0)).size == 2
    assert hermite_zeros(HermiteSpec(degree=0, shift=0.0, scale=1.0)).size == 0


def test_zeros_make_one_lapack_call(monkeypatch):
    calls = []
    real = orthopoly.dpteqr

    def counting(d, e):
        calls.append(d.size)
        return real(d, e)

    monkeypatch.setattr(orthopoly, "dpteqr", counting)
    for n in (4, 5, 64, 65):
        laguerre_zeros(LaguerreSpec(degree=n, order=0.5, scale=2.0))
        hermite_zeros(HermiteSpec(degree=n, shift=0.1, scale=3.0))
    assert calls == [4, 2, 5, 2, 64, 32, 65, 32]
    calls.clear()
    for n in (1, 2, 3):
        z = hermite_zeros(HermiteSpec(degree=n, shift=0.0, scale=1.0))
        assert z == pytest.approx(roots_hermite(n)[0], rel=1e-15)
    assert calls == []
    fixedpurity.threshold_scan(64, [100.0, 1000.0, 10000.0])
    assert calls == [32]


def test_lapack_failure_is_a_convergence_error(monkeypatch, capsys):
    monkeypatch.setattr(orthopoly, "dpteqr", lambda d, e: (d, e, np.zeros((1, 1)), 1))
    with pytest.raises(ConvergenceError):
        laguerre_zeros(LaguerreSpec(degree=8, order=1.0, scale=1.0))
    assert cli.main(["typical", "--n", "8", "--m", "9"]) == 4
    assert "dpteqr" in capsys.readouterr().err
