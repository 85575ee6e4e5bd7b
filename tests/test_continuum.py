import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from typent import continuum
from typent.continuum import (
    cdf_value,
    density_grid,
    density_value,
    finite_n_convergence,
    ks_distance,
    marchenko_pastur,
    moments,
    quantiles,
    semicircle,
    tricomi_residual,
)
from typent.errors import AccuracyError

RATIOS = (0.01, 0.25, 0.5)


def test_semicircle_constructor():
    d = semicircle(2.0)
    assert d.support == (0.0, 2.0)
    assert d.rescaled_purity == pytest.approx(1.25)
    d4 = semicircle(8.0)
    assert d4.support[0] == pytest.approx(0.5)
    assert d4.support[1] == pytest.approx(1.5)
    with pytest.raises(ValueError):
        semicircle(1.9)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            semicircle(bad)


def test_semicircle_support_must_not_round_to_a_point():
    a, b = semicircle(1e30).support
    assert a < 1.0 < b
    # 1 + sqrt(2/beta) rounds to 1 from beta ~ 1.6e32, 1 - sqrt(2/beta) from ~ 6.5e32
    for beta in (1e33, 1e40, 1e300):
        with pytest.raises(ValueError, match="rounds to the point 1"):
            semicircle(beta)


def test_marchenko_pastur_constructor():
    d = marchenko_pastur()
    assert d.support == (0.0, 4.0)
    assert d.beta == 0.0
    assert d.rescaled_purity == 2.0
    assert d.ratio == 1.0
    q = marchenko_pastur(0.25)
    assert q.support == (0.25, 2.25)
    assert q.rescaled_purity == 1.25
    assert q.ratio == 0.25
    for bad in (0.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError):
            marchenko_pastur(bad)


def test_density_values():
    # peak of the beta=2 semicircle is at the center: (2/pi) * 1
    assert density_value(semicircle(2.0), 1.0) == pytest.approx(2.0 / math.pi)
    assert density_value(semicircle(2.0), 0.0) == 0.0
    assert density_value(semicircle(2.0), 2.0) == 0.0
    assert density_value(semicircle(2.0), -0.5) == 0.0
    mp = marchenko_pastur()
    # sqrt((4-2)/2)/(2 pi) = 1/(2 pi)
    assert density_value(mp, 2.0) == pytest.approx(1.0 / (2.0 * math.pi))
    assert density_value(mp, 0.0) == math.inf
    assert density_value(mp, 4.0) == 0.0
    assert density_value(mp, 5.0) == 0.0


def test_moments_close_forms():
    for beta in (2.0, 4.0, 10.0):
        mass, mean, second = moments(semicircle(beta))
        assert abs(mass - 1.0) <= 1e-15
        assert abs(mean - 1.0) <= 1e-15
        assert abs(second - (1.0 + 1.0 / (2.0 * beta))) <= 1e-15
    mass, mean, second = moments(marchenko_pastur())
    assert abs(mass - 1.0) <= 1e-8
    assert abs(mean - 1.0) <= 1e-8
    assert abs(second - 2.0) <= 1e-8


def test_cdf_endpoints_and_midpoints():
    d = semicircle(2.0)
    assert cdf_value(d, 0.0) == 0.0
    assert cdf_value(d, 2.0) == 1.0
    assert cdf_value(d, 1.0) == pytest.approx(0.5, abs=1e-14)
    assert cdf_value(d, -1.0) == 0.0
    assert cdf_value(d, 3.0) == 1.0
    mp = marchenko_pastur()
    assert cdf_value(mp, 0.0) == 0.0
    assert cdf_value(mp, 4.0) == 1.0
    # frozen: (2u + sin 2u)/pi at u = arcsin(sqrt(2)/2) = pi/4
    assert cdf_value(mp, 2.0) == pytest.approx(0.8183098861837907, abs=1e-14)


def test_cdf_matches_quadrature():
    for d, x in [(semicircle(4.0), 1.3), (marchenko_pastur(), 0.7)]:
        val, err = integrate.quad(
            lambda t: density_value(d, t), d.support[0], x, limit=200
        )
        assert cdf_value(d, x) == pytest.approx(val, abs=max(1e-10, 10 * err))


@pytest.mark.parametrize("c", RATIOS)
def test_general_ratio_cdf_matches_quadrature(c):
    d = marchenko_pastur(c)
    a, b = d.support
    for x in np.linspace(a, b, 9)[1:]:
        val, _ = integrate.quad(lambda t: density_value(d, t), a, x, limit=200)
        assert abs(float(cdf_value(d, x)) - val) <= 1e-9
    assert cdf_value(d, a) == 0.0
    assert abs(float(cdf_value(d, b)) - 1.0) <= 1e-13


def test_square_case_matches_former_closed_forms():
    """At c = 1 the general-ratio density and CDF reduce to
    sqrt((4 - mu)/mu)/(2 pi) and (2u + sin 2u)/pi with u = arcsin(sqrt(mu)/2)."""
    d = marchenko_pastur(1.0)
    xs = np.linspace(0.0, 4.0, 4001)[1:-1]
    for x in xs[::40]:
        x = float(x)
        assert density_value(d, x) == pytest.approx(
            math.sqrt((4.0 - x) / x) / (2.0 * math.pi), rel=1e-14
        )
    u = np.arcsin(0.5 * np.sqrt(xs))
    assert np.max(np.abs(cdf_value(d, xs) - (2.0 * u + np.sin(2.0 * u)) / math.pi)) <= 1e-14


@pytest.mark.parametrize("c", RATIOS + (0.9, 0.99, 0.999))
def test_general_ratio_moments(c):
    mass, mean, second = moments(marchenko_pastur(c))
    assert abs(mass - 1.0) <= 1e-12
    assert abs(mean - 1.0) <= 1e-12
    assert abs(second - (1.0 + c)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.999, exclude_min=True))
def test_moments_hold_at_every_ratio(c):
    mass, mean, second = moments(marchenko_pastur(c))
    assert abs(mass - 1.0) <= 1e-12
    assert abs(mean - 1.0) <= 1e-12
    assert abs(second - (1.0 + c)) <= 1e-12


def test_moments_refuse_a_ratio_past_the_node_cap(monkeypatch):
    """Near c = 1 the rule would need billions of nodes; moments says so,
    naming the ratio and the count, before it builds any node."""

    def no_nodes(*args):
        raise AssertionError("nodes built before the cap was checked")

    monkeypatch.setattr(continuum, "_angle_rule", no_nodes)
    c = 1.0 - 1e-9
    with pytest.raises(AccuracyError, match=rf"ratio {c!r} needs \d+ moment nodes"):
        moments(marchenko_pastur(c))


def _quad_principal_value(d, mu):
    """The subtraction-form PV by adaptive quadrature: the bounded quotient
    (sigma(l) - sigma(mu))/(l - mu) with mu as a break point, plus the
    subtracted pole's log term."""
    a, b = d.support
    s_mu = density_value(d, mu)
    val, _ = integrate.quad(
        lambda lam: (density_value(d, lam) - s_mu) / (lam - mu),
        a,
        b,
        points=[mu],
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    return val + s_mu * math.log((b - mu) / (mu - a))


@pytest.mark.parametrize("d", [semicircle(2.0), semicircle(10.0), marchenko_pastur()])
def test_principal_value_matches_quadrature(d):
    a, b = d.support
    mid, r = 0.5 * (a + b), 0.5 * (b - a)
    # this mu's angle acos((mu - mid)/r) is the ninth node of the 16-node rule,
    # to the last bit, so the quotient there would be 0/0
    on_node = mid + r * math.cos(8.5 * math.pi / continuum._NODES)
    assert math.acos((on_node - mid) / r) * continuum._NODES / math.pi % 1.0 == 0.5
    for mu in [*np.linspace(a, b, 9)[1:-1].tolist(), on_node]:
        got = continuum._principal_value(d, mu)
        assert math.isfinite(got)
        assert abs(got - _quad_principal_value(d, mu)) <= 1e-12


@pytest.mark.parametrize(
    "d", [marchenko_pastur(), marchenko_pastur(0.01), marchenko_pastur(0.5), semicircle(2.0), semicircle(50.0)]
)
def test_quantiles_strictly_increase_inside_support(d):
    for n in (1, 2, 7, 1000):
        q = quantiles(d, n)
        assert q.shape == (n,)
        assert np.all(np.diff(q) > 0.0)
        assert d.support[0] < q[0] and q[-1] < d.support[1]
        assert np.max(np.abs(cdf_value(d, q) - (np.arange(n) + 0.5) / n)) <= 1e-12
    with pytest.raises(ValueError):
        quantiles(d, 0)


def test_cdf_is_vectorized_and_monotone():
    d = semicircle(3.0)
    xs = np.linspace(d.support[0], d.support[1], 101)
    cs = cdf_value(d, xs)
    assert cs.shape == xs.shape
    assert np.all(np.diff(cs) >= 0.0)


def test_ks_distance_sanity():
    d = semicircle(2.0)
    xs = np.linspace(1e-4, 2.0 - 1e-4, 4001)
    # quantile-ish atoms: invert the cdf roughly by dense sampling
    cs = cdf_value(d, xs)
    atoms = np.interp(np.linspace(0.005, 0.995, 200), cs, xs)
    assert ks_distance(atoms, d) <= 0.02
    assert ks_distance(np.full(50, 1.0), d) >= 0.45


def test_tricomi_residual_semicircle():
    for beta in (2.0, 10.0):
        d = semicircle(beta)
        a, b = d.support
        grid = np.linspace(a + 0.05 * (b - a), b - 0.05 * (b - a), 21)
        assert tricomi_residual(d, grid) <= 1e-6


def test_tricomi_residual_marchenko_pastur():
    grid = np.linspace(0.1, 3.9, 21)
    assert tricomi_residual(marchenko_pastur(), grid) <= 1e-6


def test_tricomi_grid_must_be_interior():
    d = semicircle(2.0)
    with pytest.raises(ValueError):
        tricomi_residual(d, [0.0, 1.0])
    with pytest.raises(ValueError):
        tricomi_residual(marchenko_pastur(), [2.0, 4.5])
    # MP(c < 1) solves a different equation (extra log potential)
    with pytest.raises(ValueError):
        tricomi_residual(marchenko_pastur(0.25), [1.0])


def test_finite_n_convergence_monotone():
    rows = finite_n_convergence([32, 64, 128], 10.0)
    ks = [r.ks_distance for r in rows]
    assert [r.n for r in rows] == [32, 64, 128]
    assert ks[0] > ks[1] > ks[2]


def test_finite_n_convergence_beta_two_improves():
    rows = finite_n_convergence([4, 64], 2.0)
    assert rows[0].ks_distance > rows[1].ks_distance
    assert rows[1].ks_distance < 0.05


def test_finite_n_convergence_validation():
    with pytest.raises(ValueError):
        finite_n_convergence([8, 16], 1.0)
    with pytest.raises(ValueError):
        finite_n_convergence([16, 8], 2.0)
    with pytest.raises(ValueError):
        finite_n_convergence([8, 8], 2.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            finite_n_convergence([8, 16], bad)


def test_density_grid_shapes():
    d = semicircle(2.0)
    xs, ys = density_grid(d, points=512)
    assert xs.shape == ys.shape == (512,)
    assert ys[0] == 0.0 and ys[-1] == 0.0
    assert np.all(np.isfinite(ys))
    mp_xs, mp_ys = density_grid(marchenko_pastur(), points=64)
    assert mp_xs[0] > 0.0
    assert np.all(np.isfinite(mp_ys))
    assert mp_ys[-1] == 0.0
    with pytest.raises(ValueError):
        density_grid(d, points=1)
