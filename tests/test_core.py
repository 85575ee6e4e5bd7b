import math

import numpy as np
import pytest

from typent.core import (
    BipartitionDims,
    MajorizationOrder,
    Spectrum,
    elementary_invariants,
    majorization_compare,
    maximally_mixed,
    pure_state,
    purity,
    renyi_traces,
    schmidt_number,
    von_neumann_entropy,
)


def test_dims_validation():
    d = BipartitionDims(2, 3)
    assert d.alpha == 1
    assert not d.balanced
    assert BipartitionDims(4, 4).balanced
    with pytest.raises(ValueError):
        BipartitionDims(3, 2)
    with pytest.raises(ValueError):
        BipartitionDims(0, 2)
    # bool is an int subclass, but True is not a dimension
    for n, m in ((True, True), (1, True), (True, 2), (2.0, 3)):
        with pytest.raises(ValueError, match="dimensions must be integers"):
            BipartitionDims(n, m)


def test_spectrum_validation_and_clamp():
    s = Spectrum.from_values([0.25, 0.75])
    assert s.values[0] == 0.75 and s.values[1] == 0.25
    # rounding noise just below zero is clamped, anything worse is an error
    s = Spectrum.from_values([1.0 + 1e-14, -1e-14])
    assert s.values[1] == 0.0
    with pytest.raises(ValueError):
        Spectrum.from_values([1.0001, -1e-4])
    with pytest.raises(ValueError):
        Spectrum.from_values([0.6, 0.3])
    with pytest.raises(ValueError):
        Spectrum(np.array([0.25, 0.75]))
    # nan makes every comparison False, so it must not slip past the sum check
    for build in (
        lambda: Spectrum(np.array([np.nan])),
        lambda: Spectrum([0.5, np.nan, 0.5]),
        lambda: Spectrum.from_values([0.6, np.nan, 0.4]),
    ):
        with pytest.raises(ValueError):
            build()


def test_purity_and_entropy_examples():
    s = Spectrum.from_values([0.75, 0.25])
    assert purity(s) == pytest.approx(0.625, abs=0)
    assert von_neumann_entropy(s) == pytest.approx(0.5623351446188083, abs=1e-15)
    assert von_neumann_entropy(pure_state(4)) == 0.0
    assert von_neumann_entropy(maximally_mixed(4)) == pytest.approx(math.log(4))
    assert purity(maximally_mixed(5)) == pytest.approx(0.2)


def test_entropy_ignores_zero_eigenvalues():
    assert von_neumann_entropy(Spectrum.from_values([1.0, 0.0, 0.0])) == 0.0


def test_elementary_invariants_example():
    e = elementary_invariants(Spectrum.from_values([1 / 2, 1 / 3, 1 / 6]))
    assert e == pytest.approx([1.0, 11 / 36, 1 / 36], rel=1e-14)


def test_elementary_invariants_match_polynomial_expansion():
    rng = np.random.default_rng(5)
    for _ in range(20):
        raw = rng.random(6)
        v = raw / raw.sum()
        e = elementary_invariants(np.sort(v)[::-1])
        coeffs = np.poly(v)  # x^6 - s1 x^5 + s2 x^4 - ...
        signs = (-1.0) ** np.arange(1, 7)
        assert e == pytest.approx(signs * coeffs[1:], rel=1e-12, abs=1e-15)


def test_renyi_traces_and_schmidt():
    s = Spectrum.from_values([0.5, 0.5, 0.0])
    assert renyi_traces(s, 4) == pytest.approx([0.5, 0.25, 0.125])
    assert schmidt_number(s) == 2
    assert schmidt_number(pure_state(7)) == 1
    assert schmidt_number(maximally_mixed(7)) == 7
    with pytest.raises(ValueError):
        renyi_traces(s, 1)


def test_majorization_example_and_symmetry():
    a = [0.5, 0.3, 0.2]
    b = [0.6, 0.2, 0.2]
    assert majorization_compare(a, b) is MajorizationOrder.A_MAJORIZED_BY_B
    assert majorization_compare(b, a) is MajorizationOrder.B_MAJORIZED_BY_A
    assert majorization_compare(a, a) is MajorizationOrder.EQUAL
    # classic incomparable pair: partial sums cross
    u = [0.55, 0.25, 0.20]
    w = [0.50, 0.35, 0.15]
    assert majorization_compare(u, w) is MajorizationOrder.INCOMPARABLE


def test_majorization_extremes():
    n = 6
    top = pure_state(n)
    bottom = maximally_mixed(n)
    assert majorization_compare(bottom, top) is MajorizationOrder.A_MAJORIZED_BY_B


def test_schur_consistency_of_quantifiers():
    """Mixing toward uniform is majorization-decreasing, so purity must not
    grow and entropy must not shrink along the path."""
    rng = np.random.default_rng(11)
    for _ in range(25):
        raw = rng.random(5)
        b = np.sort(raw / raw.sum())[::-1]
        t = rng.uniform(0.1, 0.9)
        a = np.sort(t * b + (1 - t) / 5)[::-1]
        order = majorization_compare(a, b)
        assert order in (MajorizationOrder.A_MAJORIZED_BY_B, MajorizationOrder.EQUAL)
        assert purity(a) <= purity(b) + 1e-12
        assert von_neumann_entropy(a) >= von_neumann_entropy(b) - 1e-12


def test_spectrum_is_immutable():
    s = maximally_mixed(3)
    with pytest.raises(ValueError):
        s.values[0] = 0.9
