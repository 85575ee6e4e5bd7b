import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from typent.closedform import mean_moments
from typent.core import BipartitionDims
from typent.sampler import (
    SamplerConfig,
    _block_ranges,
    _block_rng,
    _spectra,
    estimate,
    estimate_json_dict,
    estimate_many,
    histogram_rescaled,
    rescaled_eigenvalues,
    sample_spectrum,
)


def _config(n, m, count, seed=0, **kw):
    return SamplerConfig(BipartitionDims(n, m), sample_count=count, seed=seed, **kw)


def test_reproducible_across_dispatch():
    """Same seed must give bit-identical results on every run; the stream is
    keyed by fixed-size block, and the frozen values below pin it."""
    base = estimate(_config(3, 5, 4000, seed=42), "purity")
    again = estimate(_config(3, 5, 4000, seed=42), "purity")
    assert again.mean == base.mean
    assert again.std_error == base.std_error
    assert again.count == base.count
    assert base.mean == 0.49882356269587635
    assert base.std_error == 0.0011139984509187623


def test_seed_changes_stream():
    a = estimate(_config(2, 3, 2000, seed=1), "purity")
    b = estimate(_config(2, 3, 2000, seed=2), "purity")
    assert a.mean != b.mean


def test_trace_power_one_is_exactly_unit():
    est = estimate(_config(3, 4, 3000, seed=5), "trace_power(1)")
    assert abs(est.mean - 1.0) <= 1e-13
    assert est.std_error <= 1e-13


def test_sample_spectrum_basic():
    rng = np.random.default_rng(0)
    spec = sample_spectrum(BipartitionDims(4, 7), rng)
    v = spec.values
    assert v.shape == (4,)
    # a thin wrapper over the block kernel: same draws, descending order
    same = _spectra(BipartitionDims(4, 7), np.random.default_rng(0), 1)[0]
    assert np.array_equal(v, same[::-1])
    assert abs(v.sum() - 1.0) <= 1e-12
    assert np.all(np.diff(v) <= 0.0)
    assert v.min() >= 0.0


def test_single_level_spectrum_is_trivial():
    est = estimate(_config(1, 5, 100), "purity")
    assert est.mean == pytest.approx(1.0, abs=1e-14)
    assert est.std_error <= 1e-15
    ent = estimate(_config(1, 5, 100), "entropy")
    assert ent.mean == pytest.approx(0.0, abs=1e-14)


def test_position_means_after_shuffle():
    """Randomly permuting each draw symmetrizes the positions, so every
    position mean estimates 1/N."""
    rng = np.random.default_rng(77)
    dims = BipartitionDims(3, 4)
    count = 4000
    rows = np.empty((count, 3))
    for i in range(count):
        rows[i] = rng.permutation(sample_spectrum(dims, rng).values)
    means = rows.mean(axis=0)
    ses = rows.std(axis=0, ddof=1) / np.sqrt(count)
    assert np.all(np.abs(means - 1.0 / 3.0) <= 3.0 * ses)


def test_functional_name_errors():
    cfg = _config(2, 2, 10)
    for bad in ("norm", "det_power(0)", "trace_power(-1)", "trace_power(x)"):
        with pytest.raises(ValueError):
            estimate(cfg, bad)
    with pytest.raises(ValueError):
        estimate_many(cfg, ["purity", "purity"])


def test_config_validation():
    with pytest.raises(ValueError):
        _config(2, 2, 0)
    with pytest.raises(ValueError):
        _config(2, 2, 10, seed=-1)
    with pytest.raises(ValueError):
        _config(2, 2, 10, seed=2**64)


def test_estimate_many_matches_singles():
    cfg = _config(2, 4, 3000, seed=9)
    both = estimate_many(cfg, ["purity", "det"])
    assert both["purity"] == estimate(cfg, "purity")
    assert both["det"] == estimate(cfg, "det")


def test_grid_agrees_with_closed_forms():
    """3-sigma gates across the small-dimension grid. With 36 gates a
    couple of statistical misses are expected occasionally; allow 2."""
    failures = []
    for n in (2, 3, 4):
        for m in range(n, 7):
            dims = BipartitionDims(n, m)
            mom = mean_moments(dims)
            cfg = SamplerConfig(dims, sample_count=100_000, seed=1234)
            got = estimate_many(cfg, ["purity", "entropy", "det"])
            targets = {
                "purity": mom.mean_purity,
                "entropy": mom.mean_entropy,
                "det": mom.det_moment(1),
            }
            for name, target in targets.items():
                est = got[name]
                if abs(est.mean - target) > 3.0 * est.std_error:
                    failures.append((n, m, name))
    assert len(failures) <= 2, failures


def test_rescaled_eigenvalues_pooling():
    cfg = _config(2, 3, 500, seed=3)
    mu = rescaled_eigenvalues(cfg)
    assert mu.shape == (1000,)
    assert mu.min() >= 0.0
    # per-sample trace is 1, so rescaled values sum to N per sample
    assert np.sum(mu) == pytest.approx(2.0 * 500, rel=1e-12)
    again = rescaled_eigenvalues(_config(2, 3, 500, seed=3))
    assert np.array_equal(mu, again)


def test_rescaled_eigenvalues_follow_block_order():
    """Pooled values are each block's spectra times N, concatenated in block
    order, the last block partial."""
    cfg = _config(3, 5, 2500, seed=11)
    blocks = _block_ranges(cfg.sample_count)
    assert [length for _, _, length in blocks] == [1024, 1024, 452]
    expected = np.concatenate(
        [
            (3 * _spectra(cfg.dims, _block_rng(cfg.seed, index), length)).ravel()
            for index, _, length in blocks
        ]
    )
    assert np.array_equal(rescaled_eigenvalues(cfg), expected)


def test_histogram_rescaled():
    cfg = _config(2, 2, 2000, seed=8)
    table = histogram_rescaled(cfg, bins=32)
    assert table.edges.shape == (33,)
    assert table.density.shape == (32,)
    assert table.edges[0] == 0.0
    assert table.edges[-1] >= 4.0
    widths = np.diff(table.edges)
    assert np.sum(table.density * widths) == pytest.approx(1.0, rel=1e-12)
    rows = table.rows()
    assert len(rows) == 32
    assert rows[0][0] == 0.0
    with pytest.raises(ValueError):
        histogram_rescaled(cfg, bins=9)


def test_estimate_json_dict_order():
    cfg = _config(2, 3, 50, seed=6)
    est = estimate(cfg, "purity")
    d = estimate_json_dict(cfg, est)
    assert list(d) == ["functional", "n", "m", "count", "seed", "mean", "std_error"]
    assert d["functional"] == "purity"
    assert d["count"] == 50
    assert d["seed"] == 6


def _ginibre_spectra(dims, g, count):
    """Reference kernel: ascending eigenvalues of W W*/tr(W W*) for dense
    complex Gaussian N x M matrices W, shape (count, N)."""
    n, m = dims.n, dims.m
    z = g.standard_normal((count, n, m)) + 1j * g.standard_normal((count, n, m))
    a = z @ np.conjugate(np.swapaxes(z, 1, 2))
    tr = np.einsum("bii->b", a).real
    a /= tr[:, None, None]
    return np.clip(np.linalg.eigvalsh(a), 0.0, None)


def _purity_entropy(vals):
    safe = np.where(vals > 0.0, vals, 1.0)
    return np.sum(vals * vals, axis=1), -np.sum(vals * np.log(safe), axis=1)


@pytest.mark.parametrize(
    "n, m, count, ref_count",
    [
        (2, 2, 20_000, 20_480),
        (3, 7, 20_000, 20_480),
        (64, 64, 2048, 512),
        (64, 256, 2048, 512),
    ],
)
def test_laguerre_kernel_matches_ginibre_oracle(n, m, count, ref_count):
    """The bidiagonal model has the law of the dense complex Gaussian route:
    two-sample KS on pooled eigenvalues and on per-sample purity, and purity
    and entropy means within 4 combined standard errors."""
    dims = BipartitionDims(n, m)
    new = _spectra(dims, _block_rng(2026, 0), count)
    g = np.random.default_rng(n * 1000 + m)
    # 128-sample chunks bound the dense kernel's memory at 64 x 256
    ref = np.concatenate(
        [_ginibre_spectra(dims, g, 128) for _ in range(ref_count // 128)]
    )
    assert ks_2samp(new.ravel(), ref.ravel()).pvalue > 1e-3
    new_stats, ref_stats = _purity_entropy(new), _purity_entropy(ref)
    assert ks_2samp(new_stats[0], ref_stats[0]).pvalue > 1e-3
    for x, y in zip(new_stats, ref_stats):
        se = np.sqrt(x.var(ddof=1) / x.size + y.var(ddof=1) / y.size)
        assert abs(x.mean() - y.mean()) <= 4.0 * se


def test_degenerate_dimensions():
    # N = 1: the only spectrum is [1.0], exactly
    spec = sample_spectrum(BipartitionDims(1, 5), np.random.default_rng(3))
    assert spec.values.tolist() == [1.0]
    assert np.all(rescaled_eigenvalues(_config(1, 1, 1500, seed=4)) == 1.0)
    # M = N: the smallest chi^2 variate has 2 degrees of freedom, eigenvalues
    # crowd 0 but stay inside the clamp window and come out nonnegative
    for n in (2, 5, 64):
        mu = rescaled_eigenvalues(_config(n, n, 1100, seed=n))
        assert mu.shape == (1100 * n,)
        assert mu.min() >= 0.0


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 6),
    extra=st.integers(0, 6),
    seed=st.integers(0, 2**64 - 1),
    count=st.integers(1, 2200),
)
def test_kernel_properties(n, extra, seed, count):
    dims = BipartitionDims(n, n + extra)
    for index, _, length in _block_ranges(count):
        vals = _spectra(dims, _block_rng(seed, index), length)
        assert vals.shape == (length, n)
        assert np.all(np.diff(vals, axis=1) >= 0.0)
        assert vals.min() >= 0.0
        assert np.max(np.abs(vals.sum(axis=1) - 1.0)) <= 1e-12
    cfg = SamplerConfig(dims, sample_count=count, seed=seed)
    names = ["purity", "entropy", "det"]
    base = estimate_many(cfg, names)
    assert estimate_many(cfg, names) == base
