import itertools
import tracemalloc
from collections.abc import Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from typent import sampler
from typent.closedform import mean_moments
from typent.continuum import ks_distance, marchenko_pastur
from typent.core import BipartitionDims
from typent.errors import AccuracyError
from typent.sampler import (
    SamplerConfig,
    _Block,
    _block_ranges,
    _block_rng,
    _functional,
    _log_det,
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
    keyed by fixed-size block, and the frozen values below pin it: purity on
    the closed form over the draws, entropy on the dsterf eigenvalues."""
    cfg = _config(3, 5, 4000, seed=42)
    base = estimate(cfg, "purity")
    again = estimate(_config(3, 5, 4000, seed=42), "purity")
    assert again.mean == base.mean
    assert again.std_error == base.std_error
    assert again.count == base.count
    assert base.mean == 0.49882356269587635
    assert base.std_error == 0.0011139984509187623
    ent = estimate(cfg, "entropy")
    assert ent.mean == 0.8365280165548628
    assert ent.std_error == 0.0016882252650603207


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
    same = _Block(BipartitionDims(4, 7), np.random.default_rng(0), 1).eigenvalues[0]
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


@pytest.mark.parametrize(
    "field, value",
    [("sample_count", 5.5), ("sample_count", True), ("sample_count", "10"),
     ("seed", 1.0), ("seed", False), ("seed", None)],
)
def test_config_rejects_non_integer_counts_and_seeds(field, value):
    """A float count used to fail deep in the block loop, and True drew one
    sample; both are refused when the config is built."""
    kw = {"sample_count": 10, "seed": 0, field: value}
    with pytest.raises(ValueError, match=field):
        SamplerConfig(BipartitionDims(2, 2), **kw)
    ok = SamplerConfig(BipartitionDims(2, 2), np.int64(10), seed=np.uint64(3))
    assert estimate(ok, "purity").count == 10


EIGENSOLVE_FREE = [
    "purity",
    "det",
    "lambda_variance",
    "det_power(3)",
    "trace_power(1)",
    "trace_power(2)",
]


def test_estimate_many_matches_singles():
    """A functional's route is fixed by its name: asking for eigenvalue
    functionals alongside never moves the bits of an eigensolve-free one."""
    cfg = _config(2, 4, 3000, seed=9)
    names = EIGENSOLVE_FREE + ["entropy", "trace_power(3)"]
    together = estimate_many(cfg, names)
    for name in names:
        assert together[name] == estimate(cfg, name), name
    assert together["trace_power(2)"].mean == together["purity"].mean


@pytest.mark.parametrize(
    "n, m", [(1, 5), (2, 2), (3, 7), (16, 16), (64, 64), (64, 256)]
)
def test_closed_forms_match_eigenvalues_of_the_same_draws(n, m):
    dims = BipartitionDims(n, m)
    blk = _Block(dims, _block_rng(2027, n * 1000 + m), 1024)
    v = blk.eigenvalues
    by_eigenvalues = {
        "purity": np.sum(v * v, axis=1),
        "trace_power(2)": np.sum(v * v, axis=1),
        "lambda_variance": np.mean((v - 1.0 / n) ** 2, axis=1),
    }
    for name, want in by_eigenvalues.items():
        got = _functional(name)(blk)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), name
    # dsterf's absolute error on eigenvalues near 0 limits this comparison
    prod = np.prod(v, axis=1)
    ok = np.isfinite(prod) & (prod > 0.0)
    assert ok.any()
    log_det = _log_det(blk)
    assert np.max(np.abs(log_det[ok] - np.log(prod[ok]))) <= 1e-9
    assert np.array_equal(_functional("det")(blk), np.exp(log_det))
    assert np.array_equal(_functional("det_power(2)")(blk), np.exp(2 * log_det))


def test_only_eigenvalue_functionals_call_dsterf(monkeypatch):
    cfg = _config(5, 8, 1500, seed=3)
    calls = []
    real = sampler.dsterf

    def counting(d, e):
        calls.append(len(d))
        return real(d, e)

    monkeypatch.setattr(sampler, "dsterf", counting)
    estimate(cfg, "entropy")
    assert len(calls) == cfg.sample_count
    calls.clear()
    estimate(cfg, "trace_power(3)")
    assert len(calls) == cfg.sample_count
    # the histogram's Sturm route diagonalizes only the few spectra that may
    # hold the largest eigenvalue, which fixes the top edge
    for hist_cfg in (cfg, _config(8, 8, 5000, seed=3)):
        calls.clear()
        histogram_rescaled(hist_cfg, bins=16)
        assert len(calls) <= 8, len(calls)

    def refuse(d, e):
        raise AssertionError("dsterf called")

    monkeypatch.setattr(sampler, "dsterf", refuse)
    for name in EIGENSOLVE_FREE:
        assert estimate(cfg, name).count == cfg.sample_count
    assert set(estimate_many(cfg, EIGENSOLVE_FREE)) == set(EIGENSOLVE_FREE)
    with pytest.raises(AssertionError, match="dsterf called"):
        estimate(cfg, "entropy")


def test_block_ranges_are_lazy():
    """The blocks of a run are produced one at a time, so a huge sample count
    allocates nothing up front."""
    assert isinstance(_block_ranges(2500), Iterator)
    three = [(0, 0, 1024), (1, 1024, 1024), (2, 2048, 452)]
    assert list(_block_ranges(2500)) == three
    head = list(itertools.islice(_block_ranges(10**18), 3))
    assert head == [(0, 0, 1024), (1, 1024, 1024), (2, 2048, 1024)]


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
    blocks = list(_block_ranges(cfg.sample_count))
    assert [length for _, _, length in blocks] == [1024, 1024, 452]
    expected = np.concatenate(
        [
            3 * _Block(cfg.dims, _block_rng(cfg.seed, index), length).eigenvalues.ravel()
            for index, _, length in blocks
        ]
    )
    assert np.array_equal(rescaled_eigenvalues(cfg), expected)


def test_rescaled_eigenvalues_follow_marchenko_pastur_at_ratio_quarter():
    """At 64 x 256 the pooled N*lambda follow MP(c = N/M = 1/4)."""
    mu = rescaled_eigenvalues(_config(64, 256, 1024, seed=7))
    assert ks_distance(mu, marchenko_pastur(0.25)) < 0.01


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


def _numpy_histogram(cfg, bins):
    """The reference: np.histogram over every pooled eigenvalue at once."""
    mu = rescaled_eigenvalues(cfg)
    edges = np.linspace(0.0, max(4.0, mu.max()), bins + 1)
    density, edges = np.histogram(mu, edges, density=True)
    return edges, density


def _assert_same_bits(table, reference):
    edges, density = reference
    assert table.edges.tobytes() == edges.tobytes()
    assert table.density.tobytes() == density.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 8),
    extra=st.sampled_from([0, 0, 1, 3, 9]),
    count=st.integers(1, 3100),
    bins=st.integers(10, 130),
    seed=st.integers(0, 2**64 - 1),
)
def test_histogram_matches_numpy_on_the_pooled_eigenvalues(n, extra, count, bins, seed):
    """Edges and density equal np.histogram(density=True) on
    rescaled_eigenvalues bit for bit (no eigenvalue of these draws lies
    within rounding of a bin edge), from few to many bins per eigenvalue and
    across block boundaries."""
    cfg = _config(n, n + extra, count, seed=seed)
    _assert_same_bits(histogram_rescaled(cfg, bins), _numpy_histogram(cfg, bins))


@pytest.mark.parametrize(
    "n, m, count, bins",
    [(64, 64, 2500, 64), (64, 256, 2500, 64), (64, 64, 1100, 330)],
)
def test_histogram_matches_numpy_at_64(n, m, count, bins):
    cfg = _config(n, m, count, seed=n + m)
    _assert_same_bits(histogram_rescaled(cfg, bins), _numpy_histogram(cfg, bins))


def _tamper_row_five(monkeypatch, t11):
    """Decouple T_11 of row 5 in every block and set it to t11(block), so
    T_11 / tr(T) is an eigenvalue of that row's T/tr(T)."""
    real = sampler._blocks

    def tampered(config):
        for blk in real(config):
            blk.off_sq[5, 0] = 0.0
            blk.diag[5, 0] = t11(blk)
            yield blk

    monkeypatch.setattr(sampler, "_blocks", tampered)


def _on_the_clamp_by_rounding(blk):
    """T_11 - tr * _CLAMP is exactly 0, so a Sturm count at _CLAMP itself sees
    no eigenvalue below it, while dsterf's T_11 / tr falls below _CLAMP.
    The mantissa of tr is one that rounds this way; powers of 2 keep it."""
    exponent = np.frexp(blk.trace[5])[1]
    blk.trace[5] = t = np.ldexp(float.fromhex("0x1.2309ep+0"), exponent)
    assert t * sampler._CLAMP / t < sampler._CLAMP
    return t * sampler._CLAMP


@pytest.mark.parametrize(
    "t11",
    [lambda blk: -0.01 * blk.trace[5], lambda blk: 2 * sampler._CLAMP * blk.trace[5],
     _on_the_clamp_by_rounding],
    ids=["far", "near", "rounding"],
)
def test_histogram_rejects_eigenvalues_below_the_clamp(monkeypatch, t11):
    """A spectrum that dsterf gives an eigenvalue below the clamp window
    raises AccuracyError with the same value as rescaled_eigenvalues."""
    _tamper_row_five(monkeypatch, t11)
    cfg = _config(6, 9, 1500, seed=2)
    with pytest.raises(AccuracyError) as ref:
        rescaled_eigenvalues(cfg)
    for bins in (16, 400):
        with pytest.raises(AccuracyError) as err:
            histogram_rescaled(cfg, bins)
        assert err.value.value == ref.value.value < sampler._CLAMP


def test_histogram_clips_eigenvalues_inside_the_clamp_window(monkeypatch):
    _tamper_row_five(monkeypatch, lambda blk: 0.5 * sampler._CLAMP * blk.trace[5])
    cfg = _config(6, 9, 1500, seed=2)
    _assert_same_bits(histogram_rescaled(cfg, 16), _numpy_histogram(cfg, 16))


def test_histogram_memory_does_not_grow_with_sample_count():
    """The two passes regenerate each block from its stream, so the peak of
    traced allocations is one block's work, whatever the sample count."""

    def peak(count):
        tracemalloc.start()
        try:
            histogram_rescaled(_config(8, 8, count, seed=1), bins=32)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2048), peak(65536)
    # the pooled eigenvalues alone would take 65536 * 8 * 8 bytes = 4 MiB
    assert large <= small + 64 * 1024, (small, large)


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
    new = _Block(dims, _block_rng(2026, 0), count).eigenvalues
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
        vals = _Block(dims, _block_rng(seed, index), length).eigenvalues
        assert vals.shape == (length, n)
        assert np.all(np.diff(vals, axis=1) >= 0.0)
        assert vals.min() >= 0.0
        assert np.max(np.abs(vals.sum(axis=1) - 1.0)) <= 1e-12
    cfg = SamplerConfig(dims, sample_count=count, seed=seed)
    names = ["purity", "entropy", "det", "lambda_variance", "det_power(2)"]
    base = estimate_many(cfg, names)
    assert estimate_many(cfg, names) == base
