"""Monte Carlo over reduced spectra of Haar-random bipartite pure states.

A sample is the eigenvalue vector of W W*/tr(W W*) for an N x M matrix W of
independent complex Gaussian entries, which realizes exactly the reduced
state of a uniformly random pure state on an NM-dimensional space.  W W* is
the beta = 2 Laguerre ensemble, so the kernel draws it through the
Dumitriu-Edelman bidiagonal model instead: B is lower bidiagonal with
squared diagonal chi^2 variates of 2M, 2(M-1), ..., 2(M-N+1) degrees of
freedom and squared subdiagonal chi^2 variates of 2(N-1), ..., 2, and the
tridiagonal T = B B^T has the eigenvalue law of W W*.  Its trace, the sum of
all 2N-1 draws, has the law of tr(W W*); T/tr(T) is diagonalized by LAPACK
dsterf.  A spectrum costs O(N) variates and O(N^2) work, not O(NM) variates
and a dense eigensolve.

Determinism contract: the same (seed, dims, sample_count) gives the same
bits.  Each fixed-size block of samples is drawn from its own counter-based
stream keyed by (seed, block index), and blocks run one after another on the
calling thread, their partial statistics folded in block order.  (Each
dsterf call holds the GIL, so a thread pool would not run blocks in
parallel.)
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.linalg.lapack import dsterf

from .core import BipartitionDims, Spectrum
from .errors import AccuracyError, ConvergenceError

__all__ = [
    "SamplerConfig",
    "EnsembleEstimate",
    "HistogramTable",
    "sample_spectrum",
    "estimate",
    "estimate_many",
    "rescaled_eigenvalues",
    "histogram_rescaled",
    "estimate_json_dict",
]

_BLOCK = 1024
_CLAMP = -1e-13
_POWER_RE = re.compile(r"^(det_power|trace_power)\((\d+)\)$")


@dataclass(frozen=True)
class SamplerConfig:
    """Run description: what to sample, how many times, from which seed."""

    dims: BipartitionDims
    sample_count: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {self.sample_count}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class EnsembleEstimate:
    mean: float
    std_error: float
    count: int
    functional_name: str


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    key = np.array([seed, block_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _spectra(dims: BipartitionDims, g: np.random.Generator, count: int) -> np.ndarray:
    """Ascending eigenvalues of `count` sampled spectra, shape (count, N)."""
    n, m = dims.n, dims.m
    a = g.chisquare(2.0 * np.arange(m, m - n, -1), size=(count, n))
    b = g.chisquare(2.0 * np.arange(n - 1, 0, -1), size=(count, n - 1))
    # T = B B^T: diagonal a_i + b_(i-1), off-diagonal sqrt(a_i b_i)
    vals = a.copy()
    vals[:, 1:] += b
    tr = vals.sum(axis=1)[:, None]
    vals /= tr
    off = np.sqrt(a[:, :-1] * b) / tr
    if n > 1:
        # each row of `vals` is replaced by its eigenvalues, ascending
        for d, e in zip(vals, off):
            d[:], info = dsterf(d, e)
            if info != 0:
                raise ConvergenceError(f"LAPACK dsterf failed with info={info}")
    low = float(vals.min())
    if low < _CLAMP:
        raise AccuracyError(
            "sampled spectrum has an eigenvalue below the clamp window",
            value=low,
        )
    np.clip(vals, 0.0, None, out=vals)
    return vals


def sample_spectrum(dims: BipartitionDims, rng: np.random.Generator) -> Spectrum:
    """One spectrum drawn from the given generator."""
    return Spectrum.from_values(_spectra(dims, rng, 1)[0])


def _functional(dims: BipartitionDims, name: str) -> Callable[[np.ndarray], np.ndarray]:
    """Map a functional name to a row-wise evaluator on (B, N) eigenvalues."""
    if name == "purity":
        return lambda v: np.sum(v * v, axis=1)
    if name == "entropy":

        def _entropy(v: np.ndarray) -> np.ndarray:
            safe = np.where(v > 0.0, v, 1.0)
            return -np.sum(v * np.log(safe), axis=1)

        return _entropy
    if name == "det":
        return lambda v: np.prod(v, axis=1)
    if name == "lambda_variance":
        center = 1.0 / dims.n
        return lambda v: np.mean((v - center) ** 2, axis=1)
    match = _POWER_RE.match(name)
    if match is not None:
        k = int(match.group(2))
        if k < 1:
            raise ValueError(f"power must be >= 1 in {name!r}")
        if match.group(1) == "det_power":
            return lambda v: np.prod(v, axis=1) ** k
        return lambda v: np.sum(v**k, axis=1)
    raise ValueError(
        f"unknown functional {name!r}; expected purity, entropy, det, "
        "lambda_variance, det_power(k), or trace_power(k)"
    )


def _block_ranges(count: int) -> list[tuple[int, int, int]]:
    """(block_index, start, length) triples covering range(count)."""
    out = []
    index = 0
    start = 0
    while start < count:
        length = min(_BLOCK, count - start)
        out.append((index, start, length))
        index += 1
        start += length
    return out


def _merge(
    a: tuple[int, np.ndarray, np.ndarray], b: tuple[int, np.ndarray, np.ndarray]
) -> tuple[int, np.ndarray, np.ndarray]:
    """Chan combination of (count, mean, M2) partials, per functional."""
    ca, ma, sa = a
    cb, mb, sb = b
    c = ca + cb
    delta = mb - ma
    mean = ma + delta * (cb / c)
    m2 = sa + sb + delta * delta * (ca * cb / c)
    return c, mean, m2


def _blocks(config: SamplerConfig) -> Iterator[np.ndarray]:
    """Spectra of the run, one (length, N) array per block, in block order."""
    for block_index, _, length in _block_ranges(config.sample_count):
        yield _spectra(config.dims, _block_rng(config.seed, block_index), length)


def estimate_many(
    config: SamplerConfig, functionals: Sequence[str]
) -> dict[str, EnsembleEstimate]:
    """Single-pass streaming estimates of several functionals at once."""
    names = list(functionals)
    if len(set(names)) != len(names):
        raise ValueError("duplicate functional names")
    fns = [_functional(config.dims, name) for name in names]

    merged: list[tuple[int, np.ndarray, np.ndarray]] | None = None
    for vals in _blocks(config):
        partials = []
        for fn in fns:
            x = fn(vals)
            mean = float(np.mean(x))
            m2 = float(np.sum((x - mean) ** 2))
            partials.append((len(x), np.float64(mean), np.float64(m2)))
        if merged is None:
            merged = partials
        else:
            merged = [_merge(m, p) for m, p in zip(merged, partials)]
    assert merged is not None
    result = {}
    for name, (count, mean, m2) in zip(names, merged):
        if count > 1:
            std_error = float(np.sqrt(m2 / (count - 1)) / np.sqrt(count))
        else:
            std_error = 0.0
        result[name] = EnsembleEstimate(
            mean=float(mean), std_error=std_error, count=count, functional_name=name
        )
    return result


def estimate(config: SamplerConfig, functional: str) -> EnsembleEstimate:
    """Streaming mean and standard error of one spectral functional."""
    return estimate_many(config, [functional])[functional]


def rescaled_eigenvalues(config: SamplerConfig) -> np.ndarray:
    """All sampled eigenvalues times N, pooled in block order."""
    return np.concatenate([(config.dims.n * vals).ravel() for vals in _blocks(config)])


@dataclass(frozen=True)
class HistogramTable:
    """Unit-area histogram of rescaled eigenvalues."""

    edges: np.ndarray
    density: np.ndarray

    def rows(self) -> list[tuple[float, float, float]]:
        return [
            (float(self.edges[i]), float(self.edges[i + 1]), float(self.density[i]))
            for i in range(len(self.density))
        ]


def histogram_rescaled(config: SamplerConfig, bins: int) -> HistogramTable:
    """Histogram of mu = N*lambda over uniform bins on [0, max(4, observed))."""
    if bins < 10:
        raise ValueError(f"bins must be >= 10, got {bins}")
    mu = rescaled_eigenvalues(config)
    top = max(4.0, float(mu.max()))
    edges = np.linspace(0.0, top, bins + 1)
    density, _ = np.histogram(mu, bins=edges, density=True)
    return HistogramTable(edges=edges, density=density)


def estimate_json_dict(config: SamplerConfig, est: EnsembleEstimate) -> dict:
    """Estimate as a plain dict in the documented export key order."""
    return {
        "functional": est.functional_name,
        "n": config.dims.n,
        "m": config.dims.m,
        "count": est.count,
        "seed": config.seed,
        "mean": est.mean,
        "std_error": est.std_error,
    }
