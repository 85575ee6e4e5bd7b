"""Monte Carlo over reduced spectra of Haar-random bipartite pure states.

A sample is the eigenvalue vector of W W*/tr(W W*) for an N x M matrix W of
independent complex Gaussian entries, which realizes exactly the reduced
state of a uniformly random pure state on an NM-dimensional space.  W W* is
the beta = 2 Laguerre ensemble, so the kernel draws it through the
Dumitriu-Edelman bidiagonal model instead: B is lower bidiagonal with
squared diagonal chi^2 variates a of 2M, 2(M-1), ..., 2(M-N+1) degrees of
freedom and squared subdiagonal chi^2 variates b of 2(N-1), ..., 2, and the
tridiagonal T = B B^T has the eigenvalue law of W W*.  Its trace, the sum of
all 2N-1 draws, has the law of tr(W W*).

A functional's route is fixed by its name.  tr T^2 = sum d^2 + 2 sum a_i b_i
(d = a + (0, b) the diagonal of T) and det T = prod a, so purity,
lambda_variance, det, det_power(k) and trace_power(k <= 2) cost O(N) per
sample.  Entropy, trace_power(k >= 3), rescaled_eigenvalues and
sample_spectrum diagonalize T/tr(T) with LAPACK dsterf, O(N^2) work per
spectrum.  The histogram needs only how many eigenvalues lie below each bin
edge, which one O(N) Sturm sign count of T per edge gives; it runs dsterf
only on the few spectra that may hold the largest eigenvalue (its top edge)
or one below the clamp window.

Determinism contract: the same (seed, dims, sample_count) gives the same
bits.  Each fixed-size block of samples is drawn from its own counter-based
stream keyed by (seed, block index), and blocks run one after another on the
calling thread, their partial statistics folded in block order.  (Each
dsterf call holds the GIL, so a thread pool would not run blocks in
parallel.)
"""

from __future__ import annotations

import numbers
import re
from dataclasses import dataclass
from functools import cached_property
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
# margin between Sturm counts and dsterf values of T/tr(T), relative to its
# largest eigenvalue (<= 1): far above the rounding of either
_GUARD = 1e-10
# Sturm work arrays hold at most this many (row, edge) cells
_CELLS = 1 << 15
_POWER_RE = re.compile(r"^(det_power|trace_power)\((\d+)\)$")


@dataclass(frozen=True)
class SamplerConfig:
    """Run description: what to sample, how many times, from which seed."""

    dims: BipartitionDims
    sample_count: int
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("sample_count", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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


class _Block:
    """One block of draws, one row per sample; T/tr(T) is diagonalized on
    first use of `eigenvalues` only."""

    def __init__(self, dims: BipartitionDims, g: np.random.Generator, count: int):
        n, m = dims.n, dims.m
        self.a = g.chisquare(2.0 * np.arange(m, m - n, -1), size=(count, n))
        b = g.chisquare(2.0 * np.arange(n - 1, 0, -1), size=(count, n - 1))
        # T = B B^T: diagonal a_i + b_(i-1), off-diagonal sqrt(a_i b_i)
        self.diag = self.a.copy()
        self.diag[:, 1:] += b
        self.off_sq = self.a[:, :-1] * b
        self.trace = self.diag.sum(axis=1)

    def solve(self, rows=slice(None)) -> np.ndarray:
        """Ascending dsterf eigenvalues of T/tr(T) for the given rows, unclipped."""
        tr = self.trace[rows, None]
        vals = self.diag[rows] / tr
        off = np.sqrt(self.off_sq[rows]) / tr
        if vals.shape[1] > 1:
            # each row of `vals` is replaced by its eigenvalues, ascending
            for d, e in zip(vals, off):
                d[:], info = dsterf(d, e)
                if info != 0:
                    raise ConvergenceError(f"LAPACK dsterf failed with info={info}")
        return vals

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of every T/tr(T), shape (count, N)."""
        vals = self.solve()
        _check_clamp(float(vals.min()))
        np.clip(vals, 0.0, None, out=vals)
        return vals

    def count_below(self, rows, x: float | np.ndarray) -> np.ndarray:
        """Eigenvalues of T/tr(T) below each x, per row, shape (rows, x columns).

        x broadcasts against (rows, 1).  The count is the number of negative
        pivots of the LDL^T factorization of T - x tr(T) (a Sturm sign count);
        a zero pivot counts as +0, so the next pivot is -inf and counted.
        """
        diag, off_sq = self.diag[rows], self.off_sq[rows]
        shift = self.trace[rows, None] * x
        q = diag[:, :1] - shift
        neg = q < 0.0
        count = neg.astype(np.int32)
        scratch = np.empty_like(q)
        with np.errstate(divide="ignore", over="ignore"):
            for i in range(1, diag.shape[1]):
                np.divide(off_sq[:, i - 1 : i], q, out=q)
                np.subtract(diag[:, i : i + 1], shift, out=scratch)
                np.subtract(scratch, q, out=q)
                np.less(q, 0.0, out=neg)
                count += neg
        return count


def _check_clamp(low: float) -> None:
    if low < _CLAMP:
        raise AccuracyError(
            "sampled spectrum has an eigenvalue below the clamp window",
            value=low,
        )


def sample_spectrum(dims: BipartitionDims, rng: np.random.Generator) -> Spectrum:
    """One spectrum drawn from the given generator."""
    return Spectrum.from_values(_Block(dims, rng, 1).eigenvalues[0])


def _purity(blk: _Block) -> np.ndarray:
    """tr(T^2)/tr(T)^2 from the draws."""
    tr_sq = np.sum(blk.diag**2, axis=1) + 2.0 * np.sum(blk.off_sq, axis=1)
    return tr_sq / blk.trace**2


def _lambda_variance(blk: _Block) -> np.ndarray:
    """Mean of (lambda - 1/N)^2, centred: (tr(T^2) - tr(T)^2/N)/(N tr(T)^2)."""
    n = blk.diag.shape[1]
    dev = blk.diag - blk.trace[:, None] / n
    spread = np.sum(dev * dev, axis=1) + 2.0 * np.sum(blk.off_sq, axis=1)
    return spread / (n * blk.trace**2)


def _log_det(blk: _Block) -> np.ndarray:
    """ln det(T/tr T) = sum ln a - N ln tr(T), so tr(T)^N never overflows."""
    return np.sum(np.log(blk.a), axis=1) - blk.a.shape[1] * np.log(blk.trace)


def _entropy(blk: _Block) -> np.ndarray:
    v = blk.eigenvalues
    safe = np.where(v > 0.0, v, 1.0)
    return -np.sum(v * np.log(safe), axis=1)


def _functional(name: str) -> Callable[[_Block], np.ndarray]:
    """Map a functional name to a row-wise evaluator on a block of draws."""
    if name == "purity":
        return _purity
    if name == "entropy":
        return _entropy
    if name == "det":
        return lambda blk: np.exp(_log_det(blk))
    if name == "lambda_variance":
        return _lambda_variance
    match = _POWER_RE.match(name)
    if match is not None:
        k = int(match.group(2))
        if k < 1:
            raise ValueError(f"power must be >= 1 in {name!r}")
        if match.group(1) == "det_power":
            return lambda blk: np.exp(k * _log_det(blk))
        if k == 1:
            return lambda blk: np.ones(len(blk.trace))
        if k == 2:
            return _purity
        return lambda blk: np.sum(blk.eigenvalues**k, axis=1)
    raise ValueError(
        f"unknown functional {name!r}; expected purity, entropy, det, "
        "lambda_variance, det_power(k), or trace_power(k)"
    )


def _block_ranges(count: int) -> Iterator[tuple[int, int, int]]:
    """(block_index, start, length) triples covering range(count), lazily."""
    for index, start in enumerate(range(0, count, _BLOCK)):
        yield index, start, min(_BLOCK, count - start)


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


def _blocks(config: SamplerConfig) -> Iterator[_Block]:
    """Draws of the run, one block per stream, in block order."""
    for block_index, _, length in _block_ranges(config.sample_count):
        yield _Block(config.dims, _block_rng(config.seed, block_index), length)


def estimate_many(
    config: SamplerConfig, functionals: Sequence[str]
) -> dict[str, EnsembleEstimate]:
    """Single-pass streaming estimates of several functionals at once."""
    names = list(functionals)
    if len(set(names)) != len(names):
        raise ValueError("duplicate functional names")
    fns = [_functional(name) for name in names]

    merged: list[tuple[int, np.ndarray, np.ndarray]] | None = None
    for blk in _blocks(config):
        partials = []
        for fn in fns:
            x = fn(blk)
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
    n = config.dims.n
    return np.concatenate([(n * blk.eigenvalues).ravel() for blk in _blocks(config)])


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


def _top_edge(config: SamplerConfig) -> float:
    """max(4, N * largest sampled eigenvalue), bit for bit as from dsterf.

    A row is dropped once a Sturm count proves that its largest eigenvalue
    sits below the running maximum, or below one of another row, by more
    than the guard; dsterf runs only on the rows that are left.
    """
    n = config.dims.n
    top = 4.0
    for blk in _blocks(config):
        lo = top / n
        below = blk.count_below(slice(None), lo * (1.0 - _GUARD))
        rows = np.flatnonzero(below[:, 0] < n)
        # lambda_max <= sqrt(tr (T/tr T)^2) bounds the shared bisection above;
        # it stops once dsterf on the rows left costs less than more steps
        hi = float(np.sqrt(_purity(blk)[rows].max())) if len(rows) else lo
        while len(rows) > 4 and hi > lo * (1.0 + _GUARD):
            t = 0.5 * (lo + hi)
            below = blk.count_below(rows, np.array([t * (1.0 - _GUARD), t]))
            if np.any(below[:, 1] < n):
                rows = rows[below[:, 0] < n]
                lo = t
            else:
                hi = t
        if len(rows):
            top = max(top, float(n * blk.solve(rows)[:, -1].max()))
    return top


def _sturm_counts(blk: _Block, edges: np.ndarray) -> np.ndarray:
    """Per-bin counts of N*lambda over the block, as np.histogram gives them."""
    n, size = blk.diag.shape[1], len(blk.trace)
    # every row that dsterf could put below _CLAMP is handed to it
    x = np.concatenate(([_CLAMP + _GUARD], edges[1:-1] / n))
    step = max(1, _CELLS // len(x))
    below = np.zeros(len(x), dtype=np.intp)
    for start in range(0, size, step):
        rows = slice(start, start + step)
        count = blk.count_below(rows, x)
        bad = np.flatnonzero(count[:, 0])
        if len(bad):
            _check_clamp(float(blk.solve(start + bad).min()))
        below += count.sum(axis=0)
    # eigenvalues in [_CLAMP, 0) are clipped to 0, so every one is >= edges[0]
    return np.diff(below[1:], prepend=0, append=size * n)


def histogram_rescaled(config: SamplerConfig, bins: int) -> HistogramTable:
    """Histogram of mu = N*lambda over uniform bins on [0, max(4, observed)).

    Equal to np.histogram(rescaled_eigenvalues(config), edges, density=True)
    except where an eigenvalue lies within rounding of an interior bin edge,
    with memory bounded by one block: the draws are regenerated from their
    streams in a second pass that counts into the edges the first one fixed.
    Like rescaled_eigenvalues, it raises AccuracyError when dsterf puts an
    eigenvalue below the clamp window.
    """
    if bins < 10:
        raise ValueError(f"bins must be >= 10, got {bins}")
    edges = np.linspace(0.0, _top_edge(config), bins + 1)
    counts = np.zeros(bins, dtype=np.intp)
    for blk in _blocks(config):
        counts += _sturm_counts(blk, edges)
    density = counts / np.diff(edges) / counts.sum()
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
