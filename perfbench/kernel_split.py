"""Time the steps of one sampler block with a replica of its kernel.

    python3 perfbench/kernel_split.py --n 64 --m 64

The sampler draws each block of 1024 spectra in one call, so the benchmark's
spans cannot split RNG, Gram product and eigvalsh.  This script repeats the
kernel's numpy steps one by one in a single thread of control, first checking
that the replica returns exactly the program's eigenvalues for the same seed.
Not part of a benchmark run.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from typent import sampler  # noqa: E402
from typent.core import BipartitionDims  # noqa: E402

BLOCK = 1024
SEED = 1
REPEATS = 5


def block_steps(n: int, m: int, seed: int) -> tuple[dict[str, float], np.ndarray]:
    times = {}
    t = time.perf_counter()
    g = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    z = g.standard_normal((BLOCK, n, m)) + 1j * g.standard_normal((BLOCK, n, m))
    times["rng_s"] = time.perf_counter() - t
    t = time.perf_counter()
    a = z @ np.conjugate(np.swapaxes(z, 1, 2))
    times["gram_s"] = time.perf_counter() - t
    t = time.perf_counter()
    tr = np.einsum("bii->b", a).real
    a /= tr[:, None, None]
    times["normalize_s"] = time.perf_counter() - t
    t = time.perf_counter()
    vals = np.linalg.eigvalsh(a)
    times["eigvalsh_s"] = time.perf_counter() - t
    return times, np.clip(vals, 0.0, None)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=64)
    parser.add_argument("--m", type=int, default=64)
    args = parser.parse_args()

    _, vals = block_steps(args.n, args.m, SEED)
    config = sampler.SamplerConfig(BipartitionDims(args.n, args.m), BLOCK, seed=SEED)
    program = sampler.rescaled_eigenvalues(config, workers=1)
    if not np.array_equal(program, (args.n * vals).ravel()):
        print("error: the replica does not reproduce the sampler's eigenvalues", file=sys.stderr)
        return 1
    runs = [block_steps(args.n, args.m, SEED)[0] for _ in range(REPEATS)]
    print(f"one {BLOCK}-sample block at {args.n}x{args.m}, median of {REPEATS}:")
    for key in runs[0]:
        print(f"  {key:22s} {statistics.median(r[key] for r in runs):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
