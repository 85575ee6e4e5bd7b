"""Request lists and correctness checks of the three benchmark workloads.

A request is one call into a public entry point of typent: `typent.cli.main`
in-process, or a library function that has no CLI subcommand.  Entry points
are looked up on their module at call time, so the tracer's patches see them.
Each request carries a check that returns None when the output is correct and
a one-line reason when it is not; checks run outside the timed span and use
the acceptance gates' own tolerances.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from typent import cli, closedform, continuum, coulomb, fixedpurity, orthopoly
from typent.core import BipartitionDims

BLOCK = 1024  # samples per sampler block, the unit of sampler.blocks


@dataclass(frozen=True)
class CliOutput:
    rc: int
    text: str
    stderr: str


@dataclass(frozen=True)
class Request:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    samples: int = 0  # Monte Carlo samples drawn; nonzero marks a sampler request
    argv: tuple[str, ...] | None = None  # set for CLI requests


def run_cli(argv) -> CliOutput:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return CliOutput(rc, out.getvalue(), err.getvalue())


def cli_request(argv: list[str], check, samples: int = 0) -> Request:
    argv = tuple(argv)
    return Request(
        name=" ".join(argv),
        call=lambda: run_cli(argv),
        check=lambda out: _cli_check(out, check),
        samples=samples,
        argv=argv,
    )


def _cli_check(out: CliOutput, check) -> str | None:
    if out.rc != 0:
        return f"exit code {out.rc}: {out.stderr.strip()[:200]}"
    return check(out.text)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# checks


def _check_typical(text: str) -> str | None:
    d = json.loads(text)
    if not d["oracle_residual"] <= 1e-9:
        return f"oracle_residual {d['oracle_residual']:.3e} > 1e-9"
    if not _rel(d["purity_recomputed"], d["purity_formula"]) <= 1e-12:
        return "purity_recomputed disagrees with purity_formula"
    return None


def _check_isopurity(text: str) -> str | None:
    d = json.loads(text)
    if d["feasible"] is not True:
        return "isopurity request reported infeasible"
    if not _rel(d["purity_recomputed"], d["purity_target"]) <= 1e-12:
        return "purity_recomputed disagrees with purity_target"
    return None


def _check_scan(n: int, count: int) -> Callable[[str], str | None]:
    def check(text: str) -> str | None:
        rows = json.loads(text)["rows"]
        if len(rows) != count:
            return f"scan returned {len(rows)} rows, expected {count}"
        mins = [r[4] for r in rows]
        if any(b <= a for a, b in zip(mins, mins[1:])):
            return "smallest eigenvalue is not increasing along the eta scan"
        feasible = [r[5] for r in rows]
        if feasible != [m >= 0.0 for m in mins] or feasible != sorted(feasible):
            return "feasibility flags do not form one crossing"
        for _, eta, _, purity, _, _ in rows:
            if not _rel(purity, 1.0 / n + n * (n - 1) / (2.0 * eta)) <= 1e-12:
                return "scan purity column disagrees with 1/N + N(N-1)/(2 eta)"
        return None

    return check


def _check_converge(text: str) -> str | None:
    ks = [r[1] for r in json.loads(text)["rows"]]
    if any(b >= a for a, b in zip(ks, ks[1:])):
        return "KS distances do not strictly decrease"
    if not ks[-1] < 0.05:
        return f"last KS distance {ks[-1]:.4f} >= 0.05"
    return None


def _check_threshold(n: int) -> Callable[[Any], str | None]:
    def check(crit) -> str | None:
        beta = crit.eta_plus / n**3
        # the 10 % window is gate 06's large-N check at N = 200; at N = 64 the
        # finite-size value is 1.73, so smaller sizes get only the exact route
        if n >= 200 and not abs(beta - 2.0) <= 0.1 * 2.0:
            return f"eta_plus/N^3 = {beta:.4f} is not within 10 % of 2"
        h_min = orthopoly.hermite_zeros(orthopoly.HermiteSpec(n, 0.0, 1.0))[0]
        if not _rel(beta, (n * h_min) ** 2 / n**3) <= 1e-2:
            return "eta_plus/N^3 disagrees with (N h_min)^2/N^3"
        return None

    return check


def _check_saddle(n: int, target: float) -> Callable[[Any], str | None]:
    def check(sol) -> str | None:
        hermite = fixedpurity.solve_isopurity(
            fixedpurity.IsopurityProblem.from_purity(n, target)
        )
        gap = float(np.max(np.abs(sol.spectrum.values - hermite.spectrum.values)))
        if not gap <= 1e-9:
            return f"numeric saddle is {gap:.3e} from the Hermite route (> 1e-9)"
        return None

    return check


def _check_residual(value: float) -> str | None:
    return None if value <= 1e-6 else f"tricomi residual {value:.3e} > 1e-6"


def _within(name: str, mean: float, se: float, target: float) -> str | None:
    if abs(mean - target) <= 4.0 * se:
        return None
    return f"{name} mean {mean!r} is {abs(mean - target) / se:.1f} SE from {target!r}"


def _check_estimate(dims: BipartitionDims, samples: int) -> Callable[[str], str | None]:
    moments = closedform.mean_moments(dims)
    targets = {"purity": moments.mean_purity, "entropy": moments.mean_entropy}

    def check(text: str) -> str | None:
        d = json.loads(text)
        if d["count"] != samples:
            return f"estimate counted {d['count']} samples, expected {samples}"
        return _within(d["functional"], d["mean"], d["std_error"], targets[d["functional"]])

    return check


def _unit_area(rows, bins: int) -> str | None:
    if len(rows) != bins:
        return f"histogram has {len(rows)} bins, expected {bins}"
    area = math.fsum((right - left) * dens for left, right, dens in rows)
    return None if abs(area - 1.0) <= 1e-9 else f"histogram area {area!r} != 1"


def _check_hist_json(bins: int) -> Callable[[str], str | None]:
    return lambda text: _unit_area(json.loads(text)["rows"], bins)


# ---------------------------------------------------------------------------
# request builders


def _typical(n: int, m: int) -> Request:
    return cli_request(["typical", "--n", str(n), "--m", str(m)], _check_typical)


def _isopurity(n: int) -> Request:
    return cli_request(["isopurity", "--n", str(n), "--beta", "2"], _check_isopurity)


def _scan(n: int, lo: int, hi: int, count: int) -> Request:
    return cli_request(
        ["isopurity", "--n", str(n), "--scan", f"{lo},{hi},{count}"], _check_scan(n, count)
    )


def _threshold(n: int) -> Request:
    return Request(
        f"critical_threshold({n})",
        lambda: fixedpurity.critical_threshold(n),
        _check_threshold(n),
    )


def _tricomi(label: str, make_density, grid) -> Request:
    return Request(
        f"tricomi_residual({label})",
        lambda: continuum.tricomi_residual(make_density(), grid),
        _check_residual,
    )


def _semicircle_grid(beta: float, points: int) -> np.ndarray:
    a, b = continuum.semicircle(beta).support
    return np.linspace(a + 0.04 * (b - a), b - 0.04 * (b - a), points)


def _sample(n: int, m: int, samples: int, seed: int, extra: list[str]) -> Request:
    argv = ["sample", "--n", str(n), "--m", str(m), "--samples", str(samples), "--seed", str(seed)]
    dims = BipartitionDims(n, m)
    if "--histogram-bins" in extra:
        check = _check_hist_json(int(extra[extra.index("--histogram-bins") + 1]))
    else:
        check = _check_estimate(dims, samples)
    return cli_request(argv + extra, check, samples=samples)


@dataclass(frozen=True)
class Workload:
    name: str
    requests: list[Request]  # one pass, timed
    setup: Request  # the smallest request, run in fresh interpreters for setup_s
    probe: list[Request]  # traced run only: reaches the layers the pass never calls
    warmup: Request | None = None  # untimed, in-process; defaults to `setup`


def _solver_probe() -> list[Request]:
    """Small calls into every solver layer, for workloads that reach none."""
    return [
        _typical(64, 128),
        _isopurity(200),
        _isopurity(1000),
        _scan(64, 20000, 600000, 4),
        _threshold(16),
        _tricomi("MP, 3 points", continuum.marchenko_pastur, np.linspace(0.5, 3.5, 3)),
    ]


def build(name: str, seed: int) -> Workload:
    """The workload's requests; the seed sets sampler seeds and purity targets."""
    rng = random.Random(seed)
    seeds = [rng.randrange(2**32) for _ in range(4)]
    if name == "solve":
        target = 1.0 / 16.0 + rng.uniform(0.1, 0.9) * (5.0 / 64.0 - 1.0 / 16.0)
        saddle_dims = BipartitionDims(16, 16)
        requests = [
            _typical(64, 128),
            _typical(200, 400),
            _typical(1000, 1001),
            _isopurity(64),
            _isopurity(200),
            _isopurity(1000),
            _scan(64, 20000, 600000, 40),
            cli_request(["converge", "--beta", "2", "--n", "32,64,128,256"], _check_converge),
            _threshold(64),
            _threshold(200),
            Request(
                f"solve_saddle_numeric((16,16), {target!r})",
                lambda: coulomb.solve_saddle_numeric(saddle_dims, purity_target=target),
                _check_saddle(16, target),
            ),
            _tricomi("semicircle(2)", lambda: continuum.semicircle(2.0), _semicircle_grid(2.0, 21)),
            _tricomi("MP", continuum.marchenko_pastur, np.linspace(0.1, 3.9, 21)),
        ]
        probe = [_sample(64, 64, 1024, seeds[0], [])]
        # The warm-up is typical (200,400): the first numpy.linalg.solve on a
        # few-hundred-square system can take a second longer than the rest.
        return Workload(name, requests, requests[3], probe, warmup=requests[1])
    if name == "mc_dense":
        requests = [
            _sample(64, 64, 4096, seeds[0], ["--functional", "entropy"]),
            _sample(64, 256, 2048, seeds[1], ["--functional", "purity"]),
            _sample(64, 64, 4096, seeds[2], ["--histogram-bins", "64"]),
        ]
        # a two-block request starts the same thread pool and BLAS paths cheaply
        warmup = _sample(16, 16, 2048, seeds[3], [])
        return Workload(name, requests, requests[1], _solver_probe(), warmup=warmup)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("solve", "mc_dense")
