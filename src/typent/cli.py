"""Command-line frontend: deterministic, scriptable access to the solvers.

Subcommands: typical, isopurity, sample, density, converge, table.
Exit codes: 0 success, 2 usage or domain error, 3 infeasible problem,
4 numeric non-convergence or accuracy failure.

Every output carries the run configuration echo.  JSON and CSV renderings
format all numbers identically (17 significant digits), so the two formats
are value-for-value interchangeable.  An optional key=value config file
supplies defaults; explicit flags always win.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys

import numpy as np

from . import closedform, continuum, coulomb, fixedpurity, sampler
from .core import BipartitionDims
from .errors import AccuracyError, ConvergenceError, FeasibilityError

__all__ = ["main"]

_FORMATS = ("json", "csv")

_CONFIG_CASTS = {
    "n": str,
    "m": int,
    "purity": float,
    "beta": float,
    "eta": float,
    "samples": int,
    "seed": int,
    "functional": str,
    "histogram_bins": int,
    "kind": str,
    "points": int,
    "k_max": int,
    "scan": str,
    "format": str,
    "output": str,
}


def _fmt(x) -> str:
    if isinstance(x, bool) or isinstance(x, np.bool_):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return format(x, ".17g")
    return str(x)


def _json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{inner}"{k}": {_json(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return _fmt(obj)


def _config_echo(args: argparse.Namespace) -> dict:
    skip = {"config"}
    echo = {"command": args.command}
    for key in _CONFIG_CASTS:
        if key in skip or not hasattr(args, key):
            continue
        value = getattr(args, key)
        echo[key if key != "output" else "output_path"] = value
    return echo


def _echo_comment(echo: dict) -> str:
    parts = [f"{k}={'' if v is None else _fmt(v)}" for k, v in echo.items()]
    return "# " + " ".join(parts)


def _load_config_file(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line is not key=value: {line!r}")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in _CONFIG_CASTS:
                raise ValueError(f"unknown config key {key!r}")
            out[key] = value.strip()
    return out


def _apply_config(args: argparse.Namespace) -> argparse.Namespace:
    if getattr(args, "config", None) is None:
        return args
    for key, raw in _load_config_file(args.config).items():
        if not hasattr(args, key):
            continue
        if getattr(args, key) is None:
            setattr(args, key, _CONFIG_CASTS[key](raw))
    return args


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"--{name.replace('_', '-')} is required")


def _parse_int(value: str, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


# ---------------------------------------------------------------------------
# command handlers; each returns ("report" | "table", payload)


def _run_typical(args) -> tuple[str, dict]:
    _require(args, "n", "m")
    n = _parse_int(args.n, "--n")
    dims = BipartitionDims(n, args.m)
    sol = coulomb.typical_solution(dims)
    typ = closedform.typical_quantities(dims)
    values = sol.spectrum.values
    numeric = coulomb.solve_saddle_numeric(dims)
    payload = {
        "spectrum": [float(v) for v in values],
        "xi": coulomb.multiplier_xi(dims),
        "purity_formula": typ.purity,
        "purity_recomputed": float(np.sum(values * values)),
        "invariants_s": {
            f"s_{k}": s for k, s in enumerate(typ.invariants_s_table(), start=1)
        },
        "determinant": float(np.prod(values)),
        "determinant_log": typ.determinant_log,
    }
    if dims.m > dims.n:
        inverse = closedform.trace_inverse_exact(dims.n, dims.m)
        payload["trace_inverse_formula"] = float(inverse)
        payload["trace_inverse_recomputed"] = float(np.sum(1.0 / values))
    payload["oracle_residual"] = float(
        np.max(np.abs(numeric.spectrum.values - values))
    )
    return "report", payload


def _run_isopurity(args) -> tuple[str, dict]:
    _require(args, "n")
    n = _parse_int(args.n, "--n")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    given = [name for name in ("purity", "beta", "eta") if getattr(args, name) is not None]
    if args.scan is not None:
        if given:
            raise ValueError(f"scan mode runs over eta and takes no --{given[0]}")
        parts = args.scan.split(",")
        if len(parts) != 3:
            raise ValueError("--scan wants LO,HI,COUNT over eta")
        lo, hi = float(parts[0]), float(parts[1])
        for name, bound in (("LO", lo), ("HI", hi)):
            if not math.isfinite(bound):
                raise ValueError(f"--scan {name} must be finite, got {bound}")
        count = _parse_int(parts[2], "--scan count")
        if not 0 < lo < hi or count < 2:
            raise ValueError("--scan wants 0 < LO < HI and COUNT >= 2")
        rows = fixedpurity.threshold_scan(n, np.linspace(lo, hi, count))
        return "table", {
            "columns": ["n", "eta", "beta", "purity", "min_eigenvalue", "feasible"],
            "rows": [
                [r.n, r.eta, r.beta, r.purity, r.min_eigenvalue, r.feasible]
                for r in rows
            ],
        }
    if len(given) != 1:
        raise ValueError("exactly one of --purity/--beta/--eta is required")
    if args.purity is not None:
        if not 0.0 < args.purity <= 1.0:
            raise ValueError(f"purity must lie in (0, 1], got {args.purity}")
        if args.purity <= 1.0 / n:
            raise FeasibilityError(
                f"purity {args.purity} is at or below the floor 1/{n}"
            )
        problem = fixedpurity.IsopurityProblem.from_purity(n, args.purity)
    elif args.beta is not None:
        problem = fixedpurity.IsopurityProblem.from_eta(n, args.beta * n**3)
    else:
        problem = fixedpurity.IsopurityProblem.from_eta(n, args.eta)
    sol = fixedpurity.solve_isopurity(problem)
    if not sol.feasible:
        raise FeasibilityError(
            f"no nonnegative spectrum at n={n}, eta={problem.eta:.6g} "
            f"(smallest value {sol.min_eigenvalue:.6g}); use --scan to map the crossing"
        )
    payload = {
        "spectrum": [float(v) for v in sol.values],
        "eta": problem.eta,
        "beta": problem.beta,
        "xi": problem.xi,
        "purity_target": problem.purity_target,
        "purity_recomputed": float(np.sum(sol.values**2)),
        "min_eigenvalue": sol.min_eigenvalue,
        "feasible": sol.feasible,
        "beta_plus_asymptotic": 2.0,
        "purity_critical_asymptotic": 5.0 / (4.0 * n),
    }
    return "report", payload


def _run_sample(args) -> tuple[str, dict]:
    _require(args, "n", "m", "samples")
    n = _parse_int(args.n, "--n")
    dims = BipartitionDims(n, args.m)
    config = sampler.SamplerConfig(
        dims=dims,
        sample_count=args.samples,
        seed=args.seed if args.seed is not None else 0,
    )
    if args.histogram_bins is not None:
        table = sampler.histogram_rescaled(config, args.histogram_bins)
        return "table", {
            "columns": ["bin_left", "bin_right", "density"],
            "rows": [list(row) for row in table.rows()],
        }
    functional = args.functional if args.functional is not None else "purity"
    est = sampler.estimate(config, functional)
    return "report", dict(sampler.estimate_json_dict(config, est))


def _run_density(args) -> tuple[str, dict]:
    _require(args, "kind")
    kind = {"mp": "marchenko_pastur"}.get(args.kind, args.kind)
    args.kind = kind
    if kind == "semicircle":
        _require(args, "beta")
        d = continuum.semicircle(args.beta)
    elif kind == "marchenko_pastur":
        if args.beta not in (None, 0.0):
            raise ValueError("marchenko_pastur is the beta = 0 member; drop --beta")
        d = continuum.marchenko_pastur()
    else:
        raise ValueError(f"unknown density kind {args.kind!r}")
    points = args.points if args.points is not None else 512
    xs, ys = continuum.density_grid(d, points)
    return "table", {
        "columns": ["lambda", "density"],
        "rows": [[float(x), float(y)] for x, y in zip(xs, ys)],
    }


def _run_converge(args) -> tuple[str, dict]:
    _require(args, "beta", "n")
    ns = [_parse_int(part, "--n entry") for part in args.n.split(",")]
    rows = continuum.finite_n_convergence(ns, args.beta)
    return "table", {
        "columns": ["n", "ks_distance"],
        "rows": [[r.n, r.ks_distance] for r in rows],
    }


def _run_table(args) -> tuple[str, dict]:
    _require(args, "n", "m")
    n = _parse_int(args.n, "--n")
    dims = BipartitionDims(n, args.m)
    rows = closedform.formula_table(dims, k_max=args.k_max)
    return "table", {
        "columns": ["quantity", "n", "m", "value", "formula"],
        "rows": [[r.quantity, r.n, r.m, r.value, r.formula] for r in rows],
    }


_HANDLERS = {
    "typical": _run_typical,
    "isopurity": _run_isopurity,
    "sample": _run_sample,
    "density": _run_density,
    "converge": _run_converge,
    "table": _run_table,
}


# ---------------------------------------------------------------------------
# rendering


def _flatten_report(payload: dict) -> list[tuple[str, object]]:
    rows: list[tuple[str, object]] = []
    for key, value in payload.items():
        if isinstance(value, dict):
            for sub, inner in value.items():
                rows.append((sub if sub.startswith(key) else f"{key}_{sub}", inner))
        elif isinstance(value, (list, tuple, np.ndarray)):
            for i, inner in enumerate(value, start=1):
                rows.append((f"{key}_{i}", inner))
        else:
            rows.append((key, value))
    return rows


def _render(kind: str, payload: dict, echo: dict, fmt: str) -> str:
    if fmt == "json":
        return _json({"config": echo, **payload}) + "\n"
    buf = io.StringIO()
    buf.write(_echo_comment(echo) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    if kind == "table":
        writer.writerow(payload["columns"])
        for row in payload["rows"]:
            writer.writerow([_fmt(v) for v in row])
    else:
        writer.writerow(["key", "value"])
        for key, value in _flatten_report(payload):
            writer.writerow([key, _fmt(value)])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="typent",
        description="Spectra of random bipartite pure states: typical "
        "solutions, fixed-purity families, sampling, and continuum laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=_FORMATS, default=None)
        p.add_argument("--output", default=None, help="write here instead of stdout")
        p.add_argument("--config", default=None, help="key=value defaults file")

    p = sub.add_parser("typical", help="most probable unbiased spectrum")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    common(p)

    p = sub.add_parser("isopurity", help="balanced spectrum at fixed purity")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--purity", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--scan", default=None, metavar="LO,HI,COUNT",
                   help="eta scan grid; reports the feasibility crossing")
    common(p)

    p = sub.add_parser("sample", help="Monte Carlo ensemble estimates")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--functional", default=None,
                   help="purity, entropy, det, lambda_variance, det_power(k), "
                   "trace_power(k); all but entropy and trace_power(k >= 3) "
                   "skip the eigensolve")
    p.add_argument("--histogram-bins", type=int, default=None, dest="histogram_bins",
                   help="emit the rescaled eigenvalue histogram instead")
    common(p)

    p = sub.add_parser("density", help="continuum density on a 512-point grid")
    p.add_argument("--kind", default=None, help="semicircle or marchenko_pastur")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--points", type=int, default=None)
    common(p)

    p = sub.add_parser("converge", help="finite-size distance to the semicircle")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--n", default=None, help="comma-separated sizes, ascending")
    common(p)

    p = sub.add_parser("table", help="closed-form quantities at one (n, m)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--k-max", type=int, default=None, dest="k_max")
    common(p)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args = _apply_config(args)
        fmt = args.format if args.format is not None else "json"
        if fmt not in _FORMATS:
            # a config file bypasses argparse choices
            raise ValueError(f"format must be one of {_FORMATS}, got {fmt!r}")
        kind, payload = _HANDLERS[args.command](args)
        text = _render(kind, payload, _config_echo(args), fmt)
        if args.output is not None:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FeasibilityError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (ConvergenceError, AccuracyError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
