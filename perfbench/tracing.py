"""Spans around typent's public functions, recorded from outside the package.

`Tracer.install` replaces each traced function on its defining module and on
every module that bound the name at import time (`from .orthopoly import
hermite_zeros`), so calls across modules land in their spans.  A span records
its layer, its parent and its thread.  Spans opened in the sampler's worker
threads take the client thread's innermost open span as their parent.  Spans
are kept in memory and aggregated into per-layer metrics by `layer_metrics`.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any

import numpy as np

from typent import cli, closedform, continuum, coulomb, fixedpurity, orthopoly, sampler

from workloads import BLOCK


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    thread: int
    start: float
    end: float = 0.0
    info: Any = None

    @property
    def dur(self) -> float:
        return self.end - self.start


def _degree(args, kwargs):
    return args[0].degree


def _samples(args, kwargs):
    return args[0].sample_count


def _constrained(args, kwargs):
    return kwargs.get("purity_target", args[1] if len(args) > 1 else None) is not None


# (layer, defining module, attribute, modules that bound the name, info extractor)
TRACED = [
    ("cli", cli, "main", (), None),
    ("orthopoly", orthopoly, "laguerre_zeros", (coulomb,), _degree),
    ("orthopoly", orthopoly, "hermite_zeros", (coulomb, fixedpurity), _degree),
    ("orthopoly", orthopoly, "tridiagonal_eigenvalues", (), None),
    ("fixedpurity", fixedpurity, "critical_threshold", (), None),
    ("fixedpurity", fixedpurity, "solve_isopurity", (continuum,), None),
    ("fixedpurity", fixedpurity, "threshold_scan", (), None),
    ("coulomb", coulomb, "solve_saddle_numeric", (), _constrained),
    ("coulomb", coulomb, "typical_solution", (), None),
    ("coulomb", coulomb, "hessian", (), None),
    ("closedform", closedform, "typical_quantities", (), None),
    ("continuum", continuum, "finite_n_convergence", (), None),
    ("continuum", continuum, "tricomi_residual", (), None),
    ("quad", continuum, "quad", (), None),
    ("sampler", sampler, "estimate_many", (), _samples),
    ("sampler", sampler, "estimate", (), _samples),
    ("sampler", sampler, "rescaled_eigenvalues", (), _samples),
    ("sampler", sampler, "histogram_rescaled", (), _samples),
    ("lapack", np.linalg, "eigvalsh", (), None),
    ("lapack", np.linalg, "solve", (), None),
    ("lapack", np.linalg, "cholesky", (), None),
]


class Tracer:
    """Records spans while `enabled`; thread-safe for the sampler's workers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._client = threading.get_ident()
        self._client_stack: list[Span] = []
        self._local = threading.local()
        self._restore: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn, info):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            opener = stack or tracer._client_stack
            span = Span(
                id=next(tracer._ids),
                parent=opener[-1].id if opener else None,
                layer=layer,
                name=fn.__name__,
                thread=threading.get_ident(),
                start=0.0,
                info=info(args, kwargs) if info else None,
            )
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append(span)

        return traced

    def install(self) -> None:
        """Wrap every name in TRACED; a module that no longer binds the
        defining module's object is left alone."""
        for layer, owner, attr, importers, info in TRACED:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapped = self._wrap(layer, original, info)
            for module in (owner, *importers):
                if getattr(module, attr, None) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    @contextlib.contextmanager
    def recording(self):
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    def take(self) -> list[Span]:
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


# ---------------------------------------------------------------------------
# aggregation


def _ancestors(span: Span, by_id: dict[int, Span]):
    while span.parent is not None:
        span = by_id[span.parent]
        yield span


ZEROS_SIZES = (64, 200, 1000)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one traced phase.

    A span's self time is its duration minus its direct children in the same
    thread; children in the sampler's worker threads overlap their parent.
    """
    by_id = {s.id: s for s in spans}
    own = {s.id: s.dur for s in spans}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            own[parent.id] -= s.dur

    def pick(layer, *names):
        return [s for s in spans if s.layer == layer and (not names or s.name in names)]

    def under(s: Span, layer: str, *names) -> Span | None:
        """The outermost ancestor of s in this layer (and among names)."""
        found = None
        for a in _ancestors(s, by_id):
            if a.layer == layer and (not names or a.name in names):
                found = a
        return found

    def total(ss):
        return math.fsum(s.dur for s in ss)

    def self_sum(ss):
        return math.fsum(own[s.id] for s in ss)

    m: dict[str, float] = {}
    cli_spans = pick("cli")
    m["cli.calls"] = len(cli_spans)
    m["cli.self_s"] = self_sum(cli_spans)

    zeros = pick("orthopoly", "laguerre_zeros", "hermite_zeros")
    m["orthopoly.calls"] = len(zeros)
    m["orthopoly.self_s"] = self_sum(pick("orthopoly"))
    m["orthopoly.tridiag_s"] = total(pick("orthopoly", "tridiagonal_eigenvalues"))
    m["orthopoly.polish_s"] = self_sum(zeros)
    for n in ZEROS_SIZES:
        at_n = [s.dur for s in zeros if s.info == n]
        m[f"orthopoly.zeros_ms.n{n}"] = 1e3 * statistics.median(at_n) if at_n else 0.0

    thresholds = pick("fixedpurity", "critical_threshold")
    solves = [s for s in pick("orthopoly", "hermite_zeros") if under(s, "fixedpurity", "critical_threshold")]
    m["fixedpurity.threshold_s"] = total(thresholds)
    m["fixedpurity.threshold_hermite_solves"] = len(solves) / len(thresholds) if thresholds else 0
    m["fixedpurity.isopurity_s"] = total(
        s for s in pick("fixedpurity", "solve_isopurity") if not under(s, "fixedpurity")
    )
    m["fixedpurity.scan_s"] = total(pick("fixedpurity", "threshold_scan"))

    top_solves = [
        s for s in pick("coulomb", "solve_saddle_numeric")
        if not under(s, "coulomb", "solve_saddle_numeric")
    ]
    owners = (under(s, "coulomb", "solve_saddle_numeric") for s in pick("coulomb", "hessian"))
    hessians = Counter(o.id for o in owners if o is not None)
    # the typical requests' unconstrained solves do not depend on the seed;
    # each solve ends with one Hessian for the definiteness check
    free = [s for s in top_solves if not s.info]
    iters = sum(hessians[s.id] - 1 for s in free)
    m["coulomb.solve_s"] = total(top_solves)
    m["coulomb.newton_iters"] = iters
    m["coulomb.iter_ms"] = 1e3 * total(free) / iters if iters else 0.0
    m["coulomb.typical_s"] = total(pick("coulomb", "typical_solution"))
    m["coulomb.newton_iters_constrained"] = sum(hessians[s.id] - 1 for s in top_solves if s.info)

    m["closedform.self_s"] = self_sum(pick("closedform"))
    quads = pick("quad")
    m["continuum.self_s"] = self_sum(pick("continuum"))
    m["continuum.quad_calls"] = len(quads)
    m["continuum.quad_s"] = total(quads)

    runs = [s for s in pick("sampler") if not under(s, "sampler")]
    blocks = sum(-(-s.info // BLOCK) for s in runs)
    m["sampler.calls"] = len(runs)
    m["sampler.wall_s"] = total(runs)
    m["sampler.blocks"] = blocks
    m["sampler.block_ms"] = 1e3 * total(runs) / blocks if blocks else 0.0

    eig = pick("lapack", "eigvalsh")
    m["lapack.eigvalsh_calls"] = len(eig)
    m["lapack.eigvalsh_busy_s"] = total(eig)
    m["lapack.solve_calls"] = len(pick("lapack", "solve"))
    m["lapack.solve_s"] = total(pick("lapack", "solve"))
    m["lapack.cholesky_s"] = total(pick("lapack", "cholesky"))

    m["covered_s"] = total(s for s in spans if s.parent is None)
    return m
