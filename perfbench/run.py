"""typent benchmark: one command per workload, end-to-end or traced.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports typent from `src/` and
installs nothing.  `--trace 0` reports the end-to-end metrics listed in
BENCHMARK.json, `--trace 1` the per-layer metrics.  Every request's output is
checked outside its timed span; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The lines before
it give each metric by name and unit, the environment, and a full report.
See perfbench/NOTES.md for the metric definitions and the baseline.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENV_VARS = ("TYPENT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
CHILD_TIMEOUT_S = 120
SETUP_REPEATS = 3
MIN_PASSES = 3  # so that pass_s is a median one slow pass cannot move
REF_REPEATS = 3  # reference-loop timings before each request
# The reference loop's median time on the 2-vCPU machine the baseline was
# measured on; pass_s is scaled to a host of that speed.
REF_NOMINAL_S = 0.022
# units of the figures printed beside the metrics that BENCHMARK.json lists
EXTRA_UNITS = {
    "samples_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "latency_tail_percentile": "%",
    "latency_count": "requests",
    "error_rate": "failed/attempted",
    "trace.pass_s": "s",
    "pass_wall_s": "s",
    "ref_loop_s": "s",
    "speed_scale": "ratio",
    "coulomb.newton_iters_constrained": "count",
}

SETUP_CHILD = """\
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
import typent.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = typent.cli.main({argv!r})
sys.stdout.write(json.dumps({{"rc": rc, "text": out.getvalue()}}) + "\\n")
sys.stdout.flush()
"""

IMPORT_CHILD = "import sys; sys.path.insert(0, {src!r}); import typent"


class Ledger:
    """Requests attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.sampler_failures = 0

    def record(self, what: str, problem: str | None, sampled: bool = False) -> bool:
        self.attempted += 1
        if problem:
            self.failures.append(f"{what}: {problem}")
            self.sampler_failures += sampled
            print(f"FAILED {what}: {problem}", file=sys.stderr)
        return problem is None


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=30,
        ).stdout.strip() or "unavailable"
    except OSError:
        commit = "unavailable"
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        **{name: os.environ.get(name) for name in ENV_VARS},
    }


# ---------------------------------------------------------------------------
# host speed


def reference_loop() -> float:
    """Time a fixed pure-Python and numpy elementwise loop, in seconds.

    It runs no typent code and no BLAS call, so what moves it is the host's
    speed, not the program's.  On a shared host that speed drifts by up to
    1.7x over tens of seconds, and interpreter-bound and memory-bound code
    slows with it.  Its arrays are freed on return, so they never add to the
    peak resident memory of a request.
    """
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    x = np.arange(1_000_000, dtype=np.float64)
    y = np.empty_like(x)
    for _ in range(4):
        np.multiply(x, 1.0000001, out=y)
        np.add(y, x, out=y)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# fresh interpreters: set-up time and the import breakdown


def _python(code: str, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )


def setup_once(request, ledger: Ledger) -> float:
    """Process start to the first result of `request`, in a fresh interpreter."""
    from workloads import CliOutput

    code = SETUP_CHILD.format(src=str(SRC), argv=list(request.argv))
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        try:
            _, err = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            raise
    if not line:
        ledger.record(f"setup {request.name}", f"child exited {child.returncode}: {err.strip()[-200:]}", True)
        return elapsed
    result = json.loads(line)
    problem = request.check(CliOutput(result["rc"], result["text"], err))
    ledger.record(f"setup {request.name}", problem, request.samples > 0)
    return elapsed


def import_breakdown() -> dict[str, float]:
    """`python -X importtime -c 'import typent'` in a fresh interpreter, in seconds."""
    log = _python(IMPORT_CHILD.format(src=str(SRC)), "-X", "importtime").stderr
    total = typent_own = 0.0
    cumulative: dict[str, float] = {}
    for line in log.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        own_us, cum_us, raw = line[len("import time:"):].split("|")
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        if depth == 0:
            total += int(cum_us) * 1e-6
        if name == "typent" or name.startswith("typent."):
            typent_own += int(own_us) * 1e-6
        cumulative.setdefault(name, int(cum_us) * 1e-6)
    return {
        "import.total_s": total,
        "import.numpy_s": cumulative.get("numpy", 0.0),
        "import.scipy_special_s": cumulative.get("scipy.special", 0.0),
        "import.scipy_integrate_s": cumulative.get("scipy.integrate", 0.0),
        "import.typent_own_s": typent_own,
    }


# ---------------------------------------------------------------------------
# in-process requests


def call(request):
    """Run one request; returns (output, latency_s, error text or None)."""
    start = time.perf_counter()
    try:
        out = request.call()
        err = None
    except Exception:
        out, err = None, traceback.format_exc(limit=3)
    return out, time.perf_counter() - start, err


def check(request, out, err, ledger: Ledger, label: str = "") -> bool:
    if err is None:
        try:
            err = request.check(out)
        except Exception:
            err = traceback.format_exc(limit=3)
    return ledger.record(f"{label}{request.name}", err, sampled=request.samples > 0)


def run_pass(
    requests, ledger: Ledger, recording=contextlib.nullcontext, refs: list[float] | None = None
) -> tuple[float, list[float], list]:
    """One closed-loop pass; its time is the sum of the request latencies.

    With `refs`, the reference loop is timed REF_REPEATS times before each
    request, outside the request's span.  Checks run after the pass.
    """
    results = []
    with recording():
        for request in requests:
            if refs is not None:
                refs.extend(reference_loop() for _ in range(REF_REPEATS))
            results.append(call(request))
    for request, (out, _, err) in zip(requests, results):
        check(request, out, err, ledger)
    lat = [lat for _, lat, _ in results]
    return math.fsum(lat), lat, [out for out, _, _ in results]


def measure(
    workload, seconds: float, ledger: Ledger, refs: list[float], min_passes: int = MIN_PASSES
) -> dict:
    """Passes over the request list until `seconds` of pass time are spent,
    and at least `min_passes`; reference-loop times go to `refs`."""
    warmup = workload.warmup or workload.setup
    out, _, err = call(warmup)  # lazy set-up and caches, untimed
    check(warmup, out, err, ledger, "warm-up ")
    passes, latencies = [], []
    per_request: dict[str, list[float]] = {r.name: [] for r in workload.requests}
    samples = sampler_s = 0.0
    while len(passes) < min_passes or math.fsum(passes) < seconds:
        pass_s, lat, _ = run_pass(workload.requests, ledger, refs=refs)
        passes.append(pass_s)
        latencies.extend(lat)
        for request, t in zip(workload.requests, lat):
            per_request[request.name].append(t)
            if request.samples:
                samples += request.samples
                sampler_s += t
    ordered = sorted(latencies)
    n = len(ordered)
    # highest percentile with at least ten requests beyond it
    rank = n - 10 if n > 10 else n
    return {
        "passes": passes,
        "pass_wall_s": statistics.median(passes),
        "latency_p50_s": statistics.median(ordered),
        "latency_tail_s": ordered[rank - 1],
        "latency_tail_percentile": 100.0 * rank / n,
        "latency_count": n,
        "samples_per_s": samples / sampler_s if sampler_s else None,
        "request_latencies_s": per_request,
    }


def traced(workload, untraced_pass_s: float, ledger: Ledger) -> dict:
    """Per-layer metrics from one traced pass, the probe, and the 1/2-worker repeats."""
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    saved = os.environ.get("TYPENT_THREADS")
    try:
        pass_s, _, outs = run_pass(workload.requests, ledger, tracer.recording)
        pass_spans = tracer.take()
        for request in workload.probe:
            with tracer.recording():
                out, _, err = call(request)
            check(request, out, err, ledger, "probe ")
        probe_spans = tracer.take()
        sampled = [r for r in workload.requests + workload.probe if r.samples]
        by_workers: dict[int, tuple[list, list]] = {}
        for workers in (1, 2):
            os.environ["TYPENT_THREADS"] = str(workers)
            outputs = []
            for request in sampled:
                with tracer.recording():
                    out, _, err = call(request)
                check(request, out, err, ledger, f"TYPENT_THREADS={workers} ")
                outputs.append(out)
            by_workers[workers] = (tracer.take(), outputs)
    finally:
        tracer.uninstall()
        if saved is None:
            os.environ.pop("TYPENT_THREADS", None)
        else:
            os.environ["TYPENT_THREADS"] = saved

    for request, one, two in zip(sampled, by_workers[1][1], by_workers[2][1]):
        # every sampler request is a CLI call: its printed text is bit-exact
        same = one is not None and two is not None and one.text == two.text
        ledger.record(f"determinism {request.name}", None if same else "1 and 2 workers differ", True)

    # The pass's own figures; the probe fills only the layers the pass never reaches.
    metrics = layer_metrics(pass_spans)
    covered_s = metrics.pop("covered_s")
    probe = layer_metrics(probe_spans)
    from_probe = [k for k, v in probe.items() if k != "covered_s" and v and not metrics[k]]
    metrics.update((k, probe[k]) for k in from_probe)
    one = layer_metrics(by_workers[1][0])
    two = layer_metrics(by_workers[2][0])
    metrics["cli.bytes_out"] = sum(len(o.text) for o in outs if hasattr(o, "text"))
    metrics["sampler.block_ms.w1"] = one["sampler.block_ms"]
    metrics["sampler.block_ms.w2"] = two["sampler.block_ms"]
    metrics["sampler.rng_gram_s.w1"] = one["sampler.wall_s"] - one["lapack.eigvalsh_busy_s"]
    metrics["sampler.failures"] = ledger.sampler_failures
    metrics["trace.pass_s"] = pass_s
    metrics["trace.overhead_s"] = pass_s - untraced_pass_s
    metrics["trace.unexplained_s"] = pass_s - covered_s
    metrics["trace.probe"] = [r.name for r in workload.probe]
    metrics["trace.from_probe"] = from_probe
    return metrics


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "typent" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no typent sources under src/ or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.NAMES}", file=sys.stderr)
        return 2
    env = environment()
    workload = workloads.build(args.workload, args.seed)
    ledger = Ledger()

    _python(IMPORT_CHILD.format(src=str(SRC)))  # compiles bytecode, warms the file cache
    report: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env}
    if args.trace:
        parts = [import_breakdown() for _ in range(3)]
        values = {k: statistics.median(p[k] for p in parts) for k in parts[0]}
        # one untraced pass right before the traced one, for the overhead
        e2e = measure(workload, 0.0, ledger, [], min_passes=1)
        values.update(traced(workload, e2e["pass_wall_s"], ledger))
        report["untraced"] = e2e
    else:
        setups = [setup_once(workload.setup, ledger) for _ in range(SETUP_REPEATS)]
        refs: list[float] = []
        values = measure(workload, args.seconds, ledger, refs)
        # One host-speed scale per run, from the reference loop's median.
        values["ref_loop_s"] = statistics.median(refs)
        values["speed_scale"] = REF_NOMINAL_S / values["ref_loop_s"]
        values["pass_s"] = values["pass_wall_s"] * values["speed_scale"]
        values["setup_s"] = statistics.median(setups)
        values["setup_samples_s"] = setups
        values["ref_samples_s"] = refs
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["import"] = import_breakdown()
    values["error_rate"] = len(ledger.failures) / ledger.attempted
    report["values"] = values
    report["failures"] = ledger.failures

    print(f"env {json.dumps(env)}")
    for key, value in report.get("import", {}).items():
        print(f"{key:36s} {value:.6f} s   (beside setup_s)")
    units = {m["name"]: m["unit"] for m in wanted}
    for key, value in values.items():
        if isinstance(value, (int, float)):
            print(f"{key:36s} {value:.6g} {units.get(key) or EXTRA_UNITS.get(key, '')}")
    if not args.trace:
        print(
            f"latency_tail_s is p{values['latency_tail_percentile']:.1f} "
            f"of {values['latency_count']} requests over {len(values['passes'])} passes"
        )
    print(f"error_rate {values['error_rate']:.6g} (failed {len(ledger.failures)} of {ledger.attempted})")
    print(f"report {json.dumps(report)}")

    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
