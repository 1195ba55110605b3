"""Benchmark entry point.

    python3 perfbench/run.py --workload {gof_study,model_pipeline}
                             --seed N --seconds T --trace {0,1} [--size {full,smoke}]

Run from the root of a checkout: the library is imported from ``src/`` of the
checkout that holds this file, never from an installed copy.  The launcher
caps BLAS/OpenMP threads at one before numpy is imported; the workload is a
closed loop driven by one client in this process.

``--trace 0`` times the operations untraced and reports the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced operations and
reports the per-layer metrics: span times and counts per traced operation,
import times, and the tracing overhead.

Output: an ``env`` line (machine and code identity), a ``report`` line with
the workload's own metric names, the traced call tree on stderr, and as the
last stdout line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing
from tracing import IDENTITY_FUNCTIONS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# hypoexp modules whose cumulative import time is reported; "hypoexp" is the
# package itself, which imports every other module.
IMPORTED_MODULES = (
    "hypoexp", "_util", "errors", "distributions", "special", "chains", "fitting",
    "gof", "_ddouble", "identities", "io", "cli",
)

PIPELINE_PHASES = ("fit_fixed_s", "fit_scan_s", "validate_s", "quantiles_s", "verify_s")


def _per_layer_units():
    units = {
        "gof.test_s": "s", "gof.statistic_s": "s", "gof.bootstrap_s": "s",
        "gof.replicates": "count",
        "gof.rejections.exp": "count", "gof.rejections.lognormal": "count",
        "gof.rejections.weibull": "count",
        "fitting.fit_eme_s": "s", "fitting.self_s": "s", "fitting.nfev": "count",
        "fitting.nit": "count",
        "distributions.eme_logpdf_s": "s", "distributions.eme_logpdf_points": "count",
        "distributions.eme_cdf_vector_s": "s", "distributions.hypo_cdf_vector_s": "s",
        "distributions.cdf_scalar_calls": "count", "distributions.cdf_scalar_s": "s",
        "chains.simulate_s": "s", "chains.validate_self_s": "s",
        "io.read_samples_s": "s", "io.read_samples_values": "count", "cli.self_s": "s",
        "identities.run_self_s": "s",
    }
    for fn in IDENTITY_FUNCTIONS:
        units[f"identities.{fn}_s"] = "s"
        units[f"identities.{fn}_calls"] = "count"
    units.update({"ddouble.ops": "count", "ddouble.s": "s"})
    for module in IMPORTED_MODULES:
        units[f"setup.import.{module}_s"] = "s"
    for phase in PIPELINE_PHASES:
        units[f"pipeline.{phase}"] = "s"
    units.update({"trace.overhead_pct": "%", "trace.accounted_pct": "%"})
    return units


PER_LAYER = _per_layer_units()


# ---------------------------------------------------------------------------
# environment and set-up
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """Commit of the checkout, read from .git without running git (which
    would search parent directories); None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy

    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": THREAD_CAPS,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,  # for information only, never gated
    }


def _fresh_import(extra_flags=()):
    """Run a fresh interpreter that imports hypoexp.cli; (seconds, stderr)."""
    cmd = [sys.executable, *extra_flags, "-c", "import hypoexp.cli"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed: {proc.stderr.strip()}")
    return elapsed, proc.stderr


class SetupTimer:
    """Wall time from a fresh interpreter to ``import hypoexp.cli`` done.

    The launcher has imported the library before the first sample, so the
    bytecode cache is warm.  The samples are spread over the run, between
    operations, so that one stretch of a slow machine does not set their
    median."""

    def __init__(self, seconds):
        self.samples = []
        self.interval = seconds / SETUP_REPEATS

    def between_ops(self, measured_s):
        if len(self.samples) < SETUP_REPEATS and measured_s >= self.interval * len(self.samples):
            self.samples.append(_fresh_import()[0])

    def median(self):
        while len(self.samples) < SETUP_REPEATS:
            self.samples.append(_fresh_import()[0])
        return statistics.median(self.samples)


def import_times():
    """Median cumulative ``-X importtime`` seconds per hypoexp module."""
    samples = {}
    for _ in range(IMPORTTIME_REPEATS):
        _, stderr = _fresh_import(("-X", "importtime"))
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = (part.strip() for part in line[12:].split("|"))
            if name == "hypoexp" or name.startswith("hypoexp."):
                module = name.split(".", 1)[-1]
                samples.setdefault(module, []).append(float(cumulative) * 1e-6)
    return {module: statistics.median(values) for module, values in samples.items()}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def p90(values):
    """Inclusive 90th percentile; a single value is its own percentile."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end_metrics(setup_s, op_times):
    """The gated operation time is the 90th percentile, not the median: on a
    shared host the operation times of one run fall into a fast and a slow
    band that come and go for seconds to minutes, so the run median jumps
    between the bands from run to run while the 90th percentile stays in
    the slow one.  The median is in the ``report`` line."""
    return {
        "setup_s": setup_s,
        "op_p90_ms": 1e3 * p90(op_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(tracer, traced_times, untraced_times, imports, workload, phases):
    """Per-layer metrics as {name: (value, [entry points it depends on])},
    and {entry point: reason} for the entry points that are absent.

    Times and counts are per traced operation.  Identity-function times are
    self times (their nested identity calls and DD operators excluded), so
    the layer self times add up to the traced operation time."""
    n = len(traced_times)
    per_op = (lambda v: v / n) if n else (lambda v: 0.0)
    t = tracer
    cdf = ["distributions.eme_cdf", "distributions.hypo_cdf"]
    out = {
        "gof.test_s": (per_op(t.span_total_s("gof.test")), ["gof.test"]),
        "gof.statistic_s": (per_op(t.span_total_s("gof.statistic")), ["gof.statistic"]),
        "gof.bootstrap_s": (per_op(t.span_self_s("gof.test")), ["gof.test", "gof.statistic"]),
        "gof.replicates": (per_op(t.counts.get("gof.replicates", 0)), ["gof.test"]),
        "fitting.fit_eme_s": (per_op(t.span_total_s("fitting.fit_eme")), ["fitting.fit_eme"]),
        "fitting.self_s": (per_op(t.span_self_s("fitting.fit_eme")),
                           ["fitting.fit_eme", "distributions.eme_logpdf"]),
        "fitting.nfev": (per_op(t.span_calls("distributions.eme_logpdf")),
                         ["distributions.eme_logpdf"]),
        "fitting.nit": (per_op(t.counts.get("fitting.nit", 0)), ["fitting.optimize"]),
        "distributions.eme_logpdf_s": (per_op(t.span_total_s("distributions.eme_logpdf")),
                                       ["distributions.eme_logpdf"]),
        "distributions.eme_logpdf_points": (
            per_op(t.counts.get("distributions.eme_logpdf_points", 0)),
            ["distributions.eme_logpdf"]),
        "distributions.eme_cdf_vector_s": (
            per_op(t.span_total_s("distributions.eme_cdf_vector")), cdf[:1]),
        "distributions.hypo_cdf_vector_s": (
            per_op(t.span_total_s("distributions.hypo_cdf_vector")), cdf[1:]),
        "distributions.cdf_scalar_calls": (
            per_op(t.span_calls("distributions.cdf_scalar")), cdf),
        "distributions.cdf_scalar_s": (per_op(t.span_total_s("distributions.cdf_scalar")), cdf),
        "chains.simulate_s": (per_op(t.span_total_s("chains.simulate")), ["chains.simulate"]),
        "chains.validate_self_s": (per_op(t.span_self_s("chains.validate")),
                                   ["chains.validate", *cdf]),
        "io.read_samples_s": (per_op(t.span_total_s("io.read_samples")), ["io.read_samples"]),
        "io.read_samples_values": (per_op(t.counts.get("io.read_samples_values", 0)),
                                   ["io.read_samples"]),
        "cli.self_s": (per_op(t.span_self_s("cli.main")),
                       ["cli.main", "io.read_samples", "fitting.fit_eme",
                        "identities.run_identity_checks"]),
    }
    identity_spans = [f"identities.{fn}" for fn in IDENTITY_FUNCTIONS]
    for span in identity_spans:
        out[f"{span}_s"] = (per_op(t.span_self_s(span)), [span, "ddouble.__add__"])
        out[f"{span}_calls"] = (per_op(t.span_calls(span)), [span])
    out["identities.run_self_s"] = (
        per_op(t.span_self_s("identities.run_identity_checks")),
        ["identities.run_identity_checks", *identity_spans, "ddouble.__add__"])
    out["ddouble.ops"] = (per_op(t.span_calls("ddouble.op") + t.dd_nested),
                          ["ddouble.__add__"])
    out["ddouble.s"] = (per_op(t.span_total_s("ddouble.op")), ["ddouble.__add__"])

    for family in ("exp", "lognormal", "weibull"):
        count = workload.rejections(family) if hasattr(workload, "rejections") else 0
        out[f"gof.rejections.{family}"] = (count, [])
    absent = dict(tracer.absent)
    for module in IMPORTED_MODULES:
        out[f"setup.import.{module}_s"] = (imports.get(module), [f"import:{module}"])
        if module not in imports:
            absent[f"import:{module}"] = f"hypoexp.{module} not imported by `import hypoexp.cli`"
    for phase in PIPELINE_PHASES:
        values = [p[phase] for p in phases if phase in p]
        out[f"pipeline.{phase}"] = (statistics.median(values) if values else 0.0, [])

    traced = statistics.median(traced_times) if traced_times else 0.0
    untraced = statistics.median(untraced_times) if untraced_times else 0.0
    out["trace.overhead_pct"] = (100.0 * (traced / untraced - 1.0) if untraced else 0.0, [])
    total = sum(traced_times)
    out["trace.accounted_pct"] = (100.0 * tracer.total_self_s() / total if total else 0.0, [])
    return out, absent


def metric_records(values, units, absent=None):
    """{name: {"value", "unit"}} in the order of ``units``; a metric whose
    entry point could not be wrapped carries "absent" with the reason."""
    records = {}
    for name, unit in units.items():
        if absent is None:
            records[name] = {"value": values[name], "unit": unit}
            continue
        value, deps = values[name]
        reasons = [absent[d] for d in deps if d in absent]
        if reasons:
            records[name] = {"value": None, "unit": unit, "absent": "; ".join(reasons)}
        else:
            records[name] = {"value": value, "unit": unit}
    return records


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["gof_study", "model_pipeline"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--size", choices=["full", "smoke"], default="full",
                        help="smoke: small inputs for the benchmark's self-test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _import_library():
    """Put the checkout's src/ first on the path and import from it only."""
    if not (SRC / "hypoexp" / "__init__.py").is_file():
        raise SystemExit(f"error: no hypoexp sources under {SRC}; run from a full checkout")
    os.environ.update(THREAD_CAPS)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))
    import hypoexp

    if Path(hypoexp.__file__).resolve().parent != (SRC / "hypoexp").resolve():
        raise SystemExit(f"error: hypoexp imported from {hypoexp.__file__}, not {SRC}")


def _run_loop(workload, seconds, trace, tracer, setup_timer):
    """Closed loop until the next operation would take the measured time
    past ``seconds``; the untimed checks do not count against it.

    With tracing, odd operations run traced and even ones untraced, so both
    medians come from the same run and their difference is the overhead."""
    untraced_times, traced_times, phases, measured = [], [], [], []
    failed = 0
    min_ops = max(workload.min_ops, 2 if trace else 1)
    i = 0
    while True:
        traced = trace and i % 2 == 1
        op_time = out = None  # drop the previous output before the next operation
        try:
            with tracing.installed(tracer) if traced else contextlib.nullcontext():
                op_start = time.perf_counter()
                out = workload.run(i)
                op_time = time.perf_counter() - op_start
            problems = workload.check(i, out)
        except Exception:
            problems = [traceback.format_exc()]
        if op_time is not None:
            measured.append(op_time)
        if problems:
            failed += 1
            for problem in problems:
                print(f"op {i}: {problem}", file=sys.stderr)
        elif traced:
            traced_times.append(op_time)
        else:
            untraced_times.append(op_time)
            if isinstance(out, dict) and "phases" in out:
                phases.append(out["phases"])
        i += 1
        if setup_timer is not None:
            setup_timer.between_ops(sum(measured))
        if i >= min_ops and (
            not measured or sum(measured) + statistics.median(measured) > seconds
        ):
            break
    return untraced_times, traced_times, phases, i, failed


def main(argv=None):
    args = _parse_args(argv)
    _import_library()

    import workloads

    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    imports = import_times() if args.trace else {}
    setup_timer = None if args.trace else SetupTimer(args.seconds)

    tracer = tracing.Tracer()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.size, Path(workdir))
        workload.warmup()
        untraced, traced, phases, attempted, failed = _run_loop(
            workload, args.seconds, args.trace, tracer, setup_timer)

    print("op_times_s untraced " + " ".join(f"{t:.4f}" for t in untraced), file=sys.stderr)
    if args.trace:
        print("op_times_s traced " + " ".join(f"{t:.4f}" for t in traced), file=sys.stderr)
    if not (traced if args.trace else untraced):
        print(f"error: all {attempted} operations failed", file=sys.stderr)
        return 1
    named = {"error_rate": (failed / attempted, "ratio")}
    if args.trace:
        for line in tracer.render_tree():
            print(line, file=sys.stderr)
        values, absent = layer_metrics(tracer, traced, untraced, imports, workload, phases)
        metrics = metric_records(values, PER_LAYER, absent)
    else:
        setup_s = setup_timer.median()
        metrics = metric_records(end_to_end_metrics(setup_s, untraced), END_TO_END)
        named["setup_s"] = (setup_s, "s")
        named["op_p50_ms"] = (1e3 * statistics.median(untraced), "ms")
        named.update(workload.report(untraced, phases))
        named["peak_rss_mb"] = (metrics["peak_rss_mb"]["value"], "MB")
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "ops": attempted, "size": args.size,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()}}
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
