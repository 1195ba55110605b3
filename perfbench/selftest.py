"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It checks that:

1. BENCHMARK.json lists exactly the metrics run.py emits, with the same units;
2. every workload, at smoke size, untraced and traced, prints a result line
   with exactly the keys correct/attempted/failed/metrics, no failed
   operation, every metric with its unit (or marked absent with a reason),
   the workload's own named metrics, and layer self times that account for
   the traced operation time within 10%;
3. each correctness checker flags a deliberately corrupted output;
4. an entry point that cannot be wrapped marks its metrics absent;
5. run.py exits non-zero, printing no result, in a directory that holds only
   BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

ROOT = run.ROOT
NAMED = {
    "gof_study": ("gof_tests_per_s", "gof_p50_ms"),
    "model_pipeline": ("fit_fixed_s", "fit_scan_s", "validate_s", "quantiles_s", "verify_s"),
}
COMMON_NAMED = ("setup_s", "op_p50_ms", "peak_rss_mb", "error_rate")

failures = []


def expect(condition, message):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def _run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "2", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_metric_lists():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    expect(declared == run.END_TO_END, "BENCHMARK.json end_to_end matches run.END_TO_END")
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(declared == run.PER_LAYER, "BENCHMARK.json per_layer matches run.PER_LAYER")


def check_smoke_runs():
    for workload in NAMED:
        for trace, units in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            proc = _run_bench(workload, trace)
            tag = f"{workload} trace={trace}"
            lines = proc.stdout.splitlines()
            expect(proc.returncode == 0 and lines, f"{tag}: exit 0 with output")
            if proc.returncode != 0 or not lines:
                print(proc.stderr[-2000:])
                continue
            result = json.loads(lines[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{tag}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{tag}: {result['attempted']} ops, {result['failed']} failed")
            metrics = result["metrics"]
            expect(list(metrics) == list(units), f"{tag}: every metric emitted")
            for name, unit in units.items():
                record = metrics.get(name, {})
                present = isinstance(record.get("value"), (int, float))
                absent = record.get("value") is None and bool(record.get("absent"))
                expect(record.get("unit") == unit and (present or absent),
                       f"{tag}: {name} = {record.get('value')!r} {record.get('unit')}"
                       + (f" (absent: {record['absent']})" if absent else ""))
            report = json.loads(next(ln for ln in lines if ln.startswith("report "))[7:])
            named = NAMED[workload] + COMMON_NAMED if trace == 0 else ("error_rate",)
            for name in named:
                record = report["metrics"].get(name, {})
                expect(isinstance(record.get("value"), (int, float)) and record.get("unit"),
                       f"{tag}: report {name} = {record.get('value')!r} {record.get('unit')}")
            if trace:
                accounted = metrics["trace.accounted_pct"]["value"]
                expect(90.0 <= accounted <= 110.0,
                       f"{tag}: layer self times account for {accounted:.1f}% of traced time")


def check_corruption_detected():
    import numpy as np

    import checks
    import hypoexp as hx
    import workloads

    cfg = hx.GofConfig(bootstrap_reps=99, seed=5)
    data = np.random.default_rng(5).exponential(1.0, 200)
    result = hx.gof_test(data, cfg)
    expect(not checks.gof_result(result, data, cfg, hx.gof_statistic), "gof: true result passes")
    bad = dataclasses.replace(result, p_value=result.p_value + 1.0 / (cfg.bootstrap_reps + 1))
    expect(bool(checks.gof_result(bad, data, cfg, hx.gof_statistic)),
           "gof: p-value off by 1/(B+1) is flagged")

    law = hx.EME(2, 1.0, 4.0)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        path = Path(tmp) / "fit.txt"
        hx.write_samples(path, law.sample(20_000, np.random.default_rng(6)))
        rc, out = workloads._cli(["fit", "--in", str(path), "--n", "2", "--format", "structured"])
    expect(not checks.fit_record(rc, out, law, 20_000), "fit: true record passes")
    record = json.loads(out)
    record["w"] *= 1.2
    expect(bool(checks.fit_record(rc, json.dumps(record), law, 20_000)),
           "fit: w off by 20% is flagged")

    table = workloads.percentiles(law)
    expect(not checks.percentile_table(law, table), "percentiles: true cdf passes")

    class ShiftedCdf:
        pdf = staticmethod(law.pdf)

        @staticmethod
        def cdf(x):
            return law.cdf(x) + 1e-6

    expect(bool(checks.percentile_table(ShiftedCdf(), table)),
           "percentiles: cdf off by 1e-6 is flagged")

    expected = workloads.SIZES["smoke"]["verify_checks"]
    rc, out = workloads._cli(["verify", "--sweep", "quick", "--format", "structured"])
    expect(not checks.verify_records(rc, out, expected), "verify: true records pass")
    records = [json.loads(line) for line in out.splitlines()]
    records[0]["failures"] += 1
    records[-1]["failures"] += 1
    corrupted = "\n".join(json.dumps(r) for r in records)
    expect(bool(checks.verify_records(rc, corrupted, expected)),
           "verify: a record with one failure is flagged")


def check_absent_entry_point():
    import hypoexp.fitting

    import tracing

    original = hypoexp.fitting._eme_logpdf
    del hypoexp.fitting._eme_logpdf
    tracer = tracing.Tracer()
    try:
        with tracing.installed(tracer):
            pass
    finally:
        hypoexp.fitting._eme_logpdf = original

    class NoRejections:
        pass

    values, absent = run.layer_metrics(tracer, [1.0], [1.0], {}, NoRejections(), [])
    records = run.metric_records(values, run.PER_LAYER, absent)
    nfev = records["fitting.nfev"]
    expect(nfev["value"] is None and "_eme_logpdf" in nfev.get("absent", ""),
           f"missing entry point: fitting.nfev absent ({nfev.get('absent')})")
    expect("absent" not in records["gof.test_s"], "missing entry point: unrelated metrics stay")


def check_bare_directory():
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "gof_study", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.splitlines()
    expect(proc.returncode != 0 and not (lines and lines[-1].startswith("{")),
           f"bare directory: exit {proc.returncode}, no result ({proc.stderr.strip()[:80]})")


def main():
    run._import_library()
    check_metric_lists()
    check_corruption_detected()
    check_absent_entry_point()
    check_bare_directory()
    check_smoke_runs()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
