"""Repository tools."""

import importlib.util
import inspect
import json
import math
import re
import sys
from pathlib import Path

import pytest

import hypoexp

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"
PERFBENCH = ROOT / "perfbench"


def _load(name, folder=TOOLS):
    spec = importlib.util.spec_from_file_location(name, folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blank_comment_and_docstring_lines():
    text = '''"""Module
docstring."""

# a comment
import math  # trailing comments stay code


class A:
    """One line."""

    def f(self, x):
        """Two
        lines."""
        s = """not a
        docstring"""
        return (x +
                math.pi)
'''
    # code: import, class, def, the two-line string assignment, the two-line return
    assert _load("src_lines").code_lines(text) == 7


def test_fit_sweep_runs_a_tiny_sweep_and_compares_two(tmp_path, monkeypatch):
    tool = _load("fit_sweep")
    monkeypatch.setattr(tool, "SIZES", (300,))
    monkeypatch.setattr(tool, "SEEDS", (1,))
    monkeypatch.setattr(tool, "MAX_N", 2)
    monkeypatch.setattr(sys, "path", list(sys.path))
    out = tmp_path / "sweep.jsonl"
    assert tool.main(["--src", str(ROOT / "src"), "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 10 * 2
    assert {(r["N"], r["seed"]) for r in records} == {(300, 1)}
    assert all(r["calls"] >= 1 and r["points"] == 300 * r["calls"] for r in records)
    assert all(math.isfinite(r["ll"]) and r["rate"] > 0.0 and r["w"] > 0.0 for r in records)

    listed, totals = tool.compare(records, records)
    assert listed == []
    assert totals["base"] == totals["change"]
    assert totals["base"]["fits"] == 20 and totals["base"]["raised"] == 0
    # a fit lower by more than 1e-9 |ll|, one that now raises, one lower by less
    change = [dict(r) for r in records]
    change[0]["ll"] -= 2e-9 * abs(change[0]["ll"])
    change[1] = {**{k: change[1][k] for k in ("family", "N", "seed", "n", "calls", "points")},
                 "error": "ConvergenceError: stopped"}
    change[2]["ll"] -= 0.5e-9 * abs(change[2]["ll"])
    listed, totals = tool.compare(records, change)
    assert [line.split(":")[0] for line in listed] == ["lower", "raises on one side"]
    assert totals["change"]["raised"] == 1
    (tmp_path / "change.jsonl").write_text("".join(json.dumps(r) + "\n" for r in change))
    assert tool.main(["--compare", str(out), str(tmp_path / "change.jsonl")]) == 1
    assert tool.main(["--compare", str(out), str(out)]) == 0


def _run_output(workload, seed, metrics, trace=0, failed=0, commit="base", report_metrics=None):
    """Canned standard output of one perfbench/run.py run."""
    env = {"git_commit": commit, "nproc": 2}
    report = {"workload": workload, "seed": seed, "trace": trace, "ops": 100,
              "metrics": report_metrics or {}}
    result = {"correct": failed == 0, "attempted": 100, "failed": failed,
              "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}
    return "\n".join(["env " + json.dumps(env), "report " + json.dumps(report),
                      json.dumps(result)]) + "\n"


_SPEC = [{"name": "op_p90_ms", "unit": "ms", "better": "lower"},
         {"name": "ops_per_s", "unit": "1/s", "better": "higher"}]


def test_bench_pairs_summarizes_paired_runs_per_workload_and_side():
    base = [_run_output("gof", s, {"op_p90_ms": p, "ops_per_s": r})
            for s, p, r in [(1, 30.0, 10.0), (2, 28.0, 12.0), (3, 32.0, 11.0)]]
    change = [_run_output("gof", s, {"op_p90_ms": p, "ops_per_s": r}, commit="change")
              for s, p, r in [(1, 20.0, 9.0), (2, 21.0, 13.0), (3, 33.0, 14.0)]]
    # an unpaired seed, a traced run and a one-sided workload do not count
    change.append(_run_output("gof", 4, {"op_p90_ms": 1.0, "ops_per_s": 99.0}, commit="change"))
    base.append(_run_output("gof", 3, {"other": 1.0}, trace=1))
    change.append(_run_output("other", 1, {"op_p90_ms": 5.0, "ops_per_s": 1.0}, failed=2))
    out = _load("bench_pairs").summarize(base, change, _SPEC)

    assert out["env"] == {"base": {"git_commit": "base", "nproc": 2},
                          "change": {"git_commit": "change", "nproc": 2}}
    assert list(out["workloads"]) == ["gof"]  # "other" ran on one side only
    gof = out["workloads"]["gof"]
    assert gof["pairs"] == 3 and gof["seeds"] == [1, 2, 3]
    assert gof["failed"] == {"base": 0, "change": 0}
    p90 = gof["metrics"]["op_p90_ms"]
    assert p90["base"] == {"median": 30.0, "q1": 29.0, "q3": 31.0}
    assert p90["change"] == {"median": 21.0, "q1": 20.5, "q3": 27.0}
    assert p90["change_better_in"] == 2 and p90["better"] == "lower"
    # higher is better: 9 < 10 loses, 13 > 12 and 14 > 11 win
    assert out["workloads"]["gof"]["metrics"]["ops_per_s"]["change_better_in"] == 2


def test_bench_pairs_summarizes_the_report_phases():
    def report(verify_s, fit_s, setup_s=0.2):
        return {"verify_s": {"value": verify_s, "unit": "s"},
                "fit_fixed_s": {"value": fit_s, "unit": "s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "op_p50_ms": {"value": 900.0, "unit": "ms"}}

    spec = [*_SPEC, {"name": "setup_s", "unit": "s", "better": "lower"}]
    metrics = {"op_p90_ms": 1000.0, "ops_per_s": 1.0, "setup_s": 0.2}
    base = [_run_output("pipe", s, metrics, report_metrics=report(v, f))
            for s, v, f in [(1, 0.20, 0.30), (2, 0.22, 0.31), (3, 0.18, 0.29)]]
    change = [_run_output("pipe", s, metrics, commit="change", report_metrics=report(v, f))
              for s, v, f in [(1, 0.10, 0.31), (2, 0.12, 0.30), (3, 0.19, 0.30)]]
    phases = _load("bench_pairs").summarize(base, change, spec)["workloads"]["pipe"]["phases"]
    # times in seconds only, and not the end-to-end setup_s
    assert sorted(phases) == ["fit_fixed_s", "verify_s"]
    verify = phases["verify_s"]
    assert verify["base"] == pytest.approx({"median": 0.20, "q1": 0.19, "q3": 0.21})
    assert verify["change"]["median"] == 0.12
    assert verify["change_better_in"] == 2 and verify["better"] == "lower"
    assert phases["fit_fixed_s"]["change_better_in"] == 1
    # a phase that one paired run lacks is left out
    change[0] = _run_output("pipe", 1, metrics, commit="change",
                            report_metrics={"fit_fixed_s": {"value": 0.3, "unit": "s"}})
    phases = _load("bench_pairs").summarize(base, change, spec)["workloads"]["pipe"]["phases"]
    assert sorted(phases) == ["fit_fixed_s"]


def test_bench_pairs_writes_the_summary_file(tmp_path):
    tool = _load("bench_pairs")
    metrics = {"setup_s": 0.1, "op_p90_ms": 20.0, "peak_rss_mb": 85.0}
    (tmp_path / "b.out").write_text(_run_output("gof", 1, metrics))
    (tmp_path / "c.out").write_text(_run_output("gof", 1, dict(metrics, op_p90_ms=15.0)))
    tool.main(["--base", str(tmp_path / "b.out"), "--change", str(tmp_path / "c.out"),
               "--out", str(tmp_path / "bench.json")])
    out = json.loads((tmp_path / "bench.json").read_text())
    # the metrics are BENCHMARK.json's end-to-end list; one pair is its own spread
    assert sorted(out["workloads"]["gof"]["metrics"]) == ["op_p90_ms", "peak_rss_mb", "setup_s"]
    assert out["workloads"]["gof"]["metrics"]["op_p90_ms"]["change"]["q1"] == 15.0
    assert out["workloads"]["gof"]["metrics"]["op_p90_ms"]["change_better_in"] == 1


def _entry_objects(tracing):
    """The object behind every name the benchmark's tracer wraps."""
    objects = []
    for owner_path, attr, _, _ in tracing._entry_points():
        owner = tracing._resolve(owner_path)
        objects.append(owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
    return objects


def test_benchmark_tracer_wraps_every_entry_point_and_restores_it(monkeypatch):
    # a rename in src/ must fail here, not zero a layer metric of a traced run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = _load("tracing", PERFBENCH)
    before = _entry_objects(tracing)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert tracer.absent == {}
        during = _entry_objects(tracing)
    assert tracer.absent == {}
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, _entry_objects(tracing)))


def test_benchmark_reads_only_names_that_hypoexp_exports():
    names = set()
    for path in PERFBENCH.glob("*.py"):
        names.update(re.findall(r"\bhx\.([A-Za-z_]\w*)", path.read_text()))
    assert names  # the workloads call the library as ``hx``
    assert sorted(n for n in names if not hasattr(hypoexp, n)) == []


def test_all_lists_exactly_the_public_names():
    # a stale __all__ entry, left by a removed export, makes
    # ``from hypoexp import *`` raise; a missing one hides a public name
    public = {name for name, value in vars(hypoexp).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(hypoexp.__all__) == sorted(public | {"__version__"})
    exec("from hypoexp import *", {})
