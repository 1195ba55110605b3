"""Repository tools."""

import importlib.util
import inspect
import json
import re
from pathlib import Path

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


def _run_output(workload, seed, metrics, trace=0, failed=0, commit="base"):
    """Canned standard output of one perfbench/run.py run."""
    env = {"git_commit": commit, "nproc": 2}
    report = {"workload": workload, "seed": seed, "trace": trace, "ops": 100, "metrics": {}}
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
