"""Summary of paired benchmark runs of two commits.

Reads saved standard output of ``perfbench/run.py --trace 0`` runs for a base
and a changed side, pairs the runs of each workload by seed, and writes one
JSON file: each side's ``env`` line, the number of pairs, and the median and
quartiles of every end-to-end metric declared in BENCHMARK.json and of every
phase time of the workload's ``report`` line (a metric in seconds there, such
as ``verify_s``), per workload and side, with the number of pairs in which the
change is better; a phase is better when lower:

    python tools/bench_pairs.py --base base/*.out --change change/*.out \\
        --out BENCH.json
"""

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_run(text):
    """(env, report, result) of one run's standard output: the ``env`` and
    ``report`` lines and the last line, a JSON object."""
    lines = text.strip().splitlines()
    prefixed = {}
    for line in lines:
        tag, _, rest = line.partition(" ")
        if tag in ("env", "report"):
            prefixed[tag] = json.loads(rest)
    return prefixed["env"], prefixed["report"], json.loads(lines[-1])


def spread(values):
    """Median and quartiles (inclusive method) of a list of numbers."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(values, better):
    """Each side's spread of one metric's paired values, and the number of
    pairs in which the change is better."""
    sign = 1.0 if better == "lower" else -1.0
    return {
        **{side: spread(v) for side, v in values.items()},
        "change_better_in": sum(
            sign * (c - b) < 0.0 for b, c in zip(values["base"], values["change"])),
    }


def summarize(base, change, end_to_end):
    """Summary of two sides' runs, each a list of run outputs (text).

    ``end_to_end`` is BENCHMARK.json's list of end-to-end metrics (name,
    unit, better).  Traced runs carry no end-to-end metrics and are skipped;
    only seeds run on both sides count, and only phases that every paired
    run reports."""
    sides = {"base": base, "change": change}
    spec_names = {metric["name"] for metric in end_to_end}
    envs, runs = {}, {}
    for side, texts in sides.items():
        for text in texts:
            env, report, result = parse_run(text)
            if report["trace"]:
                continue
            envs.setdefault(side, env)
            runs.setdefault(report["workload"], {}).setdefault(side, {})[report["seed"]] = (
                result, report)
    workloads = {}
    for workload, by_side in sorted(runs.items()):
        seeds = sorted(set(by_side.get("base", {})) & set(by_side.get("change", {})))
        if not seeds:
            continue
        paired = {side: [by_side[side][s][0] for s in seeds] for side in sides}
        reports = {side: [by_side[side][s][1]["metrics"] for s in seeds] for side in sides}
        every = [r for rs in reports.values() for r in rs]
        phases = sorted(name for name, m in every[0].items()
                        if m["unit"] == "s" and name not in spec_names
                        and all(name in r for r in every))
        summary = {
            "pairs": len(seeds),
            "seeds": seeds,
            "failed": {side: sum(r["failed"] for r in rs) for side, rs in paired.items()},
            "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in paired.items()},
            "metrics": {},
            "phases": {},
        }
        for metric in end_to_end:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in rs]
                      for side, rs in paired.items()}
            summary["metrics"][name] = {"unit": metric["unit"], "better": metric["better"],
                                        **compare(values, metric["better"])}
        for name in phases:
            values = {side: [r[name]["value"] for r in rs] for side, rs in reports.items()}
            summary["phases"][name] = {"unit": "s", "better": "lower",
                                       **compare(values, "lower")}
        workloads[workload] = summary
    return {"env": envs, "workloads": workloads}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", type=Path, required=True,
                        help="saved outputs of the base side's runs")
    parser.add_argument("--change", nargs="+", type=Path, required=True,
                        help="saved outputs of the changed side's runs")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    summary = summarize([p.read_text(encoding="utf-8") for p in args.base],
                        [p.read_text(encoding="utf-8") for p in args.change], spec)
    args.out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
