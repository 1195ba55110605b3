"""Every end-to-end metric of every workload, by name and unit, in one command.

    python3 perfbench/summary.py [--seed N] [--seconds T]

Runs ``run.py --trace 0`` once per workload, each in its own process, and
prints the workload's own metric names (gof_tests_per_s, fit_fixed_s,
verify_s, ...) next to the generic names BENCHMARK.json gates on.
``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json.  Exits
non-zero if any run fails or reports an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run

WORKLOADS = ("gof_study", "model_pipeline")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    run_seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser.add_argument("--seconds", type=int, default=run_seconds)
    args = parser.parse_args(argv)
    status = 0
    env_printed = False
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: run failed (exit {proc.returncode})\n{proc.stderr[-2000:]}")
            status = 1
            continue
        if not env_printed:
            print(next(line for line in lines if line.startswith("env ")))
            env_printed = True
        report = json.loads(next(line for line in lines if line.startswith("report "))[7:])
        result = json.loads(lines[-1])
        print(f"\n{workload}  seed={args.seed}  ops={result['attempted']}  "
              f"failed={result['failed']}  correct={result['correct']}")
        for name, record in report["metrics"].items():
            print(f"  {name:<18} {record['value']:>14.6g} {record['unit']}")
        for name, record in result["metrics"].items():
            print(f"  [{name}]{'':<{16 - len(name)}} {record['value']:>14.6g} {record['unit']}")
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
