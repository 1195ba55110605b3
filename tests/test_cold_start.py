"""``import hypoexp`` loads no scipy module; each command that needs scipy
loads it on first use, in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypoexp import EME, write_samples

ROOT = Path(__file__).resolve().parent.parent

# Runs the CLI with the given arguments, then prints the scipy modules that
# were loaded before and after it, as JSON on the last line of stdout.
PROBE = """
import json, sys
import hypoexp.cli
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
code = hypoexp.cli.main(sys.argv[1:])
after = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"code": code, "before": before, "after": after}))
"""


def _fresh(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


def _probe(*argv):
    lines = _fresh("-c", PROBE, *argv).splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_import_loads_no_scipy():
    out = _fresh("-c", "import sys, hypoexp.cli; "
                       "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert out.strip() == "[]"


@pytest.fixture(scope="module")
def sample_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cold") / "eme.txt"
    write_samples(path, EME(2, 1.0, 4.0).sample(2000, np.random.default_rng(11)))
    return path


def test_fit_loads_optimize_on_first_use(sample_file):
    lines, seen = _probe("fit", "--in", str(sample_file), "--n", "2", "--format", "structured")
    assert seen["code"] == 0 and seen["before"] == []
    assert "scipy.optimize" in seen["after"]
    record = json.loads(lines[-1])
    assert record["n"] == 2 and record["count"] == 2000
    assert 3.0 < record["w"] < 5.5


def test_eval_loads_special_on_first_use():
    lines, seen = _probe("eval", "--dist", "erlang", "--n", "2", "--lambda", "1",
                         "--x", "1.0", "--format", "structured")
    assert seen["code"] == 0 and seen["before"] == []
    assert "scipy.special" in seen["after"] and "scipy.optimize" not in seen["after"]
    record = json.loads(lines[-1])
    assert record["pdf"] == pytest.approx(np.exp(-1.0), rel=1e-12)
    assert record["cdf"] == pytest.approx(1.0 - 2.0 * np.exp(-1.0), rel=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--sweep", "quick"),
        ("gof", "--B", "99"),
        ("simulate", "--stages", "1,2,3", "--count", "50"),
        ("eval", "--dist", "hypo", "--rates", "1,1,2", "--x", "0.5,3"),
    ],
    ids=lambda argv: argv[0],
)
def test_scipy_free_commands_stay_scipy_free(argv, sample_file):
    if argv[0] == "gof":
        argv = (*argv, "--in", str(sample_file))
    _, seen = _probe(*argv)
    assert seen["code"] == 0
    assert seen["before"] == [] and seen["after"] == []
