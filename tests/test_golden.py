"""Golden structured records of ``eval``, ``sample``, ``simulate``, ``fit``
and ``gof``, and the ``error:`` lines of ``fit`` and ``gof`` on bad files.

``golden/cli_cases.json`` lists each case's arguments, in which ``$GOLDEN``
stands for the golden directory that holds the small input files;
``golden/<name>.jsonl`` holds the records that ``hypoexp <arguments> --format
structured`` printed when the golden was captured.  A case without ``rel``
must reproduce them byte for byte; a case with ``rel`` (a path through BLAS
matmuls or scipy's optimizer) compares each float to that relative bound,
except the keys it lists under ``exact``, and everything else exactly.  A
case with ``exit`` must fail with that code, print nothing on stdout and
print ``golden/<name>.err`` on stderr.

Regenerating a golden is an output change, to be documented with the fields
that moved:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from hypoexp.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cli_cases.json").read_text())["cases"]


def _run(argv):
    """Exit code, stdout and stderr of one structured CLI call; the golden
    directory reads ``$GOLDEN`` in both directions."""
    out, err = io.StringIO(), io.StringIO()
    argv = [arg.replace("$GOLDEN", str(GOLDEN)) for arg in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--format", "structured"])
    return code, out.getvalue(), err.getvalue().replace(str(GOLDEN), "$GOLDEN")


def _close(got, want, rel, exact):
    """Equal records, with every float not named in ``exact`` within ``rel``
    relative."""
    return got.keys() == want.keys() and all(
        math.isclose(got[k], w, rel_tol=rel) if isinstance(w, float) and k not in exact
        else got[k] == w
        for k, w in want.items())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_structured_records_match_golden(case):
    code, got, err = _run(case["argv"])
    assert code == case.get("exit", 0), err
    if code:
        assert got == ""
        assert err == (GOLDEN / f"{case['name']}.err").read_text()
        return
    want = (GOLDEN / f"{case['name']}.jsonl").read_text()
    if "rel" not in case:
        assert got == want
        return
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines)
    for g, w in zip(got_lines, want_lines):
        assert _close(json.loads(g), json.loads(w), case["rel"], case.get("exact", ())), (g, w)


if __name__ == "__main__":
    for case in CASES:
        code, out, err = _run(case["argv"])
        if code:
            (GOLDEN / f"{case['name']}.err").write_text(err)
        else:
            (GOLDEN / f"{case['name']}.jsonl").write_text(out)
