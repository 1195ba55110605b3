"""Golden structured records of ``eval``, ``sample`` and ``simulate``.

``golden/cli_cases.json`` lists each case's arguments; ``golden/<name>.jsonl``
holds the records that ``hypoexp <arguments> --format structured`` printed
when the golden was captured.  A case without ``rel`` must reproduce them
byte for byte; a case with ``rel`` (a path through BLAS matmuls) compares each
float to that relative bound and everything else exactly.

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


def _records(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--format", "structured"])
    assert code == 0, argv
    return out.getvalue()


def _close(got, want, rel):
    """Equal records, with every float within ``rel`` relative."""
    return got.keys() == want.keys() and all(
        math.isclose(got[k], w, rel_tol=rel) if isinstance(w, float) else got[k] == w
        for k, w in want.items())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_structured_records_match_golden(case):
    got = _records(case["argv"])
    want = (GOLDEN / f"{case['name']}.jsonl").read_text()
    if "rel" not in case:
        assert got == want
        return
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines)
    for g, w in zip(got_lines, want_lines):
        assert _close(json.loads(g), json.loads(w), case["rel"]), (g, w)


if __name__ == "__main__":
    for case in CASES:
        (GOLDEN / f"{case['name']}.jsonl").write_text(_records(case["argv"]))
