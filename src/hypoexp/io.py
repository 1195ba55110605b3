"""File I/O: sample batches and distribution parameter records.

Sample files are either plain text (one nonnegative decimal per line; blank
lines and whole-line ``#`` comments ignored) or CSV with a header row and a
named column.  Parameter records are JSON objects with a ``family`` key plus the
family's parameters, e.g. ``{"family": "eme", "n": 2, "lambda": 1.0, "w": 3.0}``.
"""

from __future__ import annotations

import contextlib
import csv
import json
from io import StringIO
from pathlib import Path

import numpy as np

from ._util import as_values
from .distributions import FAMILIES, family_name, make_distribution
from .errors import DataError, ParameterError

# Values that ``write_samples`` formats per write.
_WRITE_BLOCK = 4096


def read_samples(path, column=None):
    """Read a sample batch from ``path`` as a 1-D float64 array.

    With ``column`` the file is parsed as CSV with a header row; otherwise as
    one value per line.  DataError unless every value is finite and
    nonnegative and there is at least one.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if column is not None:
        values = []
        reader = csv.DictReader(text.splitlines())
        if reader.fieldnames is None or column not in reader.fieldnames:
            raise DataError(
                f"{path} has no column {column!r} (found {reader.fieldnames})"
            )
        for row in reader:
            cell = (row[column] or "").strip()
            if cell:
                values.append(_parse_value(cell, path))
        return as_values(values, what="sample values")
    # Files of bare values, one per line, take one C parse of the text read
    # above.  Comment lines and blank files skip it; literals such as 1_000
    # that float() accepts and malformed files fail it.  All of those take the
    # line loop, which reads every file the parse accepts to the same values.
    if text.strip() and "#" not in text:
        try:
            table = np.loadtxt(StringIO(text), comments=None, ndmin=2)
        except ValueError:
            table = None
        if table is not None and table.shape[1] == 1:
            return as_values(table[:, 0], what="sample values")
    values = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            values.append(_parse_value(line, path))
    return as_values(values, what="sample values")


def _parse_value(token, path):
    try:
        return float(token)
    except ValueError as exc:
        raise DataError(f"{path}: not a decimal value: {token!r}") from exc


@contextlib.contextmanager
def open_output(path):
    """``path`` opened for writing text; an OSError in opening or writing it
    becomes DataError, as ``read_samples`` does for reading."""
    try:
        with open(path, "w") as out:
            yield out
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def write_samples(path, data):
    """Write a batch as plain text, one value per line (round-trip exact).

    DataError, before the file is opened, unless ``read_samples`` accepts the
    values.  They are formatted ``_WRITE_BLOCK`` at a time, so the text of a
    large batch is never held whole."""
    values = as_values(data, what="sample values")
    with open_output(path) as out:
        for start in range(0, values.size, _WRITE_BLOCK):
            block = values[start : start + _WRITE_BLOCK].tolist()
            out.write("".join(f"{v:.17g}\n" for v in block))


def dist_to_dict(dist):
    """Self-describing parameter record for a distribution."""
    family = family_name(dist)
    record = {"family": family}
    for key in FAMILIES[family][2]:
        value = getattr(dist, key)
        record["lambda" if key == "rate" else key] = (
            list(value) if isinstance(value, tuple) else value
        )
    return record


def dist_from_dict(record):
    """Inverse of :func:`dist_to_dict`."""
    if not isinstance(record, dict):
        raise ParameterError(f"parameter record must be a JSON object, got {record!r}")
    if "family" not in record:
        raise ParameterError("parameter record is missing the 'family' key")
    params = {k: v for k, v in record.items() if k != "family"}
    if "lambda" in params:
        params["rate"] = params.pop("lambda")
    return make_distribution(record["family"], **params)


def save_dist(path, dist):
    with open_output(path) as out:
        out.write(json.dumps(dist_to_dict(dist), indent=2) + "\n")


def load_dist(path):
    try:
        record = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot load parameters from {path}: {exc}") from exc
    return dist_from_dict(record)
