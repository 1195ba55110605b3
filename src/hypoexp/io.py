"""File I/O: sample batches and distribution parameter records.

Sample files are either plain text (one nonnegative decimal per line; blank
lines and whole-line ``#`` comments ignored) or CSV with a header row and a
named column (blank cells ignored).  Lines and cells alike are converted by
one numpy call, which accepts what ``float()`` accepts.  ``print_samples``
writes the one sample line format, ``.17g`` and one value per line, which
reads back bit for bit.  Parameter records are JSON objects with a ``family``
key plus the family's parameters, e.g.
``{"family": "eme", "n": 2, "lambda": 1.0, "w": 3.0}``.
"""

from __future__ import annotations

import contextlib
import csv
import json
from pathlib import Path

import numpy as np

from ._util import as_values
from .distributions import FAMILIES, family_name, make_distribution
from .errors import DataError, ParameterError

# Values that ``print_samples`` formats per write.
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
    if column is None:
        cells = text.splitlines()
    else:
        reader = csv.DictReader(text.splitlines())
        if reader.fieldnames is None or column not in reader.fieldnames:
            raise DataError(
                f"{path} has no column {column!r} (found {reader.fieldnames})"
            )
        cells = [row[column] or "" for row in reader]
    return as_values(_to_floats(cells, path, comments=column is None), what="sample values")


def _to_floats(cells, path, comments):
    # numpy converts each cell as float() does.  Blank cells, and in plain
    # text whole-line # comments, fail the first conversion and are dropped
    # for the second; float() then only names the first cell that fails it.
    try:
        return np.array(cells, dtype=float)
    except ValueError:
        cells = [c for c in map(str.strip, cells) if c and not (comments and c.startswith("#"))]
    try:
        return np.array(cells, dtype=float)
    except ValueError:
        for cell in cells:
            try:
                float(cell)
            except ValueError as exc:
                raise DataError(f"{path}: not a decimal value: {cell!r}") from exc
        raise


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
    values."""
    values = as_values(data, what="sample values")
    with open_output(path) as out:
        print_samples(values, out)


def print_samples(values, file):
    """Write checked 1-D float ``values`` to the open text stream ``file`` as
    ``write_samples`` does, ``_WRITE_BLOCK`` at a time, so the text of a large
    batch is never held whole."""
    for start in range(0, values.size, _WRITE_BLOCK):
        block = values[start : start + _WRITE_BLOCK].tolist()
        file.write("".join(f"{v:.17g}\n" for v in block))


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
