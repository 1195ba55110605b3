"""Sample file formats and parameter serialization."""

import json
import warnings

import numpy as np
import pytest

from hypoexp import (
    EME,
    DataError,
    Erlang,
    Exponential,
    Hypoexponential,
    ParameterError,
    dist_from_dict,
    dist_to_dict,
    load_dist,
    make_distribution,
    read_samples,
    save_dist,
    write_samples,
)
from hypoexp import io
from hypoexp._util import as_values


class TestSampleFiles:
    def test_plain_round_trip(self, tmp_path):
        path = tmp_path / "values.txt"
        values = np.array([0.0, 1.5, 2.25, 1e-12, 17.125])
        write_samples(path, values)
        back = read_samples(path)
        np.testing.assert_array_equal(back, values)

    def test_plain_skips_blank_and_comment_lines(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("# header comment\n1.0\n\n2.0\n")
        np.testing.assert_array_equal(read_samples(path), [1.0, 2.0])

    def test_csv_column(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("idx,duration,other\n0,1.5,9\n1,2.5,9\n2,0.25,9\n")
        batch = read_samples(path, column="duration")
        np.testing.assert_array_equal(batch, [1.5, 2.5, 0.25])

    def test_csv_missing_column(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError):
            read_samples(path, column="duration")

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\noops\n")
        with pytest.raises(DataError):
            read_samples(path)

    def test_negative_rejected(self, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("1.0\n-3.0\n")
        with pytest.raises(DataError):
            read_samples(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_samples(tmp_path / "nope.txt")

    @pytest.mark.parametrize("column", [None, "x"])
    def test_non_utf8_file_is_data_error(self, tmp_path, column):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"\xff\xfe\n1.0\n")
        with pytest.raises(DataError, match="cannot read"):
            read_samples(path, column=column)

    def test_write_accepts_sample(self, tmp_path):
        path = tmp_path / "s.txt"
        batch = Exponential(1.0).sample(3, np.random.default_rng(0))
        write_samples(path, batch)
        assert read_samples(path).tobytes() == batch.tobytes()

    @pytest.mark.parametrize("data, message", [
        ([-1.0, np.nan, np.inf], "contains non-finite values"),
        ([1.0, -3.0], "must be nonnegative"),
        ([], "is empty"),
        ([[1.0, 2.0]], "must be one-dimensional"),
    ])
    def test_write_rejects_what_read_rejects(self, tmp_path, data, message):
        path = tmp_path / "values.txt"
        with pytest.raises(DataError, match=f"^sample values {message}"):
            write_samples(path, data)
        assert not path.exists()

    def test_write_is_the_one_join_byte_for_byte(self, tmp_path, monkeypatch):
        # the values are formatted a block at a time; the file is the text
        # of one join over all of them, around and across block boundaries
        values = EME(20, 1.0, 0.8).sample(10**4, np.random.default_rng(12))
        values[:6] = [0.0, -0.0, 5e-324, 1.7976931348623157e308, 1e22, 2.5]
        monkeypatch.setattr(io, "_WRITE_BLOCK", 1000)
        for count in (1, 999, 1000, 1001, 10**4):
            path = tmp_path / f"values{count}.txt"
            write_samples(path, values[:count])
            assert path.read_bytes() == "".join(f"{v:.17g}\n" for v in values[:count]).encode()
            assert read_samples(path).tobytes() == values[:count].tobytes()

    @pytest.mark.parametrize("write", [
        lambda path: write_samples(path, [1.0, 2.0]),
        lambda path: save_dist(path, Exponential(1.0)),
    ], ids=["write_samples", "save_dist"])
    def test_unwritable_path_is_data_error(self, tmp_path, write):
        # a missing directory and a directory in place of the file both
        # raised the bare OSError
        for path in (tmp_path / "missing_dir" / "out.txt", tmp_path):
            with pytest.raises(DataError, match=f"^cannot write {path}: "):
                write(path)

    def test_an_error_while_writing_is_data_error(self, tmp_path, monkeypatch):
        class Full:
            def __init__(self, path, mode):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def write(self, text):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(io, "open", Full, raising=False)
        with pytest.raises(DataError, match="^cannot write .*No space left on device"):
            write_samples(tmp_path / "values.txt", [1.0])

    @pytest.mark.parametrize("column", [None, "x"])
    def test_read_returns_a_float64_array(self, tmp_path, column):
        path = tmp_path / "values.txt"
        path.write_text("x\n1\n2.5\n" if column else "1\n2.5\n")
        batch = read_samples(path, column=column)
        assert type(batch) is np.ndarray
        assert batch.dtype == np.float64 and batch.ndim == 1
        np.testing.assert_array_equal(batch, [1.0, 2.5])

    @pytest.mark.parametrize("column", [None, "x"])
    @pytest.mark.parametrize("body, message", [
        ("1\ninf\n", "contains non-finite values"),
        ("1\n-3\n", "must be nonnegative"),
        ("", "is empty"),
    ])
    def test_bad_values_are_named(self, tmp_path, column, body, message):
        path = tmp_path / "values.txt"
        path.write_text(f"{column}\n{body}" if column else body)
        with pytest.raises(DataError, match=f"^sample values {message}$"):
            read_samples(path, column=column)


class TestOneConverter:
    """Plain-text lines and CSV cells go through one conversion."""

    def test_csv_comment_cell_is_an_error(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("x\n1\n#x\n2\n")
        with pytest.raises(DataError, match=r"not a decimal value: '#x'$"):
            read_samples(path, column="x")

    @pytest.mark.parametrize("column", [None, "x"])
    def test_first_of_two_bad_cells_is_named(self, tmp_path, column):
        path = tmp_path / "values.txt"
        body = "1\n\noops\n2\nbad\n"
        path.write_text(f"{column}\n{body}" if column else body)
        with pytest.raises(DataError, match=r"not a decimal value: 'oops'$"):
            read_samples(path, column=column)

    @pytest.mark.parametrize("column", [None, "x"])
    def test_bad_token_wins_over_an_earlier_negative_value(self, tmp_path, column):
        path = tmp_path / "values.txt"
        body = "1\n-3\n0x10\n"
        path.write_text(f"{column}\n{body}" if column else body)
        with pytest.raises(DataError, match=r"not a decimal value: '0x10'$"):
            read_samples(path, column=column)

    def test_underscore_literal_reads_as_its_value(self, tmp_path):
        plain, underscored = tmp_path / "plain.txt", tmp_path / "underscored.txt"
        plain.write_text("2.5\n1000\n")
        underscored.write_text("2.5\n1_000\n")
        assert read_samples(underscored).tobytes() == read_samples(plain).tobytes()

    @pytest.mark.parametrize("kind", ["header", "underscore", "crlf", "csv"])
    def test_written_values_read_back_bit_for_bit_in_every_layout(self, tmp_path, kind):
        # test_written_values_read_back_bit_for_bit has the plain layout
        values = EME(20, 1.0, 0.8).sample(10**4, np.random.default_rng(18))
        lines = [f"{v:.17g}" for v in values.tolist()]
        expected = values
        column = None
        if kind == "header":
            lines.insert(0, "# EME(20, 1, 0.8) draws")
        elif kind == "underscore":
            lines.append("1_000")
            expected = np.append(values, 1000.0)
        elif kind == "csv":
            lines = ["idx,x", *(f"{i},{line}" for i, line in enumerate(lines))]
            column = "x"
        path = tmp_path / "values.txt"
        newline = "\r\n" if kind == "crlf" else "\n"
        path.write_bytes("".join(line + newline for line in lines).encode())
        assert read_samples(path, column=column).tobytes() == expected.tobytes()


def _read_by_lines(path):
    """The plain-text grammar spelled out: whole-line ``#`` comments, blank
    lines skipped, one ``float()`` literal per line.  ``read_samples`` must
    give the same values, or the same DataError, on every file."""
    values = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            try:
                values.append(float(line))
            except ValueError:
                raise DataError(f"{path}: not a decimal value: {line!r}") from None
    return as_values(values, what="sample values")


def _outcome(read, path):
    # any warning (such as loadtxt's "input contained no data") fails the test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return read(path).tobytes()
        except DataError as exc:
            return str(exc)


class TestPlainTextGrammar:
    @pytest.mark.parametrize(
        "text",
        [
            "1\n2.5\n",
            "# header\n1\n",
            "1_000\n2\n",
            "\u0661\u0662\n",
            "1\r\n2\r\n",
            "1\r2\n",
            " 1 \n\t2\t\n",
            "1\n\n\n2",
            ".5\n5.\n+1.5E3\n1e-400\n-0\n",
            "1\x0c2\n",
            "1\u20282\n",
            "1 2\n",
            "1\n2 3\n",
            "1,5\n",
            "1 # trailing\n",
            "0x10\n",
            "nan\n",
            "1e400\n",
            "1\n-3\n",
            "oops\n",
            "",
            "\n \n",
            " \t\x0b\x0c\u3000\n",
            "# only a comment\n",
            "1\n2\n# trailing comment line\n",
        ],
    )
    def test_matches_the_line_grammar(self, text, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text(text, newline="")
        assert _outcome(read_samples, path) == _outcome(_read_by_lines, path)

    def test_random_short_files_match_the_line_grammar(self, tmp_path):
        rng = np.random.default_rng(20240611)
        alphabet = np.array(list("0123456789.eE+-_ \t#\nnaifx,"))
        path = tmp_path / "values.txt"
        for _ in range(1500):
            path.write_text("".join(rng.choice(alphabet, rng.integers(1, 12))), newline="")
            assert _outcome(read_samples, path) == _outcome(_read_by_lines, path), path.read_text()

    def test_written_values_read_back_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.exponential(size=4000) * 10.0 ** rng.uniform(-300, 300, size=4000)
        values[:3] = [0.0, 5e-324, 1.7976931348623157e308]
        path = tmp_path / "values.txt"
        write_samples(path, values)
        assert read_samples(path).tobytes() == values.tobytes()

    def test_bad_token_is_named(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\n2.0 3.0\n")
        with pytest.raises(DataError, match=r"not a decimal value: '2.0 3.0'"):
            read_samples(path)

    def test_empty_file_raises_without_a_warning(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DataError, match="empty"):
                read_samples(path)
        assert not caught


class TestParameterRecords:
    @pytest.mark.parametrize(
        "dist",
        [
            Exponential(2.5),
            Erlang(4, 0.7),
            Hypoexponential((1.0, 2.0, 4.5)),
            EME(3, 1.25, 0.4),
        ],
        ids=lambda d: repr(d),
    )
    def test_round_trip(self, dist, tmp_path):
        record = dist_to_dict(dist)
        assert record["family"]
        assert dist_from_dict(record) == dist
        path = tmp_path / "params.json"
        save_dist(path, dist)
        assert load_dist(path) == dist

    def test_record_uses_lambda_key(self):
        assert dist_to_dict(Exponential(2.0)) == {"family": "exponential", "lambda": 2.0}
        rec = dist_to_dict(EME(2, 1.0, 3.0))
        assert rec == {"family": "eme", "n": 2, "lambda": 1.0, "w": 3.0}

    def test_non_utf8_record_is_data_error(self, tmp_path):
        path = tmp_path / "dist.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(DataError, match="cannot load parameters"):
            load_dist(path)

    def test_bad_record(self):
        from hypoexp import ParameterError

        with pytest.raises(ParameterError):
            dist_from_dict({"n": 2})
        with pytest.raises(ParameterError):
            dist_from_dict({"family": "cauchy"})

    @pytest.mark.parametrize("text", ["3", "null", '["family"]', '"family"'])
    def test_record_that_is_not_an_object(self, text):
        with pytest.raises(ParameterError, match="parameter record must be a JSON object"):
            dist_from_dict(json.loads(text))

    @pytest.mark.parametrize("text", ["3", "null", '["family"]', '"family"'])
    def test_loaded_record_that_is_not_an_object(self, text, tmp_path):
        path = tmp_path / "dist.json"
        path.write_text(text)
        with pytest.raises(ParameterError, match="parameter record must be a JSON object"):
            load_dist(path)

    @pytest.mark.parametrize("family", ["erlang", "eme"])
    @pytest.mark.parametrize("bad_n", [2.7, True, 2.0, "2"])
    def test_stage_count_is_not_coerced(self, family, bad_n):
        record = dist_to_dict(make_distribution(family, n=2, rate=1.0, w=3.0))
        record["n"] = bad_n
        with pytest.raises(ParameterError, match="n must be a positive integer"):
            dist_from_dict(record)
