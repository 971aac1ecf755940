"""The CSV column reader and writer."""

import csv
import io
import pathlib
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massimpute import table
from massimpute.errors import (
    MissingColumn,
    MissingValue,
    NonFiniteValue,
    NonNumericValue,
    ValidationError,
)
from massimpute.table import read_columns, write_table


def _write(path, text):
    path.write_text(text)
    return path


@pytest.mark.parametrize("cell, error", [
    ("", MissingValue),
    ("   ", MissingValue),
    ("abc", NonNumericValue),
    ("0x10", NonNumericValue),
    ("nan", NonFiniteValue),
    ("inf", NonFiniteValue),
    ("-Infinity", NonFiniteValue),
])
def test_bad_cell_names_column_and_row(tmp_path, cell, error):
    path = _write(tmp_path / "t.csv", f"x,y\n1,2\n3,4\n5,{cell}\n6,7\n")
    with pytest.raises(error) as exc:
        read_columns(path, ["x", "y"])
    assert (exc.value.column, exc.value.row) == ("y", 3)
    assert "column 'y', row 3" in str(exc.value)


def test_empty_text_cell_names_column_and_row(tmp_path):
    path = _write(tmp_path / "t.csv", "g,x\na,1\n ,2\n")
    with pytest.raises(MissingValue) as exc:
        read_columns(path, ["g", "x"], text={"g"})
    assert (exc.value.column, exc.value.row) == ("g", 2)


def test_first_bad_cell_in_order_of_names(tmp_path):
    # y's bad cell comes first in the file, but x is requested first
    path = _write(tmp_path / "t.csv", "x,y\n1,abc\n,2\n")
    with pytest.raises(MissingValue) as exc:
        read_columns(path, ["x", "y"])
    assert (exc.value.column, exc.value.row) == ("x", 2)
    with pytest.raises(NonNumericValue) as exc:
        read_columns(path, ["y", "x"])
    assert (exc.value.column, exc.value.row) == ("y", 1)


def test_unrequested_columns_are_not_checked(tmp_path):
    path = _write(tmp_path / "t.csv", "x,note\n1,\n2,abc\n")
    np.testing.assert_array_equal(read_columns(path, ["x"])["x"], [1.0, 2.0])


def test_missing_column_named_in_order(tmp_path):
    path = _write(tmp_path / "t.csv", "x,y\n1,2\n")
    with pytest.raises(MissingColumn) as exc:
        read_columns(path, ["x", "w_rep_3", "z"])
    assert exc.value.column == "w_rep_3"


def test_float_spellings_accepted(tmp_path):
    cells = [" 1.5", "1.5 ", "1_000", "+1", "-0", ".5", "5.", "1e-3", "1E3", "\t2"]
    path = _write(tmp_path / "t.csv", "x\n" + "".join(f'"{c}"\n' for c in cells))
    column = read_columns(path, ["x"])["x"]
    assert column.dtype == float and column.flags.c_contiguous
    np.testing.assert_array_equal(column, [float(c) for c in cells])
    assert np.signbit(column[4])


def test_text_cells_are_stripped(tmp_path):
    path = _write(tmp_path / "t.csv", 'g,x\n a ,1\n"b, c",2\n1.50,3\n')
    columns = read_columns(path, ["g", "x"], text={"g"})
    assert columns["g"].tolist() == ["a", "b, c", "1.50"]
    np.testing.assert_array_equal(columns["x"], [1.0, 2.0, 3.0])


def test_cell_longer_than_csv_field_limit_is_rejected(tmp_path):
    cell = "0." + "0" * csv.field_size_limit() + "1"
    path = _write(tmp_path / "t.csv", f"x,y\n1,{cell}\n")
    with pytest.raises(ValidationError, match="unreadable CSV"):
        read_columns(path, ["x", "y"])


def test_plain_file_is_not_split_by_csv_reader(tmp_path, monkeypatch):
    path = _write(tmp_path / "t.csv", "x,g,y,note\n1.5, a ,-0,\n2,b,1e-3,z\n")

    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader called on a plain file")

    monkeypatch.setattr(table.csv, "reader", refuse)
    columns = read_columns(path, ["y", "g", "x"], text={"g"})
    assert list(columns) == ["g", "y", "x"]
    assert columns["g"].tolist() == ["a", "b"]
    np.testing.assert_array_equal(columns["x"], [1.5, 2.0])
    assert columns["y"].tobytes() == np.array([-0.0, 1e-3]).tobytes()
    assert all(v.flags.c_contiguous for v in columns.values())


def _outcome(read, path, names, text):
    """What a reader gives: its error's class and message, or each column's
    name, dtype, contiguity and values (float bits, so -0.0 counts)."""
    try:
        columns = read(path, names, text)
    except ValidationError as exc:
        return type(exc), str(exc)
    if columns is None:
        return None
    return [
        (name, v.dtype, v.flags.c_contiguous,
         v.tolist() if v.dtype == object else v.tobytes())
        for name, v in columns.items()
    ]


@pytest.mark.parametrize("text, names", [
    ('g,x\n"a",1\n', ["g", "x"]),  # csv.reader drops the quotes
    ("g,x\na\x00,1\n", ["g", "x"]),  # csv.reader rejects NUL before Python 3.11
    ("\n1\n", [""]),  # csv.reader reads an empty header line as no cells
])
def test_files_csv_reader_splits_its_own_way_take_the_walk(tmp_path, text, names):
    path = _write(tmp_path / "t.csv", text)
    assert (_outcome(read_columns, path, names, {"g"})
            == _outcome(table._read_checked, path, names, {"g"}))


_NUMBERS = ["1.5", "-0", "2", "1e-3", " 4 ", "-12", "1e16", "5e-324", "\t7"]
_LEVELS = ["a", " b ", "\u00e9", "1.50"]
_ODD = ["", " ", "nan", "inf", "-Infinity", "1e400", "1_000", "\uff11\uff12",
        "0x10", '"b, c"', '"1"', 'x"y', "\x00"]


@st.composite
def _csv_files(draw):
    """CSV text, mostly plain, with odd cells, blank and whitespace-only
    lines, rows longer and shorter than the header and a chosen line ending,
    and the names asked of it."""
    header = draw(st.permutations(["x", "g", "y"]))[:draw(st.integers(1, 3))]
    header += draw(st.lists(st.sampled_from(["x", " y ", "note"]), max_size=1))
    widths = st.sampled_from([len(header)] * 8 + [len(header) - 1, len(header) + 1])
    lines = [",".join(header)]
    for _ in range(draw(st.sampled_from([3, 1, 2, 4, 5, 0]))):
        kind = draw(st.sampled_from(["row"] * 10 + ["", "  "]))
        if kind != "row":
            lines.append(kind)
            continue
        cells = []
        for j in range(draw(widths)):
            level = j < len(header) and header[j] == "g"
            odd = draw(st.sampled_from([False] * 29 + [True]))
            cells.append(draw(st.sampled_from(_ODD if odd else _LEVELS if level else _NUMBERS)))
        lines.append(",".join(cells))
    end = draw(st.sampled_from(["\n"] * 6 + ["\r\n", "\r"]))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    names = draw(st.permutations([h.strip() for h in header]))[:draw(st.integers(1, 3))]
    names += draw(st.sampled_from([[]] * 4 + [["x"], ["w"]]))
    return text, names, draw(st.sampled_from([{"g"}, {"g"}, set(), {"g", "y"}]))


@settings(max_examples=300, deadline=None)
@given(case=_csv_files())
def test_fast_path_matches_checked_walk(case):
    text, names, text_columns = case
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        assert (_outcome(read_columns, path, names, text_columns)
                == _outcome(table._read_checked, path, names, text_columns))


def test_write_table_bytes_match_csv_writer(tmp_path):
    header = ["x", "b,c", 'q"t']
    columns = [
        [-0.0, 5e-324, 1e16, 1e-05],
        np.array([1.7976931348623157e308, 0.1, -2.5, 3.0]),
        [1, 2, 3, 4],
    ]
    write_table(tmp_path / "t.csv", header, columns)
    reference = io.StringIO()
    rows = zip(*([float(v) for v in c] for c in columns))
    csv.writer(reference, lineterminator="\n").writerows([header, *rows])
    assert (tmp_path / "t.csv").read_bytes() == reference.getvalue().encode()


def test_write_table_bytes_with_repeated_values(tmp_path, rng):
    # most cells repeating a few values, both zeros among them, beside a
    # column of distinct values
    n = 40_000
    header = ["w_rep", "k", "yhat"]
    levels = np.array([0.0, -0.0, 0.1, 1.0 / 3.0, 5e-324, 2000.0 * 40 / 39])
    columns = [levels[rng.integers(0, len(levels), n)], np.arange(n) % 7,
               rng.normal(size=n)]
    write_table(tmp_path / "t.csv", header, columns)
    reference = io.StringIO()
    rows = zip(*([float(v) for v in c] for c in columns))
    csv.writer(reference, lineterminator="\n").writerows([header, *rows])
    assert (tmp_path / "t.csv").read_bytes() == reference.getvalue().encode()


def _one_shot(path, header, columns):
    """Reference: the writer that converted every column to Python floats
    before writing the first row."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


@pytest.mark.parametrize("width", [1, 400])
@pytest.mark.parametrize("rows", [lambda block: 0, lambda block: 1,
                                  lambda block: block - 1, lambda block: block,
                                  lambda block: block + 1],
                         ids=["0", "1", "block-1", "block", "block+1"])
def test_write_table_equals_one_shot_writer(tmp_path, rng, width, rows):
    n = rows(table._WRITE_CELLS // width)
    special = np.array([-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e16,
                        -1.2345678901234567e16, 9007199254740993.0, 0.1])
    # a row-major n x width block read by strided column views, as the
    # release file reads replicate_weights[:, k]
    data = rng.normal(size=(n, width)) * 10.0 ** rng.integers(-3, 17, (n, width))
    data.ravel()[: min(n * width, len(special))] = special[: n * width]
    header = [f"c{k}" for k in range(width)]
    columns = [data[:, k] for k in range(width)]
    blocks, one_shot = tmp_path / "blocks.csv", tmp_path / "one_shot.csv"
    write_table(blocks, header, columns)
    _one_shot(one_shot, header, columns)
    assert blocks.read_bytes() == one_shot.read_bytes()


def test_write_table_memory_is_one_block(tmp_path, rng):
    # 4,000 x 400 cells as Python floats would take about 49 MiB
    data = rng.normal(size=(4_000, 400))
    columns = [data[:, k] for k in range(400)]
    tracemalloc.start()
    try:
        write_table(tmp_path / "t.csv", [f"c{k}" for k in range(400)], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("header, columns", [
    (["a", "b"], [[1.0, 2.0], [3.0]]),
    (["a", "b"], [[1.0], [2.0, 3.0]]),
    (["a"], [[1.0], [2.0]]),
    (["a", "b", "c"], [[1.0], [2.0]]),
    (["a"], []),
])
def test_write_table_shape_errors(tmp_path, header, columns):
    with pytest.raises(ValidationError, match="a header of"):
        write_table(tmp_path / "t.csv", header, columns)
    assert not (tmp_path / "t.csv").exists()
