"""The CSV column reader and writer."""

import csv
import io
import pathlib
import tempfile
import tracemalloc
import unittest.mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massimpute import table
from massimpute.errors import (
    EmptyFile,
    MissingColumn,
    MissingValue,
    NonFiniteValue,
    NonNumericValue,
    NumericalError,
    RaggedRow,
    ValidationError,
)
from massimpute.table import TextColumn, read_columns, write_table


def _write(path, text):
    path.write_text(text)
    return path


def _cells(column):
    """A text column's stripped cells, row by row."""
    return [column.levels[code] for code in column.codes]


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
    assert _cells(columns["g"]) == ["a", "b, c", "1.50"]
    np.testing.assert_array_equal(columns["x"], [1.0, 2.0, 3.0])


def test_cell_longer_than_csv_field_limit_is_rejected(tmp_path):
    cell = "0." + "0" * csv.field_size_limit() + "1"
    path = _write(tmp_path / "t.csv", f"x,y\n1,{cell}\n")
    with pytest.raises(ValidationError, match="unreadable CSV"):
        read_columns(path, ["x", "y"])


def _refuse(*args, **kwargs):
    raise AssertionError("csv.reader called on a file numpy splits")


def test_plain_file_is_not_split_by_csv_reader(tmp_path, monkeypatch):
    path = _write(tmp_path / "t.csv", "x,g,y,note\n1.5, a ,-0,\n2,b,1e-3,z\n")
    monkeypatch.setattr(table.csv, "reader", _refuse)
    columns = read_columns(path, ["y", "g", "x"], text={"g"})
    assert list(columns) == ["g", "y", "x"]
    assert _cells(columns["g"]) == ["a", "b"]
    np.testing.assert_array_equal(columns["x"], [1.5, 2.0])
    assert columns["y"].tobytes() == np.array([-0.0, 1e-3]).tobytes()
    assert all(columns[name].flags.c_contiguous for name in ("x", "y"))


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
        (name, v.levels, v.codes.dtype, v.codes.tobytes()) if isinstance(v, TextColumn)
        else (name, v.dtype, v.flags.c_contiguous, v.tobytes())
        for name, v in columns.items()
    ]


@pytest.mark.parametrize("text, names", [
    # csv.reader rejects NUL before Python 3.11
    pytest.param("g,x\na\x00,1\n", ["g", "x"], id="g,x\na\x00,1\n-names1"),
    # csv.reader reads an empty header line as no cells
    pytest.param("\n1\n", [""], id="\n1\n-names2"),
])
def test_files_csv_reader_splits_its_own_way_take_the_walk(tmp_path, text, names):
    path = _write(tmp_path / "t.csv", text)
    assert (_outcome(read_columns, path, names, {"g"})
            == _outcome(table._read_checked, path, names, {"g"}))


@pytest.mark.parametrize("text, names", [
    ('g,x\n"a",1\n', ["g", "x"]),
    # quoted cells that hold a comma, doubled quotes and line breaks
    ('"x,1","g"\r\n"1.5","a,""b"""\r\n2,"c\r\n\r\nd"\r\n', ["g", "x,1"]),
], ids=["quoted-cell", "CRLF"])
def test_quoted_file_is_not_split_by_csv_reader(tmp_path, monkeypatch, text, names):
    path = _write(tmp_path / "t.csv", text)
    walk = _outcome(table._read_checked, path, names, {"g"})
    monkeypatch.setattr(table.csv, "reader", _refuse)
    assert _outcome(read_columns, path, names, {"g"}) == walk


def test_r_style_file_is_not_split_by_csv_reader(tmp_path, monkeypatch):
    # R's write.csv quotes the header and every text cell; the file reads as
    # the plain file of test_plain_file_is_not_split_by_csv_reader
    path = _write(tmp_path / "t.csv",
                  '"x","g","y","note"\n1.5," a ",-0,""\n2,"b",1e-3,"z"\n')
    plain = _write(tmp_path / "plain.csv", "x,g,y,note\n1.5, a ,-0,\n2,b,1e-3,z\n")
    monkeypatch.setattr(table.csv, "reader", _refuse)
    assert (_outcome(read_columns, path, ["y", "g", "x"], {"g"})
            == _outcome(read_columns, plain, ["y", "g", "x"], {"g"}))


_NUMBERS = ["1.5", "-0", "2", "1e-3", " 4 ", "-12", "1e16", "5e-324", "\t7"]
_LEVELS = ["a", " b ", "\u00e9", "1.50"]
_ODD = ["", " ", "nan", "inf", "-Infinity", "1e400", "1_000", "\uff11\uff12",
        "0x10", '"b, c"', '"1"', 'x"y', "\x00", ' "1.5"', '"1.5" ', '"1.5', '"a"b"']
# cells that must be quoted, drawn only in a quoted file; "\n" stands for
# the file's line ending
_QUOTED = ["b, c", 'q"t', "a\nb", '""', "1,5"]


@st.composite
def _csv_files(draw):
    """CSV text, plain or with quoted header and data cells, with odd cells,
    blank and whitespace-only lines, rows longer and shorter than the header
    and a chosen line ending, and the names asked of it."""
    end = draw(st.sampled_from(["\n"] * 6 + ["\r\n", "\r"]))
    quoted = draw(st.sampled_from([False, True]))

    def cell(value, must=False):
        # quoted as csv.writer quotes, a line break being the file's ending
        if must or quoted and draw(st.booleans()):
            return '"' + value.replace('"', '""').replace("\n", end) + '"'
        return value

    header = draw(st.permutations(["x", "g", "y"]))[:draw(st.integers(1, 3))]
    extra = ["x", " y ", "note"] + ["n,o\nte"] * quoted
    header += draw(st.lists(st.sampled_from(extra), max_size=1))
    widths = st.sampled_from([len(header)] * 8 + [len(header) - 1, len(header) + 1])
    lines = [",".join(cell(h, "," in h) for h in header)]
    for _ in range(draw(st.sampled_from([3, 1, 2, 4, 5, 0]))):
        kind = draw(st.sampled_from(["row"] * 10 + ["", "  "]))
        if kind != "row":
            lines.append(kind)
            continue
        cells = []
        for j in range(draw(widths)):
            level = j < len(header) and header[j] == "g"
            odd = draw(st.sampled_from([False] * 29 + [True]))
            if quoted and draw(st.sampled_from([False] * 9 + [True])):
                cells.append(cell(draw(st.sampled_from(_QUOTED)), True))
            else:
                cells.append(cell(draw(st.sampled_from(
                    _ODD if odd else _LEVELS if level else _NUMBERS))))
        lines.append(",".join(cells))
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


@pytest.mark.parametrize("rows", [1, 2])
@settings(max_examples=150, deadline=None)
@given(case=_csv_files())
def test_fast_path_matches_checked_walk_across_chunks(rows, case):
    # a chunk of one or two rows, so that every file of several rows is
    # parsed across chunks
    text, names, text_columns = case
    with tempfile.TemporaryDirectory() as tmp, \
            unittest.mock.patch.object(table, "_READ_ROWS", rows):
        path = pathlib.Path(tmp) / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        assert (_outcome(read_columns, path, names, text_columns)
                == _outcome(table._read_checked, path, names, text_columns))


_GOOD_ROW = ["1.5", "a", "2"]


@pytest.mark.parametrize("row", [2, 3], ids=["chunk-end", "chunk-start"])
@pytest.mark.parametrize("cells, error, column", [
    (["1.5", "a", "abc"], NonNumericValue, "y"),
    (["1.5", "a", "inf"], NonFiniteValue, "y"),
    (["", "a", "2"], MissingValue, "x"),
    (["1.5", " ", "2"], MissingValue, "g"),
    (["1.5", "a"], RaggedRow, None),
    (["1.5", "a", "2", "3"], RaggedRow, None),
], ids=["non-numeric", "non-finite", "empty", "empty-text", "short", "long"])
def test_bad_row_at_chunk_boundary(tmp_path, monkeypatch, row, cells, error, column):
    # chunks of two rows: row 2 ends the first, row 3 starts the second
    monkeypatch.setattr(table, "_READ_ROWS", 2)
    rows = [_GOOD_ROW] * 4
    rows[row - 1] = cells
    path = _write(tmp_path / "t.csv", "x,g,y\n" + "".join(",".join(r) + "\n" for r in rows))
    with pytest.raises(error) as exc:
        read_columns(path, ["x", "g", "y"], text={"g"})
    assert exc.value.row == row
    assert getattr(exc.value, "column", None) == column
    assert (_outcome(read_columns, path, ["x", "g", "y"], {"g"})
            == _outcome(table._read_checked, path, ["x", "g", "y"], {"g"}))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("line", [2, 3, 4], ids=["chunk-end", "chunk-start", "second"])
def test_blank_line_at_chunk_boundary(tmp_path, monkeypatch, line):
    # a blank line among chunks of two rows is skipped, not counted, and
    # raises no warning (loadtxt warns of one when given max_rows): the bad
    # cell of the last data row is still row 4
    monkeypatch.setattr(table, "_READ_ROWS", 2)
    lines = ["0.5,a,1", "1.5,b,2", "2.5,a,3", "3.5,c,4"]
    lines.insert(line - 1, "")
    path = _write(tmp_path / "t.csv", "x,g,y\n" + "\n".join(lines) + "\n")
    columns = read_columns(path, ["x", "g", "y"], text={"g"})
    np.testing.assert_array_equal(columns["x"], [0.5, 1.5, 2.5, 3.5])
    assert _cells(columns["g"]) == ["a", "b", "a", "c"]
    assert (_outcome(read_columns, path, ["x", "g", "y"], {"g"})
            == _outcome(table._read_checked, path, ["x", "g", "y"], {"g"}))
    bad = _write(tmp_path / "bad.csv", path.read_text().replace("3.5,c,4", "3.5,c,abc"))
    with pytest.raises(NonNumericValue) as exc:
        read_columns(bad, ["x", "g", "y"], text={"g"})
    assert (exc.value.column, exc.value.row) == ("y", 4)


@pytest.mark.parametrize("newline", [True, False], ids=["newline", "no-newline"])
@pytest.mark.parametrize("rows", [lambda chunk: 0, lambda chunk: 1,
                                  lambda chunk: chunk - 1, lambda chunk: chunk,
                                  lambda chunk: chunk + 1],
                         ids=["0", "1", "chunk-1", "chunk", "chunk+1"])
def test_row_counts_around_a_chunk(tmp_path, monkeypatch, rows, newline):
    n = rows(table._READ_ROWS)
    x = np.arange(n) / 4.0
    g = [f"l{i % 3}" for i in range(n)]
    text = "x,g\n" + "\n".join(f"{v!r},{level}" for v, level in zip(x.tolist(), g))
    path = _write(tmp_path / "t.csv", text + "\n" * newline)
    if n == 0:
        with pytest.raises(EmptyFile):
            read_columns(path, ["x", "g"], text={"g"})
        return
    walk = _outcome(table._read_checked, path, ["x", "g"], {"g"})
    monkeypatch.setattr(table.csv, "reader", _refuse)
    columns = read_columns(path, ["x", "g"], text={"g"})
    assert columns["x"].tobytes() == x.tobytes() and columns["x"].flags.c_contiguous
    assert _cells(columns["g"]) == g
    assert _outcome(read_columns, path, ["x", "g"], {"g"}) == walk


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


def test_write_table_rejects_a_repeated_name(tmp_path):
    with pytest.raises(ValidationError, match=r"repeats the names \['x', 'y'\]"):
        write_table(tmp_path / "t.csv", ["x", "y", "x", "z", "y"], [[1.0]] * 5)
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("text", ["x,y,x\n1,2,3\n", 'x,y, x \n1,0_2,"3"\n'],
                         ids=["plain", "walk"])
def test_repeated_name_raises_only_when_asked_for(tmp_path, text):
    path = _write(tmp_path / "t.csv", text)
    with pytest.raises(ValidationError, match="column 'x' appears 2 times"):
        read_columns(path, ["y", "x"])
    assert read_columns(path, ["y"])["y"].tolist() == [2.0]
    assert (_outcome(read_columns, path, ["y", "x"], ())
            == _outcome(table._read_checked, path, ["y", "x"], ()))


@pytest.mark.parametrize("text", ["x,y,z\n1,2,3\n", 'x,y, z \n0_1,2,"3"\n'],
                         ids=["plain", "walk"])
def test_column_that_must_be_absent_raises(tmp_path, text):
    path = _write(tmp_path / "t.csv", text)
    with pytest.raises(ValidationError, match="unexpected column 'z'"):
        read_columns(path, ["x"], absent=("w", "z"))
    assert read_columns(path, ["x"], absent=("w",))["x"].tolist() == [1.0]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_write_table_rejects_a_non_finite_value(tmp_path, value):
    with pytest.raises(NumericalError, match="column 'y' holds a non-finite"):
        write_table(tmp_path / "t.csv", ["x", "y"], [[1.0, 2.0], [3.0, value]])
    assert not (tmp_path / "t.csv").exists()


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
