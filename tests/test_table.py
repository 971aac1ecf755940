"""The CSV column reader."""

import numpy as np
import pytest

from massimpute.errors import (
    MissingColumn,
    MissingValue,
    NonFiniteValue,
    NonNumericValue,
)
from massimpute.table import read_columns


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
