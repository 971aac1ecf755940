"""CSV tables and JSON input: the one module that writes or parses CSV or reads JSON.

Written files use LF line endings, quote a header cell only when it contains
a comma, a quote or a line break, and hold floats as their shortest
round-trip representation, so reading a file back returns the exact values.
Files with CRLF line endings read the same as LF files.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .errors import (
    EmptyFile,
    MissingColumn,
    MissingValue,
    NonFiniteValue,
    NonNumericValue,
    RaggedRow,
    ValidationError,
)


def write_table(path, header, columns) -> None:
    """Write equal-length numeric columns under a header row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        # str() of a Python float is its shortest round-trip repr
        writer.writerows(zip(*(np.asarray(c, dtype=float).tolist() for c in columns)))


def read_columns(path, names, text=()) -> dict[str, np.ndarray]:
    """The columns ``names`` of a CSV file, every cell checked: those in
    ``text`` as object arrays of stripped cells, the others as contiguous
    float arrays of the cells Python's ``float()`` accepts.

    Blank lines are skipped.  Raises :class:`EmptyFile` for no data row,
    :class:`RaggedRow` for a row whose cell count differs from the header's,
    :class:`MissingColumn` for the first absent name, then, column by column
    in the order of ``names``, :class:`MissingValue`, :class:`NonNumericValue`
    or :class:`NonFiniteValue` for the first bad cell.  Rows are numbered
    from 1 over data rows.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = [h.strip() for h in next(reader, [])]
            rows = [row for row in reader if row]
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: unreadable CSV: {exc}") from None
    if not rows:
        raise EmptyFile(str(path))
    for i, row in enumerate(rows, 1):
        if len(row) != len(header):
            raise RaggedRow(i, len(row), len(header))
    for name in names:
        if name not in header:
            raise MissingColumn(name)
    index = {name: header.index(name) for name in names}

    numeric = [name for name in index if name not in text]
    columns = {
        name: np.array([row[j].strip() for row in rows], dtype=object)
        for name, j in index.items() if name in text
    }
    try:
        # one parse of all numeric cells; each row of the result is a column
        numbers = np.array(
            [[row[j] for row in rows] for j in map(index.get, numeric)], dtype=float
        )
        if np.isfinite(numbers).all() and not any("" in v for v in columns.values()):
            return {**columns, **dict(zip(numeric, numbers))}
    except ValueError:
        pass
    # numpy parses str cells with float(), so this walk finds the bad cell
    for name in names:
        for i, row in enumerate(rows, 1):
            cell = row[index[name]]
            if not cell.strip():
                raise MissingValue(name, i)
            if name in text:
                continue
            try:
                value = float(cell)
            except ValueError:
                raise NonNumericValue(name, i, cell) from None
            if not math.isfinite(value):
                raise NonFiniteValue(name, i, cell)


def read_json(path, error=ValidationError):
    """A JSON document; malformed JSON raises ``error`` naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise error(f"{path}: malformed JSON: {exc}") from None
