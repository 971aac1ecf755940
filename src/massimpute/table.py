"""CSV tables and JSON input: the one module that writes or parses CSV or reads JSON.

Written files use LF line endings, quote a header cell only when it contains
a comma, a quote or a line break, and hold floats as their shortest
round-trip representation, so reading a file back returns the exact values.
Files with CRLF line endings read the same as LF files.

A file without quotes, carriage returns or NULs is parsed by numpy's C reader
(``np.loadtxt``).  Any other file, and any file that reader rejects or whose
values hold a non-finite number or an empty text cell, is parsed again by
``csv.reader`` and walked cell by cell, so both paths give the same values
and the same errors.
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


# rows are written in blocks of about this many cells, so that a table is
# never held as Python floats: each costs about 31 bytes a cell
_WRITE_CELLS = 2**14


def write_table(path, header, columns) -> None:
    """Write equal-length numeric columns under a header row; columns of
    unequal length, or a header of another width, raise
    :class:`ValidationError` before the file is opened."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    n = len(columns[0]) if columns else 0
    if len(header) != len(columns) or any(len(c) != n for c in columns):
        raise ValidationError(
            f"{path}: a header of {len(header)} names for {len(columns)} "
            f"columns of lengths {sorted({len(c) for c in columns})}")
    rows = max(1, _WRITE_CELLS // max(1, len(columns)))
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for start in range(0, n, rows):
            # repr() of a Python float is its shortest round-trip form, the
            # str() csv.writer writes, and no float needs quoting
            block = zip(*(c[start : start + rows].tolist() for c in columns))
            fh.writelines(",".join(map(repr, row)) + "\n" for row in block)


def read_columns(path, names, text=()) -> dict[str, np.ndarray]:
    """The columns ``names`` of a CSV file, every cell checked: those in
    ``text`` as object arrays of stripped cells, the others as contiguous
    float arrays of the cells Python's ``float()`` accepts.

    Blank lines are skipped.  Raises :class:`EmptyFile` for no data row,
    :class:`RaggedRow` for a row whose cell count differs from the header's,
    :class:`MissingColumn` for the first absent name, then, column by column
    in the order of ``names``, :class:`MissingValue`, :class:`NonNumericValue`
    or :class:`NonFiniteValue` for the first bad cell.  Rows are numbered
    from 1 over data rows.  The module docstring names the two parse paths.
    """
    columns = _read_plain(path, names, text)
    return _read_checked(path, names, text) if columns is None else columns


def _read_plain(path, names, text):
    """:func:`read_columns` by ``np.loadtxt``, or None where the file or its
    values need the checked walk."""
    with open(path, newline="") as fh:
        try:  # a UnicodeDecodeError is a ValueError
            header = _plain_header(fh)
            if header is None or any(name not in header for name in names):
                return None
            index = {name: header.index(name) for name in names}
            # one field per header cell, so a row of another width raises;
            # cells of unrequested columns are not checked, as in the walk
            kinds = ["U1"] * len(header)
            for name, j in index.items():
                kinds[j] = object if name in text else float
            fh.seek(0)
            table = np.loadtxt(
                fh, dtype=[(f"f{j}", kind) for j, kind in enumerate(kinds)],
                delimiter=",", comments=None, skiprows=1, ndmin=1,
            )
        except ValueError:
            return None

    numeric = [name for name in index if name not in text]
    numbers = np.empty((len(numeric), len(table)))
    for row, name in zip(numbers, numeric):
        row[...] = table[f"f{index[name]}"]
    columns = {
        name: np.array([cell.strip() for cell in table[f"f{j}"]], dtype=object)
        for name, j in index.items() if name in text
    }
    if not np.isfinite(numbers).all() or any("" in v for v in columns.values()):
        return None
    return {**columns, **dict(zip(numeric, numbers))}


def _plain_header(fh):
    """The stripped header cells of a file that ``csv.reader`` and
    ``np.loadtxt`` split alike and that has a non-blank data line, else None.

    The file is read in chunks of half ``csv.field_size_limit()``, so a cell
    too long for ``csv.reader`` covers a whole chunk without a comma or line
    break and sends the file to the walk, which raises for it.
    """
    head, header, rows = "", None, False
    size = csv.field_size_limit() // 2
    while chunk := fh.read(size):
        if '"' in chunk or "\r" in chunk or "\0" in chunk:
            return None
        if "," not in chunk and "\n" not in chunk:
            return None
        if header is None:
            head += chunk
            if "\n" not in head:
                continue
            line, _, chunk = head.partition("\n")
            if not line:  # csv.reader reads an empty header line as no cells
                return None
            header = [h.strip() for h in line.split(",")]
        rows = rows or chunk.count("\n") < len(chunk)
    return header if rows else None


def _read_checked(path, names, text):
    """:func:`read_columns` by ``csv.reader``, every cell checked."""
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
