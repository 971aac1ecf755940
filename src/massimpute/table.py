"""CSV tables and JSON input: the one module that writes or parses CSV or reads JSON.

Written files use LF line endings, quote a header cell only when it contains
a comma, a quote or a line break, and hold floats as their shortest
round-trip representation, so reading a file back returns the exact values.
Files with CRLF or CR line endings read the same as LF files.

A file without quotes or NULs is opened with universal newlines, so that
every line ending reads as LF, and parsed by numpy's C reader
(``np.loadtxt``), a chunk of ``_READ_ROWS`` rows at a time.  The scan that
checks the file also counts its lines, which bound its rows, so each numeric
column is one float array of that length, into which every chunk's cells are
written as they are parsed.  A text column is stripped a chunk at a time and
kept as integer codes into its levels (:class:`TextColumn`), never as an
array of Python strings.  Any other file, and any file that reader rejects or
whose values hold a non-finite number or an empty text cell, is parsed again
by ``csv.reader`` and walked cell by cell, so both paths give the same values
and the same errors.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyFile,
    MissingColumn,
    MissingValue,
    NonFiniteValue,
    NonNumericValue,
    NumericalError,
    RaggedRow,
    ValidationError,
)


# rows are written in blocks of about this many cells, so that a table is
# never held as Python floats: each costs about 31 bytes a cell.  Writing a
# 2,000 x 205 release file raised the peak resident memory by 0.84 MiB with
# blocks of 2^14 cells and by 0.01 MiB with 2^12, in the same time
_WRITE_CELLS = 2**12
# the numpy path parses this many rows at a time, so that a chunk's parsed
# cells, the text ones as Python strings, are the only copy besides the
# columns themselves
_READ_ROWS = 2**14


def write_table(path, header, columns) -> None:
    """Write equal-length numeric columns under a header row; columns of
    unequal length, a header of another width or one that repeats a name
    raise :class:`ValidationError`, and a non-finite value
    :class:`NumericalError`, before the file is opened."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    n = len(columns[0]) if columns else 0
    if len(header) != len(columns) or any(len(c) != n for c in columns):
        raise ValidationError(
            f"{path}: a header of {len(header)} names for {len(columns)} "
            f"columns of lengths {sorted({len(c) for c in columns})}")
    if len(set(header)) < len(header):  # a reader would take the first
        raise ValidationError(f"{path}: the header repeats the names "
                              f"{sorted({h for h in header if header.count(h) > 1})}")
    for name, column in zip(header, columns):
        if not np.isfinite(column).all():
            raise NumericalError(f"{path}: column {name!r} holds a non-finite number")
    rows = max(1, _WRITE_CELLS // max(1, len(columns)))
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for start in range(0, n, rows):
            # repr() of a Python float is its shortest round-trip form, the
            # str() csv.writer writes, and no float needs quoting
            block = zip(*(c[start : start + rows].tolist() for c in columns))
            fh.writelines(",".join(map(repr, row)) + "\n" for row in block)


def read_columns(path, names, text=(), absent=()) -> dict[str, np.ndarray | TextColumn]:
    """The columns ``names`` of a CSV file, every cell checked: those in
    ``text`` as :class:`TextColumn` codes of their stripped cells, the others
    as contiguous float arrays of the cells Python's ``float()`` accepts.

    Blank lines are skipped.  Raises :class:`EmptyFile` for no data row,
    :class:`RaggedRow` for a row whose cell count differs from the header's,
    :class:`MissingColumn` for the first name absent from the header, or
    :class:`ValidationError` for the first it repeats, or for the first name
    of ``absent`` that it holds, then, column by column
    in the order of ``names``, :class:`MissingValue`, :class:`NonNumericValue`
    or :class:`NonFiniteValue` for the first bad cell.  Rows are numbered
    from 1 over data rows.  The module docstring names the two parse paths.
    """
    columns = _read_plain(path, names, text, absent)
    return _read_checked(path, names, text, absent) if columns is None else columns


@dataclass(frozen=True)
class TextColumn:
    """A text column: row i's stripped cell is ``levels[codes[i]]``, and
    ``levels`` holds the distinct cells in order of first appearance."""

    codes: np.ndarray
    levels: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.codes)


def _encode(cells, levels: dict) -> np.ndarray:
    """The codes of the stripped ``cells``; ``levels`` maps each level seen so
    far to its code and gains the new ones."""
    return np.fromiter((levels.setdefault(cell.strip(), len(levels)) for cell in cells),
                       np.int32, len(cells))


def _read_plain(path, names, text, absent=()):
    """:func:`read_columns` by ``np.loadtxt``, or None where the file or its
    values need the checked walk.  Universal newlines give ``csv.reader``'s
    lines: it too ends a line at CR, LF or CRLF."""
    with open(path) as fh:
        try:  # a UnicodeDecodeError is a ValueError
            scan = _scan_plain(fh)
            # a name absent from the header, or repeated, takes the walk, as
            # does a name of ``absent`` that it holds
            if (scan is None or any(scan[0].count(name) != 1 for name in names)
                    or not set(scan[0]).isdisjoint(absent)):
                return None
            header, bound = scan
            index = {name: header.index(name) for name in names}
            # one field per header cell, so a row of another width raises;
            # cells of unrequested columns are not checked, as in the walk
            kinds = ["U1"] * len(header)
            for name, j in index.items():
                kinds[j] = object if name in text else float
            dtype = [(f"f{j}", kind) for j, kind in enumerate(kinds)]
            numbers = {name: np.empty(bound) for name in index if name not in text}
            codes = {name: np.empty(bound, np.int32) for name in index if name in text}
            levels = {name: {} for name in codes}
            fh.seek(0)
            next(fh)  # the header line
            # loadtxt skips blank lines itself, but warns when given max_rows
            lines = filter("\n".__ne__, fh)
            filled = 0
            while filled < bound and (first := next(lines, None)) is not None:
                chunk = np.loadtxt(
                    itertools.chain((first,), lines), dtype=dtype, delimiter=",",
                    comments=None, max_rows=min(_READ_ROWS, bound - filled), ndmin=1,
                )
                rows = slice(filled, filled + len(chunk))
                for name, column in numbers.items():
                    column[rows] = chunk[f"f{index[name]}"]
                    if not np.isfinite(column[rows]).all():
                        return None
                for name, column in codes.items():
                    column[rows] = _encode(chunk[f"f{index[name]}"], levels[name])
                filled = rows.stop
        except ValueError:
            return None
    if any("" in seen for seen in levels.values()):
        return None
    return {
        **{name: TextColumn(codes[name][:filled], tuple(levels[name])) for name in codes},
        **{name: column[:filled] for name, column in numbers.items()},
    }


def _scan_plain(fh):
    """The stripped header cells of a file that ``csv.reader`` and
    ``np.loadtxt`` split alike and that has a non-blank data line, and a bound
    on its data rows (its lines after the header), else None.

    The file is read in chunks of half ``csv.field_size_limit()``, so a cell
    too long for ``csv.reader`` covers a whole chunk without a comma or line
    break and sends the file to the walk, which raises for it.
    """
    head, header, rows, lines, last = "", None, False, 0, "\n"
    size = csv.field_size_limit() // 2
    while chunk := fh.read(size):
        if '"' in chunk or "\0" in chunk:
            return None
        if "," not in chunk and "\n" not in chunk:
            return None
        last = chunk[-1]
        if header is None:
            head += chunk
            if "\n" not in head:
                continue
            line, _, chunk = head.partition("\n")
            if not line:  # csv.reader reads an empty header line as no cells
                return None
            header = [h.strip() for h in line.split(",")]
        newlines = chunk.count("\n")
        rows = rows or newlines < len(chunk)
        lines += newlines
    # a last line without a line break is a row too
    return (header, lines + (last != "\n")) if rows else None


def _read_checked(path, names, text, absent=()):
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
        if header.count(name) > 1:
            raise ValidationError(f"{path}: column {name!r} appears "
                                  f"{header.count(name)} times in the header")
    for name in absent:
        if name in header:
            raise ValidationError(f"{path}: unexpected column {name!r}")
    index = {name: header.index(name) for name in names}

    numeric = [name for name in index if name not in text]
    columns = {}
    for name, j in index.items():
        if name in text:
            levels = {}
            codes = _encode([row[j] for row in rows], levels)
            columns[name] = TextColumn(codes, tuple(levels))
    try:
        # one parse of all numeric cells; each row of the result is a column
        numbers = np.array(
            [[row[j] for row in rows] for j in map(index.get, numeric)], dtype=float
        )
        if (np.isfinite(numbers).all()
                and not any("" in v.levels for v in columns.values())):
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
