"""CSV tables and JSON documents: the one CSV and the one JSON reader and writer.

Written files use LF line endings, quote a header cell only when it contains
a comma, a quote or a line break, and hold floats as their shortest
round-trip representation, so reading a file back returns the exact values.
Files with CRLF or CR line endings read the same as LF files.

A file is parsed by numpy's C reader (``np.loadtxt``), which with
``quotechar`` splits quoted cells, doubled quotes and commas and line breaks
inside quotes as ``csv.reader`` does, a chunk of ``_READ_ROWS`` rows at a
time.  A scan counts the file's lines, which bound its rows, so each numeric
column is one float array of that length, into which every chunk's cells are
written as they are parsed.  A text column is stripped a chunk at a time and
kept as integer codes into its levels (:class:`TextColumn`), never as an
array of Python strings.  A file with a NUL or an unquoted cell too long for
``csv.reader``, or that numpy rejects (a ragged row, or a cell such as
``1_000`` that only ``float()`` reads), or whose values hold a non-finite
number or an empty text cell, is parsed again by ``csv.reader`` and walked a
row at a time into the same columns, keeping no row, so both paths give the
same values and errors, except that numpy reads a quoted cell longer than
``csv.field_size_limit()`` that holds a comma or a line break.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import warnings
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

    Cells are split as ``csv.reader`` splits them, so a quoted cell may hold
    commas, doubled quotes and line breaks.  Blank lines are skipped.  Raises
    :class:`EmptyFile` for no data row,
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
    values need the checked walk.  Lines are read untranslated: loadtxt, as
    ``csv.reader``, ends one at CR, LF or CRLF and keeps one inside quotes."""
    split = functools.partial(np.loadtxt, delimiter=",", quotechar='"', comments=None,
                              ndmin=1)
    bound, plain = _scan(path)
    if not plain:
        return None
    try:  # a UnicodeDecodeError is a ValueError
        with open(path, newline="") as fh, warnings.catch_warnings():
            # loadtxt warns of the blank lines it skips when given max_rows
            warnings.simplefilter("ignore", UserWarning)
            first = next(fh, "")
            if not first.rstrip("\r\n"):  # csv.reader reads it as no cells
                return None
            header = [h.strip() for h in split(itertools.chain((first,), fh), dtype=object,
                                               max_rows=1)]
            # a name absent from the header, or repeated, takes the walk, as
            # does a name of ``absent`` that it holds
            if (any(header.count(name) != 1 for name in names)
                    or not set(header).isdisjoint(absent)):
                return None
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
            filled = 0
            while filled < bound and (first := next(fh, None)) is not None:
                chunk = split(itertools.chain((first,), fh), dtype=dtype,
                              max_rows=min(_READ_ROWS, bound - filled))
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
    if not filled or any("" in seen for seen in levels.values()):
        return None
    return {
        **{name: TextColumn(codes[name][:filled], tuple(levels[name])) for name in codes},
        **{name: column[:filled] for name, column in numbers.items()},
    }


def _scan(path):
    """A bound on the rows of a file, its line breaks and one, and whether
    numpy may read it: not for a NUL, which ``csv.reader`` refuses before
    Python 3.11, nor for an unquoted cell longer than ``csv.field_size_limit()``,
    which fills a block of half that limit with no comma or line break."""
    bound, plain, size = 1, True, csv.field_size_limit() // 2
    with open(path, "rb") as fh:
        while block := fh.read(size):
            plain = plain and b"\0" not in block and (
                b"," in block or b"\n" in block or b"\r" in block)
            bound += block.count(b"\n") + block.count(b"\r") - block.count(b"\r\n")
    return bound, plain


def _read_checked(path, names, text, absent=()):
    """:func:`read_columns` by ``csv.reader``, a row at a time into its
    columns, keeping no row.  A column's first bad cell is kept as the error
    it raises once the file is read, as an unreadable or ragged row, or the
    header, takes precedence."""
    bad, ragged, n = {}, None, 0
    bound = _scan(path)[0]
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = [h.strip() for h in next(reader, [])]
            index = {name: header.index(name) for name in names if name in header}
            out = {name: np.empty(bound, "i4" if name in text else "f8") for name in index}
            levels = {name: {} for name in index if name in text}
            for row in filter(None, reader):
                n += 1
                if ragged or len(row) != len(header):
                    ragged = ragged or RaggedRow(n, len(row), len(header))
                    continue
                for name, j in index.items():
                    if name not in bad:
                        try:
                            out[name][n - 1] = _value(name, n, row[j], levels.get(name))
                        except ValidationError as exc:
                            bad[name] = exc
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: unreadable CSV: {exc}") from None
    if not n:
        raise EmptyFile(str(path))
    if ragged:
        raise ragged
    for name in names:
        if name not in header:
            raise MissingColumn(name)
        if header.count(name) > 1:
            raise ValidationError(f"{path}: column {name!r} appears "
                                  f"{header.count(name)} times in the header")
    for name in absent:
        if name in header:
            raise ValidationError(f"{path}: unexpected column {name!r}")
    for name in names:
        if name in bad:
            raise bad[name]
    return {
        **{name: TextColumn(out[name][:n], tuple(levels[name])) for name in levels},
        **{name: out[name][:n] for name in index if name not in levels},
    }


def _value(name, i, cell, levels):
    """Row i's ``cell`` of column ``name`` as a float, or, for a text column,
    as the code of its stripped cell in ``levels``, which gains a new one."""
    if not cell.strip():
        raise MissingValue(name, i)
    if levels is not None:
        return levels.setdefault(cell.strip(), len(levels))
    try:
        value = float(cell)
    except ValueError:
        raise NonNumericValue(name, i, cell) from None
    if not math.isfinite(value):
        raise NonFiniteValue(name, i, cell)
    return value


def write_json(path, doc) -> None:
    """Write ``doc`` with sorted keys, indented by two spaces, and a final
    newline; a non-finite number in it raises :class:`NumericalError` before
    the file is opened."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise NumericalError(f"{path}: a result is not finite") from None
    with open(path, "w") as fh:
        fh.write(text + "\n")


def read_json(path, error=ValidationError):
    """A JSON document; malformed JSON raises ``error`` naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise error(f"{path}: malformed JSON: {exc}") from None
