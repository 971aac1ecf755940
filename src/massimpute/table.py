"""CSV tables: the one module that writes or parses CSV.

Written files use LF line endings, quote a header cell only when it contains
a comma, a quote or a line break, and hold floats as their shortest
round-trip representation, so reading a file back returns the exact values.
Files with CRLF line endings read the same as LF files.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import EmptyFile, RaggedRow, ValidationError


def write_table(path, header, columns) -> None:
    """Write equal-length numeric columns under a header row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        # str() of a Python float is its shortest round-trip repr
        writer.writerows(zip(*(np.asarray(c, dtype=float).tolist() for c in columns)))


def read_table(path) -> tuple[list[str], list[list[str]]]:
    """Stripped header and the data rows as strings; blank lines are skipped.

    Raises :class:`EmptyFile` when there is no data row and
    :class:`RaggedRow`, naming the 1-based data row, when a row's cell count
    differs from the header's.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = [row for row in reader if row]
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: unreadable CSV: {exc}") from None
    if header is None or not rows:
        raise EmptyFile(str(path))
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise RaggedRow(i + 1, len(row), len(header))
    return [h.strip() for h in header], rows
