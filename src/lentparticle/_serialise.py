"""The one number format of every output file: integers as ``str``, floats
with 17 significant digits in CSV and as ``repr`` in JSON, both exact.  CSV
is formatted in bulk, one ``%``-template per row over chunks of rows."""

from __future__ import annotations

import csv
import dataclasses
from itertools import chain

import numpy as np

_CHUNK_ROWS = 4096


def _directive(column) -> str:
    """The ``%``-directive of a column: ``%s`` (``str``) for an integer dtype,
    ``%.17g`` (``format(float(v), ".17g")``) for a bool or float one."""
    if not (isinstance(column, np.ndarray) and column.ndim == 1
            and column.dtype.kind in "biuf"):
        raise TypeError(f"a CSV column must be a 1-d numeric array, got {column!r:.60}")
    return "%s" if column.dtype.kind in "iu" else "%.17g"


def write_csv(path, header, columns) -> None:
    """Write RFC-4180 CSV: a header row, then one line per row of numbers,
    row ``i`` holding entry ``i`` of every column (1-d numeric arrays of one
    length)."""
    template = ",".join(map(_directive, columns)) + "\r\n"
    n = len(columns[0])
    if any(len(column) != n for column in columns):
        raise ValueError(f"CSV columns differ in length: {[len(c) for c in columns]}")
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, n, _CHUNK_ROWS):
            rows = zip(*(column[lo:lo + _CHUNK_ROWS].tolist() for column in columns))
            fh.write(template * min(_CHUNK_ROWS, n - lo) % tuple(chain.from_iterable(rows)))


def json_default(obj):
    """``json`` hook: dataclasses as field dicts, numpy values as Python ones."""
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serialisable")
