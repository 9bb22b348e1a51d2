"""The one number format of every output file: integers as ``str``, floats
with 17 significant digits in CSV and as ``repr`` in JSON, both exact."""

from __future__ import annotations

import csv
import dataclasses

import numpy as np


def write_csv(path, header, rows) -> None:
    """Write RFC-4180 CSV: a header row, then one line per row of numbers."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(
            [str(v) if isinstance(v, (int, np.integer)) else format(float(v), ".17g") for v in row]
            for row in rows
        )


def json_default(obj):
    """``json`` hook: dataclasses as field dicts, numpy values as Python ones."""
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serialisable")
