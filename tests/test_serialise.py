"""The bulk CSV writer, byte for byte against the per-row writer it replaced."""

import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lentparticle import _serialise
from lentparticle._serialise import write_csv


def _write_csv_per_row(path, header, rows) -> None:
    """The per-row writer, kept as the reference: ``str`` for ``int`` (bools
    too) and ``np.integer``, ``format(float(v), ".17g")`` for anything else."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(
            [str(v) if isinstance(v, (int, np.integer)) else format(float(v), ".17g") for v in row]
            for row in rows
        )


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
            1.7976931348623157e308, np.inf, -np.inf, np.nan, 0.1, 1 / 3, 1e16, 1e17]
_FLOATS = st.sampled_from(_SPECIAL) | st.floats()
_INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)
# a column kind: its element strategy and its dtype
_KINDS = {
    "float64": (_FLOATS, float),
    "float32": (st.floats(width=32), np.float32),
    "int64": (_INT64, np.int64),
    "uint8": (st.integers(0, 255), np.uint8),
    "bool": (st.booleans(), bool),
}


@st.composite
def tables(draw):
    """A header and one to five columns of one kind each, of 0 to 12 rows."""
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(sorted(_KINDS)), min_size=1, max_size=5))
    header = draw(st.lists(st.text('ab_,"\n ', max_size=4), min_size=len(kinds),
                           max_size=len(kinds)))
    columns = []
    for kind in kinds:
        element, dtype = _KINDS[kind]
        columns.append(np.array(draw(st.lists(element, min_size=n, max_size=n)), dtype=dtype))
    return header, columns


def _both(header, columns) -> tuple[bytes, bytes]:
    """The bytes of the bulk writer on ``columns`` and of the per-row writer
    on their rows, each entry the column's numpy scalar."""
    with tempfile.TemporaryDirectory() as tmp:
        bulk, per_row = Path(tmp) / "bulk.csv", Path(tmp) / "per_row.csv"
        write_csv(bulk, header, columns)
        _write_csv_per_row(per_row, header, zip(*columns))
        return bulk.read_bytes(), per_row.read_bytes()


@settings(max_examples=300, deadline=None)
@given(tables(), st.sampled_from([1, 2, 5, 4096]))
def test_bulk_csv_matches_the_per_row_writer(table, chunk_rows):
    header, columns = table
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_serialise, "_CHUNK_ROWS", chunk_rows)
        bulk, per_row = _both(header, columns)
    assert bulk == per_row


def test_bulk_csv_over_several_chunks():
    rng = np.random.default_rng(7)
    n = 2 * _serialise._CHUNK_ROWS + 3
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
    floats[[0, 1, 2, 3, n - 1]] = [-0.0, np.inf, np.nan, 5e-324, -np.inf]
    columns = [floats, rng.integers(-5, 5, n), rng.random(n) < 0.5, floats[::-1]]
    bulk, per_row = _both(["x", "k", "flag", "y"], columns)
    assert bulk == per_row and bulk.count(b"\r\n") == n + 1


def test_zero_row_table_is_its_header():
    bulk, per_row = _both(["time", "X_1"], [np.zeros(0), np.zeros(0, dtype=int)])
    assert bulk == per_row == b"time,X_1\r\n"


@pytest.mark.parametrize("column", [[1.0, 2.0], (1, 2), np.array([[1.0], [2.0]]),
                                    np.array(["1", "2"]), np.array([1, 2], dtype=object)])
def test_a_column_that_is_not_a_1d_numeric_array_is_refused(tmp_path, column):
    with pytest.raises(TypeError, match="1-d numeric array"):
        write_csv(tmp_path / "t.csv", ["x", "y"], [np.zeros(2), column])


def test_columns_of_different_lengths_are_refused(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        write_csv(tmp_path / "t.csv", ["x", "y"], [np.zeros(2), np.zeros(3)])
