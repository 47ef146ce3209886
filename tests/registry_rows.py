"""Test registries built from plain rows through the one reader.

A ``Row`` holds one firm-year as typed values. ``registry`` writes rows
as registry CSV text and reads it with ``ingest_csv``, so every registry a
test builds has met the reader's rules; ``rows_of`` gives a registry's
rows back, and ``assert_same_registry`` compares two registries column by
column. ``floats``, ``holders`` and ``take`` read a registry's values,
holder counts and rows, which the table itself holds only as exact units.
"""

import csv
import dataclasses
import io
from typing import NamedTuple

import numpy as np

from controlpower.dataset import BOARDS, CSV_COLUMNS, MAX_HOLDERS, OWNERSHIPS, Registry, ingest_csv


class Row(NamedTuple):
    firm_id: str
    year: int
    board: str
    ownership: str
    shares: tuple
    meeting_share: float | None = None


def _text(value) -> str:
    """A cell: blank for None, a float as the shortest decimal that reads as
    it (no exponent), anything else as str."""
    if value is None:
        return ""
    return np.format_float_positional(value, trim="-") if isinstance(value, float) else str(value)


def row_cells(row) -> list[str]:
    """The CSV cells of a row (a ``Row`` or a tuple in its field order), in
    ``CSV_COLUMNS`` order."""
    firm_id, year, board, ownership, shares, meeting_share = Row(*row)
    shares = [_text(s) for s in shares]
    return [firm_id, _text(year), board, ownership, *shares, *[""] * (MAX_HOLDERS - len(shares)),
            _text(meeting_share)]


def registry(rows):
    """The registry of ``rows``, written as CSV and read by ``ingest_csv``."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(map(row_cells, rows))
    text.seek(0)
    return ingest_csv(text)


def floats(registry) -> np.ndarray:
    """The float64 block of every row's shares and meeting share: each
    value's units over 10^scale, correctly rounded."""
    return registry.units / 10 ** registry.scale.astype(np.int64)[:, None]


def holders(registry) -> np.ndarray:
    """Each row's holder count: its nonzero shares."""
    return np.count_nonzero(registry.units[:, :MAX_HOLDERS], axis=1)


def take(registry, index):
    """The registry of the rows at ``index``, in that order."""
    rows = index.tolist()
    return Registry(*(c[index] if isinstance(c, np.ndarray) else [c[i] for i in rows] for c in registry.columns()))


def rows_of(registry) -> list[Row]:
    """The rows of a registry, each share and meeting share the float its
    units read as."""
    columns = (c.tolist() if isinstance(c, np.ndarray) else c for c in registry.columns()[:-2])
    return [Row(firm_id, year, BOARDS[board], OWNERSHIPS[ownership], tuple(values[:n]),
                values[MAX_HOLDERS] if has else None)
            for year, board, ownership, firm_id, has, n, values
            in zip(*columns, holders(registry).tolist(), floats(registry).tolist())]


def assert_same_registry(a, b) -> None:
    """Equal columns, numpy ones of the same dtype, and the same length."""
    assert len(a) == len(b)
    for field, x, y in zip(dataclasses.fields(a), a.columns(), b.columns(), strict=True):
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), field.name
        else:
            assert x == y, field.name
