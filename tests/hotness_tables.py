"""The tests' edge between id -> count dict literals and HotnessTable.

``src/`` speaks :class:`repro.cache.hotness.HotnessTable` only; tests that
state their counts as dict literals (and the dict oracles under
``tests/reference/``) convert here.
"""

from __future__ import annotations

import numpy as np

from repro.cache.hotness import HotnessTable


def as_table(counts: dict[int, int] | dict[int, float]) -> HotnessTable:
    """The table of a count dict (ids ascending, whatever the dict order)."""
    ids = sorted(counts)
    values = [counts[i] for i in ids]
    dtype = np.float64 if any(isinstance(v, float) for v in values) else np.int64
    return HotnessTable(
        np.asarray(ids, dtype=np.int64), np.asarray(values, dtype=dtype)
    )


def as_dict(table: HotnessTable) -> dict:
    """The id -> count dict of a table."""
    return dict(zip(table.ids.tolist(), table.counts.tolist()))
