"""Reference oracle: vectorised DPS-window hit ratio.

This is ``hotness_window_hit_ratio`` as ``repro.cache.policies`` had it
(moved verbatim when that module was deleted): a second, NumPy-only
implementation of what ``HotnessMembershipCache(mode="dps")`` replays key
by key through the cache core.  Table VI's "HET-KG" column now comes from
the core replay; this stays as the oracle it must agree with exactly
(``tests/test_cache_core.py``).  Not imported by ``src/``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.validation import check_positive


def hotness_window_hit_ratio(
    batches: Sequence[np.ndarray], capacity: int, window: int
) -> float:
    """Hit ratio of a HET-KG-style windowed hotness cache on a pull trace.

    ``batches`` is a sequence of per-iteration access arrays (typically the
    unique ids each mini-batch pulls).  Models DPS: for each window of
    ``window`` consecutive batches, the cache holds the top-``capacity``
    most frequent keys *of that window* (prefetching makes the window known
    in advance).
    """
    check_positive("capacity", capacity)
    check_positive("window", window)
    hits = 0
    total = 0
    for start in range(0, len(batches), window):
        chunk = [np.asarray(b, dtype=np.int64) for b in batches[start : start + window]]
        flat = np.concatenate(chunk) if chunk else np.empty(0, dtype=np.int64)
        total += len(flat)
        if not len(flat):
            continue
        ids, counts = np.unique(flat, return_counts=True)
        order = np.lexsort((ids, -counts))
        hits += int(np.isin(flat, ids[order[:capacity]]).sum())
    return hits / total if total else 0.0
