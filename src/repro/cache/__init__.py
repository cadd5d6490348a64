"""Hotness-aware embedding caches — the paper's core contribution.

* :mod:`repro.cache.core` — the unified policy-pluggable cache engine:
  :class:`CacheCore` + :class:`CapacityLedger` (centralized capacity
  accounting), the :class:`EvictionStrategy` registry (FIFO/LRU/LFU/CLOCK/
  2Q/ARC/pinned, built only through :func:`make_cache`), and trace-level
  CPS/DPS/ADAPTIVE membership replay (see ``docs/caching.md``).
* :mod:`repro.cache.table` — the fixed-capacity cache embedding table.
* :mod:`repro.cache.hotness` — the hotness table: access counts as arrays,
  and the one place "top-k by (-count, id)" is written.
* :mod:`repro.cache.prefetch` — Algorithm 1 (prefetch D iterations of samples).
* :mod:`repro.cache.filtering` — Algorithm 2 (top-k frequency filtering with
  an entity/relation ratio).
* :mod:`repro.cache.strategies` — CPS and DPS hot-table construction.
* :mod:`repro.cache.sync` — bounded-staleness synchronization (Algorithms 3/4,
  worker side).
"""

from repro.cache.core import (
    CacheCore,
    CapacityError,
    CapacityLedger,
    EvictionStrategy,
    HotnessMembershipCache,
    available_policies,
    make_cache,
    register_policy,
    replay_membership_trace,
    replay_trace,
)
from repro.cache.table import CacheTable, CacheStats
from repro.cache.hotness import HotnessTable, top_merged
from repro.cache.prefetch import prefetch, PrefetchResult
from repro.cache.filtering import filter_hot_ids, split_slots, HotSet
from repro.cache.strategies import (
    HotEmbeddingStrategy,
    ConstantPartialStale,
    DynamicPartialStale,
)
from repro.cache.sync import HotEmbeddingCache

__all__ = [
    "CacheCore",
    "CapacityError",
    "CapacityLedger",
    "EvictionStrategy",
    "HotnessMembershipCache",
    "available_policies",
    "make_cache",
    "register_policy",
    "replay_membership_trace",
    "replay_trace",
    "CacheTable",
    "CacheStats",
    "HotnessTable",
    "top_merged",
    "prefetch",
    "PrefetchResult",
    "filter_hot_ids",
    "split_slots",
    "HotSet",
    "HotEmbeddingStrategy",
    "ConstantPartialStale",
    "DynamicPartialStale",
    "HotEmbeddingCache",
]
