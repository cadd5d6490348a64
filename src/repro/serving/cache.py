"""Hotness-aware inference cache.

The same skew that motivates the training cache (Fig. 2) dominates the
inference stream: a small hot set of entities/relations absorbs most
query traffic.  The serving cache keeps that hot set frontend-local so a
hit avoids the pull to the owning shard entirely.

Two variants, mirroring the paper's training-side strategies:

* **static** (CPS-style) — the hot set is computed once from a query-log
  frequency profile with the training code path
  (:func:`repro.cache.filtering.filter_hot_ids`, Alg. 2) and pinned;
  nothing is ever evicted.  The ``entity_ratio`` knob carries over: the
  heterogeneity fix matters at inference too, since every query touches
  a relation row.
* **dynamic** — a reactive eviction policy per table (any of
  :func:`reactive_policies`: LRU/LFU/FIFO/CLOCK/2Q/ARC and whatever else
  is registered), for workloads whose hot set drifts faster than the log
  can be re-profiled.  Capacity is divided between the entity and relation
  tables by the *same* :func:`~repro.cache.filtering.split_slots` rule
  the training filter uses, so the two tiers always agree on the split
  and the slots sum to exactly ``capacity``.

Both variants run on :class:`repro.cache.core.CacheCore` tables, so the
capacity ledger and hit metering are the unified engine's, not
re-implemented here.

The checkpoint-swap story
-------------------------
Serving never writes embeddings, so there is no staleness protocol: a
cached row is exactly the checkpointed row.  After a model swap the
cached *rows* are stale but the *membership* is still the best available
prediction of what is hot.  :meth:`ServingCache.invalidate` therefore
drops all resident rows (``size()`` goes to 0, the next access to each
row misses and re-pulls it from the new checkpoint) but keeps static
memberships as *warming*: each formerly pinned id misses exactly once
and is then re-admitted, so the hit ratio dips for one pass over the hot
set instead of flatlining at zero until a full re-profile.  Dynamic
tables simply restart cold and re-learn.
"""

from __future__ import annotations

import numpy as np

from repro.cache.core import (
    CacheCore,
    PinnedStrategy,
    available_policies,
    make_cache,
)
from repro.cache.filtering import HotSet, filter_hot_ids, split_slots
from repro.utils.validation import check_positive


def reactive_policies() -> list[str]:
    """Registered core policies that admit on a miss (all but ``pinned``)."""
    return [name for name in available_policies() if name != "pinned"]


def cache_policies() -> tuple[str, ...]:
    """The serving-level policy vocabulary, as ``--cache-policy`` and
    :meth:`ServingCache.from_policy` accept it: ``static``, every reactive
    policy, ``none``."""
    return ("static", *reactive_policies(), "none")


class ServingCache:
    """Frontend-local cache over entity and relation rows.

    Use the constructors :meth:`from_policy`, :meth:`static`,
    :meth:`from_query_log`, or :meth:`dynamic` rather than ``__init__``
    directly.
    """

    def __init__(self, tables: dict[str, CacheCore], label: str) -> None:
        if set(tables) != {"entity", "relation"}:
            raise ValueError(
                f"tables must cover entity and relation, got {sorted(tables)}"
            )
        self._tables = tables
        self.label = label

    # ----------------------------------------------------------- constructors

    @classmethod
    def from_policy(
        cls, policy: str, capacity: int, warmup
    ) -> "ServingCache | None":
        """The cache a :func:`cache_policies` name stands for: ``static``
        profiles the ``warmup`` :class:`~repro.serving.queries.QueryLog`,
        a reactive policy starts cold, ``none`` is no cache."""
        if policy == "none":
            return None
        if policy == "static":
            return cls.from_query_log(warmup, capacity)
        return cls.dynamic(capacity, policy=policy)

    @classmethod
    def static(cls, hot_set: HotSet) -> "ServingCache":
        """Pin a pre-computed :class:`~repro.cache.filtering.HotSet`."""
        tables = {}
        for kind, ids in (
            ("entity", hot_set.entities),
            ("relation", hot_set.relations),
        ):
            members = [int(i) for i in ids]
            strategy = PinnedStrategy()
            table = CacheCore(len(members), strategy, label="static")
            strategy.install(members)
            tables[kind] = table
        return cls(tables, label="static")

    @classmethod
    def from_query_log(
        cls,
        log,
        capacity: int,
        entity_ratio: float | None = 0.25,
    ) -> "ServingCache":
        """Profile a :class:`~repro.serving.queries.QueryLog` and pin the
        resulting hot set (the serving analogue of prefetch -> filter)."""
        check_positive("capacity", capacity)
        entity_counts, relation_counts = log.access_counts()
        hot = filter_hot_ids(
            entity_counts, relation_counts, capacity, entity_ratio
        )
        return cls.static(hot)

    @classmethod
    def dynamic(
        cls,
        capacity: int,
        policy: str = "lru",
        entity_ratio: float = 0.25,
    ) -> "ServingCache":
        """Reactive cache: one eviction policy instance per table.

        ``entity_ratio`` splits ``capacity`` between the entity and
        relation tables via :func:`~repro.cache.filtering.split_slots`,
        identically to the static filter — the two slot counts sum to
        exactly ``capacity`` (a zero-slot side never admits).
        """
        check_positive("capacity", capacity)
        if policy not in reactive_policies():
            raise KeyError(
                f"unknown policy {policy!r}; available: {reactive_policies()}"
            )
        entity_slots, relation_slots = split_slots(capacity, entity_ratio)
        tables = {
            "entity": make_cache(policy, entity_slots),
            "relation": make_cache(policy, relation_slots),
        }
        return cls(tables, label=policy)

    # ----------------------------------------------------------------- lookup

    def lookup(self, kind: str, ids: np.ndarray) -> np.ndarray:
        """Boolean hit mask for ``ids`` (dynamic caches admit misses).

        ``ids`` should already be deduplicated by the caller — the
        frontend looks up each distinct row once per batch, matching how
        a real dispatch gathers unique rows — and reaches the table as
        one :meth:`~repro.cache.core.CacheCore.access_many` call.
        """
        return self._tables[kind].access_many(ids)

    # ------------------------------------------------------------------ stats

    @property
    def hits(self) -> int:
        """Lookups that hit, summed over the two tables' own meters."""
        return sum(t.hits for t in self._tables.values())

    @property
    def misses(self) -> int:
        return sum(t.misses for t in self._tables.values())

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def size(self) -> int:
        """Rows currently resident (pinned or admitted)."""
        return sum(len(t) for t in self._tables.values())

    def table(self, kind: str) -> CacheCore:
        """The backing :class:`~repro.cache.core.CacheCore` for one kind."""
        return self._tables[kind]

    def invalidate(self) -> None:
        """Drop all cached rows after a checkpoint swap.

        Static (pinned) tables keep their membership as *warming*: each
        formerly hot id misses once (re-pulling the fresh row) and is
        re-admitted, so the cache re-warms in one pass instead of staying
        empty forever.  Dynamic tables restart cold.
        """
        for table in self._tables.values():
            if isinstance(table.strategy, PinnedStrategy):
                table.strategy.invalidate_rows()
            else:
                table.clear()

    def rewarmed(self, hot_set: HotSet) -> "ServingCache":
        """Adopt a new hot membership, preserving capacity and policy.

        The cache keeps its configured shape: a static table re-pins the
        new membership (capped to the table's capacity — the hot-set
        arrays are ordered hottest-first, so the cap keeps the hottest
        prefix), a dynamic table clears and pre-admits the capped
        membership through its normal admission path, so the policy's own
        ordering state (recency lists, clock bits, ARC queues) starts
        warm rather than being silently replaced by an uncapped static
        pin.  Cumulative hit/miss counters survive, so mid-run re-warms
        keep the reported hit ratio continuous.

        Returns ``self`` for chaining.
        """
        for kind, ids in (
            ("entity", hot_set.entities),
            ("relation", hot_set.relations),
        ):
            table = self._tables[kind]
            members = [int(i) for i in ids][: table.capacity]
            if isinstance(table.strategy, PinnedStrategy):
                table.strategy.install(members)
            else:
                hits_before, misses_before = table.hits, table.misses
                table.clear()
                table.access_many(members)
                # Pre-admission is background warming, not served traffic:
                # keep the table's own meters where they were.
                table.hits, table.misses = hits_before, misses_before
        return self

    def __repr__(self) -> str:
        return (
            f"ServingCache(label={self.label!r}, size={self.size()}, "
            f"hit_ratio={self.hit_ratio:.3f})"
        )
