"""The unified cache engine: one core, many policies.

Fang et al. (arXiv:2208.05321) frame HET-KG-style systems as
*frequency-aware software caches*: what varies between CPS, DPS, LRU, or
ARC is only the policy — membership construction, admission, eviction,
and refresh cadence — while capacity accounting, hit metering, and the
residency invariant are the same everywhere.  This repo grew five
independent engines (the Table VI eviction baselines, the CPS/DPS
strategies, ``sync.HotEmbeddingCache``, ``serving.ServingCache``, and the
streaming ADAPTIVE strategy) and the duplication leaked real bugs: segment
caps that sum past the capacity, slot splits that round both sides up, and
an adaptive target compared through ``int()`` truncation.

This module is the single engine they all now share:

:class:`CapacityLedger`
    The **one** place resident-row counts live.  Every admission charges
    it, every eviction releases it, and it *raises* :class:`CapacityError`
    the moment ``resident > capacity`` — an overflowing policy cannot
    silently hold more keys than it was budgeted.
:class:`CacheCore`
    The engine: hit/miss metering, the ledger, and a pluggable
    :class:`EvictionStrategy`.  Its one way in is
    :meth:`CacheCore.access_many` — a whole batch of keys (a serving
    micro-batch's distinct rows, a replayed trace) per call, with exactly
    the semantics of accessing them one after the other; ``access(key)``
    is that call on one key.  After every call it audits
    ``len(strategy) == ledger.resident <= capacity``, so the
    capacity-honesty invariant is enforced in one place instead of being
    re-derived per policy.
:class:`EvictionStrategy`
    The ~50-line contract a new policy implements: one ``access_many``
    loop over its own structures that reports what it admitted and
    evicted for the core to settle once per call.  Every registered
    policy — FIFO, LRU, LFU, CLOCK, 2Q, ARC and pinned — is written that
    way.  Register with :func:`register_policy`; construct by name with
    :func:`make_cache` (the only way to obtain an eviction cache) and
    replay a key trace through it with :func:`replay_trace`.
:class:`PinnedStrategy`
    Static membership (importance caches, CPS hot sets, the serving
    tier's log-profiled cache) as just another strategy: admission by
    installation only, plus a row-invalidation protocol that keeps the
    membership for re-warming after a checkpoint swap.
:func:`replay_membership_trace`
    The paper's CPS/DPS and the streaming ADAPTIVE membership
    construction replayed trace-driven on the same core — what the
    ``cache-shootout`` experiment races against the reactive policies.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from collections import Counter, OrderedDict
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.cache.filtering import HotSet
from repro.cache.hotness import HotnessTable
from repro.utils.validation import check_positive


class CapacityError(ValueError):
    """A policy tried to hold more resident keys than its capacity."""


class CapacityLedger:
    """Centralized resident-count accounting for one cache.

    The ledger is deliberately dumb: it knows nothing about keys or
    policies, only how many rows are resident against the capacity.  Its
    value is *where* it sits — every residency change in the unified core
    flows through :meth:`charge`/:meth:`release`/:meth:`reinstall`, so
    ``resident <= capacity`` cannot be violated by any single policy's
    private arithmetic.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self._resident = 0

    @property
    def resident(self) -> int:
        """Rows currently charged against the capacity."""
        return self._resident

    @property
    def remaining(self) -> int:
        return self.capacity - self._resident

    @property
    def full(self) -> bool:
        return self._resident >= self.capacity

    def check_fits(self, count: int) -> None:
        """Raise :class:`CapacityError` if ``count`` rows cannot be held."""
        if count > self.capacity:
            raise CapacityError(
                f"cannot install {count} entries into capacity {self.capacity}"
            )

    def charge(self, count: int = 1) -> None:
        """Admit ``count`` rows; raises if the capacity would be exceeded."""
        if count < 0:
            raise ValueError(f"charge count must be >= 0, got {count}")
        if self._resident + count > self.capacity:
            raise CapacityError(
                f"admitting {count} would hold {self._resident + count} "
                f"entries in capacity {self.capacity}"
            )
        self._resident += count

    def release(self, count: int = 1) -> None:
        """Evict ``count`` rows; raises if more released than resident."""
        if count < 0:
            raise ValueError(f"release count must be >= 0, got {count}")
        if count > self._resident:
            raise CapacityError(
                f"releasing {count} of {self._resident} resident entries"
            )
        self._resident -= count

    def reinstall(self, count: int) -> None:
        """Wholesale membership replacement (CPS/DPS installs)."""
        if count < 0:
            raise ValueError(f"resident count must be >= 0, got {count}")
        self.check_fits(count)
        self._resident = count

    def audit(self, observed: int) -> None:
        """Cross-check an externally observed resident count."""
        if observed != self._resident or self._resident > self.capacity:
            raise CapacityError(
                f"ledger says {self._resident}/{self.capacity} resident "
                f"but the policy holds {observed}"
            )


# --------------------------------------------------------------- the engine


class EvictionStrategy(ABC):
    """Pure policy logic, pluggable into :class:`CacheCore`.

    A strategy owns its ordering structures (queues, buckets, clock
    hands, ghost lists) but **not** the residency count.  Its one access
    method is :meth:`access_many`, a loop over local variables that
    *counts* its admissions and evictions and leaves the ledger to the
    core: the core charges or releases the net once per call and audits
    ``len(strategy)``, so an overflow raises from the ledger, at the call
    that caused it.
    """

    #: Registry name, set by :func:`register_policy`.
    name: str = "?"

    def __init__(self) -> None:
        self.core: CacheCore | None = None

    def bind(self, core: "CacheCore") -> None:
        """Attach to the owning core (called once, by the core)."""
        self.core = core

    def access_many(self, keys: list[int]) -> tuple[list[int], int, int]:
        """Access ``keys`` in order (only called when ``capacity > 0``).

        Returns ``(hit_positions, admitted, evicted)``: the indices into
        ``keys`` that hit, and how many keys became / stopped being
        resident during the call — the core settles those counts with the
        ledger after the call.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement access_many"
        )

    @abstractmethod
    def __len__(self) -> int:
        """Resident keys, as the strategy's own structures count them."""

    @abstractmethod
    def clear(self) -> None:
        """Drop every resident key and all bookkeeping state."""


class CacheCore:
    """A fixed-capacity cache over opaque integer keys, policy-pluggable.

    The engine behind every membership/eviction cache in the repo:
    ``access_many(keys)`` meters hits and misses, delegates policy
    decisions to the bound :class:`EvictionStrategy`, and enforces the
    capacity invariant through the :class:`CapacityLedger` after every
    call.

    ``capacity == 0`` is a legal degenerate cache: every access misses
    and nothing is ever admitted (one side of a split cache may own zero
    slots).
    """

    def __init__(
        self,
        capacity: int,
        strategy: EvictionStrategy,
        label: str | None = None,
    ) -> None:
        self.ledger = CapacityLedger(capacity)
        self.strategy = strategy
        self.label = label if label is not None else strategy.name
        self.hits = 0
        self.misses = 0
        strategy.bind(self)

    # ----------------------------------------------------------- properties

    @property
    def capacity(self) -> int:
        return self.ledger.capacity

    @property
    def full(self) -> bool:
        return self.ledger.full

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return self.ledger.resident

    # ------------------------------------------ wholesale installs (pinned)

    def reinstall(self, count: int) -> None:
        """Wholesale residency replacement (pinned installs)."""
        self.ledger.reinstall(count)

    # ----------------------------------------------------------------- access

    def access_many(self, keys) -> np.ndarray:
        """Record one access per key, in order; returns the hit mask.

        Exactly the semantics of accessing the keys one after the other:
        a key evicted by an earlier miss of the same call misses, a
        repeated key hits the second time.  ``keys`` is any 1-D sequence
        of integers (validated once, never truncated).  The strategy's
        admissions and evictions are settled with the ledger as one net
        charge or release — a call may evict more keys than were resident
        when it began — and the capacity invariant ``len(cache) <=
        capacity`` is audited here, centrally, for every policy, on every
        call.
        """
        keys = np.asarray(keys)
        if keys.ndim != 1 or (keys.size and keys.dtype.kind not in "iu"):
            raise ValueError(
                f"keys must be a 1-D sequence of integers; got shape "
                f"{keys.shape}, dtype {keys.dtype}"
            )
        mask = np.zeros(len(keys), dtype=bool)
        hits: list[int] = []
        if self.capacity > 0 and len(keys):
            hits, admitted, evicted = self.strategy.access_many(keys.tolist())
            if admitted >= evicted:
                self.ledger.charge(admitted - evicted)
            else:
                self.ledger.release(evicted - admitted)
            self.ledger.audit(len(self.strategy))
            mask[hits] = True
        self.hits += len(hits)
        self.misses += len(keys) - len(hits)
        return mask

    def access(self, key: int) -> bool:
        """Record one access; returns ``True`` on hit."""
        return bool(self.access_many([key])[0])

    def clear(self) -> None:
        """Drop all resident keys and policy state (counters survive)."""
        self.strategy.clear()
        self.ledger.reinstall(0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheCore(label={self.label!r}, resident={len(self)}/"
            f"{self.capacity}, hit_ratio={self.hit_ratio:.3f})"
        )


# ---------------------------------------------------------------- registry


POLICIES: dict[str, type[EvictionStrategy]] = {}


def register_policy(name: str) -> Callable[[type], type]:
    """Class decorator adding an :class:`EvictionStrategy` to the registry.

    This is the whole cost of landing a new policy: write the strategy
    class, decorate it, and it is immediately constructible by name
    everywhere — :func:`make_cache`, ``ServingCache.dynamic`` and the
    ``--cache-policy`` choices, and the property-test matrix.
    """

    def decorate(cls: type) -> type:
        cls.name = name
        POLICIES[name] = cls
        return cls

    return decorate


def available_policies() -> list[str]:
    """Registered policy names, sorted."""
    return sorted(POLICIES)


def make_cache(name: str, capacity: int, **kwargs) -> CacheCore:
    """Construct a :class:`CacheCore` running the named policy."""
    try:
        strategy_cls = POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown policy {name!r}; available: {available_policies()}"
        ) from None
    return CacheCore(capacity, strategy_cls(**kwargs), label=name)


def replay_trace(cache: CacheCore, keys: Sequence[int]) -> float:
    """Feed every key in ``keys`` through ``cache``; returns its hit ratio."""
    cache.access_many(keys)
    return cache.hit_ratio


# ----------------------------------------------------------- the strategies


@register_policy("fifo")
class FIFOStrategy(EvictionStrategy):
    """Evict the oldest-admitted key."""

    def __init__(self) -> None:
        super().__init__()
        self._queue: OrderedDict[int, None] = OrderedDict()

    def access_many(self, keys: list[int]) -> tuple[list[int], int, int]:
        queue = self._queue
        room = self.core.capacity - len(queue)
        hits = []
        evicted = 0
        for position, key in enumerate(keys):
            if key in queue:
                hits.append(position)  # FIFO ignores recency
                continue
            if room:
                room -= 1
            else:
                queue.popitem(last=False)
                evicted += 1
            queue[key] = None
        return hits, len(keys) - len(hits), evicted

    def __len__(self) -> int:
        return len(self._queue)

    def clear(self) -> None:
        self._queue.clear()


@register_policy("lru")
class LRUStrategy(EvictionStrategy):
    """Evict the least recently used key."""

    def __init__(self) -> None:
        super().__init__()
        self._order: OrderedDict[int, None] = OrderedDict()

    def access_many(self, keys: list[int]) -> tuple[list[int], int, int]:
        order = self._order
        room = self.core.capacity - len(order)
        hits = []
        evicted = 0
        for position, key in enumerate(keys):
            if key in order:
                order.move_to_end(key)
                hits.append(position)
                continue
            if room:
                room -= 1
            else:
                order.popitem(last=False)
                evicted += 1
            order[key] = None
        return hits, len(keys) - len(hits), evicted

    def __len__(self) -> int:
        return len(self._order)

    def clear(self) -> None:
        self._order.clear()


@register_policy("lfu")
class LFUStrategy(EvictionStrategy):
    """Evict the least frequently used key (ties: least recent).

    Counts are *historical*: a key evicted and later re-admitted returns
    with its accumulated access count.  Members live in per-count buckets
    ordered by last access; a lazy min-heap of occupied counts finds the
    coldest bucket in O(log n), and the victim (earliest last-accessed
    key among the minimum-count members) is identical to the O(capacity)
    min-scan reference (``RefLFU``, ``tests/reference/``).
    """

    def __init__(self) -> None:
        super().__init__()
        self._counts: Counter[int] = Counter()
        #: count -> members at that count, ascending last-access order.
        self._buckets: dict[int, OrderedDict[int, None]] = {}
        self._count_heap: list[int] = []
        self._members: set[int] = set()

    def access_many(self, keys: list[int]) -> tuple[list[int], int, int]:
        counts, buckets = self._counts, self._buckets
        heap, members = self._count_heap, self._members
        room = self.core.capacity - len(members)
        hits = []
        evicted = 0
        for position, key in enumerate(keys):
            count = counts[key] = counts[key] + 1
            if key in members:
                del buckets[count - 1][key]
                hits.append(position)
            else:
                if room:
                    room -= 1
                else:
                    while True:
                        coldest = buckets.get(heap[0])
                        if coldest:
                            break
                        heapq.heappop(heap)  # stale: bucket drained
                    victim, _ = coldest.popitem(last=False)
                    members.discard(victim)
                    evicted += 1
                members.add(key)
            bucket = buckets.get(count)
            if bucket is None:
                bucket = buckets[count] = OrderedDict()
            if not bucket:
                heapq.heappush(heap, count)
            bucket[key] = None
        return hits, len(keys) - len(hits), evicted

    def __len__(self) -> int:
        return len(self._members)

    def clear(self) -> None:
        self._counts.clear()
        self._buckets.clear()
        self._count_heap.clear()
        self._members.clear()


@register_policy("clock")
class ClockStrategy(EvictionStrategy):
    """CLOCK (second-chance FIFO): a one-bit approximation of LRU."""

    def __init__(self) -> None:
        super().__init__()
        self._keys: list[int] = []
        self._referenced: dict[int, bool] = {}
        self._hand = 0

    def access_many(self, keys: list[int]) -> tuple[list[int], int, int]:
        ring, referenced = self._keys, self._referenced
        capacity = self.core.capacity
        hand = self._hand
        hits = []
        evicted = 0
        for position, key in enumerate(keys):
            if key in referenced:
                referenced[key] = True
                hits.append(position)
                continue
            if len(ring) < capacity:
                ring.append(key)
            else:
                # Advance the hand past referenced keys, clearing their bit.
                while referenced[ring[hand]]:
                    referenced[ring[hand]] = False
                    hand = (hand + 1) % capacity
                del referenced[ring[hand]]
                evicted += 1
                ring[hand] = key
                hand = (hand + 1) % capacity
            referenced[key] = False
        self._hand = hand
        return hits, len(keys) - len(hits), evicted

    def __len__(self) -> int:
        return len(self._keys)

    def clear(self) -> None:
        self._keys.clear()
        self._referenced.clear()
        self._hand = 0


@register_policy("2q")
class TwoQueueStrategy(EvictionStrategy):
    """2Q: a probationary FIFO in front of a protected LRU.

    The segment capacities are carved out of the *core's* capacity —
    ``probation_cap + protected_cap == capacity`` always, which is the
    structural fix for the pre-core overflow where ``max(1, ...)`` on
    both segments let ``capacity=1`` hold two resident keys.  At
    ``capacity == 1`` the protected segment owns zero slots and a
    probation hit simply keeps the key where it is.
    """

    def __init__(self, probation_fraction: float = 0.25) -> None:
        super().__init__()
        if not 0.0 < probation_fraction < 1.0:
            raise ValueError(
                f"probation_fraction must be in (0, 1), got {probation_fraction}"
            )
        self.probation_fraction = probation_fraction
        self._probation: OrderedDict[int, None] = OrderedDict()
        self._protected: OrderedDict[int, None] = OrderedDict()
        self.probation_cap = 0
        self.protected_cap = 0

    def bind(self, core: CacheCore) -> None:
        super().bind(core)
        capacity = core.capacity
        if capacity > 0:
            self.probation_cap = min(
                capacity, max(1, int(capacity * self.probation_fraction))
            )
            self.protected_cap = capacity - self.probation_cap

    def access_many(self, keys: list[int]) -> tuple[list[int], int, int]:
        probation, protected = self._probation, self._protected
        probation_cap, protected_cap = self.probation_cap, self.protected_cap
        hits = []
        evicted = 0
        for position, key in enumerate(keys):
            if key in protected:
                protected.move_to_end(key)
                hits.append(position)
            elif key in probation:
                hits.append(position)
                if protected_cap == 0:
                    continue  # capacity 1: nowhere to promote to; stay probationary
                del probation[key]
                if len(protected) >= protected_cap:
                    protected.popitem(last=False)
                    evicted += 1
                protected[key] = None
            else:
                if len(probation) >= probation_cap:
                    probation.popitem(last=False)
                    evicted += 1
                probation[key] = None
        return hits, len(keys) - len(hits), evicted

    def __len__(self) -> int:
        return len(self._probation) + len(self._protected)

    def clear(self) -> None:
        self._probation.clear()
        self._protected.clear()


@register_policy("arc")
class ARCStrategy(EvictionStrategy):
    """ARC [Megiddo & Modha, FAST 2003]: self-tuning recency/frequency mix.

    Maintains recency (T1) and frequency (T2) segments plus their ghost
    lists (B1/B2); ghost hits adapt the target size ``p`` of T1.  ``p``
    moves by fractional steps (``|B2|/|B1|`` and its inverse), so the
    REPLACE comparison is against the **exact** float target — the
    pre-core code truncated with ``int(p)``, which fired the T1 branch
    when the paper's comparison selects T2 (e.g. ``|T1| = 2`` vs
    ``p = 2.5``).
    """

    def __init__(self) -> None:
        super().__init__()
        self._t1: OrderedDict[int, None] = OrderedDict()  # recent, once
        self._t2: OrderedDict[int, None] = OrderedDict()  # frequent
        self._b1: OrderedDict[int, None] = OrderedDict()  # ghosts of t1
        self._b2: OrderedDict[int, None] = OrderedDict()  # ghosts of t2
        self._p = 0.0  # adaptive target size of t1

    @property
    def p(self) -> float:
        """The adaptive T1 target (exposed for tests/diagnostics)."""
        return self._p

    def _replace(self, in_b2: bool) -> bool:
        """REPLACE: demote one resident key to its ghost list; returns
        whether there was one to demote."""
        if self._t1 and (
            len(self._t1) > self._p or (in_b2 and len(self._t1) >= self._p)
        ):
            victim, _ = self._t1.popitem(last=False)
            self._b1[victim] = None
        elif self._t2:
            victim, _ = self._t2.popitem(last=False)
            self._b2[victim] = None
        elif self._t1:
            victim, _ = self._t1.popitem(last=False)
            self._b1[victim] = None
        else:
            return False
        return True

    def access_many(self, keys: list[int]) -> tuple[list[int], int, int]:
        t1, t2, b1, b2 = self._t1, self._t2, self._b1, self._b2
        capacity = self.core.capacity
        hits = []
        evicted = 0
        for position, key in enumerate(keys):
            if key in t1:
                del t1[key]
                t2[key] = None
                hits.append(position)
            elif key in t2:
                t2.move_to_end(key)
                hits.append(position)
            elif key in b1:
                # Recency ghost hit: grow t1's target.
                self._p = min(
                    float(capacity), self._p + max(1.0, len(b2) / max(1, len(b1)))
                )
                del b1[key]
                evicted += self._replace(in_b2=False)
                t2[key] = None
            elif key in b2:
                # Frequency ghost hit: shrink t1's target.
                self._p = max(
                    0.0, self._p - max(1.0, len(b1) / max(1, len(b2)))
                )
                del b2[key]
                evicted += self._replace(in_b2=True)
                t2[key] = None
            else:
                # Cold miss: case IV of the ARC paper.
                if len(t1) + len(b1) == capacity:
                    if len(t1) < capacity:
                        b1.popitem(last=False)
                        evicted += self._replace(in_b2=False)
                    else:
                        t1.popitem(last=False)
                        evicted += 1
                elif len(t1) + len(b1) < capacity:
                    total = len(t1) + len(t2) + len(b1) + len(b2)
                    if total >= capacity:
                        if total == 2 * capacity and b2:
                            b2.popitem(last=False)
                        evicted += self._replace(in_b2=False)
                t1[key] = None
        return hits, len(keys) - len(hits), evicted

    def __len__(self) -> int:
        return len(self._t1) + len(self._t2)

    def clear(self) -> None:
        self._t1.clear()
        self._t2.clear()
        self._b1.clear()
        self._b2.clear()
        self._p = 0.0


@register_policy("pinned")
class PinnedStrategy(EvictionStrategy):
    """Static membership: admission by installation only.

    The strategy behind every hot-*set* cache in the repo — importance
    caches, CPS/DPS window installs, and the serving tier's log-profiled
    cache.  Accesses never change the membership; :meth:`install`
    replaces it wholesale through the ledger.

    :meth:`invalidate_rows` implements the checkpoint-swap protocol:
    the cached *rows* are stale and dropped (residency goes to zero),
    but the membership is remembered as *warming* — the next access to a
    warming key misses exactly once (modelling the re-pull of the fresh
    row) and re-admits it.  The hit ratio dips for one pass over the hot
    set instead of flatlining at zero forever.
    """

    def __init__(self) -> None:
        super().__init__()
        self._members: set[int] = set()
        self._warming: set[int] = set()

    def access_many(self, keys: list[int]) -> tuple[list[int], int, int]:
        members, warming = self._members, self._warming
        hits = []
        admitted = 0
        for position, key in enumerate(keys):
            if key in members:
                hits.append(position)  # static membership: nothing to reorder
            elif key in warming:
                warming.discard(key)
                members.add(key)
                admitted += 1
        return hits, admitted, 0

    def install(self, keys: Iterable[int]) -> None:
        """Replace the membership wholesale (ledger-checked)."""
        members = {int(k) for k in keys}
        self.core.reinstall(len(members))
        self._members = members
        self._warming = set()

    def invalidate_rows(self) -> None:
        """Drop the rows, keep the membership for re-warming."""
        self._warming |= self._members
        self._members = set()
        self.core.reinstall(0)

    @property
    def members(self) -> set[int]:
        return set(self._members)

    @property
    def warming(self) -> set[int]:
        return set(self._warming)

    def __len__(self) -> int:
        return len(self._members)

    def clear(self) -> None:
        self._members.clear()
        self._warming.clear()


# ------------------------------------------- hotness membership construction


class HotnessMembershipCache:
    """CPS/DPS/ADAPTIVE membership construction, replayed on the core.

    Trace-driven equivalent of the training strategies, over a single
    merged key space (the Table-VI convention: relations offset past the
    entity ids).  Membership is pinned via :class:`PinnedStrategy`, so
    every install flows through the same :class:`CapacityLedger` the
    reactive policies charge.

    Modes
    -----
    ``cps``
        One global top-``capacity`` from the whole trace, fixed for the
        run (the prefetch-the-entire-subgraph strategy).
    ``dps``
        Top-``capacity`` of each upcoming ``window``-batch chunk (Table
        VI's "HET-KG" column) — bit-equal to the vectorised oracle
        ``tests/reference/hotness_window.py``.
    ``adaptive``
        The streaming drift-adaptive strategy at trace level: observes at
        half-``window`` granularity, keeps the current membership while
        the :class:`~repro.stream.drift.DriftDetector` stays quiet, and
        rebuilds from the current chunk's counts on a trigger.
    """

    MODES = ("cps", "dps", "adaptive")

    def __init__(
        self,
        capacity: int,
        mode: str = "dps",
        window: int = 8,
        threshold: float = 0.65,
    ) -> None:
        check_positive("capacity", capacity)
        check_positive("window", window)
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        self.mode = mode
        self.window = window
        self.threshold = threshold
        self.rebuilds = 0
        self._strategy = PinnedStrategy()
        self._core = CacheCore(capacity, self._strategy, label=mode)

    # ----------------------------------------------------------- delegation

    @property
    def capacity(self) -> int:
        return self._core.capacity

    @property
    def hits(self) -> int:
        return self._core.hits

    @property
    def misses(self) -> int:
        return self._core.misses

    @property
    def hit_ratio(self) -> float:
        return self._core.hit_ratio

    def __len__(self) -> int:
        return len(self._core)

    def members(self) -> set[int]:
        return self._strategy.members

    # --------------------------------------------------------------- replay

    def _install(self, keys: np.ndarray) -> None:
        self._strategy.install(keys.tolist())
        self.rebuilds += 1

    def _chunks(self, batches: Sequence[np.ndarray], size: int):
        for start in range(0, len(batches), size):
            chunk = [
                np.asarray(b, dtype=np.int64)
                for b in batches[start : start + size]
            ]
            flat = (
                np.concatenate(chunk) if chunk else np.empty(0, dtype=np.int64)
            )
            yield flat

    def replay(self, batches: Sequence[np.ndarray]) -> float:
        """Feed a per-batch access trace through; returns the hit ratio."""
        if self.mode == "cps":
            all_keys = (
                np.concatenate([np.asarray(b, dtype=np.int64) for b in batches])
                if len(batches)
                else np.empty(0, dtype=np.int64)
            )
            self._install(HotnessTable.count([all_keys]).top(self.capacity))
            replay_trace(self._core, all_keys)
        elif self.mode == "dps":
            for flat in self._chunks(batches, self.window):
                if len(flat) == 0:
                    continue
                self._install(HotnessTable.count([flat]).top(self.capacity))
                replay_trace(self._core, flat)
        else:
            self._replay_adaptive(batches)
        return self.hit_ratio

    def _replay_adaptive(self, batches: Sequence[np.ndarray]) -> None:
        # Lazy import: repro.stream.drift imports repro.cache.* at module
        # load; importing it here (call time) avoids the cycle.
        from repro.stream.drift import DriftDetector

        detector = DriftDetector(self.threshold)
        half = max(1, self.window // 2)
        first = True
        for flat in self._chunks(batches, half):
            if len(flat) == 0:
                continue
            counts = HotnessTable.count([flat])
            candidate = counts.top(self.capacity)
            current = np.fromiter(
                sorted(self._strategy.members), dtype=np.int64
            )
            total = counts.total
            coverage = counts.mass(current) / total
            candidate_cov = counts.mass(candidate) / total
            if first:
                triggered = True
                first = False
            else:
                signal = detector.observe(
                    HotSet(
                        entities=candidate,
                        relations=np.empty(0, dtype=np.int64),
                    ),
                    current,
                    np.empty(0, dtype=np.int64),
                    coverage,
                    candidate_coverage=candidate_cov,
                )
                triggered = signal.triggered
            if triggered:
                self._install(candidate)
            replay_trace(self._core, flat)


def replay_membership_trace(
    batches: Sequence[np.ndarray],
    capacity: int,
    mode: str,
    window: int = 8,
    **kwargs,
) -> float:
    """One-shot :class:`HotnessMembershipCache` replay; returns hit ratio."""
    cache = HotnessMembershipCache(capacity, mode=mode, window=window, **kwargs)
    return cache.replay(batches)
