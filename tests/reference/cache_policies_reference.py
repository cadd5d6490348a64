"""Reference oracles for the cache policies of ``repro.cache.core``.

Two families, neither imported by ``src/``:

* **The per-key engine** as it stood before the core learned to take a
  whole batch: :class:`PerKeyCore` is the old ``CacheCore.access`` body
  (``lookup`` → ``on_hit``/``on_miss`` → ledger audit, one key at a time)
  and :class:`PerKeyFIFO` / :class:`PerKeyLRU` / :class:`PerKeyLFU` /
  :class:`PerKeyClock` / :class:`PerKeyPinned` are the five strategy bodies
  that ``src/`` replaced with one batch loop each, kept verbatim.  2Q and
  ARC still *are* per-key trios in ``src/``, so :func:`per_key_cache` pairs
  those two production strategies with :class:`PerKeyCore`.
  ``tests/test_cache_batch_equivalence.py`` drives this engine next to
  ``CacheCore.access_many`` and requires the same hit sequence, meters,
  residency and final eviction order for any split of a trace into calls.
* **Independent textbook implementations** (``Ref*``): the pre-core
  FIFO/LRU/CLOCK/2Q, the exact-``p`` ARC of Megiddo & Modha's Fig. 4 and
  the O(capacity) min-scan LFU, which ``tests/test_cache_core.py`` and
  ``tests/test_perf_equivalence.py`` hold the registry-built caches to.
"""

from __future__ import annotations

import heapq
from collections import Counter, OrderedDict
from typing import Iterable

from repro.cache.core import (
    POLICIES,
    CapacityLedger,
    EvictionStrategy,
)

# ------------------------------------------------- the per-key engine, verbatim


class PerKeyCore:
    """``CacheCore`` with the per-key ``access`` it had before batching."""

    def __init__(self, capacity: int, strategy: EvictionStrategy) -> None:
        self.ledger = CapacityLedger(capacity)
        self.strategy = strategy
        self.hits = 0
        self.misses = 0
        strategy.bind(self)

    @property
    def capacity(self) -> int:
        return self.ledger.capacity

    @property
    def full(self) -> bool:
        return self.ledger.full

    def __len__(self) -> int:
        return self.ledger.resident

    def admit(self, key: int) -> None:
        self.ledger.charge(1)

    def evict(self, key: int) -> None:
        self.ledger.release(1)

    def reinstall(self, count: int) -> None:
        self.ledger.reinstall(count)

    def access(self, key: int) -> bool:
        key = int(key)
        hit = self.strategy.lookup(key)
        if hit:
            self.strategy.on_hit(key)
            self.hits += 1
        else:
            if self.capacity > 0:
                self.strategy.on_miss(key)
            self.misses += 1
        self.ledger.audit(len(self.strategy))
        return hit


class PerKeyFIFO(EvictionStrategy):
    """Evict the oldest-admitted key."""

    def __init__(self) -> None:
        super().__init__()
        self._queue: OrderedDict[int, None] = OrderedDict()

    def lookup(self, key: int) -> bool:
        return key in self._queue

    def on_hit(self, key: int) -> None:
        pass  # FIFO ignores recency

    def on_miss(self, key: int) -> None:
        if self.core.full:
            victim, _ = self._queue.popitem(last=False)
            self.core.evict(victim)
        self._queue[key] = None
        self.core.admit(key)

    def __len__(self) -> int:
        return len(self._queue)

    def clear(self) -> None:
        self._queue.clear()


class PerKeyLRU(EvictionStrategy):
    """Evict the least recently used key."""

    def __init__(self) -> None:
        super().__init__()
        self._order: OrderedDict[int, None] = OrderedDict()

    def lookup(self, key: int) -> bool:
        return key in self._order

    def on_hit(self, key: int) -> None:
        self._order.move_to_end(key)

    def on_miss(self, key: int) -> None:
        if self.core.full:
            victim, _ = self._order.popitem(last=False)
            self.core.evict(victim)
        self._order[key] = None
        self.core.admit(key)

    def __len__(self) -> int:
        return len(self._order)

    def clear(self) -> None:
        self._order.clear()


class PerKeyLFU(EvictionStrategy):
    """Evict the least frequently used key (ties: least recent), with
    historical counts, per-count buckets and a lazy min-heap of counts."""

    def __init__(self) -> None:
        super().__init__()
        self._counts: Counter[int] = Counter()
        #: count -> members at that count, ascending last-access order.
        self._buckets: dict[int, OrderedDict[int, None]] = {}
        self._count_heap: list[int] = []
        self._members: set[int] = set()

    def _bucket_add(self, key: int, count: int) -> None:
        bucket = self._buckets.get(count)
        if bucket is None:
            bucket = self._buckets[count] = OrderedDict()
        if not bucket:
            heapq.heappush(self._count_heap, count)
        bucket[key] = None

    def lookup(self, key: int) -> bool:
        return key in self._members

    def on_hit(self, key: int) -> None:
        self._counts[key] += 1
        count = self._counts[key]
        del self._buckets[count - 1][key]
        self._bucket_add(key, count)

    def on_miss(self, key: int) -> None:
        self._counts[key] += 1
        if self.core.full:
            while True:
                coldest = self._buckets.get(self._count_heap[0])
                if coldest:
                    break
                heapq.heappop(self._count_heap)  # stale: bucket drained
            victim, _ = coldest.popitem(last=False)
            self._members.discard(victim)
            self.core.evict(victim)
        self._members.add(key)
        self._bucket_add(key, self._counts[key])
        self.core.admit(key)

    def __len__(self) -> int:
        return len(self._members)

    def clear(self) -> None:
        self._counts.clear()
        self._buckets.clear()
        self._count_heap.clear()
        self._members.clear()


class PerKeyClock(EvictionStrategy):
    """CLOCK (second-chance FIFO): a one-bit approximation of LRU."""

    def __init__(self) -> None:
        super().__init__()
        self._keys: list[int] = []
        self._referenced: dict[int, bool] = {}
        self._hand = 0

    def lookup(self, key: int) -> bool:
        return key in self._referenced

    def on_hit(self, key: int) -> None:
        self._referenced[key] = True

    def on_miss(self, key: int) -> None:
        if not self.core.full:
            self._keys.append(key)
        else:
            capacity = self.core.capacity
            # Advance the hand past referenced keys, clearing their bit.
            while self._referenced[self._keys[self._hand]]:
                self._referenced[self._keys[self._hand]] = False
                self._hand = (self._hand + 1) % capacity
            victim = self._keys[self._hand]
            del self._referenced[victim]
            self.core.evict(victim)
            self._keys[self._hand] = key
            self._hand = (self._hand + 1) % capacity
        self._referenced[key] = False
        self.core.admit(key)

    def __len__(self) -> int:
        return len(self._keys)

    def clear(self) -> None:
        self._keys.clear()
        self._referenced.clear()
        self._hand = 0


class PerKeyPinned(EvictionStrategy):
    """Static membership: admission by installation only, with the
    checkpoint-swap warming protocol."""

    def __init__(self) -> None:
        super().__init__()
        self._members: set[int] = set()
        self._warming: set[int] = set()

    def lookup(self, key: int) -> bool:
        return key in self._members

    def on_hit(self, key: int) -> None:
        pass  # static membership: nothing to reorder

    def on_miss(self, key: int) -> None:
        if key in self._warming:
            self._warming.discard(key)
            self._members.add(key)
            self.core.admit(key)

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


#: Registry name -> the per-key strategy body that left ``src/``.
PER_KEY_STRATEGIES: dict[str, type[EvictionStrategy]] = {
    "fifo": PerKeyFIFO,
    "lru": PerKeyLRU,
    "lfu": PerKeyLFU,
    "clock": PerKeyClock,
    "pinned": PerKeyPinned,
}


def per_key_cache(name: str, capacity: int) -> PerKeyCore:
    """The per-key oracle for a registered policy name: the verbatim old
    strategy where ``src/`` now has a batch loop, the production trio (2Q,
    ARC) otherwise — always on the per-key :class:`PerKeyCore`."""
    strategy_cls = PER_KEY_STRATEGIES.get(name) or POLICIES[name]
    return PerKeyCore(capacity, strategy_cls())


def split_into_calls(trace: list[int], cuts: list[int]) -> list[list[int]]:
    """``trace`` cut at ``cuts`` (clamped, any order) into the calls a batch
    caller might make: repeated cut points give empty calls, adjacent ones
    single-key calls, distant ones calls longer than the capacity."""
    bounds = [0, *sorted(min(c, len(trace)) for c in cuts), len(trace)]
    return [trace[a:b] for a, b in zip(bounds, bounds[1:])]


# --------------------------------------- independent textbook implementations


class RefFIFO:
    """Reference FIFO (the pre-core implementation, verbatim semantics)."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._queue: OrderedDict[int, None] = OrderedDict()

    def access(self, key: int) -> bool:
        if key in self._queue:
            return True
        if len(self._queue) >= self.capacity:
            self._queue.popitem(last=False)
        self._queue[key] = None
        return False


class RefLRU:
    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._order: OrderedDict[int, None] = OrderedDict()

    def access(self, key: int) -> bool:
        if key in self._order:
            self._order.move_to_end(key)
            return True
        if len(self._order) >= self.capacity:
            self._order.popitem(last=False)
        self._order[key] = None
        return False


class RefClock:
    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._keys: list[int] = []
        self._referenced: dict[int, bool] = {}
        self._hand = 0

    def access(self, key: int) -> bool:
        if key in self._referenced:
            self._referenced[key] = True
            return True
        if len(self._keys) < self.capacity:
            self._keys.append(key)
        else:
            while self._referenced[self._keys[self._hand]]:
                self._referenced[self._keys[self._hand]] = False
                self._hand = (self._hand + 1) % self.capacity
            victim = self._keys[self._hand]
            del self._referenced[victim]
            self._keys[self._hand] = key
            self._hand = (self._hand + 1) % self.capacity
        self._referenced[key] = False
        return False


class RefTwoQueue:
    """Pre-core 2Q for capacities >= 2, where its segment arithmetic was
    correct; the unified strategy must agree there exactly."""

    def __init__(self, capacity: int, probation_fraction: float = 0.25) -> None:
        self._probation_cap = max(1, int(capacity * probation_fraction))
        self._protected_cap = max(1, capacity - self._probation_cap)
        self._probation: OrderedDict[int, None] = OrderedDict()
        self._protected: OrderedDict[int, None] = OrderedDict()

    def access(self, key: int) -> bool:
        if key in self._protected:
            self._protected.move_to_end(key)
            return True
        if key in self._probation:
            del self._probation[key]
            if len(self._protected) >= self._protected_cap:
                self._protected.popitem(last=False)
            self._protected[key] = None
            return True
        if len(self._probation) >= self._probation_cap:
            self._probation.popitem(last=False)
        self._probation[key] = None
        return False


class RefARC:
    """Reference ARC following Megiddo & Modha's Fig. 4 pseudocode with
    the **exact** (float) target ``p`` in REPLACE — the comparison the
    pre-core implementation truncated with ``int(p)``."""

    def __init__(self, capacity: int) -> None:
        self.c = capacity
        self.t1: list[int] = []  # LRU at index 0
        self.t2: list[int] = []
        self.b1: list[int] = []
        self.b2: list[int] = []
        self.p = 0.0

    def _replace(self, in_b2: bool) -> None:
        if self.t1 and (len(self.t1) > self.p or (in_b2 and len(self.t1) >= self.p)):
            self.b1.append(self.t1.pop(0))
        elif self.t2:
            self.b2.append(self.t2.pop(0))
        elif self.t1:
            self.b1.append(self.t1.pop(0))

    def access(self, key: int) -> bool:
        if key in self.t1:
            self.t1.remove(key)
            self.t2.append(key)
            return True
        if key in self.t2:
            self.t2.remove(key)
            self.t2.append(key)
            return True
        if key in self.b1:
            self.p = min(
                float(self.c), self.p + max(1.0, len(self.b2) / max(1, len(self.b1)))
            )
            self.b1.remove(key)
            self._replace(in_b2=False)
            self.t2.append(key)
            return False
        if key in self.b2:
            self.p = max(
                0.0, self.p - max(1.0, len(self.b1) / max(1, len(self.b2)))
            )
            self.b2.remove(key)
            self._replace(in_b2=True)
            self.t2.append(key)
            return False
        if len(self.t1) + len(self.b1) == self.c:
            if len(self.t1) < self.c:
                self.b1.pop(0)
                self._replace(in_b2=False)
            else:
                self.t1.pop(0)
        elif len(self.t1) + len(self.b1) < self.c:
            total = len(self.t1) + len(self.t2) + len(self.b1) + len(self.b2)
            if total >= self.c:
                if total == 2 * self.c and self.b2:
                    self.b2.pop(0)
                self._replace(in_b2=False)
        self.t1.append(key)
        return False


class RefLFU:
    """The former O(capacity) min-scan LFU with historical counts (the
    pre-bucketing reference)."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.hits = self.misses = 0
        self._counts: Counter[int] = Counter()
        self._members: OrderedDict[int, None] = OrderedDict()

    def access(self, key: int) -> bool:
        self._counts[key] += 1
        if key in self._members:
            self._members.move_to_end(key)
            self.hits += 1
            return True
        if len(self._members) >= self.capacity:
            victim = min(self._members, key=lambda k: (self._counts[k], 0))
            del self._members[victim]
        self._members[key] = None
        self.misses += 1
        return False

    def __len__(self) -> int:
        return len(self._members)
