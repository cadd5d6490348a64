"""``CacheCore.access_many`` == the per-key engine, for any split into calls.

The oracle is ``tests/reference/cache_policies_reference.py``: the old
``CacheCore.access`` body (``PerKeyCore``) driving the seven per-key
strategy bodies that left ``src/``, verbatim.  For every registered
policy × capacity {0, 1, 2, 3, 7, 64} × hypothesis traces over a small key
space × an arbitrary split of the trace into calls — empty calls,
single-key calls, calls longer than the capacity — the batched engine must
report the same hit mask, meters and residency after every call, the same
ARC target and LFU historical counts at the end, and then evict in the same
order while a fixed suffix of fresh keys drains it.

The last class mutation-checks the suite itself: two plausible-looking wrong
LRU batch loops must fail it.
"""

from __future__ import annotations

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.core import (
    CacheCore,
    EvictionStrategy,
    available_policies,
    make_cache,
)
from tests.reference.cache_policies_reference import (
    PerKeyCore,
    per_key_cache,
    split_into_calls,
)

CAPACITIES = (0, 1, 2, 3, 7, 64)

#: First fresh key of the drain suffix (no trace key comes near it).
FRESH = 10_000


def policy_state(strategy: EvictionStrategy) -> dict:
    """Everything a strategy holds — queues in order, counts, clock hand,
    ghost lists, ARC's target — under its attribute names, which the
    verbatim oracle copies share with ``src/``.  ``OrderedDict`` equality is
    order-sensitive, so equal states evict in the same order."""
    return {k: v for k, v in vars(strategy).items() if k != "core"}


def assert_equivalent(
    new: CacheCore,
    ref: PerKeyCore,
    calls: list[list[int]],
    invalidate_before: int | None = None,
) -> None:
    for index, call in enumerate(calls):
        if index == invalidate_before:
            new.strategy.invalidate_rows()
            ref.strategy.invalidate_rows()
        assert new.access_many(call).tolist() == [ref.access(k) for k in call]
        assert (new.hits, new.misses) == (ref.hits, ref.misses)
        assert len(new) == len(ref) == len(new.strategy)
    if hasattr(new.strategy, "p"):
        assert new.strategy.p == ref.strategy.p
    if hasattr(new.strategy, "_counts"):  # LFU: evicted keys keep their count
        assert new.strategy._counts == ref.strategy._counts
    assert policy_state(new.strategy) == policy_state(ref.strategy)
    # Drain: each fresh key evicts the policy's next victim.
    for fresh in range(FRESH, FRESH + new.capacity + 2):
        assert not new.access(fresh)
        assert not ref.access(fresh)
        assert policy_state(new.strategy) == policy_state(ref.strategy)


def traces_for(capacity: int):
    """Keys from a space ~1.5x the capacity (at least 6): hits, repeats and
    evictions all occur, also at capacity 64."""
    span = max(6, capacity + capacity // 2)
    return st.lists(st.integers(0, span), max_size=4 * span + 8)


CUTS = st.lists(st.integers(0, 400), max_size=12)


@pytest.mark.parametrize("capacity", CAPACITIES)
@pytest.mark.parametrize("policy", available_policies())
class TestBatchEqualsPerKey:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), cuts=CUTS)
    def test_any_split_matches_the_per_key_oracle(
        self, policy, capacity, data, cuts
    ):
        trace = data.draw(traces_for(capacity), label="trace")
        calls = split_into_calls(trace, cuts)
        new, ref = make_cache(policy, capacity), per_key_cache(policy, capacity)
        invalidate_before = None
        if policy == "pinned":
            # Pinned admits by installation only: pin a drawn subset, and
            # drop its rows (membership kept as warming) before a drawn call.
            members = data.draw(
                st.lists(st.sampled_from(sorted(set(trace)) or [0]), unique=True,
                         max_size=capacity),
                label="members",
            )
            new.strategy.install(members)
            ref.strategy.install(members)
            invalidate_before = data.draw(
                st.integers(0, len(calls)), label="invalidate_before"
            )
        assert_equivalent(new, ref, calls, invalidate_before)

    def test_one_call_equals_one_key_at_a_time(self, policy, capacity):
        """The two extreme splits of one skewed trace, no hypothesis."""
        trace = [(i * i) % (capacity + 5) for i in range(6 * capacity + 20)]
        whole, single = make_cache(policy, capacity), make_cache(policy, capacity)
        ref = per_key_cache(policy, capacity)
        if policy == "pinned":
            for cache in (whole, single, ref):
                cache.strategy.install(range(capacity))
                cache.strategy.invalidate_rows()
        expected = [ref.access(k) for k in trace]
        assert whole.access_many(trace).tolist() == expected
        assert [single.access(k) for k in trace] == expected
        assert policy_state(whole.strategy) == policy_state(single.strategy)
        assert policy_state(whole.strategy) == policy_state(ref.strategy)


# ------------------------------------------------ the suite catches wrong loops


class StaleResidencyLRU(EvictionStrategy):
    """Wrong: tests residency against the state at the start of the call —
    a repeated key misses twice, a key evicted mid-call still hits (the
    queue itself is kept right, so only the reported mask is off)."""

    def __init__(self) -> None:
        super().__init__()
        self._order: OrderedDict[int, None] = OrderedDict()

    def access_many(self, keys):
        order = self._order
        resident = set(order)  # the bug: frozen for the whole call
        hits, admitted, evicted = [], 0, 0
        for position, key in enumerate(keys):
            if key in resident:
                hits.append(position)
            if key in order:
                order.move_to_end(key)
                continue
            if len(order) >= self.core.capacity:
                order.popitem(last=False)
                evicted += 1
            order[key] = None
            admitted += 1
        return hits, admitted, evicted

    def __len__(self) -> int:
        return len(self._order)

    def clear(self) -> None:
        self._order.clear()


class TrimAfterInsertLRU(EvictionStrategy):
    """Wrong: inserts the whole call's misses, then evicts down to the
    capacity — a key that should have been evicted mid-call still hits."""

    def __init__(self) -> None:
        super().__init__()
        self._order: OrderedDict[int, None] = OrderedDict()

    def access_many(self, keys):
        order = self._order
        hits, admitted, evicted = [], 0, 0
        for position, key in enumerate(keys):
            if key in order:
                order.move_to_end(key)
                hits.append(position)
            else:
                order[key] = None
                admitted += 1
        while len(order) > self.core.capacity:
            order.popitem(last=False)
            evicted += 1
        return hits, admitted, evicted

    def __len__(self) -> int:
        return len(self._order)

    def clear(self) -> None:
        self._order.clear()


class TestTheSuiteCatchesWrongLoops:
    """Mutation check: both wrong loops keep ``len <= capacity`` after every
    call and an honest ledger, so only the per-key oracle can tell."""

    @pytest.mark.parametrize("mutant", [StaleResidencyLRU, TrimAfterInsertLRU])
    def test_wrong_lru_loop_fails_the_equivalence(self, mutant):
        @settings(max_examples=200, deadline=None, database=None)
        @given(trace=traces_for(3), cuts=CUTS)
        def property_holds(trace, cuts):
            assert_equivalent(
                CacheCore(3, mutant()),
                per_key_cache("lru", 3),
                split_into_calls(trace, cuts),
            )

        with pytest.raises(AssertionError):
            property_holds()

    @pytest.mark.parametrize("mutant", [StaleResidencyLRU, TrimAfterInsertLRU])
    def test_wrong_lru_loop_is_right_one_key_at_a_time(self, mutant):
        """The mutants are wrong *only* as batch loops — which is what makes
        them mutants of the batching and not of LRU."""
        trace = [(i * i) % 8 for i in range(60)]
        assert_equivalent(
            CacheCore(3, mutant()), per_key_cache("lru", 3), [[k] for k in trace]
        )
