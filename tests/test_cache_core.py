"""Tests for the unified cache core (repro.cache.core).

Covers the centralized capacity ledger, the batch entry point
(``access_many``: key validation, per-call ledger settlement), the residency
invariant across every registered policy and any split of a trace into calls,
trace equivalence between the registry-built caches and independent reference
implementations of the pre-core policies (``tests/reference/
cache_policies_reference.py``), the four capacity/overflow bug regressions
from ISSUE 7, the CPS/DPS/ADAPTIVE membership replay engine, and the replayed
hit ratios of the shootout and Table VI pinned to the per-key engine's.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import pathlib
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.core import (
    CacheCore,
    CapacityError,
    CapacityLedger,
    EvictionStrategy,
    HotnessMembershipCache,
    PinnedStrategy,
    available_policies,
    make_cache,
    replay_membership_trace,
    replay_trace,
)
from repro.cache.filtering import filter_hot_ids, split_slots
from repro.cache.table import CacheTable
from repro.experiments.cache_study import _importance_cache
from repro.serving.cache import ServingCache
from tests.reference.cache_policies_reference import (
    RefARC,
    RefClock,
    RefFIFO,
    RefLFU,
    RefLRU,
    RefTwoQueue,
    split_into_calls,
)
from tests.hotness_tables import as_table
from tests.reference.hotness_window import hotness_window_hit_ratio

#: Every reactive policy registered with the core (pinned is membership-
#: driven and exercised separately).
REACTIVE = tuple(p for p in available_policies() if p != "pinned")

#: Hypothesis trace: keys from a small space so evictions actually occur.
TRACES = st.lists(st.integers(min_value=0, max_value=30), max_size=200)
CAPACITIES = st.integers(min_value=1, max_value=12)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


CUTS = st.lists(st.integers(min_value=0, max_value=200), max_size=10)


# ----------------------------------------------------------------- ledger


class TestCapacityLedger:
    def test_charge_release_roundtrip(self):
        ledger = CapacityLedger(3)
        ledger.charge(2)
        assert ledger.resident == 2 and ledger.remaining == 1
        ledger.release(1)
        assert ledger.resident == 1 and not ledger.full

    def test_charge_past_capacity_raises(self):
        ledger = CapacityLedger(2)
        ledger.charge(2)
        assert ledger.full
        with pytest.raises(CapacityError):
            ledger.charge(1)
        assert ledger.resident == 2  # failed charge leaves no residue

    def test_release_more_than_resident_raises(self):
        ledger = CapacityLedger(2)
        ledger.charge(1)
        with pytest.raises(CapacityError):
            ledger.release(2)

    def test_reinstall_is_wholesale(self):
        ledger = CapacityLedger(4)
        ledger.charge(3)
        ledger.reinstall(1)
        assert ledger.resident == 1
        with pytest.raises(CapacityError):
            ledger.reinstall(5)

    def test_check_fits(self):
        ledger = CapacityLedger(2)
        ledger.check_fits(2)
        with pytest.raises(CapacityError, match="cannot install"):
            ledger.check_fits(3)

    def test_audit_detects_mismatch(self):
        ledger = CapacityLedger(2)
        ledger.charge(1)
        ledger.audit(1)
        with pytest.raises(CapacityError):
            ledger.audit(2)

    def test_zero_capacity_legal(self):
        ledger = CapacityLedger(0)
        assert ledger.full and ledger.remaining == 0
        with pytest.raises(CapacityError):
            ledger.charge(1)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            CapacityLedger(-1)
        ledger = CapacityLedger(2)
        with pytest.raises(ValueError):
            ledger.charge(-1)
        with pytest.raises(ValueError):
            ledger.release(-1)
        with pytest.raises(ValueError):
            ledger.reinstall(-1)

    def test_capacity_error_is_value_error(self):
        assert issubclass(CapacityError, ValueError)


# ------------------------------------------------------------------- core


class TestCacheCore:
    def test_unknown_policy(self):
        with pytest.raises(KeyError, match="unknown policy"):
            make_cache("belady", 4)

    def test_available_policies_sorted(self):
        names = available_policies()
        assert names == sorted(names)
        assert {"fifo", "lru", "lfu", "clock", "2q", "arc", "pinned"} <= set(
            names
        )

    def test_capacity_zero_always_misses(self):
        core = make_cache("lru", 0)
        for key in (1, 2, 1, 1):
            assert not core.access(key)
        assert len(core) == 0 and core.hit_ratio == 0.0

    def test_hit_metering(self):
        core = make_cache("fifo", 2)
        assert not core.access(1)
        assert core.access(1)
        assert core.hits == 1 and core.misses == 1
        assert core.hit_ratio == pytest.approx(0.5)

    def test_clear_drops_members_keeps_counters(self):
        core = make_cache("lru", 4)
        core.access(1)
        core.access(1)
        core.clear()
        assert len(core) == 0
        assert core.hits == 1 and core.misses == 1
        assert not core.access(1)  # cold again

    def test_new_policy_is_a_small_strategy_class(self):
        """Landing a policy = one strategy class; no core/ledger changes."""

        class MRUStrategy(EvictionStrategy):
            """Evict the *most* recently used key (a classic anti-LRU)."""

            def __init__(self):
                super().__init__()
                self._order = OrderedDict()

            def access_many(self, keys):
                order = self._order
                room = self.core.capacity - len(order)
                hits, evicted = [], 0
                for position, key in enumerate(keys):
                    if key in order:
                        order.move_to_end(key)
                        hits.append(position)
                        continue
                    if room:
                        room -= 1
                    else:
                        order.popitem(last=True)
                        evicted += 1
                    order[key] = None
                return hits, len(keys) - len(hits), evicted

            def __len__(self):
                return len(self._order)

            def clear(self):
                self._order.clear()

        core = CacheCore(2, MRUStrategy(), label="mru")
        for key in (1, 2, 3, 1, 3):
            core.access(key)
            assert len(core) <= 2
        # 3 evicted 2 (the MRU victim); 1 stayed resident throughout.
        assert core.access(1)

    def test_strategy_overflow_is_caught_centrally(self):
        """A buggy strategy that forgets to evict trips the ledger."""

        class LeakyStrategy(EvictionStrategy):
            def __init__(self):
                super().__init__()
                self._members = set()

            def access_many(self, keys):
                members = self._members
                hits = []
                for position, key in enumerate(keys):
                    if key in members:
                        hits.append(position)
                    else:  # admits unconditionally: overflows
                        members.add(key)
                return hits, len(keys) - len(hits), 0

            def __len__(self):
                return len(self._members)

            def clear(self):
                self._members.clear()

        core = CacheCore(1, LeakyStrategy(), label="leaky")
        core.access(1)
        with pytest.raises(CapacityError):
            core.access(2)

    def test_batch_loop_overflow_is_caught_by_the_call(self):
        """A leaky policy written as an ``access_many`` override: the call
        that overflows raises, from the ledger's one net charge."""

        class LeakyBatch(EvictionStrategy):
            def __init__(self):
                super().__init__()
                self._members = set()

            def access_many(self, keys):
                hits = [i for i, key in enumerate(keys) if key in self._members]
                before = len(self._members)
                self._members.update(keys)  # admits unconditionally
                return hits, len(self._members) - before, 0

            def __len__(self):
                return len(self._members)

            def clear(self):
                self._members.clear()

        core = CacheCore(3, LeakyBatch())
        assert not core.access_many([1, 2]).any()
        assert core.access_many([1, 2, 3]).tolist() == [True, True, False]
        with pytest.raises(CapacityError, match="admitting 1"):
            core.access_many([3, 4])

    def test_batch_loop_miscount_is_caught_by_the_audit(self):
        """Reporting fewer admissions than the structures hold is a
        ``CapacityError`` too: nothing but the ledger owns the count."""

        class Miscounting(EvictionStrategy):
            def __init__(self):
                super().__init__()
                self._members = set()

            def access_many(self, keys):
                self._members.update(keys)
                return [], 0, 0

            def __len__(self):
                return len(self._members)

            def clear(self):
                self._members.clear()

        with pytest.raises(CapacityError, match="ledger says 0/4"):
            CacheCore(4, Miscounting()).access_many([1])

    def test_strategy_with_neither_shape_says_so(self):
        """A strategy without ``access_many`` fails at its first access,
        naming the method it lacks."""

        class Shapeless(EvictionStrategy):
            def __len__(self):
                return 0

            def clear(self):
                pass

        with pytest.raises(
            NotImplementedError, match="Shapeless does not implement access_many"
        ):
            CacheCore(1, Shapeless()).access(1)

    @pytest.mark.parametrize("policy", REACTIVE)
    def test_one_call_may_evict_more_than_was_resident(self, policy):
        """Settling is net: 1 resident key, then a call that admits 10 and
        evicts 9 must not ask the ledger to release 9 of 1."""
        core = make_cache(policy, 2)
        core.access(100)
        assert not core.access_many(list(range(10))).any()
        # (2Q never promotes a key seen once: its protected slot stays empty.)
        full = 1 if policy == "2q" else 2
        assert len(core) == core.ledger.resident == full
        core.access_many(list(range(50, 90)))
        assert len(core) == core.ledger.resident == full


# ------------------------------------------------ keys: validated, once a call


class TestAccessManyKeys:
    def test_sequential_semantics_within_one_call(self):
        core = make_cache("lru", 2)
        # 1 is evicted by 3 inside the call (so it misses again); the
        # repeated 3 hits the second time.
        mask = core.access_many([1, 2, 3, 1, 3])
        assert mask.dtype == bool
        assert mask.tolist() == [False, False, False, False, True]
        assert (core.hits, core.misses) == (1, 4)

    def test_non_integer_keys_raise_instead_of_truncating(self):
        """``lookup("entity", [3.7, 3.2])`` used to answer [False, True]:
        both floats truncated to key 3."""
        cache = ServingCache.dynamic(capacity=8)
        with pytest.raises(ValueError, match=r"shape \(2,\), dtype float64"):
            cache.lookup("entity", [3.7, 3.2])
        assert cache.hits == cache.misses == 0
        core = make_cache("lru", 4)
        for bad in (np.array([1.0]), np.array([True, False]), ["1"], [None]):
            with pytest.raises(ValueError, match="1-D sequence of integers"):
                core.access_many(bad)
        with pytest.raises(ValueError, match="dtype float64"):
            core.access(3.7)
        assert core.hits == core.misses == len(core) == 0

    def test_non_1d_keys_raise_naming_the_shape(self):
        core = make_cache("fifo", 4)
        with pytest.raises(ValueError, match=r"shape \(2, 2\), dtype int64"):
            core.access_many(np.arange(4).reshape(2, 2))
        with pytest.raises(ValueError, match=r"shape \(\)"):
            core.access_many(np.int64(3))
        with pytest.raises(ValueError, match=r"shape \(0, 3\)"):
            core.access_many(np.empty((0, 3), dtype=np.int64))

    @pytest.mark.parametrize(
        "dtype", [np.int8, np.uint8, np.int16, np.int32, np.uint32, np.int64, np.uint64]
    )
    def test_any_integer_dtype(self, dtype):
        core = make_cache("lru", 4)
        assert not core.access_many(np.array([1, 2, 3], dtype=dtype)).any()
        # The same keys as plain ints, and as another dtype, are the same keys.
        assert core.access_many([1, 2, 3]).all()
        assert core.access_many(np.array([3], dtype=np.int64)).all()

    @pytest.mark.parametrize("empty", [[], (), np.empty(0, dtype=np.int64), np.empty(0)])
    def test_empty_input_touches_nothing(self, empty):
        core = make_cache("lfu", 4)
        core.access_many([1, 1])
        mask = core.access_many(empty)
        assert mask.shape == (0,) and mask.dtype == bool
        assert (core.hits, core.misses, len(core)) == (1, 1, 1)
        assert replay_trace(make_cache("lru", 4), empty) == 0.0

    def test_capacity_zero_never_calls_the_strategy(self):
        class Untouchable(EvictionStrategy):
            def access_many(self, keys):
                raise AssertionError("a zero-slot cache has no policy to run")

            def __len__(self):
                return 0

            def clear(self):
                pass

        core = CacheCore(0, Untouchable())
        assert core.access_many([1, 1, 2]).tolist() == [False] * 3
        assert (core.hits, core.misses, len(core)) == (0, 3, 0)


# ----------------------------------------------- the capacity invariant


class TestCapacityInvariant:
    """`len(cache) <= capacity` after every access, for every policy."""

    @pytest.mark.parametrize("policy", REACTIVE)
    @settings(max_examples=40, deadline=None)
    @given(trace=TRACES, capacity=CAPACITIES)
    def test_resident_never_exceeds_capacity(self, policy, trace, capacity):
        core = make_cache(policy, capacity)
        for key in trace:
            core.access(key)
            assert len(core) <= capacity
        assert core.hits + core.misses == len(trace)

    @pytest.mark.parametrize("policy", available_policies())
    @settings(max_examples=40, deadline=None)
    @given(trace=TRACES, cuts=CUTS, capacity=st.integers(0, 12))
    def test_invariant_holds_across_any_split_into_calls(
        self, policy, trace, cuts, capacity
    ):
        """Every registered policy (pinned warming included): after every
        call, however the trace is cut, the cache is within capacity, the
        ledger agrees with it, and every key seen was metered once."""
        core = make_cache(policy, capacity)
        if policy == "pinned":
            core.strategy.install(sorted(set(trace))[:capacity])
            core.strategy.invalidate_rows()
        seen = 0
        for call in split_into_calls(trace, cuts):
            mask = core.access_many(call)
            seen += len(call)
            assert len(mask) == len(call)
            assert 0 <= len(core) == core.ledger.resident <= capacity
            assert core.hits + core.misses == seen

    @pytest.mark.parametrize("policy", REACTIVE)
    def test_capacity_one(self, policy):
        """Regression (ISSUE 7): 2Q at capacity=1 used to hold 2 keys."""
        core = make_cache(policy, 1)
        for key in (0, 1, 0, 1, 2, 2, 0):
            core.access(key)
            assert len(core) <= 1

    @settings(max_examples=40, deadline=None)
    @given(trace=TRACES, capacity=CAPACITIES)
    def test_pinned_membership_respects_capacity(self, trace, capacity):
        strategy = PinnedStrategy()
        core = CacheCore(capacity, strategy)
        members = sorted(set(trace))[:capacity]
        strategy.install(members)
        for key in trace:
            core.access(key)
            assert len(core) <= capacity


# ----------------------------------------------------- 2Q / split regressions


class TestTwoQueueRegression:
    def test_capacity_one_holds_one(self):
        """The pre-core 2Q gave both segments max(1, ...) slots and held
        two resident keys in a capacity-1 cache."""
        cache = make_cache("2q", 1)
        for key in (1, 2, 1, 1, 3, 1):
            cache.access(key)
            assert len(cache) <= 1

    @pytest.mark.parametrize("capacity", range(1, 16))
    def test_segment_caps_sum_to_capacity(self, capacity):
        strategy = make_cache("2q", capacity).strategy
        assert strategy.probation_cap + strategy.protected_cap == capacity
        assert strategy.probation_cap >= 1

    def test_probation_hit_without_protected_segment(self):
        """At capacity 1 a probation hit stays probationary (and hits)."""
        cache = make_cache("2q", 1)
        assert not cache.access(7)
        assert cache.access(7)
        assert len(cache) == 1

    def test_invalid_probation_fraction(self):
        with pytest.raises(ValueError, match="probation_fraction"):
            make_cache("2q", 4, probation_fraction=1.0)


class TestSplitSlots:
    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=500),
        ratio=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_sides_sum_to_capacity_exactly(self, capacity, ratio):
        entity_slots, relation_slots = split_slots(capacity, ratio)
        assert entity_slots + relation_slots == capacity
        assert entity_slots >= 0 and relation_slots >= 0

    def test_capacity_one_single_slot(self):
        """The pre-core serving split gave capacity=1 two slots."""
        assert sum(split_slots(1, 0.25)) == 1
        assert sum(split_slots(1, 0.75)) == 1

    def test_matches_training_filter(self):
        """filter_hot_ids divides slots by the same rule (no spare)."""
        entity_counts = as_table({i: 100 - i for i in range(50)})
        relation_counts = as_table({i: 100 - i for i in range(50)})
        for capacity, ratio in ((8, 0.25), (11, 0.5), (1, 0.25)):
            hot = filter_hot_ids(entity_counts, relation_counts, capacity, ratio)
            entity_slots, relation_slots = split_slots(capacity, ratio)
            assert len(hot.entities) == entity_slots
            assert len(hot.relations) == relation_slots

    def test_serving_dynamic_capacity_one(self):
        """Regression (ISSUE 7): ServingCache.dynamic(1) allocated 2 slots."""
        cache = ServingCache.dynamic(capacity=1, policy="lru", entity_ratio=0.25)
        for _ in range(3):
            cache.lookup("entity", np.array([1, 2]))
            cache.lookup("relation", np.array([3, 4]))
            assert cache.size() <= 1
        assert (
            cache.table("entity").capacity + cache.table("relation").capacity
            == 1
        )

    @pytest.mark.parametrize("capacity", (1, 2, 5, 10))
    def test_serving_dynamic_tables_sum_to_capacity(self, capacity):
        cache = ServingCache.dynamic(capacity=capacity, policy="fifo")
        total = (
            cache.table("entity").capacity + cache.table("relation").capacity
        )
        assert total == capacity


# ------------------------------------------------------------ ARC regression


class OldIntPARC(RefARC):
    """The pre-fix REPLACE: ``len(t1) == int(p)`` instead of ``>= p``."""

    def _replace(self, in_b2: bool) -> None:
        if self.t1 and (
            len(self.t1) > self.p or (in_b2 and len(self.t1) == int(self.p))
        ):
            self.b1.append(self.t1.pop(0))
        elif self.t2:
            self.b2.append(self.t2.pop(0))
        elif self.t1:
            self.b1.append(self.t1.pop(0))


#: A trace on which the int(p)-truncating ARC provably diverges from the
#: exact-p reference (found by randomized search; pinned for regression).
ARC_DIVERGENCE_CAPACITY = 5
ARC_DIVERGENCE_TRACE = [
    10, 14, 10, 5, 10, 2, 12, 4, 10, 1, 10, 11, 13, 4, 11, 10, 9, 6, 7,
    1, 5, 8, 3, 14, 7, 2, 14, 14, 6, 1, 2, 8, 3, 2, 13, 14, 13, 8,
]


class TestARCRegression:
    def test_pinned_trace_matches_exact_p_reference(self):
        """Regression (ISSUE 7): ARC must follow the exact-p REPLACE."""
        ref = RefARC(ARC_DIVERGENCE_CAPACITY)
        cache = make_cache("arc", ARC_DIVERGENCE_CAPACITY)
        ref_hits = [ref.access(k) for k in ARC_DIVERGENCE_TRACE]
        new_hits = [cache.access(k) for k in ARC_DIVERGENCE_TRACE]
        assert new_hits == ref_hits

    def test_pinned_trace_exposes_the_truncation_bug(self):
        """The same trace makes the old int(p) REPLACE pick a different
        victim — i.e. this trace genuinely fails before the fix."""
        old = OldIntPARC(ARC_DIVERGENCE_CAPACITY)
        ref = RefARC(ARC_DIVERGENCE_CAPACITY)
        old_hits = [old.access(k) for k in ARC_DIVERGENCE_TRACE]
        ref_hits = [ref.access(k) for k in ARC_DIVERGENCE_TRACE]
        assert old_hits != ref_hits

    @settings(max_examples=60, deadline=None)
    @given(trace=TRACES, capacity=CAPACITIES)
    def test_trace_equivalence_with_reference(self, trace, capacity):
        ref = RefARC(capacity)
        cache = make_cache("arc", capacity)
        for key in trace:
            assert cache.access(key) == ref.access(key)
            assert len(cache) <= capacity
        assert len(cache) == len(ref.t1) + len(ref.t2)

    def test_p_exposed_as_float(self):
        cache = make_cache("arc", 4)
        assert isinstance(cache.strategy.p, float)


# ------------------------------------ registry-vs-reference trace equivalence


class TestFacadeTraceEquivalence:
    """The registry-built caches pick the same hits/victims as independent
    copies of the pre-core implementations (golden trace equivalence)."""

    @pytest.mark.parametrize(
        "policy, make_ref",
        [("fifo", RefFIFO), ("lru", RefLRU), ("clock", RefClock)],
        ids=["fifo", "lru", "clock"],
    )
    @settings(max_examples=40, deadline=None)
    @given(trace=TRACES, capacity=CAPACITIES)
    def test_hit_sequences_identical(self, policy, make_ref, trace, capacity):
        new = make_cache(policy, capacity)
        ref = make_ref(capacity)
        for key in trace:
            assert new.access(key) == ref.access(key)

    @settings(max_examples=40, deadline=None)
    @given(trace=TRACES, capacity=st.integers(min_value=2, max_value=12))
    def test_two_queue_identical_above_capacity_one(self, trace, capacity):
        new = make_cache("2q", capacity)
        ref = RefTwoQueue(capacity)
        for key in trace:
            assert new.access(key) == ref.access(key)

    def test_importance_cache_semantics_preserved(self):
        importance = {0: 5.0, 1: 4.0, 2: 4.0, 3: 1.0}
        cache = _importance_cache(3, as_table(importance))
        # Top 3 by (-importance, id): 0, 1, 2.  3 is never admitted.
        assert replay_trace(cache, [0, 1, 2, 3, 3, 3]) == pytest.approx(0.5)
        assert len(cache) == 3


# ------------------------------------------------------ membership replay


BATCH_TRACES = st.lists(
    st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=20),
    min_size=1,
    max_size=30,
)


class TestHotnessMembershipReplay:
    @settings(max_examples=30, deadline=None)
    @given(batches=BATCH_TRACES, capacity=st.integers(min_value=1, max_value=20))
    def test_dps_matches_hotness_window_exactly(self, batches, capacity):
        """The core-replayed DPS (Table VI's HET-KG column) must agree
        bit-for-bit with the vectorised oracle in tests/reference/."""
        arrays = [np.asarray(b, dtype=np.int64) for b in batches]
        expected = hotness_window_hit_ratio(arrays, capacity, window=4)
        replayed = replay_membership_trace(
            arrays, capacity, mode="dps", window=4
        )
        assert replayed == expected

    def test_cps_installs_once(self):
        batches = [np.array([1, 2, 3]), np.array([1, 2, 4])]
        cache = HotnessMembershipCache(2, mode="cps")
        cache.replay(batches)
        assert cache.rebuilds == 1
        assert cache.members() == {1, 2}

    def test_dps_rebuilds_per_window(self):
        batches = [np.array([i]) for i in range(8)]
        cache = HotnessMembershipCache(2, mode="dps", window=2)
        cache.replay(batches)
        assert cache.rebuilds == 4

    @settings(max_examples=20, deadline=None)
    @given(batches=BATCH_TRACES, capacity=st.integers(min_value=1, max_value=20))
    def test_adaptive_respects_capacity(self, batches, capacity):
        arrays = [np.asarray(b, dtype=np.int64) for b in batches]
        cache = HotnessMembershipCache(capacity, mode="adaptive", window=4)
        cache.replay(arrays)
        assert len(cache) <= capacity
        assert cache.rebuilds >= 1  # the first window always installs

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            HotnessMembershipCache(4, mode="belady")


# ------------------------------------------------------- pinned / serving


class TestPinnedStrategy:
    def test_install_past_capacity_raises(self):
        strategy = PinnedStrategy()
        CacheCore(2, strategy)
        with pytest.raises(CapacityError):
            strategy.install([1, 2, 3])

    def test_invalidate_rows_rewarns_on_access(self):
        strategy = PinnedStrategy()
        core = CacheCore(2, strategy)
        strategy.install([1, 2])
        assert core.access(1)
        strategy.invalidate_rows()
        assert len(core) == 0
        assert strategy.warming == {1, 2}
        # First access after the swap misses (re-pulls the fresh row)...
        assert not core.access(1)
        # ...then the key is resident again.
        assert core.access(1)
        assert strategy.members == {1}
        # Never-hot keys stay out.
        assert not core.access(9)
        assert not core.access(9)

    def test_install_replaces_warming(self):
        strategy = PinnedStrategy()
        CacheCore(2, strategy)
        strategy.install([1])
        strategy.invalidate_rows()
        strategy.install([2, 3])
        assert strategy.warming == set()
        assert strategy.members == {2, 3}


class TestCacheTableLedger:
    def test_install_overflow_raises_capacity_error(self):
        table = CacheTable(capacity=2, width=4)
        with pytest.raises(CapacityError, match="cannot install"):
            table.install(np.arange(3), np.zeros((3, 4)))

    def test_install_overflow_still_a_value_error(self):
        """Backward compatibility: pre-core callers caught ValueError."""
        table = CacheTable(capacity=2, width=4)
        with pytest.raises(ValueError):
            table.install(np.arange(3), np.zeros((3, 4)))

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            CacheTable(capacity=-1, width=4)


# ------------------------------------------------------------- LFU parity


class TestLFUStrategyEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(trace=TRACES, capacity=CAPACITIES)
    def test_matches_min_scan_reference(self, trace, capacity):
        new = make_cache("lfu", capacity)
        ref = RefLFU(capacity)
        for key in trace:
            assert new.access(key) == ref.access(key)


# ---------------------------------------------------------------- shootout


class TestCacheShootout:
    def test_registered(self):
        from repro.experiments.registry import EXPERIMENTS

        assert "cache-shootout" in EXPERIMENTS

    def test_columns_are_the_registry_minus_pinned(self):
        """The shootout's tuple fixes the report's column order; it must
        still name every reactive policy the registry holds."""
        from repro.experiments.cache_shootout import REACTIVE_POLICIES

        assert sorted(REACTIVE_POLICIES) == list(REACTIVE)

    def test_parallel_identical_to_serial(self):
        """The --jobs grid must reproduce the serial report exactly."""
        from repro.experiments.cache_shootout import run_cache_shootout

        serial = _replay_reports()["cache-shootout"]
        parallel = run_cache_shootout(scale=0.02, jobs=2)
        assert serial["rows"] == parallel.rows
        assert serial["headers"] == parallel.headers


@functools.lru_cache(maxsize=None)
def _replay_reports() -> dict:
    """Shootout + Table VI + its extension, replayed once per session."""
    spec = importlib.util.spec_from_file_location(
        "cache_replay_capture", GOLDEN_DIR / "capture_cache_replay.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.capture()


class TestReplayedHitRatiosPinned:
    """What "the replays get the batch call for free" means: every hit
    ratio the shootout and Table VI report equals, as an exact float, what
    the per-key engine reported at the commit before ``access_many``."""

    golden = json.loads((GOLDEN_DIR / "cache_replay_golden.json").read_text())

    @pytest.mark.parametrize("report", sorted(golden))
    def test_hit_ratios_equal_the_per_key_engines(self, report):
        fresh = _replay_reports()[report]
        assert fresh["headers"] == self.golden[report]["headers"]
        for fresh_row, golden_row in zip(
            fresh["rows"], self.golden[report]["rows"], strict=True
        ):
            assert fresh_row == golden_row, (
                f"{report}/{golden_row[0]}: a replayed hit ratio moved "
                "(exact float comparison: this is a policy change)"
            )
