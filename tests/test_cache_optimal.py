"""Tests for Belady's optimal replacement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.core import (
    available_policies,
    make_cache,
    replay_membership_trace,
    replay_trace,
)
from repro.cache.optimal import belady_hit_ratio


class TestBelady:
    def test_textbook_example(self):
        """The classic OS-course reference string, capacity 3: Belady's
        MIN incurs exactly 6 misses on this 12-access string (bypass
        variant matches since every key recurs)."""
        trace = [1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5]
        ratio = belady_hit_ratio(trace, capacity=3)
        # Misses: 1,2,3,4 (cold), 5, then 3 and 4 at the end -> 7 misses
        # under MIN with bypass; hits = 5.
        assert ratio == pytest.approx(1 - 7 / 12)

    def test_all_hits_when_capacity_covers(self):
        trace = [1, 2, 1, 2, 1, 2]
        assert belady_hit_ratio(trace, 2) == pytest.approx(4 / 6)

    def test_empty_trace(self):
        assert belady_hit_ratio([], 4) == 0.0

    def test_single_key(self):
        assert belady_hit_ratio([7] * 10, 1) == pytest.approx(0.9)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            belady_hit_ratio([1], 0)

    @given(
        trace=st.lists(st.integers(0, 20), min_size=1, max_size=150),
        capacity=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_dominates_every_online_policy(self, trace, capacity):
        """Belady's ratio must be >= every implementable policy's ratio on
        every trace — the defining optimality property."""
        optimal = belady_hit_ratio(trace, capacity)
        for policy in available_policies():
            if policy != "pinned":
                online = replay_trace(make_cache(policy, capacity), trace)
                assert optimal >= online - 1e-12, policy

    def test_upper_bounds_hotness_window(self, rng):
        """HET-KG's windowed oracle approximates Belady from below."""
        keys = rng.zipf(1.4, size=3000) % 120
        batches = [keys[i : i + 30] for i in range(0, len(keys), 30)]
        window = replay_membership_trace(batches, 12, "dps", window=8)
        optimal = belady_hit_ratio(keys.tolist(), capacity=12)
        assert optimal >= window - 1e-12
