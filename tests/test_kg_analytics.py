"""Tests for repro.kg.analytics."""

import numpy as np
import pytest

from repro.kg.analytics import hot_set_coverage


class TestHotSetCoverage:
    def test_monotone_in_capacity(self):
        counts = np.array([100, 50, 10, 5, 1])
        cov = hot_set_coverage(counts, (1, 2, 5))
        shares = [s for _, s in cov]
        assert shares == sorted(shares)
        assert shares[-1] == pytest.approx(1.0)

    def test_zero_capacity(self):
        cov = hot_set_coverage(np.array([5, 5]), (0,))
        assert cov[0][1] == 0.0

    def test_skew_means_small_cache_covers_much(self, small_graph):
        """On the generated graphs, caching 10% of entities covers far
        more than 10% of accesses — the premise of the whole paper."""
        degrees = small_graph.entity_degrees()
        k = max(1, small_graph.num_entities // 10)
        (_, share), = hot_set_coverage(degrees, (k,))
        assert share > 0.2

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            hot_set_coverage(np.array([1.0]), (-1,))

    def test_empty_counts(self):
        assert hot_set_coverage(np.array([]), (3,)) == [(3, 0.0)]
