"""Tests for repro.sampling (negative corruption + epoch batching)."""

import numpy as np
import pytest

from repro.kg.graph import HEAD, REL, TAIL
from repro.sampling.minibatch import EpochSampler
from repro.sampling.negative import NegativeSampler
from tests.reference.evaluation_reference import triple_set
from tests.reference.negative_grid_reference import negative_triples


def _sampler(tiny_graph, **kwargs):
    defaults = dict(num_entities=tiny_graph.num_entities, num_negatives=4, seed=0)
    defaults.update(kwargs)
    return NegativeSampler(**defaults)


class TestNegativeSampler:
    def test_shapes(self, tiny_graph):
        batch = _sampler(tiny_graph).corrupt(tiny_graph.triples[:5])
        assert batch.size == 5
        assert batch.num_negatives == 4
        assert batch.neg_entities.shape == (5, 4)
        assert batch.corrupt_head.shape == (5,)

    def test_entities_in_range(self, tiny_graph):
        batch = _sampler(tiny_graph).corrupt(tiny_graph.triples)
        assert batch.neg_entities.min() >= 0
        assert batch.neg_entities.max() < tiny_graph.num_entities

    def test_chunked_shares_negatives(self, tiny_graph):
        sampler = _sampler(tiny_graph, strategy="chunked", chunk_size=4)
        batch = sampler.corrupt(tiny_graph.triples)
        # Rows within a chunk share identical negative sets.
        assert np.array_equal(batch.neg_entities[0], batch.neg_entities[3])

    def test_independent_rows_differ(self, small_graph):
        sampler = NegativeSampler(
            small_graph.num_entities, num_negatives=8, strategy="independent", seed=0
        )
        batch = sampler.corrupt(small_graph.triples[:16])
        identical = sum(
            np.array_equal(batch.neg_entities[i], batch.neg_entities[i + 1])
            for i in range(15)
        )
        assert identical < 3  # overwhelmingly distinct rows

    def test_chunked_touches_fewer_uniques(self, small_graph):
        """The §V complexity claim: chunked sampling shrinks the per-batch
        working set."""
        pos = small_graph.triples[:64]
        chunked = NegativeSampler(
            small_graph.num_entities, 8, "chunked", chunk_size=16, seed=0
        ).corrupt(pos)
        indep = NegativeSampler(
            small_graph.num_entities, 8, "independent", seed=0
        ).corrupt(pos)
        assert len(chunked.unique_entities()) < len(indep.unique_entities())

    def test_filter_avoids_true_triples(self, tiny_graph):
        sampler = _sampler(tiny_graph, filter_graph=tiny_graph, num_negatives=2)
        batch = sampler.corrupt(tiny_graph.triples)
        truth = triple_set(tiny_graph)
        for i in range(batch.size):
            h, r, t = (int(x) for x in batch.positives[i])
            for e in batch.neg_entities[i]:
                e = int(e)
                triple = (e, r, t) if batch.corrupt_head[i] else (h, r, e)
                # Tiny graph: retries nearly always succeed.
                if triple in truth:
                    pytest.skip("all retries collided (tiny corruption pool)")

    def test_filter_is_the_triple_index_only(self, small_graph):
        """One false-negative filter: the graph has no Python triple set to
        build, and the sampler keeps only the index."""
        assert not hasattr(small_graph, "triple_set")
        sampler = _sampler(small_graph, filter_graph=small_graph, num_negatives=4)
        sampler.resize(small_graph.num_entities, filter_graph=small_graph)
        assert not hasattr(sampler, "_filter")
        batch = sampler.corrupt(small_graph.triples[:64])
        n = batch.num_negatives
        heads = np.repeat(batch.corrupt_head, n)
        flat = batch.neg_entities.ravel()
        pos = batch.positives
        collide = small_graph.triple_index().contains_batch(
            np.where(heads, flat, np.repeat(pos[:, 0], n)),
            np.repeat(pos[:, 1], n),
            np.where(heads, np.repeat(pos[:, 2], n), flat),
        )
        assert int(collide.sum()) == sampler.false_negative_leaks

    def test_entity_pool_restricts_draws(self, small_graph):
        pool = np.array([1, 2, 3])
        sampler = NegativeSampler(
            small_graph.num_entities, 8, entity_pool=pool, seed=0
        )
        batch = sampler.corrupt(small_graph.triples[:32])
        assert set(np.unique(batch.neg_entities)) <= {1, 2, 3}

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            NegativeSampler(10, entity_pool=np.array([], dtype=np.int64))

    def test_empty_positives(self, tiny_graph):
        batch = _sampler(tiny_graph).corrupt(np.empty((0, 3), dtype=np.int64))
        assert batch.size == 0

    def test_bad_positives_shape(self, tiny_graph):
        with pytest.raises(ValueError, match=r"\(b, 3\)"):
            _sampler(tiny_graph).corrupt(np.zeros((2, 2), dtype=np.int64))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            NegativeSampler(0)
        with pytest.raises(ValueError):
            NegativeSampler(10, strategy="nope")

    def test_resize_growth_with_entity_pool_rejected(self):
        """Growing a pool-restricted sampler would mint ids the pool can
        never draw — that must be a loud error, not a silent no-op."""
        sampler = NegativeSampler(10, entity_pool=np.array([1, 2, 3]))
        with pytest.raises(ValueError, match="entity_pool"):
            sampler.resize(20)
        # Same-size resizes stay legal (streaming replays them freely).
        sampler.resize(10)

    def test_false_negative_leaks_counted_on_dense_filter(self):
        """On a complete graph every corruption collides, so retry
        exhaustion must leak — and every leak must be counted."""
        triples = np.array(
            [(h, 0, t) for h in range(3) for t in range(3)], dtype=np.int64
        )
        from repro.kg.graph import KnowledgeGraph

        dense = KnowledgeGraph(triples, num_entities=3, num_relations=1)
        sampler = NegativeSampler(
            3, num_negatives=4, filter_graph=dense, seed=0
        )
        assert sampler.false_negative_leaks == 0
        batch = sampler.corrupt(triples)
        assert sampler.false_negative_leaks == batch.size * batch.num_negatives

    def test_sparse_filter_leaks_nothing(self, small_graph):
        sampler = NegativeSampler(
            small_graph.num_entities, 4, filter_graph=small_graph, seed=0
        )
        sampler.corrupt(small_graph.triples[:64])
        assert sampler.false_negative_leaks == 0


class TestChunkedDeterminism:
    """Satellite golden: the chunked strategy's draw sequence is pinned."""

    _POSITIVES = np.array(
        [[0, 0, 1], [1, 0, 2], [2, 1, 3], [3, 0, 4], [4, 1, 5], [5, 0, 0]],
        dtype=np.int64,
    )

    def test_identical_batches_across_runs(self):
        a = NegativeSampler(10, 4, "chunked", chunk_size=4, seed=9)
        b = NegativeSampler(10, 4, "chunked", chunk_size=4, seed=9)
        for _ in range(3):
            x, y = a.corrupt(self._POSITIVES), b.corrupt(self._POSITIVES)
            assert np.array_equal(x.neg_entities, y.neg_entities)
            assert np.array_equal(x.corrupt_head, y.corrupt_head)

    def test_pinned_draw_sequence(self):
        """Literal golden: catches any silent reordering of RNG draws."""
        batch = NegativeSampler(10, 4, "chunked", chunk_size=4, seed=123).corrupt(
            self._POSITIVES
        )
        assert batch.neg_entities.tolist() == [
            [0, 6, 5, 0],
            [0, 6, 5, 0],
            [0, 6, 5, 0],
            [0, 6, 5, 0],
            [2, 1, 3, 1],
            [2, 1, 3, 1],
        ]
        assert batch.corrupt_head.tolist() == [
            True, True, True, True, False, False,
        ]

    def test_chunk_size_at_least_batch_degenerates_to_one_chunk(self):
        sampler = NegativeSampler(10, 4, "chunked", chunk_size=16, seed=9)
        batch = sampler.corrupt(self._POSITIVES)
        for i in range(1, batch.size):
            assert np.array_equal(batch.neg_entities[0], batch.neg_entities[i])


class TestMiniBatch:
    @pytest.fixture
    def batch(self, tiny_graph):
        return _sampler(tiny_graph).corrupt(tiny_graph.triples[:4])

    def test_unique_entities_sorted(self, batch):
        uniq = batch.unique_entities()
        assert np.array_equal(uniq, np.sort(np.unique(uniq)))

    def test_unique_entities_cover_batch(self, batch):
        uniq = set(batch.unique_entities().tolist())
        assert set(batch.positives[:, HEAD].tolist()) <= uniq
        assert set(batch.positives[:, TAIL].tolist()) <= uniq
        assert set(batch.neg_entities.ravel().tolist()) <= uniq

    def test_unique_relations(self, batch):
        assert set(batch.unique_relations().tolist()) == set(
            batch.positives[:, REL].tolist()
        )

    def test_negative_triples_layout(self, batch):
        neg = negative_triples(batch)
        assert neg.shape == (batch.size * batch.num_negatives, 3)
        for i in range(batch.size):
            for j in range(batch.num_negatives):
                row = neg[i * batch.num_negatives + j]
                pos = batch.positives[i]
                if batch.corrupt_head[i]:
                    assert row[HEAD] == batch.neg_entities[i, j]
                    assert row[TAIL] == pos[TAIL]
                else:
                    assert row[TAIL] == batch.neg_entities[i, j]
                    assert row[HEAD] == pos[HEAD]
                assert row[REL] == pos[REL]


class TestEpochSampler:
    def _epoch_sampler(self, graph, batch_size=3, **kwargs):
        neg = NegativeSampler(graph.num_entities, 2, seed=0)
        return EpochSampler(graph, batch_size, neg, seed=1, **kwargs)

    def test_batches_per_epoch(self, tiny_graph):
        sampler = self._epoch_sampler(tiny_graph, batch_size=3)
        assert sampler.batches_per_epoch == 3  # ceil(8 / 3)

    def test_drop_last(self, tiny_graph):
        sampler = self._epoch_sampler(tiny_graph, batch_size=3, drop_last=True)
        assert sampler.batches_per_epoch == 2

    def test_epoch_covers_all_triples(self, tiny_graph):
        sampler = self._epoch_sampler(tiny_graph, batch_size=3)
        seen = []
        for batch in sampler.epoch():
            seen.extend(map(tuple, batch.positives))
        assert sorted(seen) == sorted(map(tuple, tiny_graph.triples))

    def test_reshuffles_between_epochs(self, small_graph):
        sampler = self._epoch_sampler(small_graph, batch_size=16)
        first = [tuple(b.positives[0]) for b in sampler.epoch()]
        second = [tuple(b.positives[0]) for b in sampler.epoch()]
        assert first != second

    def test_prefetch_equals_live_sampling(self, tiny_graph):
        """Training on prefetched batches is the same stream next_batch
        would have produced — Algorithm 1's equivalence property."""
        a = self._epoch_sampler(tiny_graph)
        b = self._epoch_sampler(tiny_graph)
        prefetched = a.prefetch(5)
        live = [b.next_batch() for _ in range(5)]
        for x, y in zip(prefetched, live):
            assert np.array_equal(x.positives, y.positives)
            assert np.array_equal(x.neg_entities, y.neg_entities)

    def test_empty_graph_rejected(self, tiny_graph):
        import numpy as np
        from repro.kg.graph import KnowledgeGraph

        empty = KnowledgeGraph(np.empty((0, 3), dtype=np.int64), num_entities=5, num_relations=2)
        sampler = self._epoch_sampler(empty)
        with pytest.raises(ValueError, match="empty"):
            sampler.next_batch()
