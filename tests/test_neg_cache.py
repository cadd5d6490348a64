"""Tests for repro.sampling.cache (hotness-aware hard-negative cache).

Covers the sampler in isolation (substitution, refresh planning, Gumbel
top-k retention, streaming invalidation), its integration with the worker
loop (refresh traffic on the ``"neg_cache"`` books, telemetry counters),
the zero-drift streaming contract, mp sync bit-identity, and the CLI
``--neg-cache`` validation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import TrainingConfig
from repro.core.trainer import make_trainer
from repro.kg.graph import HEAD, REL, TAIL, KnowledgeGraph
from repro.sampling.cache import (
    NEG_CACHE_MODES,
    CachedNegativeSampler,
    RefreshPlan,
)
from repro.sampling.negative import NegativeSampler


def _cached(num_entities=24, **kwargs) -> CachedNegativeSampler:
    defaults = dict(num_entities=num_entities, num_negatives=4, seed=0)
    defaults.update(kwargs)
    return CachedNegativeSampler(**defaults)


def quick_config(**overrides) -> TrainingConfig:
    defaults = dict(
        model="transe", dim=8, epochs=2, batch_size=32, num_negatives=4,
        num_machines=2, cache_capacity=64, sync_period=4, dps_window=8,
        seed=0,
    )
    defaults.update(overrides)
    return TrainingConfig(**defaults)


class _IdScoreModel:
    """Toy scorer: a triple's score is its candidate head/tail row value.

    With dim-1 embedding rows set to the entity id, ``score`` ranks
    candidates by id — so at tiny temperature the cache must keep the
    numerically largest candidate ids.
    """

    def score(self, h_rows, r_rows, t_rows):
        return (h_rows + t_rows - r_rows).sum(axis=1)


# ----------------------------------------------------------- construction


class TestConstruction:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            _cached(mode="topk")

    @pytest.mark.parametrize(
        "knob", ["cache_size", "pool_size", "refresh_period", "refresh_keys",
                 "temperature", "anneal_steps"]
    )
    def test_knobs_must_be_positive(self, knob):
        with pytest.raises(ValueError):
            _cached(**{knob: 0})

    def test_config_validates_mode(self):
        with pytest.raises(ValueError):
            TrainingConfig(neg_cache="bogus")
        for mode in ("off",) + NEG_CACHE_MODES:
            assert TrainingConfig(neg_cache=mode).neg_cache == mode

    def test_config_validates_knobs(self):
        with pytest.raises(ValueError):
            TrainingConfig(neg_cache="auto", neg_cache_size=0)
        with pytest.raises(ValueError):
            TrainingConfig(neg_cache="auto", neg_cache_anneal=-1)


# ---------------------------------------------------------------- corrupt


class TestCorrupt:
    def test_base_draws_bit_identical_to_plain_sampler(self, small_graph):
        """Cold caches never perturb the inherited uniform corruption."""
        pos = small_graph.triples[:48]
        plain = NegativeSampler(small_graph.num_entities, 4, seed=11)
        cached = _cached(small_graph.num_entities, seed=11)
        for _ in range(3):
            a, b = plain.corrupt(pos), cached.corrupt(pos)
            np.testing.assert_array_equal(a.neg_entities, b.neg_entities)
            np.testing.assert_array_equal(a.corrupt_head, b.corrupt_head)

    def test_touch_marks_keys_pending(self, tiny_graph):
        sampler = _cached(tiny_graph.num_entities)
        assert sampler.pending_keys == 0
        sampler.corrupt(tiny_graph.triples)
        assert sampler.pending_keys > 0

    def test_warm_keys_serve_from_cache(self, tiny_graph):
        sampler = _cached(tiny_graph.num_entities, mode="nscaching")
        # Warm every possible key with a sentinel negative.
        for row in tiny_graph.triples:
            for direction in (False, True):
                key = CachedNegativeSampler._key_of(row, direction)
                sampler.seed_cache(key, np.array([5], dtype=np.int64))
        batch = sampler.corrupt(tiny_graph.triples)
        assert (batch.neg_entities == 5).all()
        assert sampler.hard_negatives_served == batch.size * batch.num_negatives

    def test_auto_mode_anneals_exploration_to_exploitation(self, tiny_graph):
        sampler = _cached(tiny_graph.num_entities, mode="auto", anneal_steps=2)
        assert sampler.mix_fraction() == 0.0
        sampler.corrupt(tiny_graph.triples)
        assert sampler.mix_fraction() == 0.5
        sampler.corrupt(tiny_graph.triples)
        assert sampler.mix_fraction() == 1.0

    def test_deterministic_across_instances(self, small_graph):
        runs = []
        for _ in range(2):
            sampler = _cached(small_graph.num_entities, seed=3)
            sampler.seed_cache((0, 0, False), np.array([1, 2], dtype=np.int64))
            batches = [
                sampler.corrupt(small_graph.triples[:32]).neg_entities
                for _ in range(4)
            ]
            runs.append(batches)
        for a, b in zip(*runs):
            np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------- refresh


class TestRefresh:
    def test_refresh_due_requires_pending_and_period(self, tiny_graph):
        sampler = _cached(tiny_graph.num_entities, refresh_period=4)
        assert not sampler.refresh_due(4)  # nothing touched yet
        sampler.corrupt(tiny_graph.triples)
        assert sampler.refresh_due(4)
        assert not sampler.refresh_due(5)

    def test_plan_refresh_prefers_hottest_keys(self):
        sampler = _cached(refresh_keys=1, pool_size=8)
        hot, cold = (3, 0, False), (7, 1, True)
        sampler.touch(cold, 1)
        sampler.touch(hot, 5)
        plan = sampler.plan_refresh()
        assert plan is not None and plan.keys == [hot]
        # The cold key keeps its touch count for the next event.
        assert sampler.pending() == {cold: 1}

    def test_plan_excludes_anchor_and_true_triples(self, tiny_graph):
        sampler = _cached(
            tiny_graph.num_entities,
            filter_graph=tiny_graph,
            pool_size=64,
        )
        # Corrupting the head of (0, 0, 1): anchor is tail entity 1, and
        # entity 0 would reconstruct the true triple (0, 0, 1).
        sampler.touch((1, 0, True), 1)
        plan = sampler.plan_refresh()
        assert plan is not None
        (candidates,) = plan.candidates
        assert 1 not in candidates  # anchor never caches itself
        assert 0 not in candidates  # filter excludes the true triple

    def test_plan_empty_when_nothing_pending(self):
        assert _cached().plan_refresh() is None

    def test_complete_refresh_keeps_highest_scores(self):
        sampler = _cached(
            num_entities=16, cache_size=2, pool_size=8, temperature=1e-6
        )
        sampler.touch((3, 0, False), 1)
        plan = sampler.plan_refresh()
        assert plan is not None
        # Dim-1 rows equal to the entity id: _IdScoreModel then ranks
        # candidates by id, and at T=1e-6 Gumbel noise cannot reorder.
        entity_rows = plan.entity_ids.astype(float)[:, None]
        relation_rows = plan.relation_ids.astype(float)[:, None]
        scored = sampler.complete_refresh(
            plan, _IdScoreModel(), entity_rows, relation_rows
        )
        assert scored == plan.num_scores > 0
        (candidates,) = plan.candidates
        expected = np.sort(candidates)[-2:]
        np.testing.assert_array_equal(sampler.cached((3, 0, False)), expected)

    def test_counters_accumulate(self):
        sampler = _cached(num_entities=16, pool_size=8)
        sampler.touch((3, 0, False), 1)
        sampler.touch((5, 1, True), 2)
        plan = sampler.plan_refresh()
        sampler.complete_refresh(
            plan,
            _IdScoreModel(),
            plan.entity_ids.astype(float)[:, None],
            plan.relation_ids.astype(float)[:, None],
        )
        counters = sampler.counters()
        assert counters["refreshes"] == 1
        assert counters["refreshed_keys"] == 2
        assert counters["candidates_scored"] == plan.num_scores
        assert sampler.num_keys == 2

    def test_cache_respects_size_bound(self):
        sampler = _cached(num_entities=64, cache_size=3, pool_size=32)
        sampler.touch((1, 0, False), 1)
        plan = sampler.plan_refresh()
        sampler.complete_refresh(
            plan,
            _IdScoreModel(),
            plan.entity_ids.astype(float)[:, None],
            plan.relation_ids.astype(float)[:, None],
        )
        assert len(sampler.cached((1, 0, False))) <= 3

    def test_refresh_plan_pull_sets_cover_candidates(self):
        sampler = _cached(num_entities=32, pool_size=8)
        sampler.touch((3, 0, False), 1)
        sampler.touch((9, 1, True), 1)
        plan = sampler.plan_refresh()
        for key, candidates in zip(plan.keys, plan.candidates):
            assert key[0] in plan.entity_ids
            assert key[1] in plan.relation_ids
            assert np.isin(candidates, plan.entity_ids).all()


# ----------------------------------------------------------- streaming ops


class TestStreamingOps:
    def test_resize_grows_candidate_range(self):
        sampler = _cached(num_entities=10)
        sampler.resize(20)
        assert sampler.num_entities == 20
        draws = sampler._draw_candidates(512)
        assert draws.max() >= 10  # new ids actually enter pools

    def test_resize_purges_newly_true_negatives(self, tiny_graph):
        sampler = _cached(tiny_graph.num_entities, filter_graph=tiny_graph)
        # Cache entity 4 as a head-corruption for (r=0, t=1) — legal now.
        sampler.seed_cache((1, 0, True), np.array([4], dtype=np.int64))
        grown = KnowledgeGraph(
            np.vstack([tiny_graph.triples, [[4, 0, 1]]]),
            num_entities=tiny_graph.num_entities,
            num_relations=tiny_graph.num_relations,
        )
        sampler.resize(grown.num_entities, filter_graph=grown)
        # (4, 0, 1) is now a true triple: it must leave the cache.
        assert 4 not in sampler.cached((1, 0, True))

    def test_invalidate_drops_anchored_keys_and_purges_ids(self):
        sampler = _cached(num_entities=16)
        sampler.seed_cache((3, 0, False), np.array([1, 2], dtype=np.int64))
        sampler.seed_cache((5, 0, True), np.array([3, 7], dtype=np.int64))
        sampler.seed_cache((6, 1, False), np.array([8], dtype=np.int64))
        sampler.touch((3, 0, False), 2)
        sampler.touch((6, 1, False), 1)
        dropped = sampler.invalidate_ids(
            np.array([3], dtype=np.int64), np.array([1], dtype=np.int64)
        )
        # Key anchored on entity 3 and key on relation 1 are gone; the
        # survivor's negative list loses the deleted entity 3.
        assert dropped == 2
        assert sampler.cached_keys() == [(5, 0, True)]
        np.testing.assert_array_equal(
            sampler.cached((5, 0, True)), np.array([7])
        )
        assert sampler.pending() == {}

    def test_invalidate_noop_returns_zero(self):
        sampler = _cached()
        assert sampler.invalidate_ids(np.empty(0), np.empty(0)) == 0


# ------------------------------------------------------ worker integration


class TestWorkerIntegration:
    @pytest.mark.parametrize("mode", NEG_CACHE_MODES)
    def test_train_pays_refresh_traffic(self, small_split, mode):
        trainer = make_trainer(
            "hetkg-d", quick_config(neg_cache=mode, neg_cache_anneal=16)
        )
        result = trainer.train(small_split.train)
        stats = result.neg_cache_stats
        assert stats["refreshes"] > 0
        assert stats["candidates_scored"] > 0
        assert stats["refresh_bytes"] > 0
        assert stats["refresh_messages"] > 0
        assert stats["neg_cache_time"] > 0.0
        assert stats["cache_keys"] > 0
        assert stats["pending_keys"] == sum(
            w.neg_cache.pending_keys for w in trainer.workers
        ) > 0
        # Refresh scoring adds to the training forward passes.
        assert result.scored_candidates > 0
        for worker in trainer.workers:
            assert worker.clock.category("neg_cache") > 0.0

    def test_off_path_charges_nothing(self, small_split):
        trainer = make_trainer("hetkg-d", quick_config())
        result = trainer.train(small_split.train)
        assert result.neg_cache_stats == {}
        for worker in trainer.workers:
            assert worker.neg_cache is None
            assert worker.clock.category("neg_cache") == 0.0
        # Training still counts its own forward scores.
        assert result.scored_candidates > 0

    def test_cached_changes_embeddings(self, small_split):
        plain = make_trainer("hetkg-d", quick_config())
        plain.train(small_split.train)
        cached = make_trainer("hetkg-d", quick_config(neg_cache="nscaching"))
        cached.train(small_split.train)
        assert not np.array_equal(
            plain.server.store.table("entity"),
            cached.server.store.table("entity"),
        )

    def test_leak_counter_surfaces_on_result(self, small_split):
        trainer = make_trainer("hetkg-d", quick_config())
        result = trainer.train(small_split.train)
        assert result.false_negative_leaks >= 0


# ---------------------------------------------------- streaming integration


class TestStreamingIntegration:
    def test_empty_stream_bit_identical_to_static_cached(self, small_split):
        from repro.stream import EventStream, OnlineTrainer

        config = quick_config(epochs=1, neg_cache="nscaching")
        static = make_trainer("hetkg-d", config)
        static_result = static.train(small_split.train)

        online_trainer = make_trainer("hetkg-d", config)
        online = OnlineTrainer(online_trainer, EventStream())
        online_result = online.train(small_split.train)

        for kind in ("entity", "relation"):
            np.testing.assert_array_equal(
                static.server.store.table(kind),
                online_trainer.server.store.table(kind),
                err_msg=f"{kind} tables diverged with an empty stream",
            )
        assert online_result.sim_time == static_result.sim_time
        assert online_result.neg_cache_keys_invalidated == 0
        assert (
            online_result.neg_cache_stats["candidates_scored"]
            == static_result.neg_cache_stats["candidates_scored"]
        )

    def test_stream_deletes_invalidate_keys(self):
        from repro.kg.datasets import generate_dataset
        from repro.stream import OnlineTrainer, make_stream

        graph = generate_dataset("fb15k", scale=0.012, seed=7)
        config = quick_config(epochs=1, neg_cache="nscaching")
        stream = make_stream(
            "rotation", graph, steps=200, seed=5,
            interval=8, inserts_per_update=16,
        )
        trainer = make_trainer("hetkg-d", config)
        online = OnlineTrainer(trainer, stream, eval_every=32)
        result = online.train(graph)
        assert result.triples_deleted > 0  # the profile actually deletes
        assert result.neg_cache_keys_invalidated > 0
        assert result.neg_cache_stats["refreshes"] > 0
        assert result.neg_cache_stats["pending_keys"] == sum(
            w.neg_cache.pending_keys for w in trainer.workers
        ) > 0

    def test_resize_growth_keeps_cached_sampler_valid(self):
        from repro.kg.datasets import generate_dataset
        from repro.stream import OnlineTrainer, make_stream

        graph = generate_dataset("fb15k", scale=0.012, seed=7)
        config = quick_config(epochs=1, neg_cache="auto", neg_cache_anneal=16)
        stream = make_stream(
            "rotation", graph, steps=200, seed=5,
            interval=8, inserts_per_update=16,
        )
        trainer = make_trainer("hetkg-d", config)
        result = OnlineTrainer(trainer, stream, eval_every=32).train(graph)
        assert result.entities_added > 0
        for worker in trainer.workers:
            sampler = worker.sampler.negative_sampler
            assert sampler.num_entities > graph.num_entities


# -------------------------------------------------------- mp bit-identity


class TestMpSyncBitIdentity:
    def test_cached_sampler_threads_through_mp(self):
        from repro.kg.datasets import generate_dataset
        from repro.kg.splits import split_triples

        graph = generate_dataset("fb15k", scale=0.02, seed=3)
        split = split_triples(graph, seed=3)
        config = quick_config(neg_cache="nscaching")
        sim = make_trainer("hetkg-d", config)
        r_sim = sim.train(split.train)
        mp = make_trainer("hetkg-d", quick_config(neg_cache="nscaching"))
        r_mp = mp.train_mp(
            split.train, schedule="sync", start_method="fork"
        )
        for kind in ("entity", "relation"):
            np.testing.assert_array_equal(
                sim.server.store.table(kind),
                mp.server.store.table(kind),
                err_msg=f"{kind} tables diverged between sim and mp/sync",
            )
        assert r_mp.neg_cache_stats["refreshes"] == (
            r_sim.neg_cache_stats["refreshes"]
        )
        assert r_mp.neg_cache_stats["candidates_scored"] == (
            r_sim.neg_cache_stats["candidates_scored"]
        )
        assert r_mp.scored_candidates == r_sim.scored_candidates
        for name in ("cache_keys", "pending_keys"):
            assert r_mp.neg_cache_stats[name] == r_sim.neg_cache_stats[name] > 0


# ------------------------------------------------------------------- CLI


class TestCLI:
    def test_unknown_mode_exits_two_with_suggestion(self, capsys):
        from repro.cli import main

        assert main(["train", "--neg-cache", "nscachin"]) == 2
        err = capsys.readouterr().err
        assert "did you mean" in err and "nscaching" in err

    def test_pbg_rejected(self, capsys):
        from repro.cli import main

        code = main(
            ["train", "--neg-cache", "auto", "--system", "pbg",
             "--scale", "0.012"]
        )
        assert code == 2
        assert "PBG" in capsys.readouterr().err

    def test_stream_rejects_unknown_mode(self, capsys):
        from repro.cli import main

        assert main(["stream", "--neg-cache", "lru"]) == 2
        assert "valid modes" in capsys.readouterr().err

    def test_run_rejects_unknown_mode(self, capsys):
        from repro.cli import main

        assert main(
            ["run", "negative-sampling", "--neg-cache", "cache"]
        ) == 2
        assert "valid modes" in capsys.readouterr().err
