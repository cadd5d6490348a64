"""Tests for the streaming subsystem (repro.stream).

Covers the drift-generator determinism contract, the graph mutation API,
the drift detector and ADAPTIVE strategy, online ingestion bookkeeping,
checkpointing of grown tables, and — most importantly — the zero-drift
invariant: an ``OnlineTrainer`` fed an empty stream must reproduce the
static ``Trainer`` bit-for-bit.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.config import TrainingConfig
from repro.core.trainer import make_trainer
from repro.kg.graph import KnowledgeGraph
from repro.stream import (
    AdaptiveStale,
    DriftDetector,
    DRIFT_PROFILES,
    EventStream,
    OnlineTrainer,
    PrequentialEvaluator,
    make_stream,
)
from repro.cache.filtering import HotSet


def quick_config(**overrides) -> TrainingConfig:
    defaults = dict(
        model="transe", dim=8, epochs=2, batch_size=32, num_negatives=4,
        num_machines=2, cache_capacity=64, sync_period=4, dps_window=8,
        seed=0,
    )
    defaults.update(overrides)
    return TrainingConfig(**defaults)


# --------------------------------------------------------------- event streams


class TestEventStreams:
    def test_same_seed_same_fingerprint(self, small_graph):
        for profile in ("rotation", "zipf-shift", "burst"):
            a = make_stream(profile, small_graph, steps=64, seed=3)
            b = make_stream(profile, small_graph, steps=64, seed=3)
            assert a.fingerprint() == b.fingerprint(), profile
            assert len(a) == len(b) > 0

    def test_different_seed_different_stream(self, small_graph):
        a = make_stream("rotation", small_graph, steps=64, seed=3)
        b = make_stream("rotation", small_graph, steps=64, seed=4)
        assert a.fingerprint() != b.fingerprint()

    def test_none_profile_is_empty(self, small_graph):
        stream = make_stream("none", small_graph, steps=64, seed=0)
        assert len(stream) == 0
        assert stream.total_inserts == stream.total_deletes == 0

    def test_unknown_profile_raises(self, small_graph):
        with pytest.raises(KeyError, match="unknown drift profile"):
            make_stream("wobble", small_graph, steps=8)

    def test_all_profiles_registered(self):
        assert set(DRIFT_PROFILES) == {"none", "rotation", "zipf-shift", "burst"}

    def test_steps_monotone_and_vocab_nondecreasing(self, small_graph):
        for profile in ("rotation", "zipf-shift", "burst"):
            stream = make_stream(profile, small_graph, steps=96, seed=1)
            steps = [u.step for u in stream]
            assert steps == sorted(steps)
            ents = [u.num_entities for u in stream]
            rels = [u.num_relations for u in stream]
            assert ents == sorted(ents) and rels == sorted(rels)
            assert ents[0] >= small_graph.num_entities

    def test_updates_reference_valid_ids(self, small_graph):
        stream = make_stream("rotation", small_graph, steps=96, seed=1)
        for u in stream:
            for block in (u.inserts, u.deletes):
                if not len(block):
                    continue
                assert block[:, [0, 2]].max() < u.num_entities
                assert block[:, 1].max() < u.num_relations
                assert block.min() >= 0

    def test_rotation_mints_new_entities(self, small_graph):
        stream = make_stream("rotation", small_graph, steps=256, seed=1)
        assert stream.updates[-1].num_entities > small_graph.num_entities

    def test_burst_takes_shared_insert_knob(self, small_graph):
        stream = make_stream(
            "burst", small_graph, steps=64, seed=0,
            interval=8, inserts_per_update=32,
        )
        assert max(len(u.inserts) for u in stream) <= 32


# ------------------------------------------------------------- graph mutation


class TestGraphMutation:
    def test_mutated_sees_new_triples(self, tiny_graph):
        """Regression: the grown graph's probes must see appended triples."""
        # Warm the original's caches first, so stale-cache sharing would
        # be caught.
        assert not tiny_graph.triple_index().contains(5, 1, 2)
        grown = tiny_graph.mutated(inserts=np.array([[5, 1, 2]]))
        assert grown.triple_index().contains(5, 1, 2)
        assert bool(
            grown.triple_index().contains_batch(
                np.array([5]), np.array([1]), np.array([2])
            )[0]
        )
        # The original instance is untouched.
        assert not tiny_graph.triple_index().contains(5, 1, 2)
        assert tiny_graph.num_triples + 1 == grown.num_triples

    def test_mutated_removes_deletes_by_value(self, tiny_graph):
        grown = tiny_graph.mutated(deletes=np.array([[0, 0, 1], [9, 9, 9]]))
        assert not grown.triple_index().contains(0, 0, 1)
        assert grown.num_triples == tiny_graph.num_triples - 1

    def test_mutated_grows_vocab(self, tiny_graph):
        grown = tiny_graph.mutated(
            inserts=np.array([[6, 0, 7]]), num_entities=8
        )
        assert grown.num_entities == 8
        assert grown.entity_degrees()[6] == 1

    def test_mutated_noop_returns_self(self, tiny_graph):
        assert tiny_graph.mutated() is tiny_graph

    def test_mutated_rejects_shrink(self, tiny_graph):
        with pytest.raises(ValueError, match="cannot shrink"):
            tiny_graph.mutated(num_entities=3)

    def test_invalidate_caches_refreshes_derived_state(self, tiny_graph):
        g = KnowledgeGraph(
            tiny_graph.triples.copy(),
            num_entities=tiny_graph.num_entities,
            num_relations=tiny_graph.num_relations,
        )
        before = g.entity_degrees()
        assert g.triple_index().contains(0, 0, 1)
        g.triples[0] = (0, 0, 2)  # in-place edit
        g.invalidate_caches()
        assert g.triple_index().contains(0, 0, 2)
        assert not g.triple_index().contains(0, 0, 1)
        assert not np.array_equal(before, g.entity_degrees())


# ------------------------------------------------------------- drift detection


class TestDriftDetector:
    def _hot(self, ents, rels):
        return HotSet(
            entities=np.asarray(ents, dtype=np.int64),
            relations=np.asarray(rels, dtype=np.int64),
        )

    def test_identical_membership_no_trigger(self):
        det = DriftDetector(threshold=0.65)
        sig = det.observe(
            self._hot([1, 2, 3], [0]),
            np.array([1, 2, 3]), np.array([0]),
            coverage=1.0, candidate_coverage=1.0,
        )
        assert sig.jaccard == 1.0
        assert not sig.triggered

    def test_disjoint_membership_triggers(self):
        det = DriftDetector(threshold=0.65)
        sig = det.observe(
            self._hot([4, 5, 6], [1]),
            np.array([1, 2, 3]), np.array([0]),
            coverage=0.9, candidate_coverage=0.9,
        )
        assert sig.jaccard == 0.0
        assert sig.triggered

    def test_coverage_ewma_triggers_when_low(self):
        det = DriftDetector(threshold=0.65, ewma_alpha=1.0)
        sig = det.observe(
            self._hot([1], []), np.array([1]), np.array([]),
            coverage=0.2, candidate_coverage=0.2,
        )
        assert sig.coverage_ewma == pytest.approx(0.2)
        assert sig.triggered

    def test_gain_margin_triggers_on_slow_drift(self):
        """High absolute coverage, but a rebuild would still pay off."""
        det = DriftDetector(threshold=0.5, gain_margin=0.02)
        sig = det.observe(
            self._hot([1, 2], [0]), np.array([1, 2, 3]), np.array([0]),
            coverage=0.90, candidate_coverage=0.97,
        )
        assert sig.triggered

    def test_signals_recorded(self):
        det = DriftDetector()
        for _ in range(3):
            det.observe(
                self._hot([1], [0]), np.array([1]), np.array([0]),
                coverage=1.0, candidate_coverage=1.0,
            )
        assert len(det.signals) == 3


class TestAdaptiveStrategy:
    def test_config_accepts_adaptive(self):
        cfg = quick_config(cache_strategy="adaptive")
        assert cfg.cache_strategy == "adaptive"

    def test_config_validates_knobs(self):
        with pytest.raises(ValueError):
            quick_config(adaptive_threshold=1.5)
        with pytest.raises(ValueError):
            quick_config(adaptive_decay=-0.1)

    def test_make_trainer_hetkg_a(self):
        trainer = make_trainer("hetkg-a", quick_config())
        assert trainer.config.cache_strategy == "adaptive"

    def test_trains_and_counts_rebuilds(self, small_split):
        trainer = make_trainer("hetkg-a", quick_config(epochs=1))
        result = trainer.train(small_split.train)
        rebuilds = sum(
            w.strategy.rebuilds
            for w in trainer.workers
            if isinstance(w.strategy, AdaptiveStale)
        )
        assert rebuilds >= len(trainer.workers)  # the setup() rebuilds
        assert result.cache_hit_ratio > 0.0

    def test_observes_at_half_window(self):
        strategy = AdaptiveStale(capacity=16, window=8)
        assert strategy.window == 4

    def test_drop_ids_is_a_set_difference(self):
        strategy = AdaptiveStale(capacity=16, window=8)
        strategy._cached_entities = np.array([1, 4, 6, 9], dtype=np.int64)
        strategy._cached_relations = np.array([0, 2], dtype=np.int64)
        strategy.drop_ids(np.array([9, 5, 1, 9]), np.array([], dtype=np.int64))
        assert strategy._cached_entities.tolist() == [4, 6]
        assert strategy._cached_entities.dtype == np.int64
        assert strategy._cached_relations.tolist() == [0, 2]
        strategy.drop_ids(np.array([], dtype=np.int64), np.array([2, 0]))
        assert strategy._cached_relations.tolist() == []


# ------------------------------------------------------- zero-drift invariant


class TestZeroDriftIdentity:
    """The golden contract: an empty stream reproduces static training."""

    @pytest.mark.parametrize("system", ["dglke", "hetkg-c", "hetkg-d", "hetkg-a"])
    def test_bit_identical_to_static(self, small_split, system):
        config = quick_config(epochs=1)
        static = make_trainer(system, config)
        static_result = static.train(small_split.train)

        online_trainer = make_trainer(system, config)
        online = OnlineTrainer(online_trainer, EventStream())
        online_result = online.train(small_split.train)

        for kind in ("entity", "relation"):
            np.testing.assert_array_equal(
                static.server.store.table(kind),
                online_trainer.server.store.table(kind),
                err_msg=f"{system}/{kind} tables diverged with empty stream",
            )
        assert online_result.sim_time == static_result.sim_time
        assert (
            online_result.comm_totals.remote_bytes
            == static_result.comm_totals.remote_bytes
        )
        assert online_result.cache_hit_ratio == static_result.cache_hit_ratio
        assert online_result.ingest_time == 0.0
        assert online_result.updates_applied == 0


# ------------------------------------------------------------ online training


class TestOnlineTraining:
    def _run(self, system="hetkg-d", profile="rotation", **stream_knobs):
        from repro.kg.datasets import generate_dataset

        graph = generate_dataset("fb15k", scale=0.012, seed=7)
        config = quick_config(epochs=1)
        stream = make_stream(
            profile, graph, steps=200, seed=5,
            **({"interval": 8, "inserts_per_update": 16} | stream_knobs),
        )
        trainer = make_trainer(system, config)
        online = OnlineTrainer(trainer, stream, eval_every=32)
        return trainer, online, online.train(graph), stream

    def test_counters_match_applied_updates(self):
        trainer, online, result, stream = self._run()
        assert 0 < result.updates_applied <= len(stream)
        applied = stream.updates[: result.updates_applied]
        assert result.triples_inserted == sum(len(u.inserts) for u in applied)
        from repro.kg.datasets import generate_dataset

        initial = generate_dataset("fb15k", scale=0.012, seed=7).num_entities
        assert result.entities_added == applied[-1].num_entities - initial
        assert result.entities_added > 0

    def test_store_grows_with_stream(self):
        trainer, online, result, stream = self._run()
        n_final = stream.updates[result.updates_applied - 1].num_entities
        assert len(trainer.server.store.table("entity")) == n_final
        assert online.graph.num_entities == n_final
        # Grown accumulators follow the table shape.
        acc = trainer.server.optimizer.state["entity"]
        assert acc.shape == trainer.server.store.table("entity").shape

    def test_deletions_invalidate_cache_rows(self):
        _, _, result, _ = self._run(system="hetkg-c")
        assert result.triples_deleted > 0
        assert result.cache_rows_invalidated > 0

    def test_ingest_time_charged(self):
        _, _, result, _ = self._run()
        assert result.ingest_time > 0.0
        assert result.comm_totals.remote_bytes > 0

    def test_prequential_points_produced(self):
        _, _, result, _ = self._run()
        assert result.prequential.points
        assert 0.0 <= result.prequential.final_mrr <= 1.0

    def test_checkpoint_roundtrip_after_growth(self, tmp_path):
        """Grown tables (and their accumulators) survive a save/load."""
        trainer, online, result, _ = self._run()
        assert result.entities_added > 0
        path = tmp_path / "grown.npz"
        save_checkpoint(trainer, path)
        entity_before = trainer.server.store.table("entity").copy()
        acc_before = trainer.server.optimizer.state["entity"].copy()
        for worker in trainer.workers:
            worker.step()
        load_checkpoint(trainer, path)
        np.testing.assert_array_equal(
            entity_before, trainer.server.store.table("entity")
        )
        np.testing.assert_array_equal(
            acc_before, trainer.server.optimizer.state["entity"]
        )


# -------------------------------------------------------------------- wiring


class TestWiring:
    def test_experiment_registered(self):
        from repro.experiments.registry import EXPERIMENTS

        assert "streaming-drift" in EXPERIMENTS

    def test_report_settings_present(self):
        from repro.experiments.paper_reference import PAPER_REFERENCES
        from repro.experiments.report import REPORT_SETTINGS

        assert "streaming-drift" in REPORT_SETTINGS
        assert "streaming-drift" in PAPER_REFERENCES

    def test_cli_stream_command(self, capsys):
        from repro.cli import main

        assert main(
            [
                "stream", "--scale", "0.015", "--epochs", "1",
                "--profile", "rotation", "--system", "hetkg-a",
                "--machines", "4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "profile=rotation" in out
        assert "hit ratio" in out
        # The stream is sized from the trainer's real step budget, so every
        # generated update falls due before the last step.
        applied, generated = re.search(r"applied (\d+)/(\d+) updates", out).groups()
        assert int(applied) == int(generated) > 0

    def test_cli_stream_rejects_pbg(self, capsys):
        from repro.cli import main

        assert main(["stream", "--system", "pbg"]) == 2

    def test_serving_frontend_warm_from(self, small_split):
        from repro.serving.frontend import ServingFrontend
        from repro.serving.store import EmbeddingStore

        trainer = make_trainer("hetkg-d", quick_config(epochs=1))
        trainer.train(small_split.train)
        worker_cache = trainer.workers[0].cache
        store = EmbeddingStore(trainer.model, trainer.server.store)
        frontend = ServingFrontend(store)
        frontend.warm_from(worker_cache)
        assert frontend.cache is not None
        expected = len(worker_cache.cached_ids("entity")) + len(
            worker_cache.cached_ids("relation")
        )
        assert expected > 0


# ---------------------------------------------------------------- prequential


class TestPrequentialEvaluator:
    def test_window_slides(self, small_split):
        trainer = make_trainer("hetkg-d", quick_config(epochs=1))
        trainer.train(small_split.train)
        ev = PrequentialEvaluator(trainer.model, window=8, max_queries=4, seed=0)
        triples = small_split.train.triples[:20]
        ev.observe(triples)
        assert ev.holdout_size == 8  # deque cap
        store = trainer.server.store
        point = ev.evaluate(
            step=1,
            entity_table=store.table("entity"),
            relation_table=store.table("relation"),
            num_relations=small_split.train.num_relations,
        )
        assert 0.0 <= point.mrr <= 1.0
        assert ev.result.points[-1] is point

    def test_empty_holdout_result(self, small_split):
        trainer = make_trainer("hetkg-d", quick_config(epochs=1))
        trainer.setup(small_split.train)
        ev = PrequentialEvaluator(trainer.model)
        assert ev.holdout_size == 0
        assert ev.result.final_mrr == 0.0
        assert ev.result.points == []


class TestStreamSmoke:
    """The stream CLI path and the zero-drift contract at CLI-run scale."""

    ARGS = ["stream", "--profile", "rotation", "--system", "hetkg-a",
            "--scale", "0.02", "--epochs", "2"]

    def _triples_deleted(self, capsys) -> int:
        from repro import cli

        assert cli.main(self.ARGS) == 0
        out = capsys.readouterr().out
        return int(re.search(r"updates: \+\d+/-(\d+) triples", out)[1])

    def test_out_of_vocabulary_delete_removes_nothing(self, capsys, monkeypatch):
        """The same CLI run twice; the second stream's first update also
        deletes (h, r - 1, t + E) for a real triple (h, r, t): outside the
        vocabulary, and the alias of that triple under
        (h * R + r) * E + t."""
        import dataclasses

        import repro.stream

        clean = self._triples_deleted(capsys)
        assert clean > 0

        def with_alias(profile, graph, **knobs):
            stream = make_stream(profile, graph, **knobs)
            first = stream.updates[0]
            gone = {tuple(row) for row in first.deletes.tolist()}
            h, r, t = next(
                row for row in graph.triples.tolist()
                if row[1] > 0 and tuple(row) not in gone
            )
            alias = np.array([[h, r - 1, t + first.num_entities]])
            stream.updates[0] = dataclasses.replace(
                first, deletes=np.concatenate([first.deletes, alias])
            )
            return stream

        monkeypatch.setattr(repro.stream, "make_stream", with_alias)
        assert self._triples_deleted(capsys) == clean, (
            "an out-of-vocabulary delete matched a row"
        )

    def test_zero_drift_identity_and_strategy_ordering(self):
        """An empty stream trains the static run's tables bit for bit, and
        under rotation ADAPTIVE >= DPS >= CPS on hit ratio.  The stream's
        horizon is the trainer's real step budget (the triples are split
        over the machines), so every update applies."""
        from repro.kg.datasets import generate_dataset

        graph = generate_dataset("fb15k", scale=0.02, seed=0)
        config = TrainingConfig(
            model="transe", dim=8, epochs=2, batch_size=64,
            num_negatives=4, num_machines=2, cache_capacity=256,
            sync_period=4, dps_window=8, seed=0,
        )
        static = make_trainer("hetkg-d", config)
        static.train(graph)
        online = make_trainer("hetkg-d", config)
        OnlineTrainer(online, EventStream()).train(graph)
        for kind in ("entity", "relation"):
            assert np.array_equal(
                static.server.store.table(kind), online.server.store.table(kind)
            ), f"{kind} tables diverged on the empty stream"

        hit = {}
        for system in ("hetkg-c", "hetkg-d", "hetkg-a"):
            trainer = make_trainer(system, config)
            trainer.setup(graph)
            stream = make_stream(
                "rotation", graph,
                steps=config.epochs * trainer.steps_per_epoch, seed=17,
                interval=8, inserts_per_update=32,
            )
            result = OnlineTrainer(trainer, stream).train(graph)
            assert result.updates_applied == len(stream.updates), (
                system, result.updates_applied, len(stream.updates),
            )
            hit[system] = result.cache_hit_ratio
        assert hit["hetkg-a"] >= hit["hetkg-d"] >= hit["hetkg-c"], hit
