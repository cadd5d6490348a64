"""Tests for HETKGTrainer / DGLKETrainer / PBGTrainer assembly and loops."""

import pytest

from repro.core.baselines import DGLKETrainer, PBGTrainer
from repro.core.config import TrainingConfig
from repro.core.trainer import HETKGTrainer, make_trainer


def quick_config(**overrides):
    defaults = dict(
        model="transe",
        dim=8,
        epochs=2,
        batch_size=16,
        num_negatives=4,
        num_machines=2,
        cache_capacity=64,
        dps_window=4,
        sync_period=4,
        seed=0,
        wire_dim=None,
    )
    defaults.update(overrides)
    return TrainingConfig(**defaults)


class TestMakeTrainer:
    def test_hetkg_variants(self):
        c = make_trainer("hetkg-c", quick_config())
        assert isinstance(c, HETKGTrainer)
        assert c.config.cache_strategy == "cps"
        d = make_trainer("HET-KG-D", quick_config())
        assert d.config.cache_strategy == "dps"

    def test_baselines(self):
        assert isinstance(make_trainer("dglke", quick_config()), DGLKETrainer)
        assert isinstance(make_trainer("pbg", quick_config()), PBGTrainer)

    def test_dglke_forces_no_cache(self):
        trainer = make_trainer("dglke", quick_config(cache_strategy="dps"))
        assert trainer.config.cache_strategy == "none"

    def test_unknown_system(self):
        with pytest.raises(KeyError, match="unknown system"):
            make_trainer("graphvite", quick_config())


class TestHETKGTrainer:
    def test_setup_builds_workers(self, small_split):
        trainer = HETKGTrainer(quick_config(cache_strategy="dps"))
        trainer.setup(small_split.train)
        assert 1 <= len(trainer.workers) <= 2
        assert trainer.server is not None
        assert all(w.cache is not None for w in trainer.workers)

    def test_setup_idempotent(self, small_split):
        trainer = HETKGTrainer(quick_config())
        trainer.setup(small_split.train)
        workers = trainer.workers
        trainer.setup(small_split.train)
        assert trainer.workers is workers

    def test_train_returns_result(self, small_split):
        trainer = HETKGTrainer(quick_config(cache_strategy="cps"))
        result = trainer.train(small_split.train)
        assert result.sim_time > 0
        assert result.compute_time > 0
        assert result.communication_time > 0
        assert result.sim_time == pytest.approx(
            result.compute_time + result.communication_time
        )
        assert len(result.history) == 2

    def test_loss_decreases(self, small_split):
        trainer = HETKGTrainer(quick_config(epochs=6, cache_strategy="dps"))
        result = trainer.train(small_split.train)
        losses = result.history.losses()
        assert losses[-1] < losses[0]

    def test_cache_hit_ratio_positive(self, small_split):
        trainer = HETKGTrainer(quick_config(cache_strategy="dps"))
        result = trainer.train(small_split.train)
        assert 0.0 < result.cache_hit_ratio <= 1.0

    def test_no_cache_zero_hits(self, small_split):
        result = DGLKETrainer(quick_config()).train(small_split.train)
        assert result.cache_hit_ratio == 0.0

    def test_eval_at_final_epoch(self, small_split):
        trainer = HETKGTrainer(quick_config(cache_strategy="cps"))
        result = trainer.train(
            small_split.train,
            eval_graph=small_split.test,
            eval_max_queries=10,
            eval_candidates=30,
        )
        assert "mrr" in result.final_metrics
        assert 0.0 <= result.final_metrics["mrr"] <= 1.0

    def test_eval_every(self, small_split):
        trainer = HETKGTrainer(quick_config(epochs=4, cache_strategy="cps"))
        result = trainer.train(
            small_split.train,
            eval_graph=small_split.test,
            eval_every=2,
            eval_max_queries=5,
            eval_candidates=20,
        )
        evaluated = [p.epoch for p in result.history.points if p.metrics]
        assert evaluated == [2, 4]

    def test_deterministic_given_seed(self, small_split):
        a = HETKGTrainer(quick_config(cache_strategy="dps")).train(small_split.train)
        b = HETKGTrainer(quick_config(cache_strategy="dps")).train(small_split.train)
        assert a.sim_time == b.sim_time
        assert a.history.losses() == b.history.losses()

    def test_evaluate_before_setup_rejected(self, small_split):
        trainer = HETKGTrainer(quick_config())
        with pytest.raises(RuntimeError):
            trainer.evaluate(small_split.test)

    def test_single_machine(self, small_split):
        trainer = HETKGTrainer(quick_config(num_machines=1, cache_strategy="dps"))
        result = trainer.train(small_split.train)
        assert result.sim_time > 0


class TestPBGTrainer:
    def test_train_runs(self, small_split):
        result = PBGTrainer(quick_config()).train(small_split.train)
        assert result.sim_time > 0
        assert result.system == "PBG"
        assert result.cache_hit_ratio == 0.0

    def test_buckets_cover_all_triples(self, small_split):
        trainer = PBGTrainer(quick_config())
        trainer.setup(small_split.train)
        total = sum(len(idx) for idx in trainer._buckets.values())
        assert total == small_split.train.num_triples

    def test_buckets_equal_the_per_triple_grouping(self, small_split):
        """The one-sort grouping gives every bucket the ascending triple
        indices a walk over the triples appends, in key order."""
        trainer = PBGTrainer(quick_config(pbg_partitions=3))
        trainer.setup(small_split.train)
        part = trainer._entity_part
        expected: dict = {}
        for idx, (h, _, t) in enumerate(small_split.train.triples):
            expected.setdefault((int(part[h]), int(part[t])), []).append(idx)
        assert list(trainer._buckets) == sorted(expected)
        for key, idx in trainer._buckets.items():
            assert idx.tolist() == expected[key], key

    def test_loss_decreases(self, small_split):
        result = PBGTrainer(quick_config(epochs=6)).train(small_split.train)
        losses = result.history.losses()
        assert losses[-1] < losses[0]

    def test_relation_traffic_is_dense(self, small_split):
        """PBG's communication must scale with the full relation table, not
        the batch's touched relations."""
        trainer = PBGTrainer(quick_config())
        trainer.setup(small_split.train)
        cost = trainer._dense_relation_cost()
        expected = 2 * trainer.server.store.table("relation").size * 4  # wire_dim=None
        assert cost.remote_bytes == expected

    def test_evaluate_before_setup_rejected(self, small_split):
        with pytest.raises(RuntimeError):
            PBGTrainer(quick_config()).evaluate(small_split.test)


class TestSystemComparison:
    """The paper's headline shape, at test scale."""

    @pytest.fixture(scope="class")
    def results(self, small_split):
        cfg = dict(
            model="transe",
            dim=8,
            epochs=2,
            batch_size=32,
            num_negatives=8,
            num_machines=4,
            cache_capacity=128,
            dps_window=8,
            sync_period=8,
            seed=1,
        )
        out = {}
        for system in ("pbg", "dglke", "hetkg-c", "hetkg-d"):
            trainer = make_trainer(system, TrainingConfig(**cfg))
            out[system] = trainer.train(small_split.train)
        return out

    def test_hetkg_not_slower_than_dglke(self, results):
        assert results["hetkg-c"].sim_time <= results["dglke"].sim_time * 1.02
        assert results["hetkg-d"].sim_time <= results["dglke"].sim_time * 1.02

    def test_hetkg_communicates_less(self, results):
        assert (
            results["hetkg-c"].communication_time
            < results["dglke"].communication_time
        )

    def test_pbg_slowest(self, results):
        assert results["pbg"].sim_time > results["hetkg-d"].sim_time

    def test_compute_times_close(self, results):
        """Fig. 7's observation: caching must not change compute cost."""
        ratio = results["hetkg-c"].compute_time / results["dglke"].compute_time
        assert 0.9 < ratio < 1.2


class TestHeterogeneousMachines:
    def test_straggler_stretches_epoch(self, small_split):
        fast = HETKGTrainer(quick_config(num_machines=2)).train(small_split.train)
        slow = HETKGTrainer(
            quick_config(num_machines=2, machine_speeds=(1.0, 0.25))
        ).train(small_split.train)
        # The slow machine's compute takes 4x longer and the epoch waits
        # for the slowest machine.
        assert slow.sim_time > fast.sim_time
        assert slow.compute_time > fast.compute_time

    def test_speeds_length_validated(self):
        with pytest.raises(ValueError, match="machine_speeds"):
            quick_config(num_machines=2, machine_speeds=(1.0,))

    def test_speeds_positive(self):
        with pytest.raises(ValueError):
            quick_config(num_machines=2, machine_speeds=(1.0, 0.0))

    def test_speed_of_default(self):
        assert quick_config().speed_of(1) == 1.0
