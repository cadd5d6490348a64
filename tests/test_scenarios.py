"""Cross-feature scenario tests: combinations a real deployment would hit."""

import numpy as np
import pytest

from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.config import TrainingConfig
from repro.core.telemetry import Telemetry
from repro.core.trainer import HETKGTrainer, make_trainer


def config(**overrides):
    defaults = dict(
        model="transe", dim=8, epochs=3, batch_size=16, num_negatives=4,
        num_machines=2, cache_strategy="dps", cache_capacity=64,
        dps_window=4, sync_period=4, seed=5,
    )
    defaults.update(overrides)
    return TrainingConfig(**defaults)


class TestCompressionPlusCache:
    def test_compressed_cached_training_learns(self, small_split):
        """Compression and caching compose: both byte levers active."""
        plain = HETKGTrainer(config()).train(small_split.train)
        compressed = HETKGTrainer(config(compression="int8")).train(
            small_split.train
        )
        assert (
            compressed.comm_totals.remote_bytes < plain.comm_totals.remote_bytes
        )
        assert compressed.history.losses()[-1] < compressed.history.losses()[0]

    def test_compression_does_not_change_hit_ratio(self, small_split):
        plain = HETKGTrainer(config()).train(small_split.train)
        compressed = HETKGTrainer(config(compression="fp16")).train(
            small_split.train
        )
        assert compressed.cache_hit_ratio == pytest.approx(
            plain.cache_hit_ratio, abs=0.05
        )


class TestCheckpointResumeWorkflow:
    def test_train_checkpoint_resume_evaluate(self, small_split, tmp_path):
        """The full operational loop: train, save, restart, warm-start,
        keep training, evaluate."""
        first = HETKGTrainer(config(epochs=2))
        first.train(small_split.train)
        ckpt = tmp_path / "run.npz"
        save_checkpoint(first, ckpt)

        resumed = HETKGTrainer(config(epochs=2, seed=6))
        resumed.setup(small_split.train)
        load_checkpoint(resumed, ckpt)
        result = resumed.train(
            small_split.train,
            eval_graph=small_split.test,
            eval_max_queries=20,
            eval_candidates=50,
        )
        assert np.isfinite(result.final_metrics["mrr"])

    def test_resumed_beats_fresh_at_equal_epochs(self, small_split, tmp_path):
        """Warm-starting from 4 epochs of training must give lower loss
        than a cold start over the same continuation."""
        warm = HETKGTrainer(config(epochs=4))
        warm.train(small_split.train)
        ckpt = tmp_path / "warm.npz"
        save_checkpoint(warm, ckpt)

        cont = HETKGTrainer(config(epochs=1, seed=9))
        cont.setup(small_split.train)
        load_checkpoint(cont, ckpt)
        warm_result = cont.train(small_split.train)

        cold_result = HETKGTrainer(config(epochs=1, seed=9)).train(
            small_split.train
        )
        assert warm_result.history.losses()[0] < cold_result.history.losses()[0]


class TestTelemetryAcrossSystems:
    def test_dglke_vs_hetkg_telemetry(self, small_split):
        """Telemetry quantifies the cache's per-step remote-byte saving."""
        t_plain, t_cached = Telemetry(), Telemetry()
        make_trainer("dglke", config()).train(small_split.train, telemetry=t_plain)
        make_trainer("hetkg-d", config(cache_capacity=256, sync_period=16)).train(
            small_split.train, telemetry=t_cached
        )
        plain_rate = t_plain.summary()["remote_bytes_per_step"]
        cached_rate = t_cached.summary()["remote_bytes_per_step"]
        assert cached_rate < plain_rate


class TestClassificationAfterDistributedTraining:
    def test_all_systems_classify_above_chance(self, small_split):
        """A trained model scores a held-out triple above the same triple
        with a random tail more often than a coin flip would."""
        rng = np.random.default_rng(0)
        for system in ("dglke", "hetkg-c"):
            trainer = make_trainer(system, config(epochs=6))
            trainer.train(small_split.train)
            entity = trainer.server.store.table("entity")
            relation = trainer.server.store.table("relation")
            h, r, t = small_split.test.triples.T
            corrupt = rng.integers(0, len(entity), size=len(t))
            true = trainer.model.score(entity[h], relation[r], entity[t])
            false = trainer.model.score(entity[h], relation[r], entity[corrupt])
            assert np.mean(true > false) > 0.5


class TestStragglerInteraction:
    def test_cache_still_helps_with_straggler(self, small_split):
        """A slow machine must not erase the cache's benefit on the other
        machines' communication."""
        speeds = (1.0, 0.5)
        plain = make_trainer(
            "dglke", config(machine_speeds=speeds)
        ).train(small_split.train)
        # A cache slot must earn its refresh: keep the sync period long
        # enough that hits outweigh the periodic refresh traffic.
        cached = make_trainer(
            "hetkg-c",
            config(machine_speeds=speeds, cache_capacity=128, sync_period=16),
        ).train(small_split.train)
        assert cached.communication_time < plain.communication_time
