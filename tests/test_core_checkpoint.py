"""Tests for checkpoint save/restore."""

import json

import numpy as np
import pytest

from repro.core.checkpoint import load_checkpoint, read_checkpoint, save_checkpoint
from repro.core.config import TrainingConfig
from repro.core.trainer import HETKGTrainer


def quick_config(**overrides):
    defaults = dict(
        model="transe", dim=8, epochs=2, batch_size=16, num_negatives=4,
        num_machines=2, cache_strategy="cps", cache_capacity=64, seed=0,
    )
    defaults.update(overrides)
    return TrainingConfig(**defaults)


class TestSaveLoad:
    def test_roundtrip_restores_tables(self, small_split, tmp_path):
        trainer = HETKGTrainer(quick_config())
        trainer.train(small_split.train)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(trainer, path)
        entity_before = trainer.server.store.table("entity").copy()

        # Train further (state diverges), then restore.
        for worker in trainer.workers:
            worker.step()
        assert not np.array_equal(
            entity_before, trainer.server.store.table("entity")
        )
        load_checkpoint(trainer, path)
        np.testing.assert_array_equal(
            entity_before, trainer.server.store.table("entity")
        )

    def test_restores_adagrad_state(self, small_split, tmp_path):
        trainer = HETKGTrainer(quick_config())
        trainer.train(small_split.train)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(trainer, path)
        acc_before = trainer.server.optimizer.state["entity"].copy()
        for worker in trainer.workers:
            worker.step()
        load_checkpoint(trainer, path)
        np.testing.assert_array_equal(
            acc_before, trainer.server.optimizer.state["entity"]
        )

    def test_resume_training_continues(self, small_split, tmp_path):
        """A restored trainer must keep training without blowing up."""
        trainer = HETKGTrainer(quick_config())
        result1 = trainer.train(small_split.train)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(trainer, path)

        fresh = HETKGTrainer(quick_config())
        fresh.setup(small_split.train)
        load_checkpoint(fresh, path)
        loss = fresh.workers[0].step()
        assert np.isfinite(loss)

    def test_save_before_setup_rejected(self, tmp_path):
        with pytest.raises(RuntimeError, match="no state"):
            save_checkpoint(HETKGTrainer(quick_config()), tmp_path / "x.npz")

    def test_load_before_setup_rejected(self, small_split, tmp_path):
        trainer = HETKGTrainer(quick_config())
        trainer.train(small_split.train)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(trainer, path)
        with pytest.raises(RuntimeError, match="set up"):
            load_checkpoint(HETKGTrainer(quick_config()), path)

    def test_mismatched_model_rejected(self, small_split, tmp_path):
        trainer = HETKGTrainer(quick_config())
        trainer.train(small_split.train)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(trainer, path)

        other = HETKGTrainer(quick_config(model="distmult"))
        other.setup(small_split.train)
        with pytest.raises(ValueError, match="model"):
            load_checkpoint(other, path)

    def test_mismatched_dim_rejected(self, small_split, tmp_path):
        trainer = HETKGTrainer(quick_config())
        trainer.train(small_split.train)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(trainer, path)

        other = HETKGTrainer(quick_config(dim=16))
        other.setup(small_split.train)
        with pytest.raises(ValueError, match="dim"):
            load_checkpoint(other, path)


class TestArchiveContract:
    """The archive layout is the compatibility surface: older commits read
    what this one writes and the reverse."""

    KEYS = [
        "adagrad_entity", "adagrad_relation", "entity_table", "meta_json",
        "relation_table",
    ]
    META = {"format_version", "model", "dim", "num_entities", "num_relations"}

    def test_keys_and_meta_are_the_format(self, small_split, tmp_path):
        trainer = HETKGTrainer(quick_config())
        trainer.setup(small_split.train)  # saved before the first push
        path = tmp_path / "ckpt.npz"
        save_checkpoint(trainer, path)
        with np.load(path) as data:
            assert sorted(data.files) == self.KEYS
            meta = json.loads(bytes(data["meta_json"]).decode())
        assert set(meta) == self.META
        assert meta["format_version"] == 1
        read_meta, arrays = read_checkpoint(path)
        assert read_meta == meta
        assert set(arrays) == {"entity", "relation", "opt_entity", "opt_relation"}

    def test_sgd_archive_carries_no_optimizer_state(self, small_split, tmp_path):
        trainer = HETKGTrainer(quick_config(optimizer="sgd"))
        trainer.train(small_split.train)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(trainer, path)
        with np.load(path) as data:
            assert sorted(data.files) == [
                "entity_table", "meta_json", "relation_table"
            ]

    def test_tables_only_archive_leaves_optimizer_cold(self, small_split, tmp_path):
        """A hand-built archive holding only the two tables + meta loads;
        the optimizer history it lacks restarts from zero."""
        trainer = HETKGTrainer(quick_config())
        trainer.train(small_split.train)
        store = trainer.server.store
        entity = np.full(store.table("entity").shape, 0.25)
        relation = np.full(store.table("relation").shape, -0.5)
        meta = {
            "format_version": 1, "model": "transe", "dim": 8,
            "num_entities": len(entity), "num_relations": len(relation),
        }
        path = tmp_path / "bare.npz"
        with open(path, "wb") as f:
            np.savez(
                f, entity_table=entity, relation_table=relation,
                meta_json=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            )
        assert trainer.server.optimizer.state["entity"].any()
        load_checkpoint(trainer, path)
        state = trainer.server.state_arrays()
        np.testing.assert_array_equal(state["entity"], entity)
        np.testing.assert_array_equal(state["relation"], relation)
        assert not state["opt_entity"].any() and not state["opt_relation"].any()

    def test_checkpoint_right_after_grow_loads(self, small_split, tmp_path):
        """The saved optimizer state follows the tables' shape even when
        the store grew and nothing was pushed since (it used to be written
        at its stale shape, which load_checkpoint then refused)."""
        trainer = HETKGTrainer(quick_config())
        trainer.train(small_split.train)
        store = trainer.server.store
        store.grow("entity", np.ones((3, store.row_width("entity"))))
        path = tmp_path / "grown.npz"
        save_checkpoint(trainer, path)
        before = {n: a.copy() for n, a in trainer.server.state_arrays().items()}
        assert before["opt_entity"].shape == before["entity"].shape
        assert not before["opt_entity"][-3:].any()
        for worker in trainer.workers:
            worker.step()
        load_checkpoint(trainer, path)
        for name, array in trainer.server.state_arrays().items():
            np.testing.assert_array_equal(array, before[name], err_msg=name)


class TestAtomicity:
    def test_save_leaves_no_temp_files(self, small_split, tmp_path):
        """A successful save stages via a temp file but cleans it up."""
        trainer = HETKGTrainer(quick_config())
        trainer.train(small_split.train)
        save_checkpoint(trainer, tmp_path / "ckpt.npz")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.npz"]

    def test_overwrite_is_atomic_replacement(self, small_split, tmp_path):
        """Saving over an existing checkpoint swaps it wholesale.

        Regression for the pre-atomic writer: a direct ``np.savez(path)``
        truncates the destination first, so a crash mid-write destroyed the
        previous checkpoint.  With staged writes the old archive stays
        loadable until the rename, and the new one is complete afterwards.
        """
        trainer = HETKGTrainer(quick_config())
        trainer.train(small_split.train)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(trainer, path)
        for worker in trainer.workers:
            worker.step()
        save_checkpoint(trainer, path)  # overwrite in place
        # The surviving archive is the *new* state and fully loadable.
        entity_now = trainer.server.store.table("entity").copy()
        load_checkpoint(trainer, path)
        np.testing.assert_array_equal(
            entity_now, trainer.server.store.table("entity")
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.npz"]

    def test_failed_save_preserves_previous_checkpoint(
        self, small_split, tmp_path, monkeypatch
    ):
        trainer = HETKGTrainer(quick_config())
        trainer.train(small_split.train)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(trainer, path)
        before = path.read_bytes()

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", boom)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(trainer, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.npz"]


class TestAccumulatorValidation:
    def test_accumulator_shape_mismatch_rejected_before_mutation(
        self, small_split, tmp_path
    ):
        """A corrupt accumulator raises a clear error and mutates nothing."""
        trainer = HETKGTrainer(quick_config())
        trainer.train(small_split.train)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(trainer, path)

        # Corrupt the archive: truncate the entity accumulator rows.
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["adagrad_entity"] = arrays["adagrad_entity"][:-3]
        bad = tmp_path / "bad.npz"
        with open(bad, "wb") as f:
            np.savez(f, **arrays)

        entity_before = trainer.server.store.table("entity").copy()
        acc_before = trainer.server.optimizer.state["entity"].copy()
        with pytest.raises(ValueError, match="adagrad_entity.*shape"):
            load_checkpoint(trainer, bad)
        # Nothing was half-restored.
        np.testing.assert_array_equal(
            entity_before, trainer.server.store.table("entity")
        )
        np.testing.assert_array_equal(
            acc_before, trainer.server.optimizer.state["entity"]
        )

    def test_foreign_optimizer_warns_but_loads_tables(
        self, small_split, tmp_path
    ):
        """Accumulators for a non-AdaGrad trainer warn instead of vanishing."""
        trainer = HETKGTrainer(quick_config())
        trainer.train(small_split.train)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(trainer, path)
        entity_saved = trainer.server.store.table("entity").copy()

        other = HETKGTrainer(quick_config(optimizer="sgd"))
        other.setup(small_split.train)
        with pytest.warns(RuntimeWarning, match="accumulator"):
            load_checkpoint(other, path)
        np.testing.assert_array_equal(
            entity_saved, other.server.store.table("entity")
        )
