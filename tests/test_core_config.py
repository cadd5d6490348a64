"""Tests for repro.core.config."""

import pytest

from repro.core.config import TrainingConfig


class TestDefaults:
    def test_paper_defaults(self):
        cfg = TrainingConfig()
        assert cfg.optimizer == "adagrad"
        assert cfg.lr == 0.1
        assert cfg.num_machines == 4
        assert cfg.partitioner == "metis"
        assert cfg.wire_dim == 400


class TestCostDim:
    def test_wire_dim_used(self):
        cfg = TrainingConfig(dim=16, wire_dim=400)
        assert cfg.cost_dim == 400
        assert cfg.byte_scale == 25.0

    def test_none_falls_back_to_dim(self):
        cfg = TrainingConfig(dim=16, wire_dim=None)
        assert cfg.cost_dim == 16
        assert cfg.byte_scale == 1.0


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("dim", 0),
            ("lr", 0),
            ("batch_size", 0),
            ("num_negatives", -1),
            ("epochs", 0),
            ("num_machines", 0),
            ("cache_capacity", 0),
            ("sync_period", 0),
            ("dps_window", 0),
            ("margin", 0),
            ("wire_dim", 0),
            ("entity_ratio", 1.5),
        ],
    )
    def test_rejects_bad_numeric(self, field, value):
        with pytest.raises(ValueError):
            TrainingConfig(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("loss", "mse"),
            ("optimizer", "adam"),
            ("negative_strategy", "nscaching"),
            ("partitioner", "hash"),
            ("cache_strategy", "lru"),
        ],
    )
    def test_rejects_bad_choice(self, field, value):
        with pytest.raises(ValueError):
            TrainingConfig(**{field: value})

    def test_entity_ratio_none_allowed(self):
        assert TrainingConfig(entity_ratio=None).entity_ratio is None


class TestOverrides:
    def test_with_overrides_copies(self):
        base = TrainingConfig()
        other = base.with_overrides(epochs=99)
        assert other.epochs == 99
        assert base.epochs != 99

    def test_with_overrides_revalidates(self):
        with pytest.raises(ValueError):
            TrainingConfig().with_overrides(lr=-1)
