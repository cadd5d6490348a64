"""Tests for repro.optim (sparse SGD / AdaGrad, duplicate coalescing)."""

import numpy as np
import pytest

from repro.optim import get_optimizer
from repro.optim.adagrad import SparseAdagrad
from repro.optim.base import coalesce
from repro.optim.sgd import SparseSGD


class TestCoalesce:
    def test_no_duplicates(self):
        ids, grads = coalesce(np.array([2, 0]), np.array([[1.0], [2.0]]))
        assert list(ids) == [0, 2]
        assert grads.tolist() == [[2.0], [1.0]]

    def test_duplicates_summed(self):
        ids, grads = coalesce(
            np.array([1, 1, 3]), np.array([[1.0], [2.0], [5.0]])
        )
        assert list(ids) == [1, 3]
        assert grads.tolist() == [[3.0], [5.0]]

    def test_empty(self):
        ids, grads = coalesce(np.array([], dtype=np.int64), np.zeros((0, 2)))
        assert len(ids) == 0


class TestSparseSGD:
    def test_basic_step(self):
        table = np.ones((4, 2))
        SparseSGD(lr=0.5).update("t", table, np.array([1]), np.array([[2.0, 4.0]]))
        assert table[1].tolist() == [0.0, -1.0]
        assert table[0].tolist() == [1.0, 1.0]  # untouched

    def test_duplicate_ids_accumulate(self):
        """The classic fancy-indexing bug: duplicates must both count."""
        table = np.zeros((2, 1))
        SparseSGD(lr=1.0).update(
            "t", table, np.array([0, 0]), np.array([[1.0], [1.0]])
        )
        assert table[0, 0] == -2.0

    def test_stateless(self):
        assert SparseSGD(lr=0.1).state_size() == 0

    def test_empty_update_noop(self):
        table = np.ones((2, 2))
        SparseSGD(lr=1.0).update("t", table, np.array([], dtype=np.int64), np.zeros((0, 2)))
        assert np.all(table == 1.0)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SparseSGD(lr=0.0)


class TestSparseAdagrad:
    def test_first_step_is_lr_sized(self):
        """With acc = g^2, the first step is lr * sign(g)."""
        table = np.zeros((1, 2))
        SparseAdagrad(lr=0.1).update(
            "t", table, np.array([0]), np.array([[4.0, -9.0]])
        )
        np.testing.assert_allclose(table[0], [-0.1, 0.1], rtol=1e-4)

    def test_steps_shrink_over_time(self):
        table = np.zeros((1, 1))
        opt = SparseAdagrad(lr=0.1)
        deltas = []
        for _ in range(4):
            before = table[0, 0]
            opt.update("t", table, np.array([0]), np.array([[1.0]]))
            deltas.append(abs(table[0, 0] - before))
        assert deltas == sorted(deltas, reverse=True)

    def test_state_per_table_name(self):
        opt = SparseAdagrad(lr=0.1)
        a, b = np.zeros((2, 2)), np.zeros((3, 2))
        opt.update("a", a, np.array([0]), np.array([[1.0, 1.0]]))
        opt.update("b", b, np.array([0]), np.array([[1.0, 1.0]]))
        assert opt.state_size() == a.size + b.size

    def test_hot_rows_take_smaller_steps(self):
        """The AdaGrad property the paper relies on: frequently-updated hot
        embeddings self-attenuate."""
        table = np.zeros((2, 1))
        opt = SparseAdagrad(lr=0.1)
        for _ in range(10):
            opt.update("t", table, np.array([0]), np.array([[1.0]]))
        opt.update("t", table, np.array([1]), np.array([[1.0]]))
        hot_step_before = table[0, 0]
        opt.update("t", table, np.array([0, 1]), np.array([[1.0], [1.0]]))
        hot_delta = abs(table[0, 0] - hot_step_before)
        cold_delta = abs(table[1, 0] - -0.1)
        assert hot_delta < cold_delta

    def test_duplicates_coalesced_before_accumulator(self):
        """Two unit gradients on one row must accumulate (1+1)^2 = 4, not
        1^2 twice."""
        table = np.zeros((1, 1))
        opt = SparseAdagrad(lr=1.0)
        opt.update("t", table, np.array([0, 0]), np.array([[1.0], [1.0]]))
        # step = lr * 2 / sqrt(4) = 1.0
        assert table[0, 0] == pytest.approx(-1.0, rel=1e-4)

    def test_reset(self):
        opt = SparseAdagrad(lr=0.1)
        table = np.zeros((1, 1))
        opt.update("t", table, np.array([0]), np.array([[1.0]]))
        opt.reset()
        assert opt.state_size() == 0

    def test_accumulator_reallocated_on_shape_change(self):
        opt = SparseAdagrad(lr=0.1)
        opt.update("t", np.zeros((2, 2)), np.array([0]), np.array([[1.0, 1.0]]))
        # Same name, different table shape: fresh state, no crash.
        opt.update("t", np.zeros((3, 2)), np.array([2]), np.array([[1.0, 1.0]]))
        assert opt.state_size() == 6

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            SparseAdagrad(lr=0.1, eps=0.0)

    def test_step_survives_stale_write_to_shared_accumulator(self):
        """Async mp workers share the accumulator: a peer whose gradient for
        the row is 0 can write its stale 0 back right after our store.  The
        step must come from the sum we computed, not from a re-read (which
        would be ``lr * g / sqrt(eps)`` = 10^4 * g)."""

        class _PeerOverwrites(np.ndarray):
            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                super().__setitem__(key, 0.0)  # the peer's stale store

        table = np.zeros((1, 2))
        opt = SparseAdagrad(lr=0.1)
        opt.state["t"] = np.zeros((1, 2)).view(_PeerOverwrites)
        opt.update("t", table, np.array([0]), np.array([[4.0, -9.0]]))
        np.testing.assert_allclose(table[0], [-0.1, 0.1], rtol=1e-4)


class TestGetOptimizer:
    def test_names(self):
        assert isinstance(get_optimizer("adagrad", 0.1), SparseAdagrad)
        assert isinstance(get_optimizer("sgd", 0.1), SparseSGD)

    def test_unknown(self):
        with pytest.raises(KeyError):
            get_optimizer("adam", 0.1)
