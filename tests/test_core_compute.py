"""Tests for repro.core.compute — the shared batch gradient kernel."""

import numpy as np
import pytest

from repro.core.compute import compute_batch_gradients
from repro.models import TransE
from repro.models.losses import MarginRankingLoss
from repro.sampling.negative import MiniBatch
from repro.utils.rng import make_rng


@pytest.fixture
def setup():
    model = TransE(4, norm="l2")
    loss = MarginRankingLoss(margin=1.0)
    rng = make_rng(0)
    positives = np.array([[0, 0, 1], [2, 1, 3]])
    neg_entities = np.array([[4, 5], [1, 4]])
    corrupt_head = np.array([True, False])
    batch = MiniBatch(positives, neg_entities, corrupt_head)
    ent_ids = batch.unique_entities()
    rel_ids = batch.unique_relations()
    ent_rows = rng.normal(size=(len(ent_ids), 4))
    rel_rows = rng.normal(size=(len(rel_ids), 4))
    return model, loss, batch, ent_ids, ent_rows, rel_ids, rel_rows


class TestComputeBatchGradients:
    def test_loss_matches_manual(self, setup):
        model, loss, batch, ent_ids, ent_rows, rel_ids, rel_rows = setup
        grads = compute_batch_gradients(
            model, loss, batch, ent_ids, ent_rows, rel_ids, rel_rows
        )
        # Manual forward.
        lut = {int(e): ent_rows[i] for i, e in enumerate(ent_ids)}
        rlut = {int(r): rel_rows[i] for i, r in enumerate(rel_ids)}
        pos_scores = []
        neg_scores = []
        for i, (h, r, t) in enumerate(batch.positives):
            pos_scores.append(
                model.score(lut[int(h)][None], rlut[int(r)][None], lut[int(t)][None])[0]
            )
            row = []
            for e in batch.neg_entities[i]:
                if batch.corrupt_head[i]:
                    hh, tt = lut[int(e)], lut[int(t)]
                else:
                    hh, tt = lut[int(h)], lut[int(e)]
                row.append(model.score(hh[None], rlut[int(r)][None], tt[None])[0])
            neg_scores.append(row)
        manual = loss.compute(np.asarray(pos_scores), np.asarray(neg_scores))
        assert grads.loss == pytest.approx(manual.value, rel=1e-10)

    def test_num_scores(self, setup):
        model, loss, batch, *rest = setup
        grads = compute_batch_gradients(model, loss, batch, *rest)
        assert grads.num_scores == 2 * (1 + 2)

    def test_gradients_match_numerical(self, setup):
        """End-to-end finite differences through loss + scatter."""
        model, loss, batch, ent_ids, ent_rows, rel_ids, rel_rows = setup
        grads = compute_batch_gradients(
            model, loss, batch, ent_ids, ent_rows, rel_ids, rel_rows
        )
        eps = 1e-6

        def total(er, rr):
            return compute_batch_gradients(
                model, loss, batch, ent_ids, er, rel_ids, rr
            ).loss

        for i in range(len(ent_ids)):
            for j in range(4):
                er = ent_rows.copy()
                er[i, j] += eps
                plus = total(er, rel_rows)
                er[i, j] -= 2 * eps
                minus = total(er, rel_rows)
                num = (plus - minus) / (2 * eps)
                assert grads.entity_grads[i, j] == pytest.approx(num, abs=1e-4)

        for i in range(len(rel_ids)):
            for j in range(4):
                rr = rel_rows.copy()
                rr[i, j] += eps
                plus = total(ent_rows, rr)
                rr[i, j] -= 2 * eps
                minus = total(ent_rows, rr)
                num = (plus - minus) / (2 * eps)
                assert grads.relation_grads[i, j] == pytest.approx(num, abs=1e-4)

    def test_untouched_rows_zero_grad(self, setup):
        model, loss, batch, ent_ids, ent_rows, rel_ids, rel_rows = setup
        # Append an extra id/row that no triple references.
        ent_ids2 = np.append(ent_ids, 99)
        ent_rows2 = np.vstack([ent_rows, np.ones(4)])
        grads = compute_batch_gradients(
            model, loss, batch, ent_ids2, ent_rows2, rel_ids, rel_rows
        )
        assert np.all(grads.entity_grads[-1] == 0.0)

    def test_shared_negative_grads_accumulate(self):
        """When the same entity corrupts several positives (chunked
        sampling), its gradient must be the sum of all contributions."""
        model = TransE(2, norm="l2")
        loss = MarginRankingLoss(margin=10.0)  # everything active
        positives = np.array([[0, 0, 1], [2, 0, 1]])
        neg = np.array([[3], [3]])  # entity 3 corrupts both rows
        batch = MiniBatch(positives, neg, np.array([False, False]))
        ent_ids = np.array([0, 1, 2, 3])
        rng = make_rng(1)
        ent_rows = rng.normal(size=(4, 2))
        rel_rows = rng.normal(size=(1, 2))
        grads = compute_batch_gradients(
            model, loss, batch, ent_ids, ent_rows, np.array([0]), rel_rows
        )
        # Entity 3's gradient is the sum over two negative triples; compare
        # against computing each separately.
        single = []
        for h in (0, 2):
            b1 = MiniBatch(
                np.array([[h, 0, 1]]), np.array([[3]]), np.array([False])
            )
            g1 = compute_batch_gradients(
                model, loss, b1, ent_ids, ent_rows, np.array([0]), rel_rows
            )
            single.append(g1.entity_grads[3])
        np.testing.assert_allclose(grads.entity_grads[3], single[0] + single[1])

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_never_writes_into_what_the_model_returns(self, setup, norm):
        """``KGEModel.grad``'s arrays may alias each other and the carried
        intermediates, so they are read-only for the caller: a model that
        enforces it (and freezes what ``score`` left in the carrier) must
        train exactly as one that does not."""

        def freeze(*arrays):
            for array in arrays:
                array.setflags(write=False)

        class Frozen(TransE):
            def score(self, h, r, t, shared=None):
                scores = super().score(h, r, t, shared)
                freeze(scores, *shared.values())
                return scores

            def grad(self, h, r, t, upstream, shared=None):
                grads = super().grad(h, r, t, upstream, shared)
                freeze(*grads)
                return grads

        _, loss, *rest = setup
        frozen = compute_batch_gradients(Frozen(4, norm=norm), loss, *rest)
        plain = compute_batch_gradients(TransE(4, norm=norm), loss, *rest)
        assert frozen.loss == plain.loss
        assert np.array_equal(frozen.entity_grads, plain.entity_grads)
        assert np.array_equal(frozen.relation_grads, plain.relation_grads)
