"""The negative forward pass against the gathered oracle.

``compute_batch_gradients`` scores a batch's ``b * n`` negatives through
``KGEModel.score_negatives``.  The base gathers three ``(b * n, d)``
operand arrays and calls ``score``; TransE splits the batch into runs of
rows that corrupt one side with the same ``n`` entities (a chunk, or what
is left of one after a rewrite), reads each run's negative rows once and
broadcasts.  ``tests/reference/negative_grid_reference.py`` keeps the step
as it was — the three gathers, read off the materialised negative triples
— and this suite requires the live step to give its loss, both gradient
tables and ``active_negatives`` byte for byte, over:

* chunk sizes that divide ``b`` and that do not (a short last chunk), one
  chunk for the whole batch, and the independent strategy (runs of one);
* rows rewritten by the false-negative filter and by the hard-negative
  cache's mix, which split chunks into shorter runs;
* TransE under both norms, on the broadcast path and — for batches of
  short runs — on the base path, and every other registered model through
  the base hook;
* rows salted with signed zeros, ``inf`` and ``NaN``; margins that send a
  minority of the negatives back (the ``keep`` path) and all of them (the
  full path), under each loss.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.compute import compute_batch_gradients
from repro.kg.graph import KnowledgeGraph
from repro.models import MODEL_REGISTRY, get_model
from repro.models import transe as transe_module
from repro.models.base import KGEModel
from repro.sampling.cache import CachedNegativeSampler
from repro.sampling.negative import MiniBatch, NegativeSampler
from tests.reference import negative_grid_reference as reference
from tests.test_compute_reference import LOSSES, MARGINS, _loss, assert_same_bits

#: Every registered model but TransE, which has its own grid below.
OTHER_MODELS = sorted(name for name in MODEL_REGISTRY if name != "transe")
NORMS = ("l1", "l2")


def _runs(batch: MiniBatch) -> int:
    """Stretches of consecutive rows corrupting one side with the same
    entities, counted from the batch itself."""
    neg, head = batch.neg_entities, batch.corrupt_head
    if batch.size == 0:
        return 0
    new = (neg[1:] != neg[:-1]).any(axis=1) | (head[1:] != head[:-1])
    return 1 + int(np.count_nonzero(new))


def _rows(rng, count, width, specials):
    """Normal rows salted with signed zeros — with ``specials``, with
    ``inf``, ``-inf`` and ``NaN`` cells too."""
    out = rng.normal(size=(count, width))
    salt = rng.random(out.shape)
    out[salt < 0.05] = 0.0
    out[salt > 0.95] = -0.0
    if specials:
        cells = (salt > 0.49) & (salt < 0.51)
        out[cells] = rng.choice([np.inf, -np.inf, np.nan], size=int(cells.sum()))
    return out


def _inputs(model, batch, rng, specials, superset):
    """The batch with rows for its ids — its own unique ids, or (with
    ``superset``) those plus ids it does not touch."""
    entity_ids, relation_ids = batch.unique_entities(), batch.unique_relations()
    if superset:
        entity_ids = np.union1d(entity_ids, entity_ids + 1)
        relation_ids = np.union1d(relation_ids, relation_ids + 1)
    return (
        batch,
        entity_ids,
        _rows(rng, len(entity_ids), model.entity_dim, specials),
        relation_ids,
        _rows(rng, len(relation_ids), model.relation_dim, specials),
    )


def _chunked(rng, b, n_neg, chunk, num_entities=30, rewrite=0, mix=0.0):
    """A batch laid out as the chunked sampler lays it out, by hand, then
    ``rewrite`` whole rows given fresh negatives (the false-negative
    filter's effect) and each remaining cell redrawn with probability
    ``mix`` (the hard-negative cache's)."""
    positives = np.column_stack(
        [rng.integers(0, num_entities, b), rng.integers(0, 4, b), rng.integers(0, num_entities, b)]
    )
    neg = np.empty((b, n_neg), dtype=np.int64)
    head = np.empty(b, dtype=bool)
    for start in range(0, b, chunk):
        neg[start : start + chunk] = rng.integers(0, num_entities, n_neg)
        head[start : start + chunk] = rng.random() < 0.5
    for i in rng.choice(b, size=min(rewrite, b), replace=False):
        neg[i] = rng.integers(0, num_entities, n_neg)
    cells = rng.random(neg.shape) < mix
    neg[cells] = rng.integers(0, num_entities, int(cells.sum()))
    return MiniBatch(positives, neg, head)


def _sampled(rng, kind, b, n_neg, chunk):
    """A batch from a real sampler over a graph small enough that the
    false-negative filter and the hard-negative cache rewrite rows."""
    num_entities, num_relations = int(rng.integers(4, 24)), int(rng.integers(1, 4))
    triples = np.column_stack(
        [
            rng.integers(0, num_entities, 60),
            rng.integers(0, num_relations, 60),
            rng.integers(0, num_entities, 60),
        ]
    )
    graph = KnowledgeGraph(triples, num_entities, num_relations)
    positives = graph.triples[rng.integers(0, len(graph.triples), b)]
    seed = int(rng.integers(0, 2**31))
    if kind.startswith("nscaching"):
        sampler = CachedNegativeSampler(
            num_entities, num_negatives=n_neg, chunk_size=chunk, seed=seed,
            mode="auto", anneal_steps=2, cache_size=3,
        )
        for anchor in range(num_entities):
            for relation in range(num_relations):
                for head in (False, True):
                    sampler.seed_cache(
                        (anchor, relation, head), rng.integers(0, num_entities, 3)
                    )
        for _ in range(1 if kind == "nscaching-0.5" else 2):
            sampler.corrupt(positives)  # anneal the mix to 1/2, then to 1
        return sampler.corrupt(positives)
    sampler = NegativeSampler(
        num_entities,
        num_negatives=n_neg,
        strategy="independent" if kind == "independent" else "chunked",
        chunk_size=chunk,
        filter_graph=graph if kind == "filtered" else None,
        seed=seed,
    )
    return sampler.corrupt(positives)


def _compare(model, loss, case):
    """Run the live step and the oracle on ``case``; returns whether the
    live step went through the base hook."""
    calls = []
    base = KGEModel.score_negatives

    def counting(self, *args, **kwargs):
        calls.append(type(self))
        return base(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
        patch.setattr(KGEModel, "score_negatives", counting)
        actual = compute_batch_gradients(model, loss, *case)
    with np.errstate(all="ignore"):
        expected = reference.compute_batch_gradients(model, loss, *case)
    assert np.float64(actual.loss).tobytes() == np.float64(expected.loss).tobytes()
    assert_same_bits(actual.entity_grads, expected.entity_grads)
    assert_same_bits(actual.relation_grads, expected.relation_grads)
    assert actual.active_negatives == expected.active_negatives
    assert type(actual.active_negatives) is int  # it goes into JSON traces
    assert actual.num_scores == expected.num_scores
    assert len(calls) == 1 or not calls
    return bool(calls)


def _expect_path(model, batch, went_base):
    """TransE broadcasts exactly when the runs are long enough on average;
    every other model always takes the base."""
    if isinstance(model, transe_module.TransE):
        short = transe_module._MIN_RUN * _runs(batch) > batch.size
        assert went_base == short, (_runs(batch), batch.size)
    else:
        assert went_base


class TestTransEGrid:
    @pytest.mark.parametrize("norm", NORMS)
    @given(
        b=st.integers(1, 40),
        n_neg=st.sampled_from([1, 3, 8]),
        chunk=st.integers(1, 17),
        rewrite=st.sampled_from([0, 0, 1, 3]),
        mix=st.sampled_from([0.0, 0.0, 0.2]),
        dim=st.sampled_from([1, 8, 33]),
        loss_name=st.sampled_from(LOSSES),
        margin=st.sampled_from(MARGINS),
        specials=st.booleans(),
        superset=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=120, deadline=None)
    # 37 rows in chunks of 16: two full chunks and a short last one.
    @example(
        b=37, n_neg=8, chunk=16, rewrite=0, mix=0.0, dim=8, loss_name="ranking",
        margin=1.0, specials=False, superset=False, seed=0,
    )
    def test_hand_laid_chunks(
        self, norm, b, n_neg, chunk, rewrite, mix, dim, loss_name, margin, specials,
        superset, seed,
    ):
        rng = np.random.default_rng(seed)
        model = get_model("transe", dim, norm=norm)
        batch = _chunked(rng, b, n_neg, chunk, rewrite=rewrite, mix=mix)
        case = _inputs(model, batch, rng, specials, superset)
        _expect_path(model, batch, _compare(model, _loss(loss_name, margin), case))

    @pytest.mark.parametrize("norm", NORMS)
    @pytest.mark.parametrize(
        "kind", ["chunked", "independent", "filtered", "nscaching-0.5", "nscaching-1"]
    )
    @given(
        b=st.sampled_from([1, 7, 32, 45]),
        n_neg=st.sampled_from([1, 5]),
        chunk=st.sampled_from([3, 4, 16]),
        loss_name=st.sampled_from(LOSSES),
        margin=st.sampled_from(MARGINS),
        specials=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_sampled_batches(
        self, norm, kind, b, n_neg, chunk, loss_name, margin, specials, seed
    ):
        rng = np.random.default_rng(seed)
        model = get_model("transe", 8, norm=norm)
        batch = _sampled(rng, kind, b, n_neg, chunk)
        case = _inputs(model, batch, rng, specials, superset=False)
        _expect_path(model, batch, _compare(model, _loss(loss_name, margin), case))

    @pytest.mark.parametrize("norm", NORMS)
    def test_both_paths_and_both_backward_passes_are_reached(self, norm):
        """What the grids above rely on: a chunked batch broadcasts and one
        of single-row runs does not, and the margins send back a minority
        of the negatives (the ``keep`` path) and all of them."""
        model = get_model("transe", 8, norm=norm)
        for chunk, base in ((16, False), (1, True)):
            rng = np.random.default_rng(chunk)
            case = _inputs(model, _chunked(rng, 64, 8, chunk), rng, False, False)
            active = []
            for margin in MARGINS:
                assert _compare(model, _loss("ranking", margin), case) is base
                active.append(
                    compute_batch_gradients(model, _loss("ranking", margin), *case)
                    .active_negatives
                )
            assert active[0] == 0 and active[-1] == 64 * 8
            assert any(0 < a <= 32 * 8 for a in active), active

    def test_a_rewritten_row_splits_its_chunk(self):
        """Two chunks of 8 with row 3 given other negatives: runs of 3, 1,
        4 and 8 rows, still broadcast (16 rows, 4 runs)."""
        rng = np.random.default_rng(5)
        batch = _chunked(rng, 16, 4, 8)
        batch.neg_entities[3] = batch.neg_entities[3][::-1] + 1
        assert _runs(batch) == 4
        model = get_model("transe", 8)
        case = _inputs(model, batch, rng, specials=True, superset=True)
        assert _compare(model, _loss("ranking", 1.0), case) is False

    def test_the_same_negatives_on_the_other_side_start_a_run(self):
        """Two chunks drawing the same entities, one corrupting heads and
        one tails: two runs, not one."""
        rng = np.random.default_rng(8)
        batch = _chunked(rng, 16, 4, 8)
        batch.neg_entities[8:] = batch.neg_entities[0]
        batch.corrupt_head[:8], batch.corrupt_head[8:] = True, False
        assert _runs(batch) == 2
        model = get_model("transe", 8)
        case = _inputs(model, batch, rng, specials=False, superset=False)
        assert _compare(model, _loss("ranking", 1.0), case) is False

    @pytest.mark.parametrize("norm", NORMS)
    def test_float32_rows_stay_float32(self, norm):
        """The broadcast ``diff`` takes the rows' dtype, as ``h + r - t``
        does, so float32 tables score in float32 on both paths."""
        rng = np.random.default_rng(1)
        model = get_model("transe", 8, norm=norm)
        batch, ent_ids, ent_rows, rel_ids, rel_rows = _inputs(
            model, _chunked(rng, 32, 4, 16), rng, specials=False, superset=False
        )
        case = (batch, ent_ids, ent_rows.astype(np.float32), rel_ids,
                rel_rows.astype(np.float32))
        assert _compare(model, _loss("ranking", 1.0), case) is False

    def test_empty_batch(self):
        model = get_model("transe", 4)
        batch = MiniBatch(
            np.zeros((0, 3), dtype=np.int64), np.zeros((0, 3), dtype=np.int64),
            np.zeros(0, dtype=bool),
        )
        case = (batch, np.zeros(0, np.int64), np.zeros((0, 4)), np.zeros(0, np.int64),
                np.zeros((0, 4)))
        assert _compare(model, _loss("ranking", 1.0), case) is True


class TestNonFiniteUnderZeroUpstream:
    @pytest.mark.parametrize("norm", NORMS)
    def test_counts_a_nan_score_the_hinge_switched_off(self, norm):
        """The count taken before any mask still counts a negative whose
        score is not finite although its upstream is 0.0: under a huge
        margin every finite negative is active (more than half of them),
        and the ones reading a NaN row score NaN, which the hinge gives an
        upstream of 0.0."""
        rng = np.random.default_rng(3)
        model = get_model("transe", 4, norm=norm)
        batch = _chunked(rng, 8, 4, 4)
        case = list(_inputs(model, batch, rng, specials=False, superset=False))
        positives = np.union1d(batch.positives[:, 0], batch.positives[:, 2])
        only_negative = np.setdiff1d(batch.neg_entities[4:], positives)
        only_negative = np.setdiff1d(only_negative, batch.neg_entities[:4])
        assert len(only_negative), "pick a seed whose second chunk has its own entity"
        nan_scores = int(np.count_nonzero(batch.neg_entities == only_negative[0]))
        case[2] = case[2].copy()
        case[2][np.searchsorted(case[1], only_negative[0])] = np.nan
        loss = _loss("ranking", 1e9)
        assert _compare(model, loss, tuple(case)) is False
        with np.errstate(all="ignore"):
            result = compute_batch_gradients(model, loss, *case)
        assert 0 < nan_scores and 2 * (32 - nan_scores) > 32
        assert result.active_negatives == 32


class TestOtherModelsThroughTheBase:
    @pytest.mark.parametrize("model_name", OTHER_MODELS)
    @given(
        kind=st.sampled_from(["hand", "independent", "filtered", "nscaching-1"]),
        b=st.sampled_from([1, 9, 32]),
        n_neg=st.sampled_from([1, 4]),
        chunk=st.sampled_from([3, 16]),
        loss_name=st.sampled_from(LOSSES),
        margin=st.sampled_from(MARGINS),
        specials=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=15, deadline=None)
    def test_loss_and_gradients_byte_for_byte(
        self, model_name, kind, b, n_neg, chunk, loss_name, margin, specials, seed
    ):
        rng = np.random.default_rng(seed)
        model = get_model(model_name, 8)
        assert type(model).score_negatives is KGEModel.score_negatives
        if kind == "hand":
            batch = _chunked(rng, b, n_neg, chunk, rewrite=1)
        else:
            batch = _sampled(rng, kind, b, n_neg, chunk)
        case = _inputs(model, batch, rng, specials, superset=seed % 2 == 0)
        _expect_path(model, batch, _compare(model, _loss(loss_name, margin), case))
