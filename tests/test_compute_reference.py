"""The live step math against ``tests/reference/compute_reference.py``.

Every golden and every ``bench/expected.json`` fingerprint trains TransE-L1
under the margin loss, where each gradient entry is an integer in
``[-n_neg, n_neg]``: any summation order gives the same bits, so none of
them can see a reordered scatter.  This suite can — it compares loss,
entity and relation gradients *byte for byte* on real-valued gradients, for
every registered model, and the scatter kernel alone over the full float
range.  It is also what pins scipy's ``csc_matvecs`` column order: a scipy
that walks the one-hot columns in another order fails here, loudly.

The reference is the *unpruned* function: it sends every negative through
``grad`` and the scatter.  The live one sends only the rows the loss left
active (or whose score is not finite) whenever those are at most half, so
the margins here are drawn to make batches all-inactive, mixed on either
side of one half and all-active, and rows are salted with ``inf``/``NaN``
as well as signed zeros.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compute import compute_batch_gradients
from repro.kg.graph import KnowledgeGraph
from repro.models import MODEL_REGISTRY, get_model
from repro.models.losses import get_loss
from repro.sampling.negative import NegativeSampler
from repro.utils.kernels import scatter_add_rows
from tests.reference import compute_reference as reference

LOSSES = ("ranking", "logistic", "self-adversarial")
#: Every registered model, TransE under both of its norms.
MODELS = [pytest.param(name, {}, id=name) for name in sorted(MODEL_REGISTRY)]
MODELS.append(pytest.param("transe", {"norm": "l2"}, id="transe-l2"))
#: The models whose ``score`` hands intermediates to ``grad``.
CARRYING = [m for m in MODELS if m.values[0] == "transe"]


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    """Equal shape, dtype and bytes — signed zeros and infinities included;
    NaNs must sit in the same cells (their payload bits are the FPU's)."""
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(actual), nan)
    assert np.array_equal(
        np.where(nan, 0.0, actual).view(np.uint64),
        np.where(nan, 0.0, expected).view(np.uint64),
    )


# ------------------------------------------------------------------- scatter


def _full_range_rows(rng, n, d):
    """Magnitudes 1e-300 ... 1e300 with 15% of the cells special."""
    rows = rng.choice([-1.0, 1.0], size=(n, d)) * 10.0 ** rng.uniform(-300, 300, (n, d))
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    special = rng.random((n, d)) < 0.15
    rows[special] = rng.choice(specials, size=int(special.sum()))
    return rows


class TestScatterAgainstBincount:
    @given(
        seed=st.integers(0, 10_000),
        n_out=st.integers(1, 40),
        n=st.integers(0, 200),
        d=st.integers(1, 9),
    )
    @settings(max_examples=150, deadline=None)
    def test_full_float_range_with_specials(self, seed, n_out, n, d):
        """Magnitudes 1e-300 ... 1e300, so the order of additions decides
        what is absorbed, what overflows and where inf - inf turns nan."""
        rng = np.random.default_rng(seed)
        rows = _full_range_rows(rng, n, d)
        idx = rng.integers(0, n_out, size=n)
        with np.errstate(all="ignore"):
            expected = reference.scatter_add_rows(idx, rows, n_out)
            actual = scatter_add_rows([(idx, rows)], n_out)
        assert_same_bits(actual, expected)

    @given(
        seed=st.integers(0, 10_000),
        n_out=st.integers(1, 40),
        n=st.integers(0, 200),
        extra=st.integers(1, 200),
        d=st.integers(1, 9),
    )
    @settings(max_examples=150, deadline=None)
    def test_signed_zero_rows_change_no_bit(self, seed, n_out, n, extra, d):
        """The algebra the active-only backward pass rests on: rows of
        ``+-0.0`` interleaved anywhere — before the first real row of a
        cell, between inf and -inf, after a NaN — leave every byte of the
        result as it is without them."""
        rng = np.random.default_rng(seed)
        rows = _full_range_rows(rng, n, d)
        idx = rng.integers(0, n_out, size=n)
        where = np.sort(rng.integers(0, n + 1, size=extra))
        zeros = rng.choice([0.0, -0.0], size=(extra, d))
        with np.errstate(all="ignore"):
            without = scatter_add_rows([(idx, rows)], n_out)
            with_zeros = scatter_add_rows(
                [
                    (
                        np.insert(idx, where, rng.integers(0, n_out, size=extra)),
                        np.insert(rows, where, zeros, axis=0),
                    )
                ],
                n_out,
            )
        assert_same_bits(with_zeros, without)

    @given(
        seed=st.integers(0, 10_000),
        n_out=st.integers(1, 40),
        n=st.integers(0, 200),
        d=st.sampled_from([0, 1, 3, 9]),
        cuts=st.lists(st.integers(0, 200), max_size=6),
        dtype=st.sampled_from([np.int32, np.intp, np.uint8]),
    )
    @settings(max_examples=150, deadline=None)
    def test_blocks_split_anywhere_match_the_unsplit_call_and_bincount(
        self, seed, n_out, n, d, cuts, dtype
    ):
        """Blocks add in order and rows in order within a block, so any
        split of the concatenation — empty blocks included — gives every
        output cell the concatenation's addition chain."""
        rng = np.random.default_rng(seed)
        rows = _full_range_rows(rng, n, d)
        idx = rng.integers(0, n_out, size=n).astype(dtype)
        bounds = [0, *sorted(min(c, n) for c in cuts), n]
        blocks = [(idx[a:b], rows[a:b]) for a, b in zip(bounds, bounds[1:])]
        with np.errstate(all="ignore"):
            whole = scatter_add_rows([(idx, rows)], n_out)
            split = scatter_add_rows(blocks, n_out)
            oracle = reference.scatter_add_rows(idx.astype(np.int64), rows, n_out)
        assert split.shape == (n_out, d)
        assert_same_bits(split, whole)
        assert_same_bits(split, oracle)

    def test_negative_zero_rows_sum_to_positive_zero(self):
        """The chain starts at +0.0, as ``np.add.at`` into zeros does."""
        out = scatter_add_rows([(np.array([1, 1]), np.full((2, 3), -0.0))], 2)
        assert not np.signbit(out).any()


# ------------------------------------------------------------------- compute


#: Margins for which the hinge leaves no negative active, a minority, a
#: majority, and all of them.  The negative ones are no training setting
#: (the constructors refuse them, hence :func:`_loss`); they are the one way
#: to switch hinges off on random rows — and under the self-adversarial
#: loss -1e9 drives ``sigmoid(margin + f)`` to an exact 0.0, so that loss
#: is pruned here too.
MARGINS = (-1e9, -4.0, -1.0, 1e-3, 1.0, 1e9)


def _loss(name, margin):
    loss = get_loss(name, margin=1.0)
    if hasattr(loss, "margin"):
        loss.margin = margin
    return loss


def _case(model, strategy, filtered, b, n_neg, seed, specials=False):
    """A batch from the real sampler over a graph small enough that entity
    ids repeat inside it, and rows salted with signed zeros — with
    ``specials``, with ``inf``, ``-inf`` and ``NaN`` cells as well."""
    rng = np.random.default_rng(seed)
    num_entities, num_relations = int(rng.integers(4, 24)), int(rng.integers(1, 5))
    triples = np.column_stack(
        [
            rng.integers(0, num_entities, 40),
            rng.integers(0, num_relations, 40),
            rng.integers(0, num_entities, 40),
        ]
    )
    graph = KnowledgeGraph(triples, num_entities, num_relations)
    sampler = NegativeSampler(
        num_entities,
        num_negatives=n_neg,
        strategy=strategy,
        chunk_size=4,
        filter_graph=graph if filtered else None,
        seed=seed,
    )
    batch = sampler.corrupt(graph.triples[rng.integers(0, len(graph.triples), b)])
    entity_ids, relation_ids = batch.unique_entities(), batch.unique_relations()

    def rows(count, width):
        out = rng.normal(size=(count, width))
        salt = rng.random(out.shape)
        out[salt < 0.05] = 0.0
        out[salt > 0.95] = -0.0
        if specials:
            cells = (salt > 0.49) & (salt < 0.51)
            out[cells] = rng.choice([np.inf, -np.inf, np.nan], size=int(cells.sum()))
        return out

    return (
        batch,
        entity_ids,
        rows(len(entity_ids), model.entity_dim),
        relation_ids,
        rows(len(relation_ids), model.relation_dim),
    )


class TestComputeAgainstReference:
    @pytest.mark.parametrize("loss_name", LOSSES)
    @pytest.mark.parametrize("model_name, kwargs", MODELS)
    @given(
        strategy=st.sampled_from(["chunked", "independent"]),
        filtered=st.booleans(),
        dim=st.sampled_from([1, 8, 33]),
        b=st.sampled_from([1, 7, 64]),
        n_neg=st.sampled_from([1, 5]),
        seed=st.integers(0, 10_000),
        margin=st.sampled_from(MARGINS),
        specials=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_loss_and_gradients_byte_for_byte(
        self, model_name, kwargs, loss_name, strategy, filtered, dim, b, n_neg, seed,
        margin, specials,
    ):
        model = get_model(model_name, dim, **kwargs)
        loss = _loss(loss_name, margin)
        case = _case(model, strategy, filtered, b, n_neg, seed, specials)
        with np.errstate(all="ignore"):
            actual = compute_batch_gradients(model, loss, *case)
            expected = reference.compute_batch_gradients(
                reference.reference_model(model), loss, *case
            )
        assert np.float64(actual.loss).tobytes() == np.float64(expected.loss).tobytes()
        assert_same_bits(actual.entity_grads, expected.entity_grads)
        assert_same_bits(actual.relation_grads, expected.relation_grads)
        assert np.array_equal(actual.entity_ids, expected.entity_ids)
        assert np.array_equal(actual.relation_ids, expected.relation_ids)
        assert actual.num_scores == expected.num_scores

    @pytest.mark.parametrize("model_name, kwargs", MODELS)
    def test_margins_reach_all_inactive_mixed_and_all_active(self, model_name, kwargs):
        """What the suite above relies on: ``active_negatives`` counts the
        rows the loss left active, and :data:`MARGINS` spans none ... all,
        with a mixed batch on each side of the one-half rule."""
        model = get_model(model_name, 8, **kwargs)
        case = _case(model, "chunked", False, 64, 5, seed=1)
        active = [
            compute_batch_gradients(model, _loss("ranking", m), *case).active_negatives
            for m in MARGINS
        ]
        assert active[0] == 0 and active[-1] == 64 * 5
        assert active == sorted(active)
        assert any(0 < a <= 32 * 5 for a in active), active
        assert any(32 * 5 < a < 64 * 5 for a in active), active
        # No exact zeros upstream: everything goes back.
        for name in ("logistic", "self-adversarial"):
            got = compute_batch_gradients(model, _loss(name, 1.0), *case)
            assert got.active_negatives == 64 * 5
        # A non-finite score keeps its row whatever the hinge says.
        salted = list(case)
        salted[2] = np.full_like(case[2], np.nan)
        got = compute_batch_gradients(model, _loss("ranking", -1e9), *salted)
        assert got.active_negatives == 64 * 5

    @pytest.mark.parametrize("model_name, kwargs", MODELS)
    def test_shared_values_are_row_aligned(self, model_name, kwargs):
        """The ``shared`` contract the pruning gathers by: every value is an
        array whose first axis is the batch row, so ``{k: v[keep]}`` is the
        dict ``score`` would have filled on rows ``keep`` alone."""
        rng = np.random.default_rng(5)
        model = get_model(model_name, 8, **kwargs)
        h, t = rng.normal(size=(2, 50, model.entity_dim))
        r = rng.normal(size=(50, model.relation_dim))
        upstream = rng.normal(size=50)
        shared: dict = {}
        model.score(h, r, t, shared)
        for value in shared.values():
            assert isinstance(value, np.ndarray) and value.shape[0] == 50
        for keep in (np.array([], dtype=np.int64), np.array([3]), np.arange(0, 50, 3)):
            gathered = {name: value[keep] for name, value in shared.items()}
            got = model.grad(h[keep], r[keep], t[keep], upstream[keep], gathered)
            for a, e in zip(got, model.grad(h[keep], r[keep], t[keep], upstream[keep])):
                assert_same_bits(a, e)

    @pytest.mark.parametrize("model_name, kwargs", CARRYING)
    def test_carrier_is_optional_and_changes_no_bits(self, model_name, kwargs):
        """``grad`` with the dict ``score`` filled == ``grad`` without it ==
        the pre-carrier model, and ``score`` is the same with or without."""
        rng = np.random.default_rng(3)
        model = get_model(model_name, 8, **kwargs)
        old = reference.reference_model(model)
        attributes = dict(vars(model))
        h, t = rng.normal(size=(2, 50, model.entity_dim))
        r = rng.normal(size=(50, model.relation_dim))
        upstream = rng.normal(size=50)
        shared: dict = {}
        assert_same_bits(model.score(h, r, t, shared), old.score(h, r, t))
        assert_same_bits(model.score(h, r, t), old.score(h, r, t))
        assert shared, "score left nothing for grad to reuse"
        for got in (model.grad(h, r, t, upstream, shared), model.grad(h, r, t, upstream)):
            for a, e in zip(got, old.grad(h, r, t, upstream)):
                assert_same_bits(a, e)
        assert vars(model) == attributes, "the model object kept per-call state"
