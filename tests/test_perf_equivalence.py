"""Equivalence guard for the vectorized hot-path kernels.

Two layers of protection:

1. **Golden runs** — seeded HET-KG-C / HET-KG-D / DGL-KE training runs
   whose every output (losses, simulated clocks, byte/message counters,
   cache hit counters, eval metrics) was fingerprinted with the
   *pre-vectorization* kernels and committed to
   ``tests/golden/train_golden.json`` (floats as ``float.hex()``).  The
   vectorized kernels must reproduce every value bit for bit.

2. **Property tests** — each kernel against the readable reference
   implementation it replaced (dict slot maps, Python sorts,
   ``np.add.at`` scatters, per-query eval loops, O(capacity) LFU scans),
   on randomized inputs, asserting *exact* equality, not closeness.

If one of these fails after an intentional numerics change (e.g. a new
optimizer default), regenerate the golden file with
``PYTHONPATH=src python tests/golden/capture.py`` — never to paper over
an unintended kernel divergence.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.filtering import filter_hot_ids
from repro.cache.hotness import HotnessTable
from repro.cache.core import make_cache
from repro.cache.table import CacheTable
from repro.core.evaluation import _ranks_batched, evaluate_link_prediction
from repro.kg.graph import HEAD, REL, TAIL, KnowledgeGraph, TripleIndex
from repro.models import get_model
from repro.optim.base import coalesce
from repro.sampling.negative import NegativeSampler
from repro.utils.kernels import scatter_add_rows
from tests.hotness_tables import as_dict, as_table
from tests.reference.cache_policies_reference import RefLFU
from tests.reference.evaluation_reference import (
    evaluate_link_prediction_reference,
    full_ranks_reference,
    triple_set,
)
from tests.reference.prefetch_reference import _count_batch
from tests.test_cache_table import holding

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _load_capture_module():
    spec = importlib.util.spec_from_file_location(
        "golden_capture", GOLDEN_DIR / "capture.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------- golden runs


class TestGoldenRuns:
    """Bit-identical training outputs vs the committed pre-refactor runs."""

    golden = json.loads((GOLDEN_DIR / "train_golden.json").read_text())
    capture = _load_capture_module()

    @pytest.mark.parametrize(
        "entry", [k for k in golden if k != "config"]
    )
    def test_fingerprint_bit_identical(self, entry):
        if entry == "hetkg-d+filtered-negatives":
            fresh = self.capture.fingerprint("hetkg-d", filtered_negatives=True)
        elif entry == "dglke+full-ranking-eval":
            fresh = self.capture.fingerprint("dglke", eval_candidates=None)
        else:
            fresh = self.capture.fingerprint(entry)
        assert fresh == self.golden[entry], (
            f"{entry}: vectorized kernels diverged from the golden run "
            "(every float is compared via float.hex() — this is a real "
            "numerics change, not jitter)"
        )


# ----------------------------------------------------- cache table vs dict map


class RefDictTable:
    """The pre-vectorization dict slot map (membership oracle)."""

    def __init__(self, ids: np.ndarray, rows: np.ndarray) -> None:
        self._slot_of = {int(e): i for i, e in enumerate(ids)}
        self._rows = rows

    def partition(self, ids: np.ndarray):
        mask = np.fromiter(
            (int(e) in self._slot_of for e in ids), dtype=bool, count=len(ids)
        )
        return mask, ids[mask], ids[~mask]

    def get(self, ids: np.ndarray) -> np.ndarray:
        slots = [self._slot_of[int(e)] for e in ids]
        return self._rows[slots]


class TestCacheTableVsDictMap:
    @given(
        ids=st.lists(st.integers(0, 500), min_size=0, max_size=40, unique=True),
        queries=st.lists(st.integers(0, 500), min_size=0, max_size=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_and_get_agree(self, ids, queries):
        ids = np.asarray(ids, dtype=np.int64)
        queries = np.asarray(queries, dtype=np.int64)
        rows = np.arange(3.0 * len(ids)).reshape(len(ids), 3)
        table = CacheTable(max(1, len(ids)), 3)
        table.install(ids, rows)
        ref = RefDictTable(ids, rows)
        cache = holding(table)

        mask, _ = table.lookup(queries)
        fetched, _ = cache.fetch("entity", queries)
        ref_mask, ref_hits, ref_misses = ref.partition(queries)
        assert np.array_equal(mask, ref_mask)
        assert cache.server.pulled == ([ref_misses.tolist()] if len(ref_misses) else [])
        assert (table.stats.hits, table.stats.misses) == (len(ref_hits), len(ref_misses))
        if len(ref_hits):
            assert np.array_equal(fetched[ref_mask], ref.get(ref_hits))

    @given(
        ids=st.lists(st.integers(0, 200), min_size=1, max_size=30, unique=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_lookup_slots_match_install_order(self, ids):
        ids = np.asarray(ids, dtype=np.int64)
        table = CacheTable(len(ids), 2)
        table.install(ids, np.zeros((len(ids), 2)))
        mask, slots = table.lookup(ids)
        assert mask.all()
        # install assigns ids[i] -> slot i, exactly like the dict map did.
        assert np.array_equal(slots, np.arange(len(ids)))

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_install_sequences_agree(self, data):
        """Re-installs grow, shrink, replace, empty and widen the id range;
        after each one every read agrees with a fresh dict map, stale and
        out-of-range ids miss, and the slots past the membership are zero."""
        capacity, width = 12, 3
        table = CacheTable(capacity, width)
        cache = holding(table)
        current: list[int] = []
        seen: set[int] = set()
        hits = misses = 0
        for step in range(data.draw(st.integers(1, 6), label="installs")):
            ids = self._next_install(data, current, capacity)
            rows = 1.0 + step * 100 + np.arange(width * len(ids), dtype=np.float64)
            rows = rows.reshape(len(ids), width)
            table.install(np.asarray(ids, dtype=np.int64), rows)
            ref = RefDictTable(np.asarray(ids, dtype=np.int64), rows)
            current = ids
            seen.update(ids)
            top = max(seen, default=0)
            queries = np.asarray(
                data.draw(
                    st.lists(
                        st.one_of(
                            st.sampled_from(sorted(seen) or [0]),
                            st.integers(-3, -1),
                            st.integers(top + 1, top + 3),
                            st.just(2**40),
                        ),
                        max_size=30,
                    ),
                    label="queries",
                ),
                dtype=np.int64,
            )

            mask, _ = table.lookup(queries)
            cache.server.pulled.clear()
            fetched, _ = cache.fetch("entity", queries)
            ref_mask, ref_hits, ref_misses = ref.partition(queries)
            assert np.array_equal(mask, ref_mask)
            assert cache.server.pulled == ([ref_misses.tolist()] if len(ref_misses) else [])
            hits += len(ref_hits)
            misses += len(ref_misses)
            assert (table.stats.hits, table.stats.misses) == (hits, misses)
            if len(ref_hits):
                assert np.array_equal(fetched[ref_mask], ref.get(ref_hits))
            assert table.ids.tolist() == ids
            assert table.occupied == len(table) == len(ids)
            assert not table.rows_view()[len(ids):].any()

    @staticmethod
    def _next_install(data, current: list[int], capacity: int) -> list[int]:
        shape = data.draw(
            st.sampled_from(["grow", "shrink", "disjoint", "empty", "jump"]),
            label="shape",
        )
        if shape == "empty":
            return []
        if shape == "shrink":
            if not current:
                return []
            return data.draw(
                st.lists(
                    st.sampled_from(current), unique=True,
                    max_size=len(current) - 1,
                ),
                label="kept",
            )
        fresh = st.integers(0, 60).filter(lambda i: i not in current)
        if shape == "jump":  # the largest id moves far past every earlier one
            fresh = st.integers(1_000, 50_000)
        room = capacity - (len(current) if shape == "grow" else 0)
        new = data.draw(
            st.lists(fresh, unique=True, min_size=1, max_size=max(1, room)),
            label="new",
        )
        if shape == "grow":
            return current + new[:room]
        return new


# -------------------------------------------------------- top-k tie-breaking


def ref_top_ids(counts: dict, k: int) -> np.ndarray:
    """Pre-vectorization Python sort on (-count, id)."""
    if k <= 0 or not counts:
        return np.empty(0, dtype=np.int64)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return np.asarray([key for key, _ in ranked[:k]], dtype=np.int64)


counts_strategy = st.dictionaries(
    st.integers(0, 80), st.integers(1, 8), min_size=0, max_size=60
)


class TestTopKTieBreaking:
    @given(counts=counts_strategy, k=st.integers(0, 70))
    @settings(max_examples=80, deadline=None)
    def test_lexsort_matches_python_sort(self, counts, k):
        assert np.array_equal(as_table(counts).top(k), ref_top_ids(counts, k))

    @given(
        # Quarter steps: decayed counts that collide exactly, not nearly.
        counts=st.dictionaries(
            st.integers(0, 80),
            st.integers(1, 12).map(lambda q: q / 4),
            max_size=60,
        ),
        k=st.integers(0, 70),
    )
    @settings(max_examples=80, deadline=None)
    def test_float_counts_with_exact_ties(self, counts, k):
        table = as_table(counts)
        assert len(table) == 0 or table.counts.dtype == np.float64
        assert np.array_equal(table.top(k), ref_top_ids(counts, k))

    @given(
        ent=counts_strategy, rel=counts_strategy, capacity=st.integers(1, 60)
    )
    @settings(max_examples=60, deadline=None)
    def test_frequency_only_merge_matches_reference(self, ent, rel, capacity):
        """HET-KG-N path: merged (count desc, kind, id) ordering."""
        hot = filter_hot_ids(
            as_table(ent), as_table(rel), capacity, entity_ratio=None
        )
        merged = [(-c, 0, e) for e, c in ent.items()]
        merged += [(-c, 1, r) for r, c in rel.items()]
        merged.sort()
        top = merged[:capacity]
        assert np.array_equal(
            hot.entities,
            np.asarray([e for _, kind, e in top if kind == 0], dtype=np.int64),
        )
        assert np.array_equal(
            hot.relations,
            np.asarray([r for _, kind, r in top if kind == 1], dtype=np.int64),
        )


# ------------------------------------------------- prefetch counting kernels


class TestFoldCounts:
    @given(seed=st.integers(0, 1000), n_batches=st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_fold_matches_per_batch_counter(self, seed, n_batches):
        """HotnessTable.count must agree with applying _count_batch batch by
        batch (weighted relation counts included)."""
        from repro.sampling.negative import MiniBatch

        rng = np.random.default_rng(seed)
        batches = []
        for _ in range(n_batches):
            b, n = int(rng.integers(1, 8)), int(rng.integers(1, 5))
            batches.append(
                MiniBatch(
                    positives=rng.integers(0, 30, size=(b, 3)).astype(np.int64),
                    neg_entities=rng.integers(0, 30, size=(b, n)).astype(np.int64),
                    corrupt_head=rng.random(b) < 0.5,
                )
            )
        ref_ent: dict[int, int] = {}
        ref_rel: dict[int, int] = {}
        for batch in batches:
            _count_batch(batch, ref_ent, ref_rel)

        ent_chunks, rel_chunks, rel_weights = [], [], []
        for batch in batches:
            ent_chunks += [
                batch.positives[:, HEAD],
                batch.positives[:, TAIL],
                batch.neg_entities.ravel(),
            ]
            rel_chunks.append(batch.positives[:, REL])
            rel_weights.append(1 + batch.num_negatives)
        ent = HotnessTable.count(ent_chunks)
        rel = HotnessTable.count(rel_chunks, rel_weights)
        assert as_dict(ent) == ref_ent
        assert as_dict(rel) == ref_rel
        for table in (ent, rel):
            assert table.ids.dtype == table.counts.dtype == np.int64
            assert np.all(np.diff(table.ids) > 0)


# ------------------------------------------------------ scatter-add kernels


class TestScatterAdd:
    @given(
        seed=st.integers(0, 1000),
        n_out=st.integers(1, 40),
        n_in=st.integers(0, 120),
        dim=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_bincount_scatter_bit_identical_to_add_at(
        self, seed, n_out, n_in, dim
    ):
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, n_out, size=n_in)
        rows = rng.standard_normal((n_in, dim))
        ref = np.zeros((n_out, dim))
        np.add.at(ref, idx, rows)
        assert np.array_equal(scatter_add_rows([(idx, rows)], n_out), ref)

    @given(seed=st.integers(0, 1000), n_in=st.integers(0, 60))
    @settings(max_examples=60, deadline=None)
    def test_coalesce_bit_identical_to_add_at_reference(self, seed, n_in):
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, 25, size=n_in).astype(np.int64)
        grads = rng.standard_normal((n_in, 4))
        unique, summed = coalesce(ids, grads)
        ref_unique, ref_inverse = np.unique(ids, return_inverse=True)
        ref_summed = np.zeros((len(ref_unique), 4))
        np.add.at(ref_summed, ref_inverse, grads)
        assert np.array_equal(unique, ref_unique)
        assert np.array_equal(summed, ref_summed)

    # The compiled loop writes through ``indices`` unchecked, so the
    # kernel owns the range check (np.bincount used to reject negatives;
    # an index >= n_out died later, in reshape, with a size message).

    @pytest.mark.parametrize("bad", [-1, -7, 5, 9])
    def test_out_of_range_index_names_itself_and_n_out(self, bad):
        idx = np.array([0, 4, bad, 2])
        with pytest.raises(ValueError, match=rf"index {bad} is out of range for n_out=5"):
            scatter_add_rows([(idx, np.ones((4, 3)))], 5)

    def test_rejects_indices_that_are_not_one_integer_per_row(self):
        rows = np.ones((3, 2))
        for idx in (np.array([0, 1]), np.array([[0, 1, 2]]), np.array([0.0, 1.0, 2.0])):
            with pytest.raises(ValueError, match="indices must be 3 integers"):
                scatter_add_rows([(idx, rows)], 4)

    def test_empty_shapes(self):
        none = np.array([], dtype=np.int64)
        assert np.array_equal(scatter_add_rows([(none, np.zeros((0, 3)))], 4), np.zeros((4, 3)))
        assert scatter_add_rows([(none, np.zeros((0, 3)))], 0).shape == (0, 3)
        # np.array([]) is float64: nothing to scatter, so nothing to reject.
        assert np.array_equal(
            scatter_add_rows([(np.array([]), np.zeros((0, 3)))], 4), np.zeros((4, 3))
        )
        assert scatter_add_rows([(np.array([1, 1]), np.zeros((2, 0)))], 4).shape == (4, 0)
        with pytest.raises(ValueError, match="index 0 is out of range for n_out=0"):
            scatter_add_rows([(np.array([0]), np.ones((1, 3)))], 0)

    def test_single_column_takes_scipys_matvec_path(self):
        idx = np.array([2, 0, 2, 2])
        rows = np.array([[0.1], [0.2], [0.3], [1e17]])
        ref = np.zeros((3, 1))
        np.add.at(ref, idx, rows)
        out = scatter_add_rows([(idx, rows)], 3)
        assert out.shape == (3, 1) and np.array_equal(out, ref)

    @pytest.mark.parametrize("dtype", [np.int32, np.intp, np.int64, np.uint8])
    def test_index_dtypes(self, dtype):
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 6, size=50)
        rows = rng.standard_normal((50, 4))
        assert np.array_equal(
            scatter_add_rows([(idx.astype(dtype), rows)], 6), scatter_add_rows([(idx, rows)], 6)
        )

    def test_every_block_is_checked_before_the_kernel_runs(self, monkeypatch):
        """The compiled loop writes through its indices unchecked, so an
        out-of-range index in the *last* block must stop the call before
        any block is added."""
        from repro.utils.kernels import sparsetools

        calls = []
        monkeypatch.setattr(
            sparsetools(), "csc_matvecs", lambda *args: calls.append(args)
        )
        scatter_add_rows([(np.array([0]), np.ones((1, 3)))], 5)
        assert len(calls) == 1, "the patch missed the module the kernel calls"
        calls.clear()
        good = (np.array([0, 1]), np.ones((2, 3)))
        for bad, message in (
            ((np.array([2, 5]), np.ones((2, 3))), "index 5 is out of range for n_out=5"),
            ((np.array([-1]), np.ones((1, 3))), "index -1 is out of range"),
            ((np.array([0.0]), np.ones((1, 3))), "indices must be 1 integers"),
            ((np.array([0]), np.ones((1, 2))), "every block must be 3 wide"),
        ):
            with pytest.raises(ValueError, match=message):
                scatter_add_rows([good, good, bad], 5)
        assert calls == []
        with pytest.raises(ValueError, match="at least one block"):
            scatter_add_rows([], 5)

    def test_csc_matvecs_accumulates_into_y(self):
        """The private loop the kernel calls: ``y += A @ x`` for a CSC
        ``A`` — it adds into a non-zero ``y`` rather than overwriting it, in
        column order, and takes int64 ``indptr`` / ``indices``.  A scipy
        that renames it or changes either fails here first."""
        from scipy.sparse import _sparsetools

        indptr = np.arange(5, dtype=np.int64)
        indices = np.array([2, 0, 2, 1], dtype=np.int64)
        x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [1e17, -1.0]])
        y = np.full((3, 2), 10.0)
        _sparsetools.csc_matvecs(3, 4, 2, indptr, indices, np.ones(4), x.ravel(), y.reshape(-1))
        expected = np.full((3, 2), 10.0)
        for i, row in zip(indices, x):
            expected[i] += row
        assert np.array_equal(y, expected)
        assert np.array_equal(y, [[13.0, 14.0], [10.0 + 1e17, 9.0], [16.0, 18.0]])

    def test_float32_and_non_contiguous_rows(self):
        rng = np.random.default_rng(1)
        idx = rng.integers(0, 6, size=50)
        wide = rng.standard_normal((50, 8))
        for rows in (wide.astype(np.float32), wide[:, ::2], wide.T[:4].T, wide[::-1]):
            assert not (rows.flags.c_contiguous and rows.dtype == np.float64)
            ref = np.zeros((6, rows.shape[1]))
            np.add.at(ref, idx, rows.astype(np.float64))
            out = scatter_add_rows([(idx, rows)], 6)
            assert out.dtype == np.float64 and out.flags.c_contiguous
            assert np.array_equal(out, ref)


# ------------------------------------------------------------- triple index


class TestTripleIndex:
    @given(
        seed=st.integers(0, 500),
        n_triples=st.integers(0, 60),
        n_queries=st.integers(0, 80),
    )
    @settings(max_examples=60, deadline=None)
    def test_contains_batch_matches_set(self, seed, n_triples, n_queries):
        rng = np.random.default_rng(seed)
        triples = np.column_stack(
            [
                rng.integers(0, 20, size=n_triples),
                rng.integers(0, 5, size=n_triples),
                rng.integers(0, 20, size=n_triples),
            ]
        ).astype(np.int64)
        index = TripleIndex(triples, 20, 5)
        truth = {(int(h), int(r), int(t)) for h, r, t in triples}
        qh = rng.integers(0, 20, size=n_queries)
        qr = rng.integers(0, 5, size=n_queries)
        qt = rng.integers(0, 20, size=n_queries)
        expected = np.fromiter(
            ((int(h), int(r), int(t)) in truth for h, r, t in zip(qh, qr, qt)),
            dtype=bool,
            count=n_queries,
        )
        assert np.array_equal(index.contains_batch(qh, qr, qt), expected)
        for h, r, t in zip(qh[:10], qr[:10], qt[:10]):
            assert index.contains(h, r, t) == ((int(h), int(r), int(t)) in truth)


# ------------------------------------------------- negative resampler (RNG)


class TestNegativeResamplerRNGFaithful:
    def _reference_resample(self, sampler, truth, batch, retries=10):
        """The pre-vectorization per-entry scan, verbatim, over its own
        Python set of true triples (the sampler keeps only the index)."""
        pos = batch.positives
        for i in range(batch.size):
            h, r, t = (int(x) for x in pos[i])
            head = bool(batch.corrupt_head[i])
            for j in range(batch.num_negatives):
                e = int(batch.neg_entities[i, j])
                candidate = (e, r, t) if head else (h, r, e)
                attempts = 0
                while candidate in truth and attempts < retries:
                    e = int(sampler._draw_entities(1)[0])
                    candidate = (e, r, t) if head else (h, r, e)
                    attempts += 1
                batch.neg_entities[i, j] = e

    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_same_negatives_and_rng_state(self, small_graph, seed):
        def build(sampler_seed):
            return NegativeSampler(
                small_graph.num_entities,
                num_negatives=4,
                strategy="chunked",
                chunk_size=8,
                filter_graph=small_graph,
                seed=sampler_seed,
            )

        rng = np.random.default_rng(seed)
        positives = small_graph.triples[
            rng.choice(len(small_graph.triples), size=48, replace=False)
        ]
        vec = build(seed)
        ref = build(seed)
        vec_batch = vec.corrupt(positives)  # vectorized detection inside

        ref_batch = ref.corrupt(positives)
        # corrupt() already resampled via the vectorized path in both;
        # instead drive the reference loop manually on a pristine batch.
        ref2 = build(seed)
        ref2._filter_index = None  # disable in-corrupt resampling
        raw = ref2.corrupt(positives)
        self._reference_resample(ref2, triple_set(small_graph), raw)

        assert np.array_equal(vec_batch.neg_entities, raw.neg_entities)
        assert np.array_equal(vec_batch.neg_entities, ref_batch.neg_entities)
        # Identical residual RNG state: the next draw must agree.
        assert np.array_equal(
            vec._draw_entities(8), ref2._draw_entities(8)
        )


# ------------------------------------------------------- evaluation kernels


@pytest.fixture(scope="module")
def eval_setup():
    rng = np.random.default_rng(5)
    graph = KnowledgeGraph(
        np.column_stack(
            [
                rng.integers(0, 40, size=120),
                rng.integers(0, 6, size=120),
                rng.integers(0, 40, size=120),
            ]
        ).astype(np.int64),
        num_entities=40,
        num_relations=6,
    )
    model = get_model("transe", dim=6)
    entity_table = rng.standard_normal((40, 6))
    relation_table = rng.standard_normal((6, 6))
    return model, entity_table, relation_table, graph


class TestEvaluationEquivalence:
    @pytest.mark.parametrize("replace_head", [True, False])
    @pytest.mark.parametrize("filtered", [True, False])
    def test_full_ranks_batched_vs_reference(
        self, eval_setup, replace_head, filtered
    ):
        model, ent, rel, graph = eval_setup
        known = graph if filtered else None
        ref = full_ranks_reference(
            model, ent, rel, graph.triples, replace_head, known
        )
        vec = _ranks_batched(
            model, ent, rel, graph.triples, replace_head, known
        )
        assert vec == ref
        # Tiny blocks exercise the chunking edges too.
        assert (
            _ranks_batched(
                model, ent, rel, graph.triples, replace_head, known,
                block_rows=64,
            )
            == ref
        )

    @pytest.mark.parametrize("num_candidates", [None, 10])
    @pytest.mark.parametrize("filtered", [True, False])
    def test_evaluate_batched_vs_reference_loop(
        self, eval_setup, num_candidates, filtered
    ):
        model, ent, rel, graph = eval_setup
        kwargs = dict(
            known=graph if filtered else None,
            max_queries=25,
            num_candidates=num_candidates,
            seed=9,
        )
        vec = evaluate_link_prediction(
            model, ent, rel, graph, **kwargs
        )
        ref = evaluate_link_prediction_reference(
            model, ent, rel, graph, **kwargs
        )
        assert vec == ref  # dataclass equality: exact float comparison


# --------------------------------------------------------------- LFU policy


class TestLFUBucketEquivalence:
    @given(
        seed=st.integers(0, 500),
        capacity=st.integers(1, 12),
        length=st.integers(0, 300),
    )
    @settings(max_examples=50, deadline=None)
    def test_hit_sequence_and_membership_match_min_scan(
        self, seed, capacity, length
    ):
        rng = np.random.default_rng(seed)
        trace = rng.zipf(1.4, size=length) % 40
        fast, ref = make_cache("lfu", capacity), RefLFU(capacity)
        for key in trace:
            assert fast.access(int(key)) == ref.access(int(key))
        assert fast.hits == ref.hits and fast.misses == ref.misses
        assert len(fast) == len(ref)


# ------------------------------------------------------- parallel runner


class TestParallelRunner:
    def test_process_map_preserves_order_inline_and_pooled(self):
        from repro.mp.pool import process_map

        items = list(range(7))
        assert process_map(_square, items, jobs=1) == [i * i for i in items]
        assert process_map(_square, items, jobs=2) == [i * i for i in items]

    def test_sweep_jobs2_identical_to_serial(self, small_graph):
        from repro.core.config import TrainingConfig
        from repro.experiments.sweep import run_sweep
        from repro.kg.splits import split_triples

        split = split_triples(small_graph, seed=0)
        config = TrainingConfig(
            model="transe", dim=4, epochs=1, batch_size=32, num_negatives=2,
            num_machines=2, cache_capacity=32, sync_period=4, seed=0,
        )
        kwargs = dict(
            known=small_graph,
            eval_max_queries=20,
            eval_candidates=20,
        )
        serial = run_sweep(
            "hetkg-c", config, split, {"sync_period": [2, 8]}, jobs=1, **kwargs
        )
        pooled = run_sweep(
            "hetkg-c", config, split, {"sync_period": [2, 8]}, jobs=2, **kwargs
        )
        assert serial.records == pooled.records  # exact, includes floats
        assert serial.to_text() == pooled.to_text()


def _square(x: int) -> int:
    return x * x


# ------------------------------------------------------------- perf smoke


#: The benchmark's dglke shape (fb15k x 0.2, seed 11), one epoch.
BENCH_DGLKE = dict(
    model="transe", dim=32, epochs=1, batch_size=128, num_negatives=16,
    negative_strategy="chunked", num_machines=4, partitioner="metis", seed=11,
)


@pytest.fixture(scope="module")
def bench_graph():
    from repro.kg.datasets import generate_dataset
    from repro.kg.splits import split_triples

    return split_triples(generate_dataset("fb15k", scale=0.2, seed=11), seed=11).train


class TestPerfSmoke:
    """Counts, not times, at the benchmark's shape: each repeats exactly."""

    def test_refinement_visits_the_boundary_not_the_graph(self, bench_graph):
        """The vertices the FM passes evaluate against what a sweep of
        every vertex on every pass would (8.2 % when this was written)."""
        from repro.partition.metis import MetisPartitioner

        partitioner = MetisPartitioner(seed=11)
        partitioner.partition(bench_graph, 4)
        levels = partitioner.report["levels"]
        evaluated = sum(p["evaluated"] for lv in levels for p in lv["refine"])
        sweep = sum(lv["vertices"] for lv in levels) * partitioner.refine_passes
        assert evaluated <= 0.15 * sweep, (evaluated, sweep)

    def test_backward_pass_sees_only_the_active_negatives(self, bench_graph, monkeypatch):
        """The negatives ``compute_batch_gradients`` counts active (and
        alone sends through grad and the scatter, whenever they are at most
        half of a batch's) are exactly the non-zero entries of the hinge's
        ``grad_neg``, and at most 45 % of the b * n scored (36.1 % when
        this was written)."""
        from repro.core.config import TrainingConfig
        from repro.core.trainer import make_trainer
        from repro.models.losses import MarginRankingLoss
        from repro.obs.tracer import Tracer

        seen = {"nonzero": 0, "scored": 0}
        compute = MarginRankingLoss.compute

        def counting(self, pos, neg):
            result = compute(self, pos, neg)
            seen["nonzero"] += int(np.count_nonzero(result.grad_neg))
            seen["scored"] += result.grad_neg.size
            return result

        monkeypatch.setattr(MarginRankingLoss, "compute", counting)
        tracer = Tracer()
        make_trainer("dglke", TrainingConfig(**BENCH_DGLKE)).train(bench_graph, tracer=tracer)
        active = int(tracer.totals["worker.active_negatives"])
        assert active == seen["nonzero"], (active, seen)
        assert 0 < active <= 0.45 * seen["scored"], (active, seen)

    def test_chunks_broadcast_and_single_row_runs_take_the_base(
        self, bench_graph, monkeypatch
    ):
        """TransE reads each chunk's shared negatives once: every step of a
        chunked epoch scores its negatives without the base hook's three
        ``b * n``-row gathers, and every step of an independent epoch,
        whose runs are single rows, goes through the base."""
        from repro.core.config import TrainingConfig
        from repro.core.trainer import make_trainer
        from repro.models.base import KGEModel
        from repro.models.transe import TransE

        calls = {"hook": 0, "base": 0}
        hook, base = TransE.score_negatives, KGEModel.score_negatives

        def counting(name, method):
            def wrapper(self, *args, **kwargs):
                calls[name] += 1
                return method(self, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(TransE, "score_negatives", counting("hook", hook))
        monkeypatch.setattr(KGEModel, "score_negatives", counting("base", base))
        for strategy in ("chunked", "independent"):
            calls.update(hook=0, base=0)
            config = TrainingConfig(**{**BENCH_DGLKE, "negative_strategy": strategy})
            make_trainer("dglke", config).train(bench_graph)
            assert calls["hook"] > 0, strategy
            expected = 0 if strategy == "chunked" else calls["hook"]
            assert calls["base"] == expected, (strategy, calls)

    def test_a_step_builds_no_sparse_matrix(self, bench_graph, monkeypatch):
        """With scipy's CSC classes made unconstructible an epoch still
        completes — the scatter adds gradient blocks through the compiled
        loop a CSC product ends in — and its losses and tables are the
        unpatched run's bit for bit."""
        import scipy.sparse

        from repro.core.config import TrainingConfig
        from repro.core.trainer import make_trainer

        def run():
            trainer = make_trainer("dglke", TrainingConfig(**BENCH_DGLKE))
            result = trainer.train(bench_graph)
            tables = {
                k: trainer.server.store.table(k).tobytes() for k in ("entity", "relation")
            }
            return result.history.losses(), tables

        plain = run()

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"a training step built a {type(self).__name__}")

        monkeypatch.setattr(scipy.sparse.csc_array, "__init__", refuse)
        monkeypatch.setattr(scipy.sparse.csc_matrix, "__init__", refuse)
        patched = run()
        assert patched[0] == plain[0], "losses moved"
        assert patched[1] == plain[1], "tables moved"
