"""The hotness table (``repro.cache.hotness``) against its dict oracles.

* ``adaptive_golden.json`` — ``hetkg-a`` static and streamed, captured on
  the commit where ADAPTIVE still kept float dicts.
* ``tests/reference/adaptive_reference.py`` — those dict implementations,
  verbatim; a hypothesis suite runs the table-based ``AdaptiveStale`` and
  the dict-based one over the same random windows.
* The table's own surface: counting, ``top``, ``mass``, ``decayed_add``,
  both merged-kind tie-breaks, and the two producers outside training
  (``QueryLog.access_counts``, ``ZipfianWorkload.from_graph``).

The integer ``top`` / ``count`` equivalence suites predate the table and
stay where they were (``tests/test_perf_equivalence.py``).
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.hotness import HotnessTable, top_merged
from repro.kg.datasets import generate_dataset
from repro.kg.stats import access_frequencies
from repro.sampling.negative import MiniBatch
from repro.serving.workload import WorkloadSpec, ZipfianWorkload
from repro.stream.drift import AdaptiveStale
from tests.hotness_tables import as_dict, as_table
from tests.reference.adaptive_reference import (
    AdaptiveStaleReference,
    _decay_into,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


# ------------------------------------------------------------ ADAPTIVE golden


def _load_capture_module():
    spec = importlib.util.spec_from_file_location(
        "adaptive_golden_capture", GOLDEN_DIR / "capture_adaptive.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestAdaptiveGolden:
    """``hetkg-a`` is pinned bit for bit: loss, traffic, hit ratio and the
    strategy's own trajectory (rebuilds, tuned ratios, drift signals)."""

    golden = json.loads((GOLDEN_DIR / "adaptive_golden.json").read_text())

    @pytest.fixture(scope="class")
    def capture(self):
        return _load_capture_module()

    @pytest.mark.parametrize("entry", [k for k in golden if k != "config"])
    def test_run_bit_identical(self, capture, entry):
        fingerprint, overrides = capture.ENTRIES[entry]
        assert fingerprint(**overrides) == self.golden[entry], (
            f"{entry}: ADAPTIVE diverged from the golden run captured on "
            "the dict-based code"
        )

    def test_golden_exercises_both_branches(self):
        """The ample-cache run is there for the windows that do *not*
        trigger; keep it from silently degenerating to all-rebuilds."""
        for worker in self.golden["static+ample-cache"]["workers"]:
            assert 1 < worker["rebuilds"] < worker["windows_observed"]


# ---------------------------------------------- ADAPTIVE vs the dict reference


class _ScriptedSampler:
    """Random mini-batches over a small id space (so counts tie often)."""

    def __init__(self, seed: int, num_entities: int, num_relations: int) -> None:
        self._rng = np.random.default_rng(seed)
        self._num_entities = num_entities
        self._num_relations = num_relations

    def prefetch(self, count: int) -> list[MiniBatch]:
        rng = self._rng
        batches = []
        for _ in range(count):
            b, n = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            positives = np.empty((b, 3), dtype=np.int64)
            # A drifting hot range: the window's ids cluster and move.
            low = int(rng.integers(0, self._num_entities))
            positives[:, 0] = (low + rng.integers(0, 6, size=b)) % self._num_entities
            positives[:, 1] = rng.integers(0, self._num_relations, size=b)
            positives[:, 2] = rng.integers(0, self._num_entities, size=b)
            batches.append(
                MiniBatch(
                    positives=positives,
                    neg_entities=rng.integers(
                        0, self._num_entities, size=(b, n)
                    ).astype(np.int64),
                    corrupt_head=rng.random(b) < 0.5,
                )
            )
        return batches


def _same_hot(new, ref) -> bool:
    if new is None or ref is None:
        return new is ref
    return (
        new.entities.dtype == ref.entities.dtype == np.int64
        and new.relations.dtype == ref.relations.dtype == np.int64
        and np.array_equal(new.entities, ref.entities)
        and np.array_equal(new.relations, ref.relations)
    )


class TestAdaptiveMatchesDictReference:
    @given(
        seed=st.integers(0, 10_000),
        num_entities=st.integers(3, 40),
        num_relations=st.integers(1, 8),
        # Up to well past the ids a window names: the spare-slot top-up.
        capacity=st.integers(1, 60),
        window=st.sampled_from([2, 4, 8]),
        decay=st.sampled_from([0.0, 0.5, 1.0]),
        entity_ratio=st.sampled_from([None, 0.25]),
        threshold=st.sampled_from([0.2, 0.65]),
    )
    @settings(max_examples=120, deadline=None)
    def test_identical_hot_sets_and_ratio_trajectory(
        self, seed, num_entities, num_relations, capacity, window, decay,
        entity_ratio, threshold,
    ):
        def build(cls):
            strategy = cls(
                capacity, window=window, entity_ratio=entity_ratio,
                threshold=threshold, decay=decay,
            )
            hot = strategy.setup(
                _ScriptedSampler(seed, num_entities, num_relations)
            )
            return strategy, hot

        new, new_hot = build(AdaptiveStale)
        ref, ref_hot = build(AdaptiveStaleReference)
        assert _same_hot(new_hot, ref_hot)
        assert new.entity_ratio == ref.entity_ratio
        for _ in range(20 * new.window):  # drains 20 windows, setup's included
            new_batch, new_hot = new.next_batch()
            ref_batch, ref_hot = ref.next_batch()
            assert np.array_equal(new_batch.positives, ref_batch.positives)
            assert _same_hot(new_hot, ref_hot)
            assert new.entity_ratio == ref.entity_ratio
            assert new.consume_overhead_items() == ref.consume_overhead_items()
        assert new.windows_observed == ref.windows_observed == 20
        assert new.rebuilds == ref.rebuilds
        assert new.detector.signals == ref.detector.signals
        # The accumulators themselves: same ids (nothing pruned), same bits.
        assert as_dict(new._entity_acc) == ref._entity_acc
        assert as_dict(new._relation_acc) == ref._relation_acc


# ------------------------------------------------------------ merged rankings


def _ref_merged(ent: dict, rel: dict, k: int, id_major: bool):
    """Python sort over (count desc, tie-break) tuples."""
    if id_major:  # the interleaved code 2*rel / 2*ent + 1
        rows = [(-c, 2 * e + 1, "e", e) for e, c in ent.items()]
        rows += [(-c, 2 * r, "r", r) for r, c in rel.items()]
    else:  # entity before relation, then id
        rows = [(-c, 0, e, "e", e) for e, c in ent.items()]
        rows += [(-c, 1, r, "r", r) for r, c in rel.items()]
    top = sorted(rows)[:k]
    return (
        [row[-1] for row in top if row[-2] == "e"],
        [row[-1] for row in top if row[-2] == "r"],
    )


_tie_counts = st.dictionaries(
    st.integers(0, 12), st.integers(1, 6).map(lambda q: q / 2), max_size=12
)


class TestMergedRanking:
    def test_both_tie_breaks_at_equal_count_and_equal_id(self):
        ent = as_table({3: 5, 4: 5})
        rel = as_table({2: 5, 3: 5})
        for k, kind_major, id_major in [
            (1, ([3], []), ([], [2])),
            (2, ([3, 4], []), ([], [2, 3])),
            (3, ([3, 4], [2]), ([3], [2, 3])),
            (4, ([3, 4], [2, 3]), ([3, 4], [2, 3])),
        ]:
            for flag, expected in ((False, kind_major), (True, id_major)):
                entities, relations = top_merged(ent, rel, k, id_major=flag)
                assert (entities.tolist(), relations.tolist()) == expected

    @given(ent=_tie_counts, rel=_tie_counts, k=st.integers(0, 30),
           id_major=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_python_sort(self, ent, rel, k, id_major):
        entities, relations = top_merged(
            as_table(ent), as_table(rel), k, id_major=id_major
        )
        assert entities.dtype == relations.dtype == np.int64
        assert (entities.tolist(), relations.tolist()) == _ref_merged(
            ent, rel, k, id_major
        )


# ------------------------------------------------------- the table's surface


class TestTableSurface:
    def test_k_zero_negative_and_past_the_end(self):
        table = as_table({4: 1, 2: 9, 7: 9})
        assert table.top(0).tolist() == table.top(-3).tolist() == []
        assert table.top(0).dtype == np.int64
        assert table.top(2).tolist() == [2, 7]
        assert table.top(99).tolist() == [2, 7, 4]

    @pytest.mark.parametrize(
        "chunks, weights",
        [
            ([], None),
            ([], []),
            ([np.empty(0, dtype=np.int64)], None),
            ([np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)], [3, 5]),
        ],
    )
    def test_empty_chunks_count_to_the_empty_table(self, chunks, weights):
        table = HotnessTable.count(chunks, weights)
        assert len(table) == 0 and table.total == 0
        assert table.ids.dtype == table.counts.dtype == np.int64
        assert table.top(4).tolist() == []
        assert table.mass(np.arange(5)) == 0

    def test_empty_chunk_among_full_ones(self):
        table = HotnessTable.count(
            [np.array([5, 5, 1]), np.empty(0, dtype=np.int64), np.array([1])],
            [2, 7, 3],
        )
        assert as_dict(table) == {1: 5, 5: 4}

    def test_float_ids_are_refused(self):
        with pytest.raises(TypeError):
            HotnessTable.count([np.array([1.5, 2.0])])

    @given(
        counts=st.dictionaries(st.integers(0, 50), st.integers(1, 9), max_size=40),
        members=st.lists(st.integers(0, 60), max_size=30),
    )
    @settings(max_examples=80, deadline=None)
    def test_mass_and_total_match_python_sums(self, counts, members):
        table = as_table(counts)
        assert table.total == sum(counts.values())
        assert table.mass(np.asarray(members, dtype=np.int64)) == sum(
            c for i, c in counts.items() if i in set(members)
        )
        assert isinstance(table.total, int)

    def test_without_drops_rows_and_keeps_order(self):
        table = as_table({1: 4, 3: 2, 6: 9, 8: 1})
        rest = table.without(np.array([6, 1, 99]))
        assert as_dict(rest) == {3: 2, 8: 1}
        assert as_dict(table.without(np.empty(0, dtype=np.int64))) == as_dict(table)

    def test_dense_ranks_every_id_including_zero_counts(self):
        table = HotnessTable.dense(np.array([0, 7, 0, 7, 3]))
        assert table.top(len(table)).tolist() == [1, 3, 4, 0, 2]


class TestDecayedAdd:
    @pytest.mark.parametrize("decay", [0.0, 0.3, 0.5, 1.0])
    def test_matches_dict_reference_over_20_windows(self, decay):
        rng = np.random.default_rng(11)
        table = HotnessTable.empty()
        acc: dict[int, float] = {}
        for _ in range(20):
            ids = np.unique(rng.integers(0, 40, size=int(rng.integers(0, 25))))
            window = {int(i): int(c) for i, c in zip(ids, rng.integers(1, 9, len(ids)))}
            table = table.decayed_add(as_table(window), decay)
            _decay_into(acc, window, decay)
            assert table.counts.dtype == np.float64
            assert np.all(np.diff(table.ids) > 0)
            assert as_dict(table) == acc  # same ids, same bits
        if decay == 0.0:
            assert set(acc) == set(window)  # forgot everything older
        else:
            assert len(acc) > len(window)  # nothing pruned


# ------------------------------------------------- producers outside training


class TestProducers:
    def test_query_log_counts_match_the_two_loop_count(self):
        log = ZipfianWorkload(
            120, 9, WorkloadSpec(num_queries=400, zipf_exponent=1.1, seed=5)
        ).generate()
        entity_counts: dict[int, int] = {}
        relation_counts: dict[int, int] = {}
        for query in log:
            for eid in query.entity_ids().tolist():
                entity_counts[eid] = entity_counts.get(eid, 0) + 1
            for rid in query.relation_ids().tolist():
                relation_counts[rid] = relation_counts.get(rid, 0) + 1
        ent, rel = log.access_counts()
        assert as_dict(ent) == entity_counts
        assert as_dict(rel) == relation_counts

    def test_empty_query_log(self):
        from repro.serving.queries import QueryLog

        ent, rel = QueryLog().access_counts()
        assert len(ent) == len(rel) == 0

    def test_from_graph_order_is_the_lexsort_it_replaced(self):
        graph = generate_dataset("fb15k", scale=0.02, seed=3)  # the golden graph
        workload = ZipfianWorkload.from_graph(graph, WorkloadSpec(num_queries=1))
        ent_counts, rel_counts = access_frequencies(graph)
        assert np.array_equal(
            workload.entity_order,
            np.lexsort((np.arange(len(ent_counts)), -ent_counts)),
        )
        assert np.array_equal(
            workload.relation_order,
            np.lexsort((np.arange(len(rel_counts)), -rel_counts)),
        )
