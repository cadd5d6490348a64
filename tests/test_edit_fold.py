"""The lazy stream fold against the edit-by-edit path it replaced.

A worker's local graph records each stream edit
(``EpochSampler.record`` -> ``EditLog.record``) and folds every recorded
edit in one pass when its sampler next reads the graph; the global graph
(``OnlineTrainer.graph``) keeps its edits in the same log.
``tests/reference/edit_fold_reference.py`` keeps the path this replaced —
``mutated_with_dead_rows`` and the sampler's ``apply_update`` once per
edit, and the global graph's unfolded list — and this suite drives both
through random edit sequences with random read points:

* every edit's removed-row count, and whether it changed the graph, equal
  the per-edit fold's dead rows and ``child is not parent`` at record
  time, as does the corruption pool's size;
* at every read, the triples' bytes, vocabulary sizes and labels, the
  index (``_keys``, ``_rows``, ``_strides``) and the epoch
  walk (``_order``, ``_cursor``) equal the per-edit path's, and so does
  the next batch drawn;
* edits cover duplicate inserts; deletes of absent, base, just-inserted
  and duplicated triples; re-inserts after a delete; empty edits; and
  vocabulary growth across a power-of-two stride, into the exact-stride
  regime and into 24-byte keys (the "dict" ladder, named for the dict
  index that regime once had);
* a pickled sampler carries its pending edits.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kg.graph import EditLog, KnowledgeGraph
from repro.sampling.minibatch import EpochSampler
from repro.sampling.negative import NegativeSampler
from tests.reference.edit_fold_reference import (
    UnfoldedGraphReference,
    apply_dead_rows_reference,
    mutated_with_dead_rows_reference,
)

#: Vocabulary ladders ``(entities, relations)``: an edit stays on its rung
#: or climbs one.  "pow2" stays in power-of-two strides; "edge" lands on
#: 8 192 entities after strides re-chosen for 5 000 (which a single
#: re-encode to the final size gets wrong); "exact" climbs from
#: power-of-two strides into exact ones; "dict" out of every int64 key
#: space into 24-byte keys.
LADDERS = {
    "pow2": ([6, 7, 8, 9, 16, 17], [2, 3, 4, 5]),
    "edge": ([3000, 4096, 5000, 8191, 8192, 8193], [2, 3]),
    "exact": ([2**20 - 2, 2**20 + 5, 3 * 2**20, 3 * 2**20 + 1], [2**19 - 1, 2**19 + 1]),
    "dict": ([6, 3 * 2**20, 2**31, 2**31 + 3], [2, 4]),
}


def _triples(rng, count, n_ent, n_rel, pool=5):
    """``count`` rows over a small id pool (so duplicates happen) that
    also reaches the top of the vocabulary."""
    ents = np.concatenate([np.arange(min(pool, n_ent)), [n_ent - 1]])
    rels = np.concatenate([np.arange(min(2, n_rel)), [n_rel - 1]])
    return np.stack(
        [rng.choice(ents, count), rng.choice(rels, count), rng.choice(ents, count)],
        axis=1,
    ).astype(np.int64)


def _pick(rng, rows, count):
    return rows[rng.integers(len(rows), size=count)] if len(rows) else rows[:0]


def _draw_edit(rng, graph, last_inserts, deleted, n_ent, n_rel):
    """One edit over ``graph`` (the graph as edited so far): inserts and
    deletes mixing every case the fold has to get right."""
    inserts = _triples(rng, int(rng.integers(0, 5)), n_ent, n_rel)
    if len(inserts) > 1 and rng.random() < 0.3:
        inserts[-1] = inserts[0]  # duplicate within one edit
    deleted = deleted[
        (deleted[:, 0] < n_ent) & (deleted[:, 1] < n_rel) & (deleted[:, 2] < n_ent)
    ]
    if len(deleted) and rng.random() < 0.4:
        inserts = np.concatenate([inserts, _pick(rng, deleted, 1)])  # re-insert
    parts = [_triples(rng, int(rng.integers(0, 3)), n_ent, n_rel)]  # mostly absent
    if rng.random() < 0.5:
        parts.append(_pick(rng, graph.triples, int(rng.integers(1, 3))))  # live rows
    if rng.random() < 0.5:
        parts.append(_pick(rng, last_inserts, 1))  # just inserted
    if rng.random() < 0.2:
        parts.append(np.array([[n_ent, 0, 0], [0, n_rel, -1]]))  # out of vocabulary
    deletes = np.concatenate(parts)
    if len(deletes) and rng.random() < 0.2:
        deletes = np.concatenate([deletes, deletes[:1]])  # duplicated delete
    if rng.random() < 0.15:
        inserts, deletes = inserts[:0], deletes[:0]  # an empty edit
    return inserts, deletes


def _assert_same_graph(ours: KnowledgeGraph, theirs: KnowledgeGraph) -> None:
    assert ours.triples.dtype == np.int64
    assert ours.triples.tobytes() == theirs.triples.tobytes()
    assert (ours.num_entities, ours.num_relations) == (
        theirs.num_entities, theirs.num_relations
    )
    assert ours.entity_labels == theirs.entity_labels
    assert ours.relation_labels == theirs.relation_labels
    # Carried or to be built lazily, as the per-edit path left it.
    assert (ours._triple_index is None) == (theirs._triple_index is None)
    a, b = ours.triple_index(), theirs.triple_index()
    assert a._strides == b._strides
    for name in ("_keys", "_rows"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def _sampler(graph, seed, steps):
    sampler = EpochSampler(
        graph, 3, NegativeSampler(graph.num_entities, num_negatives=2, seed=1),
        seed=seed,
    )
    for _ in range(steps):
        sampler.next_batch()
    return sampler


@st.composite
def edit_sequences(draw):
    ladder = draw(st.sampled_from(sorted(LADDERS)))
    edits = draw(
        st.lists(
            st.tuples(
                st.booleans(),  # climb the entity ladder
                st.booleans(),  # climb the relation ladder
                st.sampled_from(["none", "none", "read", "pickle"]),
            ),
            min_size=1,
            max_size=14,
        )
    )
    return ladder, draw(st.integers(0, 10_000)), draw(st.integers(0, 6)), edits


class TestFoldEqualsEditByEdit:
    @given(case=edit_sequences())
    @settings(max_examples=150, deadline=None)
    # Every local row deleted, then new rows inserted, with no read between:
    # the walk must restart as it does edit by edit, not take the inserts in.
    @example(case=("dict", 79, 1, [(False, False, "none")] * 3))
    # Into 24-byte keys, then an edit that removes nothing: the fold carries
    # the index the edit-by-edit path carries, counted or not.
    @example(
        case=(
            "dict", 5, 0,
            [(False, False, "none")] * 3 + [(True, False, "none")] * 2
            + [(False, False, "none")],
        )
    )
    def test_counts_graph_index_and_walk(self, case):
        ladder, seed, steps, edits = case
        ents, rels = LADDERS[ladder]
        rng = np.random.default_rng(seed)
        e, r = 0, 0
        base = KnowledgeGraph(
            _triples(rng, int(rng.integers(0, 10)), ents[0], rels[0]),
            ents[0], rels[0],
            entity_labels=[f"e{i}" for i in range(ents[0])] if ladder == "pow2" else None,
            relation_labels=[f"r{i}" for i in range(rels[0])] if ladder == "pow2" else None,
        )
        if rng.random() < 0.5:
            base.triple_index()  # a warm memo and a cold one both fold
        ours = _sampler(base, seed, steps if len(base) else 0)
        theirs = _sampler(base, seed, steps if len(base) else 0)
        global_log = EditLog(base)
        global_ref = UnfoldedGraphReference(base)
        graph = base  # the per-edit path's local graph
        last_inserts, deleted = base.triples[:0], base.triples[:0]

        def read():
            _assert_same_graph(ours.graph, graph)
            assert np.array_equal(ours._order, theirs._order)
            assert ours._order.dtype == theirs._order.dtype
            assert ours._cursor == theirs._cursor
            if global_log.pending:
                global_log.fold()
            _assert_same_graph(global_log.base, global_ref.graph)

        for climb_e, climb_r, then in edits:
            e, r = min(e + climb_e, len(ents) - 1), min(r + climb_r, len(rels) - 1)
            n_ent, n_rel = ents[e], rels[r]
            inserts, deletes = _draw_edit(rng, graph, last_inserts, deleted, n_ent, n_rel)

            removed = ours.record(inserts, deletes, n_ent, n_rel)
            child, dead = mutated_with_dead_rows_reference(
                graph, inserts, deletes, n_ent, n_rel
            )
            if child is graph:
                assert removed is None
            else:
                assert removed == len(dead)
                apply_dead_rows_reference(theirs, child, dead)
            assert ours.negative_sampler.num_entities == theirs.negative_sampler.num_entities
            global_log.record(inserts, deletes, n_ent, n_rel, count=False)
            global_ref._unfolded.append((inserts, deletes, n_ent, n_rel))
            graph = child
            last_inserts = inserts
            deleted = np.concatenate([deleted, deletes[(deletes >= 0).all(axis=1)]])

            if then == "pickle":
                ours = pickle.loads(pickle.dumps(ours))
            elif then == "read":
                read()
                if len(graph):
                    assert np.array_equal(
                        ours.next_batch().positives, theirs.next_batch().positives
                    )
        read()

    def test_a_single_reencode_would_pick_other_strides(self):
        """3 000 -> 5 000 -> 8 192 entities: edit by edit the entity stride
        ends at 8 192, a re-encode straight to 8 192 picks 16 384."""
        base = KnowledgeGraph([[0, 0, 1], [2, 1, 2]], 3000, 2)
        log = EditLog(base)
        for n_ent in (5000, 8192):
            log.record([[n_ent - 1, 0, 0]], None, n_ent, 2)
        graph = log.fold()[0]
        expected = base
        for n_ent in (5000, 8192):
            expected = mutated_with_dead_rows_reference(
                expected, [[n_ent - 1, 0, 0]], None, n_ent, 2
            )[0]
        assert graph.triple_index()._strides == expected.triple_index()._strides == (4, 8192)
        _assert_same_graph(graph, expected)


class TestRecordTime:
    """What is still decided when an edit is recorded."""

    def test_unchanged_edits_are_not_recorded(self, tiny_graph):
        log = EditLog(tiny_graph)
        assert log.record(None, [[5, 1, 5]], 6, 2) is None
        assert log.record(None, None, 6, 2) is None
        assert log.pending == 0
        assert log.fold()[0] is tiny_graph

    def test_a_reinsert_survives_and_counts_as_removed_once(self, tiny_graph):
        log = EditLog(tiny_graph)
        row = tiny_graph.triples[:1]
        assert log.record(None, row, 6, 2) == 1
        assert log.record(row, None, 6, 2) == 0
        assert log.record(None, row, 6, 2) == 1  # only the re-insert
        assert log.record(row, row, 6, 2) == 0  # deletes first, then inserts
        graph, dead = log.fold()
        assert (graph.triples == row).all(axis=1).sum() == 1
        assert dead.tolist() == [0]

    def test_errors_are_the_per_edit_ones_and_leave_the_log_as_it_was(
        self, tiny_graph
    ):
        log = EditLog(tiny_graph)
        log.record([[0, 0, 7]], None, 8, 2)
        for args, match in (
            (([[0, 0, 8]], None, 8, 2), "num_entities=8 smaller than max"),
            (([[0, 2, 0]], None, 8, 2), "num_relations=2 smaller than max"),
            (([[0, 0, -1]], None, 8, 2), "non-negative"),
            ((None, None, 7, 2), "cannot shrink"),
        ):
            with pytest.raises(ValueError, match=match):
                log.record(*args)
            with pytest.raises(ValueError, match=match):
                mutated_with_dead_rows_reference(
                    mutated_with_dead_rows_reference(tiny_graph, [[0, 0, 7]], None, 8, 2)[0],
                    *args,
                )
        assert log.pending == 1
        assert log.fold()[0].num_triples == tiny_graph.num_triples + 1
