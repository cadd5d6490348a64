"""Reference oracle: a stream edit applied the moment it arrives.

The stream's graph path as it stood before edits were logged and folded
when read (``repro.kg.graph.EditLog``), kept verbatim so the lazy fold can
be held to it edit by edit (``tests/test_edit_fold.py``,
``tests/test_graph_mutation.py``):

* :func:`index_mutated_reference` — ``TripleIndex.mutated`` for one edit:
  the key strides re-chosen from the edit's own vocabulary when the old
  ones do not fit it (the live one walks every vocabulary a folded edit
  grew through); a vocabulary past every int64 key space re-encodes to
  24-byte keys and carries the index on, as the live one does (the dict
  index that regime used to fall back to is gone);
* :func:`mutated_with_dead_rows_reference` — ``KnowledgeGraph.
  mutated_with_dead_rows`` as the per-edit fold, over the function above;
* :func:`apply_dead_rows_reference` — ``EpochSampler.apply_update(new_graph,
  dead_rows)``, which swapped each edited local graph in and remapped the
  epoch walk once per edit;
* :class:`UnfoldedGraphReference` — the ``graph`` property
  ``OnlineTrainer`` had: a list of unfolded edits, applied one by one
  through :func:`mutated_with_dead_rows_reference` when read.

Methods became functions of the object they were methods of (the class
keeps the property and its setter).  Not imported by ``src/``.
"""

from __future__ import annotations

import numpy as np

from repro.kg.graph import (
    _NO_ROWS,
    KnowledgeGraph,
    TripleIndex,
    _as_rows,
    _checked_sizes,
    _decode,
    _encode,
    _key_strides,
    _strides_fit,
    drop_rows,
    renumber_rows,
)
from repro.sampling.minibatch import EpochSampler

# ------------------------------------------------------------------ the index


def index_mutated_reference(
    index: TripleIndex,
    inserts: np.ndarray,
    deletes: np.ndarray,
    num_entities: int,
    num_relations: int,
) -> tuple[np.ndarray, TripleIndex]:
    """The rows ``deletes`` occupy, and the index of the edited array.

    The edited array is the one :meth:`KnowledgeGraph.mutated` builds:
    the surviving rows in order, then ``inserts`` (in-vocabulary rows
    of the possibly grown ``num_entities``/``num_relations``).  Its
    index is this one's sorted keys with the deleted positions cut out
    and the inserted keys merged in — O(|update| log n) probes plus
    straight copies, no re-sort.  This index is left as it was.
    """
    inserts, deletes = _as_rows(inserts), _as_rows(deletes)
    positions = index._positions(deletes)
    dead = np.sort(index._rows[positions])
    keys, strides = index._keys, index._strides
    if strides is not None and not _strides_fit(strides, num_entities, num_relations):
        strides = _key_strides(num_entities, num_relations)
        # Key order is (h, r, t) order under any strides: re-encode in
        # place of a re-sort.
        keys = _encode(strides, *_decode(index._strides, keys))
    rows = index._rows
    if len(positions):
        keys = drop_rows(keys, positions)
        rows = renumber_rows(len(rows), dead)[drop_rows(rows, positions)]
    if len(inserts):
        new_keys = _encode(strides, *inserts.T)
        order = np.argsort(new_keys, kind="stable")
        new_keys = new_keys[order]
        # After any equal key: an inserted duplicate has the later row.
        at = np.searchsorted(keys, new_keys, side="right")
        keys = np.insert(keys, at, new_keys)
        rows = np.insert(rows, at, len(rows) + order)
    return dead, TripleIndex._carried(
        keys, rows, strides, int(num_entities), int(num_relations)
    )


# ------------------------------------------------------------------ the graph


def mutated_with_dead_rows_reference(
    graph: KnowledgeGraph,
    inserts: np.ndarray | None = None,
    deletes: np.ndarray | None = None,
    num_entities: int | None = None,
    num_relations: int | None = None,
) -> tuple["KnowledgeGraph", np.ndarray]:
    """:meth:`mutated`, plus the ascending rows of *this* graph the
    deletes removed (what an epoch walk over the old rows needs to
    follow the edit)."""
    n_ent = graph.num_entities if num_entities is None else int(num_entities)
    n_rel = graph.num_relations if num_relations is None else int(num_relations)
    if n_ent < graph.num_entities or n_rel < graph.num_relations:
        raise ValueError(
            "mutated() cannot shrink vocabularies "
            f"({graph.num_entities}->{n_ent} entities, "
            f"{graph.num_relations}->{n_rel} relations)"
        )
    inserts, deletes = _as_rows(inserts), _as_rows(deletes)
    _checked_sizes(inserts, n_ent, n_rel)
    grew = n_ent > graph.num_entities or n_rel > graph.num_relations
    if not (len(inserts) or len(deletes) or grew):
        return graph, _NO_ROWS
    dead, index = index_mutated_reference(
        graph.triple_index(), inserts, deletes, n_ent, n_rel
    )
    if not (len(inserts) or len(dead) or grew):
        return graph, dead
    child = KnowledgeGraph.__new__(KnowledgeGraph)
    # Labels cannot cover grown vocabularies; drop them on growth.
    child._adopt(
        drop_rows(graph.triples, dead, inserts),
        n_ent,
        n_rel,
        None if grew else graph.entity_labels,
        None if grew else graph.relation_labels,
        index,
    )
    return child, dead


# -------------------------------------------------------------- sampler remap


def apply_dead_rows_reference(
    sampler: EpochSampler,
    new_graph: KnowledgeGraph,
    dead_rows: np.ndarray | None = None,
) -> None:
    """Swap in a mutated local subgraph without breaking the epoch walk.

    Online ingestion (:mod:`repro.stream`) removes some of this
    worker's triples and appends new ones.  ``dead_rows`` are the
    ascending rows of the *old* graph that were removed (``None`` =
    none, as :meth:`~repro.kg.graph.KnowledgeGraph.mutated_with_dead_rows`
    returns them); ``new_graph`` holds the surviving rows first (in
    original order) followed by the appended rows, over possibly
    larger vocabularies.

    The in-flight epoch is preserved deterministically: surviving
    not-yet-consumed positions keep their shuffled order (remapped to
    the new row indices), consumed positions stay consumed, and the
    appended rows join the walk at the end of the current epoch — the
    next reshuffle mixes them in fully.  No RNG draws are consumed, so
    an update-free stream leaves the sample sequence bit-identical.
    """
    old_n = sampler.graph.num_triples
    sampler.graph = new_graph
    sampler.negative_sampler.resize(new_graph.num_entities)
    dead_rows = np.asarray(
        [] if dead_rows is None else dead_rows, dtype=np.int64
    )
    if len(dead_rows) and not 0 <= dead_rows[0] <= dead_rows[-1] < old_n:
        raise ValueError(
            f"dead_rows span [{dead_rows[0]}, {dead_rows[-1]}] "
            f"for {old_n} triples"
        )
    if len(sampler._order) == 0:
        # First epoch not started yet; next_batch() reshuffles lazily.
        return
    order = sampler._order
    if len(dead_rows):
        # Old row index -> new row index for survivors (-1 for deleted).
        order = renumber_rows(old_n, dead_rows)[order]
        alive = order >= 0
        sampler._cursor = int(np.count_nonzero(alive[: sampler._cursor]))
        order = order[alive]
    appended = np.arange(
        old_n - len(dead_rows), new_graph.num_triples, dtype=np.int64
    )
    sampler._order = np.concatenate([order, appended])


# --------------------------------------------------------------- global graph


class UnfoldedGraphReference:
    """``OnlineTrainer.graph`` as it was: edits kept unfolded until read."""

    def __init__(self, graph: KnowledgeGraph | None) -> None:
        self.graph = graph

    @property
    def graph(self) -> KnowledgeGraph | None:
        """The training graph with every update applied so far.

        Folded in when read: an update only records its edit, and a read
        applies the recorded edits in order, each through
        :meth:`~repro.kg.graph.KnowledgeGraph.mutated` — the graph an
        eager rebuild after every update would hold.  Only the
        false-negative filter reads it during a run.
        """
        if self._unfolded:
            graph = self._graph
            for edit in self._unfolded:
                graph = mutated_with_dead_rows_reference(graph, *edit)[0]
            self._graph = graph
            self._unfolded = []
        return self._graph

    @graph.setter
    def graph(self, graph: KnowledgeGraph | None) -> None:
        self._graph = graph
        #: ``(inserts, deletes, num_entities, num_relations)`` per update
        #: applied since ``graph`` was last read.
        self._unfolded: list[tuple[np.ndarray, np.ndarray, int, int]] = []
