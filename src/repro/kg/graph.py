"""In-memory knowledge graph: a set of (head, relation, tail) triples.

The graph is stored as a single ``(n, 3)`` int64 array plus optional string
vocabularies.  All downstream components (samplers, partitioners, trainers)
work on integer ids; string labels exist only for I/O and display.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

#: Column indices into the triple array.
HEAD, REL, TAIL = 0, 1, 2


_NO_ROWS = np.empty(0, dtype=np.int64)


def _as_rows(triples: np.ndarray | None) -> np.ndarray:
    """``triples`` as an ``(n, 3)`` int64 array (``None`` = no rows)."""
    if triples is None:
        return _NO_ROWS.reshape(0, 3)
    return np.asarray(triples, dtype=np.int64).reshape(-1, 3)


def drop_rows(
    array: np.ndarray, dead: np.ndarray, tail: np.ndarray | None = None
) -> np.ndarray:
    """``array`` without the rows at the ascending positions ``dead``,
    followed by ``tail``.

    One slice copy per run of survivors: a handful of deletes out of 100 k
    rows is a few ``memcpy``s, where a boolean mask (``array[keep]``,
    ``np.delete``) visits every row — 6x the time on ``(n, 3)`` triples.
    """
    extra = 0 if tail is None else len(tail)
    kept = len(array) - len(dead)
    out = np.empty((kept + extra,) + array.shape[1:], dtype=array.dtype)
    src = dst = 0
    for row in dead.tolist():
        run = row - src
        out[dst : dst + run] = array[src:row]
        dst += run
        src = row + 1
    out[dst:kept] = array[src:]
    if extra:
        out[kept:] = tail
    return out


def renumber_rows(count: int, dead: np.ndarray) -> np.ndarray:
    """Old row -> its row once the ascending ``dead`` rows are dropped
    (``-1`` for the dropped ones), for ``count`` rows."""
    new = np.arange(count, dtype=np.int64)
    bounds = dead.tolist() + [count]
    for k in range(len(dead)):
        new[bounds[k] : bounds[k + 1]] -= k + 1
    new[dead] = -1
    return new


def _stride(size: int) -> int:
    """Smallest power of two above ``size``: a vocabulary can grow to its
    stride before the keys built on it have to be re-encoded."""
    return 1 << int(size).bit_length()


def _strides_fit(
    strides: tuple[int, int] | None, num_entities: int, num_relations: int
) -> bool:
    """Whether every id triple of the vocabulary has its own key under
    ``strides`` (24-byte keys, ``None``, fit any vocabulary)."""
    if strides is None:
        return True
    rel_stride, ent_stride = strides
    return (
        num_relations <= rel_stride
        and num_entities <= ent_stride
        and num_entities * rel_stride * ent_stride < 2**63
    )


def _key_strides(num_entities: int, num_relations: int) -> tuple[int, int] | None:
    """``(relation stride, entity stride)`` of the int64 key encoding.

    Power-of-two strides with headroom when the key space allows, the
    exact vocabulary sizes when only those fit, ``None`` — 24-byte keys —
    when even they overflow int64 (evaluated in Python ints, arbitrary
    precision).
    """
    for strides in (
        (_stride(num_relations), _stride(num_entities)),
        (num_relations, num_entities),
    ):
        if _strides_fit(strides, num_entities, num_relations):
            return strides
    return None


#: A 24-byte key: a triple's three ids as big-endian uint64, so its bytes
#: compare as the ``(h, r, t)`` order does.
_WIDE_KEY = np.dtype("V24")


def _encode(
    strides: tuple[int, int] | None,
    heads: np.ndarray,
    rels: np.ndarray,
    tails: np.ndarray,
) -> np.ndarray:
    """One key per ``(h, r, t)``; keys sort as the triples do, whatever
    the strides.  ``None`` strides: the triple itself as a 24-byte key."""
    if strides is None:
        columns = np.stack(np.broadcast_arrays(heads, rels, tails), axis=-1)
        return columns.astype(">u8").view(_WIDE_KEY)[..., 0]
    rel_stride, ent_stride = strides
    return (heads * rel_stride + rels) * ent_stride + tails


def _decode(
    strides: tuple[int, int] | None, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(heads, rels, tails)`` that :func:`_encode` turned into ``keys``."""
    if strides is None:
        return tuple(keys.view(">u8").reshape(-1, 3).astype(np.int64).T)
    pairs, tails = np.divmod(keys, strides[1])
    return (*np.divmod(pairs, strides[0]), tails)


class TripleIndex:
    """Vectorized membership and row index over a triple array.

    Encodes every ``(h, r, t)`` as a single key held in a sorted array,
    so a batch of membership queries is one ``np.searchsorted`` probe
    instead of ``b * n`` Python set lookups.  The key is the int64
    ``(h * rel_stride + r) * ent_stride + t`` whose strides are powers of
    two above the vocabulary sizes (see :func:`_key_strides`); a
    vocabulary so large that no int64 key space fits it keys each triple
    by its three ids as one 24-byte value instead, which sorts and probes
    the same way.

    Next to each key sits the row it came from (one key per row, stably
    sorted, so duplicates stay in row order): the rows holding a triple
    are found by probing for the triple, not by scanning the rows, and
    :meth:`mutated` derives the index of an edited array from this one.

    Ids outside ``[0, num_entities)`` / ``[0, num_relations)`` are absent
    by definition: their key would alias some other triple's.
    """

    def __init__(
        self,
        triples: np.ndarray,
        num_entities: int,
        num_relations: int,
    ) -> None:
        self.num_entities = int(num_entities)
        self.num_relations = int(num_relations)
        triples = _as_rows(triples)
        self._strides = _key_strides(self.num_entities, self.num_relations)
        keys = _encode(self._strides, *triples.T)
        self._rows = np.argsort(keys, kind="stable")
        self._keys = keys[self._rows]

    @classmethod
    def _carried(
        cls,
        keys: np.ndarray,
        rows: np.ndarray,
        strides: tuple[int, int] | None,
        num_entities: int,
        num_relations: int,
    ) -> "TripleIndex":
        """An index over already sorted ``keys`` and their ``rows``."""
        index = cls.__new__(cls)
        index.num_entities = num_entities
        index.num_relations = num_relations
        index._strides = strides
        index._keys = keys
        index._rows = rows
        return index

    def __len__(self) -> int:
        """Number of distinct triples indexed."""
        if len(self._keys) == 0:
            return 0
        return int(np.count_nonzero(self._keys[1:] != self._keys[:-1])) + 1

    def _in_vocabulary(
        self, heads: np.ndarray, rels: np.ndarray, tails: np.ndarray
    ) -> np.ndarray:
        """Which ``(heads[i], rels[i], tails[i])`` of int64 ids lie inside
        the vocabularies.  Viewed unsigned, a negative id is larger than any
        size, so one compare per column checks both bounds."""
        found = heads.view(np.uint64) < int(self.num_entities)
        found &= rels.view(np.uint64) < int(self.num_relations)
        found &= tails.view(np.uint64) < int(self.num_entities)
        return found

    def contains_batch(
        self, heads: np.ndarray, rels: np.ndarray, tails: np.ndarray
    ) -> np.ndarray:
        """Boolean mask: which ``(heads[i], rels[i], tails[i])`` are indexed."""
        heads = np.asarray(heads, dtype=np.int64)
        rels = np.asarray(rels, dtype=np.int64)
        tails = np.asarray(tails, dtype=np.int64)
        if len(self._keys) == 0 or len(heads) == 0:
            return np.zeros(len(heads), dtype=bool)
        keys = _encode(self._strides, heads, rels, tails)
        pos = np.minimum(
            np.searchsorted(self._keys, keys), len(self._keys) - 1
        )
        found = self._keys[pos] == keys
        found &= self._in_vocabulary(heads, rels, tails)
        return found

    def contains(self, h: int, r: int, t: int) -> bool:
        """Scalar membership check."""
        return bool(self.contains_batch([h], [r], [t])[0])

    # --------------------------------------------------------------- mutation

    def _positions(self, triples: np.ndarray) -> np.ndarray:
        """Ascending positions in ``_keys`` of every key of ``triples``."""
        columns = triples.T
        needles = np.unique(
            _encode(self._strides, *columns)[self._in_vocabulary(*columns)]
        )
        first = np.searchsorted(self._keys, needles, side="left")
        counts = np.searchsorted(self._keys, needles, side="right") - first
        # The runs [first, first + count) laid end to end.
        starts = first - (np.cumsum(counts) - counts)
        return np.repeat(starts, counts) + np.arange(counts.sum())

    def rows_of(self, triples: np.ndarray) -> np.ndarray:
        """Ascending rows of the indexed array that hold any of ``triples``
        (every occurrence of a duplicated triple; absent ones match none)."""
        return np.sort(self._rows[self._positions(_as_rows(triples))])

    def mutated(
        self,
        inserts: np.ndarray,
        deletes: np.ndarray,
        num_entities: int,
        num_relations: int,
        through: Sequence[tuple[int, int]] = (),
    ) -> tuple[np.ndarray, "TripleIndex"]:
        """The rows ``deletes`` occupy, and the index of the edited array.

        The edited array is the one :meth:`KnowledgeGraph.mutated` builds:
        the surviving rows in order, then ``inserts`` (in-vocabulary rows
        of the possibly grown ``num_entities``/``num_relations``).  Its
        index is this one's sorted keys with the deleted positions cut out
        and the inserted keys merged in — O(|update| log n) probes plus
        straight copies, no re-sort.  This index is left as it was.

        ``through`` lists the ``(num_entities, num_relations)`` an edit
        folded from several (:class:`EditLog`) grew through first: the
        strides follow that path, as they would edit by edit — strides
        re-chosen for an intermediate size can fit the final one and then
        stay, where :func:`_key_strides` of the final size would not
        (3 000 -> 5 000 -> 8 192 entities keeps entity stride 8 192).
        """
        inserts, deletes = _as_rows(inserts), _as_rows(deletes)
        positions = self._positions(deletes)
        dead = np.sort(self._rows[positions])
        keys, strides = self._keys, self._strides
        for sizes in (*through, (num_entities, num_relations)):
            if not _strides_fit(strides, *sizes):
                strides = _key_strides(*sizes)
        if strides != self._strides:
            # Key order is (h, r, t) order under any strides: re-encode in
            # place of a re-sort.
            keys = _encode(strides, *_decode(self._strides, keys))
        rows = self._rows
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


def _checked_sizes(
    triples: np.ndarray, num_entities: int | None, num_relations: int | None
) -> tuple[int, int]:
    """Validate ``triples`` (shape, id ranges) against the vocabulary
    sizes; ``None`` sizes are inferred as ``max id + 1``."""
    if triples.ndim != 2 or triples.shape[1] != 3:
        raise ValueError(f"triples must have shape (n, 3), got {triples.shape}")
    if triples.size and triples.min() < 0:
        raise ValueError("triple ids must be non-negative")
    max_ent = int(max(triples[:, HEAD].max(), triples[:, TAIL].max())) + 1 if len(triples) else 0
    max_rel = int(triples[:, REL].max()) + 1 if len(triples) else 0
    n_ent = max_ent if num_entities is None else int(num_entities)
    n_rel = max_rel if num_relations is None else int(num_relations)
    if n_ent < max_ent:
        raise ValueError(
            f"num_entities={n_ent} smaller than max entity id + 1 = {max_ent}"
        )
    if n_rel < max_rel:
        raise ValueError(
            f"num_relations={n_rel} smaller than max relation id + 1 = {max_rel}"
        )
    return n_ent, n_rel


class KnowledgeGraph:
    """A knowledge graph ``G = {(h, r, t)}`` over integer entity/relation ids.

    Parameters
    ----------
    triples:
        ``(n, 3)`` integer array of ``(head, relation, tail)`` rows.
    num_entities, num_relations:
        Vocabulary sizes.  If omitted they are inferred as ``max id + 1``,
        which is wrong for graphs with isolated trailing entities — pass them
        explicitly when known.
    entity_labels, relation_labels:
        Optional human-readable names, index-aligned with ids.
    """

    def __init__(
        self,
        triples: np.ndarray | Sequence[tuple[int, int, int]],
        num_entities: int | None = None,
        num_relations: int | None = None,
        entity_labels: list[str] | None = None,
        relation_labels: list[str] | None = None,
    ) -> None:
        triples = np.asarray(triples, dtype=np.int64)
        if triples.size == 0:
            triples = triples.reshape(0, 3)
        num_entities, num_relations = _checked_sizes(
            triples, num_entities, num_relations
        )
        if entity_labels is not None and len(entity_labels) != num_entities:
            raise ValueError("entity_labels length must equal num_entities")
        if relation_labels is not None and len(relation_labels) != num_relations:
            raise ValueError("relation_labels length must equal num_relations")
        self._adopt(
            triples, num_entities, num_relations, entity_labels, relation_labels
        )

    def _adopt(
        self,
        triples: np.ndarray,
        num_entities: int,
        num_relations: int,
        entity_labels: list[str] | None,
        relation_labels: list[str] | None,
        triple_index: TripleIndex | None = None,
    ) -> None:
        """Take over rows already known valid (and their index, if built)."""
        self.triples = triples
        self.num_entities = num_entities
        self.num_relations = num_relations
        self.entity_labels = entity_labels
        self.relation_labels = relation_labels

        self._triple_index = triple_index
        self._degrees: np.ndarray | None = None
        self._rel_counts: np.ndarray | None = None

    # ------------------------------------------------------------------ basic

    @property
    def num_triples(self) -> int:
        return len(self.triples)

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        for h, r, t in self.triples:
            yield int(h), int(r), int(t)

    def __contains__(self, triple: tuple[int, int, int]) -> bool:
        return self.triple_index().contains(*triple)

    def __repr__(self) -> str:
        return (
            f"KnowledgeGraph(entities={self.num_entities}, "
            f"relations={self.num_relations}, triples={self.num_triples})"
        )

    def triple_index(self) -> TripleIndex:
        """Vectorized membership index over the triples, built lazily.

        The one answer to "is this a known triple": the negative sampler
        probes it for false-negative collisions over a whole batch of
        corruptions, filtered ranking for the known triples in each block
        of candidates, and ``in`` for a single triple (see
        :class:`TripleIndex`).
        """
        if self._triple_index is None:
            self._triple_index = TripleIndex(
                self.triples, self.num_entities, self.num_relations
            )
        return self._triple_index

    # --------------------------------------------------------------- mutation

    def invalidate_caches(self) -> None:
        """Drop every lazily-built derived structure.

        The triple index and the degree/count vectors are all
        memoised on first use; anything that mutates :attr:`triples` in
        place (or the instance's vocabulary sizes) **must** call this, or
        ``in``, the sampler's false-negative filter, filtered ranking and
        ``entity_degrees``/... keep answering for the pre-mutation graph —
        and :meth:`mutated`, which derives the new
        graph's index from this one's, would carry the stale answers
        forward.  :meth:`mutated` itself (the copy-on-extend path used by
        :mod:`repro.stream`) never needs it: the new instance gets its own
        index and starts with every other cache cold.
        """
        self._triple_index = None
        self._degrees = None
        self._rel_counts = None

    def mutated(
        self,
        inserts: np.ndarray | None = None,
        deletes: np.ndarray | None = None,
        num_entities: int | None = None,
        num_relations: int | None = None,
    ) -> "KnowledgeGraph":
        """Copy-on-extend: a new graph with ``deletes`` removed (by value,
        all occurrences; absent triples are ignored) and ``inserts``
        appended, over possibly larger vocabularies.

        This instance is untouched — its memoised caches stay valid.  The
        new graph's :meth:`triple_index` is derived from this one's
        (:meth:`TripleIndex.mutated`), so an update costs probes for the
        rows it names plus straight copies of the arrays, and only the
        inserted rows are range-checked: the surviving ones were when
        they entered.  Its other caches are built lazily, so a grown
        graph's :meth:`entity_degrees` always sees the new triples.
        ``num_entities``/``num_relations`` default to this graph's sizes
        (they may only grow; ids never shrink mid-stream).

        Returns ``self`` when nothing changes: no inserts, no delete that
        matches a row, same vocabularies.
        """
        return self.mutated_with_dead_rows(
            inserts, deletes, num_entities, num_relations
        )[0]

    def mutated_with_dead_rows(
        self,
        inserts: np.ndarray | None = None,
        deletes: np.ndarray | None = None,
        num_entities: int | None = None,
        num_relations: int | None = None,
        *,
        through: Sequence[tuple[int, int]] = (),
    ) -> tuple["KnowledgeGraph", np.ndarray]:
        """:meth:`mutated`, plus the ascending rows of *this* graph the
        deletes removed (what an epoch walk over the old rows needs to
        follow the edit).  ``through``: the vocabularies a folded edit
        grew through on the way (see :meth:`TripleIndex.mutated`)."""
        n_ent = self.num_entities if num_entities is None else int(num_entities)
        n_rel = self.num_relations if num_relations is None else int(num_relations)
        if n_ent < self.num_entities or n_rel < self.num_relations:
            raise ValueError(
                "mutated() cannot shrink vocabularies "
                f"({self.num_entities}->{n_ent} entities, "
                f"{self.num_relations}->{n_rel} relations)"
            )
        inserts, deletes = _as_rows(inserts), _as_rows(deletes)
        _checked_sizes(inserts, n_ent, n_rel)
        grew = n_ent > self.num_entities or n_rel > self.num_relations
        if not (len(inserts) or len(deletes) or grew):
            return self, _NO_ROWS
        dead, index = self.triple_index().mutated(
            inserts, deletes, n_ent, n_rel, through
        )
        if not (len(inserts) or len(dead) or grew):
            return self, dead
        child = KnowledgeGraph.__new__(KnowledgeGraph)
        # Labels cannot cover grown vocabularies; drop them on growth.
        child._adopt(
            drop_rows(self.triples, dead, inserts),
            n_ent,
            n_rel,
            None if grew else self.entity_labels,
            None if grew else self.relation_labels,
            index,
        )
        return child, dead

    # -------------------------------------------------------------- structure

    def entity_degrees(self) -> np.ndarray:
        """Undirected degree of every entity (head + tail appearances).

        Memoised; a copy is returned so callers may mutate freely.
        """
        if self._degrees is None:
            degrees = np.zeros(self.num_entities, dtype=np.int64)
            if len(self.triples):
                np.add.at(degrees, self.triples[:, HEAD], 1)
                np.add.at(degrees, self.triples[:, TAIL], 1)
            self._degrees = degrees
        return self._degrees.copy()

    def relation_counts(self) -> np.ndarray:
        """Number of triples using each relation (memoised; returns a copy)."""
        if self._rel_counts is None:
            counts = np.zeros(self.num_relations, dtype=np.int64)
            if len(self.triples):
                np.add.at(counts, self.triples[:, REL], 1)
            self._rel_counts = counts
        return self._rel_counts.copy()

    def subgraph(self, triple_indices: np.ndarray) -> "KnowledgeGraph":
        """A graph over the same vocabularies containing only the given rows."""
        return KnowledgeGraph(
            self.triples[np.asarray(triple_indices, dtype=np.int64)],
            num_entities=self.num_entities,
            num_relations=self.num_relations,
            entity_labels=self.entity_labels,
            relation_labels=self.relation_labels,
        )

    # ------------------------------------------------------------ construction

    @classmethod
    def from_labeled_triples(
        cls, labeled: Iterable[tuple[str, str, str]]
    ) -> "KnowledgeGraph":
        """Build a graph from string triples, assigning ids in first-seen order."""
        ent_ids: dict[str, int] = {}
        rel_ids: dict[str, int] = {}
        rows = []
        for h, r, t in labeled:
            hid = ent_ids.setdefault(h, len(ent_ids))
            rid = rel_ids.setdefault(r, len(rel_ids))
            tid = ent_ids.setdefault(t, len(ent_ids))
            rows.append((hid, rid, tid))
        return cls(
            np.asarray(rows, dtype=np.int64).reshape(-1, 3),
            num_entities=len(ent_ids),
            num_relations=len(rel_ids),
            entity_labels=list(ent_ids),
            relation_labels=list(rel_ids),
        )


class EditLog:
    """Edits of a graph, answered when recorded and applied when read.

    :meth:`record` takes one edit as :meth:`KnowledgeGraph.mutated` takes
    it — ``(inserts, deletes, num_entities, num_relations)`` — range-checks
    it and says at once, without copying anything, how many rows of the
    graph as edited so far it removes; :meth:`fold` then applies every
    recorded edit in one :meth:`KnowledgeGraph.mutated_with_dead_rows`
    pass over :attr:`base`, the graph as last folded.  The result is the
    graph the edits applied one by one would build, its index included.

    Deletes remove by value: a row of :attr:`base` dies by any recorded
    delete, a recorded insert only by a delete recorded after it (a
    triple deleted and then inserted again survives).  The count is a
    :meth:`TripleIndex.rows_of` probe of :attr:`base`, less the rows
    earlier deletes already removed, plus the live recorded inserts the
    edit kills (a count per triple, no probe).  A counting log also keeps
    :attr:`emptied`: whether some recorded edit left the graph with no
    rows, which ends an epoch walk over it however many rows later edits
    bring.
    """

    def __init__(self, graph: KnowledgeGraph) -> None:
        #: The graph as last folded; the recorded edits apply on top.
        self.base = graph
        self._clear()

    def _clear(self) -> None:
        #: Per recorded edit: its inserts, its deletes and the vocabulary
        #: sizes after it.
        self._inserts: list[np.ndarray] = []
        self._deletes: list[np.ndarray] = []
        self._sizes: list[tuple[int, int]] = []
        #: For the count: live recorded copies of each inserted triple, and
        #: the rows of ``base`` a recorded delete removed (built on use).
        self._live: dict[tuple[int, int, int], int] = {}
        self._removed: np.ndarray | None = None
        #: Rows of the graph as edited so far, and whether a recorded edit
        #: left it with none (kept by a counting log only).
        self._rows = len(self.base)
        self.emptied = False

    @property
    def pending(self) -> int:
        """Edits recorded since the last fold."""
        return len(self._sizes)

    def record(
        self,
        inserts: np.ndarray | None,
        deletes: np.ndarray | None,
        num_entities: int,
        num_relations: int,
        *,
        count: bool = True,
    ) -> int | None:
        """Record one edit; returns how many rows it removes, or ``None``
        when it changes nothing (no inserts, no row deleted, the same
        vocabularies) and so is not recorded.  Raises the errors
        :meth:`KnowledgeGraph.mutated` raises for this edit.

        ``count=False`` keeps nothing for the count — no probe of
        :attr:`base` (nor the index build it may need), no per-triple
        tally — for a caller that wants none: every edit naming anything
        is recorded, and ``None`` returned.
        """
        last = self._sizes[-1] if self._sizes else (
            self.base.num_entities, self.base.num_relations
        )
        n_ent, n_rel = int(num_entities), int(num_relations)
        if n_ent < last[0] or n_rel < last[1]:
            raise ValueError(
                "mutated() cannot shrink vocabularies "
                f"({last[0]}->{n_ent} entities, {last[1]}->{n_rel} relations)"
            )
        inserts, deletes = _as_rows(inserts), _as_rows(deletes)
        _checked_sizes(inserts, n_ent, n_rel)
        grew = (n_ent, n_rel) != last
        removed = None
        if count:
            removed = self._count_removed(deletes) if len(deletes) else 0
            if not (len(inserts) or removed or grew):
                return None
            self._rows += len(inserts) - removed
            self.emptied |= self._rows == 0
            live = self._live
            for triple in map(tuple, inserts.tolist()):
                live[triple] = live.get(triple, 0) + 1
        elif not (len(inserts) or len(deletes) or grew):
            return None
        self._inserts.append(inserts)
        self._deletes.append(deletes)
        self._sizes.append((n_ent, n_rel))
        return removed

    def _count_removed(self, deletes: np.ndarray) -> int:
        """Rows of the graph as edited so far holding any of ``deletes``,
        marked removed."""
        killed = 0
        if self._live:
            for triple in set(map(tuple, deletes.tolist())):
                killed += self._live.pop(triple, 0)
        if not len(self.base):
            return killed
        rows = self.base.triple_index().rows_of(deletes)
        if len(rows):
            if self._removed is None:
                self._removed = np.zeros(len(self.base), dtype=bool)
            rows = rows[~self._removed[rows]]
            self._removed[rows] = True
        return killed + len(rows)

    def _live_inserts(self) -> np.ndarray:
        """The recorded inserts no later recorded delete removed, in the
        order they were recorded."""
        later: set[tuple[int, int, int]] = set()
        kept = []
        for inserts, deletes in zip(self._inserts[::-1], self._deletes[::-1]):
            if later and len(inserts):
                alive = [triple not in later for triple in map(tuple, inserts.tolist())]
                inserts = inserts[np.array(alive, dtype=bool)]
            kept.append(inserts)
            later.update(map(tuple, deletes.tolist()))
        return np.concatenate(kept[::-1])

    def fold(self) -> tuple[KnowledgeGraph, np.ndarray]:
        """Apply the recorded edits; returns the new :attr:`base` and the
        ascending rows of the old one they removed.  The appended rows
        are the live recorded inserts, in the order they were recorded."""
        if not self._sizes:
            return self.base, _NO_ROWS
        self.base, dead = self.base.mutated_with_dead_rows(
            self._live_inserts(),
            np.concatenate(self._deletes),
            *self._sizes[-1],
            through=self._sizes[:-1],
        )
        self._clear()
        return self.base, dead
