"""Read-only embedding store for inference.

Bridges training and serving: a checkpoint written by
:func:`repro.core.checkpoint.save_checkpoint` is loaded back into the same
:class:`~repro.ps.kvstore.ShardedKVStore` the trainer used, together with
the scoring model named in the checkpoint metadata.  The serving frontend
then pulls rows through the store's ownership map so the simulated
communication cost of a cache miss matches the training-side cost model.

The store is deliberately read-only — serving never writes embeddings —
so it can be shared by any number of frontends.
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np

from repro.core.checkpoint import read_checkpoint
from repro.models.base import KGEModel, get_model
from repro.ps.kvstore import ShardedKVStore
from repro.serving.queries import (
    HEAD_PREDICTION,
    SCORE,
    TAIL_PREDICTION,
    Query,
)
from repro.utils.validation import check_positive


def check_top_k(k: int) -> None:
    """An answer holds at least one candidate: ``k < 1`` would rank all
    but ``-k`` of them (``k < 0``) or none (``k = 0``)."""
    if type(k) is bool or not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"top_k must be a positive integer, got {k!r}")


class EmbeddingStore:
    """A trained model's embedding tables behind a sharded ownership map.

    Parameters
    ----------
    model:
        The scoring function (geometry must match the tables).
    store:
        Sharded tables with per-row ownership; misses on non-local rows
        are charged as remote traffic by the frontend.
    """

    def __init__(self, model: KGEModel, store: ShardedKVStore) -> None:
        ent_width = store.row_width("entity")
        rel_width = store.row_width("relation")
        if ent_width != model.entity_dim or rel_width != model.relation_dim:
            raise ValueError(
                f"table widths (entity={ent_width}, relation={rel_width}) do "
                f"not match model geometry (entity={model.entity_dim}, "
                f"relation={model.relation_dim})"
            )
        self.model = model
        self.store = store

    # ------------------------------------------------------------ construction

    @classmethod
    def from_checkpoint(
        cls,
        path: str | os.PathLike[str],
        num_machines: int = 1,
        entity_owner: np.ndarray | None = None,
        backing: str = "resident",
        tier=None,
    ) -> "EmbeddingStore":
        """Load a ``core/checkpoint.py`` archive into a serving store.

        Parameters
        ----------
        num_machines:
            Simulated shard count for the serving tier.  ``1`` co-locates
            everything with the frontend (all misses are local pulls).
        entity_owner:
            Optional explicit row->shard map (e.g. the training METIS
            partition).  Defaults to round-robin.
        backing:
            ``"resident"`` (default) or ``"tiered"`` — serve a checkpoint
            larger than the budget by gathering through hot/warm/cold
            tiers (see :mod:`repro.tier`).
        tier:
            Optional :class:`~repro.tier.runtime.TierConfig` for the
            tiered backing.
        """
        check_positive("num_machines", num_machines)
        meta, tables = read_checkpoint(path, ("entity", "relation"))
        entity_table = tables["entity"]
        model = get_model(meta["model"], meta["dim"])
        if entity_owner is None:
            entity_owner = np.arange(len(entity_table), dtype=np.int64) % num_machines
        store = ShardedKVStore(
            entity_table,
            tables["relation"],
            entity_owner,
            num_machines,
            backing=backing,
            tier=tier,
        )
        return cls(model, store)

    @classmethod
    def from_trainer(cls, trainer) -> "EmbeddingStore":
        """Wrap a trained :class:`~repro.core.trainer.HETKGTrainer` in place.

        Zero-copy: the serving store shares the trainer's tables *and* its
        ownership map, so serving-side shard locality matches the training
        partition (the co-located layout of §V).
        """
        if trainer.server is None:
            raise RuntimeError("trainer has no state yet; call setup() or train()")
        return cls(trainer.model, trainer.server.store)

    def with_backing(self, backing: str, tier=None) -> "EmbeddingStore":
        """A new store over the same embeddings under a different backing.

        Used by ``serve-bench --backing tiered``: re-tier a trained (or
        loaded) store under a serving-side budget; ownership and shard
        count carry over unchanged.
        """
        return EmbeddingStore(self.model, self.store.copy(backing, tier))

    # ----------------------------------------------------------------- queries

    @property
    def num_entities(self) -> int:
        return len(self.store.table("entity"))

    @property
    def num_relations(self) -> int:
        return len(self.store.table("relation"))

    def gather(self, kind: str, ids: np.ndarray) -> np.ndarray:
        """Rows ``ids`` of table ``kind`` (no traffic accounting)."""
        return self.store.read(kind, ids)

    def score_triples(
        self, heads: np.ndarray, relations: np.ndarray, tails: np.ndarray
    ) -> np.ndarray:
        """Plausibility score per ``(h, r, t)`` row of the batch."""
        h = self.store.table("entity")[np.asarray(heads, dtype=np.int64)]
        r = self.store.table("relation")[np.asarray(relations, dtype=np.int64)]
        t = self.store.table("entity")[np.asarray(tails, dtype=np.int64)]
        return self.model.score(
            np.ascontiguousarray(h),
            np.ascontiguousarray(r),
            np.ascontiguousarray(t),
        )

    def rank_candidates(
        self,
        head: int | None,
        relation: int,
        tail: int | None,
        candidates: np.ndarray,
        k: int = 10,
    ) -> np.ndarray:
        """Top-``k`` candidate entity ids, best first.

        Exactly one of ``head``/``tail`` must be ``None`` — that side is
        filled from ``candidates``.  One query answered as a dispatch of
        one (:meth:`answer`).
        """
        if (head is None) == (tail is None):
            raise ValueError("exactly one of head/tail must be None")
        query = Query(
            qid=0,
            kind=TAIL_PREDICTION if tail is None else HEAD_PREDICTION,
            head=head,
            relation=relation,
            tail=tail,
            arrival=0.0,
            candidates=candidates,
        )
        return self.answer([query], k)[0]

    def answer(self, queries: Sequence[Query], k: int) -> list[float | np.ndarray]:
        """Every query's answer from one entity read, one relation read
        and one ``model.score``.

        The entity read asks for each query's rows in query order — a
        score query's head and tail, a prediction's anchor then its
        candidates, nothing for a prediction without candidates — and the
        relation read for the relation of each query that read rows, so a
        tiered table counts the rows that scoring each query on its own
        would.  A score query answers its score; a prediction the top
        ``min(k, n)`` of its ``n`` candidates as a fresh int64 array: best
        score first, ties to the lower id.
        """
        check_top_k(k)
        reads = []  # (anchor, candidates) of each query that reads rows
        relation_ids: list[int] = []
        anchors: list[int] = []  # where each reading query's rows start
        sizes: list[int] = []  # rows each reading query scores
        fills_head: list[bool] = []
        rows = 0
        for query in queries:
            # A score query is its head anchoring one tail candidate.
            if query.kind == SCORE:
                anchor, candidates, n = query.head, query.tail, 1
            elif len(query.candidates):
                anchor = query.tail if query.kind == HEAD_PREDICTION else query.head
                candidates = query.candidates
                n = len(candidates)
            else:
                continue
            reads.append((anchor, candidates))
            anchors.append(rows)
            rows += 1 + n
            sizes.append(n)
            relation_ids.append(query.relation)
            fills_head.append(query.kind == HEAD_PREDICTION)
        if not sizes:
            return [np.empty(0, dtype=np.int64) for _ in queries]
        entities = np.empty(rows, dtype=np.int64)
        for start, n, (anchor, candidates) in zip(anchors, sizes, reads):
            entities[start] = anchor
            entities[start + 1 : start + 1 + n] = candidates
        ent = self.gather("entity", entities)
        rel = self.gather("relation", np.array(relation_ids, dtype=np.int64))
        # Score row i, of reading query q, pairs q's anchor with the
        # candidate at ent[i + q + 1]: q's rows are its anchor, then one
        # row per candidate.
        counts = np.array(sizes)
        owner = np.arange(len(sizes)).repeat(counts)
        cand = owner + np.arange(1, len(owner) + 1)
        anchor = np.array(anchors).repeat(counts)
        head_side = np.array(fills_head).repeat(counts)
        scores = self.model.score(
            ent.take(np.where(head_side, cand, anchor), axis=0),
            rel.take(owner, axis=0),
            ent.take(np.where(head_side, anchor, cand), axis=0),
        )
        ids = entities.take(cand)
        order = np.lexsort((ids, -scores, owner))
        answers: list[float | np.ndarray] = []
        row = 0
        for query in queries:
            if query.kind == SCORE:
                answers.append(float(scores[row]))
                row += 1
            else:
                n = len(query.candidates)
                answers.append(ids.take(order[row : row + min(k, n)]))
                row += n
        return answers

    def memory_bytes(self) -> int:
        return self.store.memory_bytes()

    def memory_report(self) -> dict:
        """Per-kind/per-tier byte breakdown (see ``ShardedKVStore``)."""
        return self.store.memory_report()

    def __repr__(self) -> str:
        return (
            f"EmbeddingStore(model={self.model.name}, "
            f"entities={self.num_entities}, relations={self.num_relations}, "
            f"machines={self.store.num_machines})"
        )
