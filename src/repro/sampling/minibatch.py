"""Epoch-level mini-batch iteration over a worker's local subgraph.

The sampler shuffles the worker's triple indices each epoch and yields
fixed-size positive batches.  It also supports *prefetching* — producing
the next ``D`` iterations' batches up front — which is the substrate of
the paper's Algorithm 1.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.kg.graph import EditLog, KnowledgeGraph, renumber_rows
from repro.obs.tracer import NULL_SCOPE
from repro.sampling.negative import MiniBatch, NegativeSampler
from repro.utils.rng import make_rng
from repro.utils.validation import check_positive


class EpochSampler:
    """Yields :class:`MiniBatch` objects over a local subgraph.

    Parameters
    ----------
    graph:
        The worker's local partition of the training triples.
    batch_size:
        Positives per batch (``b`` in the paper's Table II).
    negative_sampler:
        Corruption strategy shared across batches.
    drop_last:
        Drop a trailing batch smaller than ``batch_size`` (default keeps it).
    """

    def __init__(
        self,
        graph: KnowledgeGraph,
        batch_size: int,
        negative_sampler: NegativeSampler,
        drop_last: bool = False,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        check_positive("batch_size", batch_size)
        self.graph = graph
        self.batch_size = batch_size
        self.negative_sampler = negative_sampler
        self.drop_last = drop_last
        self._rng = make_rng(seed)
        self._order: np.ndarray = np.empty(0, dtype=np.int64)
        self._cursor = 0
        #: The owning worker's trace scope (set by ``Worker.attach``).
        self.trace = NULL_SCOPE

    @property
    def graph(self) -> KnowledgeGraph:
        """The local subgraph, every recorded stream edit folded in."""
        if self._log.pending:
            self._fold()
        return self._log.base

    @graph.setter
    def graph(self, graph: KnowledgeGraph) -> None:
        self._log = EditLog(graph)

    # ----------------------------------------------------------------- sizing

    @property
    def batches_per_epoch(self) -> int:
        n = self.graph.num_triples
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    # -------------------------------------------------------------- iteration

    def _reshuffle(self) -> None:
        self._order = self._rng.permutation(self.graph.num_triples)
        self._cursor = 0

    def next_batch(self) -> MiniBatch:
        """Produce the next batch, reshuffling at epoch boundaries."""
        graph = self.graph
        if graph.num_triples == 0:
            raise ValueError("cannot sample from an empty subgraph")
        if self._cursor >= len(self._order):
            self._reshuffle()
        remaining = len(self._order) - self._cursor
        if self.drop_last and remaining < self.batch_size:
            self._reshuffle()
        take = min(self.batch_size, len(self._order) - self._cursor)
        idx = self._order[self._cursor : self._cursor + take]
        self._cursor += take
        positives = graph.triples[idx]
        return self.negative_sampler.corrupt(positives)

    # -------------------------------------------------------------- streaming

    def record(
        self,
        inserts: np.ndarray,
        deletes: np.ndarray,
        num_entities: int,
        num_relations: int,
    ) -> int | None:
        """Record a stream edit of the local subgraph (see
        :meth:`~repro.kg.graph.EditLog.record`): returns how many local
        rows it removes, or ``None`` when it changes nothing here.

        The edit is folded in when :attr:`graph` is next read — by the
        next batch drawn, at the latest.  Only the corruption pool grows
        at once: a hard-negative refresh draws from it between batches.
        """
        removed = self._log.record(inserts, deletes, num_entities, num_relations)
        if removed is not None:
            self.negative_sampler.resize(num_entities)
        return removed

    def _fold(self) -> None:
        """Fold the recorded edits in without breaking the epoch walk.

        The new graph holds the surviving rows first (in original order),
        then the appended ones.  The in-flight epoch is preserved
        deterministically: surviving not-yet-consumed positions keep
        their shuffled order (remapped to the new row indices), consumed
        positions stay consumed, and the appended rows join the walk at
        the end of the current epoch — the next reshuffle mixes them in
        fully.  If one of the edits left the graph empty, the walk ends
        there and the next batch reshuffles, whatever later edits
        appended.  No RNG draws are consumed, so an update-free stream
        leaves the sample sequence bit-identical.  The ``ingest.fold``
        span advances no clock: the edits were charged when recorded.
        """
        log = self._log
        old_n, emptied = log.base.num_triples, log.emptied
        with self.trace.span("ingest.fold", "ingest", edits=log.pending) as span:
            graph, dead = log.fold()
            kept = old_n - len(dead)
            span.set(removed=len(dead), appended=graph.num_triples - kept)
            if emptied or len(self._order) == 0:
                # First epoch not started yet, or a recorded edit left the
                # graph empty, which ends the walk there as it does edit by
                # edit: next_batch() reshuffles lazily.
                self._order, self._cursor = self._order[:0], 0
                return
            order = self._order
            if len(dead):
                # Old row index -> new row index for survivors (-1 for deleted).
                order = renumber_rows(old_n, dead)[order]
                alive = order >= 0
                self._cursor = int(np.count_nonzero(alive[: self._cursor]))
                order = order[alive]
            appended = np.arange(kept, graph.num_triples, dtype=np.int64)
            self._order = np.concatenate([order, appended])

    def prefetch(self, count: int) -> list[MiniBatch]:
        """Produce the next ``count`` batches eagerly (Algorithm 1's input).

        The returned batches are exactly the ones subsequent
        :meth:`next_batch` calls would have yielded, so training on a
        prefetched list is equivalent to training live.
        """
        check_positive("count", count)
        return [self.next_batch() for _ in range(count)]

    def epoch(self) -> Iterator[MiniBatch]:
        """Iterate exactly one epoch of batches."""
        for _ in range(self.batches_per_epoch):
            yield self.next_batch()
