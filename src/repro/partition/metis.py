"""Multilevel k-way graph partitioner in the style of METIS.

The paper relies on METIS [Karypis & Kumar] to place entities on machines so
that most triples are machine-local.  This module reimplements the same
three-phase multilevel scheme:

1. **Coarsening** — repeatedly contract a heavy-edge matching until the
   graph is small.
2. **Initial partitioning** — greedy graph growing on the coarsest graph.
3. **Uncoarsening + refinement** — project the partition back level by
   level, running boundary Kernighan–Lin/FM moves that reduce edge cut
   while keeping parts balanced.

Vertices carry weights (number of original entities they represent) so the
balance constraint is on entity counts, matching METIS's behaviour.

Every graph in the hierarchy is CSR (``indptr / indices / weights``), built
by one primitive, :func:`_group`.  The order of a row's neighbours is part
of the contract, not an accident of the layout: it is the order in which
the neighbours first occur in the edge stream the level was built from, and
three tie-breaks read it — the first heaviest neighbour in the matching,
the first best part in the refinement, the first-reached maximum in greedy
growing.  ``tests/test_metis_equivalence.py`` holds partitions and the
generator's state to the list-of-dict predecessor kept in
``tests/reference/metis_reference.py``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.kg.graph import HEAD, TAIL, KnowledgeGraph
from repro.partition.base import Partition, assign_triples
from repro.utils.rng import make_rng


@dataclass
class _Level:
    """One graph in the coarsening hierarchy, as weighted undirected CSR."""

    indptr: np.ndarray  # (n + 1,) row v is indices[indptr[v]:indptr[v + 1]]
    indices: np.ndarray  # neighbours, each row in first-occurrence order
    weights: np.ndarray  # edge weight per entry of ``indices``
    vertex_weight: np.ndarray  # (n,) how many original vertices each represents
    fine_to_coarse: np.ndarray | None  # map from the finer level, None at the top

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_weight)

    def sources(self) -> np.ndarray:
        """Row id of every entry of ``indices``."""
        return np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), np.diff(self.indptr)
        )


def _group(
    key: np.ndarray, weight: np.ndarray | None, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR of a directed edge stream over ``n`` vertices.

    Entry ``i`` of the stream is the edge ``key[i] // n -> key[i] % n`` of
    weight ``weight[i]`` (1 when ``weight`` is None).  Self-loops are
    dropped and parallel entries merge into one carrying their summed
    weight.  Within a row, neighbours keep the order of their first
    occurrence in the stream.
    """
    keep = key // n != key % n
    key = key[keep]
    by_key = np.argsort(key)
    key = key[by_key]
    run_start = np.ones(len(key), dtype=bool)
    run_start[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(run_start)
    if weight is None:
        merged = np.diff(starts, append=len(key))
    else:
        merged = np.add.reduceat(weight[keep][by_key], starts)
    # The sort need not be stable: a run's smallest stream position is the
    # key's first occurrence whatever the order within the run.
    first = np.minimum.reduceat(by_key, starts)
    stream = len(key)
    key = key[starts]
    row = key // n
    # Rows ascending, each by first occurrence; the keys are distinct, so
    # this order does not depend on the sort either.
    in_row = np.argsort(row * stream + first)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    return indptr, (key % n)[in_row], merged[in_row]


def _graph_level(graph: KnowledgeGraph) -> _Level:
    """The finest level: every triple is an undirected edge of weight 1."""
    n = graph.num_entities
    heads = graph.triples[:, HEAD].astype(np.int64, copy=False)
    tails = graph.triples[:, TAIL].astype(np.int64, copy=False)
    # (h0, t0), (t0, h0), (h1, t1), ... — each triple reaches both rows.
    key = np.empty((len(heads), 2), dtype=np.int64)
    key[:, 0] = heads * n + tails
    key[:, 1] = tails * n + heads
    return _Level(*_group(key.ravel(), None, n), np.ones(n, dtype=np.int64), None)


def _heavy_edge_matching(level: _Level, rng: np.random.Generator) -> np.ndarray:
    """Match each vertex with its heaviest unmatched neighbor.

    Returns ``match`` where ``match[v]`` is the partner of ``v`` (or ``v``
    itself when unmatched).  Visiting order is randomised, as in METIS, to
    avoid pathological orderings.
    """
    indptr = level.indptr.tolist()
    indices = level.indices.tolist()
    weights = level.weights.tolist()
    match = [-1] * level.num_vertices
    for v in rng.permutation(level.num_vertices).tolist():
        if match[v] != -1:
            continue
        best, best_w = v, -1
        for j in range(indptr[v], indptr[v + 1]):
            if weights[j] > best_w and match[indices[j]] == -1:
                best, best_w = indices[j], weights[j]
        match[v] = best
        match[best] = v
    return np.array(match, dtype=np.int64)


def _coarse_ids(match: np.ndarray) -> tuple[np.ndarray, int]:
    """Number matched pairs by their smaller member, ascending."""
    ids = np.arange(len(match), dtype=np.int64)
    smaller = np.minimum(ids, match)
    rank = np.cumsum(smaller == ids) - 1
    return rank[smaller], int(rank[-1]) + 1


def _contract(level: _Level, fine_to_coarse: np.ndarray, num_coarse: int) -> _Level:
    """Contract matched pairs into coarse vertices."""
    return _Level(
        *_group(
            fine_to_coarse[level.sources()] * num_coarse
            + fine_to_coarse[level.indices],
            level.weights,
            num_coarse,
        ),
        np.bincount(
            fine_to_coarse, weights=level.vertex_weight, minlength=num_coarse
        ).astype(np.int64),
        fine_to_coarse,
    )


def _greedy_grow(level: _Level, k: int, rng: np.random.Generator) -> np.ndarray:
    """Initial partition by greedy region growing on the coarsest graph.

    Each part grows from an unassigned seed, always absorbing the frontier
    vertex with the strongest connection to the part, until it reaches the
    target weight.  Leftovers go to the lightest part.
    """
    n = level.num_vertices
    indptr = level.indptr.tolist()
    indices = level.indices.tolist()
    weights = level.weights.tolist()
    vertex_weight = level.vertex_weight
    target = int(vertex_weight.sum()) / k
    part = np.full(n, -1, dtype=np.int64)
    part_weight = np.zeros(k, dtype=np.int64)
    order = rng.permutation(n).tolist()

    for p in range(k - 1):
        seed = next((v for v in order if part[v] == -1), None)
        if seed is None:
            break
        frontier: dict[int, int] = {seed: 0}
        while frontier and part_weight[p] < target:
            v = max(frontier, key=frontier.get)
            del frontier[v]
            if part[v] != -1:
                continue
            part[v] = p
            part_weight[p] += vertex_weight[v]
            for j in range(indptr[v], indptr[v + 1]):
                u = indices[j]
                if part[u] == -1:
                    frontier[u] = frontier.get(u, 0) + weights[j]

    for v in range(n):
        if part[v] == -1:
            p = int(np.argmin(part_weight))
            part[v] = p
            part_weight[p] += vertex_weight[v]
    return part


def _refine(
    level: _Level,
    part: np.ndarray,
    k: int,
    imbalance: float,
    passes: int,
) -> tuple[np.ndarray, list[dict[str, int]]]:
    """Boundary FM refinement: greedily move vertices to reduce edge cut.

    A vertex may move to the neighboring part where it has the most edge
    weight, provided the move strictly reduces the cut and keeps every part
    under ``(1 + imbalance) * target`` weight.

    A pass is a sweep in ascending vertex order that only stops at vertices
    that can move.  A vertex with no part strictly better connected than
    its home cannot, whatever the part weights are, so the pass starts from
    the others (one ``bincount`` finds them) and a move adds the mover's
    larger neighbours, whose connections it changed; smaller ones have been
    passed and wait for the next pass.  Returns the refined partition and,
    per pass run, how many vertices were ``evaluated`` and ``moved``.
    """
    n = level.num_vertices
    total = int(level.vertex_weight.sum())
    max_weight = (1.0 + imbalance) * total / k
    part = part.copy()
    part_weight = np.bincount(part, weights=level.vertex_weight, minlength=k)
    stats: list[dict[str, int]] = []
    src_k = level.sources() * k
    rows = np.arange(n)
    indptr = level.indptr.tolist()
    indices = level.indices.tolist()
    weights = level.weights.tolist()
    vertex_weight = level.vertex_weight.tolist()
    part_of = part.tolist()

    for _ in range(passes):
        # (n, k) edge weight from every vertex towards every part.
        towards = np.bincount(
            src_k + part[level.indices], weights=level.weights, minlength=n * k
        ).reshape(n, k)
        can_move = towards.max(axis=1) > towards[rows, part]
        queue = np.flatnonzero(can_move).tolist()  # ascending: already a heap
        queued = can_move.tolist()
        evaluated = moved = 0
        while queue:
            v = heapq.heappop(queue)
            evaluated += 1
            home = part_of[v]
            row = range(indptr[v], indptr[v + 1])
            # Edge weight towards each adjacent part.
            gain_to: dict[int, int] = {}
            for j in row:
                p = part_of[indices[j]]
                gain_to[p] = gain_to.get(p, 0) + weights[j]
            internal = gain_to.get(home, 0)
            best_p, best_gain = home, 0
            for p, w in gain_to.items():
                if p == home:
                    continue
                gain = w - internal
                if gain > best_gain and part_weight[p] + vertex_weight[v] <= max_weight:
                    best_p, best_gain = p, gain
            if best_p != home:
                part_weight[home] -= vertex_weight[v]
                part_weight[best_p] += vertex_weight[v]
                part[v] = part_of[v] = best_p
                moved += 1
                for j in row:
                    u = indices[j]
                    if u > v and not queued[u]:
                        queued[u] = True
                        heapq.heappush(queue, u)
        stats.append({"evaluated": evaluated, "moved": moved})
        if moved == 0:
            break
    _rebalance(level.vertex_weight, part, part_weight, k, max_weight)
    return part, stats


def _rebalance(
    vertex_weight: np.ndarray,
    part: np.ndarray,
    part_weight: np.ndarray,
    k: int,
    max_weight: float,
) -> None:
    """Force overweight parts under the balance limit (in place).

    Greedy growing can overshoot badly when a single coarse vertex carries
    many original entities, and cut-driven FM moves never fix pure
    imbalance.  This pass moves vertices out of overweight parts into the
    lightest part, lightest vertices first, until every part fits (or no
    movable vertex remains).
    """
    if not (part_weight > max_weight).any():
        return
    # Stable: which of two equally light vertices leaves first must not
    # depend on the machine's sort kernel.
    order = np.argsort(vertex_weight, kind="stable")  # move cheap vertices first
    for p in range(k):
        if part_weight[p] <= max_weight:
            continue
        for v in order:
            if part_weight[p] <= max_weight:
                break
            v = int(v)
            if part[v] != p:
                continue
            target = int(np.argmin(part_weight))
            if target == p:
                break
            part_weight[p] -= vertex_weight[v]
            part_weight[target] += vertex_weight[v]
            part[v] = target


class MetisPartitioner:
    """METIS-style multilevel k-way partitioner.

    Parameters
    ----------
    imbalance:
        Allowed part-weight slack (0.05 = parts may exceed the ideal size by
        5%), matching METIS's default ``ufactor``.
    coarsen_to:
        Stop coarsening when the graph has at most ``max(coarsen_to, 8 * k)``
        vertices.
    refine_passes:
        FM passes per uncoarsening level.

    After :meth:`partition`, ``report`` says what the call did: ``levels``
    (finest first; ``vertices``, ``edges`` and, per refinement pass run,
    the vertices ``evaluated`` and ``moved``) and the wall seconds spent in
    each phase (``coarsen_s``, ``initial_s``, ``refine_s``).
    """

    def __init__(
        self,
        imbalance: float = 0.05,
        coarsen_to: int = 128,
        refine_passes: int = 4,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if imbalance < 0:
            raise ValueError(f"imbalance must be >= 0, got {imbalance}")
        if coarsen_to < 1:
            raise ValueError(f"coarsen_to must be >= 1, got {coarsen_to}")
        if refine_passes < 0:
            raise ValueError(f"refine_passes must be >= 0, got {refine_passes}")
        self.imbalance = imbalance
        self.coarsen_to = coarsen_to
        self.refine_passes = refine_passes
        self._rng = make_rng(seed)
        self.report: dict = {}

    def partition(self, graph: KnowledgeGraph, k: int) -> Partition:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        n = graph.num_entities
        self.report = {"levels": [], "coarsen_s": 0.0, "initial_s": 0.0, "refine_s": 0.0}
        if k == 1:
            return assign_triples(graph, np.zeros(n, dtype=np.int64), 1)
        if k >= n:
            # Degenerate: one entity per part (extra parts stay empty).
            return assign_triples(graph, np.arange(n, dtype=np.int64), k)

        # Phase 1: coarsen.
        t0 = perf_counter()
        levels = [_graph_level(graph)]
        floor = max(self.coarsen_to, 8 * k)
        while levels[-1].num_vertices > floor:
            current = levels[-1]
            fine_to_coarse, num_coarse = _coarse_ids(
                _heavy_edge_matching(current, self._rng)
            )
            # Stop if coarsening stalls (e.g. star graphs match poorly).
            if num_coarse > 0.95 * current.num_vertices:
                break
            levels.append(_contract(current, fine_to_coarse, num_coarse))
        refined: list[list[dict[str, int]]] = [[] for _ in levels]

        # Phase 2: initial partition on the coarsest level.
        t1 = perf_counter()
        part = _greedy_grow(levels[-1], k, self._rng)

        # Phase 3: refine, then project back and refine at each finer level.
        t2 = perf_counter()
        for i in range(len(levels) - 1, -1, -1):
            part, refined[i] = _refine(
                levels[i], part, k, self.imbalance, self.refine_passes
            )
            if i:
                part = part[levels[i].fine_to_coarse]
        t3 = perf_counter()
        self.report = {
            "levels": [
                {
                    "vertices": level.num_vertices,
                    "edges": len(level.indices) // 2,
                    "refine": passes,
                }
                for level, passes in zip(levels, refined)
            ],
            "coarsen_s": t1 - t0,
            "initial_s": t2 - t1,
            "refine_s": t3 - t2,
        }
        return assign_triples(graph, part, k)
