"""Reference oracle: the list-of-dict multilevel partitioner.

This is ``repro/partition/metis.py`` as it stood before the CSR rewrite —
``adjacency[v]`` a ``dict`` of neighbour -> weight whose *insertion order*
decides three tie-breaks (first heaviest neighbour in the matching, first
best part in the refinement, first-inserted maximum in greedy growing), a
refinement that visits every vertex on every pass — moved verbatim, with
one change: ``_rebalance`` sorts with ``kind="stable"`` (the default sort
is unstable and CPU-dependent among tied weights, so the order in which
tied vertices leave an overweight part was not reproducible across
machines; the rewrite carries the same fix).
``tests/test_metis_equivalence.py`` holds the CSR partitioner to it:
partitions byte-equal and the shared generator left in the same state.
Not imported by ``src/``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kg.graph import HEAD, TAIL, KnowledgeGraph
from repro.partition.base import Partition, assign_triples
from repro.utils.rng import make_rng


@dataclass
class _Level:
    """One graph in the coarsening hierarchy."""

    adjacency: list[dict[int, int]]  # vertex -> {neighbor: edge weight}
    vertex_weight: np.ndarray  # (n,) how many original vertices each represents
    fine_to_coarse: np.ndarray | None  # map from the finer level, None at the top


def _graph_adjacency(graph: KnowledgeGraph) -> list[dict[int, int]]:
    """Weighted undirected adjacency; parallel triples merge into weight."""
    adjacency: list[dict[int, int]] = [dict() for _ in range(graph.num_entities)]
    heads = graph.triples[:, HEAD]
    tails = graph.triples[:, TAIL]
    for h, t in zip(heads.tolist(), tails.tolist()):
        if h == t:
            continue
        adjacency[h][t] = adjacency[h].get(t, 0) + 1
        adjacency[t][h] = adjacency[t].get(h, 0) + 1
    return adjacency


def _heavy_edge_matching(
    adjacency: list[dict[int, int]],
    vertex_weight: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Match each vertex with its heaviest unmatched neighbor.

    Returns ``match`` where ``match[v]`` is the partner of ``v`` (or ``v``
    itself when unmatched).  Visiting order is randomised, as in METIS, to
    avoid pathological orderings.
    """
    n = len(adjacency)
    match = np.full(n, -1, dtype=np.int64)
    for v in rng.permutation(n):
        v = int(v)
        if match[v] != -1:
            continue
        best, best_w = v, -1
        for u, w in adjacency[v].items():
            if match[u] == -1 and u != v and w > best_w:
                best, best_w = u, w
        match[v] = best
        match[best] = v
    return match


def _contract(
    adjacency: list[dict[int, int]],
    vertex_weight: np.ndarray,
    match: np.ndarray,
) -> _Level:
    """Contract matched pairs into coarse vertices."""
    n = len(adjacency)
    fine_to_coarse = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for v in range(n):
        if fine_to_coarse[v] != -1:
            continue
        fine_to_coarse[v] = next_id
        partner = int(match[v])
        if partner != v:
            fine_to_coarse[partner] = next_id
        next_id += 1

    coarse_adj: list[dict[int, int]] = [dict() for _ in range(next_id)]
    coarse_weight = np.zeros(next_id, dtype=np.int64)
    for v in range(n):
        cv = int(fine_to_coarse[v])
        coarse_weight[cv] += vertex_weight[v]
        row = coarse_adj[cv]
        for u, w in adjacency[v].items():
            cu = int(fine_to_coarse[u])
            if cu == cv:
                continue
            row[cu] = row.get(cu, 0) + w
    return _Level(coarse_adj, coarse_weight, fine_to_coarse)


def _greedy_grow(
    adjacency: list[dict[int, int]],
    vertex_weight: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Initial partition by greedy region growing on the coarsest graph.

    Each part grows from an unassigned seed, always absorbing the frontier
    vertex with the strongest connection to the part, until it reaches the
    target weight.  Leftovers go to the lightest part.
    """
    n = len(adjacency)
    total = int(vertex_weight.sum())
    target = total / k
    part = np.full(n, -1, dtype=np.int64)
    part_weight = np.zeros(k, dtype=np.int64)
    order = list(rng.permutation(n))

    for p in range(k - 1):
        seed = next((int(v) for v in order if part[v] == -1), None)
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
            for u, w in adjacency[v].items():
                if part[u] == -1:
                    frontier[u] = frontier.get(u, 0) + w

    for v in range(n):
        if part[v] == -1:
            p = int(np.argmin(part_weight))
            part[v] = p
            part_weight[p] += vertex_weight[v]
    return part


def _refine(
    adjacency: list[dict[int, int]],
    vertex_weight: np.ndarray,
    part: np.ndarray,
    k: int,
    imbalance: float,
    passes: int,
) -> np.ndarray:
    """Boundary FM refinement: greedily move vertices to reduce edge cut.

    A vertex may move to the neighboring part where it has the most edge
    weight, provided the move strictly reduces the cut and keeps every part
    under ``(1 + imbalance) * target`` weight.
    """
    total = int(vertex_weight.sum())
    max_weight = (1.0 + imbalance) * total / k
    part = part.copy()
    part_weight = np.bincount(part, weights=vertex_weight, minlength=k)

    for _ in range(passes):
        moved = 0
        for v in range(len(adjacency)):
            row = adjacency[v]
            if not row:
                continue
            home = int(part[v])
            # Edge weight towards each adjacent part.
            gain_to: dict[int, int] = {}
            for u, w in row.items():
                gain_to[int(part[u])] = gain_to.get(int(part[u]), 0) + w
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
                part[v] = best_p
                moved += 1
        if moved == 0:
            break
    _rebalance(adjacency, vertex_weight, part, part_weight, k, max_weight)
    return part


def _rebalance(
    adjacency: list[dict[int, int]],
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
        self.imbalance = imbalance
        self.coarsen_to = coarsen_to
        self.refine_passes = refine_passes
        self._rng = make_rng(seed)

    def partition(self, graph: KnowledgeGraph, k: int) -> Partition:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        n = graph.num_entities
        if k == 1:
            return assign_triples(graph, np.zeros(n, dtype=np.int64), 1)
        if k >= n:
            # Degenerate: one entity per part (extra parts stay empty).
            return assign_triples(graph, np.arange(n, dtype=np.int64), k)

        # Phase 1: coarsen.
        levels = [_Level(_graph_adjacency(graph), np.ones(n, dtype=np.int64), None)]
        floor = max(self.coarsen_to, 8 * k)
        while len(levels[-1].adjacency) > floor:
            current = levels[-1]
            match = _heavy_edge_matching(
                current.adjacency, current.vertex_weight, self._rng
            )
            coarse = _contract(current.adjacency, current.vertex_weight, match)
            # Stop if coarsening stalls (e.g. star graphs match poorly).
            if len(coarse.adjacency) > 0.95 * len(current.adjacency):
                break
            levels.append(coarse)

        # Phase 2: initial partition on the coarsest level.
        coarsest = levels[-1]
        part = _greedy_grow(
            coarsest.adjacency, coarsest.vertex_weight, k, self._rng
        )
        part = _refine(
            coarsest.adjacency,
            coarsest.vertex_weight,
            part,
            k,
            self.imbalance,
            self.refine_passes,
        )

        # Phase 3: project back and refine at each finer level.
        for i in range(len(levels) - 1, 0, -1):
            fine_to_coarse = levels[i].fine_to_coarse
            assert fine_to_coarse is not None
            part = part[fine_to_coarse]
            part = _refine(
                levels[i - 1].adjacency,
                levels[i - 1].vertex_weight,
                part,
                k,
                self.imbalance,
                self.refine_passes,
            )
        return assign_triples(graph, part, k)
