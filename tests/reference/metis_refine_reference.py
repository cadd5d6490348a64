"""Reference oracle: boundary refinement that recounts connections per pass.

``_refine`` of ``repro/partition/metis.py`` as it stood before it kept one
vertex-to-part connection table per level: every pass starts with a
``bincount`` over every edge of the level, the CSR arrays are copied to
Python lists, and an evaluated vertex sums its row into a ``dict`` of part
-> edge weight whose insertion order (the order the row meets the parts)
breaks ties.  Moved verbatim; ``_rebalance`` is the live one, which the
rewrite did not touch.  ``tests/test_metis_equivalence.py`` holds the live
refinement to it: parts byte-equal and every pass's ``evaluated`` and
``moved`` counts equal.  Not imported by ``src/``.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.partition.metis import _Level, _rebalance


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
