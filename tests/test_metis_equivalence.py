"""The CSR partitioner against the list-of-dict one it replaced.

``repro/partition/metis.py`` keeps every graph of the coarsening hierarchy
as CSR arrays and refines only the vertices that can move;
``tests/reference/metis_reference.py`` keeps its predecessor — a ``dict``
per vertex, a refinement that sweeps every vertex — verbatim.  The trainer
hands ``MetisPartitioner`` its own generator, so one extra or missing draw
moves every embedding initialised afterwards: the suite holds the
generator's state as tightly as the partition.

* whole calls: ``entity_part`` and ``triple_part`` byte-equal and the next
  draw from the shared generator equal, over parallel triples, self-loops,
  isolated entities, hubs that stall coarsening at the 0.95 rule, ``k``
  from 2 to past ``n``, and all three constructor arguments
  (``imbalance=0.0`` included, so ``_rebalance`` fires);
* per primitive: CSR rows equal ``list(adjacency[v].items())`` at level 0
  and after every contraction (neighbour order is what three tie-breaks
  read), and the boundary refinement equal to the full sweep from arbitrary
  starting parts, and — parts and every pass's ``evaluated`` / ``moved``
  counts — to the refinement that recounted its connection table every
  pass, kept verbatim in ``tests/reference/metis_refine_reference.py``;
* ``_rebalance`` orders tied vertex weights stably, pinned directly and on
  a whole call in which it fires;
* the wn18 x 1.0, k = 4, seed 11 partition of the ``train_tiered``
  benchmark, pinned by hash as captured before the rewrite, and the
  fb15k x 0.2, k = 4 and freebase86m-mini x 0.3, k = 8 ones as captured
  before refinement kept one connection table per level;
* a hand-built tie between two parts, which the part the row meets first
  wins, not the lowest part id.

Run with ``--hypothesis-seed=0`` for the CI draw.
"""

from __future__ import annotations

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg.datasets import generate_dataset
from repro.kg.graph import KnowledgeGraph
from repro.kg.splits import split_triples
from repro.partition import metis
from repro.partition.metis import MetisPartitioner
from tests.reference import metis_refine_reference as refine_reference
from tests.reference import metis_reference as reference

# ------------------------------------------------------------------ helpers

SHAPES = ("uniform", "zipf", "star", "half_isolated")


def _graph(shape: str, n: int, num_triples: int, seed: int) -> KnowledgeGraph:
    """A random multigraph on ``n`` entities with self-loops and repeats."""
    rng = np.random.default_rng(seed)
    if shape == "zipf":
        # A few ids take most endpoints: many parallel triples, real hubs.
        ids = np.minimum(rng.zipf(1.6, size=(num_triples, 2)) - 1, n - 1)
    elif shape == "star":
        # One or two centres own every edge: matching pairs almost nothing,
        # so coarsening stops at the 0.95 rule.
        ids = np.stack(
            [rng.integers(0, 2, num_triples), rng.integers(0, n, num_triples)], axis=1
        )
        ids = np.where(rng.random((num_triples, 1)) < 0.5, ids, ids[:, ::-1])
    else:
        live = max(2, n // 2) if shape == "half_isolated" else n
        ids = rng.integers(0, live, size=(num_triples, 2))
    triples = np.stack(
        [ids[:, 0], rng.integers(0, 3, num_triples), ids[:, 1]], axis=1
    ).astype(np.int64)
    return KnowledgeGraph(triples, num_entities=n, num_relations=3)


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 160))
    num_triples = draw(st.integers(0, 4 * n))
    return _graph(
        draw(st.sampled_from(SHAPES)), n, num_triples, draw(st.integers(0, 10_000))
    )


def _rows(level) -> list[list[tuple[int, int]]]:
    """A CSR level as the reference's ``list(adjacency[v].items())``."""
    indptr = level.indptr.tolist()
    pairs = list(zip(level.indices.tolist(), level.weights.tolist()))
    return [pairs[a:b] for a, b in zip(indptr, indptr[1:])]


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


# -------------------------------------------------------------- whole calls


class TestPartitionEqualsReference:
    @given(
        graph=graphs(),
        k=st.integers(2, 12),
        past_n=st.booleans(),
        imbalance=st.sampled_from([0.0, 0.05, 0.3]),
        coarsen_to=st.sampled_from([1, 4, 16, 128]),
        refine_passes=st.integers(0, 4),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=300, deadline=None)
    def test_partition_and_generator_state(
        self, graph, k, past_n, imbalance, coarsen_to, refine_passes, seed
    ):
        if past_n:
            k = graph.num_entities + k - 2  # n, n + 1, ...: the degenerate path
        knobs = dict(
            imbalance=imbalance, coarsen_to=coarsen_to, refine_passes=refine_passes
        )
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = MetisPartitioner(seed=rng, **knobs).partition(graph, k)
        want = reference.MetisPartitioner(seed=rng_ref, **knobs).partition(graph, k)
        assert got.entity_part.dtype == want.entity_part.dtype == np.int64
        assert got.entity_part.tobytes() == want.entity_part.tobytes()
        assert got.triple_part.tobytes() == want.triple_part.tobytes()
        assert got.k == want.k
        assert rng.integers(1 << 62) == rng_ref.integers(1 << 62)

    def test_the_draw_reaches_every_regime(self, monkeypatch):
        """The strategy above is only worth its examples if coarsening
        runs, stalls, and rebalancing fires somewhere in it."""
        stalled = coarsened = rebalanced = 0
        fired = []
        original = metis._rebalance

        def spy(vertex_weight, part, part_weight, k, max_weight):
            fired.append(bool((part_weight > max_weight).any()))
            return original(vertex_weight, part, part_weight, k, max_weight)

        monkeypatch.setattr(metis, "_rebalance", spy)
        for seed in range(40):
            shape = SHAPES[seed % len(SHAPES)]
            graph = _graph(shape, 40 + seed, 120 + 2 * seed, seed)
            partitioner = MetisPartitioner(imbalance=0.0, coarsen_to=4, seed=seed)
            fired.clear()
            partitioner.partition(graph, 2)
            levels = partitioner.report["levels"]
            coarsened += len(levels) > 1
            stalled += levels[-1]["vertices"] > 16
            rebalanced += any(fired)
        assert coarsened >= 10 and stalled >= 5 and rebalanced >= 10, (
            coarsened, stalled, rebalanced,
        )


# ------------------------------------------------------------ per primitive


class TestPrimitives:
    @given(graph=graphs(), seed=st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_csr_rows_are_the_reference_adjacency_at_every_level(self, graph, seed):
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        level = metis._graph_level(graph)
        adjacency = reference._graph_adjacency(graph)
        vertex_weight = np.ones(graph.num_entities, dtype=np.int64)
        for _ in range(6):
            assert _rows(level) == [list(row.items()) for row in adjacency]
            assert level.vertex_weight.dtype == np.int64
            assert np.array_equal(level.vertex_weight, vertex_weight)
            assert level.indptr.dtype == level.indices.dtype == np.int64
            assert level.weights.dtype == np.int64

            match = metis._heavy_edge_matching(level, rng)
            match_ref = reference._heavy_edge_matching(adjacency, vertex_weight, rng_ref)
            assert np.array_equal(match, match_ref)
            fine_to_coarse, num_coarse = metis._coarse_ids(match)
            coarse = reference._contract(adjacency, vertex_weight, match_ref)
            assert np.array_equal(fine_to_coarse, coarse.fine_to_coarse)
            assert num_coarse == len(coarse.adjacency)
            level = metis._contract(level, fine_to_coarse, num_coarse)
            adjacency, vertex_weight = coarse.adjacency, coarse.vertex_weight
        assert rng.integers(1 << 62) == rng_ref.integers(1 << 62)

    @given(
        graph=graphs(),
        k=st.integers(2, 6),
        imbalance=st.sampled_from([0.0, 0.05, 0.3, 10.0]),
        passes=st.integers(0, 4),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_boundary_refine_is_the_full_sweep(self, graph, k, imbalance, passes, seed):
        rng = np.random.default_rng(seed)
        level = metis._graph_level(graph)
        adjacency = reference._graph_adjacency(graph)
        if rng.random() < 0.5:  # a coarse level: mixed vertex and edge weights
            match = metis._heavy_edge_matching(level, rng)
            level = metis._contract(level, *metis._coarse_ids(match))
            adjacency = reference._contract(
                adjacency, np.ones(len(adjacency), dtype=np.int64), match
            ).adjacency
        # Arbitrary, not balanced, possibly leaving parts empty.
        part = rng.integers(0, rng.integers(1, k + 1), level.num_vertices)
        before = part.copy()
        got, stats = metis._refine(level, part, k, imbalance, passes)
        want = reference._refine(
            adjacency, level.vertex_weight, part, k, imbalance, passes
        )
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(part, before)  # refined on a copy
        assert len(stats) <= passes
        for entry in stats:
            assert 0 <= entry["moved"] <= entry["evaluated"] <= level.num_vertices
        # Every pass but the last moved something; the sweep stops on a
        # pass that moves nothing.
        assert all(entry["moved"] > 0 for entry in stats[:-1])

    @given(
        graph=graphs(),
        k=st.integers(2, 12),
        imbalance=st.sampled_from([0.0, 0.05, 0.3, 10.0]),
        passes=st.integers(0, 4),
        coarsen=st.integers(0, 3),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=300, deadline=None)
    def test_table_refine_is_the_recounting_one(
        self, graph, k, imbalance, passes, coarsen, seed
    ):
        """Parts and every pass's counts equal to the refinement that
        recounted the connection table each pass, on the finest level and
        on up to three contractions (wide rows, mixed weights, ties)."""
        rng = np.random.default_rng(seed)
        level = metis._graph_level(graph)
        for _ in range(coarsen):
            match = metis._heavy_edge_matching(level, rng)
            level = metis._contract(level, *metis._coarse_ids(match))
        part = rng.integers(0, rng.integers(1, k + 1), level.num_vertices)
        before = part.copy()
        got, stats = metis._refine(level, part, k, imbalance, passes)
        want, want_stats = refine_reference._refine(level, part, k, imbalance, passes)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert stats == want_stats
        assert np.array_equal(part, before)


# --------------------------------------------------- rebalancing under ties


REBALANCE_CASE = {
    "seed": 4,
    "entity_part": [
        0, 1, 1, 0, 1, 1, 1, 2, 1, 0, 0, 2, 2, 1, 2, 2, 2, 0, 1, 2, 1, 2, 1, 1,
        2, 2, 0, 0, 1, 2, 0, 0, 1, 0, 0, 2, 1, 1, 0, 2, 1, 2, 2, 2, 0, 0, 0, 0,
    ],
}


class TestRebalanceIsStable:
    def test_tied_weights_leave_in_id_order(self):
        """Default ``argsort`` orders ties by the CPU's sort kernel; which
        of two equally light vertices leaves an overweight part must not."""
        vertex_weight = np.array([2, 1, 2, 1, 1, 2, 1, 2, 1, 1, 2, 1] * 3)
        part = np.zeros(len(vertex_weight), dtype=np.int64)
        part[-4:] = 1
        part_weight = np.bincount(part, weights=vertex_weight, minlength=2)
        metis._rebalance(vertex_weight, part, part_weight, 2, max_weight=36.0)
        # 46 must drop to <= 36: the ten lightest of part 0, lowest ids first.
        ones = np.flatnonzero(vertex_weight == 1)
        moved = np.flatnonzero(part[:-4] == 1)
        assert moved.tolist() == ones[:10].tolist()
        assert part_weight.tolist() == [36.0, 15.0]

    def test_a_partition_in_which_rebalancing_fires(self):
        """``imbalance=0.0`` leaves greedy growing overweight on most small
        graphs; the default-order sort gave another partition here."""
        graph = _graph("uniform", 48, 96, seed=REBALANCE_CASE["seed"])
        part = MetisPartitioner(imbalance=0.0, coarsen_to=4, seed=0).partition(graph, 3)
        assert part.entity_part.tolist() == REBALANCE_CASE["entity_part"]
        assert part.part_sizes().tolist() == [16, 16, 16]


# ------------------------------------------------- report and the pinned run


class TestReport:
    def test_levels_phases_and_pass_counts(self, small_graph):
        partitioner = MetisPartitioner(coarsen_to=16, seed=3)
        assert partitioner.report == {}
        partitioner.partition(small_graph, 2)
        report = partitioner.report
        levels = report["levels"]
        assert levels[0]["vertices"] == small_graph.num_entities
        sizes = [level["vertices"] for level in levels]
        assert len(levels) > 1 and sizes == sorted(sizes, reverse=True)
        assert all(0 < level["edges"] for level in levels)
        for level in levels:
            assert 1 <= len(level["refine"]) <= partitioner.refine_passes
            for entry in level["refine"]:
                assert set(entry) == {"evaluated", "moved"}
                assert entry["moved"] <= entry["evaluated"] <= level["vertices"]
        for phase in ("coarsen_s", "initial_s", "refine_s"):
            assert report[phase] >= 0.0

    def test_degenerate_calls_report_no_levels(self, small_graph):
        partitioner = MetisPartitioner(seed=3)
        partitioner.partition(small_graph, 2)
        partitioner.partition(small_graph, 1)
        assert partitioner.report["levels"] == []

    def test_counts_repeat_exactly(self, small_graph):
        reports = []
        for _ in range(2):
            partitioner = MetisPartitioner(seed=5)
            partitioner.partition(small_graph, 4)
            reports.append(partitioner.report["levels"])
        assert reports[0] == reports[1]


def test_train_tiered_partition_is_the_one_captured_before_the_rewrite():
    """wn18 x 1.0, k = 4, seed 11 — the graph ``bench``'s ``train_tiered``
    partitions — hashed on the list-of-dict partitioner's commit."""
    graph = split_triples(generate_dataset("wn18", scale=1.0, seed=11), seed=11).train
    rng = np.random.default_rng(11)
    part = MetisPartitioner(seed=rng).partition(graph, 4)
    assert _sha256(part.entity_part) == (
        "b817788385b28c66b5275552f5b9176c9853341b48280c887dc1ab46081117df"
    )
    assert _sha256(part.triple_part) == (
        "e6d143bc6d7fe1c39f7939f77cc9d7409dc5317fd18e15062ac83514c0869af8"
    )
    assert int(rng.integers(1 << 62)) == 4419216690914010323


def _pinned_call(dataset: str, scale: float, k: int):
    """``dataset`` x ``scale``'s train split partitioned at ``k``, seed 11,
    with the shared generator's next draw."""
    graph = split_triples(generate_dataset(dataset, scale=scale, seed=11), seed=11).train
    rng = np.random.default_rng(11)
    part = MetisPartitioner(seed=rng).partition(graph, k)
    return _sha256(part.entity_part), _sha256(part.triple_part), int(rng.integers(1 << 62))


def test_fb15k_partition_is_the_one_captured_before_the_table_refinement():
    """fb15k x 0.2, k = 4 — the graph the six fb15k workloads partition —
    hashed before refinement kept one connection table per level."""
    assert _pinned_call("fb15k", 0.2, 4) == (
        "190c87387a92765489ed2ba073ad7a1d78b66edcbac7209745ffa827d002421d",
        "05f305ec7923eae233dd464ae74b4c34a294246fc466695cdf34d19271717c6b",
        2234807861353305135,
    )


def test_freebase_partition_is_the_one_captured_before_the_table_refinement():
    """freebase86m-mini x 0.3, k = 8: wide coarse rows, where many moves
    choose between equally connected parts."""
    assert _pinned_call("freebase86m-mini", 0.3, 8) == (
        "43d6dd5b7d5f3927781a42422826c48909163926f6e48bd10564b764008768ca",
        "a858b19d37336ee80fa009a1758a1c1b159b7f7ac148806aa9137d86eb65a5f7",
        4075109281281100104,
    )


def test_a_tie_goes_to_the_part_the_row_meets_first():
    """Vertex 0 (part 0) is tied between parts 2 and 1, and its row meets
    part 2 first: it moves there, and vertex 2 follows it.  A
    refinement breaking the tie by part id would leave ``[1, 1, 1]``."""
    triples = np.array([[0, 0, 1], [0, 0, 2]], dtype=np.int64)
    level = metis._graph_level(KnowledgeGraph(triples, num_entities=3, num_relations=1))
    assert level.indices[: level.indptr[1]].tolist() == [1, 2]
    part = np.array([0, 2, 1], dtype=np.int64)
    got, stats = metis._refine(level, part, 3, imbalance=10.0, passes=2)
    assert got.tolist() == [2, 2, 2]
    assert stats == [{"evaluated": 3, "moved": 2}, {"evaluated": 0, "moved": 0}]
