"""Tests for repro.kg.datasets."""

import numpy as np
import pytest

from repro.kg.datasets import (
    FB15K_SPEC,
    FREEBASE86M_SPEC,
    WN18_SPEC,
    DatasetSpec,
    generate_dataset,
    load_tsv,
    save_tsv,
)
from repro.kg.graph import HEAD, REL, TAIL
from tests.reference.evaluation_reference import triple_set


class TestSpecs:
    def test_fb15k_matches_paper_table2(self):
        assert FB15K_SPEC.num_entities == 14_951
        assert FB15K_SPEC.num_relations == 1_345
        assert FB15K_SPEC.num_triples == 592_213

    def test_wn18_matches_paper_table2(self):
        assert WN18_SPEC.num_entities == 40_943
        assert WN18_SPEC.num_relations == 18
        assert WN18_SPEC.num_triples == 151_442

    def test_freebase_mini_is_scaled_down(self):
        assert FREEBASE86M_SPEC.num_entities == 86_054  # 86M / 1000

    def test_scaled(self):
        spec = FB15K_SPEC.scaled(0.1)
        assert spec.num_entities == 1495
        assert spec.num_triples == 59221
        assert 2 <= spec.num_relations <= FB15K_SPEC.num_relations

    def test_scaled_relations_shrink_slower(self):
        spec = FB15K_SPEC.scaled(0.04)
        # sqrt scaling: 1345 * 0.2 = 269, not 1345 * 0.04 = 54.
        assert spec.num_relations > FB15K_SPEC.num_relations * 0.04 * 2

    def test_scaled_rejects_non_positive(self):
        with pytest.raises(ValueError):
            FB15K_SPEC.scaled(0)
        with pytest.raises(ValueError):
            FB15K_SPEC.scaled(-0.5)

    def test_scaled_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FB15K_SPEC.scaled(float("inf"))
        with pytest.raises(ValueError):
            FB15K_SPEC.scaled(float("nan"))

    def test_scaled_up(self):
        """scale > 1 grows entities/triples proportionally and keeps the
        relation vocabulary fixed (real KGs grow entities, not relations)."""
        spec = FB15K_SPEC.scaled(2.5)
        assert spec.num_entities == 37_377
        assert spec.num_triples == 1_480_532
        assert spec.num_relations == FB15K_SPEC.num_relations
        assert spec.name == "fb15k-x2.5"

    def test_default_communities(self):
        spec = DatasetSpec("x", 10_000, 10, 1000)
        assert spec.communities == 100


class TestGenerate:
    @pytest.fixture(scope="class")
    def graph(self):
        return generate_dataset("fb15k", scale=0.015, seed=3)

    def test_counts_match_spec(self, graph):
        spec = FB15K_SPEC.scaled(0.015)
        assert graph.num_entities == spec.num_entities
        assert graph.num_relations == spec.num_relations
        assert graph.num_triples == spec.num_triples

    def test_no_self_loops(self, graph):
        assert not np.any(graph.triples[:, HEAD] == graph.triples[:, TAIL])

    def test_no_duplicate_triples(self, graph):
        assert len(triple_set(graph)) == graph.num_triples

    def test_every_entity_appears(self, graph):
        assert np.all(graph.entity_degrees() > 0)

    def test_deterministic(self):
        a = generate_dataset("wn18", scale=0.02, seed=5)
        b = generate_dataset("wn18", scale=0.02, seed=5)
        assert np.array_equal(a.triples, b.triples)

    def test_upscaled_determinism_pinned(self):
        """Upscaled generation is pinned to an exact fingerprint so silent
        generator changes (which would invalidate the memory-tiering
        experiment's stored curves) are caught."""
        import hashlib

        g = generate_dataset(DatasetSpec("tiny", 64, 4, 200, seed=7), scale=4.0)
        assert (g.num_entities, g.num_relations, g.num_triples) == (256, 4, 800)
        digest = hashlib.sha256(
            np.ascontiguousarray(g.triples).tobytes()
        ).hexdigest()
        assert digest[:16] == "ee84e06f43c201a1"

    def test_seed_changes_graph(self):
        a = generate_dataset("wn18", scale=0.02, seed=5)
        b = generate_dataset("wn18", scale=0.02, seed=6)
        assert not np.array_equal(a.triples, b.triples)

    def test_degree_skew_present(self, graph):
        """The generator must produce the skew Fig. 2 relies on: the top
        decile of entities should account for well over 2x its uniform
        share of accesses."""
        degrees = np.sort(graph.entity_degrees())[::-1]
        top = degrees[: len(degrees) // 10].sum()
        assert top / degrees.sum() > 0.2

    def test_relation_skew_present(self, graph):
        counts = np.sort(graph.relation_counts())[::-1]
        top = counts[: max(1, len(counts) // 10)].sum()
        assert top / counts.sum() > 0.3

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            generate_dataset("nope")

    def test_accepts_custom_spec(self):
        spec = DatasetSpec("custom", 50, 4, 300, seed=1)
        g = generate_dataset(spec)
        assert g.num_entities == 50
        assert g.num_triples == 300

    def test_structure_is_learnable_signal(self):
        """Most (head-community, relation) pairs should concentrate their
        tails in one community — the learnable regularity."""
        spec = DatasetSpec("s", 120, 6, 2000, structure_noise=0.02, seed=2)
        g = generate_dataset(spec)
        # Recover community concentration directly from co-occurrences:
        # group tails by (h, r) is sparse, so group by relation instead and
        # check tails are far from uniform.
        from collections import Counter

        for r in range(3):
            tails = g.triples[g.triples[:, REL] == r][:, TAIL]
            if len(tails) < 50:
                continue
            counts = Counter(tails.tolist())
            top10 = sum(c for _, c in counts.most_common(10))
            assert top10 / len(tails) > 0.15


class TestTsvRoundtrip:
    def test_roundtrip_with_labels(self, tmp_path):
        from repro.kg.graph import KnowledgeGraph

        g = KnowledgeGraph.from_labeled_triples(
            [("a", "r1", "b"), ("b", "r2", "c"), ("c", "r1", "a")]
        )
        path = tmp_path / "triples.tsv"
        save_tsv(g, path)
        loaded = load_tsv(path)
        assert loaded.num_triples == 3
        assert loaded.entity_labels == g.entity_labels

    def test_roundtrip_without_labels(self, tmp_path, tiny_graph):
        path = tmp_path / "ids.tsv"
        save_tsv(tiny_graph, path)
        loaded = load_tsv(path)
        assert loaded.num_triples == tiny_graph.num_triples

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\n")
        with pytest.raises(ValueError, match="3 tab-separated"):
            load_tsv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.tsv"
        path.write_text("a\tr\tb\n\nb\tr\tc\n")
        assert load_tsv(path).num_triples == 2
