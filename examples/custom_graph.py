"""Bring your own knowledge graph: TSV loading, model zoo, and evaluation.

Shows the library as a downstream user would adopt it:

1. write a small hand-authored knowledge graph to TSV and load it back
   (the format DGL-KE distributes datasets in);
2. train three different scoring models (TransE, DistMult, ComplEx) on it
   with the HET-KG cache;
3. evaluate with filtered ranking and inspect per-model behaviour;
4. query the trained embeddings directly for tail prediction.

Run:  python examples/custom_graph.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    TrainingConfig,
    load_tsv,
    make_trainer,
    save_tsv,
    split_triples,
)
from repro.kg.graph import KnowledgeGraph
from repro.utils.tables import format_table

#: A toy family/geography graph with clear regularities to learn.
FAMILIES = ["smith", "jones", "garcia", "chen", "patel", "okafor"]
CITIES = ["springfield", "rivertown", "lakeside"]


def build_graph() -> KnowledgeGraph:
    triples = []
    rng = np.random.default_rng(0)
    for f, family in enumerate(FAMILIES):
        city = CITIES[f % len(CITIES)]
        members = [f"{family}_{i}" for i in range(6)]
        for i, person in enumerate(members):
            triples.append((person, "lives_in", city))
            triples.append((person, "member_of", f"house_{family}"))
            if i > 0:
                triples.append((members[0], "parent_of", person))
        for i in range(1, 6):
            for j in range(i + 1, 6):
                triples.append((members[i], "sibling_of", members[j]))
    for city in CITIES:
        triples.append((city, "located_in", "the_valley"))
    return KnowledgeGraph.from_labeled_triples(triples)


def main() -> None:
    graph = build_graph()

    # Round-trip through the TSV interchange format.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "family.tsv"
        save_tsv(graph, path)
        graph = load_tsv(path)
    print(f"loaded: {graph}")

    split = split_triples(graph, train_fraction=0.85, valid_fraction=0.05, seed=1)

    rows = []
    trained = {}
    for model_name in ("transe", "distmult", "complex"):
        config = TrainingConfig(
            model=model_name,
            dim=16,
            epochs=30,
            batch_size=32,
            num_negatives=8,
            num_machines=2,
            cache_strategy="cps",
            cache_capacity=64,
            sync_period=4,
            seed=1,
        )
        trainer = make_trainer("hetkg-c", config)
        result = trainer.train(
            split.train,
            eval_graph=split.test,
            known=graph,
            eval_max_queries=None,
            eval_candidates=None,
        )
        trained[model_name] = trainer
        rows.append(
            [
                model_name,
                result.final_metrics["mrr"],
                result.final_metrics["hits@1"],
                result.final_metrics["hits@10"],
            ]
        )
    print()
    print(format_table(["model", "MRR", "Hits@1", "Hits@10"], rows,
                       title="Filtered link prediction on the family graph"))

    # Query: who does smith_0 parent? Rank all entities as tails.
    trainer = trained["transe"]
    entity = trainer.server.store.table("entity")
    relation = trainer.server.store.table("relation")
    ent_id = {label: i for i, label in enumerate(graph.entity_labels)}
    rel_id = {label: i for i, label in enumerate(graph.relation_labels)}
    h = ent_id["smith_0"]
    r = rel_id["parent_of"]
    n = graph.num_entities
    scores = trainer.model.score(
        np.repeat(entity[h][None, :], n, axis=0),
        np.repeat(relation[r][None, :], n, axis=0),
        entity,
    )
    top = np.argsort(scores)[::-1][:5]
    print("\ntop predicted tails for (smith_0, parent_of, ?):")
    for t in top:
        print(f"  {graph.entity_labels[int(t)]:18s} score={scores[int(t)]:.3f}")


if __name__ == "__main__":
    main()
