"""Quickstart: train HET-KG on a synthetic FB15k and evaluate it.

Trains the TransE model with the DPS hot-embedding cache on a 4-machine
simulated cluster, prints the communication/computation breakdown and the
filtered link-prediction metrics, and compares against the cache-less
DGL-KE baseline on the identical workload.

Run:  python examples/quickstart.py
"""

from repro import TrainingConfig, generate_dataset, make_trainer, split_triples
from repro.utils.tables import format_table


def main() -> None:
    # 1. Data: a 5%-scale synthetic FB15k with its published skew shape,
    #    split 90/5/5 like the paper's Freebase evaluation.
    graph = generate_dataset("fb15k", scale=0.05, seed=0)
    split = split_triples(graph, seed=0)
    print(f"dataset: {graph}")

    # 2. Shared hyperparameters (Table II of the paper, simulation scale).
    config = TrainingConfig(
        model="transe",
        dim=16,
        lr=0.1,
        batch_size=128,
        num_negatives=16,
        epochs=6,
        num_machines=4,
        cache_strategy="dps",  # overridden per system below
        cache_capacity=1024,
        entity_ratio=0.25,  # 25% entities / 75% relations (Fig. 8c)
        sync_period=8,  # staleness bound P (Fig. 8b)
        dps_window=16,  # DPS prefetch window D
        seed=0,
    )

    # 3. Train HET-KG-D and DGL-KE on the identical workload.
    rows = []
    for system in ("dglke", "hetkg-d"):
        trainer = make_trainer(system, config)
        result = trainer.train(
            split.train,
            eval_graph=split.test,
            known=graph,
            eval_max_queries=200,
            eval_candidates=None,
        )
        rows.append(
            [
                result.system,
                result.final_metrics["mrr"],
                result.final_metrics["hits@10"],
                result.sim_time,
                result.communication_time,
                result.cache_hit_ratio,
            ]
        )

    print()
    print(
        format_table(
            ["system", "MRR", "Hits@10", "time (s)", "comm (s)", "cache hits"],
            rows,
            title="HET-KG vs DGL-KE (simulated 4-machine cluster, 1 Gbps)",
        )
    )
    speedup = rows[0][3] / rows[1][3]
    print(f"\nHET-KG-D speedup over DGL-KE: {speedup:.2f}x")


if __name__ == "__main__":
    main()
