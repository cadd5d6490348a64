"""Staleness in theory and practice (§IV-C of the paper).

The hot-embedding cache trades consistency for communication: cached rows
may be up to ``P`` iterations stale.  The paper's analysis says this is
asymptotically free — once training runs past ``T = Omega(K^2)``
iterations (where ``K`` is the bounded version delay), the convergence
rate matches fully-synchronous training at ``O(1/sqrt(mT))``.

This example puts theory and simulation side by side: for several
synchronization periods it reports the analysis' delay bound ``K``, the
theoretical burn-in ``T``, and the *measured* final MRR and training time
of HET-KG-C on a synthetic Freebase slice.

Run:  python examples/staleness_analysis.py
"""

from repro import TrainingConfig, generate_dataset, make_trainer, split_triples
from repro.analysis.convergence_theory import (
    StalenessBound,
    minimum_iterations,
    staleness_from_config,
)
from repro.utils.tables import format_table

WORKERS = 4
PERIODS = (1, 4, 8, 32, 128)


def main() -> None:
    graph = generate_dataset("freebase86m-mini", scale=0.05, seed=0)
    split = split_triples(graph, seed=0)
    print(f"dataset: {graph}\n")

    rows = []
    for period in PERIODS:
        config = TrainingConfig(
            model="transe",
            dim=16,
            epochs=6,
            batch_size=128,
            num_negatives=16,
            num_machines=WORKERS,
            cache_strategy="cps",
            cache_capacity=1024,
            sync_period=period,
            seed=0,
        )
        # Theory: map (P, workers) onto the delay bound K and compute the
        # burn-in after which staleness is provably harmless.  The problem
        # constants are placeholders at a realistic order of magnitude —
        # the point is how the burn-in scales with K.
        k = staleness_from_config(period, WORKERS)
        bound = StalenessBound(
            initial_gap=10.0,
            lipschitz=1.0,
            sigma=2.0,
            staleness=k,
            batch_size=config.batch_size,
        )
        burn_in = minimum_iterations(bound)

        trainer = make_trainer("hetkg-c", config)
        result = trainer.train(
            split.train,
            eval_graph=split.test,
            known=graph,
            eval_max_queries=150,
            eval_candidates=500,
        )
        rows.append(
            [
                period,
                k,
                burn_in,
                result.final_metrics["mrr"],
                result.sim_time,
                result.communication_time,
            ]
        )

    print(
        format_table(
            ["P", "delay bound K", "theory burn-in T", "MRR", "time (s)", "comm (s)"],
            rows,
            title=f"Bounded staleness with {WORKERS} workers (HET-KG-C)",
        )
    )
    print(
        "\nReading: time and communication fall as P grows; the theory's"
        "\nburn-in grows ~K^2, and once training exceeds it, accuracy is"
        "\nessentially unaffected — which the MRR column shows for small P."
        "\nVery large P (K in the hundreds) would need far more iterations"
        "\nthan we run, and the MRR indeed drifts down there (Fig. 9)."
    )


if __name__ == "__main__":
    main()
