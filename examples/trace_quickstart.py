"""Trace quickstart: record and inspect a Chrome trace of a training run.

Trains HET-KG-D on a small synthetic FB15k with the `repro.obs` tracer
attached, prints the per-worker span/clock reconciliation (they must
agree — the spans are driven by the same simulated clocks the cost
models charge), dumps the aggregated counters, and writes a
`trace.json` that opens directly in chrome://tracing or
https://ui.perfetto.dev.

Run:  python examples/trace_quickstart.py
"""

from repro import TrainingConfig, Tracer, generate_dataset, make_trainer, split_triples
from repro.obs.export import validate_chrome_trace
from repro.utils.tables import format_table


def main() -> None:
    # 1. A small workload: 2%-scale synthetic FB15k, 2 simulated machines.
    graph = generate_dataset("fb15k", scale=0.02, seed=0)
    split = split_triples(graph, seed=0)
    config = TrainingConfig(
        model="transe",
        dim=16,
        epochs=2,
        batch_size=64,
        num_negatives=8,
        num_machines=2,
        cache_strategy="dps",
        cache_capacity=256,
        sync_period=8,
        seed=0,
    )

    # 2. Attach a tracer explicitly.  (The CLI equivalent is
    #    `python -m repro train ... --trace trace.json`, which installs a
    #    process-wide tracer via repro.obs.set_tracer.)
    tracer = Tracer()
    trainer = make_trainer("hetkg-d", config)
    result = trainer.train(split.train, tracer=tracer)

    # 3. Reconciliation: per-category span totals equal each worker's
    #    SimClock breakdown — the trace is the cost model, not a sample.
    rows = []
    for worker in trainer.workers:
        totals = tracer.sink.category_totals(f"worker{worker.machine}")
        for category in ("compute", "communication"):
            rows.append(
                [
                    f"worker{worker.machine}",
                    category,
                    totals[category],
                    worker.clock.category(category),
                ]
            )
    print(
        format_table(
            ["track", "category", "span total (s)", "clock total (s)"], rows
        )
    )

    # 4. Aggregated counters, independent of the span stream.
    for name, total in sorted(tracer.totals.items()):
        print(f"{name:24s} {total:,.0f}")

    # 5. Export and validate the Chrome trace.
    trace = tracer.chrome_trace()
    summary = validate_chrome_trace(trace)
    tracer.export("trace.json")
    print(
        f"\nwrote trace.json: {summary['spans']:.0f} spans, "
        f"{summary['counters']:.0f} counter samples, "
        f"{summary['seconds[communication]']:.3f}s simulated communication "
        f"(sim_time {result.sim_time:.3f}s)"
    )
    print("open it in chrome://tracing or https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
