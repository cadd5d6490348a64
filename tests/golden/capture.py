"""Capture the golden-run fingerprint used by test_perf_equivalence.py.

Run from the repo root::

    PYTHONPATH=src python tests/golden/capture.py

The resulting ``train_golden.json`` pins the *pre-refactor* outputs of
seeded HET-KG-C / HET-KG-D / DGL-KE / PBG runs (losses, comm totals, cache hit
counters, eval metrics) down to the last bit: floats are stored via
``float.hex()`` so the equivalence suite can assert bit-identity, not
approximate closeness.  The vectorized hot-path kernels (PR 4) must
reproduce every value exactly.

Regenerate only when a PR *intentionally* changes numerics (e.g. a new
optimizer default) — never to paper over an unintended kernel divergence.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))

from repro.core.config import TrainingConfig  # noqa: E402
from repro.core.trainer import make_trainer  # noqa: E402
from repro.kg.datasets import generate_dataset  # noqa: E402
from repro.kg.splits import split_triples  # noqa: E402

GOLDEN_PATH = pathlib.Path(__file__).parent / "train_golden.json"

#: Every system the paper compares (PBG has no ``Worker``s, so no cache
#: counters to read).
SYSTEMS = ("hetkg-c", "hetkg-d", "dglke", "pbg")


def golden_config(**overrides) -> TrainingConfig:
    defaults = dict(
        model="transe",
        dim=8,
        epochs=2,
        batch_size=32,
        num_negatives=4,
        num_machines=2,
        cache_capacity=64,
        sync_period=4,
        dps_window=8,
        seed=0,
    )
    defaults.update(overrides)
    return TrainingConfig(**defaults)


def fingerprint(system: str, *, filtered_negatives: bool = False,
                eval_candidates: int | None = 40, neg_cache: str = "off") -> dict:
    """Train one system on the seeded small graph and fingerprint the run."""
    graph = generate_dataset("fb15k", scale=0.02, seed=3)
    split = split_triples(graph, seed=3)
    config = golden_config(
        filter_false_negatives=filtered_negatives, neg_cache=neg_cache
    )
    trainer = make_trainer(system, config)
    result = trainer.train(
        split.train,
        eval_graph=split.test,
        known=graph,
        eval_max_queries=30,
        eval_candidates=eval_candidates,
    )
    hits = miss = 0
    for worker in getattr(trainer, "workers", ()):
        if worker.cache is not None:
            stats = worker.cache.combined_stats()
            hits += stats.hits
            miss += stats.misses
    return {
        "losses": [float(p.loss).hex() for p in result.history.points],
        "sim_time": float(result.sim_time).hex(),
        "compute_time": float(result.compute_time).hex(),
        "communication_time": float(result.communication_time).hex(),
        "local_bytes": int(result.comm_totals.local_bytes),
        "remote_bytes": int(result.comm_totals.remote_bytes),
        "local_messages": int(result.comm_totals.local_messages),
        "remote_messages": int(result.comm_totals.remote_messages),
        "cache_hits": hits,
        "cache_misses": miss,
        "cache_hit_ratio": float(result.cache_hit_ratio).hex(),
        "metrics": {
            k: float(v).hex() for k, v in sorted(result.final_metrics.items())
        },
    }


def capture() -> dict:
    golden: dict = {"config": "golden_config() @ fb15k scale=0.02 seed=3"}
    for system in SYSTEMS:
        golden[system] = fingerprint(system)
    # RNG-sensitive satellites: the false-negative resampler (per-entry
    # retry draws) and the full-ranking evaluation path.
    golden["hetkg-d+filtered-negatives"] = fingerprint(
        "hetkg-d", filtered_negatives=True
    )
    golden["dglke+full-ranking-eval"] = fingerprint(
        "dglke", eval_candidates=None
    )
    # The hard-negative cache rewrites rows of a chunk, so its batches
    # mix runs of every length.
    golden["hetkg-d+nscaching"] = fingerprint("hetkg-d", neg_cache="nscaching")
    return golden


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")
