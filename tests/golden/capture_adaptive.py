"""Capture the ADAPTIVE fingerprint pinned by test_hotness.py.

Run from the repo root::

    PYTHONPATH=src python tests/golden/capture_adaptive.py

``train_golden.json`` fingerprints ``hetkg-c/-d/dglke`` only;
``adaptive_golden.json`` pins ``hetkg-a`` — static runs (the golden
config, its heterogeneity-ignorant ``entity_ratio=None`` twin, and an
ample cache whose windows name fewer ids than it holds, so most windows
do *not* trigger and the spare-slot top-up runs) and seeded rotation
streams — down to the last bit: the loss, the traffic and hit
ratio the drift-triggered rebuilds produce, and the strategy's own
trajectory (rebuild count, windows observed, each worker's final tuned
``entity_ratio`` and its full ``DriftDetector.signals`` sequence).  It was
captured at the commit *before* the hotness counts became one array-backed
table (``repro.cache.hotness``), when ADAPTIVE still kept float dicts, so
it pins that the table reproduces the dict bookkeeping exactly.

Regenerate only when a PR *intentionally* changes ADAPTIVE's behaviour.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))

from repro.core.trainer import make_trainer  # noqa: E402
from repro.kg.datasets import generate_dataset  # noqa: E402
from repro.kg.splits import split_triples  # noqa: E402
from repro.stream import OnlineTrainer, make_stream  # noqa: E402

GOLDEN_PATH = pathlib.Path(__file__).parent / "adaptive_golden.json"

#: More slots than a half-window of the golden graph names distinct ids.
AMPLE = 600

_spec = importlib.util.spec_from_file_location(
    "golden_capture", pathlib.Path(__file__).parent / "capture.py"
)
_capture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_capture)
golden_config = _capture.golden_config


def _strategy_trajectory(trainer) -> list[dict]:
    """Per-worker ADAPTIVE state after a run, floats as ``float.hex()``."""
    workers = []
    for worker in trainer.workers:
        strategy = worker.strategy
        ratio = strategy.entity_ratio
        workers.append(
            {
                "rebuilds": strategy.rebuilds,
                "windows_observed": strategy.windows_observed,
                "entity_ratio": None if ratio is None else float(ratio).hex(),
                # One line per window: jaccard, coverage, coverage EWMA,
                # candidate coverage, triggered.
                "signals": [
                    " ".join(
                        [
                            float(s.jaccard).hex(),
                            float(s.coverage).hex(),
                            float(s.coverage_ewma).hex(),
                            float(s.candidate_coverage).hex(),
                            str(s.triggered),
                        ]
                    )
                    for s in strategy.detector.signals
                ],
            }
        )
    return workers


def _traffic(result) -> dict:
    return {
        "remote_bytes": int(result.comm_totals.remote_bytes),
        "remote_messages": int(result.comm_totals.remote_messages),
        "local_messages": int(result.comm_totals.local_messages),
        "cache_hit_ratio": float(result.cache_hit_ratio).hex(),
        "sim_time": float(result.sim_time).hex(),
    }


def fingerprint_static(**overrides) -> dict:
    """``hetkg-a`` on the golden graph with no stream."""
    graph = generate_dataset("fb15k", scale=0.02, seed=3)
    split = split_triples(graph, seed=3)
    trainer = make_trainer("hetkg-a", golden_config(**overrides))
    result = trainer.train(split.train)
    return {
        "losses": [float(p.loss).hex() for p in result.history.points],
        **_traffic(result),
        "workers": _strategy_trajectory(trainer),
    }


def fingerprint_stream(**overrides) -> dict:
    """``hetkg-a`` under a seeded rotation stream (an update every 2 steps)."""
    graph = generate_dataset("fb15k", scale=0.02, seed=3)
    config = golden_config(**overrides)
    trainer = make_trainer("hetkg-a", config)
    trainer.setup(graph)
    stream = make_stream(
        "rotation",
        graph,
        steps=config.epochs * trainer.steps_per_epoch,
        seed=17,
        interval=2,
        inserts_per_update=16,
    )
    result = OnlineTrainer(trainer, stream, eval_every=16).train(graph)
    return {
        "stream": stream.fingerprint(),
        "mean_loss": float(result.mean_loss).hex(),
        **_traffic(result),
        "updates_applied": result.updates_applied,
        "cache_rows_invalidated": result.cache_rows_invalidated,
        "adaptive_rebuilds": result.adaptive_rebuilds,
        "workers": _strategy_trajectory(trainer),
    }


#: Golden entry -> (fingerprint function, config overrides).
ENTRIES = {
    "static": (fingerprint_static, {}),
    "static+entity_ratio=None": (fingerprint_static, {"entity_ratio": None}),
    "static+ample-cache": (fingerprint_static, {"cache_capacity": AMPLE}),
    "stream-rotation": (fingerprint_stream, {}),
    "stream-rotation+ample-cache": (fingerprint_stream, {"cache_capacity": AMPLE}),
}


def capture() -> dict:
    golden: dict = {
        "config": "golden_config() @ fb15k scale=0.02 seed=3, system hetkg-a"
    }
    for entry, (fingerprint, overrides) in ENTRIES.items():
        golden[entry] = fingerprint(**overrides)
    return golden


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
