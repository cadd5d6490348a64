"""Capture the trace-replay hit ratios pinned by test_cache_core.py.

Run from the repo root::

    PYTHONPATH=src python tests/golden/capture_cache_replay.py

``cache_replay_golden.json`` holds every hit ratio of the ``cache-shootout``
report (nine policy columns x three trace classes, ``scale=0.02``) and of
Table VI and its extension (``cache_study``, ``scale=0.03``) as exact floats
(JSON round-trips a Python float bit for bit).  It was captured at the commit
*before* ``CacheCore`` learned to take a whole trace per call
(``access_many``), so it pins that the batched engine replays every policy to
the same hit ratio the per-key engine did.

Regenerate only when a PR *intentionally* changes a policy or a trace.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))

from repro.experiments.cache_shootout import run_cache_shootout  # noqa: E402
from repro.experiments.cache_study import (  # noqa: E402
    run_policies_extended,
    run_table6,
)

GOLDEN_PATH = pathlib.Path(__file__).parent / "cache_replay_golden.json"


def capture() -> dict:
    reports = {
        "cache-shootout": run_cache_shootout(scale=0.02, jobs=1),
        "table6": run_table6(scale=0.03, seed=0),
        "ablation-policies-extended": run_policies_extended(scale=0.03, seed=0),
    }
    return {
        name: {"headers": report.headers, "rows": report.rows}
        for name, report in reports.items()
    }


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
