"""Tiered-store microbenchmarks + warm-path perf-regression gate.

Times the tiered table's access paths against the dense ndarray gather
they stand in for, on the same machine in the same process — so the
**overhead factors are machine-independent** and CI can gate on them
(relative ratios, not absolute nanoseconds).

Gated paths:

* ``hot_gather``   — all blocks hot: CacheTable lookup + block-offset
  indexing.  This is the common case once the hot set converges.
* ``warm_gather``  — nothing hot: memmap fancy-index + residency
  bookkeeping.  The oversubscription miss path.
* ``mixed_gather`` — a skewed 90/10 hot/warm mix, the steady-state shape.
* ``rebalance``    — one full promotion pass over the block counters.

The gate fails when a path's overhead factor (tiered ns / dense ns)
exceeds the committed factor times ``REGRESSION_FACTOR``.

The bench also replays a Zipf workload under shrinking budgets and
reports the hit-rate vs resident-fraction curve (informational — the
``memory-tiering`` experiment is the asserted version).

Usage::

    PYTHONPATH=src python benchmarks/bench_tiered_store.py            # write BENCH_tier.json
    PYTHONPATH=src python benchmarks/bench_tiered_store.py --check    # CI gate
    PYTHONPATH=src python benchmarks/bench_tiered_store.py --quick    # fewer reps
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.tier import (  # noqa: E402
    MemoryBudget,
    TierCostModel,
    TierPolicy,
    TieredTable,
)
from repro.tier.policy import TierMeter  # noqa: E402
from repro.utils.simclock import SimClock  # noqa: E402

BENCH_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_tier.json"

#: CI fails when a path's overhead factor grows past committed * this.
REGRESSION_FACTOR = 1.5

ROWS, WIDTH, BLOCK = 100_000, 16, 8
BATCH = 4096


def best_ns(fn, reps: int, repeats: int = 5) -> float:
    """Best-of-``repeats`` mean ns/op over ``reps`` calls of ``fn``."""
    fn()  # warm-up
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter_ns() - t0) / reps)
    return best


def make_table(
    src: np.ndarray, directory: str, slice_bytes: int | None, **policy_kw
) -> TieredTable:
    policy = TierPolicy(block_rows=BLOCK, cold_codec="none", **policy_kw)
    return TieredTable(
        src,
        name="bench",
        path=pathlib.Path(directory) / "bench.mmap",
        budget=MemoryBudget(None),
        slice_bytes=slice_bytes,
        policy=policy,
        meter=TierMeter(TierCostModel(), SimClock()),
    )


def bench_paths(directory: str, quick: bool) -> dict:
    rng = np.random.default_rng(7)
    src = rng.standard_normal((ROWS, WIDTH))
    ids = rng.integers(0, ROWS, size=BATCH).astype(np.int64)
    reps = 30 if quick else 200
    dense_ns = best_ns(lambda: src[ids], reps)

    paths: dict[str, dict] = {}

    def record(name: str, tiered_ns: float) -> None:
        paths[name] = {
            "ns_per_op": round(tiered_ns, 1),
            "dense_ns_per_op": round(dense_ns, 1),
            "overhead_factor": round(tiered_ns / dense_ns, 2),
        }

    # Hot path: everything promoted (unlimited slice, one forced pass).
    hot = make_table(src, directory, None, pass_rows=10**9, target_hit_rate=1.0)
    hot.read(np.arange(ROWS, dtype=np.int64))
    hot.rebalance()
    assert hot.hot_fraction() == 1.0
    assert np.array_equal(hot._fetch(ids, count=False), src[ids])
    record("hot_gather", best_ns(lambda: hot._fetch(ids, count=False), reps))
    record("hot_gather_counted", best_ns(lambda: hot.read(ids), reps))
    hot.close()

    # Warm path: a 1-block slice keeps essentially everything on disk.
    warm = make_table(
        src, directory, BLOCK * WIDTH * 8, pass_rows=10**9, target_hit_rate=1.0
    )
    assert np.array_equal(warm._fetch(ids, count=False), src[ids])
    record("warm_gather", best_ns(lambda: warm.read(ids), reps))
    warm.close()

    # Mixed steady state: hot set sized for ~90% of a Zipf batch.
    mixed = make_table(
        src,
        directory,
        ROWS * WIDTH * 8 // 4,
        pass_rows=10**9,
        target_hit_rate=1.0,
        max_evict_per_pass=4096,
    )
    zipf_ids = (rng.zipf(1.1, size=64 * BATCH) - 1) % ROWS
    for lo in range(0, len(zipf_ids), BATCH):
        mixed.read(zipf_ids[lo : lo + BATCH])
    mixed.rebalance()
    batch = zipf_ids[:BATCH]
    record("mixed_gather", best_ns(lambda: mixed.read(batch), reps))

    # Rebalance pass cost (counter decay + repack over ROWS/BLOCK blocks).
    def one_pass():
        mixed.read(batch)
        mixed.rebalance()

    record("rebalance", best_ns(one_pass, max(3, reps // 10)))
    mixed.close()
    return paths


def bench_curve(directory: str, quick: bool) -> list[dict]:
    """Hit-rate vs resident-fraction under a Zipf replay (informational)."""
    rng = np.random.default_rng(11)
    rows = 20_000 if quick else ROWS
    src = rng.standard_normal((rows, WIDTH))
    perm = rng.permutation(rows)  # decouple hotness from id order
    traffic = perm[(rng.zipf(1.05, size=(16 if quick else 64) * BATCH) - 1) % rows]
    curve = []
    for fraction in (0.05, 0.10, 0.25):
        table = make_table(
            src,
            directory,
            max(1, int(fraction * src.nbytes)),
            pass_rows=max(1024, len(traffic) // 8),
            target_hit_rate=1.0,
            max_evict_per_pass=4096,
        )
        for lo in range(0, len(traffic), BATCH):
            table.read(traffic[lo : lo + BATCH])
        table.rebalance()
        h0, a0 = table.stats.hot_rows, table.stats.accesses
        for lo in range(0, len(traffic), BATCH):
            table.read(traffic[lo : lo + BATCH])
        hit = (table.stats.hot_rows - h0) / max(1, table.stats.accesses - a0)
        curve.append({"fraction": fraction, "steady_hit": round(hit, 3)})
        table.close()
    return curve


def render(report: dict) -> str:
    lines = [
        f"{'path':20s} {'ns/op':>12s} {'dense ns/op':>12s} {'overhead':>9s}"
    ]
    for name, entry in report["paths"].items():
        lines.append(
            f"{name:20s} {entry['ns_per_op']:>12,.0f} "
            f"{entry['dense_ns_per_op']:>12,.0f} "
            f"{entry['overhead_factor']:>8.2f}x"
        )
    curve = ", ".join(
        f"({p['fraction']:.2f}, {p['steady_hit']:.3f})" for p in report["curve"]
    )
    lines.append(f"hit-rate vs resident fraction: {curve}")
    return "\n".join(lines)


def check(report: dict) -> int:
    """Gate measured overhead factors against the committed baseline."""
    if not BENCH_PATH.exists():
        print(f"no committed baseline at {BENCH_PATH}; run without --check first")
        return 1
    committed = json.loads(BENCH_PATH.read_text())
    failures = []
    for name, entry in committed["paths"].items():
        measured = report["paths"].get(name)
        if measured is None:
            failures.append(f"{name}: missing from measured report")
            continue
        ceiling = entry["overhead_factor"] * REGRESSION_FACTOR
        if measured["overhead_factor"] > ceiling:
            failures.append(
                f"{name}: overhead {measured['overhead_factor']:.2f}x "
                f"exceeds ceiling {ceiling:.2f}x "
                f"(committed {entry['overhead_factor']:.2f}x * "
                f"{REGRESSION_FACTOR})"
            )
    if failures:
        print("PERF REGRESSION:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(
        f"perf gate OK: {len(committed['paths'])} tier paths within "
        f"{REGRESSION_FACTOR}x of committed overhead factors"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against committed BENCH_tier.json instead of rewriting it",
    )
    parser.add_argument(
        "--quick", action="store_true", help="fewer reps, smaller curve replay"
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-tier-") as directory:
        report = {
            "workload": {
                "rows": ROWS,
                "width": WIDTH,
                "block_rows": BLOCK,
                "batch": BATCH,
            },
            "paths": bench_paths(directory, args.quick),
            "curve": bench_curve(directory, args.quick),
        }
    print(render(report))
    if args.check:
        return check(report)
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {BENCH_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
