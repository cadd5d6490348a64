"""Tiered embedding store: memory oversubscription for tables > RAM.

HET-KG's premise is that a small resident hot set absorbs most embedding
traffic.  This package takes that bet to its storage-layer conclusion, the
way HugeCTR's HMEM-Cache oversubscribes device memory: embedding tables
live on disk and only the hot fraction is resident, governed by an explicit
byte budget.

Three tiers, by descending access frequency:

* **hot**  — resident float64 block copies (exact, fastest) in one flat
  array, found through a block -> slot map (one gather per access);
* **warm** — the authoritative ``np.memmap`` shard file (exact, charged
  simulated I/O per read);
* **cold** — blocks idle for several passes are *quantized* in place
  (``fp16``/``int8``, the wire codecs of :mod:`repro.ps.compression`)
  and their full-precision copy abandoned — dequant-on-read, lossy.

Promotion/demotion runs at pass granularity driven by per-block access
counters (``target_hit_rate`` short-circuits a pass, ``max_evict_per_pass``
bounds churn), and every byte moved or (de)quantized is charged to
dedicated ``tier.*`` SimClock categories.

Entry point: ``ShardedKVStore(..., backing="tiered", tier=TierConfig(...))``
— the default ``backing="resident"`` path is bit-identical to the
pre-tiering store.
"""

from repro.tier.budget import BudgetExceededError, MemoryBudget, format_bytes, parse_bytes
from repro.tier.policy import TierCostModel, TierPolicy
from repro.tier.runtime import TierConfig, TierRuntime
from repro.tier.store import COLD, HOT, WARM, TierStats, TieredTable

__all__ = [
    "BudgetExceededError",
    "MemoryBudget",
    "TierConfig",
    "TierCostModel",
    "TierPolicy",
    "TierRuntime",
    "TierStats",
    "TieredTable",
    "HOT",
    "WARM",
    "COLD",
    "format_bytes",
    "parse_bytes",
]
