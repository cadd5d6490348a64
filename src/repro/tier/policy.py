"""Promotion/demotion policy and simulated cost model for tiered storage.

The policy transplants HugeCTR's HMEM-Cache control loop (SNIPPETS.md §1)
onto our row store:

* residency decisions happen at **pass** granularity, not per access —
  a pass is a fixed number of row accesses (``pass_rows``);
* each pass ranks **blocks** by an exponentially-decayed access count and
  installs the top-k affordable ones hot;
* when the observed hot hit rate already meets ``target_hit_rate`` the
  pass is skipped outright (HMEM-Cache's hit-rate short circuit);
* evictions per pass are bounded by ``max_evict_per_pass``
  (``max_num_evict``) so a workload shift churns the hot set gradually
  instead of thrashing it.

Block size is a real tension, not a free parameter: the Freebase
generator deliberately *permutes* hotness across entity ids, so a coarse
block averages hot and cold rows together and washes out the Zipf skew
the hot tier exists to exploit.  The ``memory-tiering`` experiment
measures this directly (hit rate vs ``block_rows``); the default of 64
rows keeps mapping overhead low while preserving most of the skew.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.simclock import SimClock
from repro.utils.validation import check_fraction, check_positive

#: Valid cold-tier codecs: ``"none"`` disables the cold tier, the others
#: are wire codecs of :mod:`repro.ps.compression`.
COLD_CODECS = ("none", "fp16", "int8")


@dataclass(frozen=True)
class TierPolicy:
    """Knobs governing block residency.

    Parameters
    ----------
    block_rows:
        Rows per residency block.  Promotion, demotion and quantization
        all move whole blocks.
    pass_rows:
        Row accesses (reads + writes) between rebalance passes.
    target_hit_rate:
        Skip a pass when the hot tier already served at least this
        fraction of the window's accesses.
    max_evict_per_pass:
        Upper bound on hot-block *evictions* per pass.  Promotions into
        free hot capacity are unbounded (initial fill must not crawl).
    decay:
        Multiplier applied to historical block counts each pass (an
        exponential half-life over passes).
    cold_after_passes:
        A warm block untouched for this many consecutive passes becomes
        a quantization candidate.
    cold_codec:
        ``"none"`` disables the cold tier (blocks stay warm/exact);
        ``"fp16"``/``"int8"`` quantize idle blocks with the wire codecs
        of :mod:`repro.ps.compression` — lossy until next written.
    """

    block_rows: int = 64
    pass_rows: int = 32768
    target_hit_rate: float = 0.9
    max_evict_per_pass: int = 64
    decay: float = 0.5
    cold_after_passes: int = 2
    cold_codec: str = "int8"

    def __post_init__(self) -> None:
        check_positive("block_rows", self.block_rows)
        check_positive("pass_rows", self.pass_rows)
        check_fraction("target_hit_rate", self.target_hit_rate)
        check_positive("max_evict_per_pass", self.max_evict_per_pass)
        check_fraction("decay", self.decay)
        check_positive("cold_after_passes", self.cold_after_passes)
        if self.cold_codec not in COLD_CODECS:
            raise ValueError(
                f"cold_codec must be one of {COLD_CODECS}, got {self.cold_codec!r}"
            )


@dataclass(frozen=True)
class TierCostModel:
    """Simulated cost of tier traffic, charged to ``tier.*`` clock categories.

    The numbers model a single NVMe-class device backing the warm tier
    (sequential block I/O) and one CPU core running the cold codec; they
    exist so experiments can report an honest time split, not to predict
    any particular box.
    """

    #: Warm-tier (memmap) read bandwidth, bytes/second.
    read_bandwidth: float = 2.0e9
    #: Warm-tier write(back) bandwidth, bytes/second.
    write_bandwidth: float = 1.2e9
    #: Cold codec throughput, elements/second (quant and dequant alike).
    codec_throughput: float = 4.0e8
    #: Fixed latency per tier operation (syscall + mapping overhead).
    op_latency: float = 2.0e-5

    def __post_init__(self) -> None:
        check_positive("read_bandwidth", self.read_bandwidth)
        check_positive("write_bandwidth", self.write_bandwidth)
        check_positive("codec_throughput", self.codec_throughput)
        if self.op_latency < 0:
            raise ValueError(f"op_latency must be >= 0, got {self.op_latency}")

    def read_seconds(self, nbytes: int) -> float:
        if nbytes <= 0:
            return 0.0
        return self.op_latency + nbytes / self.read_bandwidth

    def write_seconds(self, nbytes: int) -> float:
        if nbytes <= 0:
            return 0.0
        return self.op_latency + nbytes / self.write_bandwidth

    def codec_seconds(self, elements: int) -> float:
        if elements <= 0:
            return 0.0
        return self.op_latency + elements / self.codec_throughput


class TierMeter:
    """Routes tier costs into a :class:`SimClock` under ``tier.*`` categories.

    Categories:

    * ``tier.warm``      — demand reads served from the memmap;
    * ``tier.dequant``   — demand reads decoded from cold blocks;
    * ``tier.promote``   — rebalance-time loads into the hot tier;
    * ``tier.writeback`` — hot-eviction writes back to the memmap;
    * ``tier.quant``     — warm->cold encodes;
    * ``tier.grow``      — file extension for streaming vocab growth.
    """

    WARM = "tier.warm"
    DEQUANT = "tier.dequant"
    PROMOTE = "tier.promote"
    WRITEBACK = "tier.writeback"
    QUANT = "tier.quant"
    GROW = "tier.grow"

    def __init__(self, cost: TierCostModel, clock: SimClock | None = None) -> None:
        self.cost = cost
        self.clock = clock if clock is not None else SimClock()

    def warm_read(self, nbytes: int) -> None:
        self.clock.advance(self.cost.read_seconds(nbytes), self.WARM)

    def dequant(self, elements: int) -> None:
        self.clock.advance(self.cost.codec_seconds(elements), self.DEQUANT)

    def promote(self, nbytes: int) -> None:
        self.clock.advance(self.cost.read_seconds(nbytes), self.PROMOTE)

    def writeback(self, nbytes: int) -> None:
        self.clock.advance(self.cost.write_seconds(nbytes), self.WRITEBACK)

    def quant(self, elements: int) -> None:
        self.clock.advance(self.cost.codec_seconds(elements), self.QUANT)

    def grow(self, nbytes: int) -> None:
        self.clock.advance(self.cost.write_seconds(nbytes), self.GROW)

    @property
    def elapsed(self) -> float:
        return self.clock.elapsed

    def breakdown(self) -> dict[str, float]:
        return {
            name: seconds
            for name, seconds in sorted(self.clock.by_category.items())
            if name.startswith("tier.")
        }


__all__ = ["COLD_CODECS", "TierCostModel", "TierMeter", "TierPolicy"]
