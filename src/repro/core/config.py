"""Training configuration — the single source of every hyperparameter.

Defaults follow the paper's Table II where feasible at simulation scale
(embedding dimension is reduced from 400 since NumPy on one box replaces a
32-core cluster; all compared systems always share one config, so ratios
are unaffected).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.utils.validation import (
    check_fraction,
    check_in,
    check_positive,
)


@dataclass
class TrainingConfig:
    """Hyperparameters for one distributed KGE training run.

    Model / objective
    -----------------
    model: score function name (``"transe"``, ``"distmult"``, ...).
    dim: base embedding dimension ``d``.
    loss: ``"ranking"`` (margin), ``"logistic"``, or
        ``"self-adversarial"`` (RotatE-style weighted negatives, extension).
    margin: ranking-loss margin ``gamma``.

    Optimization
    ------------
    lr: AdaGrad learning rate (paper: 0.1).
    optimizer: ``"adagrad"`` (paper) or ``"sgd"``.
    batch_size: positives per mini-batch ``b``.
    num_negatives: corruptions per positive ``b_n``.
    negative_strategy: ``"chunked"`` (PBG/DGL-KE style) or ``"independent"``.
    negative_chunk: positives sharing one negative set ``b_c``.
    filter_false_negatives: resample corruptions that hit true triples.
    epochs: training epochs.

    Hard-negative cache (repro.sampling.cache, NSCaching-style)
    -----------------------------------------------------------
    neg_cache: ``"off"`` (plain uniform corruption, the default —
        bit-identical to the pre-cache trainer), ``"nscaching"`` (warm
        keys draw all negatives from their hard-negative cache), or
        ``"auto"`` (the cache-draw probability anneals from exploration
        to exploitation over ``neg_cache_anneal`` batches).
    neg_cache_size: hard negatives cached per (entity, relation,
        direction) key (NSCaching's ``N1``).
    neg_cache_pool: fresh uniform candidates scored per key refresh
        (``N2``; the scored pool is cache ∪ pool).
    neg_cache_refresh: worker steps between refresh events.
    neg_cache_keys: hottest pending keys refreshed per event (the
        hotness-aware refresh budget).
    neg_cache_temperature: Gumbel top-k temperature over candidate
        scores (lower = closer to exact top-k).
    neg_cache_anneal: ``"auto"`` mode's exploration->exploitation ramp
        length in batches.

    Cluster
    -------
    num_machines: simulated machines (1 worker + 1 server shard each).
    partitioner: ``"metis"`` or ``"random"``.
    bandwidth / latency: remote network model parameters.
    compute_throughput: worker compute model (element-ops/second).
    wire_dim: embedding dimension the *cost models* assume (the paper's
        d = 400).  The trained dimension stays ``dim`` for tractability;
        bytes-on-the-wire and scoring flops are scaled by ``wire_dim/dim``
        so simulated times reflect paper-scale embeddings.  ``None`` makes
        the cost models use the actual ``dim``.
    pbg_partitions: number of entity partitions in the PBG baseline's
        preprocessing — fixed independent of worker count, as in PBG
        itself (its lock server allows at most floor(P/2) concurrent
        buckets, which is what bounds PBG's scalability in Fig. 6).
    compression: lossy wire codec for remote PS traffic (``"none"``,
        ``"fp16"``, ``"int8"``) — an extension beyond the paper; see
        :mod:`repro.ps.compression`.
    machine_speeds: optional per-machine relative compute speeds (length
        ``num_machines``; 1.0 = nominal).  Models heterogeneous clusters /
        stragglers: a 0.5 entry halves that machine's compute throughput.

    Tiered backing (repro.tier)
    ---------------------------
    backing: ``"resident"`` (default, dense in-memory tables — bit-identical
        to the pre-tiering trainer) or ``"tiered"`` (hot/warm/cold row
        store under a byte budget; see :mod:`repro.tier` and
        ``docs/memory.md``).
    memory_budget: resident-byte budget for the tiered backing — an int, a
        size string (``"64M"``), or ``None`` for unlimited.  Requires
        ``backing="tiered"``.
    tier_block_rows: rows per residency block (promotion granularity).
    tier_cold_codec: quantizer for long-idle blocks (``"none"``, ``"fp16"``,
        ``"int8"``); ``"none"`` keeps every non-hot block exact.
    tier_dir: scratch directory for the memmap shards (``None`` = private
        temp dir, removed on close).

    Hot-embedding cache (HET-KG only)
    ---------------------------------
    cache_strategy: ``"cps"``, ``"dps"``, ``"adaptive"`` (drift-triggered
        DPS, see :mod:`repro.stream.drift`), or ``"none"`` (DGL-KE).
    cache_capacity: total cached rows per worker (entities + relations).
    entity_ratio: fraction of slots for entities; ``None`` disables the
        heterogeneity fix (HET-KG-N of Table VII).
    sync_period: ``P`` — cache refresh period bounding staleness.
    dps_window: ``D`` — DPS prefetch window in iterations (also the
        observation window of the ADAPTIVE strategy).
    adaptive_threshold: ADAPTIVE rebuilds when the Jaccard overlap between
        the current window's hot set and the cache membership falls below
        this value (or the hit-ratio EWMA drops; see
        :class:`repro.stream.drift.DriftDetector`).
    adaptive_decay: per-window decay of ADAPTIVE's accumulated hotness
        counts (0 = only the latest window, 1 = never forget).

    seed: master seed for all randomness.
    """

    # model / objective
    model: str = "transe"
    dim: int = 16
    loss: str = "ranking"
    margin: float = 1.0

    # optimization
    lr: float = 0.1
    optimizer: str = "adagrad"
    batch_size: int = 32
    num_negatives: int = 8
    negative_strategy: str = "chunked"
    negative_chunk: int = 16
    filter_false_negatives: bool = False
    epochs: int = 5

    # hard-negative cache (repro.sampling.cache)
    neg_cache: str = "off"
    neg_cache_size: int = 8
    neg_cache_pool: int = 16
    neg_cache_refresh: int = 4
    neg_cache_keys: int = 64
    neg_cache_temperature: float = 0.5
    neg_cache_anneal: int = 256

    # cluster
    num_machines: int = 4
    partitioner: str = "metis"
    bandwidth: float = 125e6
    latency: float = 2e-4
    compute_throughput: float = 2e9
    wire_dim: int | None = 400
    pbg_partitions: int = 4
    compression: str = "none"
    machine_speeds: tuple[float, ...] | None = None

    # hot-embedding cache
    cache_strategy: str = "none"
    cache_capacity: int = 512
    entity_ratio: float | None = 0.25
    sync_period: int = 8
    dps_window: int = 32
    adaptive_threshold: float = 0.65
    adaptive_decay: float = 0.5

    # tiered backing
    backing: str = "resident"
    memory_budget: int | str | None = None
    tier_block_rows: int = 64
    tier_cold_codec: str = "int8"
    tier_dir: str | None = None

    seed: int = 0

    def __post_init__(self) -> None:
        check_positive("dim", self.dim)
        check_positive("lr", self.lr)
        check_positive("batch_size", self.batch_size)
        check_positive("num_negatives", self.num_negatives)
        check_positive("negative_chunk", self.negative_chunk)
        check_positive("epochs", self.epochs)
        check_positive("num_machines", self.num_machines)
        check_positive("cache_capacity", self.cache_capacity)
        check_positive("sync_period", self.sync_period)
        check_positive("dps_window", self.dps_window)
        check_positive("margin", self.margin)
        check_in("loss", self.loss, ("ranking", "logistic", "self-adversarial"))
        check_in("optimizer", self.optimizer, ("adagrad", "sgd"))
        check_in(
            "negative_strategy", self.negative_strategy, ("chunked", "independent")
        )
        check_in("neg_cache", self.neg_cache, ("off", "nscaching", "auto"))
        check_positive("neg_cache_size", self.neg_cache_size)
        check_positive("neg_cache_pool", self.neg_cache_pool)
        check_positive("neg_cache_refresh", self.neg_cache_refresh)
        check_positive("neg_cache_keys", self.neg_cache_keys)
        check_positive("neg_cache_temperature", self.neg_cache_temperature)
        check_positive("neg_cache_anneal", self.neg_cache_anneal)
        check_in("partitioner", self.partitioner, ("metis", "random"))
        check_in(
            "cache_strategy",
            self.cache_strategy,
            ("cps", "dps", "adaptive", "none"),
        )
        check_fraction("adaptive_threshold", self.adaptive_threshold)
        check_fraction("adaptive_decay", self.adaptive_decay)
        if self.entity_ratio is not None:
            check_fraction("entity_ratio", self.entity_ratio)
        if self.wire_dim is not None:
            check_positive("wire_dim", self.wire_dim)
        check_positive("pbg_partitions", self.pbg_partitions)
        check_in("compression", self.compression, ("none", "fp16", "int8"))
        check_in("backing", self.backing, ("resident", "tiered"))
        check_positive("tier_block_rows", self.tier_block_rows)
        check_in(
            "tier_cold_codec", self.tier_cold_codec, ("none", "fp16", "int8")
        )
        if self.memory_budget is not None:
            if self.backing != "tiered":
                raise ValueError(
                    "memory_budget requires backing='tiered' "
                    f"(got backing={self.backing!r})"
                )
            # Fail fast on malformed size strings; the store re-parses later.
            from repro.tier.budget import parse_bytes

            parse_bytes(self.memory_budget)
        if self.machine_speeds is not None:
            if len(self.machine_speeds) != self.num_machines:
                raise ValueError(
                    f"machine_speeds has {len(self.machine_speeds)} entries "
                    f"for {self.num_machines} machines"
                )
            for speed in self.machine_speeds:
                check_positive("machine_speeds entry", speed)

    def speed_of(self, machine: int) -> float:
        """Relative compute speed of ``machine`` (1.0 when homogeneous)."""
        if self.machine_speeds is None:
            return 1.0
        return self.machine_speeds[machine]

    @property
    def cost_dim(self) -> int:
        """Embedding dimension the cost models charge for."""
        return self.wire_dim if self.wire_dim is not None else self.dim

    @property
    def byte_scale(self) -> float:
        """Multiplier turning actual row bytes into wire bytes."""
        return self.cost_dim / self.dim

    def with_overrides(self, **kwargs) -> "TrainingConfig":
        """A copy with some fields replaced (re-validated)."""
        return replace(self, **kwargs)
