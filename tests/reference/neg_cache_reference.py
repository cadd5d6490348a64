"""Reference oracle: the dict-of-tuples hard-negative cache sampler.

This is ``repro.sampling.cache`` as it stood before the array-backed
rewrite, kept verbatim (one ``dict`` of id arrays and one ``dict`` of touch
counts keyed by ``(anchor, relation, corrupt_head)`` tuples, one Python
loop per key).  ``tests/test_neg_cache_equivalence.py`` drives it next to
the production sampler and requires identical batches, plans, cache
contents, counters and side-stream state.  Not imported by ``src/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kg.graph import HEAD, REL, TAIL, KnowledgeGraph
from repro.sampling.negative import MiniBatch, NegativeSampler
from repro.utils.validation import check_in, check_positive

#: Cache modes a :class:`CachedNegativeSampler` accepts (``"off"`` is a
#: config-level value meaning "build a plain sampler instead").
NEG_CACHE_MODES = ("nscaching", "auto")

#: Salt deriving the cache's side stream from the sampler seed (the
#: NSCaching arXiv id).  Entropy-sequence seeding keeps the side stream a
#: pure function of ``(seed, salt)`` without consuming base draws.
NEG_CACHE_STREAM_SALT = 181206410


@dataclass
class RefreshPlan:
    """One refresh event's worth of scoring work, ready for the worker.

    The worker pulls ``entity_ids``/``relation_ids`` rows through the
    parameter server (charging the traffic) and hands them back via
    :meth:`CachedNegativeSampler.complete_refresh`, which scores
    ``num_scores`` candidate triples and rewrites the due caches.
    """

    #: Keys being refreshed, in deterministic (hotness, key) order.
    keys: list[tuple[int, int, bool]]
    #: Per-key candidate entity ids (deduped union of cache and pool).
    candidates: list[np.ndarray]
    #: Sorted unique entity ids to pull (anchors + all candidates).
    entity_ids: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    #: Sorted unique relation ids to pull.
    relation_ids: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    def __post_init__(self) -> None:
        anchors = np.array([k[0] for k in self.keys], dtype=np.int64)
        rels = np.array([k[1] for k in self.keys], dtype=np.int64)
        cands = (
            np.concatenate(self.candidates)
            if self.candidates
            else np.empty(0, np.int64)
        )
        self.entity_ids = np.unique(np.concatenate([anchors, cands]))
        self.relation_ids = np.unique(rels)

    @property
    def num_scores(self) -> int:
        """Candidate triples this plan scores."""
        return int(sum(len(c) for c in self.candidates))


class CachedNegativeSampler(NegativeSampler):
    """A :class:`NegativeSampler` backed by per-key hard-negative caches.

    Parameters beyond the base class
    --------------------------------
    mode:
        ``"nscaching"`` (always draw from warm caches) or ``"auto"``
        (anneal the cache-draw probability over ``anneal_steps`` batches).
    cache_size:
        Hard negatives kept per ``(entity, relation, direction)`` key
        (NSCaching's ``N1``).
    pool_size:
        Fresh uniform candidates scored per key refresh (``N2``); the
        scored pool is the union of these and the current cache.
    refresh_period:
        Worker steps between refresh events (checked by the worker via
        :meth:`refresh_due`).
    refresh_keys:
        Budget of keys refreshed per event; the hottest pending keys (by
        touch count) win, the rest stay queued with their counts.
    temperature:
        Gumbel top-k temperature over candidate scores — lower is closer
        to exact top-k, higher flattens toward uniform retention.
    anneal_steps:
        ``"auto"`` mode's exploration->exploitation ramp length (batches).
    """

    def __init__(
        self,
        num_entities: int,
        num_negatives: int = 8,
        strategy: str = "chunked",
        chunk_size: int = 16,
        filter_graph: KnowledgeGraph | None = None,
        entity_pool: np.ndarray | None = None,
        seed: int | np.random.Generator | None = None,
        *,
        mode: str = "nscaching",
        cache_size: int = 8,
        pool_size: int = 16,
        refresh_period: int = 4,
        refresh_keys: int = 64,
        temperature: float = 0.5,
        anneal_steps: int = 256,
    ) -> None:
        super().__init__(
            num_entities,
            num_negatives=num_negatives,
            strategy=strategy,
            chunk_size=chunk_size,
            filter_graph=filter_graph,
            entity_pool=entity_pool,
            seed=seed,
        )
        check_in("mode", mode, NEG_CACHE_MODES)
        check_positive("cache_size", cache_size)
        check_positive("pool_size", pool_size)
        check_positive("refresh_period", refresh_period)
        check_positive("refresh_keys", refresh_keys)
        check_positive("temperature", temperature)
        check_positive("anneal_steps", anneal_steps)
        self.mode = mode
        self.cache_size = cache_size
        self.pool_size = pool_size
        self.refresh_period = refresh_period
        self.refresh_keys = refresh_keys
        self.temperature = temperature
        self.anneal_steps = anneal_steps
        # The side stream: cache decisions must not consume base draws, so
        # the inherited uniform corruption stays bit-identical to a plain
        # sampler seeded the same way.  An int seed derives the stream as
        # a pure (seed, salt) function; a Generator seed (tests) spends
        # one draw of the shared stream instead.
        if isinstance(seed, np.random.Generator):
            self._cache_rng = np.random.default_rng(
                [int(seed.integers(2**63)), NEG_CACHE_STREAM_SALT]
            )
        else:
            from repro.utils.rng import DEFAULT_SEED

            scalar = DEFAULT_SEED if seed is None else int(seed)
            self._cache_rng = np.random.default_rng(
                [scalar, NEG_CACHE_STREAM_SALT]
            )
        self._cache: dict[tuple[int, int, bool], np.ndarray] = {}
        self._touched: dict[tuple[int, int, bool], int] = {}
        self._batches = 0
        # Monotone counters (trainers snapshot-and-diff per train() call).
        self.refreshes = 0
        self.refreshed_keys = 0
        self.candidates_scored = 0
        self.hard_negatives_served = 0

    # ------------------------------------------------------------- properties

    @property
    def num_keys(self) -> int:
        """Keys currently holding a (possibly empty) hard-negative cache."""
        return len(self._cache)

    @property
    def pending_keys(self) -> int:
        """Touched keys queued for a future refresh."""
        return len(self._touched)

    def mix_fraction(self) -> float:
        """Probability a negative slot is served from a warm cache."""
        if self.mode == "nscaching":
            return 1.0
        return min(1.0, self._batches / self.anneal_steps)

    def counters(self) -> dict[str, int]:
        """Monotone lifetime counters (snapshot-and-diff to scope a run)."""
        return {
            "refreshes": self.refreshes,
            "refreshed_keys": self.refreshed_keys,
            "candidates_scored": self.candidates_scored,
            "hard_negatives_served": self.hard_negatives_served,
        }

    # ---------------------------------------------------------------- corrupt

    @staticmethod
    def _key_of(positive: np.ndarray, corrupt_head: bool) -> tuple[int, int, bool]:
        """The cache key of one corruption: the entity that *stays*."""
        anchor = positive[TAIL] if corrupt_head else positive[HEAD]
        return (int(anchor), int(positive[REL]), bool(corrupt_head))

    def corrupt(self, positives: np.ndarray) -> MiniBatch:
        """Corrupt ``positives``, substituting cached hard negatives.

        The base class draws the uniform batch first (consuming exactly a
        plain sampler's RNG sequence), then warm keys replace a
        ``mix_fraction()`` share of their slots with cache draws from the
        side stream.  Every key the batch touches is marked for a future
        hotness-ordered refresh.
        """
        batch = super().corrupt(positives)
        if batch.size == 0:
            return batch
        alpha = self.mix_fraction()
        self._batches += 1
        n = batch.num_negatives
        for i in range(batch.size):
            key = self._key_of(batch.positives[i], bool(batch.corrupt_head[i]))
            self._touched[key] = self._touched.get(key, 0) + 1
            cached = self._cache.get(key)
            if cached is None or len(cached) == 0 or alpha <= 0.0:
                continue
            if alpha >= 1.0:
                mask = np.ones(n, dtype=bool)
            else:
                mask = self._cache_rng.random(n) < alpha
            k = int(mask.sum())
            if k == 0:
                continue
            picks = cached[self._cache_rng.integers(0, len(cached), size=k)]
            batch.neg_entities[i, mask] = picks
            self.hard_negatives_served += k
        return batch

    # ---------------------------------------------------------------- refresh

    def refresh_due(self, step_index: int) -> bool:
        """Whether the worker's ``step_index`` should trigger a refresh."""
        return bool(self._touched) and step_index % self.refresh_period == 0

    def plan_refresh(self) -> RefreshPlan | None:
        """Select the hottest pending keys and draw their candidate pools.

        Returns ``None`` when nothing is pending.  Selected keys leave the
        pending queue; the remainder keep their touch counts for the next
        event (hotness priority with queue fairness).  Candidate pools are
        ``unique(cache ∪ pool_size uniform draws) - {anchor}``, minus any
        id that would be a false negative when a filter is installed.
        """
        if not self._touched:
            return None
        order = sorted(self._touched.items(), key=lambda kv: (-kv[1], kv[0]))
        due = [key for key, _ in order[: self.refresh_keys]]
        for key in due:
            del self._touched[key]
        keys: list[tuple[int, int, bool]] = []
        pools: list[np.ndarray] = []
        for key in due:
            anchor, rel, corrupt_head = key
            fresh = self._draw_candidates(self.pool_size)
            current = self._cache.get(key)
            merged = (
                np.unique(np.concatenate([current, fresh]))
                if current is not None and len(current)
                else np.unique(fresh)
            )
            merged = merged[merged != anchor]
            if self._filter_index is not None and len(merged):
                if corrupt_head:
                    collide = self._filter_index.contains_batch(
                        merged, np.full(len(merged), rel), np.full(len(merged), anchor)
                    )
                else:
                    collide = self._filter_index.contains_batch(
                        np.full(len(merged), anchor), np.full(len(merged), rel), merged
                    )
                merged = merged[~collide]
            if len(merged) == 0:
                continue
            keys.append(key)
            pools.append(merged)
        if not keys:
            return None
        return RefreshPlan(keys=keys, candidates=pools)

    def _draw_candidates(self, size: int) -> np.ndarray:
        """Uniform candidate ids from the side stream (not the base RNG)."""
        if self.entity_pool is None:
            return self._cache_rng.integers(0, self.num_entities, size=size)
        idx = self._cache_rng.integers(0, len(self.entity_pool), size=size)
        return self.entity_pool[idx]

    def complete_refresh(
        self,
        plan: RefreshPlan,
        model,
        entity_rows: np.ndarray,
        relation_rows: np.ndarray,
    ) -> int:
        """Score the plan's candidates and rewrite the due caches.

        ``entity_rows``/``relation_rows`` are the rows for
        ``plan.entity_ids``/``plan.relation_ids`` in id order (exactly what
        ``ParameterServer.pull`` returns).  Keeps the importance-sampled
        top ``cache_size`` per key via deterministic Gumbel top-k at
        ``temperature``.  Returns the number of candidate triples scored
        (what the worker charges to the compute model).
        """
        counts = np.array([len(c) for c in plan.candidates], dtype=np.int64)
        anchors = np.repeat(
            np.array([k[0] for k in plan.keys], dtype=np.int64), counts
        )
        rels = np.repeat(
            np.array([k[1] for k in plan.keys], dtype=np.int64), counts
        )
        corrupts_head = np.repeat(
            np.array([k[2] for k in plan.keys], dtype=bool), counts
        )
        cands = np.concatenate(plan.candidates)
        anchor_rows = entity_rows[np.searchsorted(plan.entity_ids, anchors)]
        cand_rows = entity_rows[np.searchsorted(plan.entity_ids, cands)]
        rel_rows = relation_rows[np.searchsorted(plan.relation_ids, rels)]
        h_rows = np.where(corrupts_head[:, None], cand_rows, anchor_rows)
        t_rows = np.where(corrupts_head[:, None], anchor_rows, cand_rows)
        scores = np.asarray(model.score(h_rows, rel_rows, t_rows), dtype=float)
        # Gumbel top-k == sampling cache_size candidates without
        # replacement with probability proportional to softmax(score/T).
        uniform = self._cache_rng.random(len(scores))
        gumbel = -np.log(-np.log(np.clip(uniform, 1e-12, 1.0 - 1e-12)))
        perturbed = scores / self.temperature + gumbel
        start = 0
        for key, count in zip(plan.keys, counts):
            stop = start + int(count)
            slice_cands = cands[start:stop]
            slice_scores = perturbed[start:stop]
            keep = np.argsort(-slice_scores, kind="stable")[: self.cache_size]
            self._cache[key] = slice_cands[np.sort(keep)].copy()
            start = stop
        self.refreshes += 1
        self.refreshed_keys += len(plan.keys)
        self.candidates_scored += int(counts.sum())
        return int(counts.sum())

    # -------------------------------------------------------------- streaming

    def resize(
        self, num_entities: int, filter_graph: KnowledgeGraph | None = None
    ) -> None:
        """Grow the corruption pool; re-filter caches against a new graph.

        New ids need no explicit registration — the next refresh's uniform
        candidate pools draw from the grown range, so fresh entities start
        competing for cache slots immediately.  When ``filter_graph`` is
        passed, cached negatives that the *new* graph turned into true
        triples are purged (no RNG draws are consumed).
        """
        super().resize(num_entities, filter_graph=filter_graph)
        if filter_graph is not None and self._filter_index is not None:
            for key, cached in list(self._cache.items()):
                if not len(cached):
                    continue
                anchor, rel, corrupt_head = key
                if corrupt_head:
                    collide = self._filter_index.contains_batch(
                        cached, np.full(len(cached), rel), np.full(len(cached), anchor)
                    )
                else:
                    collide = self._filter_index.contains_batch(
                        np.full(len(cached), anchor), np.full(len(cached), rel), cached
                    )
                if collide.any():
                    self._cache[key] = cached[~collide]

    def invalidate_ids(
        self, entity_ids: np.ndarray, relation_ids: np.ndarray
    ) -> int:
        """Drop caches invalidated by deleted graph structure.

        Keys anchored on any of ``entity_ids`` (or whose relation is in
        ``relation_ids``) are removed outright — their hard negatives were
        scored against structure that no longer exists.  Deleted entities
        are also purged from every surviving cache's negative list.
        Returns the number of keys dropped.
        """
        ents = {int(e) for e in np.asarray(entity_ids).ravel()}
        rels = {int(r) for r in np.asarray(relation_ids).ravel()}
        if not ents and not rels:
            return 0
        dropped = 0
        for key in list(self._cache):
            anchor, rel, _ = key
            if anchor in ents or rel in rels:
                del self._cache[key]
                self._touched.pop(key, None)
                dropped += 1
                continue
            if ents:
                cached = self._cache[key]
                keep = np.fromiter(
                    (int(e) not in ents for e in cached),
                    dtype=bool,
                    count=len(cached),
                )
                if not keep.all():
                    self._cache[key] = cached[keep]
        for key in list(self._touched):
            anchor, rel, _ = key
            if anchor in ents or rel in rels:
                del self._touched[key]
        return dropped
