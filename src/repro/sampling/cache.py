"""Hotness-aware hard-negative cache (NSCaching-style).

HET-KG bets that a small hot set dominates *embedding* traffic; NSCaching
(arXiv:1812.06410) makes the structurally identical bet on *negatives*: for
each ``(entity, relation, direction)`` anchor, a small cache of high-score
("hard") corruptions dominates the gradient signal, so drawing negatives
from that cache converges with far fewer scored candidates than uniform
corruption needs.

:class:`CachedNegativeSampler` extends :class:`~repro.sampling.negative.
NegativeSampler` with NSCaching's two-level index/cache scheme:

* **cache** — per-key arrays of up to ``cache_size`` hard negative ids,
  keyed by ``(anchor_entity, relation_id, corrupt_head)`` where the anchor
  is the entity that *stays* in the corrupted triple;
* **index (candidate pool)** — at refresh time each due key scores
  ``pool_size`` fresh uniform draws *unioned with* its current cache
  against the live model and keeps the importance-sampled top
  ``cache_size`` (Gumbel top-k over ``score / temperature``, so
  ``temperature -> 0`` degenerates to exact top-k and larger temperatures
  flatten toward uniform keep probability).

Refreshes are *lazy and hotness-aware*: batches only mark their keys as
touched (with a touch count), and every ``refresh_period`` worker steps
the ``refresh_keys`` hottest pending keys are refreshed — the same
head-of-the-Zipf-curve argument HET-KG applies to the embedding cache.
The driving :class:`~repro.core.worker.Worker` pulls the candidate rows
through the parameter server and charges both the pull traffic and the
scoring flops to the ``"neg_cache"`` clock category, so the accounting
books keep the cache honest.

Two modes (``config.neg_cache``):

* ``"nscaching"`` — warm keys draw every negative from their cache
  (cold keys fall back to the inherited uniform corruption);
* ``"auto"`` — the auto-balanced variant (arXiv:2010.14227-style): the
  probability of substituting a cached hard negative anneals linearly
  from 0 (pure exploration) to 1 (pure exploitation) over
  ``anneal_steps`` batches, trading off early coverage against late
  hardness without a hand-tuned switch point.

State layout: a key is one ``int64`` *code* (:func:`encode_keys`) whose
integer order equals the ``(anchor, relation, corrupt_head)`` tuple
order.  Pending keys are a sorted code array with a parallel touch-count
array; cached keys are a sorted code array whose row ``i`` owns row ``i``
of one dense ``(slots, cache_size)`` id table (unused cells hold ``-1``)
and of a length column.  Every operation is a whole-batch / whole-plan
NumPy pass over those arrays (``docs/sampling.md`` has the details).

Determinism: all cache decisions draw from a dedicated side stream
(seeded from the sampler seed + a fixed salt), and the inherited uniform
corruption consumes exactly the base class's draws, so `the base batch is
bit-identical to a plain sampler's` and disabling the cache
(``neg_cache="off"``) cannot perturb any other component.  Refresh plans
order keys by ``(-touch count, anchor, relation, corrupt_head)`` and the
side stream is drawn in exactly that order (batched draws equal the
per-key draws element for element), so a run is a pure function of
``(seed, config, data)``.

Streaming (:mod:`repro.stream`): :meth:`CachedNegativeSampler.resize`
grows the uniform candidate range, so freshly-minted entities start
entering candidate pools at the next refresh; :meth:`invalidate_ids`
drops keys anchored on deleted ids and purges deleted ids from every
cached negative list.  An empty stream triggers neither, keeping the
zero-drift path bit-identical to a static cached run.
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

#: Entity and relation ids a key code can hold (31 bits each, plus the
#: direction bit, keeps the code a non-negative ``int64``).
MAX_KEY_ID = 1 << 31

Key = tuple[int, int, bool]


def encode_keys(
    anchors: np.ndarray, relations: np.ndarray, corrupt_head: np.ndarray
) -> np.ndarray:
    """Pack keys as ``anchor << 32 | relation << 1 | corrupt_head``.

    With ids below :data:`MAX_KEY_ID` the codes are non-negative ``int64``
    and compare exactly like the ``(anchor, relation, corrupt_head)``
    tuples they stand for.
    """
    return (
        (np.asarray(anchors, dtype=np.int64) << 32)
        | (np.asarray(relations, dtype=np.int64) << 1)
        | np.asarray(corrupt_head, dtype=np.int64)
    )


def decode_keys(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_keys`: ``(anchors, relations, corrupt_head)``."""
    return codes >> 32, (codes >> 1) & (MAX_KEY_ID - 1), (codes & 1).astype(bool)


def _as_tuples(codes: np.ndarray) -> list[Key]:
    anchors, relations, heads = decode_keys(codes)
    return list(zip(anchors.tolist(), relations.tolist(), heads.tolist()))


def _locate(sorted_codes: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Insertion positions of ``codes`` in ``sorted_codes`` and which are present."""
    pos = np.searchsorted(sorted_codes, codes)
    if not len(sorted_codes):
        return pos, np.zeros(len(codes), dtype=bool)
    return pos, sorted_codes[np.minimum(pos, len(sorted_codes) - 1)] == codes


class _HotnessQueue:
    """Touched keys awaiting a refresh: sorted codes and their touch counts.

    Touches are appended to a log and folded into the sorted arrays only
    when the queue is read, so marking a batch costs one list append.
    """

    def __init__(self) -> None:
        self._codes = np.empty(0, dtype=np.int64)
        self._counts = np.empty(0, dtype=np.int64)
        self._log: list[np.ndarray] = []

    def __bool__(self) -> bool:
        return bool(self._log) or len(self._codes) > 0

    def __len__(self) -> int:
        self._fold()
        return len(self._codes)

    def touch(self, codes: np.ndarray) -> None:
        """Count one touch per entry of ``codes`` (repeats add up)."""
        self._log.append(codes)

    def add(self, codes: np.ndarray, counts: np.ndarray) -> None:
        """Add ``counts`` touches to sorted unique ``codes``."""
        pos, known = _locate(self._codes, codes)
        self._counts[pos[known]] += counts[known]
        if not known.all():
            new = ~known
            self._codes = np.insert(self._codes, pos[new], codes[new])
            self._counts = np.insert(self._counts, pos[new], counts[new])

    def _fold(self) -> None:
        if self._log:
            self.add(*np.unique(np.concatenate(self._log), return_counts=True))
            self._log.clear()

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """``(codes, counts)`` of every pending key, in key order."""
        self._fold()
        return self._codes, self._counts

    def pop_hottest(self, k: int) -> np.ndarray:
        """Remove and return the ``k`` hottest codes, ordered ``(-count, code)``.

        A histogram of the counts finds the cut (linear however many keys
        tie, which with mostly-once-touched keys is nearly all of them);
        only the selected ``k`` entries are sorted, so the cost in
        interpreter time does not depend on the backlog.
        """
        self._fold()
        n = len(self._codes)
        if n <= k:
            chosen = np.arange(n)
        else:
            at_least = np.cumsum(np.bincount(self._counts)[::-1])[::-1]
            cut = np.flatnonzero(at_least >= k)[-1]  # the k-th hottest count
            above = np.flatnonzero(self._counts > cut)
            ties = np.flatnonzero(self._counts == cut)[: k - len(above)]
            chosen = np.sort(np.concatenate([above, ties]))
        # ``chosen`` ascends in code, so a stable sort on -count is the
        # (-count, code) order.
        hottest = chosen[np.argsort(-self._counts[chosen], kind="stable")]
        codes = self._codes[hottest]
        self._codes = np.delete(self._codes, chosen)
        self._counts = np.delete(self._counts, chosen)
        return codes

    def discard(self, entity_ids: np.ndarray, relation_ids: np.ndarray) -> None:
        """Drop keys anchored on ``entity_ids`` or using ``relation_ids``."""
        self._fold()
        anchors, relations, _ = decode_keys(self._codes)
        keep = ~(np.isin(anchors, entity_ids) | np.isin(relations, relation_ids))
        self._codes, self._counts = self._codes[keep], self._counts[keep]


@dataclass
class RefreshPlan:
    """One refresh event's worth of scoring work, ready for the worker.

    The worker pulls ``entity_ids``/``relation_ids`` rows through the
    parameter server (charging the traffic) and hands them back via
    :meth:`CachedNegativeSampler.complete_refresh`, which scores
    ``num_scores`` candidate triples and rewrites the due caches.
    """

    #: Codes of the keys being refreshed, in ``(-touch count, key)`` order.
    codes: np.ndarray
    #: Candidates per key (all positive).
    counts: np.ndarray
    #: Candidate entity ids of all keys back to back; each key's run is
    #: the sorted deduped union of its cache and its fresh pool.
    candidate_ids: np.ndarray
    #: Sorted unique entity ids to pull (anchors + all candidates).
    entity_ids: np.ndarray = field(init=False)
    #: Sorted unique relation ids to pull.
    relation_ids: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        anchors, relations, _ = decode_keys(self.codes)
        self.entity_ids = np.unique(np.concatenate([anchors, self.candidate_ids]))
        self.relation_ids = np.unique(relations)

    @property
    def keys(self) -> list[Key]:
        """The refreshed keys as ``(anchor, relation, corrupt_head)`` tuples."""
        return _as_tuples(self.codes)

    @property
    def candidates(self) -> list[np.ndarray]:
        """Per-key views of :attr:`candidate_ids`."""
        return np.split(self.candidate_ids, np.cumsum(self.counts)[:-1])

    @property
    def num_scores(self) -> int:
        """Candidate triples this plan scores."""
        return len(self.candidate_ids)


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
        self._check_codable(num_entities)
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
        # Cached keys: sorted codes; row i of the table and the length
        # column belong to code i.  Cells past a row's length hold -1.
        self._codes = np.empty(0, dtype=np.int64)
        self._table = np.empty((0, cache_size), dtype=np.int64)
        self._lens = np.empty(0, dtype=np.int64)
        self._pending = _HotnessQueue()
        self._batches = 0
        # Monotone counters (trainers snapshot-and-diff per train() call).
        self.refreshes = 0
        self.refreshed_keys = 0
        self.candidates_scored = 0
        self.hard_negatives_served = 0

    @staticmethod
    def _check_codable(num_entities: int) -> None:
        if num_entities > MAX_KEY_ID:
            raise ValueError(
                f"num_entities={num_entities} exceeds the {MAX_KEY_ID} ids a "
                "hard-negative cache key can encode"
            )

    # ------------------------------------------------------------- properties

    @property
    def num_keys(self) -> int:
        """Keys currently holding a (possibly empty) hard-negative cache."""
        return len(self._codes)

    @property
    def pending_keys(self) -> int:
        """Touched keys queued for a future refresh."""
        return len(self._pending)

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

    # ------------------------------------------------------------- inspection

    @staticmethod
    def _key_of(positive: np.ndarray, corrupt_head: bool) -> Key:
        """The cache key of one corruption: the entity that *stays*."""
        anchor = positive[TAIL] if corrupt_head else positive[HEAD]
        return (int(anchor), int(positive[REL]), bool(corrupt_head))

    def cached_keys(self) -> list[Key]:
        """Keys holding a cache, in key order."""
        return _as_tuples(self._codes)

    def cached(self, key: Key) -> np.ndarray | None:
        """A copy of ``key``'s hard negatives, or ``None`` without a cache."""
        pos, known = _locate(self._codes, encode_keys(*key)[None])
        if not known[0]:
            return None
        slot = pos[0]
        return self._table[slot, : self._lens[slot]].copy()

    def seed_cache(self, key: Key, ids: np.ndarray) -> None:
        """Install ``ids`` (at most ``cache_size`` of them) as ``key``'s cache."""
        ids = np.asarray(ids, dtype=np.int64).ravel()
        if len(ids) > self.cache_size or (ids < 0).any():
            raise ValueError(
                f"a cache holds at most {self.cache_size} non-negative ids, "
                f"got {ids.tolist()}"
            )
        row = np.full((1, self.cache_size), -1, dtype=np.int64)
        row[0, : len(ids)] = ids
        self._store(encode_keys(*key)[None], row, np.array([len(ids)]))

    def pending(self) -> dict[Key, int]:
        """Touch count of every key queued for a refresh."""
        codes, counts = self._pending.items()
        return dict(zip(_as_tuples(codes), counts.tolist()))

    def touch(self, key: Key, count: int = 1) -> None:
        """Queue ``key`` for a refresh with ``count`` more touches."""
        check_positive("count", count)
        self._pending.add(encode_keys(*key)[None], np.array([count]))

    # ---------------------------------------------------------------- corrupt

    def corrupt(self, positives: np.ndarray) -> MiniBatch:
        """Corrupt ``positives``, substituting cached hard negatives.

        The base class draws the uniform batch first (consuming exactly a
        plain sampler's RNG sequence), then warm keys replace a
        ``mix_fraction()`` share of their slots with cache draws from the
        side stream, row by row in batch order.  Every key the batch
        touches is marked for a future hotness-ordered refresh.
        """
        batch = super().corrupt(positives)
        if batch.size == 0:
            return batch
        alpha = self.mix_fraction()
        self._batches += 1
        heads = batch.corrupt_head
        anchors = np.where(heads, batch.positives[:, TAIL], batch.positives[:, HEAD])
        codes = encode_keys(anchors, batch.positives[:, REL], heads)
        self._pending.touch(codes)
        if alpha <= 0.0:
            return batch
        pos, known = _locate(self._codes, codes)
        rows = np.flatnonzero(known)
        rows = rows[self._lens[pos[rows]] > 0]  # warm: a non-empty cache
        if not len(rows):
            return batch
        slots = pos[rows]
        lens = self._lens[slots]
        n = batch.num_negatives
        if alpha >= 1.0:
            # One draw with per-element bounds equals the per-row
            # ``integers(0, len, n)`` calls it replaces, element for
            # element and in the generator state left behind.
            draws = self._cache_rng.integers(0, np.repeat(lens, n))
            batch.neg_entities[rows] = self._table[
                slots[:, None], draws.reshape(len(rows), n)
            ]
            self.hard_negatives_served += len(rows) * n
            return batch
        # Annealing interleaves 64-bit ``random`` and 32-bit ``integers``
        # draws per row, so the draws stay in row order.
        for i, slot, length in zip(rows.tolist(), slots.tolist(), lens.tolist()):
            mask = self._cache_rng.random(n) < alpha
            k = int(mask.sum())
            if k == 0:
                continue
            picks = self._cache_rng.integers(0, length, size=k)
            batch.neg_entities[i, mask] = self._table[slot, picks]
            self.hard_negatives_served += k
        return batch

    # ---------------------------------------------------------------- refresh

    def refresh_due(self, step_index: int) -> bool:
        """Whether the worker's ``step_index`` should trigger a refresh."""
        return step_index % self.refresh_period == 0 and bool(self._pending)

    def plan_refresh(self) -> RefreshPlan | None:
        """Select the hottest pending keys and draw their candidate pools.

        Returns ``None`` when nothing is pending.  Selected keys leave the
        pending queue; the remainder keep their touch counts for the next
        event (hotness priority with queue fairness).  Candidate pools are
        ``unique(cache ∪ pool_size uniform draws) - {anchor}``, minus any
        id that would be a false negative when a filter is installed.
        """
        codes = self._pending.pop_hottest(self.refresh_keys)
        if not len(codes):
            return None
        anchors, relations, heads = decode_keys(codes)
        # Row i: key i's current cache (-1 where it has none) then its
        # fresh draws; one draw of (keys, pool_size) equals the per-key
        # draws in key order.
        pool = np.full(
            (len(codes), self.cache_size + self.pool_size), -1, dtype=np.int64
        )
        pool[:, self.cache_size :] = self._draw_candidates(
            (len(codes), self.pool_size)
        )
        pos, known = _locate(self._codes, codes)
        pool[known, : self.cache_size] = self._table[pos[known]]
        pool.sort(axis=1)
        keep = pool >= 0
        keep[:, 1:] &= pool[:, 1:] != pool[:, :-1]
        keep &= pool != anchors[:, None]
        if self._filter_index is not None:
            keep[keep] = ~self._collisions(
                anchors, relations, heads, np.nonzero(keep)[0], pool[keep]
            )
        counts = keep.sum(axis=1)
        live = counts > 0
        if not live.any():
            return None
        return RefreshPlan(codes[live], counts[live], pool[keep])

    def _draw_candidates(self, size) -> np.ndarray:
        """Uniform candidate ids from the side stream (not the base RNG)."""
        if self.entity_pool is None:
            return self._cache_rng.integers(0, self.num_entities, size=size)
        idx = self._cache_rng.integers(0, len(self.entity_pool), size=size)
        return self.entity_pool[idx]

    def _collisions(
        self,
        anchors: np.ndarray,
        relations: np.ndarray,
        heads: np.ndarray,
        key_index: np.ndarray,
        candidates: np.ndarray,
    ) -> np.ndarray:
        """Which ``candidates[j]`` of key ``key_index[j]`` form a true triple."""
        anchor, head = anchors[key_index], heads[key_index]
        return self._filter_index.contains_batch(
            np.where(head, candidates, anchor),
            relations[key_index],
            np.where(head, anchor, candidates),
        )

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
        counts, cands = plan.counts, plan.candidate_ids
        num_keys = len(plan.codes)
        anchors, relations, heads = decode_keys(plan.codes)
        key_index = np.repeat(np.arange(num_keys), counts)
        anchor_rows = entity_rows[
            np.searchsorted(plan.entity_ids, anchors)[key_index]
        ]
        cand_rows = entity_rows[np.searchsorted(plan.entity_ids, cands)]
        rel_rows = relation_rows[
            np.searchsorted(plan.relation_ids, relations)[key_index]
        ]
        corrupts_head = heads[key_index][:, None]
        h_rows = np.where(corrupts_head, cand_rows, anchor_rows)
        t_rows = np.where(corrupts_head, anchor_rows, cand_rows)
        scores = np.asarray(model.score(h_rows, rel_rows, t_rows), dtype=float)
        # Gumbel top-k == sampling cache_size candidates without
        # replacement with probability proportional to softmax(score/T).
        uniform = self._cache_rng.random(len(scores))
        gumbel = -np.log(-np.log(np.clip(uniform, 1e-12, 1.0 - 1e-12)))
        perturbed = scores / self.temperature + gumbel
        # One stable argsort over a (keys, widest pool) matrix replaces the
        # per-key sorts.  NaN padding sorts after every real entry — and,
        # the sort being stable, after a real NaN score too.
        width = int(counts.max())
        column = np.arange(len(cands)) - np.repeat(np.cumsum(counts) - counts, counts)
        ranked = np.full((num_keys, width), np.nan)
        ranked[key_index, column] = -perturbed
        kept = np.argsort(ranked, axis=1, kind="stable")[:, : self.cache_size]
        lens = np.minimum(counts, self.cache_size)
        # Kept candidates go back in pool order; ranks past a key's length
        # point at the -1 column appended to the padded candidate matrix.
        kept[np.arange(kept.shape[1]) >= lens[:, None]] = width
        kept.sort(axis=1)
        padded = np.full((num_keys, width + 1), -1, dtype=np.int64)
        padded[key_index, column] = cands
        rows = np.full((num_keys, self.cache_size), -1, dtype=np.int64)
        rows[:, : kept.shape[1]] = np.take_along_axis(padded, kept, axis=1)
        self._store(plan.codes, rows, lens)
        self.refreshes += 1
        self.refreshed_keys += num_keys
        self.candidates_scored += len(cands)
        return len(cands)

    def _store(self, codes: np.ndarray, rows: np.ndarray, lens: np.ndarray) -> None:
        """Write the cache rows of distinct ``codes``, inserting new keys."""
        order = np.argsort(codes)
        codes, rows, lens = codes[order], rows[order], lens[order]
        pos, known = _locate(self._codes, codes)
        self._table[pos[known]] = rows[known]
        self._lens[pos[known]] = lens[known]
        if not known.all():
            new = ~known
            self._codes = np.insert(self._codes, pos[new], codes[new])
            self._table = np.insert(self._table, pos[new], rows[new], axis=0)
            self._lens = np.insert(self._lens, pos[new], lens[new])

    def _purge(self, cells: np.ndarray) -> None:
        """Remove the masked table cells, closing each row's gaps in order."""
        self._table[cells] = -1
        order = np.argsort(self._table < 0, axis=1, kind="stable")
        self._table = np.take_along_axis(self._table, order, axis=1)
        self._lens = (self._table >= 0).sum(axis=1)

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
        self._check_codable(num_entities)
        super().resize(num_entities, filter_graph=filter_graph)
        if filter_graph is not None and self._filter_index is not None:
            filled = self._table >= 0
            collide = self._collisions(
                *decode_keys(self._codes), np.nonzero(filled)[0], self._table[filled]
            )
            if collide.any():
                filled[filled] = collide
                self._purge(filled)

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
        entity_ids = np.asarray(entity_ids).ravel().astype(np.int64)
        relation_ids = np.asarray(relation_ids).ravel().astype(np.int64)
        if not len(entity_ids) and not len(relation_ids):
            return 0
        anchors, relations, _ = decode_keys(self._codes)
        drop = np.isin(anchors, entity_ids) | np.isin(relations, relation_ids)
        dropped = int(drop.sum())
        if dropped:
            keep = ~drop
            self._codes = self._codes[keep]
            self._table = self._table[keep]
            self._lens = self._lens[keep]
        deleted = np.isin(self._table, entity_ids)
        if deleted.any():
            self._purge(deleted)
        self._pending.discard(entity_ids, relation_ids)
        return dropped
