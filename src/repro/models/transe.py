"""TransE [Bordes et al., NeurIPS 2013].

Entities and relations share one vector space; a relation is a translation:
``h + r ≈ t`` for true triples.  Score is the negated L1 or L2 distance
``-||h + r - t||``.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import KGEModel, register_model
from repro.utils.validation import check_in

#: Small constant keeping L2 distance differentiable at zero.
_EPS = 1e-12

#: The shortest mean run (rows sharing one set of negatives) that
#: :meth:`TransE.score_negatives` broadcasts over instead of gathering: a
#: run costs one short loop turn, so below this the base's flat gathers are
#: cheaper (a mixed hard-negative batch; measured in docs/performance.md §19).
_MIN_RUN = 4


@register_model("transe")
class TransE(KGEModel):
    """TransE with selectable L1 (paper default) or L2 norm."""

    def __init__(self, dim: int, norm: str = "l1") -> None:
        super().__init__(dim)
        check_in("norm", norm, ("l1", "l2"))
        self.norm = norm

    def score(
        self,
        h: np.ndarray,
        r: np.ndarray,
        t: np.ndarray,
        shared: dict | None = None,
    ) -> np.ndarray:
        diff = h + r - t
        if shared is not None:
            shared["diff"] = diff
        return self._distance(diff)

    def _distance(self, diff: np.ndarray) -> np.ndarray:
        """``-||diff||`` per row of a ``(batch, dim)`` array."""
        if self.norm == "l1":
            return -np.abs(diff).sum(axis=1)
        return -np.sqrt((diff**2).sum(axis=1) + _EPS)

    def score_negatives(
        self,
        h: np.ndarray,
        r: np.ndarray,
        t: np.ndarray,
        entity_rows: np.ndarray,
        relation_rows: np.ndarray,
        heads: np.ndarray,
        relations: np.ndarray,
        tails: np.ndarray,
        corrupt_head: np.ndarray,
        shared: dict | None = None,
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None, np.ndarray | None]:
        """The base's scores, reading each run's ``n`` negative rows once.

        A run is a stretch of consecutive rows that corrupt the same side
        with the same ``n`` entities: a chunk, under the chunked sampler,
        or a part of one where false-negative resampling or the
        hard-negative cache rewrote a row.  A run of tail corruptions is
        ``(h + r)[:, None] - negatives[None]``, one of head corruptions
        ``(negatives[None] + r[:, None]) - t[:, None]``: per cell the
        additions of ``h + r - t`` in their order, so every bit is the
        base's (``negatives + r`` is ``r + negatives`` to the bit).  The
        positives' own ``h``, ``r`` and ``t`` supply the uncorrupted rows.
        The ``(b * n, dim)`` differences go to :meth:`grad` through
        ``shared``, so no operand comes back.  A batch whose runs are
        shorter than :data:`_MIN_RUN` rows on average (the independent
        strategy, a hard-negative batch that rewrote most rows) goes
        through the base, whose three flat gathers beat a loop over that
        many runs.
        """
        b, d = len(corrupt_head), entity_rows.shape[1]
        n = len(heads) // b if b else 0
        corrupted = np.where(corrupt_head[:, None], heads.reshape(b, n), tails.reshape(b, n))
        starts = np.flatnonzero(
            np.concatenate(
                (
                    [True],
                    (corrupted[1:] != corrupted[:-1]).any(axis=1)
                    | (corrupt_head[1:] != corrupt_head[:-1]),
                )
            )
        )
        if _MIN_RUN * len(starts) > b:
            return super().score_negatives(
                h, r, t, entity_rows, relation_rows, heads, relations, tails, corrupt_head, shared
            )
        h_plus_r = (h + r)[:, None]
        r, t = r[:, None], t[:, None]
        negatives = np.take(entity_rows, corrupted[starts], axis=0)
        diff = np.empty((b, n, d), dtype=np.result_type(h, r))
        bounds = np.append(starts, b).tolist()
        for run, head, start, stop in zip(
            negatives, corrupt_head[starts].tolist(), bounds, bounds[1:]
        ):
            # Each run's rows start as copies of what they broadcast, so
            # that the negatives go in over one long (n * dim) inner loop.
            out = diff[start:stop]
            flat = out.reshape(stop - start, n * d)
            if head:
                np.copyto(out, r[start:stop])
                flat += run.reshape(-1)
                out -= t[start:stop]
            else:
                np.copyto(out, h_plus_r[start:stop])
                flat -= run.reshape(-1)
        diff = diff.reshape(b * n, d)
        if shared is not None:
            shared["diff"] = diff
        return self._distance(diff), None, None, None

    def grad(
        self,
        h: np.ndarray,
        r: np.ndarray,
        t: np.ndarray,
        upstream: np.ndarray,
        shared: dict | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        diff = shared["diff"] if shared else h + r - t
        if self.norm == "l1":
            # d(-|x|)/dx = -sign(x)
            gt = np.sign(diff)
        else:
            gt = diff / np.sqrt((diff**2).sum(axis=1, keepdims=True) + _EPS)
        # gt = -gh: negation is exact, so scaling the positive side and
        # negating once gives the bits of scaling each side separately.
        gt *= upstream[:, None]
        gh = -gt
        return gh, gh, gt
