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
        """The base's scores, from one gather of the corrupted rows.

        Each row's ``n`` corrupted entity rows are gathered once, straight
        into the ``(b, n, dim)`` difference buffer, which has the dtype
        ``h + r - t`` would have.  The buffer is then finished in place
        once per maximal run of rows that corrupt the same side: a tail
        run becomes ``(h + r) - buffer``, a head run ``buffer + r`` and
        then ``- t``.  Per cell these are the additions of ``h + r - t``
        in their order, so every bit is the base's (``negatives + r`` is
        ``r + negatives`` to the bit).  The positives' own ``h``, ``r``
        and ``t`` supply the uncorrupted rows.  The differences go to
        :meth:`grad` through ``shared``, so no operand comes back.
        """
        b, d = len(corrupt_head), entity_rows.shape[1]
        n = len(heads) // b if b else 0
        corrupted = np.where(corrupt_head[:, None], heads.reshape(b, n), tails.reshape(b, n))
        diff = np.empty((b, n, d), dtype=np.result_type(h, r))
        # The positions index the rows they were read for, so no bounds
        # check is needed; "clip" lets take write into ``diff`` directly
        # (under "raise" it writes a copy first).
        np.take(
            entity_rows.astype(diff.dtype, copy=False), corrupted, axis=0,
            out=diff, mode="clip",
        )
        starts = np.flatnonzero(np.diff(corrupt_head, prepend=~corrupt_head[:1]))
        bounds = [*starts.tolist(), b]
        h_plus_r, r, t = (h + r)[:, None], r[:, None], t[:, None]
        for head, start, stop in zip(corrupt_head[starts].tolist(), bounds, bounds[1:]):
            out = diff[start:stop]
            if head:
                out += r[start:stop]
                out -= t[start:stop]
            else:
                np.subtract(h_plus_r[start:stop], out, out=out)
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
