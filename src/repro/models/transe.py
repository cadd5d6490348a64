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
        if self.norm == "l1":
            return -np.abs(diff).sum(axis=1)
        return -np.sqrt((diff**2).sum(axis=1) + _EPS)

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
