"""DistMult [Yang et al., ICLR 2015].

RESCAL restricted to diagonal relation matrices: the score is the trilinear
product ``sum(h * r * t)``.  Cheap and effective, but inherently symmetric
in head/tail.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import KGEModel, register_model


@register_model("distmult")
class DistMult(KGEModel):
    """Diagonal bilinear scoring ``<h, diag(r), t>``."""

    def score(
        self,
        h: np.ndarray,
        r: np.ndarray,
        t: np.ndarray,
        shared: dict | None = None,
    ) -> np.ndarray:
        return (h * r * t).sum(axis=1)

    def grad(
        self,
        h: np.ndarray,
        r: np.ndarray,
        t: np.ndarray,
        upstream: np.ndarray,
        shared: dict | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        up = upstream[:, None]
        return (r * t) * up, (h * t) * up, (h * r) * up
