"""ComplEx [Trouillon et al., ICML 2016].

DistMult with complex-valued embeddings, scoring with

    score = Re( <h, r, conj(t)> )

which breaks DistMult's head/tail symmetry.  Rows store the real and
imaginary halves concatenated: ``[Re(x), Im(x)]`` (width ``2d``).
"""

from __future__ import annotations

import numpy as np

from repro.models.base import KGEModel, register_model


@register_model("complex")
class ComplEx(KGEModel):
    """Complex-valued trilinear scoring."""

    @property
    def entity_dim(self) -> int:
        return 2 * self.dim

    @property
    def relation_dim(self) -> int:
        return 2 * self.dim

    def _split(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return x[:, : self.dim], x[:, self.dim :]

    def score(
        self,
        h: np.ndarray,
        r: np.ndarray,
        t: np.ndarray,
        shared: dict | None = None,
    ) -> np.ndarray:
        hr, hi = self._split(h)
        rr, ri = self._split(r)
        tr, ti = self._split(t)
        # Re(<h, r, conj(t)>) expands to four real trilinear terms.
        return (
            (hr * rr * tr).sum(axis=1)
            + (hi * rr * ti).sum(axis=1)
            + (hr * ri * ti).sum(axis=1)
            - (hi * ri * tr).sum(axis=1)
        )

    def grad(
        self,
        h: np.ndarray,
        r: np.ndarray,
        t: np.ndarray,
        upstream: np.ndarray,
        shared: dict | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        hr, hi = self._split(h)
        rr, ri = self._split(r)
        tr, ti = self._split(t)
        up = upstream[:, None]

        ghr = (rr * tr + ri * ti) * up
        ghi = (rr * ti - ri * tr) * up
        grr = (hr * tr + hi * ti) * up
        gri = (hr * ti - hi * tr) * up
        gtr = (hr * rr - hi * ri) * up
        gti = (hi * rr + hr * ri) * up

        gh = np.concatenate([ghr, ghi], axis=1)
        gr = np.concatenate([grr, gri], axis=1)
        gt = np.concatenate([gtr, gti], axis=1)
        return gh, gr, gt
