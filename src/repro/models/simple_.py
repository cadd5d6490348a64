"""SimplE [Kazemi & Poole, NeurIPS 2018].

A fully-expressive refinement of canonical polyadic decomposition: each
entity has a *head-role* and a *tail-role* embedding, and each relation a
forward and an inverse vector.  The score averages the two directions:

    score = 1/2 ( <h_head, r, t_tail> + <t_head, r_inv, h_tail> )

Entity rows store ``[head_role, tail_role]`` and relation rows
``[r, r_inv]`` (both width ``2d``).
"""

from __future__ import annotations

import numpy as np

from repro.models.base import KGEModel, register_model


@register_model("simple")
class SimplE(KGEModel):
    """Dual-role trilinear model."""

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
        hh, ht = self._split(h)
        rf, ri = self._split(r)
        th, tt = self._split(t)
        forward = (hh * rf * tt).sum(axis=1)
        inverse = (th * ri * ht).sum(axis=1)
        return 0.5 * (forward + inverse)

    def grad(
        self,
        h: np.ndarray,
        r: np.ndarray,
        t: np.ndarray,
        upstream: np.ndarray,
        shared: dict | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        hh, ht = self._split(h)
        rf, ri = self._split(r)
        th, tt = self._split(t)
        up = 0.5 * upstream[:, None]

        ghh = rf * tt * up
        ght = th * ri * up
        gth = ri * ht * up
        gtt = hh * rf * up
        grf = hh * tt * up
        gri = th * ht * up

        gh = np.concatenate([ghh, ght], axis=1)
        gr = np.concatenate([grf, gri], axis=1)
        gt = np.concatenate([gth, gtt], axis=1)
        return gh, gr, gt
