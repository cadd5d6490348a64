"""RotatE [Sun et al., ICLR 2019].

Entities are complex vectors and each relation is an element-wise
*rotation*: the relation row stores phases ``theta`` and the score is

    score = -sum_k | h_k * e^{i theta_k} - t_k |

(complex modulus per dimension).  Rotations model symmetry, antisymmetry,
inversion, and composition — the reason RotatE superseded TransE on many
benchmarks.  Entity rows store ``[Re(h), Im(h)]`` (width ``2d``); relation
rows store ``theta`` (width ``d``).
"""

from __future__ import annotations

import numpy as np

from repro.models.base import KGEModel, register_model
from repro.utils.rng import make_rng

_EPS = 1e-12


@register_model("rotate")
class RotatE(KGEModel):
    """Complex rotation model."""

    @property
    def entity_dim(self) -> int:
        return 2 * self.dim

    @property
    def relation_dim(self) -> int:
        return self.dim

    def init_relations(
        self, count: int, rng: np.random.Generator | int | None = None
    ) -> np.ndarray:
        """Phases initialise uniformly over the full circle."""
        rng = make_rng(rng)
        return rng.uniform(-np.pi, np.pi, size=(count, self.dim))

    def _diff(self, h: np.ndarray, r: np.ndarray, t: np.ndarray):
        hre, him = h[:, : self.dim], h[:, self.dim :]
        tre, tim = t[:, : self.dim], t[:, self.dim :]
        cos, sin = np.cos(r), np.sin(r)
        rot_re = hre * cos - him * sin
        rot_im = hre * sin + him * cos
        dre = rot_re - tre
        dim_ = rot_im - tim
        modulus = np.sqrt(dre**2 + dim_**2 + _EPS)
        return dre, dim_, modulus, cos, sin, rot_re, rot_im

    def score(
        self,
        h: np.ndarray,
        r: np.ndarray,
        t: np.ndarray,
        shared: dict | None = None,
    ) -> np.ndarray:
        _, _, modulus, *_ = self._diff(h, r, t)
        return -modulus.sum(axis=1)

    def grad(
        self,
        h: np.ndarray,
        r: np.ndarray,
        t: np.ndarray,
        upstream: np.ndarray,
        shared: dict | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        dre, dim_, modulus, cos, sin, rot_re, rot_im = self._diff(h, r, t)
        up = upstream[:, None]
        # d score / d dre = -dre / modulus (per dimension), etc.
        gre = -(dre / modulus) * up
        gim = -(dim_ / modulus) * up

        # Rotated head: d rot_re/d hre = cos, d rot_im/d hre = sin, ...
        ghre = gre * cos + gim * sin
        ghim = -gre * sin + gim * cos
        gh = np.concatenate([ghre, ghim], axis=1)
        # Tail enters with a minus sign.
        gt = np.concatenate([-gre, -gim], axis=1)
        # d rot_re/d theta = -rot_im ; d rot_im/d theta = rot_re.
        gr = gre * (-rot_im) + gim * rot_re
        return gh, gr, gt
