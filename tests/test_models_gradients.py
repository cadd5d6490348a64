"""Numerical gradient checks for every registered KGE model.

The single most important correctness property of the models package: the
analytic gradients returned by ``grad`` must match central finite
differences of ``score`` for every model, on random inputs.
"""

import numpy as np
import pytest

from repro.models.base import MODEL_REGISTRY, get_model
from repro.utils.rng import make_rng

DIM = 6
BATCH = 4
EPS = 1e-6

# L1-TransE's sign() gradient is not differentiable at zero entries, but on
# random continuous inputs the kink is never hit; all models check out.
MODELS = sorted(MODEL_REGISTRY)


def _random_batch(model, rng):
    h = rng.normal(0.5, 1.0, size=(BATCH, model.entity_dim))
    r = rng.normal(-0.3, 1.0, size=(BATCH, model.relation_dim))
    t = rng.normal(0.1, 1.0, size=(BATCH, model.entity_dim))
    upstream = rng.normal(0.0, 1.0, size=BATCH)
    return h, r, t, upstream


def _numeric_grad(fn, x, upstream):
    """Central-difference gradient of sum(upstream * fn(x))."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + EPS
        plus = float((upstream * fn()).sum())
        flat[i] = orig - EPS
        minus = float((upstream * fn()).sum())
        flat[i] = orig
        grad.ravel()[i] = (plus - minus) / (2 * EPS)
    return grad


@pytest.mark.parametrize("name", MODELS)
class TestGradientsMatchNumerical:
    def test_grad_h(self, name):
        model = get_model(name, DIM)
        h, r, t, up = _random_batch(model, make_rng(1))
        gh, _, _ = model.grad(h, r, t, up)
        num = _numeric_grad(lambda: model.score(h, r, t), h, up)
        np.testing.assert_allclose(gh, num, rtol=1e-4, atol=1e-6)

    def test_grad_r(self, name):
        model = get_model(name, DIM)
        h, r, t, up = _random_batch(model, make_rng(2))
        _, gr, _ = model.grad(h, r, t, up)
        num = _numeric_grad(lambda: model.score(h, r, t), r, up)
        np.testing.assert_allclose(gr, num, rtol=1e-4, atol=1e-6)

    def test_grad_t(self, name):
        model = get_model(name, DIM)
        h, r, t, up = _random_batch(model, make_rng(3))
        _, _, gt = model.grad(h, r, t, up)
        num = _numeric_grad(lambda: model.score(h, r, t), t, up)
        np.testing.assert_allclose(gt, num, rtol=1e-4, atol=1e-6)


@pytest.mark.parametrize("name", MODELS)
class TestGradShapes:
    def test_shapes_match_inputs(self, name):
        model = get_model(name, DIM)
        h, r, t, up = _random_batch(model, make_rng(4))
        gh, gr, gt = model.grad(h, r, t, up)
        assert gh.shape == h.shape
        assert gr.shape == r.shape
        assert gt.shape == t.shape

    def test_zero_rows_are_legal(self, name):
        """A batch whose every negative the hinge switched off reaches
        ``grad`` with zero rows (RESCAL and TransR used to raise on the
        ``reshape(0, -1)`` of their matrix gradient)."""
        model = get_model(name, DIM)
        h = t = np.zeros((0, model.entity_dim))
        r = np.zeros((0, model.relation_dim))
        assert model.score(h, r, t).shape == (0,)
        shapes = [g.shape for g in model.grad(h, r, t, np.zeros(0))]
        assert shapes == [(0, model.entity_dim), (0, model.relation_dim), (0, model.entity_dim)]

    def test_zero_upstream_zero_grad(self, name):
        model = get_model(name, DIM)
        h, r, t, _ = _random_batch(model, make_rng(5))
        gh, gr, gt = model.grad(h, r, t, np.zeros(BATCH))
        assert np.allclose(gh, 0) and np.allclose(gr, 0) and np.allclose(gt, 0)

    def test_grad_linear_in_upstream(self, name):
        model = get_model(name, DIM)
        h, r, t, up = _random_batch(model, make_rng(6))
        gh1, gr1, gt1 = model.grad(h, r, t, up)
        gh2, gr2, gt2 = model.grad(h, r, t, 2.0 * up)
        np.testing.assert_allclose(gh2, 2 * gh1, rtol=1e-10)
        np.testing.assert_allclose(gr2, 2 * gr1, rtol=1e-10)
        np.testing.assert_allclose(gt2, 2 * gt1, rtol=1e-10)
