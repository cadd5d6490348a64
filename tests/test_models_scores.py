"""Semantic properties of individual score functions."""

import numpy as np
import pytest

from repro.models import (
    ComplEx,
    DistMult,
    HolE,
    RESCAL,
    TransD,
    TransE,
    TransH,
    TransR,
)
from repro.models.base import MODEL_REGISTRY, get_model
from repro.utils.rng import make_rng


class TestRegistry:
    def test_all_models_registered(self):
        assert set(MODEL_REGISTRY) == {
            "transe",
            "transh",
            "transr",
            "transd",
            "distmult",
            "rescal",
            "complex",
            "hole",
            "rotate",
            "simple",
            "quate",
        }

    def test_get_model_unknown(self):
        with pytest.raises(KeyError, match="unknown model"):
            get_model("nope", 4)

    def test_get_model_kwargs(self):
        model = get_model("transe", 4, norm="l2")
        assert model.norm == "l2"

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            TransE(0)

    def test_repr(self):
        assert "dim=8" in repr(DistMult(8))


class TestGeometry:
    @pytest.mark.parametrize(
        "name,entity_mult,relation_mult",
        [
            ("transe", 1, 1),
            ("transh", 1, 2),
            ("transd", 2, 2),
            ("distmult", 1, 1),
            ("complex", 2, 2),
            ("hole", 1, 1),
            ("rotate", 2, 1),
            ("simple", 2, 2),
            ("quate", 4, 4),
        ],
    )
    def test_row_widths(self, name, entity_mult, relation_mult):
        model = get_model(name, 5)
        assert model.entity_dim == 5 * entity_mult
        assert model.relation_dim == 5 * relation_mult

    def test_transr_relation_width(self):
        assert TransR(4).relation_dim == 4 + 16

    def test_rescal_relation_width(self):
        assert RESCAL(4).relation_dim == 16

    def test_init_shapes(self):
        for name in MODEL_REGISTRY:
            model = get_model(name, 4)
            assert model.init_entities(7, 0).shape == (7, model.entity_dim)
            assert model.init_relations(3, 0).shape == (3, model.relation_dim)

    def test_init_deterministic(self):
        m = TransE(8)
        assert np.array_equal(m.init_entities(5, 3), m.init_entities(5, 3))


class TestTransE:
    def test_perfect_triple_scores_zero(self):
        m = TransE(4)
        h = np.array([[1.0, 0.0, 2.0, -1.0]])
        r = np.array([[0.5, 0.5, -1.0, 0.0]])
        t = h + r
        assert m.score(h, r, t)[0] == pytest.approx(0.0, abs=1e-5)

    def test_worse_triple_scores_lower(self):
        m = TransE(4)
        h = np.ones((1, 4))
        r = np.zeros((1, 4))
        near, far = h + 0.1, h + 5.0
        assert m.score(h, r, near)[0] > m.score(h, r, far)[0]

    def test_l2_norm_option(self):
        m = TransE(2, norm="l2")
        h, r = np.array([[3.0, 0.0]]), np.array([[0.0, 4.0]])
        t = np.zeros((1, 2))
        assert m.score(h, r, t)[0] == pytest.approx(-5.0, abs=1e-5)

    def test_invalid_norm(self):
        with pytest.raises(ValueError):
            TransE(4, norm="l3")


class TestDistMult:
    def test_symmetric_in_head_tail(self, rng):
        m = DistMult(6)
        h = rng.normal(size=(3, 6))
        r = rng.normal(size=(3, 6))
        t = rng.normal(size=(3, 6))
        np.testing.assert_allclose(m.score(h, r, t), m.score(t, r, h))

    def test_known_value(self):
        m = DistMult(2)
        s = m.score(np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]), np.array([[5.0, 6.0]]))
        assert s[0] == pytest.approx(1 * 3 * 5 + 2 * 4 * 6)


class TestComplEx:
    def test_asymmetric(self, rng):
        m = ComplEx(4)
        h = rng.normal(size=(1, 8))
        r = rng.normal(size=(1, 8))
        t = rng.normal(size=(1, 8))
        assert m.score(h, r, t)[0] != pytest.approx(m.score(t, r, h)[0])

    def test_real_relation_reduces_to_distmult_like(self, rng):
        """With zero imaginary parts everywhere, ComplEx = DistMult."""
        m = ComplEx(4)
        d = DistMult(4)
        hr = rng.normal(size=(2, 4))
        rr = rng.normal(size=(2, 4))
        tr = rng.normal(size=(2, 4))
        zeros = np.zeros_like(hr)
        stacked = lambda re: np.concatenate([re, zeros], axis=1)
        np.testing.assert_allclose(
            m.score(stacked(hr), stacked(rr), stacked(tr)), d.score(hr, rr, tr)
        )


class TestRESCAL:
    def test_identity_matrix_is_dot_product(self, rng):
        m = RESCAL(3)
        h = rng.normal(size=(2, 3))
        t = rng.normal(size=(2, 3))
        r = np.tile(np.eye(3).ravel(), (2, 1))
        np.testing.assert_allclose(m.score(h, r, t), (h * t).sum(axis=1))


class TestTransH:
    def test_projection_removes_normal_component(self):
        """Moving the tail along the hyperplane normal must not change the
        score (the projection removes that component)."""
        m = TransH(3)
        rng = make_rng(0)
        h = rng.normal(size=(1, 3))
        t = rng.normal(size=(1, 3))
        w = np.array([[1.0, 0.0, 0.0]])
        d_r = rng.normal(size=(1, 3))
        r = np.concatenate([w, d_r], axis=1)
        base = m.score(h, r, t)[0]
        shifted = m.score(h, r, t + np.array([[5.0, 0.0, 0.0]]))[0]
        assert shifted == pytest.approx(base, abs=1e-6)


class TestTransR:
    def test_identity_projection_matches_transe_l2(self, rng):
        mr = TransR(3)
        me = TransE(3, norm="l2")
        h = rng.normal(size=(2, 3))
        t = rng.normal(size=(2, 3))
        r_vec = rng.normal(size=(2, 3))
        mats = np.tile(np.eye(3).ravel(), (2, 1))
        r = np.concatenate([r_vec, mats], axis=1)
        np.testing.assert_allclose(
            mr.score(h, r, t), me.score(h, r_vec, t), rtol=1e-6
        )


class TestTransD:
    def test_zero_projection_matches_transe_l2(self, rng):
        """With zero projection vectors, TransD degenerates to TransE."""
        md = TransD(3)
        me = TransE(3, norm="l2")
        hv = rng.normal(size=(2, 3))
        tv = rng.normal(size=(2, 3))
        rv = rng.normal(size=(2, 3))
        zeros = np.zeros((2, 3))
        h = np.concatenate([hv, zeros], axis=1)
        t = np.concatenate([tv, zeros], axis=1)
        r = np.concatenate([rv, zeros], axis=1)
        np.testing.assert_allclose(md.score(h, r, t), me.score(hv, rv, tv), rtol=1e-6)


class TestHolE:
    def test_correlation_identity(self, rng):
        """score = r . corr(h, t) computed naively must match the FFT."""
        from repro.models.hole import circular_correlation

        m = HolE(5)
        h = rng.normal(size=(1, 5))
        r = rng.normal(size=(1, 5))
        t = rng.normal(size=(1, 5))
        naive = np.zeros(5)
        for k in range(5):
            naive[k] = sum(h[0, i] * t[0, (k + i) % 5] for i in range(5))
        np.testing.assert_allclose(circular_correlation(h, t)[0], naive, atol=1e-10)
        assert m.score(h, r, t)[0] == pytest.approx(float((r[0] * naive).sum()))


class TestQuatE:
    def test_identity_rotation_is_dot_product(self, rng):
        """With relation quaternion (1, 0, 0, 0), the Hamilton product is
        the identity and the score reduces to <h, t>."""
        from repro.models import QuatE

        m = QuatE(3)
        h = rng.normal(size=(2, 12))
        t = rng.normal(size=(2, 12))
        r = np.zeros((2, 12))
        r[:, :3] = 1.0  # a-component = 1, b = c = d = 0
        np.testing.assert_allclose(
            m.score(h, r, t), (h * t).sum(axis=1), rtol=1e-6
        )

    def test_rotation_preserves_norm(self, rng):
        """Unit-quaternion rotation is an isometry: |h (x) r_hat| = |h|,
        so score(h, r, h-rotated) peaks when t aligns with the rotation."""
        from repro.models import QuatE
        from repro.models.quate import _split, hamilton

        m = QuatE(4)
        h = rng.normal(size=(3, 16))
        r = rng.normal(size=(3, 16))
        r_hat, _ = m._normalize(r)
        rotated = hamilton(_split(h, 4), r_hat)
        norm_before = sum((p**2).sum(axis=1) for p in _split(h, 4))
        norm_after = sum((p**2).sum(axis=1) for p in rotated)
        np.testing.assert_allclose(norm_after, norm_before, rtol=1e-9)

    def test_relation_scale_invariant(self, rng):
        """Scaling the raw relation must not change the score (it is
        normalised to a unit quaternion)."""
        from repro.models import QuatE

        m = QuatE(3)
        h = rng.normal(size=(2, 12))
        t = rng.normal(size=(2, 12))
        r = rng.normal(size=(2, 12))
        np.testing.assert_allclose(
            m.score(h, r, t), m.score(h, 7.0 * r, t), rtol=1e-8
        )
