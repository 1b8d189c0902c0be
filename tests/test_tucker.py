import numpy as np
import pytest

from esn_tucker import tensor_ops as tops
from esn_tucker.tucker import (HooiConfig, hooi, project_core, fit_per_class,
                               reconstruct, save_model, load_model)


def hosvd_reconstruction_error(x, j1, j2):
    """Truncated-SVD-of-each-unfolding baseline, computed directly."""
    def top_left_vectors(m, r):
        w, v = np.linalg.eigh(m @ m.T)
        order = np.argsort(w)[::-1][:r]
        return v[:, order]

    u = top_left_vectors(tops.unfold(x, 1), j1)
    v = top_left_vectors(tops.unfold(x, 2), j2)
    core = tops.mode_product(tops.mode_product(x, u.T, 1), v.T, 2)
    approx = tops.mode_product(tops.mode_product(core, u, 1), v, 2)
    return tops.fro_norm(x - approx)


class TestHooi:
    def test_full_rank_reproduces_input(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 5, 3))
        model = hooi(x, HooiConfig(ranks=(4, 5)))
        np.testing.assert_allclose(reconstruct(model), x, atol=1e-8)
        assert tops.fro_norm(model.core) == pytest.approx(tops.fro_norm(x),
                                                          abs=1e-8)

    def test_exact_rank_one_instance(self):
        rng = np.random.default_rng(1)
        u = rng.normal(size=4)
        v = rng.normal(size=6)
        w = rng.normal(size=3)
        x = np.einsum("i,j,k->ijk", u, v, w)
        model = hooi(x, HooiConfig(ranks=(1, 1)))
        assert tops.fro_norm(reconstruct(model) - x) <= 1e-8

    def test_not_worse_than_hosvd_baseline(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 6, 4))
        model = hooi(x, HooiConfig(ranks=(2, 2)))
        err = tops.fro_norm(reconstruct(model) - x)
        assert err <= hosvd_reconstruction_error(x, 2, 2) + 1e-8

    def test_factor_orthonormality(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(7, 9, 5))
        model = hooi(x, HooiConfig(ranks=(3, 4)))
        np.testing.assert_allclose(model.u.T @ model.u, np.eye(3), atol=1e-8)
        np.testing.assert_allclose(model.v.T @ model.v, np.eye(4), atol=1e-8)

    def test_objective_nondecreasing(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 8, 6))
        model = hooi(x, HooiConfig(ranks=(3, 3)))
        hist = model.objective_history
        assert len(hist) >= 1
        assert all(b >= a - 1e-10 for a, b in zip(hist, hist[1:]))

    def test_core_slices_match_projected_training_slices(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(5, 7, 4))
        model = hooi(x, HooiConfig(ranks=(2, 3)))
        for j in range(4):
            expected = model.u.T @ x[:, :, j] @ model.v
            np.testing.assert_allclose(model.core[:, :, j], expected,
                                       atol=1e-8)

    def test_core_matches_modal_products(self):
        # reference: the public tensor algebra, not the matmul path of hooi
        rng = np.random.default_rng(8)
        x = rng.normal(size=(7, 9, 5))
        model = hooi(x, HooiConfig(ranks=(3, 4)))
        want = tops.mode_product(tops.mode_product(x, model.u.T, 1),
                                 model.v.T, 2)
        np.testing.assert_allclose(model.core, want, rtol=0,
                                   atol=1e-12 * tops.fro_norm(x))

    def test_memory_order_does_not_change_fit(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 7, 5))
        a = hooi(x, HooiConfig(ranks=(2, 3)))
        b = hooi(np.asfortranarray(x), HooiConfig(ranks=(2, 3)))
        np.testing.assert_array_equal(a.core, b.core)
        assert a.iterations == b.iterations

    def test_fit_depends_on_data_alone(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 6, 3))
        a = hooi(x, HooiConfig(ranks=(2, 2)))
        b = hooi(x.copy(), HooiConfig(ranks=(2, 2)))
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.v, b.v)
        np.testing.assert_array_equal(a.core, b.core)

    def test_rank_bounds_rejected(self):
        x = np.zeros((3, 4, 2))
        with pytest.raises(ValueError, match="exceed"):
            hooi(x, HooiConfig(ranks=(4, 2)))

    def test_iteration_cap_returns_unconverged_model(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 6, 4))
        model = hooi(x, HooiConfig(ranks=(2, 2), tol=1e-16, max_iters=2))
        assert not model.converged
        assert model.iterations == 2

    def test_label_length_checked(self):
        x = np.zeros((3, 4, 2))
        with pytest.raises(ValueError, match="labels"):
            hooi(x, HooiConfig(ranks=(2, 2)), labels=[1, 2, 3])


class TestHooiConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            HooiConfig(ranks=(0, 2))
        with pytest.raises(ValueError):
            HooiConfig(ranks=(2, 2), tol=0.0)
        with pytest.raises(ValueError):
            HooiConfig(ranks=(2, 2), max_iters=0)


class TestProjectCore:
    def test_recovers_planted_core(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 8, 4))
        model = hooi(x, HooiConfig(ranks=(2, 3)))
        c = rng.normal(size=(2, 3))
        planted = model.u @ c @ model.v.T
        np.testing.assert_allclose(project_core(planted, model), c,
                                   atol=1e-10)

    def test_orthogonal_input_maps_to_zero(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 8, 4))
        model = hooi(x, HooiConfig(ranks=(2, 3)))
        # build a state matrix orthogonal to range(U) in mode 1
        q, _ = np.linalg.qr(np.hstack([model.u,
                                       rng.normal(size=(6, 4))]))
        perp = q[:, 2:]  # orthogonal complement of range(U)
        state = perp @ rng.normal(size=(4, 8))
        np.testing.assert_allclose(project_core(state, model),
                                   np.zeros((2, 3)), atol=1e-10)

    def test_training_slice_matches_core(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 6, 3))
        model = hooi(x, HooiConfig(ranks=(2, 2)))
        np.testing.assert_allclose(project_core(x[:, :, 1], model),
                                   model.core[:, :, 1], atol=1e-8)

    def test_linear(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 6, 3))
        model = hooi(x, HooiConfig(ranks=(2, 2)))
        a, b = rng.normal(size=(5, 6)), rng.normal(size=(5, 6))
        lhs = project_core(2.0 * a + 3.0 * b, model)
        rhs = 2.0 * project_core(a, model) + 3.0 * project_core(b, model)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_dim_mismatch_rejected(self):
        x = np.random.default_rng(4).normal(size=(5, 6, 3))
        model = hooi(x, HooiConfig(ranks=(2, 2)))
        with pytest.raises(ValueError, match="does not match"):
            project_core(np.zeros((5, 7)), model)


class TestFitPerClass:
    def test_duplicate_classes_give_matching_cores(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 5, 3))
        models = fit_per_class([x, x.copy()],
                               HooiConfig(ranks=(2, 2), tol=1e-12))
        # a fit depends on its data alone, so equal data give equal models
        np.testing.assert_array_equal(models[0].u, models[1].u)
        np.testing.assert_array_equal(models[0].v, models[1].v)
        np.testing.assert_array_equal(models[0].core, models[1].core)
        assert models[0].iterations == models[1].iterations

    def test_single_class_equals_plain_hooi(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 5, 3))
        cfg = HooiConfig(ranks=(2, 2))
        [model] = fit_per_class([x], cfg, class_ids=[7])
        direct = hooi(x, cfg)
        np.testing.assert_array_equal(model.u, direct.u)
        assert set(model.slice_labels) == {7}

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            fit_per_class([np.zeros((3, 4, 0))], HooiConfig(ranks=(2, 2)))

    def test_mismatched_shapes_rejected(self):
        a = np.zeros((3, 4, 2))
        b = np.zeros((3, 5, 2))
        with pytest.raises(ValueError, match="differs"):
            fit_per_class([a, b], HooiConfig(ranks=(2, 2)))


class TestSerialization:
    def test_roundtrip_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 6, 4))
        model = hooi(x, HooiConfig(ranks=(2, 3)), labels=[1, 1, 2, 2])
        path = tmp_path / "model.npz"
        save_model(model, path)
        back = load_model(path)
        np.testing.assert_array_equal(back.u, model.u)
        np.testing.assert_array_equal(back.v, model.v)
        np.testing.assert_array_equal(back.core, model.core)
        np.testing.assert_array_equal(back.slice_labels, model.slice_labels)
        assert back.ranks == model.ranks
        assert back.converged == model.converged
        assert back.iterations == model.iterations
