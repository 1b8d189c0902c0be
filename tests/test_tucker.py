import numpy as np
import pytest

from esn_tucker import tucker
from esn_tucker.tucker import (hooi, project_core, fit_per_class,
                               _top_left_vectors)


def reconstruction(model):
    """``core x1 U x2 V``, written out as one contraction."""
    return np.einsum("ia,jb,abk->ijk", model.u, model.v, model.core)


def hosvd_reconstruction_error(x, j1, j2):
    """Truncated-SVD-of-each-unfolding baseline, computed directly."""
    def top_eigenvectors(gram, r):
        w, v = np.linalg.eigh(gram)
        order = np.argsort(w)[::-1][:r]
        return v[:, order]

    # Gram matrices of the mode-1 and mode-2 unfoldings
    u = top_eigenvectors(np.einsum("ijk,ljk->il", x, x), j1)
    v = top_eigenvectors(np.einsum("ijk,ilk->jl", x, x), j2)
    core = np.einsum("ia,jb,ijk->abk", u, v, x)
    approx = np.einsum("ia,jb,abk->ijk", u, v, core)
    return np.linalg.norm(x - approx)


class TestHooi:
    def test_full_rank_reproduces_input(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 5, 3))
        model = hooi(x, (4, 5))
        np.testing.assert_allclose(reconstruction(model), x, atol=1e-8)
        assert np.linalg.norm(model.core) == pytest.approx(
            np.linalg.norm(x), abs=1e-8)

    def test_exact_rank_one_instance(self):
        rng = np.random.default_rng(1)
        u = rng.normal(size=4)
        v = rng.normal(size=6)
        w = rng.normal(size=3)
        x = np.einsum("i,j,k->ijk", u, v, w)
        model = hooi(x, (1, 1))
        assert np.linalg.norm(reconstruction(model) - x) <= 1e-8

    def test_not_worse_than_hosvd_baseline(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 6, 4))
        model = hooi(x, (2, 2))
        err = np.linalg.norm(reconstruction(model) - x)
        assert err <= hosvd_reconstruction_error(x, 2, 2) + 1e-8

    def test_factor_orthonormality(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(7, 9, 5))
        model = hooi(x, (3, 4))
        np.testing.assert_allclose(model.u.T @ model.u, np.eye(3), atol=1e-8)
        np.testing.assert_allclose(model.v.T @ model.v, np.eye(4), atol=1e-8)

    def test_objective_nondecreasing(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 8, 6))
        model = hooi(x, (3, 3))
        hist = model.objective_history
        assert len(hist) >= 1
        assert all(b >= a - 1e-10 for a, b in zip(hist, hist[1:]))

    def test_core_slices_match_projected_training_slices(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(5, 7, 4))
        model = hooi(x, (2, 3))
        for j in range(4):
            expected = model.u.T @ x[:, :, j] @ model.v
            np.testing.assert_allclose(model.core[:, :, j], expected,
                                       atol=1e-8)

    def test_core_matches_modal_products(self):
        # reference: X x1 U' x2 V' as one einsum, not the matmul path of hooi
        rng = np.random.default_rng(8)
        x = rng.normal(size=(7, 9, 5))
        model = hooi(x, (3, 4))
        want = np.einsum("ia,jb,ijk->abk", model.u, model.v, x)
        np.testing.assert_allclose(model.core, want, rtol=0,
                                   atol=1e-12 * np.linalg.norm(x))

    def test_memory_order_does_not_change_fit(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 7, 5))
        a = hooi(x, (2, 3))
        b = hooi(np.asfortranarray(x), (2, 3))
        np.testing.assert_array_equal(a.core, b.core)
        assert a.iterations == b.iterations

    def test_fit_depends_on_data_alone(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 6, 3))
        a = hooi(x, (2, 2))
        b = hooi(x.copy(), (2, 2))
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.v, b.v)
        np.testing.assert_array_equal(a.core, b.core)

    def test_rank_bounds_rejected(self):
        x = np.zeros((3, 4, 2))
        with pytest.raises(ValueError, match="exceed"):
            hooi(x, (4, 2))

    @pytest.mark.parametrize("shape, ranks", [
        ((10, 5, 3), (8, 2)),
        ((4, 12, 2), (1, 3)),
        ((6, 5, 0), (2, 2)),
    ], ids=["j1_over_j2m", "j2_over_j1m", "no_slices"])
    def test_ranks_beyond_unfolding_bounds_rejected(self, shape, ranks):
        with pytest.raises(ValueError, match="exceed"):
            hooi(np.ones(shape), ranks)

    @pytest.mark.parametrize("ranks", [(0, 2), (2, 0), (-1, 3)])
    def test_nonpositive_ranks_rejected(self, ranks):
        x = np.ones((4, 5, 3))
        with pytest.raises(ValueError, match="ranks must be positive"):
            hooi(x, ranks)
        with pytest.raises(ValueError, match="ranks must be positive"):
            fit_per_class([x], ranks)

    def test_iteration_cap_returns_unconverged_model(self, monkeypatch):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 6, 4))
        monkeypatch.setattr(tucker, "TOL", 1e-16)
        monkeypatch.setattr(tucker, "MAX_ITERS", 2)
        model = hooi(x, (2, 2))
        assert not model.converged
        assert model.iterations == 2

    def test_label_length_checked(self):
        x = np.zeros((3, 4, 2))
        with pytest.raises(ValueError, match="labels"):
            hooi(x, (2, 2), labels=[1, 2, 3])


def fit_matrix(m, r):
    """Rank-(r, r) fit of the single-sample tensor ``m[:, :, None]``,
    stopped at a tolerance of 1e-12."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tucker, "TOL", 1e-12)
        return hooi(np.asarray(m, dtype=float)[:, :, None], (r, r))


def near_tie_matrix():
    """30 x 30 symmetric matrix whose 4th and 5th values nearly tie."""
    rng = np.random.default_rng(6)
    q, _ = np.linalg.qr(rng.normal(size=(30, 30)))
    vals = np.concatenate([[5.0, 4.0, 3.0, 2.0000001, 2.0],
                           np.linspace(1.0, 0.1, 25)])
    return q @ np.diag(vals) @ q.T


def rank_one_matrix(shape):
    rng = np.random.default_rng(7)
    return np.outer(rng.normal(size=shape[0]), rng.normal(size=shape[1]))


class TestHooiDenseOracle:
    """A single-sample fit is a truncated SVD of the sample: U and V span
    its dominant singular subspaces and ``||core||`` is the root-sum-square
    of its top singular values (Eckart-Young), checked against
    ``np.linalg.svd``."""

    CASES = {
        "wide": (np.random.default_rng(14).normal(size=(5, 9)), 3),
        "tall": (np.random.default_rng(14).normal(size=(9, 5)), 3),
        "square": (np.random.default_rng(14).normal(size=(7, 7)), 3),
        "diagonal": (np.diag([3.0, 2.0, 1.0]), 2),
        "orthogonal": (np.linalg.qr(
            np.random.default_rng(0).normal(size=(4, 4)))[0], 4),
        "rank_one_wide": (rank_one_matrix((5, 9)), 3),
        "rank_one_tall": (rank_one_matrix((9, 5)), 3),
        "zero_wide": (np.zeros((4, 7)), 3),
        "zero_tall": (np.zeros((7, 4)), 3),
        "near_tie": (near_tie_matrix(), 4),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_dense_svd(self, case):
        m, r = self.CASES[case]
        model = fit_matrix(m, r)
        s = np.linalg.svd(m, compute_uv=False)
        np.testing.assert_allclose(model.u.T @ model.u, np.eye(r),
                                   atol=1e-12)
        np.testing.assert_allclose(model.v.T @ model.v, np.eye(r),
                                   atol=1e-12)
        resid = np.linalg.norm(m - model.u @ model.core[:, :, 0]
                               @ model.v.T)
        best = np.sqrt(np.sum(s[r:] ** 2))
        assert resid == pytest.approx(best, rel=1e-6, abs=1e-7 * s[0])
        assert model.objective_history[-1] == pytest.approx(
            np.sqrt(np.sum(s[:r] ** 2)), rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("case", ["wide", "tall", "square"])
    def test_core_is_diagonal_of_singular_values(self, case):
        # distinct values: U' M V is diag(s), nonincreasing and >= 0
        m, r = self.CASES[case]
        model = fit_matrix(m, r)
        s = np.linalg.svd(m, compute_uv=False)
        np.testing.assert_allclose(np.abs(model.core[:, :, 0]),
                                   np.diag(s[:r]), atol=1e-8)

    @pytest.mark.parametrize("case", ["rank_one_wide", "rank_one_tall"])
    def test_rank_one_leading_vector(self, case):
        m, _ = self.CASES[case]
        model = fit_matrix(m, 3)
        a = m[:, np.argmax(np.abs(m).sum(axis=0))]
        np.testing.assert_allclose(np.abs(model.u[:, 0]),
                                   np.abs(a) / np.linalg.norm(a), atol=1e-12)

    def test_duplicated_slices_scale_objective_by_sqrt2(self, monkeypatch):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 4, 3))
        # a fixed iteration count: the stopping test is absolute, so it
        # would see the scaled values change faster
        monkeypatch.setattr(tucker, "TOL", 1e-300)
        monkeypatch.setattr(tucker, "MAX_ITERS", 5)
        one = hooi(x, (3, 2))
        two = hooi(np.concatenate([x, x], axis=2), (3, 2))
        assert len(one.objective_history) == len(two.objective_history) == 5
        np.testing.assert_allclose(two.objective_history,
                                   np.sqrt(2) * np.array(
                                       one.objective_history), rtol=1e-8)


class TestTopLeftVectors:
    """The factor update itself: the top-r eigenpairs of ``a @ a.T``."""

    def test_deterministic(self):
        a = near_tie_matrix()
        p1, s1 = _top_left_vectors(a, 4)
        p2, s2 = _top_left_vectors(a.copy(), 4)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(s1, s2)

    def test_values_sorted_nonincreasing_nonnegative(self):
        # rank 5 with r = 9: eigh returns the four zero eigenvalues of the
        # Gram matrix as rounding noise of either sign
        a = np.random.default_rng(14).normal(size=(9, 5))
        _, s = _top_left_vectors(a, 9)
        assert np.all(s >= 0.0)
        assert np.all(np.diff(s) <= 0.0)
        np.testing.assert_allclose(s[:5], np.linalg.svd(a, compute_uv=False),
                                   rtol=1e-12)
        np.testing.assert_allclose(s[5:], 0.0, atol=1e-6)


class TestProjectCore:
    def test_recovers_planted_core(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 8, 4))
        model = hooi(x, (2, 3))
        c = rng.normal(size=(2, 3))
        planted = model.u @ c @ model.v.T
        np.testing.assert_allclose(project_core(planted, model), c,
                                   atol=1e-10)

    def test_orthogonal_input_maps_to_zero(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 8, 4))
        model = hooi(x, (2, 3))
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
        model = hooi(x, (2, 2))
        np.testing.assert_allclose(project_core(x[:, :, 1], model),
                                   model.core[:, :, 1], atol=1e-8)

    def test_linear(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 6, 3))
        model = hooi(x, (2, 2))
        a, b = rng.normal(size=(5, 6)), rng.normal(size=(5, 6))
        lhs = project_core(2.0 * a + 3.0 * b, model)
        rhs = 2.0 * project_core(a, model) + 3.0 * project_core(b, model)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_dim_mismatch_rejected(self):
        x = np.random.default_rng(4).normal(size=(5, 6, 3))
        model = hooi(x, (2, 2))
        with pytest.raises(ValueError, match="does not match"):
            project_core(np.zeros((5, 7)), model)


class TestFitPerClass:
    def test_duplicate_classes_give_matching_cores(self, monkeypatch):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 5, 3))
        monkeypatch.setattr(tucker, "TOL", 1e-12)
        models = fit_per_class([x, x.copy()], (2, 2))
        # a fit depends on its data alone, so equal data give equal models
        np.testing.assert_array_equal(models[0].u, models[1].u)
        np.testing.assert_array_equal(models[0].v, models[1].v)
        np.testing.assert_array_equal(models[0].core, models[1].core)
        assert models[0].iterations == models[1].iterations

    def test_single_class_equals_plain_hooi(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 5, 3))
        [model] = fit_per_class([x], (2, 2), class_ids=[7])
        direct = hooi(x, (2, 2))
        np.testing.assert_array_equal(model.u, direct.u)
        assert set(model.slice_labels) == {7}

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            fit_per_class([np.zeros((3, 4, 0))], (2, 2))

    def test_two_dimensional_class_rejected(self):
        x = np.zeros((3, 4, 2))
        with pytest.raises(ValueError, match="class 2 .*ndim=2"):
            fit_per_class([x, x[:, :, 0]], (2, 2))

    def test_mismatched_shapes_rejected(self):
        a = np.zeros((3, 4, 2))
        b = np.zeros((3, 5, 2))
        with pytest.raises(ValueError, match="differs"):
            fit_per_class([a, b], (2, 2))

