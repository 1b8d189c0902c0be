import numpy as np
import pytest

from esn_tucker import numlin


def dense_svd_oracle(m):
    """Dense SVD via the eigen-decomposition of m' m, the Gram matrix
    that truncated_svd uses only for tall inputs."""
    w, v = np.linalg.eigh(m.T @ m)
    order = np.argsort(w)[::-1]
    svals = np.sqrt(np.clip(w[order], 0.0, None))
    v = v[:, order]
    u = np.zeros((m.shape[0], len(svals)))
    for j, s in enumerate(svals):
        if s > 1e-12:
            u[:, j] = (m @ v[:, j]) / s
    return u, svals


class TestTruncatedSvd:
    def test_diagonal_case(self):
        res = numlin.truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
        np.testing.assert_allclose(res.singular_values, [3.0, 2.0],
                                   atol=1e-10)
        # left vectors span e1, e2
        span = res.left_vectors @ res.left_vectors.T
        np.testing.assert_allclose(span, np.diag([1.0, 1.0, 0.0]),
                                   atol=1e-8)

    def test_orthogonal_matrix_has_unit_singular_values(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        res = numlin.truncated_svd(q, 4)
        np.testing.assert_allclose(res.singular_values, np.ones(4),
                                   atol=1e-10)

    def test_projector_residual_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(6, 8))
        res = numlin.truncated_svd(m, 3)
        u = res.left_vectors
        got = np.linalg.norm(m - u @ u.T @ m)
        u_ref, _ = dense_svd_oracle(m)
        ur = u_ref[:, :3]
        want = np.linalg.norm(m - ur @ ur.T @ m)
        assert got == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("shape", [(5, 9), (9, 5), (7, 7)])
    def test_values_match_oracle_both_orientations(self, shape):
        rng = np.random.default_rng(sum(shape))
        m = rng.normal(size=shape)
        r = 3
        res = numlin.truncated_svd(m, r)
        _, svals = dense_svd_oracle(m)
        np.testing.assert_allclose(res.singular_values, svals[:r],
                                   rtol=1e-8)

    def test_left_vectors_orthonormal(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            m = rng.normal(size=(8, 6))
            res = numlin.truncated_svd(m, 4)
            gram = res.left_vectors.T @ res.left_vectors
            np.testing.assert_allclose(gram, np.eye(4), atol=1e-8)

    def test_values_sorted_nonincreasing_nonnegative(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(10, 7))
        res = numlin.truncated_svd(m, 5)
        s = res.singular_values
        assert np.all(s >= 0)
        assert np.all(np.diff(s) <= 1e-12)

    def test_duplicated_columns_scale_values_by_sqrt2(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(5, 4))
        res_one = numlin.truncated_svd(m, 3)
        res_two = numlin.truncated_svd(np.hstack([m, m]), 3)
        np.testing.assert_allclose(res_two.singular_values,
                                   np.sqrt(2) * res_one.singular_values,
                                   rtol=1e-8)

    def test_rank_out_of_range_rejected(self):
        m = np.zeros((3, 5))
        with pytest.raises(ValueError, match="out of range"):
            numlin.truncated_svd(m, 4)
        with pytest.raises(ValueError, match="out of range"):
            numlin.truncated_svd(m, 0)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(12, 9))
        a = numlin.truncated_svd(m, 4)
        b = numlin.truncated_svd(m, 4)
        np.testing.assert_array_equal(a.left_vectors, b.left_vectors)
        np.testing.assert_array_equal(a.singular_values, b.singular_values)

    def test_near_degenerate_gap_converges(self):
        # a near-tie straddling the truncation rank must still give the
        # best rank-4 projector
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.normal(size=(30, 30)))
        vals = np.concatenate([[5.0, 4.0, 3.0, 2.0000001, 2.0],
                               np.linspace(1.0, 0.1, 25)])
        m = q @ np.diag(vals) @ q.T
        res = numlin.truncated_svd(m, 4)
        u = res.left_vectors
        resid = np.linalg.norm(m - u @ u.T @ m)
        best = np.sqrt(np.sum(vals[4:] ** 2))
        assert resid == pytest.approx(best, rel=1e-6)

    @pytest.mark.parametrize("shape", [(4, 7), (7, 4)])
    def test_zero_matrix(self, shape):
        res = numlin.truncated_svd(np.zeros(shape), 3)
        np.testing.assert_array_equal(res.singular_values, np.zeros(3))
        np.testing.assert_allclose(res.left_vectors.T @ res.left_vectors,
                                   np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("shape", [(5, 9), (9, 5)])
    def test_rank_one_trailing_values_vanish(self, shape):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=shape[0]), rng.normal(size=shape[1])
        m = np.outer(a, b)
        res = numlin.truncated_svd(m, 3)
        s, u = res.singular_values, res.left_vectors
        leading = np.linalg.norm(a) * np.linalg.norm(b)
        assert s[0] == pytest.approx(leading, rel=1e-12)
        # the Gram route resolves values only to about sqrt(eps) * s[0]
        assert np.all(s[1:] <= 1e-7 * leading)
        np.testing.assert_allclose(u.T @ u, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(np.abs(u[:, 0]),
                                   np.abs(a) / np.linalg.norm(a), atol=1e-12)


class TestRidgeSolve:
    def test_identity_system(self):
        w = numlin.ridge_solve(np.eye(3), np.eye(3), 0.0)
        np.testing.assert_allclose(w, np.eye(3), atol=1e-10)

    def test_identity_with_unit_ridge(self):
        w = numlin.ridge_solve(np.eye(2), np.eye(2), 1.0)
        np.testing.assert_allclose(w, 0.5 * np.eye(2), atol=1e-12)

    def test_recovers_known_weights(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 40))
        w0 = rng.normal(size=(3, 4))
        w = numlin.ridge_solve(x, w0 @ x, 0.0)
        np.testing.assert_allclose(w, w0, atol=1e-6)

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(1)
        for lam in (0.0, 0.1, 10.0):
            x = rng.normal(size=(6, 50))
            y = rng.normal(size=(4, 50))
            w = numlin.ridge_solve(x, y, lam)
            lhs = w @ (x @ x.T + lam * np.eye(6))
            rhs = y @ x.T
            rel = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
            assert rel < 1e-8

    def test_norm_monotone_in_lambda(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 30))
        y = rng.normal(size=(3, 30))
        norms = [np.linalg.norm(numlin.ridge_solve(x, y, lam))
                 for lam in (0.0, 0.01, 0.1, 1.0, 10.0, 100.0)]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_singular_system_without_ridge_rejected(self):
        x = np.zeros((3, 4))
        x[0, 0] = 1.0  # rank 1, so X X' is singular
        with pytest.raises(numlin.SingularSystemError, match="lambda > 0"):
            numlin.ridge_solve(x, np.ones((2, 4)), 0.0)

    def test_column_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="column count"):
            numlin.ridge_solve(np.zeros((3, 4)), np.zeros((2, 5)), 1.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            numlin.ridge_solve(np.eye(2), np.eye(2), -1.0)
