import numpy as np
import pytest

from esn_tucker import numlin


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
        with pytest.raises(numlin.SingularSystemError,
                           match="lambda > 0") as exc:
            numlin.ridge_solve(x, np.ones((2, 4)), 0.0)
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)

    def test_singular_system_with_ridge_names_lambda(self):
        # X X' is about 5e40 in every entry, so lambda = 0.01 is lost in
        # rounding and the message must not ask for the lambda > 0 in use
        with pytest.raises(numlin.SingularSystemError,
                           match=r"at lambda = 0\.01; use a larger lambda"
                           ) as exc:
            numlin.ridge_solve(np.full((2, 5), 1e20), np.ones((2, 5)), 1e-2)
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.parametrize("n, s, lam", [
        (3, 10, 0.0), (6, 50, 0.0), (6, 50, 1e-6), (20, 300, 0.1),
        (50, 400, 10.0),
    ])
    def test_matches_stacked_least_squares(self, n, s, lam):
        # oracle: W' is the least-squares solution of the stacked system
        # [X'; sqrt(lam) I] W' = [y'; 0], whose normal equations are the
        # ridge system
        rng = np.random.default_rng(n + s)
        x = rng.normal(size=(n, s))
        y = rng.normal(size=(4, s))
        a = np.vstack([x.T, np.sqrt(lam) * np.eye(n)])
        b = np.vstack([y.T, np.zeros((n, 4))])
        want = np.linalg.lstsq(a, b, rcond=None)[0].T
        w = numlin.ridge_solve(x, y, lam)
        assert np.linalg.norm(w - want) <= 1e-10 * np.linalg.norm(want)

    def test_column_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="column count"):
            numlin.ridge_solve(np.zeros((3, 4)), np.zeros((2, 5)), 1.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            numlin.ridge_solve(np.eye(2), np.eye(2), -1.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_nonfinite_lambda_rejected(self, lam):
        # not a SingularSystemError, whose advice would be "use lambda > 0"
        # or "use a larger lambda"
        with pytest.raises(ValueError, match="finite and nonnegative"):
            numlin.ridge_solve(np.eye(2), np.eye(2), lam)
