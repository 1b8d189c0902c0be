"""Dense numerical linear algebra: the ridge solver and sign-fixed factors.

``ridge_solve`` solves the readout's normal equations with numpy's
LAPACK bindings: a Cholesky factorization checks that the system is
positive definite, and one LAPACK solve gives the weights.  The module
imports no scipy.  ``fix_column_signs`` makes singular vectors
reproducible by flipping each column's sign.
"""

import numpy as np

from .tensor_ops import as_matrix


class SingularSystemError(RuntimeError):
    """Normal equations are singular; retry with a larger lambda."""


def fix_column_signs(m):
    """Flip each column so its largest-magnitude entry is positive.

    Removes the sign ambiguity of singular vectors so factor matrices are
    reproducible across calls.
    """
    m = np.array(m, dtype=float)
    peak = m[np.argmax(np.abs(m), axis=0), np.arange(m.shape[1])]
    m[:, peak < 0] *= -1.0
    return m


def ridge_solve(x, y, lam):
    """Solve ``W (X X' + lam I) = y X'`` for the readout matrix ``W``.

    ``x`` is N-by-S (features by observations), ``y`` is K-by-S targets.
    With ``lam = 0`` the Gram matrix must be invertible.
    """
    return _ridge_solve(as_matrix(x), as_matrix(y), lam)


def _ridge_solve(x, y, lam):
    """``ridge_solve`` of finite matrices ``x`` and ``y``."""
    if x.shape[1] != y.shape[1]:
        raise ValueError(
            f"X and y must share a column count, got {x.shape[1]} and "
            f"{y.shape[1]}"
        )
    if not 0 <= lam < np.inf:   # NaN fails every comparison
        raise ValueError(f"lambda must be finite and nonnegative, got {lam}")
    larger = "a larger lambda" if lam > 0 else "lambda > 0"
    n = x.shape[0]
    gram = x @ x.T + lam * np.eye(n)
    try:
        np.linalg.cholesky(gram)    # the check; numpy has no cho_solve
        w = np.linalg.solve(gram, x @ y.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"X X' + lambda I is singular at "
                                  f"lambda = {lam:g}; use {larger}") from exc
    if not np.all(np.isfinite(w)):
        raise SingularSystemError(
            f"ridge solution is not finite at lambda = {lam:g}: the system "
            f"is numerically singular; use {larger}")
    return w
