"""Dense numerical linear algebra: the ridge solver and sign-fixed factors.

``ridge_solve`` solves the readout's normal equations by one Cholesky
factorization (LAPACK, via ``scipy.linalg``).  ``fix_column_signs``
makes singular vectors reproducible by flipping each column's sign.
"""

import numpy as np
import scipy.linalg

from .tensor_ops import as_matrix


class SingularSystemError(RuntimeError):
    """Normal equations are singular; retry with lambda > 0."""


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
    x = as_matrix(x)
    y = as_matrix(y)
    if x.shape[1] != y.shape[1]:
        raise ValueError(
            f"X and y must share a column count, got {x.shape[1]} and "
            f"{y.shape[1]}"
        )
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    n = x.shape[0]
    gram = x @ x.T + lam * np.eye(n)
    try:
        factor = scipy.linalg.cho_factor(gram)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "X X' + lambda I is singular; use lambda > 0"
        ) from exc
    w = scipy.linalg.cho_solve(factor, x @ y.T).T
    if not np.all(np.isfinite(w)):
        raise SingularSystemError(
            "ridge solution is not finite; the system is numerically "
            "singular, use lambda > 0"
        )
    return w
