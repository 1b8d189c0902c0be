"""Dense numerical linear algebra: truncated SVD and the ridge solver.

The truncated SVD takes one symmetric eigendecomposition (LAPACK, via
``np.linalg.eigh``) of the smaller Gram matrix (``m @ m.T`` or
``m.T @ m``) and keeps its top eigenpairs, so repeated calls on the
same input give identical factors.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .tensor_ops import as_matrix


class SingularSystemError(RuntimeError):
    """Normal equations are singular; retry with lambda > 0."""


@dataclass(frozen=True)
class SvdResult:
    """Dominant left singular vectors (orthonormal columns) and values."""

    left_vectors: np.ndarray   # (rows, r)
    singular_values: np.ndarray  # (r,), nonincreasing, >= 0


def fix_column_signs(m):
    """Flip each column so its largest-magnitude entry is positive.

    Removes the sign ambiguity of singular vectors so factor matrices are
    reproducible across calls.
    """
    m = np.array(m, dtype=float)
    peak = m[np.argmax(np.abs(m), axis=0), np.arange(m.shape[1])]
    m[:, peak < 0] *= -1.0
    return m


def truncated_svd(m, r):
    """Return the ``r`` dominant left singular vectors and values of ``m``.

    The values are the square roots of the top ``r`` eigenvalues of the
    smaller Gram matrix, so values below about ``sqrt(eps)`` times the
    largest one are rounding noise.
    """
    m = as_matrix(m)
    rows, cols = m.shape
    if not 1 <= r <= min(rows, cols):
        raise ValueError(
            f"rank {r} out of range for a {rows}x{cols} matrix "
            f"(must be in [1, {min(rows, cols)}])"
        )
    wide = rows <= cols
    w, p = np.linalg.eigh(m @ m.T if wide else m.T @ m)
    p = p[:, ::-1][:, :r]                  # eigh sorts ascending
    svals = np.sqrt(np.clip(w[::-1][:r], 0.0, None))
    if wide:
        return SvdResult(fix_column_signs(p), svals)
    tiny = max(rows, cols) * np.finfo(float).eps * max(svals[0], 1.0)
    live = svals > tiny
    u = np.zeros((rows, r))
    u[:, live] = (m @ p[:, live]) / svals[live]
    # re-orthonormalize; fills any null columns with a valid basis
    u, _ = np.linalg.qr(u)
    return SvdResult(fix_column_signs(u), svals)


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
