"""Orthogonal Tucker-2 decomposition of state tensors by alternating SVDs.

``hooi`` fits factor matrices U (space) and V (time) with orthonormal
columns and a core tensor whose frontal slices are per-sample feature
matrices.  The fit starts from the HOSVD factor of the data (De Lathauwer,
De Moor & Vandewalle 2000), so it depends on the data alone.
``project_core`` maps new state matrices (one N x T matrix
or an N x T x B batch) into the fitted bases; ``fit_per_class`` builds
one model per class.
"""

from dataclasses import dataclass, field

import numpy as np

from . import tensor_ops as tops
from .numlin import fix_column_signs

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITERS = 100


@dataclass(frozen=True)
class HooiConfig:
    """Ranks, stopping tolerance and iteration cap."""

    ranks: tuple  # (J1, J2)
    tol: float = DEFAULT_TOL
    max_iters: int = DEFAULT_MAX_ITERS

    def __post_init__(self):
        j1, j2 = self.ranks
        if j1 < 1 or j2 < 1:
            raise ValueError(f"ranks must be positive, got {self.ranks}")
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class TuckerModel:
    """Fitted factor pair, core tensor and per-slice class labels."""

    u: np.ndarray          # (N, J1), orthonormal columns
    v: np.ndarray          # (T, J2), orthonormal columns
    core: np.ndarray       # (J1, J2, M)
    slice_labels: np.ndarray  # (M,) class id per frontal slice
    ranks: tuple
    converged: bool
    iterations: int
    # Frobenius norm of the core after each iteration; diagnostic only.
    objective_history: tuple = field(default=(), compare=False)

    @property
    def n_space(self):
        return self.u.shape[0]

    @property
    def n_time(self):
        return self.v.shape[0]

    @property
    def n_slices(self):
        return self.core.shape[2]


def _top_left_vectors(a, r):
    """The ``r`` dominant left singular vectors and values of ``a``.

    One ``eigh`` of the Gram matrix ``a @ a.T``; values below about
    ``sqrt(eps)`` times the largest one are rounding noise.
    """
    w, p = np.linalg.eigh(a @ a.T)
    p = p[:, ::-1][:, :r]                  # eigh sorts ascending
    return fix_column_signs(p), np.sqrt(np.clip(w[::-1][:r], 0.0, None))


def hooi(x, cfg, labels=None):
    """Fit an orthogonal Tucker-2 decomposition of ``x`` (N x T x M).

    Starts V from the HOSVD factor, the dominant left singular vectors
    of the mode-2 unfolding, so the fit depends on the data alone.  Then
    alternates the two factor updates: contract mode 2 by V' and take the
    dominant left singular vectors of the mode-1 unfolding for U, then
    contract mode 1 by U' and take the mode-2 unfolding's dominant left
    singular vectors for V.  Each factor comes from one ``eigh`` of its
    unfolding's N x N or T x T Gram matrix, and both contractions are
    plain matrix products over ``x`` in C order, validated once and never
    transposed.  The ranks must satisfy J1 <= min(N, J2 M) and
    J2 <= min(T, J1 M).  Stops when the leading singular values of both
    updates change by less than ``cfg.tol``, or at ``cfg.max_iters`` (the
    model is then returned with ``converged=False``).
    """
    x = np.ascontiguousarray(tops.as_tensor3(x))
    n, t, m = x.shape
    j1, j2 = cfg.ranks
    if j1 > min(n, j2 * m) or j2 > min(t, j1 * m):
        raise ValueError(
            f"ranks {cfg.ranks} exceed J1 <= min(N, J2 M), "
            f"J2 <= min(T, J1 M) for a tensor of shape {x.shape}"
        )
    if labels is None:
        labels = np.ones(m, dtype=int)
    labels = np.asarray(labels, dtype=int)
    if labels.shape != (m,):
        raise ValueError(
            f"expected {m} slice labels, got shape {labels.shape}"
        )

    # V: top-J2 eigenvectors of the mode-2 Gram matrix, summed over the N
    # T x M slices of x (no transposed copy); U sees V only through X x2 V'
    v = np.linalg.eigh(sum(xi @ xi.T for xi in x))[1][:, t - j2:]
    s1_prev = np.zeros(j1)
    s2_prev = np.zeros(j2)
    history = []
    converged = False
    iterations = 0

    for iterations in range(1, cfg.max_iters + 1):
        # N x (J2 M): the mode-1 unfolding of X x2 V' up to a column
        # permutation, which leaves its left singular vectors unchanged
        u, s1 = _top_left_vectors(np.matmul(v.T, x).reshape(n, j2 * m), j1)

        z = (u.T @ x.reshape(n, t * m)).reshape(j1, t, m)    # X x1 U'
        v, s2 = _top_left_vectors(z.transpose(1, 0, 2).reshape(t, j1 * m), j2)

        # ||core|| at the current factors: V holds the top-J2 left singular
        # vectors of (X x1 U')_(2), so the projected energy is sum(s2^2)
        history.append(float(np.sqrt(np.sum(s2**2))))

        change = max(
            float(np.max(np.abs(s1 - s1_prev))),
            float(np.max(np.abs(s2 - s2_prev))),
        )
        if change < cfg.tol:
            converged = True
            break
        s1_prev, s2_prev = s1, s2

    core = np.matmul(v.T, z)                                  # J1 x J2 x M
    return TuckerModel(
        u=u,
        v=v,
        core=core,
        slice_labels=labels,
        ranks=(j1, j2),
        converged=converged,
        iterations=iterations,
        objective_history=tuple(history),
    )


def project_core(x, model):
    """Feature matrix ``U' X V`` of a state matrix in the fitted bases.

    ``x`` is one state matrix (N x T), giving J1 x J2, or a batch of B
    state matrices (N x T x B), giving their J1 x J2 x B cores.
    """
    x = tops.as_tensor3(x) if np.ndim(x) == 3 else tops.as_matrix(x)
    if x.shape[:2] != (model.n_space, model.n_time):
        raise ValueError(
            f"state matrix of shape {x.shape} does not match model "
            f"dimensions ({model.n_space}, {model.n_time})"
        )
    z = (model.u.T @ x.reshape(model.n_space, -1)).reshape(
        (-1,) + x.shape[1:])                                 # J1 x T [x B]
    return z @ model.v if z.ndim == 2 else np.matmul(model.v.T, z)


def reconstruct(model):
    """Rebuild the rank-(J1,J2) approximation ``core x1 U x2 V``."""
    return tops.mode_product(tops.mode_product(model.core, model.u, 1),
                             model.v, 2)


def fit_per_class(class_tensors, cfg, class_ids=None):
    """Fit one Tucker-2 model per class tensor.

    ``class_tensors`` is a list of N x T x M_k tensors, one per class,
    all sharing (N, T).  Each fit starts from its own tensor's HOSVD
    factor, so a model depends on its class tensor alone.
    """
    if not class_tensors:
        raise ValueError("need at least one class tensor")
    if class_ids is None:
        class_ids = list(range(1, len(class_tensors) + 1))
    if len(class_ids) != len(class_tensors):
        raise ValueError("class_ids and class_tensors length mismatch")
    base = np.shape(class_tensors[0])[:2]
    models = []
    for cid, xk in zip(class_ids, class_tensors):
        # hooi validates each tensor's entries; shapes are checked here
        xk = np.asarray(xk)
        if xk.ndim != 3:
            raise ValueError(
                f"class {cid} tensor must be N x T x M, got ndim={xk.ndim}")
        if xk.shape[2] < 1:
            raise ValueError(f"class {cid} has no samples")
        if xk.shape[:2] != base:
            raise ValueError(
                f"class {cid} tensor shape {xk.shape[:2]} differs from "
                f"{base}"
            )
        labels = np.full(xk.shape[2], cid, dtype=int)
        models.append(hooi(xk, cfg, labels))
    return models


def save_model(model, path):
    """Serialize a TuckerModel to an ``.npz`` container (lossless)."""
    np.savez(
        path,
        dims=np.array([model.n_space, model.n_time, model.n_slices]),
        ranks=np.array(model.ranks),
        u=model.u,
        v=model.v,
        core=model.core,
        slice_labels=model.slice_labels,
        converged=np.array(int(model.converged)),
        iterations=np.array(model.iterations),
    )


def load_model(path):
    """Inverse of :func:`save_model`."""
    with np.load(path) as d:
        return TuckerModel(
            u=d["u"],
            v=d["v"],
            core=d["core"],
            slice_labels=d["slice_labels"],
            ranks=tuple(int(r) for r in d["ranks"]),
            converged=bool(int(d["converged"])),
            iterations=int(d["iterations"]),
        )
