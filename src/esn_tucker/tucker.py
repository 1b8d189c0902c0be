"""Orthogonal Tucker-2 decomposition of state tensors by alternating
eigensolves.

``hooi_grid`` fits factor matrices U (space) and V (time) with
orthonormal columns, and a core tensor whose frontal slices are
per-sample feature matrices, at each rank pair of a grid; ``hooi`` is
its one-pair case.  With one core per slice X_i this is GLRAM (J. Ye,
Machine Learning 61, 2005): U holds the top eigenvectors of
sum_i X_i V V' X_i' and V those of sum_i X_i' U U' X_i.  Each fit starts
from the HOSVD factor of the data (De Lathauwer, De Moor & Vandewalle
2000), so it depends on the data alone.

Both Gram matrices come from one of two sources: passes over the
slices, two matrix products per update; or the fourth-order Gram matrix
K = sum_i vec(X_i) vec(X_i)', linear in which both are, held folded
under the symmetry of V V' and U U' as S, about a quarter of K's
N^2 x T^2 entries, formed once per grid, so that each update is one
matrix-vector product.  S is taken where a whole fit from it, forming
included, costs no more in the worst case over the iteration count
than one from the slices (``_fourth_order_pays``).  A source supplies
only the two updates: every pair starts from the same V and gets its
core from the product ``project_core`` scores with, whichever source
fed it.

``project_core`` maps new state matrices (one N x T matrix or an
N x T x B batch) into the fitted bases; ``fit_per_class`` fits one
model per class of a labelled tensor.  Each validates its array once
and calls a private core, which checks only ranks, labels and shapes.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import tensor_ops as tops
from .numlin import fix_column_signs

# HOOI stops when no leading singular value moves by TOL, or at MAX_ITERS
TOL = 1e-6
MAX_ITERS = 100


@dataclass(frozen=True)
class TuckerModel:
    """Fitted factor pair, core tensor and per-slice class labels."""

    u: np.ndarray          # (N, J1), orthonormal columns
    v: np.ndarray          # (T, J2), orthonormal columns
    core: np.ndarray       # (J1, J2, M)
    slice_labels: np.ndarray  # (M,) class id per frontal slice
    converged: bool
    iterations: int
    # Frobenius norm of the core after each iteration; diagnostic only.
    objective_history: tuple = field(default=(), compare=False)

    def __post_init__(self):
        shape = (self.u.shape[1], self.v.shape[1])
        if np.ndim(self.core) != 3 or self.core.shape[:2] != shape:
            raise ValueError(f"core of shape {np.shape(self.core)} is not "
                             f"J1 x J2 x M for factor ranks {shape}")
        if np.shape(self.slice_labels) != (self.core.shape[2],):
            raise ValueError(
                f"expected {self.core.shape[2]} slice labels, got shape "
                f"{np.shape(self.slice_labels)}")

    @property
    def ranks(self):
        return self.u.shape[1], self.v.shape[1]

    @property
    def n_space(self):
        return self.u.shape[0]

    @property
    def n_time(self):
        return self.v.shape[0]

    @property
    def n_slices(self):
        return self.core.shape[2]


def _top_eigenvectors(gram, r):
    """The ``r`` dominant eigenvectors of the symmetric ``gram`` and the
    square roots of their eigenvalues: the dominant left singular
    vectors and values of any ``a`` with ``gram = a @ a.T``.

    One ``eigh``, whose vector signs are arbitrary; values below about
    ``sqrt(eps)`` times the largest one are rounding noise.
    """
    w, p = np.linalg.eigh(gram)
    # eigh sorts ascending; a C-order copy, as fix_column_signs makes,
    # keeps each update's products bit for bit (a strided view can
    # round differently)
    p = np.ascontiguousarray(p[:, ::-1][:, :r])
    return p, np.sqrt(np.clip(w[::-1][:r], 0.0, None))


def _iterate(u_gram, v_gram, v, ranks):
    """Alternate the two factor updates from the starting factor ``v``.

    U takes the top-J1 eigenvectors of ``u_gram(v)``, the N x N Gram
    matrix of ``X x2 V'``; then V the top-J2 eigenvectors of
    ``v_gram(u)``, the T x T Gram matrix of ``X x1 U'``.  Stops when the
    leading singular values of both updates change by less than ``TOL``,
    or at ``MAX_ITERS``.  Returns U, V, whether it converged, the
    iteration count and the core norm after each iteration.

    The updates see the factors only as V V' and U U', and the stopping
    test only singular values, so each factor's column signs are fixed
    once, on the U and V returned; the fit is the same bit for bit.
    """
    j1, j2 = ranks
    s1_prev = np.zeros(j1)
    s2_prev = np.zeros(j2)
    history = []
    converged = False
    iterations = 0

    for iterations in range(1, MAX_ITERS + 1):
        u, s1 = _top_eigenvectors(u_gram(v), j1)
        v, s2 = _top_eigenvectors(v_gram(u), j2)

        # ||core|| at the current factors: V holds the top-J2 left singular
        # vectors of (X x1 U')_(2), so the projected energy is sum(s2^2)
        history.append(float(np.sqrt(np.sum(s2**2))))

        change = max(
            float(np.max(np.abs(s1 - s1_prev))),
            float(np.max(np.abs(s2 - s2_prev))),
        )
        if change < TOL:
            converged = True
            break
        s1_prev, s2_prev = s1, s2
    return (fix_column_signs(u), fix_column_signs(v), converged,
            iterations, tuple(history))


def _fourth_order_pays(n, t, m, rank_pairs):
    """Whether fitting ``rank_pairs`` to an N x T x M tensor takes its
    Gram matrices from S rather than from passes over the slices.

    Counting a Gram matrix of an r x c matrix as r^2 c flops and a
    product of r x s by s x c as 2 r s c, forming S (the block products
    of ``_fourth_order_gram``) costs F = N(N+1) T^2 M, one iteration
    from S costs s = N(N+1) T(T+1) per rank pair (two matrix-vector
    products with its N(N+1)/2 x T(T+1)/2 entries), and one iteration
    over the slices costs c = M [2 N T (J1 + J2) + N^2 J2 + T^2 J1] per
    rank pair.  With s and c summed over the pairs, a fit of i
    iterations, 1 <= i <= I = ``MAX_ITERS``, costs F + i s from S and
    i c from the slices.  Taking S risks the ratio (F + i s) / (i c),
    largest at i = 1; taking the slices risks i c / (F + i s), largest
    at i = I.  S is taken when its worst ratio is no larger:
    (F + s)(F + I s) <= I c^2.  Where s is small beside F this is
    F <= sqrt(I) c: S when forming it costs at most sqrt(I) iterations
    over the slices.  Divided by M^2, the left side falls as M grows and
    the right side stays, so a larger M only ever favours S.
    """
    form = n * (n + 1) * t * t * m
    step = len(rank_pairs) * n * (n + 1) * t * (t + 1)
    slices = m * sum(2 * n * t * (j1 + j2) + n * n * j2 + t * t * j1
                     for j1, j2 in rank_pairs)
    return (form + step) * (form + MAX_ITERS * step) <= \
        MAX_ITERS * slices * slices


def _fourth_order_gram(x):
    """S, the fourth-order Gram matrix K = sum_i vec(X_i) vec(X_i)' of
    the slices X_i of ``x`` folded under the symmetry of the V V' and
    U U' it meets: the N(N+1)/2 x T(T+1)/2 matrix whose rows are the
    pairs a <= b and columns the pairs c <= d, each in ``triu_indices``
    order, with entry

        S[(a, b), (c, d)] = sum_i X_i[a, c] X_i[b, d]
                            + [c < d] sum_i X_i[a, d] X_i[b, c].

    Built one row block at a time: one product of the T x M slab
    ``x[a]`` with rows a T onwards of the NT x M unfolding gives every
    sum_i X_i[a, c] X_i[b, d] with b >= a, so S costs N(N+1) T^2 M
    flops, about those of the Gram matrix K of the NT x M unfolding,
    and no whole K is ever held.
    """
    n, t, m = x.shape
    flat = x.reshape(n * t, m)
    c, d = np.triu_indices(t)
    strict = np.flatnonzero(c < d)
    s = np.empty((n * (n + 1) // 2, c.size))
    row = 0
    for a in range(n):
        # T x (N - a) x T: entry (c, b - a, d) is sum_i X_i[a, c] X_i[b, d]
        block = (x[a] @ flat[a * t:].T).reshape(t, n - a, t)
        rows = block[c, :, d]                        # pairs c <= d x (N - a)
        rows[strict] += block[d[strict], :, c[strict]]
        s[row:row + n - a] = rows.T
        row += n - a
    return s


def _pair_index(size):
    """The flat indices of the pairs a <= b of a ``size`` x ``size``
    matrix in ``triu_indices`` order; the ``size`` x ``size`` array
    holding, at (a, b) and (b, a), the position of the pair a <= b in
    that order; and 1 at each pair a < b and 2 at each pair a = b."""
    a, b = np.triu_indices(size)
    position = np.empty((size, size), dtype=np.intp)
    position[a, b] = position[b, a] = np.arange(a.size)
    return a * size + b, position, np.where(a == b, 2.0, 1.0)


def _fourth_order_grams(x):
    """The update pair from S, formed once: each Gram matrix is one
    matrix-vector product with S.

    The upper triangle of sum_i X_i V V' X_i' is S times the upper
    triangle of V V'.  The upper triangle of sum_i X_i' U U' X_i is the
    upper triangle of U U', its diagonal halved, times S, with the
    diagonal of the product then doubled; both scalings are exact.
    Each result is mirrored into the full symmetric matrix.
    """
    n, t, _ = x.shape
    s = _fourth_order_gram(x)
    row_pairs, row_full, row_weight = _pair_index(n)
    col_pairs, col_full, col_weight = _pair_index(t)

    def u_gram(v):
        return (s @ np.take(v @ v.T, col_pairs))[row_full]

    def v_gram(u):
        g = (np.take(u @ u.T, row_pairs) / row_weight) @ s
        return (g * col_weight)[col_full]

    return u_gram, v_gram


def _slice_grams(x):
    """The update pair from passes over the slices of ``x``: both
    contractions are plain matrix products over ``x`` in C order, never
    transposed."""
    n, t, m = x.shape

    def u_gram(v):
        # N x (J2 M): the mode-1 unfolding of X x2 V' up to a column
        # permutation, which leaves its Gram matrix unchanged
        a = np.matmul(v.T, x).reshape(n, -1)
        return a @ a.T

    def v_gram(u):
        z = (u.T @ x.reshape(n, t * m)).reshape(-1, t, m)
        a = z.transpose(1, 0, 2).reshape(t, -1)
        return a @ a.T

    return u_gram, v_gram


def hooi_grid(x, rank_pairs, labels=None):
    """Fit an orthogonal Tucker-2 decomposition of ``x`` (N x T x M) at
    each rank pair (J1, J2) of ``rank_pairs``: one ``TuckerModel`` per
    pair, in order.

    ``x`` is validated once and every pair's ranks are checked before
    any work: they must be positive and satisfy J1 <= min(N, J2 M) and
    J2 <= min(T, J1 M).  Each fit starts V from the HOSVD factor, the
    dominant eigenvectors of the mode-2 Gram matrix, so it depends on
    the data alone, and alternates the two factor updates until the
    leading singular values of both change by less than ``TOL``, or
    stops at ``MAX_ITERS`` (the model then has ``converged=False``).
    The updates' Gram matrices come from S, the fourth-order Gram matrix
    folded by symmetry and formed once for all pairs, where a whole fit
    from it costs no more in the worst case than one from passes over
    the slices (``_fourth_order_pays``), and from the slices elsewhere.
    Both sources share the one start and the one core, ``U' X_i V`` as
    ``project_core`` forms it; S is freed before any core is formed.
    """
    return _hooi_grid(np.ascontiguousarray(tops.as_tensor3(x)), rank_pairs,
                      labels)


def _hooi_grid(x, rank_pairs, labels):
    """``hooi_grid`` of a finite ``x`` in C order."""
    n, t, m = x.shape
    rank_pairs = _checked_rank_pairs(x.shape, rank_pairs)
    labels = tops.as_labels(np.ones(m) if labels is None else labels, m,
                            "slice")
    pays = _fourth_order_pays(n, t, m, rank_pairs)
    grams = (_fourth_order_grams if pays else _slice_grams)(x)
    # the starting V of every pair: eigenvectors of the mode-2 Gram
    # matrix, summed over the N T x M slices of x (no transposed copy)
    start = np.linalg.eigh(sum(xi @ xi.T for xi in x))[1]
    fits = [_iterate(*grams, start[:, t - j2:], (j1, j2))
            for j1, j2 in rank_pairs]
    del grams                 # S lives only while the factors iterate
    return [TuckerModel(u=u, v=v, core=_contract(x, u, v),
                        slice_labels=labels, converged=converged,
                        iterations=iterations, objective_history=history)
            for u, v, converged, iterations, history in fits]


def _checked_rank_pairs(shape, rank_pairs):
    """``rank_pairs`` as a list of tuples, each checked against a tensor
    of ``shape``: J1, J2 integers (not bools), J1, J2 >= 1,
    J1 <= min(N, J2 M) and J2 <= min(T, J1 M).
    """
    n, t, m = shape
    rank_pairs = [tuple(ranks) for ranks in rank_pairs]
    for j1, j2 in rank_pairs:
        if not all(isinstance(j, numbers.Integral)
                   and not isinstance(j, bool) for j in (j1, j2)):
            raise ValueError(f"ranks must be integers, got {(j1, j2)}")
        if j1 < 1 or j2 < 1:
            raise ValueError(f"ranks must be positive, got {(j1, j2)}")
        if j1 > min(n, j2 * m) or j2 > min(t, j1 * m):
            raise ValueError(
                f"ranks {(j1, j2)} exceed J1 <= min(N, J2 M), "
                f"J2 <= min(T, J1 M) for a tensor of shape {shape}"
            )
    return rank_pairs


def hooi(x, ranks, labels=None):
    """``hooi_grid`` at the one rank pair ``ranks``: one ``TuckerModel``."""
    return hooi_grid(x, [ranks], labels)[0]


def project_core(x, model):
    """Feature matrix ``U' X V`` of a state matrix in the fitted bases.

    ``x`` is one state matrix (N x T), giving J1 x J2, or a batch of B
    state matrices (N x T x B), giving their J1 x J2 x B cores.
    """
    x = tops.as_tensor3(x) if np.ndim(x) == 3 else tops.as_matrix(x)
    return _project(x, model)


def _project(x, model):
    """``project_core`` of an ``x`` already validated as finite."""
    if x.shape[:2] != (model.n_space, model.n_time):
        raise ValueError(
            f"state matrix of shape {x.shape} does not match model "
            f"dimensions ({model.n_space}, {model.n_time})"
        )
    return _contract(x, model.u, model.v)


def _contract(x, u, v):
    """``U' X V`` of the matrix ``x``, or of each slice of ``x``."""
    z = (u.T @ x.reshape(u.shape[0], -1)).reshape(
        (u.shape[1],) + x.shape[1:])                         # J1 x T [x B]
    return z @ v if z.ndim == 2 else np.matmul(v.T, z)


def fit_per_class(x, rank_pairs, labels):
    """Fit one Tucker-2 model per class of ``x`` (N x T x M) at each rank
    pair of ``rank_pairs``, ``labels`` holding the class id of each of
    the M frontal slices: for each pair, the class models in increasing
    id order.

    Each class model is ``hooi_grid`` of that class's slices, so it
    depends on them alone.
    """
    return _fit_per_class(tops.as_tensor3(x), rank_pairs, labels)


def _fit_per_class(x, rank_pairs, labels):
    """``fit_per_class`` of a finite ``x``: every pair is checked on the
    whole tensor first, which rejects no pair that is valid for every
    class."""
    labels = tops.as_labels(labels, x.shape[2], "slice")
    rank_pairs = _checked_rank_pairs(x.shape, rank_pairs)
    # compress keeps each class tensor in C order, as _hooi_grid takes it
    fits = [_hooi_grid(x.compress(labels == c, axis=2), rank_pairs,
                       np.full(np.count_nonzero(labels == c), c))
            for c in np.unique(labels)]
    return [list(models) for models in zip(*fits)]
