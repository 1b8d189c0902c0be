"""Output layers: trained linear readout rules and nearest-core rules.

Every rule scores B state matrices held as one N x T x B tensor, the
layout ``esn.run`` returns.  The readout family scores state columns
(or each sample's summed columns) through a ridge-trained weight matrix
and takes the argmax.  The tensor family projects each state matrix
into fitted Tucker-2 bases and picks the class of the nearest core
slice in Frobenius norm.  It decides that label from squared distances
in the expanded form, each with a rounding bound: each call builds a
model's side of the product once and takes one matrix product per model
and state tensor.  Only a sample whose nearest slice the bounds leave
open between labels is scored again, over every slice, by the direct
differences of ``_distances``.  The ``classify_*`` functions apply the
same rules to one N x T matrix and return a Prediction with score
detail; their tensor-rule scores are the same ``_distances``.  Each
exported function validates its array once and calls cores that take
arrays already validated.

Class ids are 1-based throughout.  Readout ties break toward the
lowest class id, nearest-core ties toward the earliest model, then the
earliest slice; either sets the ``tie`` flag.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tensor_ops as tops
from .numlin import _ridge_solve
from .tucker import _project

_TIE_REL = 1e-12  # scores this close (relative) count as tied


@dataclass(frozen=True)
class OutputWeights:
    """Ridge-trained readout matrix (K x N) and the lambda that made it."""

    w: np.ndarray
    ridge_lambda: float

    def __post_init__(self):
        if self.w.ndim != 2 or self.w.shape[0] < 2:
            raise ValueError(
                f"readout must be K x N with K >= 2, got shape {self.w.shape}"
            )
        if not np.all(np.isfinite(self.w)):
            raise ValueError("readout entries must be finite")

    @property
    def n_classes(self):
        return self.w.shape[0]


@dataclass(frozen=True)
class Prediction:
    """Predicted class id with the per-class score detail."""

    label: int
    scores: np.ndarray  # per-class scores (higher wins) or distances (lower)
    tie: bool


def _argmax_prediction(scores):
    scores = np.asarray(scores, dtype=float)
    best = int(np.argmax(scores))
    tol = _TIE_REL * max(1.0, float(np.max(np.abs(scores))))
    tie = int(np.sum(scores >= scores[best] - tol)) > 1
    return Prediction(label=best + 1, scores=scores, tie=tie)


def _tied_min(dists):
    """Whether another distance lies within ``_TIE_REL`` of the least,
    relative to the least: a least distance of 0 ties only with 0."""
    least = float(np.min(dists))
    return int(np.sum(dists <= least + _TIE_REL * least)) > 1


def train_output_weights(x, labels, ridge_lambda=0.0, n_classes=None):
    """Train the readout on a state tensor ``x`` (N x T x B) of labeled
    samples.

    The tensor is unfolded in its own memory order, to N x (T B) with
    column (t-1)B + b the state of sample b at step t, and paired with an
    indicator matrix whose column (t-1)B + b is the basis vector of
    sample b's label: every time step inherits its sample's label.  The
    ridge system does not depend on the column order, so a C-ordered
    ``x`` is not copied.
    """
    return _train_output_weights(tops.as_tensor3(x), labels, ridge_lambda,
                                 n_classes)


def _train_output_weights(x, labels, ridge_lambda, n_classes):
    """``train_output_weights`` of a finite ``x``."""
    n, t, b = x.shape
    labels = tops.as_labels(labels, b, "sample")
    if n_classes is None:
        n_classes = int(labels.max())
    if labels.min() < 1 or labels.max() > n_classes:
        raise ValueError("labels must lie in 1..n_classes")

    y = np.zeros((n_classes, t * b))
    y[np.tile(labels, t) - 1, np.arange(t * b)] = 1.0
    w = _ridge_solve(x.reshape(n, t * b), y, ridge_lambda)
    return OutputWeights(w=w, ridge_lambda=float(ridge_lambda))


def step_labels(weights, states):
    """Pointwise rule: the label of every time step of every sample (T x B)."""
    n, t, b = states.shape
    scores = weights.w @ states.reshape(n, t * b)
    return np.argmax(scores, axis=0).reshape(t, b) + 1


def vote_labels(weights, states):
    """Majority vote of each sample's pointwise labels, ties to the lowest."""
    ids = np.arange(1, weights.n_classes + 1)
    steps = step_labels(weights, states)
    return np.argmax(np.sum(steps == ids[:, None, None], axis=1), axis=0) + 1


def block_scores(weights, states):
    """Block rule scores: readout of each sample's summed states (K x B)."""
    return weights.w @ states.sum(axis=1)


def block_labels(weights, states):
    """Block rule labels (B,)."""
    return np.argmax(block_scores(weights, states), axis=0) + 1


class _Expanded(NamedTuple):
    """One model's squared distances in the expanded form, its slices in
    label order."""

    g: np.ndarray       # K x B: the samples' cores, uncentred
    order: np.ndarray   # M: the slice behind each row of ``e``
    group: np.ndarray   # M: the label group of each row of ``e``
    e: np.ndarray       # M x B: |c|^2 - 2 g'c, centred
    g_sq: np.ndarray    # B: |g|^2, centred
    d2: np.ndarray      # L x B: the least |g|^2 + e in each label group
    err: np.ndarray     # L x B: the rounding bound for each group
    labels: np.ndarray  # L: each group's label


def _rounding_coeff(k):
    """Rounding bound of a squared distance from an expanded dot product
    of length ``k``, as a multiple of S^2.

    With g and c the centred core and slice as computed and
    S = |g| + |c|, the expanded |g|^2 + (|c|^2 - 2 g'c) differs from the
    exact |g - c|^2 by at most (3k + 4) u S^2 to first order (u = eps/2,
    gamma_n = n u / (1 - n u); Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., section 3.1):
      - |c|^2 - 2 g'c is one dot product of length k whose terms sum in
        absolute value to 2 |g|'|c| + |c|^2 <= S^2 (Cauchy-Schwarz), so
        in any summation order it is off by at most gamma_k S^2;
      - the norm sums |g|^2 and |c|^2 are off by at most gamma_k S^2 each;
      - adding |g|^2 rounds once more, by at most u S^2;
      - centring rounds each entry of g - mu and c - mu once, which moves
        |g - c| by at most u S and so |g - c|^2 by at most 3 u S^2.
    Doubling it to (3k + 10) eps covers the second-order terms and the
    rounding of S and of the interval ends.
    """
    return (3 * k + 10) * np.finfo(float).eps


def _expand(splits, model):
    """Squared distances of the cores of each tensor in ``splits`` to the
    slices of ``model``, each from one matrix product, with a rounding
    bound per label group.  The model's side of the product, built once
    for all of them, is its slices centred on their mean, scaled by -2
    (exactly) and in label order, with a column of |c|^2."""
    k = model.core.shape[0] * model.core.shape[1]
    core = model.core.reshape(k, -1)
    slice_labels = np.asarray(model.slice_labels)
    order = np.argsort(slice_labels, kind="stable")
    labels, starts, counts = np.unique(
        slice_labels[order], return_index=True, return_counts=True)
    bounds = list(zip(starts, starts + counts))
    group = np.repeat(np.arange(labels.size), counts)
    mu = core.mean(axis=1)
    rhs = np.empty((order.size, k + 1))
    np.subtract(core.T[order], mu, out=rhs[:, :k])
    c_sq = np.einsum("ij,ij->i", rhs[:, :k], rhs[:, :k])
    rhs[:, :k] *= -2.0
    rhs[:, k] = c_sq
    c_max = np.sqrt([c_sq[a:b].max() for a, b in bounds])
    parts = []
    for x in splits:
        g = _project(x, model).reshape(k, -1)
        # one product gives |c|^2 - 2 g'c: the centred cores gain a row
        # of ones to meet the column of |c|^2
        lhs = np.empty((k + 1, g.shape[1]))
        np.subtract(g, mu[:, None], out=lhs[:k])
        lhs[k] = 1.0
        e = rhs @ lhs
        g_sq = np.einsum("ij,ij->j", lhs[:k], lhs[:k])
        d2 = g_sq + np.array([e[a:b].min(axis=0) for a, b in bounds])
        err = _rounding_coeff(k + 1) * (np.sqrt(g_sq) + c_max[:, None]) ** 2
        parts.append(_Expanded(g=g, order=order, group=group, e=e,
                               g_sq=g_sq, d2=d2, err=err, labels=labels))
    return parts


def _distances(g, model):
    """Distances of one core ``g`` (K values) to every slice of ``model``
    (M,), by direct differences.  Each difference column is scaled by the
    power of two 2^-e that brings its largest entry into [1/2, 1) before
    it is squared, so the distance is sqrt(s) 2^e, s the sum of the scaled
    squares: that is the plain one, rounded alike, wherever its square
    does not underflow, and tiny differences keep nonzero distances."""
    diff = model.core.reshape(g.size, -1) - g.reshape(-1, 1)
    e = np.frexp(np.abs(diff).max(axis=0))[1]
    return np.ldexp(np.sqrt(np.sum(np.ldexp(diff, -e) ** 2, axis=0)), e)


def _direct_label(parts, models, row):
    """Label of the slice nearest sample ``row`` over every slice of every
    model, by ``_distances``; ties go to the earliest model, then the
    earliest slice."""
    dists = np.concatenate([_distances(p.g[:, row], m)
                            for p, m in zip(parts, models)])
    return np.concatenate([m.slice_labels for m in models])[np.argmin(dists)]


def nearest_core_labels(states, models):
    """Label of the nearest core slice over all ``models`` (B,).

    One global model gives the global rule, one model per class the
    per-class rule.  Each call builds a model's side of the product once
    and takes one matrix product per model and state tensor: the squared
    distances in the expanded form |g|^2 + |c|^2 - 2 g'c, with the cores
    g and slices c centred on the model's mean slice, each within a
    rounding bound (``_rounding_coeff``).  A slice is a candidate for a
    sample when its distance's lower end lies below the least upper end
    over all slices of all models.  A sample whose candidates all carry
    one label takes it: that is the label of the exactly nearest slice.
    Only the other samples are scored, one at a time and over every slice
    of every model, by the direct differences of ``_distances``, which
    the ``classify_*_tensor`` rules report as scores, and take the label
    of the nearest; ties go to the earliest model, then the earliest
    slice.
    """
    return _nearest_labels([tops.as_tensor3(states)], models)[0]


def _nearest_labels(splits, models):
    """``nearest_core_labels`` of each validated state tensor in
    ``splits``: one ``_expand`` per model, which builds that model's
    side of the product once for all of them."""
    if not models:
        raise ValueError("need at least one model")
    labels = []
    for parts in zip(*[_expand(splits, m) for m in models]):
        d2 = np.vstack([p.d2 for p in parts])                # groups x B
        err = np.vstack([p.err for p in parts])
        group_labels = np.concatenate([p.labels for p in parts])
        candidate = d2 - err <= np.min(d2 + err, axis=0)
        split_labels = group_labels[np.argmax(candidate, axis=0)]
        undecided = np.any(candidate & (group_labels[:, None]
                                        != split_labels), axis=0)
        for row in np.flatnonzero(undecided):
            split_labels[row] = _direct_label(parts, models, row)
        labels.append(split_labels)
    return labels


def _own_slice_labels(model):
    """Global-rule labels of the samples ``model`` was fitted to, from
    core identity instead of a distance product.

    Valid only while each sample's core is its slice of ``model.core``
    bit for bit (``tucker._hooi_grid`` forms the core with ``_contract``,
    the product ``_project`` scores with).  By the tie rule a sample
    takes the label of the earliest slice equal to its own by value,
    -0.0 equal to +0.0.  Only slices that share their first coordinate
    are compared in full.
    """
    core = model.core.reshape(-1, model.core.shape[2])
    labels = np.array(model.slice_labels)
    first = core[0] + 0.0
    order = np.argsort(first, kind="stable")
    same = np.flatnonzero(np.diff(first[order]) == 0)
    if same.size:
        rows = np.unique(order[np.concatenate([same, same + 1])])
        _, head, inverse = np.unique(core[:, rows].T + 0.0, axis=0,
                                     return_index=True, return_inverse=True)
        labels[rows] = labels[rows[head]][inverse.ravel()]
    return labels


def _is_step(t):  # a bool is an int, but no time step
    return isinstance(t, (int, np.integer)) and not isinstance(t, bool)


def _readout_matrix(weights, states):
    """``states`` as a finite matrix with a row per readout column."""
    states = tops.as_matrix(states)
    if states.shape[0] != weights.w.shape[1]:
        raise ValueError(f"state matrix of shape {states.shape} does not "
                         f"match readout size {weights.w.shape[1]}")
    return states


def classify_pointwise(weights, states, t):
    """Classify time step ``t`` (1-based): the block rule over ``{t}``."""
    states = _readout_matrix(weights, states)
    if not (_is_step(t) and 1 <= t <= states.shape[1]):
        raise ValueError(f"t={t!r} outside the integers 1..{states.shape[1]}")
    return _argmax_prediction(
        block_scores(weights, states[:, [t - 1], None])[:, 0])


def classify_block(weights, states, omega=None):
    """Classify a whole state matrix by the summed score over ``omega``.

    ``omega`` is a collection of 1-based integer time steps; by default
    all of them.  ``omega = {T}`` reproduces single-endpoint sampling.
    """
    states = _readout_matrix(weights, states)
    n_steps = states.shape[1]
    if omega is None:
        idx = np.arange(n_steps)
    else:
        omega = list(omega)
        if not omega:
            raise ValueError("omega must be nonempty")
        if not all(_is_step(t) and 1 <= t <= n_steps for t in omega):
            raise ValueError(
                f"omega must lie within the integers 1..{n_steps}")
        idx = np.unique(omega) - 1
    return _argmax_prediction(
        block_scores(weights, states[:, idx, None])[:, 0])


def classify_global_tensor(states, model):
    """Nearest-core-slice rule under a single global Tucker-2 model.

    Projects the states into the model's bases and returns the class of
    the training slice whose core is closest, by ``nearest_core_labels``.
    ``scores`` holds the minimum distance per class, from direct
    differences.
    """
    states = tops.as_matrix(states)
    label = int(_nearest_labels([states[:, :, None]], [model])[0][0])
    dists = _distances(_project(states, model), model)
    class_ids = np.unique(model.slice_labels)
    per_class = np.array([dists[model.slice_labels == c].min()
                          for c in class_ids])
    return Prediction(label=label, scores=per_class, tie=_tied_min(dists))


def classify_perclass_tensor(states, models):
    """Nearest-core rule with one Tucker-2 model per class.

    For each class the states are projected into that class's own bases
    and compared against that class's core slices; the class with the
    smallest minimum distance wins, by ``nearest_core_labels``.
    ``scores`` holds each model's minimum distance, from direct
    differences.
    """
    states = tops.as_matrix(states)
    label = int(_nearest_labels([states[:, :, None]], models)[0][0])
    dists = np.array([_distances(_project(states, m), m).min()
                      for m in models])
    return Prediction(label=label, scores=dists, tie=_tied_min(dists))
