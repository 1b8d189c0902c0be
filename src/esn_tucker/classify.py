"""Output layers: trained linear readout rules and nearest-core rules.

Every rule scores B state matrices held as one N x T x B tensor, the
layout ``esn.run`` returns.  The readout family scores state columns
(or each sample's summed columns) through a ridge-trained weight matrix
and takes the argmax.  The tensor family projects each state matrix
into fitted Tucker-2 bases and picks the class of the nearest core
slice in Frobenius norm.  It decides that label from squared distances
in the expanded form, one matrix product per model, each with a
rounding bound; only a sample whose nearest slice the bounds leave
open between labels is scored again by direct differences.  The
``classify_*`` functions apply the same rules to one N x T matrix and
return a Prediction with score detail; their tensor-rule scores come
from direct differences.

Class ids are 1-based throughout.  Readout ties break toward the
lowest class id, nearest-core ties toward the earliest model, then the
earliest slice; either sets the ``tie`` flag.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tensor_ops as tops
from .numlin import ridge_solve
from .tucker import _project

_TIE_REL = 1e-12  # scores this close (relative) count as tied
_UNDECIDED_BLOCK = 64  # undecided samples differenced at a time


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
    """Whether another distance lies within ``_TIE_REL`` of the least."""
    tol = _TIE_REL * max(1.0, float(np.max(np.abs(dists))))
    return int(np.sum(dists <= np.min(dists) + tol)) > 1


def train_output_weights(x, labels, ridge_lambda=0.0, n_classes=None):
    """Train the readout on a state tensor ``x`` (N x T x B) of labeled
    samples.

    The tensor is unfolded to [sample_1 | ... | sample_B] and paired with
    an indicator matrix whose column (b-1)T + t is the basis vector of
    sample b's label: every time step inherits its sample's label.
    """
    x = tops.as_tensor3(x)
    n, t, b = x.shape
    labels = np.asarray(labels, dtype=int)
    if labels.shape != (b,):
        raise ValueError(f"expected {b} sample labels, got "
                         f"shape {labels.shape}")
    if n_classes is None:
        n_classes = int(labels.max())
    if labels.min() < 1 or labels.max() > n_classes:
        raise ValueError("labels must lie in 1..n_classes")

    x3 = x.transpose(0, 2, 1).reshape(n, -1)     # N x (T B), sample b then t
    y = np.zeros((n_classes, t * b))
    y[np.repeat(labels, t) - 1, np.arange(t * b)] = 1.0
    w = ridge_solve(x3, y, ridge_lambda)
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


def _expand(x, model):
    """Squared distances of the cores of ``x`` to the slices of ``model``,
    from one matrix product, with a rounding bound per label group."""
    k = model.core.shape[0] * model.core.shape[1]
    core = model.core.reshape(k, -1)
    slice_labels = np.asarray(model.slice_labels)
    order = np.argsort(slice_labels, kind="stable")
    group_labels, starts, counts = np.unique(
        slice_labels[order], return_index=True, return_counts=True)
    stops = starts + counts
    mu = core.mean(axis=1)
    g = _project(x, model).reshape(k, -1)
    # one product gives |c|^2 - 2 g'c: the centred cores gain a row of
    # ones, the centred slices (scaled by -2, exactly) a column of |c|^2
    lhs = np.empty((k + 1, g.shape[1]))
    np.subtract(g, mu[:, None], out=lhs[:k])
    lhs[k] = 1.0
    rhs = np.empty((order.size, k + 1))
    np.subtract(core.T[order], mu, out=rhs[:, :k])
    c_sq = np.einsum("ij,ij->i", rhs[:, :k], rhs[:, :k])
    rhs[:, :k] *= -2.0
    rhs[:, k] = c_sq
    e = rhs @ lhs
    g_sq = np.einsum("ij,ij->j", lhs[:k], lhs[:k])
    d2 = g_sq + np.array([e[a:b].min(axis=0) for a, b in zip(starts, stops)])
    c_max = np.sqrt([c_sq[a:b].max() for a, b in zip(starts, stops)])
    err = _rounding_coeff(k + 1) * (np.sqrt(g_sq) + c_max[:, None]) ** 2
    return _Expanded(g=g, order=order,
                     group=np.repeat(np.arange(group_labels.size), counts),
                     e=e, g_sq=g_sq, d2=d2, err=err, labels=group_labels)


def _direct_labels(parts, models, rows, upper):
    """Nearest-slice labels of ``rows`` from direct differences of the
    uncentred cores, over the slices whose lower end lies below
    ``upper``; ties go to the earliest model, then the earliest slice."""
    dists = []
    for p, model in zip(parts, models):
        lower = p.e[:, rows] + p.g_sq[rows] - p.err[:, rows][p.group]
        j, r = np.nonzero(lower <= upper)
        slices = p.order[j]
        core = model.core.reshape(p.g.shape[0], -1)
        d = np.full(lower.shape, np.inf)
        d[slices, r] = np.sum((p.g[:, rows[r]] - core[:, slices]) ** 2,
                              axis=0)
        dists.append(d)
    slice_labels = np.concatenate([m.slice_labels for m in models])
    return slice_labels[np.argmin(np.vstack(dists), axis=0)]


def nearest_core_labels(states, models):
    """Label of the nearest core slice over all ``models`` (B,).

    One global model gives the global rule, one model per class the
    per-class rule.  Each model's squared distances come from one matrix
    product in the expanded form |g|^2 + |c|^2 - 2 g'c, with the cores g
    and slices c centred on the model's mean slice, each within a
    rounding bound (``_rounding_coeff``).  A slice is a candidate for a
    sample when its distance's lower end lies below the least upper end
    over all slices of all models.  A sample whose candidates all carry
    one label takes it: that is the label of the exactly nearest slice.
    Only the other samples are scored by direct differences, on their
    candidate slices, and take the label of the nearest; ties go to the
    earliest model, then the earliest slice.
    """
    if not models:
        raise ValueError("need at least one model")
    x = tops.as_tensor3(states)
    parts = [_expand(x, m) for m in models]
    d2 = np.vstack([p.d2 for p in parts])                # groups x B
    err = np.vstack([p.err for p in parts])
    group_labels = np.concatenate([p.labels for p in parts])
    upper = np.min(d2 + err, axis=0)
    candidate = d2 - err <= upper
    labels = group_labels[np.argmax(candidate, axis=0)]
    undecided = np.flatnonzero(
        np.any(candidate & (group_labels[:, None] != labels), axis=0))
    for lo in range(0, undecided.size, _UNDECIDED_BLOCK):
        rows = undecided[lo:lo + _UNDECIDED_BLOCK]
        labels[rows] = _direct_labels(parts, models, rows, upper[rows])
    return labels


def classify_pointwise(weights, states, t):
    """Classify time step ``t`` (1-based): the block rule over ``{t}``."""
    states = tops.as_matrix(states)
    if not 1 <= t <= states.shape[1]:
        raise ValueError(f"t={t} outside 1..{states.shape[1]}")
    return classify_block(weights, states, omega=[t])


def classify_block(weights, states, omega=None):
    """Classify a whole state matrix by the summed score over ``omega``.

    ``omega`` is a collection of 1-based time steps; by default all of
    them.  ``omega = {T}`` reproduces single-endpoint sampling.
    """
    states = tops.as_matrix(states)
    n_steps = states.shape[1]
    if omega is None:
        idx = np.arange(n_steps)
    else:
        omega = sorted(set(int(t) for t in omega))
        if not omega:
            raise ValueError("omega must be nonempty")
        if omega[0] < 1 or omega[-1] > n_steps:
            raise ValueError(f"omega must lie within 1..{n_steps}")
        idx = np.asarray(omega) - 1
    return _argmax_prediction(
        block_scores(weights, states[:, idx, None])[:, 0])


def _slice_distances(states, model):
    """Distances of one state matrix's core to every slice of ``model``,
    by direct differences."""
    g = _project(states, model)
    return np.sqrt(np.sum((model.core - g[:, :, None]) ** 2, axis=(0, 1)))


def classify_global_tensor(states, model):
    """Nearest-core-slice rule under a single global Tucker-2 model.

    Projects the states into the model's bases and returns the class of
    the training slice whose core is closest, by ``nearest_core_labels``.
    ``scores`` holds the minimum distance per class, from direct
    differences.
    """
    states = tops.as_matrix(states)
    label = int(nearest_core_labels(states[:, :, None], [model])[0])
    dists = _slice_distances(states, model)
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
    if not models:
        raise ValueError("need at least one per-class model")
    states = tops.as_matrix(states)
    label = int(nearest_core_labels(states[:, :, None], models)[0])
    dists = np.array([_slice_distances(states, m).min() for m in models])
    return Prediction(label=label, scores=dists, tie=_tied_min(dists))
