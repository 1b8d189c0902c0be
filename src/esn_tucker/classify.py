"""Output layers: trained linear readout rules and nearest-core rules.

Every rule scores B state matrices held as one N x T x B tensor, the
layout ``esn.run`` returns.  The readout family scores state columns
(or each sample's summed columns) through a ridge-trained weight matrix
and takes the argmax.  The tensor family projects each state matrix
into fitted Tucker-2 bases and picks the class of the nearest core
slice in Frobenius norm.  The ``classify_*`` functions apply the same
rules to one N x T matrix and return a Prediction with score detail.

Class ids are 1-based throughout.  Ties break toward the lowest class
id (or lowest slice index) and set the ``tie`` flag.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor_ops as tops
from .numlin import ridge_solve
from .tucker import project_core

_TIE_REL = 1e-12  # scores this close (relative) count as tied
_DIST_BLOCK = 64  # samples per matrix product in core_distances
# squared distances below this share of |g|^2 + |c|^2 are recomputed
# from differences: the expanded form's relative error there grows to
# about eps / share
_CANCEL_REL = 1e-6


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


def _argmin_prediction(dists):
    dists = np.asarray(dists, dtype=float)
    best = int(np.argmin(dists))
    tol = _TIE_REL * max(1.0, float(np.max(np.abs(dists))))
    tie = int(np.sum(dists <= dists[best] + tol)) > 1
    return best, tie


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


def core_distances(states, model):
    """Frobenius distance of each sample's core to every core slice (B x M).

    With g and the slices c centred on the model's mean slice, the
    squared distance |g|^2 + |c|^2 - 2 g'c takes one matrix product per
    block of ``_DIST_BLOCK`` samples.  Entries at most ``_CANCEL_REL``
    times |g|^2 + |c|^2, where that sum cancels and loses its digits, are
    formed again from direct differences of the uncentred cores.
    """
    g = project_core(states, model)
    g = g.reshape(-1, g.shape[2]).T                       # B x (J1 J2)
    core = model.core.reshape(-1, model.n_slices)         # (J1 J2) x M
    mu = core.mean(axis=1)
    g_c, core_c = g - mu, core - mu[:, None]
    g_sq = np.sum(g_c ** 2, axis=1)
    core_sq = np.sum(core_c ** 2, axis=0)
    d2 = np.empty((g.shape[0], core.shape[1]))
    for lo in range(0, g.shape[0], _DIST_BLOCK):
        hi = lo + _DIST_BLOCK
        scale = g_sq[lo:hi, None] + core_sq
        d2[lo:hi] = scale - 2.0 * (g_c[lo:hi] @ core_c)
        rows, cols = np.nonzero(d2[lo:hi] <= _CANCEL_REL * scale)
        rows += lo
        d2[rows, cols] = np.sum((g[rows] - core[:, cols].T) ** 2, axis=1)
    return np.sqrt(d2)


def nearest_core_labels(states, models):
    """Label of the nearest core slice over all ``models`` (B,).

    One global model gives the global rule, one model per class the
    per-class rule.  Ties go to the earliest model and slice.
    """
    dists = np.hstack([core_distances(states, m) for m in models])
    labels = np.concatenate([m.slice_labels for m in models])
    return labels[np.argmin(dists, axis=1)]


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


def classify_global_tensor(states, model):
    """Nearest-core-slice rule under a single global Tucker-2 model.

    Projects the states into the model's bases and returns the class of
    the training slice whose core is closest.  ``scores`` holds the
    minimum distance per class.
    """
    dists = core_distances(tops.as_matrix(states)[:, :, None], model)[0]
    best, tie = _argmin_prediction(dists)
    label = int(model.slice_labels[best])
    class_ids = np.unique(model.slice_labels)
    per_class = np.array([dists[model.slice_labels == c].min()
                          for c in class_ids])
    return Prediction(label=label, scores=per_class, tie=tie)


def classify_perclass_tensor(states, models):
    """Nearest-core rule with one Tucker-2 model per class.

    For each class the states are projected into that class's own bases
    and compared against that class's core slices; the class with the
    smallest minimum distance wins.
    """
    if not models:
        raise ValueError("need at least one per-class model")
    states = tops.as_matrix(states)[:, :, None]
    dists = np.array([core_distances(states, m).min() for m in models])
    best, tie = _argmin_prediction(dists)
    label = int(models[best].slice_labels[0])
    return Prediction(label=label, scores=dists, tie=tie)

