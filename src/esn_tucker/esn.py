"""Echo state network: weight generation and the leaky state recursion.

Only the readout of an ESN is ever trained; the input and reservoir
weights here are drawn once from a seeded RNG and frozen.  ``run``
drives the reservoir with a batch of B equal-length input signals
(L x T x B) and returns their states as the N x T x B tensor consumed
by the Tucker and readout trainers and the batch output rules; one
signal (L x T) gives its N x T state matrix.  ``run`` is the one-batch
case of ``_run``, which steps batches of one length side by side.
"""

import math
from dataclasses import dataclass

import numpy as np

ACTIVATIONS = {
    "tanh": np.tanh,
    "sin": np.sin,
    "identity": np.positive,
}

# a sparse draw can be nilpotent (spectral radius 0): at N = 4 and density
# 0.1 about half of them are, so 100 redraws all fail with odds near 1e-30
_REDRAW_LIMIT = 100


@dataclass(frozen=True)
class Reservoir:
    """Fixed ESN parameterization: weights, leaking rate, bias, activation."""

    w_in: np.ndarray   # (N, L)
    w_res: np.ndarray  # (N, N)
    alpha: float       # leaking rate in [0, 1]
    beta: float        # bias added inside the activation
    activation: str

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {self.activation!r}; "
                f"choose from {sorted(ACTIVATIONS)}"
            )
        n, l = self.w_in.shape
        if self.w_res.shape != (n, n):
            raise ValueError(
                f"w_res shape {self.w_res.shape} does not match N={n}"
            )

    @property
    def n_nodes(self):
        return self.w_in.shape[0]

    @property
    def n_inputs(self):
        return self.w_in.shape[1]


def make_reservoir(n_nodes, n_inputs, density=0.1, scale_in=1.0,
                   spectral_radius=0.95, alpha=1.0, beta=0.0,
                   activation="tanh", seed=0):
    """Draw a reservoir with sparse random recurrent weights.

    ``w_in`` entries are i.i.d. uniform on [-scale_in, scale_in].
    ``w_res`` gets ``ceil(density * N^2)`` nonzeros at uniformly chosen
    positions with values uniform on [-1, 1], then is rescaled so its
    spectral radius equals ``spectral_radius``.
    """
    if n_nodes < 1 or n_inputs < 1:
        raise ValueError("n_nodes and n_inputs must be positive")
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    if not 0 < spectral_radius < math.inf:
        raise ValueError(f"spectral_radius must be positive and finite, "
                         f"got {spectral_radius}")
    if not math.isfinite(scale_in):
        raise ValueError(f"scale_in must be finite, got {scale_in}")
    rng = np.random.default_rng(seed)
    w_in = rng.uniform(-scale_in, scale_in, size=(n_nodes, n_inputs))
    nnz = math.ceil(density * n_nodes * n_nodes)
    for _ in range(_REDRAW_LIMIT):
        w_res = np.zeros(n_nodes * n_nodes)
        pos = rng.choice(n_nodes * n_nodes, size=nnz, replace=False)
        w_res[pos] = rng.uniform(-1.0, 1.0, size=nnz)
        w_res = w_res.reshape(n_nodes, n_nodes)
        rho = float(np.max(np.abs(np.linalg.eigvals(w_res))))
        if rho > 0:
            w_res *= spectral_radius / rho
            return Reservoir(w_in=w_in, w_res=w_res, alpha=alpha, beta=beta,
                             activation=activation)
    raise RuntimeError(
        f"reservoir weight draw degenerated to spectral radius 0 in "
        f"{_REDRAW_LIMIT} attempts (N={n_nodes}, density={density})"
    )


def run(reservoir, a, x0=None):
    """Drive the reservoir with inputs ``a``; return the states.

    ``a`` is one input signal (L x T) or a batch of B signals of equal
    length (L x T x B); the states are C-ordered N x T or N x T x B to
    match.  Column t of a sample's states is
    ``(1 - alpha) * s_{t-1} + alpha * f(w_in a_t + w_res s_{t-1} + beta)``
    with ``s_0 = x0`` (zeros by default, shared by the batch); input
    column t drives state column t.

    This is the one-batch case of ``_run``: a few runs of steps are each
    given their drive ``w_in a_t + beta`` in one time-major buffer of
    N x B blocks, stepped in place and written back into the result.
    The leak is skipped at ``alpha = 1``.
    """
    (states,) = _run(reservoir, [a], x0=x0)
    return states.reshape((reservoir.n_nodes,) + np.shape(a)[1:])


# Runs per recursion, so that beside the results only one run's buffer
# is alive.  Set by peak RSS, MB for the 12 switching bench units in one
# process, by runs: 1 86.4, 2 75.0, 3 75.0, 4 75.0, 6 73.0, 10 72.3.
# The switching recursion takes the same time from 3 runs on (89 ms at
# N = 50), 2-8 % more at 1 and 2; 6 leaves runs of unequal length in
# the tests' 7 patterns, where 10 would step one pattern per run.
_RUNS = 6


def _run(reservoir, batches, seg=None, x0=None):
    """States of input batches of one length, stepped side by side.

    Each batch is L x T (B = 1) or L x T x B, of any width B.  ``seg``
    (dividing T) cuts one-row inputs into K = T // seg patterns, pattern
    k of sample b becoming sample ``k B + b`` of an N x seg x (K B)
    result; without it the result is N x T x B, the same memory as
    seg = 1 and K = T.  Runs of whole patterns are stepped in one
    time-major buffer and written back into the results.  With one input
    row each drive entry is the single product ``w_in[n] a_t``, formed
    with beta straight in the buffer; with L > 1 each result first holds
    its drive, in its own layout, from one matrix product per batch (a
    product per run could round it differently), and each run reads it
    into the buffer.  Step t works on one contiguous N x (sum of B)
    block, batch i in its columns ``cols[i]:cols[i + 1]``, so
    ``w_res @ s`` is one product, and each batch's states are bit for
    bit its columns of one ``run`` of the concatenated batches.
    """
    batches = [np.asarray(a, dtype=float) for a in batches]
    n, l = reservoir.w_in.shape
    for a in batches:
        if a.ndim not in (2, 3) or a.shape[0] != l:
            raise ValueError(f"input must have {l} rows, got shape {a.shape}")
        if a.size == 0:
            raise ValueError(f"input must be nonempty, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("input must be finite")
    if x0 is None:
        s = np.zeros((n, 1))
    else:
        s = np.asarray(x0, dtype=float)
        if s.shape != (n,):
            raise ValueError(f"x0 must have length {n}, got shape {s.shape}")
        if not np.all(np.isfinite(s)):
            raise ValueError("x0 must be finite")
        s = s[:, None]
    t = batches[0].shape[1]
    if seg and (l != 1 or t % seg):
        raise ValueError(f"only one-row inputs are cut, into whole "
                         f"patterns; got L = {l}, T = {t}, seg = {seg}")
    step = seg or 1
    k = t // step
    cols = np.cumsum([0] + [a.size // (l * t) for a in batches])
    w_in = reservoir.w_in
    if l == 1:
        # each drive entry is one exact product w_in[n] a_t, formed run by
        # run in the step buffer, so only the write-back fills the results
        outs = [np.empty((n, step, k) + a.shape[2:]) for a in batches]
    else:
        # N x step x K x B: for whole samples the input reshape is a view
        outs = [np.dot(w_in, a.reshape(l, k, step, -1)
                       .transpose(0, 2, 1, 3).reshape(l, -1))
                for a in batches]
    views = [out.reshape(n, step, k, -1).transpose(2, 1, 0, 3)
             for out in outs]              # K x step x N x B, time-major
    f = ACTIVATIONS[reservoir.activation]
    alpha = reservoir.alpha
    w_res = reservoir.w_res
    edges = np.linspace(0, k, min(_RUNS, k) + 1).astype(int)
    block = (n, cols[-1])
    buf = np.empty((np.diff(edges).max(), step) + block)
    # the next step's w_res s and (1 - alpha) s are formed as each step
    # ends, so no state outlives the run that wrote it into the buffer
    prod = w_res @ s
    leak = np.multiply(s, 1.0 - alpha) if alpha < 1.0 else None
    prod_buf, leak_buf = np.empty(block), np.empty(block)
    for lo, hi in zip(edges[:-1], edges[1:]):
        run_buf = buf[:hi - lo]
        parts = [run_buf[..., c0:c1] for c0, c1 in zip(cols[:-1], cols[1:])]
        for a, view, part in zip(batches, views, parts):
            if l == 1:
                np.multiply(w_in, a.reshape(k, step, 1, -1)[lo:hi], out=part)
            else:
                part[...] = view[lo:hi]
        run_buf += reservoir.beta
        for z in run_buf.reshape((-1,) + block):
            z += prod
            f(z, out=z)
            if leak is not None:
                z *= alpha
                z += leak
                leak = np.multiply(z, 1.0 - alpha, out=leak_buf)
            prod = np.matmul(w_res, z, out=prod_buf)
        for view, part in zip(views, parts):
            view[lo:hi] = part
    return [out.reshape(n, seg or t, -1) for out in outs]
