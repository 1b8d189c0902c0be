"""Echo state network: weight generation and the leaky state recursion.

Only the readout of an ESN is ever trained; the input and reservoir
weights here are drawn once from a seeded RNG and frozen.  ``run``
drives the reservoir with a batch of B equal-length input signals
(L x T x B) and returns their states as the N x T x B tensor consumed
by the Tucker and readout trainers and the batch output rules; one
signal (L x T) gives its N x T state matrix.
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
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
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
    if spectral_radius <= 0:
        raise ValueError(f"spectral_radius must be positive, got "
                         f"{spectral_radius}")
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
                             activation=activation, seed=seed)
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

    The recursion runs time-major and in place: one contiguous T x N x B
    buffer starts as the drive ``w_in a_t + beta`` and each step
    overwrites its own N x B block with that step's state; the leak is
    skipped at ``alpha = 1``.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim not in (2, 3) or a.shape[0] != reservoir.n_inputs:
        raise ValueError(
            f"input must have {reservoir.n_inputs} rows, got shape {a.shape}"
        )
    if a.size == 0:
        raise ValueError(f"input must be nonempty, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("input must be finite")
    n = reservoir.n_nodes
    if x0 is None:
        s = np.zeros((n, 1))
    else:
        s = np.asarray(x0, dtype=float)
        if s.shape != (n,):
            raise ValueError(f"x0 must have length {n}, got shape {s.shape}")
        if not np.all(np.isfinite(s)):
            raise ValueError("x0 must be finite")
        s = s[:, None]
    f = ACTIVATIONS[reservoir.activation]
    alpha = reservoir.alpha
    w_res = reservoir.w_res
    batch = a.reshape(a.shape[0], a.shape[1], -1)                # L x T x B
    states = np.ascontiguousarray(                               # T x N x B
        np.tensordot(reservoir.w_in, batch, axes=1).transpose(1, 0, 2))
    states += reservoir.beta
    held = np.empty(states.shape[1:]) if alpha < 1.0 else None
    for z in states:
        z += w_res @ s
        f(z, out=z)
        if held is not None:
            z *= alpha
            z += np.multiply(s, 1.0 - alpha, out=held)
        s = z
    states = np.ascontiguousarray(states.transpose(1, 0, 2))
    return states.reshape((n,) + a.shape[1:])


def save_reservoir(reservoir, path):
    """Serialize a Reservoir to an ``.npz`` container (lossless)."""
    np.savez(
        path,
        w_in=reservoir.w_in,
        w_res=reservoir.w_res,
        alpha=np.array(reservoir.alpha),
        beta=np.array(reservoir.beta),
        activation=np.array(reservoir.activation),
        seed=np.array(reservoir.seed),
    )


def load_reservoir(path):
    """Inverse of :func:`save_reservoir`."""
    with np.load(path) as d:
        return Reservoir(
            w_in=d["w_in"],
            w_res=d["w_res"],
            alpha=float(d["alpha"]),
            beta=float(d["beta"]),
            activation=str(d["activation"]),
            seed=int(d["seed"]),
        )
