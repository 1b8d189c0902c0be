"""Input validators for the public entry points.

``as_tensor3`` and ``as_matrix`` return their argument as a finite
float array of the stated order, or raise ``ValueError``.  Each exported
function that takes an array passes it through one of them once, then
calls an unchecked private core.
"""

import numpy as np


def as_tensor3(values):
    """Validate and return ``values`` as a finite 3-D float array."""
    t = np.asarray(values, dtype=float)
    if t.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={t.ndim}")
    if not np.all(np.isfinite(t)):
        raise ValueError("tensor entries must be finite")
    return t


def as_matrix(values):
    """Validate and return ``values`` as a finite 2-D float array."""
    m = np.asarray(values, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m
