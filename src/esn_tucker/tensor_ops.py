"""Input validators for the public entry points.

``as_tensor3`` and ``as_matrix`` return their argument as a finite
float array of the stated order, or raise ``ValueError``.  Each exported
function that takes an array passes it through one of them once, then
calls an unchecked private core.  ``as_labels`` returns class ids as
integers, or raises; the cores that take labels call it.
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


def as_labels(values, count, kind):
    """Validate and return ``values`` as ``count`` integer class ids.

    Integers and integral floats are accepted; fractional, non-finite
    and bool values are not, so no label is silently truncated.
    ``kind`` names the labelled items in the error, as "slice" or
    "sample".
    """
    a = np.asarray(values)
    if a.shape != (count,):
        raise ValueError(f"expected {count} {kind} labels, got shape "
                         f"{a.shape}")
    if not (a.dtype.kind in "iu" or a.dtype.kind == "f"
            and np.all(np.isfinite(a)) and np.all(a == np.trunc(a))):
        raise ValueError(f"{kind} labels must be integers or integral "
                         f"floats, not bool, fractional or non-finite")
    return a.astype(int)
