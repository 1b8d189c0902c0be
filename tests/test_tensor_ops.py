"""The public entry points reject non-finite and wrongly shaped arrays.

Each validates its array argument once, through ``tensor_ops.as_tensor3``
or ``tensor_ops.as_matrix``, before any arithmetic.
"""

import numpy as np
import pytest

from esn_tucker.classify import (OutputWeights, classify_block,
                                 nearest_core_labels, train_output_weights)
from esn_tucker.numlin import ridge_solve
from esn_tucker.tucker import hooi, project_core

_RNG = np.random.default_rng(0)
X = _RNG.normal(size=(4, 5, 3))                       # N x T x B states
MODEL = hooi(X, (2, 2))
WEIGHTS = OutputWeights(w=_RNG.normal(size=(2, 4)), ridge_lambda=0.0)

# entry -> (call on the array under test, a valid array for it)
ENTRIES = {
    "hooi": (lambda a: hooi(a, (2, 2)), X),
    "project_core": (lambda a: project_core(a, MODEL), X[:, :, 0]),
    "ridge_solve": (lambda a: ridge_solve(a, np.ones((2, 5)), 0.1),
                    X[:, :, 0]),
    "train_output_weights": (lambda a: train_output_weights(a, [1, 2, 1]),
                             X),
    "nearest_core_labels": (lambda a: nearest_core_labels(a, [MODEL]), X),
    "classify_block": (lambda a: classify_block(WEIGHTS, a), X[:, :, 0]),
}


def with_entry(a, value):
    a = a.copy()
    a.flat[a.size // 2] = value
    return a


# defect -> (corrupt a valid array, the error it must raise)
DEFECTS = {
    "nan": (lambda a: with_entry(a, np.nan), "finite"),
    "inf": (lambda a: with_entry(a, -np.inf), "finite"),
    "ndim": (lambda a: a[0], "ndim"),                  # one axis fewer
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_valid_array_accepted(entry):
    call, good = ENTRIES[entry]
    call(good)


@pytest.mark.parametrize("defect", sorted(DEFECTS))
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_rejects_bad_array(entry, defect):
    call, good = ENTRIES[entry]
    corrupt, message = DEFECTS[defect]
    with pytest.raises(ValueError, match=message):
        call(corrupt(good))
