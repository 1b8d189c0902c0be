"""The public entry points reject non-finite and wrongly shaped arrays.

Each validates each of its array arguments once, through
``tensor_ops.as_tensor3`` or ``tensor_ops.as_matrix``, before any
arithmetic.
"""

import numpy as np
import pytest

from esn_tucker import numlin, tensor_ops
from esn_tucker.classify import (OutputWeights, classify_block,
                                 classify_global_tensor,
                                 classify_perclass_tensor,
                                 classify_pointwise, nearest_core_labels,
                                 train_output_weights)
from esn_tucker.numlin import ridge_solve
from esn_tucker.tucker import fit_per_class, hooi, hooi_grid, project_core

_RNG = np.random.default_rng(0)
X = _RNG.normal(size=(4, 5, 3))                       # N x T x B states
MODEL = hooi(X, (2, 2))
WEIGHTS = OutputWeights(w=_RNG.normal(size=(2, 4)), ridge_lambda=0.0)

# entry -> (call on the array under test, a valid array for it)
ENTRIES = {
    "hooi": (lambda a: hooi(a, (2, 2)), X),
    "hooi_grid": (lambda a: hooi_grid(a, [(2, 2), (2, 3)]), X),
    "fit_per_class": (lambda a: fit_per_class(a, [(2, 2)], [1, 2, 1]), X),
    "project_core": (lambda a: project_core(a, MODEL), X[:, :, 0]),
    "ridge_solve": (lambda a: ridge_solve(a, np.ones((2, 5)), 0.1),
                    X[:, :, 0]),
    "train_output_weights": (lambda a: train_output_weights(a, [1, 2, 1]),
                             X),
    "nearest_core_labels": (lambda a: nearest_core_labels(a, [MODEL]), X),
    "classify_block": (lambda a: classify_block(WEIGHTS, a), X[:, :, 0]),
    "classify_pointwise": (lambda a: classify_pointwise(WEIGHTS, a, 2),
                           X[:, :, 0]),
    "classify_global_tensor": (lambda a: classify_global_tensor(a, MODEL),
                               X[:, :, 0]),
    "classify_perclass_tensor": (
        lambda a: classify_perclass_tensor(a, [MODEL]), X[:, :, 0]),
}
# array arguments of each entry, where it has more than the one under test
ARRAYS = {"ridge_solve": 2}


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


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_one_validator_pass_per_array(entry, monkeypatch):
    passes = []
    # numlin binds as_matrix by name, so that name is counted on its own
    for module, name in [(tensor_ops, "as_tensor3"),
                         (tensor_ops, "as_matrix"), (numlin, "as_matrix")]:
        check = getattr(module, name)
        monkeypatch.setattr(module, name, lambda a, check=check:
                            passes.append(1) or check(a))
    call, good = ENTRIES[entry]
    call(good)
    assert len(passes) == ARRAYS.get(entry, 1)


# entry -> call with the labels under test, on X's three slices
LABEL_ENTRIES = {
    "hooi": lambda labels: hooi(X, (2, 2), labels),
    "hooi_grid": lambda labels: hooi_grid(X, [(2, 2), (2, 3)], labels),
    "fit_per_class": lambda labels: fit_per_class(X, [(1, 1)], labels),
    "train_output_weights": lambda labels: train_output_weights(X, labels),
}


@pytest.mark.parametrize("labels", [
    [1, 2.5, 1], [1, 2, np.nan], [1, np.inf, 2], [True, False, True],
    ["1", "2", "1"]], ids=["fraction", "nan", "inf", "bool", "str"])
@pytest.mark.parametrize("entry", sorted(LABEL_ENTRIES))
def test_rejects_non_integral_labels(entry, labels):
    # np.asarray(labels, dtype=int) would truncate 2.5 to 2 and take
    # True as 1
    kind = "sample" if entry == "train_output_weights" else "slice"
    with pytest.raises(ValueError, match=f"{kind} labels must be integers"):
        LABEL_ENTRIES[entry](labels)


@pytest.mark.parametrize("entry", sorted(LABEL_ENTRIES))
def test_integral_float_labels_accepted(entry):
    LABEL_ENTRIES[entry](np.array([1.0, 2.0, 1.0]))


@pytest.mark.parametrize("labels", [[3, 1, 2], np.array([3, 1, 2], np.uint8),
                                    [3.0, 1.0, 2.0], np.array([-0.0, 1, 2])])
def test_labels_become_int_ids(labels):
    ids = tensor_ops.as_labels(labels, 3, "slice")
    assert ids.dtype == int
    np.testing.assert_array_equal(ids, np.asarray(labels, dtype=int))
