from dataclasses import replace

import numpy as np
import pytest

from esn_tucker import classify, tucker
from esn_tucker.classify import (OutputWeights, train_output_weights,
                                 classify_pointwise, classify_block,
                                 classify_global_tensor,
                                 classify_perclass_tensor)
from esn_tucker.tucker import (TuckerModel, hooi, fit_per_class,
                               project_core)


def orthogonal_class_tensor():
    """Three slices whose columns are scaled basis vectors: slice j of
    class j puts weight only on coordinate j, so the exact readout is a
    scaled identity."""
    x = np.zeros((3, 4, 3))
    for j in range(3):
        x[j, :, j] = 1.0
    return x


class TestTrainOutputWeights:
    def test_separable_system_recovers_indicator(self):
        x = orthogonal_class_tensor()
        weights = train_output_weights(x, [1, 2, 3])
        np.testing.assert_allclose(weights.w, np.eye(3), atol=1e-10)

    def test_huge_lambda_shrinks_weights(self):
        x = orthogonal_class_tensor()
        w = train_output_weights(x, [1, 2, 3], ridge_lambda=1e12).w
        assert np.linalg.norm(w) < 1e-10

    def test_class_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 6, 4))
        a = train_output_weights(x, [1, 2, 1, 2], ridge_lambda=0.1)
        b = train_output_weights(x, [2, 1, 2, 1], ridge_lambda=0.1)
        np.testing.assert_allclose(a.w, b.w[::-1], atol=1e-10)

    def test_label_range_checked(self):
        x = np.zeros((2, 3, 2))
        with pytest.raises(ValueError, match="1..n_classes"):
            train_output_weights(x, [0, 1], ridge_lambda=1.0)
        with pytest.raises(ValueError, match="sample labels"):
            train_output_weights(x, [1, 2, 1], ridge_lambda=1.0)

    def test_readout_shape_validation(self):
        with pytest.raises(ValueError, match="K >= 2"):
            OutputWeights(w=np.ones((1, 4)), ridge_lambda=0.0)
        with pytest.raises(ValueError, match="finite"):
            OutputWeights(w=np.full((2, 3), np.inf), ridge_lambda=0.0)


class TestPointwiseAndBlock:
    def setup_method(self):
        self.weights = OutputWeights(w=np.eye(3), ridge_lambda=0.0)

    def test_pointwise_picks_largest_coordinate(self):
        states = np.array([[0.1, 0.9],
                           [0.8, 0.1],
                           [0.2, 0.3]])
        assert classify_pointwise(self.weights, states, 1).label == 2
        assert classify_pointwise(self.weights, states, 2).label == 1

    def test_pointwise_t_is_one_based(self):
        states = np.eye(3)
        with pytest.raises(ValueError, match="outside"):
            classify_pointwise(self.weights, states, 0)
        with pytest.raises(ValueError, match="outside"):
            classify_pointwise(self.weights, states, 4)

    def test_block_sums_scores_over_window(self):
        # per-step argmax votes 2-1 for class 1, but the summed score
        # favors class 2 - the block rule is not a majority vote
        states = np.array([[0.0, 0.0, 3.0],
                           [0.4, 0.4, 0.0],
                           [0.0, 0.0, 0.0]])
        assert classify_block(self.weights, states).label == 1
        votes = [classify_pointwise(self.weights, states, t).label
                 for t in (1, 2, 3)]
        assert votes == [2, 2, 1]

    def test_singleton_omega_equals_pointwise(self):
        rng = np.random.default_rng(1)
        states = rng.normal(size=(3, 7))
        for t in (1, 4, 7):
            assert (classify_block(self.weights, states, omega=[t]).label
                    == classify_pointwise(self.weights, states, t).label)

    def test_omega_validation(self):
        states = np.zeros((3, 4))
        with pytest.raises(ValueError, match="within"):
            classify_block(self.weights, states, omega=[0])
        with pytest.raises(ValueError, match="within"):
            classify_block(self.weights, states, omega=[5])
        with pytest.raises(ValueError, match="nonempty"):
            classify_block(self.weights, states, omega=[])

    def test_tie_flagged(self):
        states = np.array([[1.0], [1.0], [0.0]])
        pred = classify_pointwise(self.weights, states, 1)
        assert pred.tie
        assert pred.label == 1  # lowest id wins the tie


class TestTensorRules:
    def make_training_tensor(self):
        rng = np.random.default_rng(0)
        slices = [rng.normal(size=(6, 8)) + 3.0 * (j % 2) for j in range(6)]
        labels = [1, 2, 1, 2, 1, 2]
        return np.stack(slices, axis=2), labels, slices

    def test_training_samples_self_classify_global(self):
        x, labels, slices = self.make_training_tensor()
        model = hooi(x, (6, 8), labels=labels)
        for mat, lab in zip(slices, labels):
            pred = classify_global_tensor(mat, model)
            assert pred.label == lab
            assert min(pred.scores) < 1e-8  # its own core is distance 0

    def test_training_samples_self_classify_perclass(self):
        x, labels, slices = self.make_training_tensor()
        labels = np.asarray(labels)
        class_tensors = [x[:, :, labels == k] for k in (1, 2)]
        models = fit_per_class(class_tensors, (6, 8), class_ids=[1, 2])
        for mat, lab in zip(slices, labels):
            assert classify_perclass_tensor(mat, models).label == lab

    def test_global_scores_are_per_class_minima(self):
        x, labels, _ = self.make_training_tensor()
        model = hooi(x, (3, 4), labels=labels)
        probe = np.random.default_rng(1).normal(size=(6, 8))
        pred = classify_global_tensor(probe, model)
        assert pred.scores.shape == (2,)
        assert pred.label == int(np.argmin(pred.scores)) + 1

    def test_single_slice_model(self):
        x = np.random.default_rng(2).normal(size=(4, 5, 1))
        model = hooi(x, (2, 2), labels=[3])
        pred = classify_global_tensor(x[:, :, 0], model)
        assert pred.label == 3

    def test_slice_order_invariance_global(self, monkeypatch):
        x, labels, _ = self.make_training_tensor()
        perm = [5, 3, 1, 4, 2, 0]
        monkeypatch.setattr(tucker, "TOL", 1e-12)
        model_a = hooi(x, (3, 4), labels=labels)
        model_b = hooi(x[:, :, perm], (3, 4),
                       labels=[labels[p] for p in perm])
        probe = np.random.default_rng(3).normal(size=(6, 8))
        a = classify_global_tensor(probe, model_a)
        b = classify_global_tensor(probe, model_b)
        assert a.label == b.label
        np.testing.assert_allclose(a.scores, b.scores, atol=1e-6)

    def test_perclass_requires_models(self):
        with pytest.raises(ValueError, match="at least one"):
            classify_perclass_tensor(np.zeros((2, 2)), [])


def direct_core_distances(states, model):
    """Reference: direct differences, one sample at a time."""
    g = project_core(states, model)
    g = g.reshape(-1, g.shape[2]).T
    core = model.core.reshape(-1, model.n_slices)
    return np.array([np.sqrt(np.sum((core - gb[:, None]) ** 2, axis=0))
                     for gb in g])


def direct_labels(states, models):
    """Reference: the label of the earliest nearest slice, by direct
    differences over the models' slices in order."""
    dists = np.hstack([direct_core_distances(states, m) for m in models])
    labels = np.concatenate([m.slice_labels for m in models])
    return labels[np.argmin(dists, axis=1)]


def per_class_minima(dists, model):
    return np.array([dists[model.slice_labels == c].min()
                     for c in np.unique(model.slice_labels)])


@pytest.fixture
def undecided(monkeypatch):
    """The samples that take the direct-difference path, in call order."""
    rows = []
    direct = classify._direct_labels

    def spy(parts, models, block, upper):
        rows.extend(block.tolist())
        return direct(parts, models, block, upper)

    monkeypatch.setattr(classify, "_direct_labels", spy)
    return rows


def identity_model(slices, labels):
    """A model whose bases are identities, so each core is its state
    matrix exactly; ``slices`` are flattened 2 x 2 slices."""
    core = np.asarray(slices, dtype=float).T.reshape(2, 2, -1)
    return TuckerModel(u=np.eye(2), v=np.eye(2), core=core,
                       slice_labels=np.asarray(labels), ranks=(2, 2),
                       converged=True, iterations=1)


class TestNearestCoreLabels:
    def make_model(self):
        x = np.random.default_rng(11).normal(size=(6, 8, 9))
        labels = np.arange(1, 10)
        return x, labels, hooi(x, (3, 4), labels=labels)

    def test_matches_direct_differences_across_blocks(self, undecided):
        _, _, model = self.make_model()
        b = 2 * classify._UNDECIDED_BLOCK + 5
        states = np.random.default_rng(12).normal(size=(6, 8, b))
        want = direct_labels(states, [model])
        np.testing.assert_array_equal(
            classify.nearest_core_labels(states, [model]), want)
        assert undecided == []
        # the same slices again under other labels leave every sample
        # undecided, in three blocks; the earlier model wins each tie
        twin = replace(model, slice_labels=model.slice_labels % 9 + 1)
        np.testing.assert_array_equal(
            classify.nearest_core_labels(states, [model, twin]), want)
        assert undecided == list(range(b))
        for i in (0, 70, b - 1):
            pred = classify_global_tensor(states[:, :, i], model)
            assert pred.label == want[i]
            dists = direct_core_distances(states[:, :, i:i + 1], model)[0]
            np.testing.assert_allclose(
                pred.scores, per_class_minima(dists, model), rtol=1e-10)

    def test_sample_equal_to_slice_is_at_zero(self):
        x, labels, model = self.make_model()
        np.testing.assert_array_equal(
            classify.nearest_core_labels(x, [model]), labels)
        scale = np.linalg.norm(model.core)
        for j, lab in enumerate(labels):
            pred = classify_global_tensor(x[:, :, j], model)
            assert pred.label == lab
            assert pred.scores[j] < 1e-12 * scale
            dists = direct_core_distances(x[:, :, j:j + 1], model)[0]
            np.testing.assert_allclose(pred.scores, dists, rtol=1e-10,
                                       atol=1e-12 * scale)

    def test_slice_perturbed_by_tiny_amount(self):
        x, labels, model = self.make_model()
        rng = np.random.default_rng(13)
        states = x[:, :, :3] + 1e-9 * rng.normal(size=(6, 8, 3))
        want = direct_core_distances(states, model)
        assert np.all(np.diag(want) < 1e-8)
        np.testing.assert_array_equal(
            classify.nearest_core_labels(states, [model]), labels[:3])
        for j in range(3):
            pred = classify_global_tensor(states[:, :, j], model)
            assert pred.label == labels[j]
            np.testing.assert_allclose(pred.scores, want[j], rtol=1e-10)

    def test_requires_models(self):
        with pytest.raises(ValueError, match="at least one"):
            classify.nearest_core_labels(np.zeros((2, 2, 1)), [])


class TestDecisionPath:
    # two slices about 1e-9 apart, far closer than the rounding bound of
    # distances to them, which the far slice keeps at about 1e-10
    NEAR = ([1.0, 0.0, 0.0, 0.0], [1.0, 2e-9, 0.0, 0.0])
    FAR = [-100.0, 50.0, 30.0, 7.0]
    STATE = np.array([[1.0, 1.1e-9], [0.0, 0.0]])  # nearer the second

    @pytest.mark.parametrize("labels, want", [((1, 2), 2), ((2, 1), 1)])
    def test_near_tie_takes_direct_differences_global(self, undecided,
                                                      labels, want):
        model = identity_model([*self.NEAR, self.FAR], [*labels, 1])
        parts = classify._expand(self.STATE[:, :, None], model)
        near = np.argsort(parts.order)[:2]           # rows of e, by slice
        d2 = parts.g_sq + parts.e[near, 0]
        assert abs(d2[0] - d2[1]) < parts.err.min()
        assert classify.nearest_core_labels(
            self.STATE[:, :, None], [model]).tolist() == [want]
        assert undecided == [0]
        assert classify_global_tensor(self.STATE, model).label == want

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_near_tie_takes_direct_differences_perclass(self, undecided,
                                                        order):
        models = [identity_model([self.NEAR[k], self.FAR], [k + 1] * 2)
                  for k in order]
        assert classify.nearest_core_labels(
            self.STATE[:, :, None], models).tolist() == [2]
        assert undecided == [0]
        assert classify_perclass_tensor(self.STATE, models).label == 2

    @pytest.mark.parametrize("labels, want", [((2, 1), 2), ((1, 2), 1)])
    def test_duplicate_slices_go_to_earliest_slice(self, undecided,
                                                   labels, want):
        model = identity_model([self.NEAR[0], self.NEAR[0], self.FAR],
                               [*labels, 1])
        assert classify.nearest_core_labels(
            self.STATE[:, :, None], [model]).tolist() == [want]
        assert undecided == [0]
        pred = classify_global_tensor(self.STATE, model)
        assert pred.label == want and pred.tie

    def test_duplicate_models_go_to_earliest_model(self, undecided):
        x = np.random.default_rng(14).normal(size=(6, 8, 5))
        first = hooi(x, (3, 4), labels=[1] * 5)
        second = replace(first, slice_labels=np.full(5, 2))
        states = np.random.default_rng(15).normal(size=(6, 8, 7))
        for models, want in (([first, second], 1), ([second, first], 2)):
            np.testing.assert_array_equal(
                classify.nearest_core_labels(states, models), want)
            pred = classify_perclass_tensor(states[:, :, 0], models)
            assert pred.label == want and pred.tie
        assert undecided == 2 * (list(range(7)) + [0])

    def test_training_samples_keep_their_labels(self, undecided):
        # large cores a little apart: each sample's own slice is at a
        # rounding-level distance, the others at about 1e-5
        rng = np.random.default_rng(16)
        x = 1e3 * rng.normal(size=(6, 8, 1)) + 1e-6 * rng.normal(
            size=(6, 8, 12))
        labels = np.tile([1, 2], 6)
        model = hooi(x, (6, 8), labels=labels)
        np.testing.assert_array_equal(
            classify.nearest_core_labels(x, [model]), labels)
        models = fit_per_class([x[:, :, labels == k] for k in (1, 2)],
                               (6, 8), class_ids=[1, 2])
        np.testing.assert_array_equal(
            classify.nearest_core_labels(x, models), labels)
        assert undecided == []


class TestRoundingBound:
    @pytest.mark.parametrize("scale, spread", [
        (1.0, 1.0),     # well-separated slices
        (1e8, 1e-3),    # large norms, tiny differences
        (1e3, 1e-9),    # near-identical slices
        (1.0, 0.0),     # identical slices
    ])
    def test_expanded_distances_within_bound(self, scale, spread):
        rng = np.random.default_rng(17)
        n, t, j1, j2, m = 7, 9, 3, 4, 6
        u = np.linalg.qr(rng.normal(size=(n, j1)))[0]
        v = np.linalg.qr(rng.normal(size=(t, j2)))[0]
        core = scale * rng.normal(size=(j1, j2, 1)) + spread * rng.normal(
            size=(j1, j2, m))
        model = TuckerModel(u=u, v=v, core=core,
                            slice_labels=np.tile([1, 2, 3], 2),
                            ranks=(j1, j2), converged=True, iterations=1)
        own = np.einsum("ia,abm,tb->itm", u, core, v)
        states = np.concatenate([
            own,                                          # self-distances
            own + spread * rng.normal(size=own.shape),    # near slices
            scale * rng.normal(size=(n, t, 4))], axis=2)
        p = classify._expand(states, model)
        expanded = p.g_sq + p.e
        g = p.g.astype(np.longdouble)
        c = core.reshape(j1 * j2, m)[:, p.order].astype(np.longdouble)
        exact = np.sum((g[None] - c.T[:, :, None]) ** 2, axis=1)
        mu = core.reshape(j1 * j2, m).mean(axis=1)
        c_norm = np.linalg.norm(core.reshape(j1 * j2, m)[:, p.order]
                                - mu[:, None], axis=0)
        bound = classify._rounding_coeff(j1 * j2 + 1) * (
            np.sqrt(p.g_sq) + c_norm[:, None]) ** 2
        assert np.all(np.abs(expanded - exact) <= bound)
        assert np.all(p.err[p.group] >= bound)
