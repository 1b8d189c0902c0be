import numpy as np
import pytest

from esn_tucker import classify
from esn_tucker.classify import (OutputWeights, train_output_weights,
                                 classify_pointwise, classify_block,
                                 classify_global_tensor,
                                 classify_perclass_tensor)
from esn_tucker.tucker import HooiConfig, hooi, fit_per_class, project_core


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
        model = hooi(x, HooiConfig(ranks=(6, 8)), labels=labels)
        for mat, lab in zip(slices, labels):
            pred = classify_global_tensor(mat, model)
            assert pred.label == lab
            assert min(pred.scores) < 1e-8  # its own core is distance 0

    def test_training_samples_self_classify_perclass(self):
        x, labels, slices = self.make_training_tensor()
        labels = np.asarray(labels)
        class_tensors = [x[:, :, labels == k] for k in (1, 2)]
        models = fit_per_class(class_tensors, HooiConfig(ranks=(6, 8)),
                               class_ids=[1, 2])
        for mat, lab in zip(slices, labels):
            assert classify_perclass_tensor(mat, models).label == lab

    def test_global_scores_are_per_class_minima(self):
        x, labels, _ = self.make_training_tensor()
        model = hooi(x, HooiConfig(ranks=(3, 4)), labels=labels)
        probe = np.random.default_rng(1).normal(size=(6, 8))
        pred = classify_global_tensor(probe, model)
        assert pred.scores.shape == (2,)
        assert pred.label == int(np.argmin(pred.scores)) + 1

    def test_single_slice_model(self):
        x = np.random.default_rng(2).normal(size=(4, 5, 1))
        model = hooi(x, HooiConfig(ranks=(2, 2)), labels=[3])
        pred = classify_global_tensor(x[:, :, 0], model)
        assert pred.label == 3

    def test_slice_order_invariance_global(self):
        x, labels, _ = self.make_training_tensor()
        perm = [5, 3, 1, 4, 2, 0]
        model_a = hooi(x, HooiConfig(ranks=(3, 4), tol=1e-12),
                       labels=labels)
        model_b = hooi(x[:, :, perm], HooiConfig(ranks=(3, 4), tol=1e-12),
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


class TestCoreDistances:
    def make_model(self):
        x = np.random.default_rng(11).normal(size=(6, 8, 9))
        return x, hooi(x, HooiConfig(ranks=(3, 4)))

    def test_matches_direct_differences_across_blocks(self):
        _, model = self.make_model()
        b = 2 * classify._DIST_BLOCK + 5
        states = np.random.default_rng(12).normal(size=(6, 8, b))
        np.testing.assert_allclose(classify.core_distances(states, model),
                                   direct_core_distances(states, model),
                                   rtol=1e-10)

    def test_sample_equal_to_slice_is_at_zero(self):
        x, model = self.make_model()
        got = classify.core_distances(x, model)
        scale = np.linalg.norm(model.core)
        assert np.all(np.diag(got) < 1e-12 * scale)
        np.testing.assert_allclose(got, direct_core_distances(x, model),
                                   rtol=1e-10, atol=1e-12 * scale)

    def test_slice_perturbed_by_tiny_amount(self):
        x, model = self.make_model()
        rng = np.random.default_rng(13)
        states = x[:, :, :3] + 1e-9 * rng.normal(size=(6, 8, 3))
        got = classify.core_distances(states, model)
        want = direct_core_distances(states, model)
        assert np.all(np.diag(want) < 1e-8)
        np.testing.assert_allclose(got, want, rtol=1e-10)
