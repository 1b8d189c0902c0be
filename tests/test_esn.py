import numpy as np
import pytest

from esn_tucker import esn
from esn_tucker.esn import ACTIVATIONS, make_reservoir, run


def power_iteration_radius(m, iters=2000, block=4):
    """Spectral radius via subspace iteration with Ritz values.

    Uses a block of vectors so complex-conjugate dominant pairs are
    captured; independent of the dense eigvals call under test.
    """
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(m.shape[0], block)))
    for _ in range(iters):
        q, _ = np.linalg.qr(m @ q)
    ritz = np.linalg.eigvals(q.T @ m @ q)
    return float(np.max(np.abs(ritz)))


class TestMakeReservoir:
    def test_nonzero_count_matches_density(self):
        res = make_reservoir(10, 1, density=0.1, seed=3)
        assert np.count_nonzero(res.w_res) == 10  # ceil(0.1 * 100)

    def test_nonzero_count_rounds_up(self):
        res = make_reservoir(7, 1, density=0.1, seed=3)
        assert np.count_nonzero(res.w_res) == 5  # ceil(0.1 * 49)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_spectral_radius_exact(self, seed):
        res = make_reservoir(20, 1, spectral_radius=0.95, seed=seed)
        rho = float(np.max(np.abs(np.linalg.eigvals(res.w_res))))
        assert rho == pytest.approx(0.95, abs=1e-10)
        # cross-check against a power-iteration oracle
        assert power_iteration_radius(res.w_res) == pytest.approx(0.95,
                                                                  abs=1e-6)

    def test_input_weights_within_scale(self):
        res = make_reservoir(30, 2, scale_in=0.5, seed=1)
        assert np.all(np.abs(res.w_in) <= 0.5)
        assert res.w_in.shape == (30, 2)

    def test_same_seed_same_weights(self):
        a = make_reservoir(15, 2, seed=42)
        b = make_reservoir(15, 2, seed=42)
        np.testing.assert_array_equal(a.w_in, b.w_in)
        np.testing.assert_array_equal(a.w_res, b.w_res)

    def test_different_seeds_differ(self):
        a = make_reservoir(15, 2, seed=42)
        b = make_reservoir(15, 2, seed=43)
        assert not np.array_equal(a.w_res, b.w_res)

    def test_nilpotent_draws_are_redrawn(self):
        # two nonzeros at N = 4, density 0.1: seed 28 draws a nilpotent
        # matrix more than ten times before a usable one
        res = make_reservoir(4, 13, density=0.1, seed=28)
        rho = float(np.max(np.abs(np.linalg.eigvals(res.w_res))))
        assert rho == pytest.approx(0.95, abs=1e-10)
        # a draw that succeeds at once consumes the same random stream
        first = make_reservoir(4, 13, density=0.1, seed=0)
        assert np.argwhere(first.w_res).tolist() == [[2, 3], [3, 2]]
        np.testing.assert_array_equal(first.w_res[first.w_res != 0],
                                      [-1.3877693728428278,
                                       -0.6503241948273003])

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="positive"):
            make_reservoir(0, 1)
        with pytest.raises(ValueError, match="density"):
            make_reservoir(5, 1, density=0.0)
        with pytest.raises(ValueError, match="spectral_radius"):
            make_reservoir(5, 1, spectral_radius=-1.0)
        with pytest.raises(ValueError, match="alpha"):
            make_reservoir(5, 1, alpha=1.5)
        with pytest.raises(ValueError, match="activation"):
            make_reservoir(5, 1, activation="relu")

    @pytest.mark.parametrize("key, value", [
        ("spectral_radius", np.nan), ("spectral_radius", np.inf),
        ("scale_in", np.nan), ("scale_in", np.inf), ("scale_in", -np.inf),
    ])
    def test_nonfinite_scales_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be"):
            make_reservoir(5, 1, **{key: value})


class TestRun:
    def test_identity_activation_alpha_one_first_step(self):
        # with s_0 = 0 the first state column is f(w_in a_1 + beta)
        res = make_reservoir(6, 1, activation="identity", seed=0)
        a = np.array([[2.0, 0.0]])
        states = run(res, a)
        np.testing.assert_allclose(states[:, 0], 2.0 * res.w_in[:, 0],
                                   atol=1e-12)

    def test_identity_activation_matches_linear_recursion(self):
        res = make_reservoir(5, 1, activation="identity", beta=0.3, seed=1)
        a = np.random.default_rng(2).normal(size=(1, 12))
        states = run(res, a)
        s = np.zeros(5)
        for t in range(12):
            s = res.w_in @ a[:, t] + res.w_res @ s + 0.3
            np.testing.assert_allclose(states[:, t], s, atol=1e-12)

    def test_alpha_zero_freezes_state(self):
        res = make_reservoir(5, 1, alpha=0.0, seed=0)
        a = np.ones((1, 7))
        states = run(res, a)
        np.testing.assert_array_equal(states, np.zeros((5, 7)))

    def test_alpha_zero_keeps_initial_state(self):
        res = make_reservoir(5, 1, alpha=0.0, seed=0)
        x0 = np.arange(5.0)
        states = run(res, np.ones((1, 4)), x0=x0)
        for t in range(4):
            np.testing.assert_array_equal(states[:, t], x0)

    def test_tanh_states_bounded(self):
        res = make_reservoir(10, 1, activation="tanh", seed=4)
        a = 10.0 * np.random.default_rng(5).normal(size=(1, 50))
        states = run(res, a)
        assert np.all(np.abs(states) <= 1.0)

    def test_leaky_blend(self):
        # alpha = 0.5 state is the average of the held state and the
        # fully-updated candidate
        res_half = make_reservoir(6, 1, alpha=0.5, seed=6)
        a = np.random.default_rng(7).normal(size=(1, 9))
        states = run(res_half, a)
        s = np.zeros(6)
        for t in range(9):
            cand = np.tanh(res_half.w_in @ a[:, t] + res_half.w_res @ s)
            s = 0.5 * s + 0.5 * cand
            np.testing.assert_allclose(states[:, t], s, atol=1e-12)

    def test_echo_property_washes_out_initial_state(self):
        # two runs from different initial states converge under a
        # contractive reservoir
        res = make_reservoir(12, 1, spectral_radius=0.8, seed=8)
        a = np.random.default_rng(9).normal(size=(1, 300))
        s_zero = run(res, a)
        s_rand = run(res, a,
                     x0=np.random.default_rng(10).uniform(-1, 1, 12))
        gap = np.linalg.norm(s_zero[:, -1] - s_rand[:, -1])
        assert gap < 1e-3

    @pytest.mark.parametrize("activation", ["tanh", "sin", "identity"])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n_inputs", [1, 3])
    @pytest.mark.parametrize("shape", [(9,), (9, 7)], ids=["2d", "batch"])
    @pytest.mark.parametrize("with_x0", [False, True])
    def test_matches_reference_loop_bit_for_bit(self, activation, alpha,
                                                n_inputs, shape, with_x0):
        res = make_reservoir(6, n_inputs, alpha=alpha, beta=0.4,
                             activation=activation, seed=11)
        rng = np.random.default_rng(12)
        a = rng.normal(size=(n_inputs,) + shape)
        a_before = a.copy()
        x0 = rng.uniform(-1, 1, 6) if with_x0 else None
        states = run(res, a, x0=x0)
        # the recursion as written in the docstring, one time column at
        # a time on the N x T x B drive
        f = ACTIVATIONS[activation]
        batch = a.reshape(n_inputs, shape[0], -1)
        drive = np.tensordot(res.w_in, batch, axes=1) + res.beta
        s = np.zeros((6, 1)) if x0 is None else x0[:, None]
        expected = np.empty(drive.shape)
        for t in range(shape[0]):
            s = (1 - alpha) * s + alpha * f(drive[:, t] + res.w_res @ s)
            expected[:, t] = s
        np.testing.assert_array_equal(states, expected.reshape((6,) + shape))
        assert states.shape == (6,) + shape
        assert states.flags.c_contiguous
        np.testing.assert_array_equal(a, a_before)

    def test_input_shape_checked(self):
        res = make_reservoir(5, 2, seed=0)
        with pytest.raises(ValueError, match="2 rows"):
            run(res, np.zeros((3, 10)))

    @pytest.mark.parametrize("shape", [(1, 0), (1, 0, 3), (1, 4, 0)])
    def test_empty_input_rejected(self, shape):
        res = make_reservoir(5, 1, seed=0)
        with pytest.raises(ValueError, match="nonempty"):
            run(res, np.zeros(shape))

    @pytest.mark.parametrize("shape", [(1, 4), (1, 4, 3)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_input_rejected(self, shape, bad):
        res = make_reservoir(5, 1, seed=0)
        a = np.zeros(shape)
        a[0, 2] = bad
        with pytest.raises(ValueError, match="input must be finite"):
            run(res, a)

    def test_x0_checked(self):
        res = make_reservoir(5, 1, seed=0)
        with pytest.raises(ValueError, match="length 5"):
            run(res, np.zeros((1, 4)), x0=np.zeros(4))
        with pytest.raises(ValueError, match="finite"):
            run(res, np.zeros((1, 4)), x0=np.full(5, np.nan))


def cut(states, seg):
    """N x T x B states cut into their K segments pattern-major,
    N x seg x (K B): pattern k of sample b is sample k B + b."""
    n, t, b = states.shape
    return (states.reshape(n, t // seg, seg, b).transpose(0, 2, 1, 3)
            .reshape(n, seg, -1))


class TestSharedRecursion:
    """Equal-shape batches stepped together, against one ``run`` each."""

    # 7 patterns: the default run count does not divide them, nor the 70
    # single steps of the uncut layout
    @pytest.mark.parametrize("activation", ["tanh", "sin", "identity"])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n_nodes", [6, 20, 50])
    @pytest.mark.parametrize("seg, n_inputs", [(None, 3), (10, 1)],
                             ids=["whole", "cut"])
    def test_matches_separate_runs_bit_for_bit(self, activation, alpha,
                                               n_nodes, seg, n_inputs):
        assert 7 % esn._RUNS
        res = make_reservoir(n_nodes, n_inputs, alpha=alpha, beta=0.4,
                             activation=activation, seed=11)
        rng = np.random.default_rng(12)
        batches = [rng.normal(size=(n_inputs, 70, 5)) for _ in range(2)]
        states = esn._run(res, batches, seg)
        for a, x in zip(batches, states):
            expected = run(res, a)
            np.testing.assert_array_equal(
                x, expected if seg is None else cut(expected, 10))
            assert x.flags.c_contiguous

    @pytest.mark.parametrize("runs", [1, 2, 3, 7, 9])
    @pytest.mark.parametrize("seg", [None, 10], ids=["whole", "cut"])
    def test_run_count_does_not_change_states(self, monkeypatch, runs, seg):
        res = make_reservoir(20, 1, alpha=0.5, activation="sin", seed=3)
        rng = np.random.default_rng(4)
        batches = [rng.normal(size=(1, 70, 4)) for _ in range(3)]
        x0 = rng.uniform(-1, 1, 20)
        expected = esn._run(res, batches, seg, x0=x0)
        monkeypatch.setattr(esn, "_RUNS", runs)
        for x, e in zip(esn._run(res, batches, seg, x0=x0), expected):
            np.testing.assert_array_equal(x, e)

    @pytest.mark.parametrize("n_signals", [20, 50])
    def test_full_paper_split_shapes(self, n_signals):
        # a full-paper split alone: 100 patterns of 100 steps per signal
        res = make_reservoir(6, 1, alpha=0.5, seed=5)
        a = np.random.default_rng(6).normal(size=(1, 10_000, n_signals))
        (x,) = esn._run(res, [a], 100)
        assert x.shape == (6, 100, 100 * n_signals)
        np.testing.assert_array_equal(x, cut(run(res, a), 100))
        # the first samples are pattern 0 of each signal, in signal order
        np.testing.assert_array_equal(x[:, :, :n_signals],
                                      run(res, a[:, :100]))

    def test_cut_needs_one_row_and_whole_patterns(self):
        with pytest.raises(ValueError, match="one-row"):
            esn._run(make_reservoir(5, 2, seed=0), [np.zeros((2, 20, 3))], 10)
        with pytest.raises(ValueError, match="one-row"):
            esn._run(make_reservoir(5, 1, seed=0), [np.zeros((1, 25, 3))], 10)

