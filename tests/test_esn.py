import numpy as np
import pytest

from esn_tucker.esn import (Reservoir, make_reservoir, run,
                            save_reservoir, load_reservoir)


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

    def test_input_shape_checked(self):
        res = make_reservoir(5, 2, seed=0)
        with pytest.raises(ValueError, match="2 rows"):
            run(res, np.zeros((3, 10)))

    def test_x0_checked(self):
        res = make_reservoir(5, 1, seed=0)
        with pytest.raises(ValueError, match="length 5"):
            run(res, np.zeros((1, 4)), x0=np.zeros(4))
        with pytest.raises(ValueError, match="finite"):
            run(res, np.zeros((1, 4)), x0=np.full(5, np.nan))


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        res = make_reservoir(8, 2, alpha=0.5, beta=0.7, activation="sin",
                             seed=13)
        path = tmp_path / "res.npz"
        save_reservoir(res, path)
        back = load_reservoir(path)
        np.testing.assert_array_equal(back.w_in, res.w_in)
        np.testing.assert_array_equal(back.w_res, res.w_res)
        assert back.alpha == res.alpha
        assert back.beta == res.beta
        assert back.activation == res.activation
        assert back.seed == res.seed

    def test_loaded_reservoir_runs_identically(self, tmp_path):
        res = make_reservoir(6, 1, seed=3)
        path = tmp_path / "res.npz"
        save_reservoir(res, path)
        a = np.random.default_rng(4).normal(size=(1, 20))
        np.testing.assert_array_equal(run(res, a),
                                      run(load_reservoir(path), a))
