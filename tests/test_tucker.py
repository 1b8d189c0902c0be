import re
from dataclasses import replace

import numpy as np
import pytest

from esn_tucker import data, harness, tucker
from esn_tucker.tucker import (hooi, project_core, fit_per_class,
                               _top_eigenvectors)


def reconstruction(model):
    """``core x1 U x2 V``, written out as one contraction."""
    return np.einsum("ia,jb,abk->ijk", model.u, model.v, model.core)


def hosvd_reconstruction_error(x, j1, j2):
    """Truncated-SVD-of-each-unfolding baseline, computed directly."""
    def top_eigenvectors(gram, r):
        w, v = np.linalg.eigh(gram)
        order = np.argsort(w)[::-1][:r]
        return v[:, order]

    # Gram matrices of the mode-1 and mode-2 unfoldings
    u = top_eigenvectors(np.einsum("ijk,ljk->il", x, x), j1)
    v = top_eigenvectors(np.einsum("ijk,ilk->jl", x, x), j2)
    core = np.einsum("ia,jb,ijk->abk", u, v, x)
    approx = np.einsum("ia,jb,abk->ijk", u, v, core)
    return np.linalg.norm(x - approx)


class TestHooi:
    def test_full_rank_reproduces_input(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 5, 3))
        model = hooi(x, (4, 5))
        np.testing.assert_allclose(reconstruction(model), x, atol=1e-8)
        assert np.linalg.norm(model.core) == pytest.approx(
            np.linalg.norm(x), abs=1e-8)

    def test_exact_rank_one_instance(self):
        rng = np.random.default_rng(1)
        u = rng.normal(size=4)
        v = rng.normal(size=6)
        w = rng.normal(size=3)
        x = np.einsum("i,j,k->ijk", u, v, w)
        model = hooi(x, (1, 1))
        assert np.linalg.norm(reconstruction(model) - x) <= 1e-8

    def test_not_worse_than_hosvd_baseline(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 6, 4))
        model = hooi(x, (2, 2))
        err = np.linalg.norm(reconstruction(model) - x)
        assert err <= hosvd_reconstruction_error(x, 2, 2) + 1e-8

    def test_factor_orthonormality(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(7, 9, 5))
        model = hooi(x, (3, 4))
        np.testing.assert_allclose(model.u.T @ model.u, np.eye(3), atol=1e-8)
        np.testing.assert_allclose(model.v.T @ model.v, np.eye(4), atol=1e-8)

    def test_objective_nondecreasing(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 8, 6))
        model = hooi(x, (3, 3))
        hist = model.objective_history
        assert len(hist) >= 1
        assert all(b >= a - 1e-10 for a, b in zip(hist, hist[1:]))

    def test_core_slices_match_projected_training_slices(self):
        # one core formula: the fit's core is the scoring projection of
        # its training slices, bit for bit
        rng = np.random.default_rng(5)
        x = rng.normal(size=(5, 7, 4))
        model = hooi(x, (2, 3))
        np.testing.assert_array_equal(project_core(x, model), model.core)

    def test_core_matches_modal_products(self):
        # reference: X x1 U' x2 V' as one einsum, not the matmul path of hooi
        rng = np.random.default_rng(8)
        x = rng.normal(size=(7, 9, 5))
        model = hooi(x, (3, 4))
        want = np.einsum("ia,jb,ijk->abk", model.u, model.v, x)
        np.testing.assert_allclose(model.core, want, rtol=0,
                                   atol=1e-12 * np.linalg.norm(x))

    def test_memory_order_does_not_change_fit(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 7, 5))
        a = hooi(x, (2, 3))
        b = hooi(np.asfortranarray(x), (2, 3))
        np.testing.assert_array_equal(a.core, b.core)
        assert a.iterations == b.iterations

    def test_fit_depends_on_data_alone(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 6, 3))
        a = hooi(x, (2, 2))
        b = hooi(x.copy(), (2, 2))
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.v, b.v)
        np.testing.assert_array_equal(a.core, b.core)

    def test_rank_bounds_rejected(self):
        x = np.zeros((3, 4, 2))
        with pytest.raises(ValueError, match="exceed"):
            hooi(x, (4, 2))

    @pytest.mark.parametrize("shape, ranks", [
        ((10, 5, 3), (8, 2)),
        ((4, 12, 2), (1, 3)),
        ((6, 5, 0), (2, 2)),
    ], ids=["j1_over_j2m", "j2_over_j1m", "no_slices"])
    def test_ranks_beyond_unfolding_bounds_rejected(self, shape, ranks):
        with pytest.raises(ValueError, match="exceed"):
            hooi(np.ones(shape), ranks)

    @pytest.mark.parametrize("ranks", [(0, 2), (2, 0), (-1, 3)])
    def test_nonpositive_ranks_rejected(self, ranks):
        x = np.ones((4, 5, 3))
        with pytest.raises(ValueError, match="ranks must be positive"):
            hooi(x, ranks)
        with pytest.raises(ValueError, match="ranks must be positive"):
            fit_per_class(x, [ranks], np.ones(3))

    def test_iteration_cap_returns_unconverged_model(self, monkeypatch):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 6, 4))
        monkeypatch.setattr(tucker, "TOL", 1e-16)
        monkeypatch.setattr(tucker, "MAX_ITERS", 2)
        model = hooi(x, (2, 2))
        assert not model.converged
        assert model.iterations == 2

    def test_label_length_checked(self):
        x = np.zeros((3, 4, 2))
        with pytest.raises(ValueError, match="labels"):
            hooi(x, (2, 2), labels=[1, 2, 3])


def fit_matrix(m, r):
    """Rank-(r, r) fit of the single-sample tensor ``m[:, :, None]``,
    stopped at a tolerance of 1e-12."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tucker, "TOL", 1e-12)
        return hooi(np.asarray(m, dtype=float)[:, :, None], (r, r))


def near_tie_matrix():
    """30 x 30 symmetric matrix whose 4th and 5th values nearly tie."""
    rng = np.random.default_rng(6)
    q, _ = np.linalg.qr(rng.normal(size=(30, 30)))
    vals = np.concatenate([[5.0, 4.0, 3.0, 2.0000001, 2.0],
                           np.linspace(1.0, 0.1, 25)])
    return q @ np.diag(vals) @ q.T


def rank_one_matrix(shape):
    rng = np.random.default_rng(7)
    return np.outer(rng.normal(size=shape[0]), rng.normal(size=shape[1]))


class TestHooiDenseOracle:
    """A single-sample fit is a truncated SVD of the sample: U and V span
    its dominant singular subspaces and ``||core||`` is the root-sum-square
    of its top singular values (Eckart-Young), checked against
    ``np.linalg.svd``."""

    CASES = {
        "wide": (np.random.default_rng(14).normal(size=(5, 9)), 3),
        "tall": (np.random.default_rng(14).normal(size=(9, 5)), 3),
        "square": (np.random.default_rng(14).normal(size=(7, 7)), 3),
        "diagonal": (np.diag([3.0, 2.0, 1.0]), 2),
        "orthogonal": (np.linalg.qr(
            np.random.default_rng(0).normal(size=(4, 4)))[0], 4),
        "rank_one_wide": (rank_one_matrix((5, 9)), 3),
        "rank_one_tall": (rank_one_matrix((9, 5)), 3),
        "zero_wide": (np.zeros((4, 7)), 3),
        "zero_tall": (np.zeros((7, 4)), 3),
        "near_tie": (near_tie_matrix(), 4),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_dense_svd(self, case):
        m, r = self.CASES[case]
        model = fit_matrix(m, r)
        s = np.linalg.svd(m, compute_uv=False)
        np.testing.assert_allclose(model.u.T @ model.u, np.eye(r),
                                   atol=1e-12)
        np.testing.assert_allclose(model.v.T @ model.v, np.eye(r),
                                   atol=1e-12)
        resid = np.linalg.norm(m - model.u @ model.core[:, :, 0]
                               @ model.v.T)
        best = np.sqrt(np.sum(s[r:] ** 2))
        assert resid == pytest.approx(best, rel=1e-6, abs=1e-7 * s[0])
        assert model.objective_history[-1] == pytest.approx(
            np.sqrt(np.sum(s[:r] ** 2)), rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("case", ["wide", "tall", "square"])
    def test_core_is_diagonal_of_singular_values(self, case):
        # distinct values: U' M V is diag(s), nonincreasing and >= 0
        m, r = self.CASES[case]
        model = fit_matrix(m, r)
        s = np.linalg.svd(m, compute_uv=False)
        np.testing.assert_allclose(np.abs(model.core[:, :, 0]),
                                   np.diag(s[:r]), atol=1e-8)

    @pytest.mark.parametrize("case", ["rank_one_wide", "rank_one_tall"])
    def test_rank_one_leading_vector(self, case):
        m, _ = self.CASES[case]
        model = fit_matrix(m, 3)
        a = m[:, np.argmax(np.abs(m).sum(axis=0))]
        np.testing.assert_allclose(np.abs(model.u[:, 0]),
                                   np.abs(a) / np.linalg.norm(a), atol=1e-12)

    def test_duplicated_slices_scale_objective_by_sqrt2(self, monkeypatch):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 4, 3))
        # a fixed iteration count: the stopping test is absolute, so it
        # would see the scaled values change faster
        monkeypatch.setattr(tucker, "TOL", 1e-300)
        monkeypatch.setattr(tucker, "MAX_ITERS", 5)
        one = hooi(x, (3, 2))
        two = hooi(np.concatenate([x, x], axis=2), (3, 2))
        assert len(one.objective_history) == len(two.objective_history) == 5
        np.testing.assert_allclose(two.objective_history,
                                   np.sqrt(2) * np.array(
                                       one.objective_history), rtol=1e-8)


# each Gram source of the shared iteration, forced whatever the cost
# rule would pick: passes over the slices, or the fourth-order S
GRAM_SOURCES = {"slices": False, "fourth_order": True}


@pytest.fixture(params=sorted(GRAM_SOURCES))
def gram_source(request, monkeypatch):
    use_k = GRAM_SOURCES[request.param]
    monkeypatch.setattr(tucker, "_fourth_order_pays",
                        lambda n, t, m, rank_pairs: use_k)
    return request.param


@pytest.mark.usefixtures("gram_source")
class TestHooiOnEachSource(TestHooi):
    """``TestHooi`` with the iteration fed by each Gram source."""


@pytest.mark.usefixtures("gram_source")
class TestHooiDenseOracleOnEachSource(TestHooiDenseOracle):
    """``TestHooiDenseOracle`` with the iteration fed by each Gram
    source."""


def count_fourth_order_grams(monkeypatch):
    """A list that gains one entry per S that ``hooi_grid`` forms."""
    calls = []
    form = tucker._fourth_order_gram

    def counted(x):
        calls.append(x.shape)
        return form(x)

    monkeypatch.setattr(tucker, "_fourth_order_gram", counted)
    return calls


def experiment_grids():
    """(id, N, T, the class sizes M, rank pairs, whether S is taken) of
    each N of the experiment grids.

    The sample benchmarks fit one training tensor: digits take
    ``per_class`` 16 x 16 images of each of 10 digits, speakers 30
    utterances of each speaker resampled to ``resample_len`` frames.
    The switching acceptance grid fits one tensor per class, of any size
    up to all of its training segments.
    """
    from test_acceptance import SS_CONFIG
    usps, jv = harness.template_config("usps"), harness.template_config("jv")
    ss = SS_CONFIG.dataset
    grids = []
    for name, cfg, t, sizes, use_k in [
            ("digits", usps, 16, [10 * usps["dataset"]["per_class"]], True),
            ("speakers", jv, jv["dataset"]["resample_len"],
             [30 * data.N_SPEAKERS], True),
            ("switching", SS_CONFIG.to_dict(), ss["segment_len"],
             range(1, ss["train_patterns"] * ss["segments_per_pattern"] + 1),
             False)]:
        cfg = harness.ExperimentConfig.from_dict(cfg)
        grids += [(f"{name}-{n}", n, t, sizes, harness._rank_pairs(cfg, n),
                   use_k) for n in cfg.n_grid]
    return grids


EXPERIMENT_GRIDS = experiment_grids()


class TestHooiGrid:
    # (N, T, rank pairs) at M = 8 on either side of the rule's boundary
    # (F + s)(F + I s) = I c^2, I = MAX_ITERS: I c^2 exceeds the left
    # side by 3 % at 6 x 6 and ranks (3, 3) and by 6 % on the two-pair
    # grid, and one step in N, T, J1 or J2 puts it 16-29 % below
    @pytest.mark.parametrize("n, t, rank_pairs, use_k", [
        (6, 6, [(3, 3)], True),
        (6, 6, [(2, 3)], False),
        (6, 6, [(3, 2)], False),
        (7, 6, [(3, 3)], False),
        (6, 7, [(3, 3)], False),
        (5, 6, [(3, 3)], True),
        (6, 6, [(3, 2), (2, 2)], True),
        (6, 6, [(3, 2), (2, 1)], False),
    ])
    def test_cost_rule_at_equality(self, monkeypatch, n, t, rank_pairs,
                                   use_k):
        assert tucker._fourth_order_pays(n, t, 8, rank_pairs) is use_k
        calls = count_fourth_order_grams(monkeypatch)
        x = np.random.default_rng(0).normal(size=(n, t, 8))
        models = tucker.hooi_grid(x, rank_pairs)
        # one S serves every pair of the grid
        assert calls == [(n, t, 8)] * use_k
        assert [m.ranks for m in models] == rank_pairs

    @pytest.mark.parametrize("m, use_k", [(35, False), (36, True),
                                          (37, True)])
    def test_cost_rule_takes_s_at_exact_equality(self, m, use_k):
        # at N = 10, T = 8, ranks (3, 3) and M = 36 both sides are
        # 273,233,049,600; a larger M only ever favours S
        assert tucker._fourth_order_pays(10, 8, m, [(3, 3)]) is use_k

    @pytest.mark.parametrize("n, t, sizes, rank_pairs, use_k",
                             [case[1:] for case in EXPERIMENT_GRIDS],
                             ids=[case[0] for case in EXPERIMENT_GRIDS])
    def test_cost_rule_on_the_experiment_grids(self, n, t, sizes,
                                               rank_pairs, use_k):
        # S for the digits and speakers grids, the slice passes for
        # every switching per-class tensor
        for m in sizes:
            assert tucker._fourth_order_pays(n, t, m, rank_pairs) is use_k

    def test_fourth_order_gram_matches_its_definition(self):
        for shape in [(1, 1, 1), (1, 5, 3), (4, 1, 2), (3, 4, 5),
                      (7, 3, 2)]:
            x = np.random.default_rng(1).normal(size=shape)
            n, t, _ = shape
            a, b = np.triu_indices(n)
            c, d = np.triu_indices(t)
            k = np.einsum("acm,bdm->abcd", x, x)[a, b]
            want = k[:, c, d] + (c < d) * k[:, d, c]
            np.testing.assert_allclose(tucker._fourth_order_gram(x), want,
                                       rtol=0, atol=1e-13)

    @pytest.mark.parametrize("shape", [(1, 1, 1), (1, 5, 3), (4, 1, 2),
                                       (3, 4, 5), (7, 3, 2), (10, 16, 40)])
    def test_updates_equal_products_with_k(self, shape):
        # each update from S equals K vec(V V') or vec(U U')' K, and S
        # holds N(N+1)/2 x T(T+1)/2 entries, about a quarter of K's
        rng = np.random.default_rng(2)
        x = rng.normal(size=shape)
        n, t, _ = shape
        k = np.einsum("acm,bdm->abcd", x, x).reshape(n * n, t * t)
        u_gram, v_gram = tucker._fourth_order_grams(x)
        assert tucker._fourth_order_gram(x).size == \
            n * (n + 1) // 2 * (t * (t + 1) // 2)
        for j1, j2 in [(1, 1), (min(n, 3), min(t, 2))]:
            u = np.linalg.qr(rng.normal(size=(n, j1)))[0]
            v = np.linalg.qr(rng.normal(size=(t, j2)))[0]
            for got, want in ((u_gram(v), k @ (v @ v.T).ravel()),
                              (v_gram(u), (u @ u.T).ravel() @ k)):
                want = want.reshape(got.shape)
                np.testing.assert_array_equal(got, got.T)
                assert np.abs(got - want).max() <= \
                    1e-13 * np.abs(want).max()

    def test_each_pair_equals_its_own_fit(self, gram_source):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(6, 5, 7))
        labels = rng.integers(1, 4, size=7)
        rank_pairs = [(2, 3), (4, 2), (2, 3), (6, 5)]
        grid = tucker.hooi_grid(x, rank_pairs, labels)
        for ranks, model in zip(rank_pairs, grid):
            alone = hooi(x, ranks, labels)
            np.testing.assert_array_equal(model.u, alone.u)
            np.testing.assert_array_equal(model.v, alone.v)
            np.testing.assert_array_equal(model.core, alone.core)
            np.testing.assert_array_equal(model.slice_labels, labels)
            assert model.ranks == ranks
            assert model.objective_history == alone.objective_history

    def test_every_pair_checked_before_any_work(self, monkeypatch):
        work = []
        for source in ("_slice_grams", "_fourth_order_grams"):
            monkeypatch.setattr(tucker, source,
                                lambda *args, source=source:
                                work.append(source))
        with pytest.raises(ValueError, match=r"ranks \(4, 2\) exceed"):
            tucker.hooi_grid(np.ones((3, 4, 2)), [(2, 2), (4, 2)])
        with pytest.raises(ValueError, match="ranks must be positive"):
            tucker.hooi_grid(np.ones((3, 4, 2)), [(2, 2), (0, 2)])
        assert work == []

    def test_sources_share_one_start(self, monkeypatch):
        # both sources hand the iteration the same starting V, bit for
        # bit: the dominant eigenvectors of the mode-2 Gram matrix (on a
        # digits-grid shape, where a trace of S would round differently)
        x = np.random.default_rng(19).normal(size=(10, 16, 40))
        rank_pairs = [(5, 8), (7, 4), (10, 12)]
        iterate = tucker._iterate
        starts = {}
        for source, use_k in GRAM_SOURCES.items():
            seen = starts[source] = []

            def spy(u_gram, v_gram, v, ranks, seen=seen):
                seen.append(v)
                return iterate(u_gram, v_gram, v, ranks)

            monkeypatch.setattr(tucker, "_fourth_order_pays",
                                lambda *args, use_k=use_k: use_k)
            monkeypatch.setattr(tucker, "_iterate", spy)
            tucker.hooi_grid(x, rank_pairs)
        assert [v.shape[1] for v in starts["slices"]] == [8, 4, 12]
        for a, b in zip(starts["slices"], starts["fourth_order"]):
            np.testing.assert_array_equal(a, b)
        w, p = np.linalg.eigh(np.einsum("ijk,ilk->jl", x, x))
        top = p[:, np.argsort(w)[::-1][:12]]
        np.testing.assert_allclose(np.abs(top.T @ starts["slices"][2]),
                                   np.eye(12)[:, ::-1], atol=1e-10)

    def test_tensor_validated_once_per_grid(self, monkeypatch):
        calls = []
        validate = tucker.tops.as_tensor3
        monkeypatch.setattr(tucker.tops, "as_tensor3",
                            lambda x: calls.append(1) or validate(x))
        x = np.random.default_rng(11).normal(size=(5, 6, 4))
        tucker.hooi_grid(x, [(2, 2), (3, 2), (2, 4)])
        assert calls == [1]

    # bools included: True < 1 is False and True * M is M
    @pytest.mark.parametrize("ranks", [(2.5, 2), (2, 2.0), ("2", 2),
                                       (True, 2)])
    def test_non_integer_ranks_rejected(self, ranks):
        x = np.ones((4, 5, 6))
        message = re.escape(f"ranks must be integers, got {ranks}")
        with pytest.raises(ValueError, match=message):
            hooi(x, ranks)
        with pytest.raises(ValueError, match=message):
            fit_per_class(x, [ranks], np.ones(6))

    def test_numpy_integer_ranks_accepted(self):
        x = np.random.default_rng(8).normal(size=(4, 5, 6))
        model = hooi(x, (np.int64(2), np.int32(3)))
        assert model.ranks == (2, 3)
        np.testing.assert_array_equal(model.core, hooi(x, (2, 3)).core)


class TestTopLeftVectors:
    """The factor update itself: the top-r eigenpairs of ``a @ a.T``."""

    def test_deterministic(self):
        a = near_tie_matrix()
        p1, s1 = _top_eigenvectors(a @ a.T, 4)
        p2, s2 = _top_eigenvectors((a @ a.T).copy(), 4)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(s1, s2)

    def test_values_sorted_nonincreasing_nonnegative(self):
        # rank 5 with r = 9: eigh returns the four zero eigenvalues of the
        # Gram matrix as rounding noise of either sign
        a = np.random.default_rng(14).normal(size=(9, 5))
        _, s = _top_eigenvectors(a @ a.T, 9)
        assert np.all(s >= 0.0)
        assert np.all(np.diff(s) <= 0.0)
        np.testing.assert_allclose(s[:5], np.linalg.svd(a, compute_uv=False),
                                   rtol=1e-12)
        np.testing.assert_allclose(s[5:], 0.0, atol=1e-6)


class TestProjectCore:
    def test_recovers_planted_core(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 8, 4))
        model = hooi(x, (2, 3))
        c = rng.normal(size=(2, 3))
        planted = model.u @ c @ model.v.T
        np.testing.assert_allclose(project_core(planted, model), c,
                                   atol=1e-10)

    def test_orthogonal_input_maps_to_zero(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 8, 4))
        model = hooi(x, (2, 3))
        # build a state matrix orthogonal to range(U) in mode 1
        q, _ = np.linalg.qr(np.hstack([model.u,
                                       rng.normal(size=(6, 4))]))
        perp = q[:, 2:]  # orthogonal complement of range(U)
        state = perp @ rng.normal(size=(4, 8))
        np.testing.assert_allclose(project_core(state, model),
                                   np.zeros((2, 3)), atol=1e-10)

    def test_training_slice_matches_core(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 6, 3))
        model = hooi(x, (2, 2))
        np.testing.assert_allclose(project_core(x[:, :, 1], model),
                                   model.core[:, :, 1], atol=1e-8)

    def test_linear(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 6, 3))
        model = hooi(x, (2, 2))
        a, b = rng.normal(size=(5, 6)), rng.normal(size=(5, 6))
        lhs = project_core(2.0 * a + 3.0 * b, model)
        rhs = 2.0 * project_core(a, model) + 3.0 * project_core(b, model)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_dim_mismatch_rejected(self):
        x = np.random.default_rng(4).normal(size=(5, 6, 3))
        model = hooi(x, (2, 2))
        with pytest.raises(ValueError, match="does not match"):
            project_core(np.zeros((5, 7)), model)

    def test_empty_batch_gives_empty_core(self):
        x = np.random.default_rng(4).normal(size=(5, 6, 3))
        model = hooi(x, (2, 3))
        assert project_core(np.zeros((5, 6, 0)), model).shape == (2, 3, 0)


class TestFitPerClass:
    def test_duplicate_classes_give_matching_cores(self, monkeypatch):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 5, 3))
        monkeypatch.setattr(tucker, "TOL", 1e-12)
        models = fit_per_class(np.concatenate([x, x], axis=2), [(2, 2)],
                               [1, 1, 1, 2, 2, 2])[0]
        # a fit depends on its data alone, so equal data give equal models
        np.testing.assert_array_equal(models[0].u, models[1].u)
        np.testing.assert_array_equal(models[0].v, models[1].v)
        np.testing.assert_array_equal(models[0].core, models[1].core)
        assert models[0].iterations == models[1].iterations

    def test_single_class_equals_plain_hooi(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 5, 3))
        [model] = fit_per_class(x, [(2, 2)], np.full(3, 7))[0]
        direct = hooi(x, (2, 2))
        np.testing.assert_array_equal(model.u, direct.u)
        assert set(model.slice_labels) == {7}

    def test_each_class_equals_hooi_of_its_slices(self, gram_source):
        # classes unsorted and interleaved; each model must be the plain
        # fit of its own slices, bit for bit, at every pair
        x = np.random.default_rng(17).normal(size=(5, 6, 10))
        labels = np.array([3, 1, 2, 3, 3, 1, 2, 1, 3, 2])
        rank_pairs = [(2, 2), (3, 2), (2, 4)]
        grid = fit_per_class(x, rank_pairs, labels)
        assert len(grid) == len(rank_pairs)
        for ranks, models in zip(rank_pairs, grid):
            assert [m.slice_labels[0] for m in models] == [1, 2, 3]
            for c, model in zip((1, 2, 3), models):
                alone = hooi(x[:, :, labels == c], ranks,
                             np.full(np.count_nonzero(labels == c), c))
                np.testing.assert_array_equal(model.u, alone.u)
                np.testing.assert_array_equal(model.v, alone.v)
                np.testing.assert_array_equal(model.core, alone.core)
                np.testing.assert_array_equal(model.slice_labels,
                                              alone.slice_labels)
                assert model.ranks == ranks
                assert model.iterations == alone.iterations
                assert model.converged == alone.converged
                assert model.objective_history == alone.objective_history

    def test_ranks_checked_on_a_tensor_without_slices(self):
        # no class to fit, but every pair is still checked, as hooi_grid
        # checks it
        with pytest.raises(ValueError, match=r"ranks \(2, 2\) exceed"):
            fit_per_class(np.zeros((3, 4, 0)), [(2, 2), (1, 1)], [])

    def test_ranks_checked_before_any_class_fit(self, monkeypatch):
        # (3, 5) fails the whole tensor (J2 > T), so no class is fitted;
        # (3, 2) suits the whole tensor's M = 4 but not class 1's one
        # slice, so that class's fit rejects it
        x = np.random.default_rng(20).normal(size=(3, 4, 4))
        fits = []
        hooi_grid = tucker._hooi_grid
        monkeypatch.setattr(tucker, "_hooi_grid",
                            lambda *args: fits.append(1) or hooi_grid(*args))
        with pytest.raises(ValueError, match=r"ranks \(3, 5\) exceed"):
            fit_per_class(x, [(2, 2), (3, 5)], [1, 2, 2, 2])
        assert fits == []
        with pytest.raises(ValueError, match=r"ranks \(3, 2\) exceed"):
            fit_per_class(x, [(2, 2), (3, 2)], [1, 2, 2, 2])

    def test_label_count_checked(self):
        # compress would cut x down to a short mask without complaint
        x = np.random.default_rng(18).normal(size=(4, 5, 6))
        for labels in ([1, 2, 1, 2, 1], [1, 2, 1, 2, 1, 2, 1]):
            with pytest.raises(ValueError, match="expected 6 slice labels"):
                fit_per_class(x, [(2, 2)], labels)


class TestTuckerModel:
    def test_ranks_are_the_factor_widths(self):
        model = tucker.TuckerModel(
            u=np.eye(2), v=np.eye(3)[:, :1], core=np.zeros((2, 1, 3)),
            slice_labels=np.array([1, 1, 2]), converged=True, iterations=1)
        assert model.ranks == (2, 1)
        with pytest.raises(TypeError, match="ranks"):
            replace(model, ranks=(5, 7))

    def test_slice_labels_must_cover_every_slice(self):
        # two labels on six slices would leave nearest_core_labels
        # scoring only the first two
        x = np.random.default_rng(21).normal(size=(4, 5, 6))
        model = hooi(x, (2, 3), labels=[1, 2, 1, 2, 1, 2])
        with pytest.raises(ValueError, match="expected 6 slice labels"):
            replace(model, slice_labels=np.array([1, 2]))

    @pytest.mark.parametrize("core_shape", [(3, 3, 6), (2, 2, 6), (2, 3)])
    def test_core_must_match_factor_ranks(self, core_shape):
        x = np.random.default_rng(22).normal(size=(4, 5, 6))
        model = hooi(x, (2, 3))
        with pytest.raises(ValueError, match="J1 x J2 x M"):
            replace(model, core=np.zeros(core_shape))
