import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqrate.errors import ConvergenceError, DimensionError, ParameterError
from eqrate.kernels import (
    DEFAULT_VARIANCE,
    affinity_entropy,
    affinity_targets,
    dissimilarity_factorized,
    dissimilarity_joint,
    max_affinity_entropy,
    project_simplex,
    similarity_kernel,
)
from conftest import random_game


def co_profile_rows(game, player):
    u = np.moveaxis(game.utilities[player], player, 0)
    return u.reshape(game.num_actions(player), -1)


def mc_dissimilarity_joint(game, player, p, q, samples, seed):
    """Monte-Carlo oracle on the closed form's measure: co-profile weights
    drawn uniformly from the solid simplex (a zero-payoff slack outcome)."""
    rows = co_profile_rows(game, player)
    d = rows.shape[1]
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(d + 1), size=samples)[:, :d]
    r = w @ (rows[p] - rows[q])
    return float(np.mean(r * r))


def mc_dissimilarity_factorized(game, player, p, q, samples, seed):
    """Same oracle with independent per-co-player solid-simplex weights."""
    u = np.moveaxis(game.utilities[player], player, 0)
    diff = (u[p] - u[q]).ravel()
    co_sizes = [s for j, s in enumerate(game.shape) if j != player]
    rng = np.random.default_rng(seed)
    joint = np.ones((samples, 1))
    for s in co_sizes:
        w = rng.dirichlet(np.ones(s + 1), size=samples)[:, :s]
        joint = (joint[:, :, None] * w[:, None, :]).reshape(samples, -1)
    r = joint @ diff
    return float(np.mean(r * r))


class TestDissimilarity:
    def test_duplicated_rock_rows_are_clones(self, rps_dup_rock):
        D = dissimilarity_joint(rps_dup_rock, 0)
        assert D[0, 1] == 0.0
        assert np.allclose(np.diag(D), 0.0)
        assert np.allclose(D, D.T)

    def test_rps_rock_paper_closed_form(self, rps):
        # rows (0,-1,1) vs (1,0,-1), d=3: (1/20) * [6 + 0] = 0.3
        D = dissimilarity_joint(rps, 0)
        assert D[0, 1] == pytest.approx(0.3)

    def test_rps_rock_paper_matches_mc_oracle(self, rps):
        D = dissimilarity_joint(rps, 0)
        mc = mc_dissimilarity_joint(rps, 0, 0, 1, samples=2_000_000, seed=42)
        assert D[0, 1] == pytest.approx(mc, rel=5e-3)

    def test_factorized_reduces_to_joint_for_two_players(self, rps, chicken):
        for game in (rps, chicken):
            for player in range(2):
                assert np.allclose(
                    dissimilarity_factorized(game, player),
                    dissimilarity_joint(game, player),
                    atol=1e-12,
                )

    def test_factorized_identical_actions_zero(self, rps_dup_rock):
        D = dissimilarity_factorized(rps_dup_rock, 0)
        assert D[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_factorized_matches_mc_oracle_three_player(self):
        game = random_game((2, 2, 2), seed=13)
        D = dissimilarity_factorized(game, 0)
        mc = mc_dissimilarity_factorized(game, 0, 0, 1, samples=2_000_000, seed=7)
        assert D[0, 1] == pytest.approx(mc, rel=5e-3)

    def test_joint_matches_mc_oracle_three_player(self):
        game = random_game((2, 3, 2), seed=21)
        D = dissimilarity_joint(game, 1)
        mc = mc_dissimilarity_joint(game, 1, 0, 1, samples=2_000_000, seed=11)
        assert D[0, 1] == pytest.approx(mc, rel=5e-3)


    @pytest.mark.parametrize("dissimilarity", [dissimilarity_joint, dissimilarity_factorized])
    @pytest.mark.parametrize("player", [-1, 2])
    def test_player_index_out_of_range(self, rps, dissimilarity, player):
        with pytest.raises(DimensionError, match=f"player index {player} out of range"):
            dissimilarity(rps, player)


class TestSimilarityKernel:
    def test_zero_dissimilarity_gives_all_ones(self):
        K = similarity_kernel(np.zeros((3, 3)), variance=(2 * 1.0) ** 2)
        assert np.allclose(K, 1.0)

    def test_variance_names_denominator(self):
        D = np.array([[0.0, 2e-6], [2e-6, 0.0]])
        K = similarity_kernel(D, variance=1e-6)
        assert K[0, 1] == pytest.approx(np.exp(-2.0))

    def test_clone_entry_is_one(self):
        D = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, 0.5], [0.5, 0.5, 0.0]])
        K = similarity_kernel(D, variance=1e-6)
        assert K[0, 1] == 1.0

    def test_invalid_sigma(self):
        with pytest.raises(ParameterError):
            similarity_kernel(np.zeros((2, 2)), variance=(2 * 0.0) ** 2)
        with pytest.raises(TypeError):
            similarity_kernel(np.zeros((2, 2)))

    def test_nan_variance_rejected(self):
        with pytest.raises(ParameterError, match="variance"):
            similarity_kernel(np.zeros((2, 2)), variance=float("nan"))

    def test_monotone_in_dissimilarity(self):
        rng = np.random.default_rng(0)
        D = rng.uniform(0, 2, size=(5, 5))
        D = (D + D.T) / 2
        np.fill_diagonal(D, 0.0)
        K = similarity_kernel(D, variance=(2 * 0.7) ** 2)
        order = np.argsort(D[0])
        assert np.all(np.diff(K[0][order]) <= 1e-15)


def block_kernel(sizes):
    n = sum(sizes)
    K = np.zeros((n, n))
    start = 0
    for s in sizes:
        K[start : start + s, start : start + s] = 1.0
        start += s
    return K


class TestAffinityEntropy:
    def test_identity_kernel_is_tsallis(self):
        assert affinity_entropy(np.eye(3), np.ones(3) / 3) == pytest.approx(2 / 3)
        assert affinity_entropy(np.eye(3), np.array([1.0, 0, 0])) == pytest.approx(0.0)

    def test_two_clone_groups_half_mass(self):
        for split in ([0.25, 0.25, 0.3, 0.2], [0.5, 0.0, 0.1, 0.4]):
            assert affinity_entropy(block_kernel([2, 2]), np.array(split)) == pytest.approx(0.5)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 10_000))
    def test_nonnegative_on_simplex(self, n, seed):
        rng = np.random.default_rng(seed)
        K = rng.uniform(0, 1, size=(n, n))
        K = (K + K.T) / 2
        np.fill_diagonal(K, 1.0)
        x = rng.dirichlet(np.ones(n))
        assert affinity_entropy(K, x) >= -1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 10_000), st.floats(0.0, 1.0))
    def test_concavity_spot_check(self, n, seed, lam):
        rng = np.random.default_rng(seed)
        K = rng.uniform(0, 1, size=(n, n))
        K = (K + K.T) / 2
        np.fill_diagonal(K, 1.0)
        x = rng.dirichlet(np.ones(n))
        y = rng.dirichlet(np.ones(n))
        mixed = affinity_entropy(K, lam * x + (1 - lam) * y)
        assert mixed >= lam * affinity_entropy(K, x) + (1 - lam) * affinity_entropy(K, y) - 1e-10

    def test_maximizer_set_under_clones_has_equal_value(self):
        K = block_kernel([3, 2])
        a = np.array([0.5, 0.0, 0.0, 0.25, 0.25])
        b = np.array([0.2, 0.2, 0.1, 0.4, 0.1])
        assert affinity_entropy(K, a) == pytest.approx(affinity_entropy(K, b), abs=1e-10)


class TestMaxAffinityEntropy:
    def test_identity_kernel_uniform(self):
        assert np.allclose(max_affinity_entropy(np.eye(3)), 1 / 3, atol=1e-8)

    def test_duplicated_rock_group_masses(self, rps_dup_rock):
        D = dissimilarity_joint(rps_dup_rock, 0)
        t = max_affinity_entropy(similarity_kernel(D, DEFAULT_VARIANCE))
        groups = [[0, 1], [2], [3]]
        # the rock copies are exact clones and no other pair is
        off = ~np.eye(4, dtype=bool)
        off[0, 1] = off[1, 0] = False
        assert D[0, 1] == D[1, 0] == 0.0
        assert np.all(D[off] > 1e-12)
        masses = [t[g].sum() for g in groups]
        assert np.allclose(masses, 1 / 3, atol=1e-4)

    def test_iteration_cap_raises_with_the_last_iterate(self):
        K = block_kernel([3, 1])
        with pytest.raises(ConvergenceError, match="after 2 iterations") as info:
            max_affinity_entropy(K, tolerance=1e-10, max_iters=2)
        assert info.value.iterate.sum() == pytest.approx(1.0)
        assert info.value.gradient_norm > 1e-10

    # the ids are those the cases had when the test also ran entropic index 0.5
    @pytest.mark.parametrize(
        "sizes", [[2, 2], [3, 1], [2, 1, 1], [3, 2, 2, 1]], ids=[f"sizes{i}-1.0" for i in range(4)]
    )
    def test_clone_value_formula(self, sizes):
        K = block_kernel(sizes)
        t = max_affinity_entropy(K, tolerance=1e-10)
        C = len(sizes)
        start = 0
        for s in sizes:
            assert t[start : start + s].sum() == pytest.approx(1 / C, abs=1e-4)
            start += s
        assert affinity_entropy(K, t) == pytest.approx(1 - 1 / C, abs=1e-4)


def test_affinity_targets_reject_an_unknown_mode(rps):
    with pytest.raises(ParameterError, match="unknown dissimilarity mode 'product'"):
        affinity_targets(rps, mode="product")


def test_project_simplex_basics():
    assert np.allclose(project_simplex(np.array([0.2, 0.3, 0.5])), [0.2, 0.3, 0.5])
    out = project_simplex(np.array([10.0, 0.0, -5.0]))
    assert out.sum() == pytest.approx(1.0)
    assert np.all(out >= 0)
    assert out[0] == pytest.approx(1.0)
