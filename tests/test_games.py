import itertools
import json

import numpy as np
import pytest

from eqrate.errors import DimensionError
from eqrate.games import (
    Game,
    JointDistribution,
    ProductProfile,
    deviation_payoff,
    expected_utility,
    exploitability,
    game_from_dict,
    game_to_dict,
    load_game,
    product_to_joint,
    regret,
    save_game,
)
from conftest import random_game, uniform_product


def brute_force_eu(game, marginals, player):
    """Explicit sum over all pure profiles; the independence oracle."""
    total = 0.0
    for profile in itertools.product(*(range(n) for n in game.shape)):
        prob = 1.0
        for j, a in enumerate(profile):
            prob *= marginals[j][a]
        total += prob * game.utilities[player][profile]
    return total


def test_expected_utility_rps_uniform(rps):
    assert expected_utility(rps, uniform_product(rps), 0) == pytest.approx(0.0)


def test_expected_utility_chicken_mixed_ne(chicken):
    ne = ProductProfile((np.array([11 / 12, 1 / 12]),) * 2)
    assert expected_utility(chicken, ne, 0) == pytest.approx(-1 / 12)
    assert expected_utility(chicken, ne, 1) == pytest.approx(-1 / 12)


def test_expected_utility_degenerate_single_action():
    game = Game(("a", "b"), (("x",), ("y",)), (np.array([[3.5]]), np.array([[0.0]])))
    prof = ProductProfile((np.array([1.0]), np.array([1.0])))
    assert expected_utility(game, prof, 0) == pytest.approx(3.5)


def test_deviation_payoff_rps_uniform(rps):
    dev = deviation_payoff(rps, uniform_product(rps), 0)
    assert np.allclose(dev, 0.0)


def test_deviation_payoff_chicken_both_swerve(chicken):
    prof = ProductProfile((np.array([1.0, 0.0]), np.array([1.0, 0.0])))
    assert np.allclose(deviation_payoff(chicken, prof, 0), [0.0, 1.0])


def test_deviation_payoff_column_readoff():
    u1 = np.array([[1.0, 2.0], [3.0, 4.0]])
    game = Game(("r", "c"), (("a", "b"), ("l", "r")), (u1, np.zeros((2, 2))))
    prof = ProductProfile((np.array([0.5, 0.5]), np.array([0.0, 1.0])))
    assert np.allclose(deviation_payoff(game, prof, 0), [2.0, 4.0])


def test_regret_rps_uniform_all_zero(rps):
    prof = uniform_product(rps)
    for player in range(2):
        for action in range(3):
            assert regret(rps, prof, player, action) == pytest.approx(0.0)


def test_regret_chicken_mixed_ne_zero(chicken):
    ne = ProductProfile((np.array([11 / 12, 1 / 12]),) * 2)
    assert regret(chicken, ne, 0, 0) == pytest.approx(0.0, abs=1e-12)
    assert regret(chicken, ne, 0, 1) == pytest.approx(0.0, abs=1e-12)


def test_regret_chicken_both_swerve_straight(chicken):
    prof = ProductProfile((np.array([1.0, 0.0]), np.array([1.0, 0.0])))
    assert regret(chicken, prof, 0, 1) == pytest.approx(1.0)


def test_exploitability_rps_uniform(rps):
    assert exploitability(rps, uniform_product(rps)) == pytest.approx(0.0)


def test_exploitability_chicken_both_straight(chicken):
    # each player gains 11 by deviating to swerve: -1 vs -12
    prof = ProductProfile((np.array([0.0, 1.0]), np.array([0.0, 1.0])))
    assert exploitability(chicken, prof) == pytest.approx(22.0)


def test_exploitability_chicken_mixed_ne(chicken):
    ne = ProductProfile((np.array([11 / 12, 1 / 12]),) * 2)
    assert exploitability(chicken, ne) == pytest.approx(0.0, abs=1e-6)


def test_exploitability_of_a_nan_joint_is_nan(chicken):
    assert np.isnan(exploitability(chicken, JointDistribution(np.full((2, 2), np.nan))))


@pytest.mark.parametrize("shape", [(2, 3), (3, 3), (2, 3, 4), (4, 4, 3)])
def test_brute_force_oracle_expected_utility(shape):
    game = random_game(shape, seed=hash(shape) % 2**31)
    rng = np.random.default_rng(1)
    prof = ProductProfile(tuple(rng.dirichlet(np.ones(n)) for n in shape))
    for player in range(len(shape)):
        assert expected_utility(game, prof, player) == pytest.approx(
            brute_force_eu(game, prof.marginals, player), abs=1e-12
        )


@pytest.mark.parametrize("shape", [(3, 3), (2, 3, 4)])
def test_product_identity_eu_equals_mass_weighted_devs(shape):
    game = random_game(shape, seed=7)
    rng = np.random.default_rng(2)
    prof = ProductProfile(tuple(rng.dirichlet(np.ones(n)) for n in shape))
    for player in range(len(shape)):
        dev = deviation_payoff(game, prof, player)
        assert float(prof.marginals[player] @ dev) == pytest.approx(
            expected_utility(game, prof, player), abs=1e-10
        )


def test_regret_invariant_to_payoff_shift():
    shape = (3, 4)
    game = random_game(shape, seed=11)
    shifted = Game(
        game.players,
        game.action_labels,
        (game.utilities[0] + 17.5, game.utilities[1]),
    )
    rng = np.random.default_rng(3)
    prof = ProductProfile(tuple(rng.dirichlet(np.ones(n)) for n in shape))
    for action in range(shape[0]):
        assert regret(game, prof, 0, action) == pytest.approx(
            regret(shifted, prof, 0, action), abs=1e-10
        )


def test_factorizing_joint_agrees_with_product():
    shape = (3, 2, 4)
    game = random_game(shape, seed=5)
    rng = np.random.default_rng(4)
    prof = ProductProfile(tuple(rng.dirichlet(np.ones(n)) for n in shape))
    joint = product_to_joint(prof)
    for player in range(3):
        assert expected_utility(game, joint, player) == pytest.approx(
            expected_utility(game, prof, player), abs=1e-10
        )
        assert np.allclose(
            deviation_payoff(game, joint, player),
            deviation_payoff(game, prof, player),
            atol=1e-10,
        )
    assert exploitability(game, joint) == pytest.approx(
        exploitability(game, prof), abs=1e-10
    )


def test_correlated_joint_can_beat_pure_deviations():
    # perfectly correlated coordination: deviating to any fixed action loses
    u = np.eye(2)
    game = Game(("a", "b"), (("x", "y"), ("x", "y")), (u, u))
    joint = JointDistribution(np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert exploitability(game, joint) == pytest.approx(0.0)
    assert regret(game, joint, 0, 0) == pytest.approx(-0.5)


def test_game_validation_errors():
    with pytest.raises(DimensionError):
        Game(("a", "b"), (("x", "x"), ("y",)), (np.zeros((2, 1)), np.zeros((2, 1))))
    with pytest.raises(DimensionError):
        Game(("a", "b"), (("x",), ("y",)), (np.array([[np.nan]]), np.zeros((1, 1))))
    with pytest.raises(DimensionError):
        Game(("a", "b"), (("x",), ("y",)), (np.zeros((1, 2)), np.zeros((1, 2))))
    with pytest.raises(DimensionError, match="at least one player"):
        Game((), (), ())
    with pytest.raises(DimensionError, match="must align"):
        Game(("a", "b"), (("x",),), (np.zeros(1),))
    with pytest.raises(DimensionError, match="at least one action"):
        Game(("a", "b"), (("x",), ()), (np.zeros((1, 0)), np.zeros((1, 0))))


def test_profile_validation():
    with pytest.raises(DimensionError):
        ProductProfile((np.array([0.5, 0.4]),))
    with pytest.raises(DimensionError):
        JointDistribution(np.array([[0.6, 0.6]]))
    with pytest.raises(DimensionError):
        ProductProfile((np.array([-0.1, 1.1]),))
    with pytest.raises(DimensionError, match="must be a vector"):
        ProductProfile((np.full((2, 2), 0.25),))
    with pytest.raises(DimensionError, match="negative entries"):
        JointDistribution(np.array([[-0.1, 1.1]]))


@pytest.mark.parametrize("player", [-1, 2])
def test_player_and_action_indices_checked(rps, player):
    prof = uniform_product(rps)
    for fn in (expected_utility, deviation_payoff):
        with pytest.raises(DimensionError, match=f"player index {player} out of range"):
            fn(rps, prof, player)
    with pytest.raises(DimensionError, match="action index 3 out of range for player 0"):
        regret(rps, prof, 0, 3)


def test_shape_mismatch_raises(rps):
    prof = ProductProfile((np.ones(2) / 2, np.ones(3) / 3))
    with pytest.raises(DimensionError):
        expected_utility(rps, prof, 0)


def test_game_json_round_trip(tmp_path, rps):
    path = tmp_path / "game.json"
    save_game(rps, path)
    back = load_game(path)
    assert back.players == rps.players
    assert back.action_labels == rps.action_labels
    for a, b in zip(back.utilities, rps.utilities):
        assert np.array_equal(a, b)


def test_game_json_rejects_nonfinite(rps):
    data = game_to_dict(rps)
    data["utilities"][0][0] = float("inf")
    with pytest.raises(DimensionError):
        game_from_dict(json.loads(json.dumps(data)))


def test_game_copies_a_writable_array_and_keeps_a_frozen_one():
    # a caller's writable array is copied, so changing it leaves the game
    # as it was; a read-only array that owns its data is kept uncopied
    mine = np.array([[1.0, 2.0]])
    frozen = np.array([[3.0, 4.0]])
    frozen.setflags(write=False)
    game = Game(("a", "b"), (("x",), ("y", "z")), (mine, frozen))
    mine[0, 0] = 9.0
    assert game.utilities[0][0, 0] == 1.0
    assert game.utilities[0] is not mine and not game.utilities[0].flags.writeable
    assert game.utilities[1] is frozen
    # a read-only view does not own its data: its base may still change
    base = np.array([[5.0, 6.0]])
    view = base[:]
    view.setflags(write=False)
    game = Game(("a", "b"), (("x",), ("y", "z")), (view, frozen))
    base[0, 0] = 9.0
    assert game.utilities[0][0, 0] == 5.0
