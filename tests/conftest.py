import numpy as np
import pytest

from eqrate import koth
from eqrate.games import Game, ProductProfile

RPS_U1 = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
CHICKEN_U1 = np.array([[0.0, -1.0], [1.0, -12.0]])


@pytest.fixture(scope="session")
def rps():
    return Game(
        players=("p1", "p2"),
        action_labels=(("rock", "paper", "scissors"),) * 2,
        utilities=(RPS_U1, -RPS_U1),
    )


@pytest.fixture(scope="session")
def rps_dup_rock():
    """RPS with player 1's rock duplicated."""
    u1 = np.vstack([RPS_U1[0], RPS_U1[0], RPS_U1[1], RPS_U1[2]])
    return Game(
        players=("p1", "p2"),
        action_labels=(
            ("rock1", "rock2", "paper", "scissors"),
            ("rock", "paper", "scissors"),
        ),
        utilities=(u1, -u1),
    )


@pytest.fixture(scope="session")
def chicken():
    return Game(
        players=("p1", "p2"),
        action_labels=(("swerve", "straight"),) * 2,
        utilities=(CHICKEN_U1, CHICKEN_U1.T),
    )


@pytest.fixture(scope="session")
def chicken_dup_straight():
    """Chicken with player 1's straight duplicated."""
    u1 = np.vstack([CHICKEN_U1[0], CHICKEN_U1[1], CHICKEN_U1[1]])
    u2 = np.vstack([CHICKEN_U1.T[0], CHICKEN_U1.T[1], CHICKEN_U1.T[1]])
    return Game(
        players=("p1", "p2"),
        action_labels=(("swerve", "straight1", "straight2"), ("swerve", "straight")),
        utilities=(u1, u2),
    )


def uniform_product(game):
    return ProductProfile(tuple(np.full(n, 1.0 / n) for n in game.shape))


def rank_of(report, player, label):
    """The rank of one action of ``player`` in a rating report."""
    return int(report.ranks[player][report.labels[player].index(label)])


def random_game(shape, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    n = len(shape)
    return Game(
        players=tuple(f"pl{i}" for i in range(n)),
        action_labels=tuple(tuple(f"a{i}_{j}" for j in range(s)) for i, s in enumerate(shape)),
        utilities=tuple(scale * rng.normal(size=shape) for _ in range(n)),
    )


def fold_game():
    """A 4x3 KOTH game of seeded judge scores whose principal QRE branch
    turns steeply between tau 0.122 and 0.116 (the Jacobian's smallest
    singular value dips to 6.5e-3 near tau 0.1185), so a trace over a
    temperature grid stalls there."""
    rng = np.random.default_rng(2)
    models = ["m_a", "m_b", "m_c"]
    records = [
        koth.PreferenceRecord(f"q{p}", models[a], models[b], float(rng.choice(koth.SCORES)))
        for p in range(4)
        for a in range(3)
        for b in range(a + 1, 3)
    ]
    return koth.build_koth(records).game
