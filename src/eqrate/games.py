"""Normal-form games, strategy profiles, expected utilities and regrets.

A game holds one dense payoff tensor per player, all sharing the shape
``(|A_1|, ..., |A_N|)`` over joint action profiles.  Strategy profiles come
in two flavours: a :class:`ProductProfile` of independent per-player
marginals, and a :class:`JointDistribution` over full action profiles
(allowing correlation).  All types are immutable after construction and all
operations are pure functions, so everything is safe to share across
threads.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError

PROB_TOL = 1e-9


def _freeze(a: np.ndarray) -> np.ndarray:
    """``a`` as a read-only float64 array.  One that is already read-only
    and owns its data, as the game readers build, is kept as is; anything
    else is copied, so a caller's writable array cannot change the game."""
    if isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.owndata and not a.flags.writeable:
        return a
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Game:
    """An N-player normal-form game with labeled actions.

    players: one name per player.
    action_labels: per player, the labels of its actions (unique within a
        player).
    utilities: per player, a payoff tensor of shape
        ``(len(action_labels[0]), ..., len(action_labels[N-1]))``.
    """

    players: tuple[str, ...]
    action_labels: tuple[tuple[str, ...], ...]
    utilities: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "players", tuple(self.players))
        object.__setattr__(
            self, "action_labels", tuple(tuple(lbls) for lbls in self.action_labels)
        )
        object.__setattr__(self, "utilities", tuple(_freeze(u) for u in self.utilities))
        n = len(self.players)
        if n < 1:
            raise DimensionError("a game needs at least one player")
        if len(self.action_labels) != n or len(self.utilities) != n:
            raise DimensionError("players, action_labels and utilities must align")
        shape = tuple(len(lbls) for lbls in self.action_labels)
        if any(s < 1 for s in shape):
            raise DimensionError("every player needs at least one action")
        for i, lbls in enumerate(self.action_labels):
            if len(set(lbls)) != len(lbls):
                raise DimensionError(f"duplicate action labels for player {i}")
        for i, u in enumerate(self.utilities):
            if u.shape != shape:
                raise DimensionError(
                    f"utility tensor {i} has shape {u.shape}, expected {shape}"
                )
            if not np.all(np.isfinite(u)):
                raise DimensionError(f"utility tensor {i} contains NaN/Inf")

    @property
    def num_players(self) -> int:
        return len(self.players)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.utilities[0].shape

    def num_actions(self, player: int) -> int:
        return self.shape[player]


@dataclass(frozen=True)
class ProductProfile:
    """Independent mixed strategies, one probability vector per player."""

    marginals: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "marginals", tuple(_freeze(x) for x in self.marginals))
        for i, x in enumerate(self.marginals):
            if x.ndim != 1:
                raise DimensionError(f"marginal {i} must be a vector")
            if np.any(x < -PROB_TOL):
                raise DimensionError(f"marginal {i} has negative entries")
            if abs(x.sum() - 1.0) > PROB_TOL:
                raise DimensionError(f"marginal {i} sums to {x.sum()}, not 1")


@dataclass(frozen=True)
class JointDistribution:
    """A single distribution over full action profiles (may correlate)."""

    joint: np.ndarray = field()

    def __post_init__(self):
        object.__setattr__(self, "joint", _freeze(self.joint))
        if np.any(self.joint < -PROB_TOL):
            raise DimensionError("joint distribution has negative entries")
        if abs(self.joint.sum() - 1.0) > PROB_TOL:
            raise DimensionError(f"joint distribution sums to {self.joint.sum()}, not 1")


Profile = ProductProfile | JointDistribution


def product_to_joint(profile: ProductProfile) -> JointDistribution:
    """Lift a product profile to its (rank-one) joint distribution."""
    joint = np.array(1.0)
    for x in profile.marginals:
        joint = np.multiply.outer(joint, x)
    return JointDistribution(joint.reshape([len(x) for x in profile.marginals]))


def _check_profile(game: Game, profile: Profile) -> None:
    if isinstance(profile, ProductProfile):
        shape = tuple(len(x) for x in profile.marginals)
    else:
        shape = profile.joint.shape
    if shape != game.shape:
        raise DimensionError(f"profile shape {shape} does not match game {game.shape}")


def _check_player(game: Game, player: int) -> None:
    if not 0 <= player < game.num_players:
        raise DimensionError(f"player index {player} out of range")


def expected_utility(game: Game, profile: Profile, player: int) -> float:
    """Expected payoff to ``player`` when actions are drawn from ``profile``."""
    _check_profile(game, profile)
    _check_player(game, player)
    u = game.utilities[player]
    if isinstance(profile, JointDistribution):
        return float(np.sum(u * profile.joint))
    # product profile: contract one marginal at a time
    out = u
    for x in reversed(profile.marginals):
        out = out @ x
    return float(out)


def deviation_payoff(game: Game, profile: Profile, player: int) -> np.ndarray:
    """Expected payoff of each pure deviation for ``player``.

    Entry ``a`` is the payoff of playing ``a`` while co-players follow the
    profile (for a joint distribution, its marginal over co-profiles).
    """
    _check_profile(game, profile)
    _check_player(game, player)
    u = np.moveaxis(game.utilities[player], player, 0)
    n = game.num_actions(player)
    if isinstance(profile, JointDistribution):
        co = profile.joint.sum(axis=player)
        return u.reshape(n, -1) @ co.ravel()
    out = u
    for j in reversed([j for j in range(game.num_players) if j != player]):
        axis = j + 1 if j < player else j
        out = np.moveaxis(out, axis, -1) @ profile.marginals[j]
    return out


def regret(game: Game, profile: Profile, player: int, action: int) -> float:
    """Gain for ``player`` from deviating to pure ``action``.

    This scalar is the action's equilibrium rating.
    """
    if not 0 <= action < game.num_actions(player):
        raise DimensionError(f"action index {action} out of range for player {player}")
    dev = deviation_payoff(game, profile, player)
    return float(dev[action] - expected_utility(game, profile, player))


def all_regrets(game: Game, profile: Profile) -> list[np.ndarray]:
    """Regret vector for every player (each entry an action's rating)."""
    out = []
    for i in range(game.num_players):
        dev = deviation_payoff(game, profile, i)
        out.append(dev - expected_utility(game, profile, i))
    return out


def exploitability(game: Game, profile: Profile) -> float:
    """Sum over players of the (clipped) maximum deviation gain.

    Zero iff the profile is an exact CCE (an exact NE when the profile is a
    product).  Per-player gains are clipped below at zero so approximate
    profiles never report negative exploitability; a NaN gain stays NaN.
    """
    total = 0.0
    for r in all_regrets(game, profile):
        total += max(float(r.max()), 0.0)
    return total


def game_to_dict(game: Game) -> dict:
    """JSON-ready dict: flat row-major utilities, one array per player."""
    return {
        "players": list(game.players),
        "actions": [list(lbls) for lbls in game.action_labels],
        "utilities": [u.ravel().tolist() for u in game.utilities],
        "shape": list(game.shape),
    }


def game_from_dict(data: dict) -> Game:
    shape = tuple(data["shape"])
    return Game(
        players=tuple(data["players"]),
        action_labels=tuple(tuple(a) for a in data["actions"]),
        utilities=tuple(np.asarray(flat, dtype=float).reshape(shape) for flat in data["utilities"]),
    )


def save_game(game: Game, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(game_to_dict(game)))


def load_game(path) -> Game:
    with open(path, encoding="utf-8") as fh:
        return game_from_dict(json.load(fh))
