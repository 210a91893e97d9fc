"""Ratings, rankings, decompositions, and the Elo baseline.

An action's rating is its regret against an equilibrium profile: the
expected gain from deviating to it.  Rankings group actions whose ratings
differ by at most a tie tolerance; the Elo baseline is a Bradley-Terry
maximum-likelihood fit on pairwise expected scores.
"""

import csv
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import DimensionError, ParameterError
from .games import (
    Game,
    JointDistribution,
    ProductProfile,
    all_regrets,
    product_to_joint,
)

ELO_SCALE = 400.0 / math.log(10.0)
DEFAULT_TIE_TOL = 1e-4


def ranks_with_ties(ratings: np.ndarray, labels, tie_tolerance: float = DEFAULT_TIE_TOL):
    """Competition-style ranks (1, 1, 3, ...) with tolerance-grouped ties.

    Actions are ordered by descending rating, alphabetically within a tie
    group; a new group starts when an action's rating falls more than the
    tolerance below its group's leader, which keeps the tie relation
    transitive.
    """
    order = sorted(range(len(ratings)), key=lambda i: (-ratings[i], labels[i]))
    ranks = np.zeros(len(ratings), dtype=int)
    group_start = 0
    leader = None
    for pos, idx in enumerate(order):
        if leader is None or leader - ratings[idx] > tie_tolerance:
            group_start = pos
            leader = ratings[idx]
        ranks[idx] = group_start + 1
    return ranks


@dataclass
class RatingReport:
    """Per-player ratings, equilibrium masses, and tie-grouped ranks.

    ``masses`` is None for a rating that comes from no equilibrium (Elo).
    """

    players: tuple[str, ...]
    labels: tuple[tuple[str, ...], ...]
    ratings: tuple[np.ndarray, ...]
    masses: tuple[np.ndarray, ...] | None
    ranks: tuple[np.ndarray, ...]
    method: str
    tie_tolerance: float

    def player_index(self, name: str) -> int:
        return self.players.index(name)

    def ranking(self, player: int) -> list[str]:
        """Labels of one player's actions, best rating first (ties alphabetical)."""
        lbls = self.labels[player]
        r = self.ratings[player]
        return sorted(lbls, key=lambda s: (-r[lbls.index(s)], s))

    def rank_of(self, player: int, label: str) -> int:
        return int(self.ranks[player][self.labels[player].index(label)])

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "tie_tolerance": self.tie_tolerance,
            "players": list(self.players),
            "tables": [
                {
                    "player": self.players[i],
                    "labels": list(self.labels[i]),
                    "ratings": self.ratings[i].tolist(),
                    "masses": [None] * len(self.labels[i])
                    if self.masses is None
                    else self.masses[i].tolist(),
                    "ranks": self.ranks[i].tolist(),
                }
                for i in range(len(self.players))
            ],
        }

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_dict()))

    def save_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["player", "label", "rating", "mass", "rank"])
            for i, player in enumerate(self.players):
                for j, lbl in enumerate(self.labels[i]):
                    writer.writerow(
                        [
                            player,
                            lbl,
                            repr(float(self.ratings[i][j])),
                            "" if self.masses is None else repr(float(self.masses[i][j])),
                            int(self.ranks[i][j]),
                        ]
                    )


def rate(
    game: Game,
    profile: ProductProfile | JointDistribution,
    method: str,
    tie_tolerance: float = DEFAULT_TIE_TOL,
) -> RatingReport:
    """Rate every action by its regret against ``profile``."""
    regrets = all_regrets(game, profile)
    if isinstance(profile, ProductProfile):
        masses = profile.marginals
    else:
        masses = tuple(
            profile.joint.sum(axis=tuple(j for j in range(game.num_players) if j != i))
            for i in range(game.num_players)
        )
    ranks = tuple(
        ranks_with_ties(regrets[i], game.action_labels[i], tie_tolerance)
        for i in range(game.num_players)
    )
    return RatingReport(
        players=game.players,
        labels=game.action_labels,
        ratings=tuple(np.asarray(r) for r in regrets),
        masses=tuple(np.asarray(m) for m in masses),
        ranks=ranks,
        method=method,
        tie_tolerance=tie_tolerance,
    )


@dataclass
class DecompositionTable:
    """Marginal contributions of one co-player's actions to a rating."""

    player: int
    action: int
    co_player: int
    co_labels: tuple[str, ...]
    contributions: np.ndarray
    rating: float
    families: dict[str, str] | None = None
    family_sums: dict[str, float] | None = None

    def save_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kind", "key", "family", "contribution"])
            fams = self.families or {}
            for lbl, c in zip(self.co_labels, self.contributions):
                writer.writerow(["action", lbl, fams.get(lbl, ""), repr(float(c))])
            for fam, total in (self.family_sums or {}).items():
                writer.writerow(["family_total", fam, fam, repr(float(total))])
            writer.writerow(["total", "", "", repr(float(self.rating))])


def decompose(
    game: Game,
    profile: ProductProfile | JointDistribution,
    player: int,
    action: int,
    co_player: int,
    grouping: dict[str, str] | None = None,
) -> DecompositionTable:
    """Split an action's rating into per-co-player-action contributions.

    Contribution of co-action ``a_j`` is the joint-weighted payoff gain of
    deviating to ``action`` summed over profiles where j plays ``a_j``;
    the contributions sum exactly to the action's rating.
    """
    if player == co_player:
        raise ParameterError("co_player must differ from the rated player")
    n = game.num_players
    if not (0 <= player < n and 0 <= co_player < n):
        raise DimensionError("player index out of range")
    if not 0 <= action < game.num_actions(player):
        raise DimensionError("action index out of range")
    joint = profile if isinstance(profile, JointDistribution) else product_to_joint(profile)
    if joint.joint.shape != game.shape:
        raise DimensionError("profile shape does not match game")
    u = game.utilities[player]
    deviated = np.take(u, [action], axis=player)  # broadcasts over axis `player`
    gain = (deviated - u) * joint.joint
    axes = tuple(k for k in range(n) if k != co_player)
    contributions = gain.sum(axis=axes)
    rating = float(contributions.sum())
    families = None
    family_sums = None
    if grouping is not None:
        families = dict(grouping)
        family_sums = {}
        for lbl, c in zip(game.action_labels[co_player], contributions):
            fam = grouping.get(lbl, lbl)
            family_sums[fam] = family_sums.get(fam, 0.0) + float(c)
    return DecompositionTable(
        player=player,
        action=action,
        co_player=co_player,
        co_labels=game.action_labels[co_player],
        contributions=contributions,
        rating=rating,
        families=families,
        family_sums=family_sums,
    )


def elo_ratings(
    win_matrix: np.ndarray,
    lambda_reg: float = 1e-6,
    scale: float = ELO_SCALE,
) -> np.ndarray:
    """Bradley-Terry maximum-likelihood ratings from expected scores.

    ``win_matrix[i, j]`` is i's expected score against j in [0, 1] with
    ``w_ij + w_ji = 1`` and 0.5 on the diagonal.  Ratings maximize the
    L2-regularized log-likelihood, are anchored to mean zero, and scaled
    for Elo-style display (one scale unit per nat of log-odds / ln 10
    per 400 points).  The regularizer keeps degenerate all-win matrices
    finite; an all-0.5 matrix yields all-zero ratings.
    """
    w = np.asarray(win_matrix, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise DimensionError("win matrix must be square")
    if np.any(w < -1e-9) or np.any(w > 1 + 1e-9):
        raise ParameterError("expected scores must lie in [0, 1]")
    if not np.allclose(np.diag(w), 0.5, atol=1e-6):
        raise ParameterError("win matrix diagonal must be 0.5")
    if not np.allclose(w + w.T, 1.0, atol=1e-6):
        raise ParameterError("win matrix must satisfy w_ij + w_ji = 1")
    m = w.shape[0]
    if m == 1:
        return np.zeros(1)
    off = ~np.eye(m, dtype=bool)

    def neg_loglik(r):
        diff = r[:, None] - r[None, :]
        # log sigma(d) = -log(1 + exp(-d)), stably
        logsig = -np.logaddexp(0.0, -diff)
        return -float(np.sum(w[off] * logsig[off])) + lambda_reg * float(r @ r)

    def grad(r):
        diff = r[:, None] - r[None, :]
        sig = 1.0 / (1.0 + np.exp(-diff))
        # d/dr_i of the pair (i,j) term is w_ij * sigma(r_j - r_i); of (j,i) is -w_ji * sigma(r_i - r_j)
        g = -(w * (1.0 - sig)).sum(axis=1) + (w.T * sig).sum(axis=1)
        return g + 2.0 * lambda_reg * r

    res = minimize(neg_loglik, np.zeros(m), jac=grad, method="L-BFGS-B")
    r = res.x - res.x.mean()
    return r * scale


def separability(u_king: np.ndarray, prompt: int) -> float:
    """Mean absolute pairwise model margin induced by one prompt.

    ``u_king`` is the (prompts x models x models) king payoff tensor; the
    mean runs over all ordered model pairs including self-pairs.
    """
    u = np.asarray(u_king, dtype=float)
    if u.ndim != 3 or u.shape[1] != u.shape[2]:
        raise DimensionError("expected a prompts x models x models tensor")
    if not 0 <= prompt < u.shape[0]:
        raise DimensionError("prompt index out of range")
    return float(np.abs(u[prompt]).mean())
