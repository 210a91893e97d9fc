"""Per-player reference implementations that the solvers' flat, buffered
code is checked against: the logit soft best response, the QRE loss and
residual over a product profile, the CCE dual's logit tensor and loss
over the per-player multipliers, and its Hessian from one gain row over
the whole joint per multiplier.  None of them runs in the solvers.
Also the row-by-row ``csv.reader`` parse that the bulk preference CSV
reader must match, and the old method of the affinity targets, kept as a
reference: projected gradient stepped by a 50-round power iteration's
estimate of the Lipschitz constant, where the maximizer now steps by a
row-sum bound.
"""

import csv

import numpy as np
from scipy.special import logsumexp, softmax

from eqrate.errors import DimensionError, ParameterError
from eqrate.games import Game, ProductProfile, deviation_payoff
from eqrate.kernels import (
    DEFAULT_VARIANCE,
    dissimilarity_factorized,
    dissimilarity_joint,
    project_simplex,
    similarity_kernel,
)
from eqrate.koth import PreferenceTable
from eqrate.solvers import _validate_targets


def qre_best_response(
    game: Game, profile, player: int, tau: float, target: np.ndarray
) -> np.ndarray:
    """Softened best response ``softmax(dev/tau + log target)``."""
    if tau <= 0:
        raise ParameterError("tau must be positive")
    target = np.asarray(target, dtype=float)
    if np.any(target <= 0):
        raise ParameterError("target must be strictly positive")
    dev = deviation_payoff(game, profile, player)
    return softmax(dev / tau + np.log(target))


def qre_loss(game: Game, profile: ProductProfile, tau: float, targets) -> float:
    """Summed gap between each player's soft best-response value and its
    current KL-regularized payoff; zero exactly at a QRE of temperature tau."""
    if tau <= 0:
        raise ParameterError("tau must be positive")
    targets = _validate_targets(game, targets)
    total = 0.0
    for i in range(game.num_players):
        dev = deviation_payoff(game, profile, i)
        logt = np.log(targets[i])
        x = profile.marginals[i]
        best = tau * logsumexp(dev / tau + logt)
        lx = np.where(x > 0, np.log(np.maximum(x, 1e-300)), 0.0)
        kl = float(np.sum(np.where(x > 0, x * (lx - logt), 0.0)))
        total += best - float(x @ dev) + tau * kl
    return float(total)


def qre_residual(game: Game, profile: ProductProfile, tau: float, targets) -> float:
    """Max-norm distance of each marginal from its soft best response."""
    targets = _validate_targets(game, targets)
    worst = 0.0
    for i in range(game.num_players):
        br = qre_best_response(game, profile, i, tau, targets[i])
        worst = max(worst, float(np.abs(profile.marginals[i] - br).max()))
    return worst


def cce_dual_logit(game: Game, alphas, target_log_joint: np.ndarray) -> np.ndarray:
    """Logit tensor of the dual: the target log-joint tilted by the
    payoff-weighted deviation multipliers."""
    t = np.asarray(target_log_joint, dtype=float)
    if t.shape != game.shape:
        raise DimensionError("target log joint shape mismatch")
    logit = t.copy()
    for i in range(game.num_players):
        a = np.asarray(alphas[i], dtype=float)
        if a.shape != (game.num_actions(i),):
            raise DimensionError(f"alpha {i} has wrong length")
        if np.any(a < 0):
            raise ParameterError("alphas must be nonnegative")
        u = game.utilities[i]
        gains = np.tensordot(a, np.moveaxis(u, i, 0), axes=(0, 0))
        logit -= np.expand_dims(gains, i) - a.sum() * u
    return logit


def _cce_loss_alpha(game: Game, alphas, t: np.ndarray) -> float:
    """Dual loss as a function of the nonnegative multipliers; convex."""
    return float(logsumexp(cce_dual_logit(game, alphas, t)))


def cce_hessian(game: Game, joint: np.ndarray, free, regrets) -> np.ndarray:
    """The CCE dual's Hessian on the flat multiplier indices ``free``, whose
    regrets are ``regrets``: the covariance under ``joint`` of each index's
    gain row ``u_i(a, x_-i) - u_i(x)``, built over the whole joint, as the
    Newton finish first did."""
    offsets = np.cumsum([0, *game.shape])
    rows = []
    for j in free:
        i = int(np.searchsorted(offsets, j, side="right")) - 1
        u = game.utilities[i]
        rows.append((np.take(u, [j - offsets[i]], axis=i) - u).ravel())
    gain = np.array(rows).reshape(len(rows), joint.size)
    return (gain * joint.ravel()) @ gain.T - np.outer(regrets, regrets)


def lipschitz_50(U: np.ndarray) -> float:
    """Twice the top eigenvalue of ``U'U`` after 50 rounds of power
    iteration."""
    n = U.shape[0]
    v = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(50):
        w = U.T @ (U @ v)
        nw = np.linalg.norm(w)
        if nw == 0:
            break
        v = w / nw
    return 2.0 * max(float(v @ (U.T @ (U @ v))), 1e-12)


def max_entropy_pg(U: np.ndarray, eta: float, tolerance: float, max_iters: int) -> np.ndarray:
    """``kernels.max_affinity_entropy``'s accelerated projected gradient on
    the unit-column kernel U with step eta, one numpy call at a time as it
    was first written."""
    n = U.shape[0]
    x = np.full(n, 1.0 / n)
    y = x
    t_mom = 1.0
    for _ in range(max_iters):
        grad = 2.0 * (U.T @ (U @ y))
        nxt = project_simplex(y - eta * grad)
        if np.abs(nxt - x).max() / eta <= tolerance:
            return nxt
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
        momentum = (t_mom - 1.0) / t_next
        step = nxt - x
        if float(grad @ step) > 0:
            t_next, momentum = 1.0, 0.0
        y = nxt + momentum * step
        x = nxt
        t_mom = t_next
    raise AssertionError("projected gradient did not converge")


def max_entropy_pg_50(K: np.ndarray, tolerance: float, max_iters: int) -> np.ndarray:
    """``kernels.max_affinity_entropy`` as it was, stepped by
    ``1 / lipschitz_50`` instead of the row-sum bound."""
    U = K / np.sqrt((K * K).sum(axis=0))
    return max_entropy_pg(U, 1.0 / lipschitz_50(U), tolerance, max_iters)


def affinity_targets_50(
    game: Game, variance: float = DEFAULT_VARIANCE, mode: str = "joint"
) -> tuple[np.ndarray, ...]:
    """``kernels.affinity_targets`` through ``max_entropy_pg_50``."""
    dissimilarity = dissimilarity_joint if mode == "joint" else dissimilarity_factorized
    out = []
    for i in range(game.num_players):
        K = similarity_kernel(dissimilarity(game, i), variance)
        t = max_entropy_pg_50(K, 1e-7, 100_000)
        t = np.maximum(t, 1e-6)
        out.append(t / t.sum())
    return tuple(out)


def read_preference_rows(path) -> PreferenceTable:
    """``koth.read_preference_csv`` one ``csv.reader`` row at a time."""
    required = ("prompt_id", "model_a", "model_b", "score")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not set(required).issubset(header):
            raise ParameterError(f"preference CSV must have columns {sorted(required)}")
        at = [max(i for i, name in enumerate(header) if name == col) for col in required]
        rows = []
        for row in filter(None, reader):
            if len(row) <= max(at):
                raise ParameterError(
                    f"{path}, line {reader.line_num}: {len(row)} fields, too few to reach the columns {list(required)}"
                )
            rows.append([row[c] for c in at])
    p, a, b, s = zip(*rows) if rows else ((), (), (), ())
    return PreferenceTable(p, a, b, [float(x) for x in s])
