"""Strategic dissimilarity, similarity kernels, and affinity entropy.

The affinity entropy of a distribution ``x`` is ``1 - ||U x||^2``, where
``U`` is the RBF similarity kernel ``K`` of the actions' payoff
dissimilarity with each column scaled to unit 2-norm; with ``K`` the
identity it is the Tsallis entropy ``1 - ||x||^2``.  Cloned actions have
equal columns, so they share entropy mass instead of multiplying it.  Its
maximizer is the target distribution used by the equilibrium solvers.
It is found by accelerated projected gradient with a step of one over a
row-sum bound on the gradient's Lipschitz constant: for the entrywise
nonnegative ``|U|'|U|`` the largest row sum bounds the top eigenvalue of
``U'U`` from above, so the step is never longer than the one convergence
allows.
"""

import itertools
import math

import numpy as np

from .errors import ConvergenceError, DimensionError, ParameterError
from .games import Game

DEFAULT_VARIANCE = 1e-6  # the (2*sigma)^2 denominator of the RBF kernel
TARGET_TOLERANCE = 1e-7  # of the targets' maximizer
TARGET_FLOOR = 1e-6  # the least mass of a target entry


def _finite(D: np.ndarray, player: int) -> np.ndarray:
    """``D``, unless payoffs too large for float64 made it overflow."""
    if not np.isfinite(D).all():
        raise ParameterError(f"player {player}'s payoff dissimilarity overflows float64; rescale the payoffs")
    return D


def _pairwise_sq(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared row distances and squared row-sum differences via Gram tricks."""
    g = rows @ rows.T
    d = np.diag(g)
    sq = d[:, None] + d[None, :] - 2.0 * g
    s = rows.sum(axis=1)
    return np.maximum(sq, 0.0), (s[:, None] - s[None, :]) ** 2


def dissimilarity_joint(game: Game, player: int) -> np.ndarray:
    """Expected squared payoff gap between two actions of ``player``.

    The expectation is over a uniform (Dirichlet(1)) distribution on joint
    co-player profiles, which has the closed form
    ``(||U_a - U_b||^2 + (1'(U_a - U_b))^2) / ((d+1)(d+2))`` where ``U`` is
    the matrix of ``player``'s payoffs against each pure co-profile and
    ``d`` the number of co-profiles.  Symmetric with a zero diagonal.
    Payoffs whose gaps overflow float64 raise ``ParameterError``.
    """
    if not 0 <= player < game.num_players:
        raise DimensionError(f"player index {player} out of range")
    rows = np.moveaxis(game.utilities[player], player, 0)
    rows = rows.reshape(game.num_actions(player), -1)
    d = rows.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        sq, sums = _pairwise_sq(rows)
        out = (sq + sums) / ((d + 1.0) * (d + 2.0))
    np.fill_diagonal(out, 0.0)
    return _finite(out, player)


def dissimilarity_factorized(game: Game, player: int) -> np.ndarray:
    """Like :func:`dissimilarity_joint` but co-players mix independently.

    Averages over a product of per-player Dirichlet(1) profiles instead of
    a single joint one.  The closed form is a double sum over co-profile
    pairs weighted by ``2**(#matching actions)``; expanding that weight as
    a sum over subsets S of co-players turns each term into a Gram matrix
    of the payoff-difference tensor marginalized onto S.  Coincides with
    the joint version when there is a single co-player.
    """
    if not 0 <= player < game.num_players:
        raise DimensionError(f"player index {player} out of range")
    u = np.moveaxis(game.utilities[player], player, 0)
    n = u.shape[0]
    co_shape = u.shape[1:]
    co_axes = list(range(1, u.ndim))
    total = np.zeros((n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for keep in itertools.chain.from_iterable(
            itertools.combinations(co_axes, k) for k in range(len(co_axes) + 1)
        ):
            drop = tuple(a for a in co_axes if a not in keep)
            rows = u.sum(axis=drop).reshape(n, -1) if drop else u.reshape(n, -1)
            sq, _ = _pairwise_sq(rows)
            total += sq
    scale = 1.0
    for dj in co_shape:
        scale /= (dj + 1.0) * (dj + 2.0)
    out = total * scale
    np.fill_diagonal(out, 0.0)
    return _finite(np.maximum(out, 0.0), player)


def similarity_kernel(D: np.ndarray, variance: float) -> np.ndarray:
    """RBF kernel ``K = exp(-D / variance)`` with an exactly-unit diagonal.

    ``variance`` is the squared denominator ``(2*sigma)^2`` itself, which
    sidesteps the sigma-vs-sigma^2 ambiguity of a bandwidth.  A ``D /
    variance`` past float64's range is an entry of 0; a kernel that is not
    finite, from a NaN or a large negative ``D``, raises ``ParameterError``.
    """
    if not variance > 0:
        raise ParameterError(f"kernel variance must be positive, not {variance}")
    D = np.asarray(D, dtype=float)
    with np.errstate(over="ignore"):
        K = np.exp(-D / variance)
    np.fill_diagonal(K, 1.0)
    if not np.isfinite(K).all():
        raise ParameterError("the similarity kernel is not finite")
    return K


def affinity_entropy(K: np.ndarray, x: np.ndarray) -> float:
    """``1 - ||U x||^2``; nonnegative on the simplex."""
    y = _unit_columns(K) @ np.asarray(x, dtype=float)
    return float(1.0 - y @ y)


def _unit_columns(K: np.ndarray) -> np.ndarray:
    """``U``: ``K`` with each column scaled to unit 2-norm."""
    return K / np.power(K, 2.0).sum(axis=0) ** 0.5


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ind = np.arange(1, len(v) + 1)
    # u - c > 0 exactly when u > c: a difference of distinct floats is
    # never rounded to 0
    rho = np.count_nonzero(u > css / ind)
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def max_affinity_entropy(
    K: np.ndarray, tolerance: float = 1e-8, max_iters: int = 100_000
) -> np.ndarray:
    """Maximize the affinity entropy of kernel ``K`` over the simplex.

    The negated entropy is, up to a constant, the convex simplex QP
    ``min ||U x||^2``, solved by accelerated projected gradient to a
    projected-gradient residual of ``tolerance``.  Projection pins boundary
    coordinates exactly; Nesterov momentum (with gradient restarts) handles
    the ill-conditioned kernels of clusters of nearly-identical actions.

    The gradient ``2 U'U x`` has Lipschitz constant ``L``, twice the top
    eigenvalue of ``U'U``, and the step is ``1 / (2 r)`` with ``r`` the
    largest row sum of ``|U|'|U|``.  The spectral radius of a matrix is at
    most its largest absolute row sum, and ``|U'U| <= |U|'|U|`` entrywise, so
    ``2 r >= L`` and the step never exceeds ``1/L``, as the accelerated
    method's convergence needs (Beck & Teboulle 2009).  It takes two
    matvecs.  The RBF kernel is nonnegative, so there ``|U| = U``; the
    absolute value keeps the bound for any caller's kernel.  With ``K`` the
    identity the bound is exact and the first step lands on the uniform
    maximizer.
    """
    U = _unit_columns(K)
    n = U.shape[0]
    A = np.abs(U)
    eta = 1.0 / (2.0 * float(np.max(A.T @ A.sum(axis=1))))
    x = y = np.full(n, 1.0 / n)
    t_mom, residual = 1.0, np.inf
    # the gradient of the negated (affine-shifted) entropy is 2 U'U y; the
    # loop takes its half and steps by 2 eta: doubling is exact, so the step
    # is the one by eta to the bit
    twice_eta = 2.0 * eta
    for _ in range(max_iters):
        half = np.dot(U.T, np.dot(U, y))
        nxt = project_simplex(y - twice_eta * half)
        step = nxt - x
        residual = np.maximum.reduce(np.abs(step)) / eta
        if residual <= tolerance:
            return nxt
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
        momentum = (t_mom - 1.0) / t_next
        if np.dot(half, step) > 0:  # momentum points uphill: restart
            t_next, momentum = 1.0, 0.0
        y = nxt + momentum * step
        x, t_mom = nxt, t_next
    raise ConvergenceError(
        f"max_affinity_entropy: projected-gradient residual {residual:.3e} "
        f"> {tolerance:.1e} after {max_iters} iterations",
        iterate=x,
        gradient_norm=float(residual),
    )


def affinity_targets(
    game: Game, variance: float = DEFAULT_VARIANCE, mode: str = "joint"
) -> tuple[np.ndarray, ...]:
    """Per-player max-affinity-entropy distributions, the solver targets.

    Each player's kernel comes from its ``mode`` ("joint" or "factorized")
    dissimilarity at ``variance``.  ``TARGET_TOLERANCE`` is looser than the
    maximizer's default: targets only bias the equilibrium trace.  Entries
    are floored at ``TARGET_FLOOR`` and renormalized, since maximizers may
    put zero mass on dominated actions and targets feed KL terms.
    """
    dissimilarity = {"joint": dissimilarity_joint, "factorized": dissimilarity_factorized}.get(mode)
    if dissimilarity is None:
        raise ParameterError(f"unknown dissimilarity mode {mode!r}")
    out = []
    for i in range(game.num_players):
        K = similarity_kernel(dissimilarity(game, i), variance)
        t = np.maximum(max_affinity_entropy(K, tolerance=TARGET_TOLERANCE), TARGET_FLOOR)
        out.append(t / t.sum())
    return tuple(out)
