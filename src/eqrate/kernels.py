"""Strategic dissimilarity, similarity kernels, and affinity entropy.

The affinity entropy is a Tsallis-style entropy evaluated through a
column-normalized similarity kernel, so cloned actions share entropy mass
instead of multiplying it.  Its maximizer is the target distribution used
by the equilibrium solvers.
"""

import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError, ParameterError
from .games import Game, _freeze

DEFAULT_VARIANCE = 1e-6  # the (2*sigma)^2 denominator of the RBF kernel
# rounds of power iteration for the targets' step size
POWER_ROUNDS = 50


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
    """
    if not 0 <= player < game.num_players:
        raise DimensionError(f"player index {player} out of range")
    rows = np.moveaxis(game.utilities[player], player, 0)
    rows = rows.reshape(game.num_actions(player), -1)
    d = rows.shape[1]
    sq, sums = _pairwise_sq(rows)
    out = (sq + sums) / ((d + 1.0) * (d + 2.0))
    np.fill_diagonal(out, 0.0)
    return out


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
    return np.maximum(out, 0.0)


def similarity_kernel(D: np.ndarray, variance: float) -> np.ndarray:
    """RBF kernel ``K = exp(-D / variance)`` with an exactly-unit diagonal.

    ``variance`` is the squared denominator ``(2*sigma)^2`` itself, which
    sidesteps the sigma-vs-sigma^2 ambiguity of a bandwidth.
    """
    if variance <= 0:
        raise ParameterError("kernel variance must be positive")
    D = np.asarray(D, dtype=float)
    K = np.exp(-D / variance)
    np.fill_diagonal(K, 1.0)
    return K


@dataclass(frozen=True)
class AffinityKernel:
    """A similarity kernel with its column-normalized form.

    K: symmetric matrix with unit diagonal and entries in [0, 1].
    p: entropic index in (0, 1].
    variance: the RBF denominator the kernel was built with (0 when K was
        supplied directly).
    U: ``K`` with each column scaled to unit (p+1)-norm.
    """

    K: np.ndarray
    p: float
    variance: float
    U: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "K", _freeze(self.K))
        object.__setattr__(self, "U", _freeze(self.U))

    @classmethod
    def from_matrix(cls, K: np.ndarray, p: float = 1.0, variance: float = 0.0):
        K = np.asarray(K, dtype=float)
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise DimensionError("kernel matrix must be square")
        if not np.allclose(K, K.T, atol=1e-12):
            raise ParameterError("kernel matrix must be symmetric")
        if np.any(K < 0) or np.any(K > 1.0 + 1e-12):
            raise ParameterError("kernel entries must lie in [0, 1]")
        if not np.allclose(np.diag(K), 1.0):
            raise ParameterError("kernel diagonal must be 1")
        if not 0.0 < p <= 1.0:
            raise ParameterError("entropic index p must be in (0, 1]")
        norms = np.power(K, p + 1.0).sum(axis=0) ** (1.0 / (p + 1.0))
        return cls(K=K, p=p, variance=variance, U=K / norms)

    @classmethod
    def from_dissimilarity(
        cls, D: np.ndarray, p: float = 1.0, variance: float = DEFAULT_VARIANCE
    ):
        return cls.from_matrix(similarity_kernel(D, variance=variance), p, variance)

    @classmethod
    def from_game(
        cls,
        game: Game,
        player: int,
        p: float = 1.0,
        variance: float = DEFAULT_VARIANCE,
        mode: str = "joint",
    ):
        if mode == "joint":
            D = dissimilarity_joint(game, player)
        elif mode == "factorized":
            D = dissimilarity_factorized(game, player)
        else:
            raise ParameterError(f"unknown dissimilarity mode {mode!r}")
        return cls.from_dissimilarity(D, p=p, variance=variance)

    @property
    def size(self) -> int:
        return self.K.shape[0]


def affinity_entropy(kernel: AffinityKernel, x: np.ndarray) -> float:
    """``(1/p) * (1 - sum((U x)^(p+1)))``; nonnegative on the simplex."""
    y = kernel.U @ np.asarray(x, dtype=float)
    return float((1.0 - np.power(y, kernel.p + 1.0).sum()) / kernel.p)


def affinity_entropy_gradient(kernel: AffinityKernel, x: np.ndarray) -> np.ndarray:
    """``-((p+1)/p) * U' (U x)^p``; well defined on the simplex interior."""
    p = kernel.p
    y = kernel.U @ np.asarray(x, dtype=float)
    return -((p + 1.0) / p) * (kernel.U.T @ np.power(y, p))


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ind = np.arange(1, len(v) + 1)
    rho = np.count_nonzero(u - css / ind > 0)
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def _max_entropy_pg(kernel: AffinityKernel, tolerance: float, max_iters: int):
    """Accelerated projected gradient for p = 1, where the negated entropy
    is a simplex QP.  Projection pins boundary coordinates exactly and
    Nesterov momentum (with gradient restarts) handles the ill-conditioned
    kernels that arise from clusters of nearly-identical actions.

    The step is the inverse Lipschitz constant of the gradient, twice the
    top eigenvalue of ``U'U``, found by ``POWER_ROUNDS`` rounds of power
    iteration.  Once an iterate repeats one of the last three exactly, the
    iteration has entered a cycle in floating point and the iterate of the
    last round is known, so it stops there: the step is bit for bit that of
    the full run.  A kernel that is the identity cycles from round 1 or 2.
    """
    U = kernel.U
    n = kernel.size
    v = np.full(n, 1.0 / np.sqrt(n))
    recent = deque([v.tobytes()], maxlen=3)  # the last iterates' bits
    for k in range(1, POWER_ROUNDS + 1):
        w = U.T @ (U @ v)
        nw = np.linalg.norm(w)
        if nw == 0:
            break
        v = w / nw
        bits = v.tobytes()
        if bits in recent:
            # rounds k - period to k - 1 repeat until the last one
            period = len(recent) - recent.index(bits)
            v = np.frombuffer(recent[(POWER_ROUNDS - k) % period - period])
            break
        recent.append(bits)
    lip = 2.0 * max(float(v @ (U.T @ (U @ v))), 1e-12)
    eta = 1.0 / lip
    x = np.full(n, 1.0 / n)
    y = x
    t_mom = 1.0
    residual = np.inf
    for _ in range(max_iters):
        grad = 2.0 * (U.T @ (U @ y))  # of the negated (affine-shifted) entropy
        nxt = project_simplex(y - eta * grad)
        residual = np.abs(nxt - x).max() / eta
        if residual <= tolerance:
            return nxt
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
        momentum = (t_mom - 1.0) / t_next
        step = nxt - x
        if float(grad @ step) > 0:  # momentum points uphill: restart
            t_next, momentum = 1.0, 0.0
        y = nxt + momentum * step
        x = nxt
        t_mom = t_next
    raise ConvergenceError(
        f"max_affinity_entropy: projected-gradient residual {residual:.3e} "
        f"> {tolerance:.1e} after {max_iters} iterations",
        iterate=x,
        gradient_norm=float(residual),
    )


def max_affinity_entropy(
    kernel: AffinityKernel,
    tolerance: float = 1e-8,
    max_iters: int = 100_000,
    step: float = 1e-2,
) -> np.ndarray:
    """Maximize the affinity entropy over the simplex.

    The entropy is concave, so any stationary point is a global maximizer.
    For the default entropic index p = 1 this is a simplex-constrained QP,
    solved by projected gradient descent with the simplex-projected
    gradient residual as the stopping criterion.  For p < 1 the gradient
    blows up at the boundary, so exponentiated-gradient (mirror) ascent
    from the uniform distribution keeps iterates interior; its stopping
    criterion is the Frank-Wolfe gap, which bounds the entropy
    suboptimality directly.
    """
    if kernel.p == 1.0:
        return _max_entropy_pg(kernel, tolerance, max_iters)
    n = kernel.size
    x = np.full(n, 1.0 / n)
    for _ in range(max_iters):
        g = affinity_entropy_gradient(kernel, x)
        gap = float(g.max() - x @ g)
        if gap <= tolerance:
            return x
        z = step * g
        x = x * np.exp(z - z.max())
        x = np.maximum(x, 1e-300)
        x /= x.sum()
    g = affinity_entropy_gradient(kernel, x)
    gap = float(g.max() - x @ g)
    raise ConvergenceError(
        f"max_affinity_entropy: optimality gap {gap:.3e} > {tolerance:.1e} "
        f"after {max_iters} iterations",
        iterate=x,
        gradient_norm=gap,
    )


def affinity_targets(
    game: Game,
    p: float = 1.0,
    variance: float = DEFAULT_VARIANCE,
    mode: str = "joint",
    tolerance: float = 1e-7,
    max_iters: int = 100_000,
    floor: float = 1e-6,
) -> tuple[np.ndarray, ...]:
    """Per-player max-affinity-entropy distributions, the solver targets.

    Maximizers may put exactly zero mass on dominated actions; targets feed
    KL terms that need finite logs, so entries are floored at ``floor`` and
    renormalized.  The tolerance is looser than the standalone maximizer's
    default: targets only bias the equilibrium trace.
    """
    out = []
    for i in range(game.num_players):
        kern = AffinityKernel.from_game(game, i, p=p, variance=variance, mode=mode)
        t = max_affinity_entropy(kern, tolerance=tolerance, max_iters=max_iters)
        t = np.maximum(t, floor)
        out.append(t / t.sum())
    return tuple(out)
