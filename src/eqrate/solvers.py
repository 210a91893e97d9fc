"""Equilibrium solvers.

Two selection routes:

* ``solve_lle`` follows the principal branch of logit quantal-response
  equilibria, from the target profile at infinite temperature toward the
  zero-temperature limit (McKelvey & Palfrey 1995), by Newton continuation
  on the QRE fixed point over a geometric temperature grid (Turocy 2005).
  The logits are tilted by per-player target distributions, so a
  max-affinity-entropy target makes the traced equilibrium invariant to
  cloned actions.  A fold of the branch, where no nearby fixed point is
  left at the next temperature, stops the trace with ``ConvergenceError``.
* ``solve_mre_cce`` finds the coarse correlated equilibrium of maximum
  relative entropy to a target joint, by bounded L-BFGS-B on the convex
  dual of the problem.  The result satisfies the KKT conditions: no
  positive regret, and positive multipliers only on zero-regret
  deviations.  A joint whose exploitability fails the final check raises
  ``ConvergenceError``.

``enumerate_nes`` and ``risk_dominance_beliefs`` support multi-equilibrium
analysis: parallel exploitability descent with a diversity regularizer, and
multiplicative belief updates over a set of equilibria.
"""

import json
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize
from scipy.special import logsumexp, softmax

from . import kernels
from .errors import ConvergenceError, DimensionError, ParameterError
from .games import Game, JointDistribution, ProductProfile, deviation_payoff, exploitability

# Solver defaults.
DEFAULT_LEARNING_RATE = 1e-2  # Adam step of the enumeration replicas
DEFAULT_TAU_INIT = 1.0
DEFAULT_TAU_DECAY = 0.95
DEFAULT_TAU_TERMINAL = 1e-2
DEFAULT_EPSILON_NE = 1e-3

# A temperature of the LLE trace is solved once the QRE residual's max-norm
# is at most NEWTON_TOL; Newton converges quadratically there, so this costs
# half an iteration per temperature more than 1e-6 would (286 iterations
# against 243 on an 8x4 KOTH game).  A temperature not solved within
# NEWTON_STAGE_ITERS iterations, or where backtracking shrinks the step below
# NEWTON_MIN_DAMPING without reducing the residual, has stalled: the branch
# has folded back or the iterate left its basin.
NEWTON_TOL = 1e-10
NEWTON_STAGE_ITERS = 30
NEWTON_MIN_DAMPING = 2.0**-30

# The CCE dual is solved until L-BFGS-B's projected gradient, which bounds
# every positive regret and every complementary-slackness residual, is this
# fraction of epsilon_cce.  Stopping at epsilon_cce itself leaves rating
# errors of a few 1e-4, above the rating tie tolerance, so a clone injection
# could move a rank through where the solve happened to stop.
CCE_GTOL_FRACTION = 1e-5


@dataclass(frozen=True)
class QREConfig:
    """Settings of the LLE trace: the temperature grid from ``tau_init``,
    times ``tau_decay``, down to ``tau_terminal``; the early exit
    ``epsilon_ne``; the cap ``max_steps`` on Newton iterations in all; the
    per-player ``targets`` (default: affinity targets); and whether a
    stalled temperature anneals anyway (``force_anneal_on_stall``) instead
    of raising ``ConvergenceError``."""

    tau_init: float = DEFAULT_TAU_INIT
    tau_decay: float = DEFAULT_TAU_DECAY
    tau_terminal: float = DEFAULT_TAU_TERMINAL
    # stop early once the true exploitability is at most this; 0 turns the
    # early exit off, so the trace always runs to tau_terminal
    epsilon_ne: float = DEFAULT_EPSILON_NE
    max_steps: int = 200_000
    targets: tuple[np.ndarray, ...] | None = None
    # past a fold of the QRE branch no nearby fixed point is left, so the
    # corrector stalls; optionally continue annealing from where it stopped
    # instead of raising
    force_anneal_on_stall: bool = False

    def __post_init__(self):
        if self.tau_init <= 0 or self.tau_terminal <= 0:
            raise ParameterError("temperatures must be positive")
        if self.tau_terminal >= self.tau_init:
            raise ParameterError("tau_terminal must be below tau_init")
        if not 0.0 < self.tau_decay < 1.0:
            raise ParameterError("tau_decay must lie in (0, 1)")
        if self.epsilon_ne < 0:
            raise ParameterError("epsilon_ne must be nonnegative")
        if self.max_steps < 1:
            raise ParameterError("max_steps must be at least 1")


@dataclass(frozen=True)
class CCEConfig:
    """Settings of the dual-space CCE solve.

    ``max_steps`` caps the L-BFGS-B iterations; ``epsilon_cce`` is the
    exploitability a returned joint may have at most.
    """

    target_log_joint: np.ndarray | None = None
    max_steps: int = 200_000
    epsilon_cce: float = 1e-3

    def __post_init__(self):
        if self.epsilon_cce < 0:
            raise ParameterError("epsilon_cce must be nonnegative")
        if self.max_steps < 1:
            raise ParameterError("max_steps must be at least 1")
        if self.target_log_joint is not None:
            total = np.exp(self.target_log_joint).sum()
            if not np.isclose(total, 1.0, atol=1e-6):
                raise ParameterError(f"target joint sums to {total}, not 1")


@dataclass
class TraceRecord:
    step: int
    tau: float | None
    loss: float
    exploitability: float


@dataclass
class EquilibriumResult:
    profile: ProductProfile | JointDistribution
    exploitability: float
    trace: list[TraceRecord]
    converged: bool
    method: str
    termination: str
    targets: tuple[np.ndarray, ...] | None = None
    duals: list[np.ndarray] | None = None
    config: dict | None = None
    seed: int | None = None

    def to_dict(self) -> dict:
        if isinstance(self.profile, ProductProfile):
            prof = {
                "type": "product",
                "marginals": [x.tolist() for x in self.profile.marginals],
            }
        else:
            prof = {
                "type": "joint",
                "joint": self.profile.joint.ravel().tolist(),
                "shape": list(self.profile.joint.shape),
            }
        return {
            "method": self.method,
            "profile": prof,
            "exploitability": self.exploitability,
            "converged": self.converged,
            "termination": self.termination,
            "trace": [
                {
                    "step": r.step,
                    "tau": r.tau,
                    "loss": r.loss,
                    "exploitability": r.exploitability,
                }
                for r in self.trace
            ],
            "targets": None
            if self.targets is None
            else [t.tolist() for t in self.targets],
            "config": self.config,
            "seed": self.seed,
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_dict()))


def profile_from_dict(data: dict) -> ProductProfile | JointDistribution:
    """Rebuild the profile stored in an equilibrium result dict."""
    prof = data["profile"]
    if prof["type"] == "product":
        return ProductProfile(tuple(np.asarray(m, dtype=float) for m in prof["marginals"]))
    return JointDistribution(
        np.asarray(prof["joint"], dtype=float).reshape(prof["shape"])
    )


class _Contraction:
    """Pairwise payoff blocks of a game over one flat action vector.

    Every player's actions are laid end to end, player i owning the segment
    ``slices[i]``, so per-player softmax and dot products are segment
    reductions over ``starts``.  For each ordered pair (i, j) the block
    ``E[u_i | a_i, a_j]``, the remaining players mixed independently, is
    kept as rows of player j's stack.  Player i's payoff tensor is stored
    with the remaining players' axes leading, so one ``w @ mat`` refreshes
    the block, ``w`` being the Kronecker product of their marginals; with
    two players the blocks are constant.  ``contract`` and ``pull`` return
    their own buffers, valid until the next call.

    For the Newton corrector the actions split into the largest player's,
    ``big``, and the ``rest``; ``schur_blocks`` gathers the pair blocks
    between and within the two groups.
    """

    def __init__(self, game: Game):
        n, shape = game.num_players, game.shape
        self.sizes = list(shape)
        offsets = np.cumsum([0, *shape])
        self.starts = offsets[:-1]
        self.seg = np.repeat(np.arange(n), shape)
        self.slices = [slice(a, b) for a, b in zip(offsets[:-1], offsets[1:])]
        self._x = np.empty(offsets[-1])
        self._dev = game.utilities[0].astype(float) if n == 1 else np.empty(offsets[-1])
        self._pulled = np.empty(offsets[-1])
        stacks = [np.empty((offsets[-1] - shape[j], shape[j])) for j in range(n)]
        big = int(np.argmax(shape))
        self.big = self.slices[big]
        self.rest = np.flatnonzero(self.seg != big)
        # where each player's segment sits within rest
        at = {i: self.slices[i].start - (shape[big] if i > big else 0) for i in range(n)}
        self.rest_starts = np.array([at[i] for i in range(n) if i != big], dtype=int)
        self.rest_seg = np.repeat(np.arange(n - 1), [s for i, s in enumerate(shape) if i != big])
        self._b_rm = stacks[big]
        self._b_mr = np.empty((shape[big], self.rest.size))
        self._b_rr = np.zeros((self.rest.size, self.rest.size))
        self._gather = []
        self._refresh = []
        for j in range(n):
            row = 0
            for i in range(n):
                if i == j:
                    continue
                block = stacks[j][row : row + shape[i]]
                row += shape[i]
                if j != big:
                    cols = slice(at[j], at[j] + shape[j])
                    dest = self._b_mr if i == big else self._b_rr[at[i] : at[i] + shape[i]]
                    self._gather.append((dest[:, cols], block))
                rest = [k for k in range(n) if k not in (i, j)]
                mat = np.transpose(game.utilities[i], (*rest, i, j)).reshape(-1, block.size)
                if rest:
                    xs = [self._x[self.slices[k]] for k in rest]
                    self._refresh.append((np.ascontiguousarray(mat), xs, block.reshape(-1)))
                else:
                    block[:] = mat.reshape(block.shape)
        # player 0's stack times x_0 is every co-player's deviation payoffs;
        # player 0's own come from its block against player 1
        self._devs = [] if n == 1 else [
            (stacks[0], self._x[self.slices[0]], self._dev[offsets[1] :]),
            (stacks[1][: shape[0]], self._x[self.slices[1]], self._dev[self.slices[0]]),
        ]
        self._pulls = [
            (np.flatnonzero(self.seg != j), stacks[j], self._pulled[self.slices[j]])
            for j in range(n)
        ]

    def schur_blocks(self):
        """The pair blocks at the last ``contract``, gathered into three
        matrices: rest rows by big columns, big rows by rest columns, and
        rest by rest (zero within a player)."""
        for dest, block in self._gather:
            np.copyto(dest, block)
        return self._b_rm, self._b_mr, self._b_rr

    def seg_sum(self, v: np.ndarray) -> np.ndarray:
        return np.add.reduceat(v, self.starts)

    def log_softmax(self, v: np.ndarray):
        """Per-player log-softmax of a flat vector, and each log-partition."""
        peak = np.maximum.reduceat(v, self.starts)
        shifted = v - peak[self.seg]
        lse = np.log(self.seg_sum(np.exp(shifted)))
        return shifted - lse[self.seg], peak + lse

    def contract(self, x: np.ndarray) -> np.ndarray:
        """Refresh every pair block at the flat marginals x; return each
        player's deviation payoffs, flat."""
        np.copyto(self._x, x)
        for mat, xs, out in self._refresh:
            w = xs[0]
            for xk in xs[1:]:
                w = np.kron(w, xk)
            np.matmul(w, mat, out=out)
        for block, xj, out in self._devs:
            np.matmul(block, xj, out=out)
        return self._dev

    def pull(self, d: np.ndarray) -> np.ndarray:
        """Segment j of the result is ``sum over i != j of d_i @ E[u_i | a_i, a_j]``."""
        for idx, stack, out in self._pulls:
            np.matmul(d[idx], stack, out=out)
        return self._pulled

    def regrets(self, x: np.ndarray, dev: np.ndarray) -> np.ndarray:
        return dev - self.seg_sum(x * dev)[self.seg]

    def exploitability(self, x: np.ndarray, dev: np.ndarray) -> float:
        gains = np.maximum.reduceat(self.regrets(x, dev), self.starts)
        return float(np.maximum(gains, 0.0).sum())

    def profile(self, z: np.ndarray) -> ProductProfile:
        """The product profile of the flat logits z."""
        return ProductProfile(tuple(_split(np.exp(self.log_softmax(z)[0]), self.sizes)))


class _Adam:
    def __init__(self, size, lr, b1=0.9, b2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, b1, b2, eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, grad: np.ndarray, z: np.ndarray) -> None:
        """Descend one step from z, in place."""
        self.t += 1
        self.m *= self.b1
        self.m += (1 - self.b1) * grad
        self.v *= self.b2
        self.v += (1 - self.b2) * grad * grad
        mhat = self.m / (1 - self.b1**self.t)
        vhat = self.v / (1 - self.b2**self.t)
        np.sqrt(vhat, out=vhat)
        vhat += self.eps
        mhat *= self.lr
        mhat /= vhat
        z -= mhat


def _split(flat: np.ndarray, sizes) -> list[np.ndarray]:
    return list(np.split(flat, np.cumsum(sizes)[:-1]))


def _validate_targets(game: Game, targets) -> tuple[np.ndarray, ...]:
    if len(targets) != game.num_players:
        raise DimensionError("one target distribution per player required")
    out = []
    for i, t in enumerate(targets):
        t = np.asarray(t, dtype=float)
        if t.shape != (game.num_actions(i),):
            raise DimensionError(f"target {i} has wrong length")
        if np.any(t <= 0):
            raise ParameterError(f"target {i} must be strictly positive")
        if abs(t.sum() - 1.0) > 1e-6:
            raise ParameterError(f"target {i} must be a distribution")
        out.append(t / t.sum())
    return tuple(out)


def uniform_targets(game: Game) -> tuple[np.ndarray, ...]:
    """Max-Shannon-entropy targets; the clone-sensitive ablation."""
    return tuple(np.full(n, 1.0 / n) for n in game.shape)


# ---------------------------------------------------------------------------
# QRE / LLE


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


def _lle_step(ops: _Contraction, z: np.ndarray, tau: float, logt: np.ndarray):
    """Loss, logit-gradient, deviation payoffs and exploitability of the
    annealed best-response-gap objective, flat over every player's actions.

    The chain rule through each opponent's soft best response is exact: the
    gradient of the log-partition value with respect to the deviation
    payoffs is the best response itself.
    """
    logx, _ = ops.log_softmax(z)
    x = np.exp(logx)
    dev = ops.contract(x)
    log_br, lse = ops.log_softmax(dev / tau + logt)
    own = tau * (logx - logt) - dev
    loss = tau * float(lse.sum()) + float(x @ own)
    g = own + ops.pull(np.exp(log_br) - x)
    gz = x * (g - ops.seg_sum(x * g)[ops.seg])
    return loss, gz, dev, ops.exploitability(x, dev)


def _qre_residual(ops: _Contraction, y: np.ndarray, tau: float, logt: np.ndarray):
    """Residual ``F(y) = y - log_softmax_i(dev_i(e^y)/tau + log t_i)`` of the
    logit QRE at tau in log-marginals y, with e^y and each soft best
    response; zero exactly at a QRE.  Leaves the pair blocks at e^y."""
    x = np.exp(y)
    log_br, _ = ops.log_softmax(ops.contract(x) / tau + logt)
    return y - log_br, x, np.exp(log_br)


def _newton_direction(ops: _Contraction, f, x, br, tau: float) -> np.ndarray:
    """Solve ``J d = -f`` for the Jacobian ``J = I - P B diag(x) / tau`` of
    the QRE residual, B holding the pair blocks at x and
    ``P = blockdiag(I - 1 br_i^T)`` the log-softmax derivative.

    No player has a block against itself, so J's diagonal blocks are I; the
    largest player's actions are eliminated by a Schur complement, leaving
    a dense solve over the rest.
    """
    m, r = ops.big, ops.rest
    if r.size == 0:
        return -f
    b_rm, b_mr, b_rr = ops.schur_blocks()
    br_r = br[r]

    def p_rest(b):
        # apply I - 1 br_i^T within each rest player's rows
        return b - np.add.reduceat(br_r[:, None] * b, ops.rest_starts, axis=0)[ops.rest_seg]

    k_rm = p_rest(b_rm) * (x[m] / tau)
    k_mr = (b_mr - br[m] @ b_mr) * (x[r] / tau)
    k_rr = p_rest(b_rr) * (x[r] / tau)
    schur = np.eye(r.size) - k_rr - k_rm @ k_mr
    d_r = np.linalg.solve(schur, -f[r] - k_rm @ f[m])
    d = np.empty_like(f)
    d[r] = d_r
    d[m] = k_mr @ d_r - f[m]
    return d


def _correct(ops: _Contraction, y: np.ndarray, tau: float, logt: np.ndarray, cap: int):
    """Damped Newton on the QRE residual at tau from y, backtracking on
    max|F|.  Returns the last iterate, the iterations taken, and whether
    max|F| reached ``NEWTON_TOL`` within ``cap`` iterations."""
    f, x, br = _qre_residual(ops, y, tau, logt)
    res = np.abs(f).max()
    its = 0
    while res > NEWTON_TOL:
        if its == cap:
            return y, its, False
        d = _newton_direction(ops, f, x, br, tau)
        its += 1
        alpha = 1.0
        while True:
            trial = y + alpha * d
            # an overlong step may overflow e^y; its residual is then nan
            # and the step is halved
            with np.errstate(over="ignore", invalid="ignore"):
                f, x, br = _qre_residual(ops, trial, tau, logt)
            if np.abs(f).max() <= (1.0 - 1e-4 * alpha) * res:
                break
            alpha *= 0.5
            if alpha < NEWTON_MIN_DAMPING:
                return y, its, False
        y, res = trial, np.abs(f).max()
    return y, its, True


def solve_lle(
    game: Game,
    config: QREConfig | None = None,
    init_logits: list[np.ndarray] | None = None,
) -> EquilibriumResult:
    """Trace the principal branch of the logit QRE toward its
    low-temperature limit, the LLE.

    The temperature starts at ``tau_init`` and is multiplied by
    ``tau_decay`` down to ``tau_terminal``.  At each temperature the QRE
    fixed point is solved by damped Newton in the log-marginals, from the
    previous temperature's solution (``_correct``).  A temperature whose
    residual misses ``NEWTON_TOL`` within ``NEWTON_STAGE_ITERS`` iterations
    has stalled: with ``force_anneal_on_stall`` the trace anneals anyway,
    otherwise ``ConvergenceError`` is raised at once.  ``max_steps`` caps
    the Newton iterations in all.  Stops once the terminal temperature is
    solved, or as soon as the start's or a solved temperature's true
    (unregularized) exploitability reaches ``epsilon_ne``; with
    ``epsilon_ne=0`` that early exit is off and the trace always runs to
    ``tau_terminal``.  The trace starts at the target profile, the fixed
    point at infinite temperature; ``init_logits`` warm-starts it elsewhere
    (e.g. a nearby game's solution).  The trace holds the start, one record
    per temperature and the final profile, ``step`` counting Newton
    iterations.  Deterministic.
    """
    config = config or QREConfig()
    if config.targets is None:
        config = replace(config, targets=kernels.affinity_targets(game))
    targets = _validate_targets(game, config.targets)
    logt = np.log(np.concatenate(targets))

    ops = _Contraction(game)
    if init_logits is not None:
        if [len(zi) for zi in init_logits] != ops.sizes:
            raise DimensionError("init_logits shapes do not match game")
        y = ops.log_softmax(np.concatenate([np.asarray(zi, dtype=float) for zi in init_logits]))[0]
    else:
        y = logt.copy()

    tau = config.tau_init
    step = 0
    loss, _, _, exploit = _lle_step(ops, y, tau, logt)
    trace = [TraceRecord(step, tau, loss, exploit)]
    termination = None
    if config.epsilon_ne > 0 and exploit <= config.epsilon_ne:
        termination = "epsilon_ne"
    while termination is None:
        cap = min(NEWTON_STAGE_ITERS, config.max_steps - step)
        y, its, solved = _correct(ops, y, tau, logt, cap)
        step += its
        if not solved and (step >= config.max_steps or not config.force_anneal_on_stall):
            break
        loss, _, _, exploit = _lle_step(ops, y, tau, logt)
        trace.append(TraceRecord(step, tau, loss, exploit))
        if solved and config.epsilon_ne > 0 and exploit <= config.epsilon_ne:
            termination = "epsilon_ne"
        elif tau <= config.tau_terminal * (1 + 1e-12):
            termination = "terminal_tau"
        else:
            tau = max(tau * config.tau_decay, config.tau_terminal)

    profile = ops.profile(y)
    final_exploit = exploitability(game, profile)
    final_loss = qre_loss(game, profile, tau, targets)
    trace.append(TraceRecord(step, tau, final_loss, final_exploit))
    if termination is None:
        reason = (
            f"all {config.max_steps} Newton iterations spent"
            if step >= config.max_steps
            else f"Newton stalled above residual {NEWTON_TOL:g}"
        )
        raise ConvergenceError(
            f"solve_lle: {reason} (tau={tau:.4g}, loss={final_loss:.3e}, "
            f"exploitability={final_exploit:.3e}, step {step})",
            iterate=profile,
            trace=trace,
        )
    return EquilibriumResult(
        profile=profile,
        exploitability=final_exploit,
        trace=trace,
        converged=True,
        method="ne",
        termination=termination,
        targets=targets,
        config={
            "tau_init": config.tau_init,
            "tau_decay": config.tau_decay,
            "tau_terminal": config.tau_terminal,
            "epsilon_ne": config.epsilon_ne,
            "max_steps": config.max_steps,
        },
    )


def qre_residual(game: Game, profile: ProductProfile, tau: float, targets) -> float:
    """Max-norm distance of each marginal from its soft best response."""
    targets = _validate_targets(game, targets)
    worst = 0.0
    for i in range(game.num_players):
        br = qre_best_response(game, profile, i, tau, targets[i])
        worst = max(worst, float(np.abs(profile.marginals[i] - br).max()))
    return worst


# ---------------------------------------------------------------------------
# Max-relative-entropy CCE


def target_log_joint(targets) -> np.ndarray:
    """Log of the product joint of per-player target distributions."""
    logs = [np.log(np.asarray(t, dtype=float)) for t in targets]
    out = logs[0]
    for lt in logs[1:]:
        out = np.add.outer(out, lt)
    return out


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


class _CCEDual:
    """The dual objective over the flat multiplier vector, and its gradient.

    Each player's payoff tensor is kept laid out as ``(A_i, prod(rest))``
    so the deviation gains and deviation payoffs are one matvec apiece.
    """

    def __init__(self, game: Game, target_log_joint: np.ndarray):
        self.game = game
        self.target_log_joint = target_log_joint
        self.sizes = [game.num_actions(i) for i in range(game.num_players)]
        self.perms = [
            np.ascontiguousarray(np.moveaxis(u, i, 0)).reshape(self.sizes[i], -1)
            for i, u in enumerate(game.utilities)
        ]
        self.rest_shapes = [
            tuple(s for k, s in enumerate(game.shape) if k != i) for i in range(game.num_players)
        ]
        self._last = None

    def evaluate(self, flat: np.ndarray):
        """Dual loss, implied joint and every player's deviation regrets."""
        if self._last is not None and np.array_equal(flat, self._last[0]):
            return self._last[1]
        logit = self.target_log_joint.copy()
        for i, a in enumerate(_split(flat, self.sizes)):
            u = self.game.utilities[i]
            gains = (a @ self.perms[i]).reshape(self.rest_shapes[i])
            logit -= np.expand_dims(gains, i) - a.sum() * u
        peak = logit.max()
        x = np.exp(logit - peak)
        total = x.sum()
        lse = float(peak + np.log(total))
        x /= total
        xflat = x.ravel()
        regrets = [
            self.perms[i] @ x.sum(axis=i).ravel() - float(u.ravel() @ xflat)
            for i, u in enumerate(self.game.utilities)
        ]
        # L-BFGS-B reports each iterate after evaluating it; keep that
        # evaluation so recording the iterate costs nothing
        self._last = (flat.copy(), (lse, x, regrets))
        return lse, x, regrets

    def loss_grad(self, flat: np.ndarray):
        """The gradient in the multipliers is minus the deviation regret."""
        lse, _, regrets = self.evaluate(flat)
        return lse, -np.concatenate(regrets)


def solve_mre_cce(
    game: Game,
    config: CCEConfig | None = None,
    init_alphas: list[np.ndarray] | None = None,
) -> EquilibriumResult:
    """Max-relative-entropy CCE via bounded L-BFGS-B on the convex dual.

    The dual variables are one multiplier ``alpha >= 0`` per player and
    deviation action; the joint is the softmax of the target log-joint
    tilted by the multipliers (``cce_dual_logit``), and the dual loss is
    its log-partition.  The gradient of that loss in ``alpha`` is minus the
    deviation regret under the implied joint.  At the minimum the KKT
    conditions hold: every regret is at most zero, and a multiplier is
    positive only where its regret is zero, so the joint is the
    KL-projection of the target onto the CCE polytope.

    L-BFGS-B runs from ``init_alphas`` (default all zero, i.e. the target
    itself) until its projected gradient is ``CCE_GTOL_FRACTION`` of
    ``epsilon_cce``, until the loss stops decreasing in floating point, or
    for ``max_steps`` iterations; the trace holds one record per
    iteration.  The joint is then accepted only if the solve stopped short
    of ``max_steps`` and its exploitability is at most ``epsilon_cce``;
    otherwise ``ConvergenceError`` carries the final iterate and the
    trace.  Deterministic.
    """
    config = config or CCEConfig()
    if config.target_log_joint is None:
        t = target_log_joint(uniform_targets(game))
    else:
        t = np.asarray(config.target_log_joint, dtype=float)
        if t.shape != game.shape:
            raise DimensionError("target log joint shape mismatch")

    dual = _CCEDual(game, t)
    if init_alphas is not None:
        alphas = [np.asarray(a, dtype=float) for a in init_alphas]
        if [len(a) for a in alphas] != dual.sizes:
            raise DimensionError("init_alphas shapes do not match game")
        if any(np.any(a < 0) for a in alphas):
            raise ParameterError("init_alphas must be nonnegative")
        start = np.concatenate(alphas)
    else:
        start = np.zeros(sum(dual.sizes))

    trace: list[TraceRecord] = []

    def record(flat: np.ndarray) -> None:
        lse, _, regrets = dual.evaluate(flat)
        exploit = sum(max(0.0, float(r.max())) for r in regrets)
        trace.append(TraceRecord(len(trace), None, lse, exploit))

    record(start)
    opt = minimize(
        dual.loss_grad,
        start,
        jac=True,
        method="L-BFGS-B",
        bounds=[(0.0, None)] * len(start),
        callback=lambda intermediate_result: record(intermediate_result.x),
        options={
            "maxiter": config.max_steps,
            # an iteration makes at most maxls + 1 = 21 evaluations, so only
            # maxiter binds
            "maxfun": 21 * config.max_steps,
            "gtol": CCE_GTOL_FRACTION * config.epsilon_cce,
            "ftol": 0.0,
        },
    )
    _, x, _ = dual.evaluate(opt.x)
    profile = JointDistribution(x)
    final_exploit = exploitability(game, profile)
    duals = _split(opt.x.copy(), dual.sizes)
    # status 1: an iteration or evaluation cap stopped the solve, so even a
    # feasible joint is not yet the entropy maximiser
    if opt.status == 1 or final_exploit > config.epsilon_cce:
        raise ConvergenceError(
            f"solve_mre_cce: exploitability {final_exploit:.3e} "
            f"(bound {config.epsilon_cce:.1e}) after {opt.nit} iterations: {opt.message}",
            iterate=profile,
            trace=trace,
        )
    return EquilibriumResult(
        profile=profile,
        exploitability=final_exploit,
        trace=trace,
        converged=True,
        method="cce",
        termination="epsilon_cce",
        duals=duals,
        config={
            "max_steps": config.max_steps,
            "epsilon_cce": config.epsilon_cce,
        },
    )


# ---------------------------------------------------------------------------
# Multi-equilibrium enumeration and risk dominance


@dataclass
class EnumerationResult:
    profiles: list[ProductProfile]
    rating_vectors: list[np.ndarray]
    exploitabilities: list[float]
    requested: int
    complete: bool
    min_pairwise_gap: float


def _enum_objective_grad(ops: _Contraction, zs: np.ndarray, weight: float):
    """Summed replica exploitability minus a weighted pairwise rating
    diversity bonus; returns the value and the logit gradient of each
    replica, one flat row per replica of ``zs``."""
    R = len(zs)
    xs = np.exp(np.stack([ops.log_softmax(z)[0] for z in zs]))
    devs = np.stack([ops.contract(x).copy() for x in xs])
    ratings = np.stack([ops.regrets(x, dev) for x, dev in zip(xs, devs)])
    value = sum(ops.exploitability(x, dev) for x, dev in zip(xs, devs))
    diversity_on = weight > 0 and R > 1
    if diversity_on:
        mean_rating = ratings.mean(axis=0)
        sq = float(np.sum(ratings * ratings))
        value -= weight * (R * sq - R * R * float(mean_rating @ mean_rating))
    grads = np.empty_like(zs)
    for r, (x, dev) in enumerate(zip(xs, devs)):
        # player j's gain max(dev_j) - x_j . dev_j moves with x_k along
        # (e_best - x_j) @ E[u_j | a_j, a_k]
        d = -x
        for s in ops.slices:
            d[s.start + int(np.argmax(dev[s]))] += 1.0
        g = -dev
        if diversity_on:
            # d(sum of pairwise sq distances)/d(rating_r) = 2R(rating_r - mean)
            G = 2.0 * R * (ratings[r] - mean_rating)
            G_sum = ops.seg_sum(G)[ops.seg]
            g = g + weight * G_sum * dev
            d -= weight * (G - G_sum * x)
        if R > 1:
            ops.contract(x)  # the blocks still hold the last replica's
        g = g + ops.pull(d)
        grads[r] = x * (g - ops.seg_sum(x * g)[ops.seg])
    return value, grads


def _polish_profile(ops: _Contraction, z: np.ndarray, steps: int, lr: float):
    """Plain exploitability descent from flat logits z; returns the best iterate."""
    adam = _Adam(z.size, lr)
    z = z.copy()
    best_z, best_e = z.copy(), np.inf
    for _ in range(steps):
        e, grads = _enum_objective_grad(ops, z[None], 0.0)
        if e < best_e:
            best_z, best_e = z.copy(), e
        adam.step(grads[0], z)
    return ops.profile(best_z), best_e


def enumerate_nes(
    game: Game,
    count: int,
    diversity_weight: float = 1.0,
    epsilon: float = 1e-3,
    seed: int = 0,
    replicas: int | None = None,
    max_steps: int = 20_000,
    polish_steps: int = 5_000,
    learning_rate: float = DEFAULT_LEARNING_RATE,
    lle_config: QREConfig | None = None,
    dedup_tol: float = 1e-3,
) -> EnumerationResult:
    """Collect up to ``count`` distinct approximate Nash equilibria.

    Element 0 is always the traced low-temperature QRE limit.  Further
    profiles come from descending the summed exploitability of several
    randomly initialized replicas in parallel, regularized toward pairwise
    distinct rating vectors; the diversity weight is annealed to zero over
    the last fifth of the steps and every profile then gets a best-iterate
    polish, so the returned profiles are plain equilibria.  Profiles whose
    rating vectors differ by less than ``dedup_tol`` in L2 are considered
    the same equilibrium.
    """
    if count < 1:
        raise ParameterError("count must be at least 1")
    lle = solve_lle(game, lle_config)
    ops = _Contraction(game)

    lle_z = np.log(np.maximum(np.concatenate(lle.profile.marginals), 1e-300))
    lle_prof, lle_exploit = _polish_profile(ops, lle_z, polish_steps, learning_rate)
    if lle_exploit > lle.exploitability:
        lle_prof, lle_exploit = lle.profile, lle.exploitability

    R = replicas if replicas is not None else max(8, 4 * count)
    rng = np.random.default_rng(seed)
    zs = rng.normal(scale=2.0, size=(R, sum(ops.sizes)))
    adam = _Adam(zs.shape, learning_rate)
    anneal_from = int(0.8 * max_steps)
    for step in range(max_steps):
        if step < anneal_from:
            w = diversity_weight
        else:
            w = diversity_weight * (max_steps - step) / max(1, max_steps - anneal_from)
        _, grads = _enum_objective_grad(ops, zs, w)
        adam.step(grads, zs)

    candidates = [(lle_prof, lle_exploit)]
    for z in zs:
        candidates.append(_polish_profile(ops, z, polish_steps, learning_rate))

    profiles, ratings, exploits = [], [], []
    for pos, (prof, ex) in enumerate(candidates):
        x = np.concatenate(prof.marginals)
        rv = ops.regrets(x, ops.contract(x))
        if pos > 0 and ex > epsilon:
            continue
        if any(np.linalg.norm(rv - prev) < dedup_tol for prev in ratings):
            continue
        profiles.append(prof)
        ratings.append(rv)
        exploits.append(ex)
        if len(profiles) == count:
            break
    gap = np.inf
    for a in range(len(ratings)):
        for b in range(a + 1, len(ratings)):
            gap = min(gap, float(np.linalg.norm(ratings[a] - ratings[b])))
    return EnumerationResult(
        profiles=profiles,
        rating_vectors=ratings,
        exploitabilities=exploits,
        requested=count,
        complete=len(profiles) >= count,
        min_pairwise_gap=float(gap) if np.isfinite(gap) else 0.0,
    )


@dataclass
class BeliefResult:
    priors: list[np.ndarray]
    payoff_table: np.ndarray  # (num_equilibria, num_players)


def risk_dominance_beliefs(
    game: Game,
    equilibria: list[ProductProfile],
    eta: float = 1e-2,
    iterations: int = 10_000,
) -> BeliefResult:
    """Iterate beliefs over which equilibrium each co-player will play.

    Starting from uniform priors, each player multiplicatively reweights
    its prior by the expected payoff of playing each of its equilibrium
    strategies while co-players sample theirs from their current priors.
    Returns the final priors and the cross-play expected payoff table
    ``table[k, i]`` = payoff to player i of playing its k-th equilibrium
    strategy against co-players sampling from the final priors.
    """
    if eta <= 0:
        raise ParameterError("eta must be positive")
    K = len(equilibria)
    if K < 1:
        raise ParameterError("need at least one equilibrium")
    n = game.num_players
    stacks = [np.stack([eq.marginals[i] for eq in equilibria]) for i in range(n)]

    values = []
    for i in range(n):
        t = game.utilities[i]
        for j in range(n - 1, -1, -1):
            t = np.tensordot(t, stacks[j], axes=(j, 1))
        # tensordot appended the equilibrium axes in reverse player order
        values.append(np.transpose(t, axes=tuple(range(n - 1, -1, -1))))

    def expected(i: int, priors) -> np.ndarray:
        t = values[i]
        for j in range(n - 1, -1, -1):
            if j == i:
                continue
            t = np.tensordot(t, priors[j], axes=(j, 0))
        return t

    priors = [np.full(K, 1.0 / K) for _ in range(n)]
    if K == 1:
        table = np.array([[expected(i, priors).item() for i in range(n)]])
        return BeliefResult(priors=priors, payoff_table=table)
    for _ in range(iterations):
        eus = [expected(i, priors) for i in range(n)]
        priors = [
            softmax(np.log(np.maximum(pi, 1e-300)) + eta * eu)
            for pi, eu in zip(priors, eus)
        ]
    table = np.stack([expected(i, priors) for i in range(n)], axis=1)
    return BeliefResult(priors=priors, payoff_table=table)
