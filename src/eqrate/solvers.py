"""Equilibrium solvers.

Two selection routes share one engine:

* ``solve_lle`` traces the temperature continuum of quantal-response
  equilibria toward its zero-temperature limit by descending a
  best-response-gap loss while annealing the temperature.  The KL term is
  taken against per-player target distributions, so a max-affinity-entropy
  target makes the traced equilibrium invariant to cloned actions.
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

# Solver defaults; shared across every descent loop.
DEFAULT_LEARNING_RATE = 1e-2
DEFAULT_TAU_INIT = 1.0
DEFAULT_TAU_DECAY = 0.95
DEFAULT_ANNEAL_INTERVAL = 250
DEFAULT_ANNEAL_GATE = 1e-5
DEFAULT_TAU_TERMINAL = 1e-2
DEFAULT_EPSILON_NE = 1e-3

# The CCE dual is solved until L-BFGS-B's projected gradient, which bounds
# every positive regret and every complementary-slackness residual, is this
# fraction of epsilon_cce.  Stopping at epsilon_cce itself leaves rating
# errors of a few 1e-4, above the rating tie tolerance, so a clone injection
# could move a rank through where the solve happened to stop.
CCE_GTOL_FRACTION = 1e-5


@dataclass(frozen=True)
class QREConfig:
    """Hyper-parameters for the annealed QRE trace."""

    tau_init: float = DEFAULT_TAU_INIT
    tau_decay: float = DEFAULT_TAU_DECAY
    anneal_check_interval: int = DEFAULT_ANNEAL_INTERVAL
    anneal_gate: float = DEFAULT_ANNEAL_GATE
    tau_terminal: float = DEFAULT_TAU_TERMINAL
    # stop early once the true exploitability is at most this; 0 turns the
    # early exit off, so the trace always runs to tau_terminal
    epsilon_ne: float = DEFAULT_EPSILON_NE
    learning_rate: float = DEFAULT_LEARNING_RATE
    max_steps: int = 200_000
    targets: tuple[np.ndarray, ...] | None = None
    # the QRE loss is nonconvex; when a temperature stage bottoms out in a
    # local basin above the gate, optionally continue annealing instead of
    # erroring out at max_steps
    force_anneal_on_stall: bool = False

    def __post_init__(self):
        if self.tau_init <= 0 or self.tau_terminal <= 0:
            raise ParameterError("temperatures must be positive")
        if self.tau_terminal >= self.tau_init:
            raise ParameterError("tau_terminal must be below tau_init")
        if not 0.0 < self.tau_decay < 1.0:
            raise ParameterError("tau_decay must lie in (0, 1)")
        if self.anneal_gate <= 0 or self.learning_rate <= 0:
            raise ParameterError("anneal_gate and learning_rate must be positive")
        if self.epsilon_ne < 0:
            raise ParameterError("epsilon_ne must be nonnegative")


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
            json.dump(self.to_dict(), fh)


def profile_from_dict(data: dict) -> ProductProfile | JointDistribution:
    """Rebuild the profile stored in an equilibrium result dict."""
    prof = data["profile"]
    if prof["type"] == "product":
        return ProductProfile(tuple(np.asarray(m, dtype=float) for m in prof["marginals"]))
    return JointDistribution(
        np.asarray(prof["joint"], dtype=float).reshape(prof["shape"])
    )


def _lse1(v: np.ndarray) -> float:
    # scipy's logsumexp has too much call overhead for tight vector loops
    m = v.max()
    return float(m + np.log(np.exp(v - m).sum()))


def _softmax1(v: np.ndarray) -> np.ndarray:
    e = np.exp(v - v.max())
    return e / e.sum()


class _Contractor:
    """Cached tensor permutations for fast repeated profile contractions.

    For every ordered player pair (i, j), player i's payoff tensor is kept
    laid out as ``(A_i * A_j, prod(rest))`` so the pairwise expected payoff
    matrix is a single BLAS matvec against the outer product of the
    remaining marginals.
    """

    def __init__(self, game: Game):
        self.game = game
        self.n = game.num_players
        self.shape = game.shape
        self.pair_rest: dict[tuple[int, int], list[int]] = {}
        self.pair_mat: dict[tuple[int, int], np.ndarray] = {}
        for i in range(self.n):
            u = game.utilities[i]
            for j in range(self.n):
                if j == i:
                    continue
                rest = [k for k in range(self.n) if k not in (i, j)]
                perm = np.ascontiguousarray(np.transpose(u, (i, j, *rest)))
                self.pair_rest[(i, j)] = rest
                self.pair_mat[(i, j)] = perm.reshape(self.shape[i] * self.shape[j], -1)

    def pair_matrix(self, i: int, j: int, marginals) -> np.ndarray:
        """E[u_i | a_i, a_j] with the remaining players mixed independently."""
        rest = self.pair_rest[(i, j)]
        if not rest:
            v = self.pair_mat[(i, j)][:, 0]
        else:
            w = marginals[rest[0]]
            for k in rest[1:]:
                w = np.kron(w, marginals[k])
            v = self.pair_mat[(i, j)] @ w
        return v.reshape(self.shape[i], self.shape[j])

    def all_pairs_and_devs(self, marginals):
        """Every pairwise matrix plus each player's deviation payoffs."""
        pairs = {}
        devs = []
        for i in range(self.n):
            if self.n == 1:
                devs.append(self.game.utilities[i].astype(float))
                continue
            j0 = 0 if i != 0 else 1
            for j in range(self.n):
                if j != i:
                    pairs[(i, j)] = self.pair_matrix(i, j, marginals)
            devs.append(pairs[(i, j0)] @ marginals[j0])
        return pairs, devs


class _Adam:
    def __init__(self, size, lr, b1=0.9, b2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, b1, b2, eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.b1 * self.m + (1 - self.b1) * grad
        self.v = self.b2 * self.v + (1 - self.b2) * grad * grad
        mhat = self.m / (1 - self.b1**self.t)
        vhat = self.v / (1 - self.b2**self.t)
        return self.lr * mhat / (np.sqrt(vhat) + self.eps)


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


def _lle_loss_grad(ops: _Contractor, z: list[np.ndarray], tau: float, logt):
    """Loss and logit-gradient of the annealed best-response-gap objective.

    The chain rule through each opponent's soft best response is exact: the
    gradient of the log-partition value with respect to the deviation
    payoffs is the best response itself.
    """
    n = ops.n
    logx = [zi - _lse1(zi) for zi in z]
    x = [np.exp(lx) for lx in logx]
    pairs, devs = ops.all_pairs_and_devs(x)
    loss = 0.0
    brs = []
    for i in range(n):
        a = devs[i] / tau + logt[i]
        lse = _lse1(a)
        brs.append(np.exp(a - lse))
        kl = float(x[i] @ (logx[i] - logt[i]))
        loss += tau * lse - float(x[i] @ devs[i]) + tau * kl
    gz = []
    for i in range(n):
        g = -devs[i] + tau * (logx[i] - logt[i])
        for j in range(n):
            if j != i:
                g = g + pairs[(j, i)].T @ (brs[j] - x[j])
        gz.append(x[i] * (g - float(x[i] @ g)))
    return loss, gz, x, devs


def _exploit_from_devs(x, devs) -> float:
    total = 0.0
    for xi, di in zip(x, devs):
        total += max(0.0, float(di.max() - xi @ di))
    return total


def solve_lle(
    game: Game,
    config: QREConfig | None = None,
    init_logits: list[np.ndarray] | None = None,
) -> EquilibriumResult:
    """Trace the QRE continuum toward its low-temperature limit.

    Descends the QRE loss over unconstrained per-player logits with Adam,
    multiplying tau by ``tau_decay`` at each ``anneal_check_interval``-step
    checkpoint where the loss is below ``anneal_gate``.  Stops once the
    terminal temperature is solved, or as soon as the profile's true
    (unregularized) exploitability reaches ``epsilon_ne``; with
    ``epsilon_ne=0`` that early exit is off and the trace always runs to
    ``tau_terminal``.  The trace starts at the target profile, the fixed
    point at infinite temperature; ``init_logits`` warm-starts it
    elsewhere (e.g. a nearby game's solution).  Deterministic.
    """
    config = config or QREConfig()
    if config.targets is None:
        config = replace(config, targets=kernels.affinity_targets(game))
    targets = _validate_targets(game, config.targets)
    logt = [np.log(t) for t in targets]

    ops = _Contractor(game)
    sizes = [game.num_actions(i) for i in range(game.num_players)]
    if init_logits is not None:
        z = [np.asarray(zi, dtype=float).copy() for zi in init_logits]
        if [len(zi) for zi in z] != sizes:
            raise DimensionError("init_logits shapes do not match game")
    else:
        z = [lt.copy() for lt in logt]
    interval = max(1, config.anneal_check_interval)

    adam = _Adam(sum(sizes), config.learning_rate)
    min_lr = config.learning_rate / 128.0
    tau = config.tau_init
    trace = []
    step = 0
    termination = "max_steps"
    converged = False
    # at low temperature a fixed Adam step can circle a stage's minimum
    # without reaching the gate: when the loss has not fallen by a tenth
    # within stall_window steps, halve the step, down to min_lr
    stall_window = max(4 * interval, 1000)
    best_loss = np.inf
    last_progress = 0
    while step < config.max_steps:
        loss, gz, x, devs = _lle_loss_grad(ops, z, tau, logt)
        exploit = _exploit_from_devs(x, devs)
        at_check = step % interval == 0
        if at_check:
            trace.append(TraceRecord(step, tau, loss, exploit))
        if config.epsilon_ne > 0 and exploit <= config.epsilon_ne:
            termination, converged = "epsilon_ne", True
            break
        if loss < 0.9 * best_loss:
            best_loss = loss
            last_progress = step
        stalled = step - last_progress > stall_window
        if (at_check and loss <= config.anneal_gate) or (
            stalled and adam.lr <= min_lr and config.force_anneal_on_stall
        ):
            if tau <= config.tau_terminal * (1 + 1e-12):
                termination, converged = "terminal_tau", True
                break
            tau = max(tau * config.tau_decay, config.tau_terminal)
            adam.lr = config.learning_rate
            best_loss = np.inf
            last_progress = step
        elif stalled and adam.lr > min_lr:
            adam.lr *= 0.5
            best_loss = np.inf
            last_progress = step
        update = adam.step(np.concatenate(gz))
        for zi, ui in zip(z, _split(update, sizes)):
            zi -= ui
        step += 1

    profile = ProductProfile(tuple(_softmax1(zi) for zi in z))
    final_exploit = exploitability(game, profile)
    final_loss = qre_loss(game, profile, tau, targets)
    trace.append(TraceRecord(step, tau, final_loss, final_exploit))
    if not converged:
        raise ConvergenceError(
            f"solve_lle: anneal gate not met within {config.max_steps} steps "
            f"(tau={tau:.4g}, loss={final_loss:.3e}, exploitability={final_exploit:.3e})",
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
            "anneal_check_interval": config.anneal_check_interval,
            "anneal_gate": config.anneal_gate,
            "tau_terminal": config.tau_terminal,
            "epsilon_ne": config.epsilon_ne,
            "learning_rate": config.learning_rate,
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


def _rating_vector(x, devs) -> np.ndarray:
    return np.concatenate([d - float(xi @ d) for xi, d in zip(x, devs)])


def _enum_objective_grad(ops: _Contractor, zs, weight: float):
    """Summed replica exploitability minus a weighted pairwise rating
    diversity bonus; returns the value and per-replica logit gradients."""
    R = len(zs)
    n = ops.n
    xs, devss, pairss, ratings = [], [], [], []
    for z in zs:
        x = [_softmax1(zi) for zi in z]
        pairs, devs = ops.all_pairs_and_devs(x)
        xs.append(x)
        devss.append(devs)
        pairss.append(pairs)
        ratings.append(_rating_vector(x, devs))
    value = sum(
        float(d.max() - xi @ d) for x, devs in zip(xs, devss) for xi, d in zip(x, devs)
    )
    mean_rating = sum(ratings) / R
    diversity_on = weight > 0 and R > 1
    if diversity_on:
        sq = sum(float(rv @ rv) for rv in ratings)
        value -= weight * (R * sq - R * R * float(mean_rating @ mean_rating))
    sizes = [ops.shape[i] for i in range(n)]
    offsets = np.cumsum([0] + sizes)
    grads = []
    for r in range(R):
        x, devs, pairs = xs[r], devss[r], pairss[r]
        astars = [int(np.argmax(d)) for d in devs]
        # d(sum of pairwise sq distances)/d(rating_r) = 2R(rating_r - mean)
        G = 2.0 * R * (ratings[r] - mean_rating) if diversity_on else None
        gz = []
        for k in range(n):
            g = -devs[k].copy()
            for j in range(n):
                if j == k:
                    continue
                Mjk = pairs[(j, k)]
                g += Mjk[astars[j]] - x[j] @ Mjk
            if G is not None:
                Gk = G[offsets[k] : offsets[k + 1]]
                g += weight * float(Gk.sum()) * devs[k]
                for j in range(n):
                    if j == k:
                        continue
                    Gj = G[offsets[j] : offsets[j + 1]]
                    Mjk = pairs[(j, k)]
                    g -= weight * (Gj @ Mjk - float(Gj.sum()) * (x[j] @ Mjk))
            gz.append(x[k] * (g - float(x[k] @ g)))
        grads.append(gz)
    return value, grads


def _polish_profile(ops: _Contractor, z, steps: int, lr: float):
    """Plain exploitability descent from logits z; returns the best iterate."""
    sizes = [ops.shape[i] for i in range(ops.n)]
    adam = _Adam(sum(sizes), lr)
    z = [zi.copy() for zi in z]
    best_x, best_e = None, np.inf
    for _ in range(steps):
        _, grads = _enum_objective_grad(ops, [z], 0.0)
        x = [_softmax1(zi) for zi in z]
        _, devs = ops.all_pairs_and_devs(x)
        e = _exploit_from_devs(x, devs)
        if e < best_e:
            best_x, best_e = x, e
        update = adam.step(np.concatenate(grads[0]))
        for zi, ui in zip(z, _split(update, sizes)):
            zi -= ui
    return ProductProfile(tuple(best_x)), best_e


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
    ops = _Contractor(game)
    sizes = [game.num_actions(i) for i in range(game.num_players)]

    lle_z = [np.log(np.maximum(m, 1e-300)) for m in lle.profile.marginals]
    lle_prof, lle_exploit = _polish_profile(ops, lle_z, polish_steps, learning_rate)
    if lle_exploit > lle.exploitability:
        lle_prof, lle_exploit = lle.profile, lle.exploitability

    R = replicas if replicas is not None else max(8, 4 * count)
    rng = np.random.default_rng(seed)
    zs = [[rng.normal(scale=2.0, size=s) for s in sizes] for _ in range(R)]
    adam = _Adam(R * sum(sizes), learning_rate)
    anneal_from = int(0.8 * max_steps)
    for step in range(max_steps):
        if step < anneal_from:
            w = diversity_weight
        else:
            w = diversity_weight * (max_steps - step) / max(1, max_steps - anneal_from)
        _, grads = _enum_objective_grad(ops, zs, w)
        flat = np.concatenate([g for gz in grads for g in gz])
        update = adam.step(flat)
        pieces = _split(update, sizes * R)
        idx = 0
        for z in zs:
            for k in range(len(sizes)):
                z[k] -= pieces[idx]
                idx += 1

    candidates = [(lle_prof, lle_exploit)]
    for z in zs:
        candidates.append(_polish_profile(ops, z, polish_steps, learning_rate))

    profiles, ratings, exploits = [], [], []
    for pos, (prof, ex) in enumerate(candidates):
        _, devs = ops.all_pairs_and_devs(list(prof.marginals))
        rv = _rating_vector(list(prof.marginals), devs)
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
