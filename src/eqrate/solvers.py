"""Equilibrium solvers.

Two selection routes:

* ``solve_lle`` follows the principal branch of logit quantal-response
  equilibria, from the target profile at infinite temperature toward the
  zero-temperature limit (McKelvey & Palfrey 1995), by predictor-corrector
  continuation on the QRE fixed point over a geometric temperature grid
  (Turocy 2005; Allgower & Georg 1990): polynomial extrapolation in 1/tau,
  then Newton.  A temperature where the branch folds back, or whose
  prediction misses, is reached by pseudo-arclength continuation.
  The logits are tilted by per-player target distributions, so a
  max-affinity-entropy target makes the traced equilibrium invariant to
  cloned actions.
* ``solve_mre_cce`` finds the coarse correlated equilibrium of maximum
  relative entropy to a target joint, by bounded L-BFGS-B on the convex
  dual of the problem (Ortiz, Schapire & Kakade 2007), finished by
  projected Newton on its active set (Bertsekas 1982).  The result
  satisfies the KKT conditions at rounding level: no positive regret, and
  positive multipliers only on zero-regret deviations.  A joint whose
  exploitability fails the final check raises ``ConvergenceError``.

``enumerate_nes`` and ``risk_dominance_beliefs`` support multi-equilibrium
analysis: logit traces from random priors, each polished by Newton on its
support's indifference equations to an exact equilibrium, and
multiplicative belief updates over a set of equilibria.
"""

import json
import math
from collections import deque
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np
from scipy.linalg import lapack
from scipy.optimize import minimize
from scipy.special import softmax

from . import kernels
from .errors import ConvergenceError, DimensionError, ParameterError
from .games import Game, JointDistribution, ProductProfile, exploitability

# Solver defaults.
DEFAULT_TAU_INIT = 1.0
DEFAULT_TAU_DECAY = 0.95
DEFAULT_TAU_TERMINAL = 1e-2
DEFAULT_EPSILON_NE = 1e-3

# The LLE trace returns only its last temperature, so only that one, and the
# last solved point an arclength detour starts from, is solved until the QRE
# residual's max-norm is at most NEWTON_TOL.  Every other temperature only
# has to give the next prediction a start inside the corrector's basin
# (Allgower & Georg 1990, ch. 6), and is solved to NEWTON_STAGE_TOL: over
# 441 seeded random and KOTH games that cuts the corrector iterations from
# 97,793 to 55,928 and moves no terminal profile by more than 6e-14.  Its
# record stays exact, as ``_correct`` normalises the iterate: the record's
# exploitability is taken at each temperature, for the early exit, and the
# losses of all of them in one batch when the trace ends.  A temperature
# not solved within NEWTON_STAGE_ITERS iterations, or where backtracking
# shrinks the step below NEWTON_MIN_DAMPING without reducing the residual,
# has stalled: the branch has folded back or the iterate left its basin.
NEWTON_TOL = 1e-10
NEWTON_STAGE_TOL = 1e-4
NEWTON_STAGE_ITERS = 30
NEWTON_MIN_DAMPING = 2.0**-30
# The arclength detour past such a temperature (``_detour``) starts with step
# length h = min(lambda gap, ARC_MAX_STEP).  A step's corrector takes at most
# ARC_CORRECTOR_ITERS Newton steps, the first at most ARC_FIRST_CORRECTION * h
# long and each later one at most half the one before, and its new tangent
# keeps a cosine of ARC_MIN_COSINE with the last; h grows by half, to
# ARC_MAX_STEP at most, after a corrector of at most two steps.  Every fold
# and stall met in tests and benchmarks passes with these.
ARC_CORRECTOR_ITERS = 8
ARC_FIRST_CORRECTION = 0.1
ARC_MIN_COSINE = 0.995
ARC_MAX_STEP = 1.0
ARC_MIN_STEP = 1e-10

# L-BFGS-B on the CCE dual hands over to the projected Newton finish
# (``_newton_finish``) once its set of positive multipliers has been the
# same for CCE_STABLE_ITERS iterations.  On the bench's arena game that is
# after 27 iterations, where L-BFGS-B alone took 147 to a projected
# gradient of 1e-8; of 2, 3, 5, 8 and 12, 5 gave the fewest CCE seconds
# there and over a skill-world cce run.
CCE_STABLE_ITERS = 5
# The finish takes at most CCE_NEWTON_STEPS steps.  It has reached the
# maximiser once no regret exceeds CCE_KKT_TOL times the largest absolute
# payoff and no positive multiplier's regret is further than that from 0.
# Where the maximiser puts zero mass on some cells, the multipliers grow
# without bound and Newton gains only a constant factor a step.  Over the
# 154 solves of a 6-trial, 8-iteration skill-world cce run, caps of 20,
# 30, 40 and 60 steps left 9, 4, 2 and 2 solves to a resume.
CCE_NEWTON_STEPS = 40
CCE_KKT_TOL = 1e-12
# Sufficient decrease of the Armijo backtrack along the projection arc, up
# to the rounding of the loss: CCE_LOSS_ROUNDING times 1 + |loss|.  Near
# the maximiser a Newton step lowers the loss by less than its rounding;
# on a 60x8 KOTH game the full step that took the KKT residual from
# 7.9e-12 to 4.4e-16 raised the loss by 8.8e-16.  After a rejected full
# step the backtrack tries the longest step that clips no multiplier, then
# halves: on a 30-iteration skill-world cce trial that took 1,642 loss
# evaluations for 939 steps, against 4,287 for 946 halving from the full
# step.
CCE_ARMIJO = 1e-4
CCE_LOSS_ROUNDING = 1e-13
# The finish's Hessian is accumulated over blocks of the joint of about
# this many cells, so no gain matrix over the whole joint is built.  With
# blocks of 2**15 cells a bench clone_attack run peaked 2.4 MB above one
# with L-BFGS-B alone, with 2**12 0.9 MB; 2**12 also built arena's 15x15
# Hessian faster (8 against 11 ms).
CCE_HESSIAN_CELLS = 2**12

# ``enumerate_nes`` traces each candidate to ENUM_TAU_TERMINAL and takes as
# its support the actions with more than SUPPORT_FRACTION of the player's
# largest mass.  At tau 1e-2 the off-support mass of a KOTH game's traced
# profiles is still above that fraction: on the 12x4 game of the bench
# generator, traced to 1e-2, neither the LLE nor any of the 10 priors that do
# not fold polish (5 of 10 would with a 1e-2 fraction); traced to 1e-3, all
# of them do.
ENUM_TAU_TERMINAL = 1e-3
SUPPORT_FRACTION = 1e-3
# candidates whose rating vectors are closer than this in L2 are one
# equilibrium
DEDUP_TOL = 1e-3


@dataclass(frozen=True)
class QREConfig:
    """Settings of the LLE trace: the temperature grid from ``tau_init``,
    times ``tau_decay``, down to ``tau_terminal``; the early exit
    ``epsilon_ne``; the cap ``max_steps`` on Newton iterations in all; and
    the per-player ``targets`` (default: affinity targets)."""

    tau_init: float = DEFAULT_TAU_INIT
    tau_decay: float = DEFAULT_TAU_DECAY
    tau_terminal: float = DEFAULT_TAU_TERMINAL
    # stop early once the true exploitability is at most this; 0 turns the
    # early exit off, so the trace always runs to tau_terminal
    epsilon_ne: float = DEFAULT_EPSILON_NE
    # Newton iterations in all, counting those spent from a rejected
    # prediction and on the arclength detour past it, its tangents included
    max_steps: int = 200_000
    targets: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if not (self.tau_init > 0 and self.tau_terminal > 0):
            raise ParameterError("temperatures tau_init and tau_terminal must be positive")
        if self.tau_terminal >= self.tau_init:
            raise ParameterError("tau_terminal must be below tau_init")
        if not 0.0 < self.tau_decay < 1.0:
            raise ParameterError("tau_decay must lie in (0, 1)")
        if not self.epsilon_ne >= 0:
            raise ParameterError(f"epsilon_ne must be nonnegative, not {self.epsilon_ne}")
        if self.max_steps < 1:
            raise ParameterError("max_steps must be at least 1")


@dataclass(frozen=True)
class CCEConfig:
    """Settings of the dual-space CCE solve: the per-player ``targets``
    whose product joint the CCE is the relative-entropy projection of
    (default: uniform; checked against the game by the solver, as
    ``QREConfig.targets`` is); the cap ``max_steps`` on L-BFGS-B
    iterations and Newton steps together; and ``epsilon_cce``, the
    exploitability a returned joint may have at most."""

    targets: tuple[np.ndarray, ...] | None = None
    max_steps: int = 200_000
    epsilon_cce: float = 1e-3

    def __post_init__(self):
        if not self.epsilon_cce >= 0:
            raise ParameterError(f"epsilon_cce must be nonnegative, not {self.epsilon_cce}")
        if self.max_steps < 1:
            raise ParameterError("max_steps must be at least 1")


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
    # LLE: arclength detours past stalled temperatures; CCE: 1 if L-BFGS-B
    # was resumed after a Newton finish that missed the KKT conditions
    restarts: int = 0
    # CCE: steps of the projected Newton finish
    newton_steps: int = 0

    def to_dict(self) -> dict:
        """JSON-ready dict.  A product profile is stored as its
        ``marginals``; a CCE as its dual multipliers, ``{"type": "cce_dual",
        "duals": [...], "shape": [...]}`` with one list per player, since
        the multipliers and ``targets`` fix the joint (``profile_from_dict``
        rebuilds it)."""
        if isinstance(self.profile, ProductProfile):
            prof = {
                "type": "product",
                "marginals": [x.tolist() for x in self.profile.marginals],
            }
        else:
            prof = {
                "type": "cce_dual",
                "duals": [a.tolist() for a in self.duals],
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
            "restarts": self.restarts,
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_dict()))


def profile_from_dict(data: dict, game: Game) -> ProductProfile | JointDistribution:
    """Rebuild the profile stored in an equilibrium result dict of ``game``.

    A ``product`` profile holds its ``marginals``.  A ``cce_dual`` profile
    holds the CCE's multipliers, one list per player under ``duals``, and
    its ``shape``; the joint is the dual's softmax at those multipliers and
    the dict's per-player ``targets``, rebuilt by one ``_CCEDual``
    evaluation.  JSON floats round-trip exactly, so it equals the solved
    joint bit for bit.  A ``joint`` profile (``joint`` flat and row-major,
    and ``shape``) is the format written before CCEs were stored as their
    multipliers; it still loads.

    A profile whose shape is not the game's raises ``ParameterError``, and
    so does a joint whose exploitability on ``game`` exceeds the dict's
    ``config.epsilon_cce``: that CCE was solved on another game.
    """
    prof = data["profile"]
    product = prof["type"] == "product"
    shape = tuple(len(m) for m in prof["marginals"]) if product else tuple(prof["shape"])
    if shape != game.shape:
        raise ParameterError(f"equilibrium of shape {shape} does not fit game {game.shape}")
    if product:
        return ProductProfile(tuple(np.asarray(m, dtype=float) for m in prof["marginals"]))
    if prof["type"] == "cce_dual":
        if [len(a) for a in prof["duals"]] != list(shape):
            raise ParameterError("one multiplier per player and action required")
        targets = tuple(np.asarray(t, dtype=float) for t in data["targets"])
        _validate_targets(game, targets)
        # the stored targets are the solve's own; validation may renormalise
        # them by an ulp, so the joint is built from them as stored
        _, x, _ = _CCEDual(game, targets).evaluate(np.concatenate(prof["duals"], dtype=float))
        profile = JointDistribution(x)
    else:
        profile = JointDistribution(np.asarray(prof["joint"], dtype=float).reshape(shape))
    bound = (data.get("config") or {}).get("epsilon_cce")
    if bound is not None and not (gap := exploitability(game, profile)) <= bound:
        raise ParameterError(
            f"the stored CCE has exploitability {gap:.3e} on this game, not within its bound "
            f"{bound:.1e}: it was solved on another game, or holds a NaN"
        )
    return profile


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
    between and within the two groups, the rest's rows stacked over the
    columns ``cols``: big, then rest.
    """

    def __init__(self, game: Game):
        n, shape = game.num_players, game.shape
        self.sizes = list(shape)
        offsets = np.cumsum([0, *shape])
        self.starts = offsets[:-1]
        self.seg = np.repeat(np.arange(n), shape)
        self.slices = [slice(a, b) for a, b in zip(offsets[:-1], offsets[1:])]
        self._x = np.empty(offsets[-1])
        self.dev = game.utilities[0].astype(float) if n == 1 else np.empty(offsets[-1])
        self.stacks = stacks = [np.empty((offsets[-1] - shape[j], shape[j])) for j in range(n)]
        big = int(np.argmax(shape))
        self.big = self.slices[big]
        self.rest = np.flatnonzero(self.seg != big)
        # where each player's segment sits within rest
        at = {i: self.slices[i].start - (shape[big] if i > big else 0) for i in range(n)}
        self.rest_starts = np.array([at[i] for i in range(n) if i != big], dtype=int)
        self.rest_seg = np.repeat(np.arange(n - 1), [s for i, s in enumerate(shape) if i != big])
        self.cols = np.concatenate([np.arange(offsets[-1])[self.big], self.rest])
        self.eye = np.eye(self.rest.size)
        self._b_r = np.zeros((self.rest.size, offsets[-1]))
        self._b_mr = np.empty((shape[big], self.rest.size))
        b_rr = self._b_r[:, shape[big] :]
        self._gather = [(self._b_r[:, : shape[big]], stacks[big])]
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
                    dest = self._b_mr if i == big else b_rr[at[i] : at[i] + shape[i]]
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
            (stacks[0], self._x[self.slices[0]], self.dev[offsets[1] :]),
            (stacks[1][: shape[0]], self._x[self.slices[1]], self.dev[self.slices[0]]),
        ]

    def schur_blocks(self):
        """The pair blocks at the last ``contract``, gathered into two
        matrices: rest rows by ``cols`` (big then rest; zero within a
        player), and big rows by rest columns."""
        for dest, block in self._gather:
            dest[...] = block
        return self._b_r, self._b_mr

    def seg_sum(self, v: np.ndarray) -> np.ndarray:
        return np.add.reduceat(v, self.starts)

    def log_softmax(self, v: np.ndarray):
        """Per-player log-softmax of a flat vector, and each log-partition;
        of each column of a stack of them, ``(actions, k)``, alike."""
        peak = np.maximum.reduceat(v, self.starts)
        out = v - peak[self.seg]
        lse = np.log(np.add.reduceat(np.exp(out), self.starts))
        out -= lse[self.seg]
        peak += lse
        return out, peak

    def contract(self, x: np.ndarray) -> np.ndarray:
        """Refresh every pair block at the flat marginals x; return each
        player's deviation payoffs, flat."""
        self._x[...] = x
        for mat, xs, out in self._refresh:
            w = xs[0]
            for xk in xs[1:]:
                w = np.kron(w, xk)
            np.matmul(w, mat, out=out)
        for block, xj, out in self._devs:
            np.matmul(block, xj, out=out)
        return self.dev

    def regrets(self, x: np.ndarray, dev: np.ndarray) -> np.ndarray:
        return dev - self.seg_sum(x * dev)[self.seg]

    def exploitability(self, x: np.ndarray, dev: np.ndarray) -> float:
        # max_a (dev_a - v) is max_a dev_a - v, in floating point too, as
        # rounding is monotone
        gains = np.maximum.reduceat(dev, self.starts) - np.add.reduceat(x * dev, self.starts)
        return float(np.maximum(gains, 0.0).sum())

    def profile(self, z: np.ndarray) -> ProductProfile:
        """The product profile of the flat logits z."""
        return ProductProfile(tuple(_split(np.exp(self.log_softmax(z)[0]), self.sizes)))


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
        if not np.all(np.isfinite(t) & (t > 0)):
            raise ParameterError(f"target {i} must be finite and strictly positive")
        if abs(t.sum() - 1.0) > 1e-6:
            raise ParameterError(f"target {i} must be a distribution")
        out.append(t / t.sum())
    return tuple(out)


def uniform_targets(game: Game) -> tuple[np.ndarray, ...]:
    """Max-Shannon-entropy targets; the clone-sensitive ablation."""
    return tuple(np.full(n, 1.0 / n) for n in game.shape)


# ---------------------------------------------------------------------------
# QRE / LLE


def _qre_gap(ops: _Contraction, z: np.ndarray, tau: float, logt: np.ndarray):
    """QRE loss (``qre_loss`` of ``tests/reference.py``) and
    exploitability at the flat logits z, evaluated from scratch at the
    normalised profile: the trace's exact record.  ``solve_lle`` takes it
    for the start, a stalled iterate, the terminal temperature and any
    temperature whose record from the corrector could end the trace."""
    logx, _ = ops.log_softmax(z)
    x = np.exp(logx)
    dev = ops.contract(x)
    _, lse = ops.log_softmax(dev / tau + logt)
    loss = tau * float(lse.sum()) + float(x @ (tau * (logx - logt) - dev))
    return loss, ops.exploitability(x, dev)


def _qre_residual(ops: _Contraction, y: np.ndarray, tau: float, logt: np.ndarray):
    """Residual ``F(y) = y - log_softmax_i(dev_i(e^y)/tau + log t_i)`` of the
    logit QRE at tau in log-marginals y, with e^y and each soft best
    response; zero exactly at a QRE.  Leaves the pair blocks at e^y."""
    x = np.exp(y)
    v = np.divide(ops.contract(x), tau)
    v += logt
    log_br, _ = ops.log_softmax(v)
    return y - log_br, x, np.exp(log_br)


def _newton_direction(ops: _Contraction, f, x, br, tau: float, border=None) -> np.ndarray:
    """Solve ``J d = -f`` for the Jacobian ``J = I - P B diag(x) / tau`` of
    the QRE residual, B holding the pair blocks at x and
    ``P = blockdiag(I - 1 br_i^T)`` the log-softmax derivative.

    No player has a block against itself, so J's diagonal blocks are I; the
    largest player's actions are eliminated by a Schur complement, leaving
    a dense solve over the rest.  With ``border = (c, t, q)``, the bordered
    system ``[[J, c], [t^T]] [d; e] = -[f; q]`` is solved instead, after
    the same elimination, and ``[d; e]`` returned.
    """
    m, r = ops.big, ops.rest
    if r.size == 0 and border is None:
        return -f
    b_r, b_mr = ops.schur_blocks()
    nb = b_mr.shape[0]
    # x / tau over cols; its tail is the rest's
    x_cols = x[ops.cols] / tau
    # apply I - 1 br_i^T within each rest player's rows
    k_r = np.add.reduceat(br[r][:, None] * b_r, ops.rest_starts, axis=0)[ops.rest_seg]
    np.subtract(b_r, k_r, out=k_r)
    k_r *= x_cols
    k_rm, k_rr = k_r[:, :nb], k_r[:, nb:]
    k_mr = b_mr - br[m] @ b_mr
    k_mr *= x_cols[nb:]
    schur = k_rm @ k_mr
    schur += k_rr
    np.subtract(ops.eye, schur, out=schur)
    rhs = -f[r] - k_rm @ f[m]
    if border is not None:
        # d_m = k_mr d_r - c_m e - f_m, substituted into the rest's rows and
        # the border row
        c, t, q = border
        t_m, t_r = t[:-1][m], t[:-1][r]
        schur = np.block([
            [schur, (c[r] + k_rm @ c[m])[:, None]],
            [t_r + t_m @ k_mr, t[-1] - t_m @ c[m]],
        ])
        rhs = np.append(rhs, t_m @ f[m] - q)
    _, _, d_r, info = lapack.dgesv(schur, rhs, overwrite_a=True, overwrite_b=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"singular Newton system (LAPACK gesv info {info})")
    d = np.empty(f.size + (border is not None))
    d[r] = d_r[: r.size]
    d[m] = k_mr @ d_r[: r.size] - f[m]
    if border is not None:
        d[m] -= c[m] * d_r[-1]
        d[-1] = d_r[-1]
    return d


def _correct(ops: _Contraction, y: np.ndarray, tau: float, logt: np.ndarray, cap: int, tol: float):
    """Damped Newton on the QRE residual at tau from y, backtracking on
    max|F|, until max|F| is at most ``tol``.

    Returns the iterate, the iterations taken, and the parts of its trace
    record, or None if max|F| missed ``tol`` within ``cap`` iterations or
    is not finite at y (a prediction whose e^y overflows).  A solved
    iterate is returned normalised, ``y - log s_i`` with ``s_i`` the sum of
    player i's ``e^y``, and its parts are the last residual's, rescaled to
    that profile: ``x = e^y / s``, the deviation payoffs ``dev`` at x and
    the softmax input ``dev / tau + log t`` of the soft best response,
    whose log-partitions ``solve_lle`` takes for all its records at once.
    Deviation payoffs are multilinear in the co-players' marginals, so
    player i's at x are those at e^y over ``prod_{k != i} s_k``; the record
    is therefore exact at the returned profile, at any ``tol``, without
    another contraction.  A residual that overflows only warns here;
    ``solve_lle`` silences that around its whole trace, detours included.
    """
    f, x, br = _qre_residual(ops, y, tau, logt)
    res = np.maximum.reduce(np.abs(f))
    if not math.isfinite(res):
        return y, 0, None
    its = 0
    while res > tol:
        if its == cap:
            return y, its, None
        d = _newton_direction(ops, f, x, br, tau)
        its += 1
        alpha = 1.0
        # an overlong step may overflow e^y; its residual is then nan and
        # the step is halved
        while True:
            trial = y + alpha * d
            f, x, br = _qre_residual(ops, trial, tau, logt)
            trial_res = np.maximum.reduce(np.abs(f))
            if trial_res <= (1.0 - 1e-4 * alpha) * res:
                break
            alpha *= 0.5
            if alpha < NEWTON_MIN_DAMPING:
                return y, its, None
        y, res = trial, trial_res
    s = np.add.reduceat(x, ops.starts)
    scale = s[ops.seg]
    x /= scale
    dev = ops.dev / (math.prod(s.tolist()) / scale)
    v = dev / tau
    v += logt
    return y - np.log(scale), its, (x, dev, v)


def _extrapolate(history, lam: float) -> np.ndarray:
    """The Lagrange interpolant through the ``(lam_k, y_k)`` of history,
    evaluated at lam."""
    for k, (lam_k, y_k) in enumerate(history):
        weight = 1.0
        for j, (lam_j, _) in enumerate(history):
            if j != k:
                weight *= (lam - lam_j) / (lam_k - lam_j)
        if k == 0:
            pred = weight * y_k
        else:
            pred += weight * y_k
    return pred


def _branch_residual(ops: _Contraction, v: np.ndarray, logt: np.ndarray):
    """``_qre_residual`` at ``v = [y; lambda]``, lambda = 1/tau being 0 at
    infinite temperature, with tau and the residual's derivative in
    lambda, ``-(dev_i - br_i . dev_i)`` per player."""
    tau = 1.0 / v[-1] if v[-1] else np.inf
    f, x, br = _qre_residual(ops, v[:-1], tau, logt)
    return f, x, br, tau, -ops.regrets(br, ops.dev)


def _tangent(ops: _Contraction, v: np.ndarray, t: np.ndarray, logt: np.ndarray) -> np.ndarray:
    """The branch's unit tangent at v, oriented along t: the bordered
    Newton system with t as its last row and right-hand side ``[0; 1]``."""
    f, x, br, tau, c = _branch_residual(ops, v, logt)
    d = _newton_direction(ops, np.zeros_like(f), x, br, tau, (c, t, -1.0))
    return d / np.linalg.norm(d)


def _detour(
    ops: _Contraction, y, lam: float, tau_end: float, logt: np.ndarray, budget: int, tol: float
):
    """Follow the QRE branch from its solved point (y, lam) by
    pseudo-arclength continuation in ``(y, lambda)`` (Allgower & Georg
    1990, ch. 6) until it crosses ``1/tau_end`` going forward, then solve
    tau_end to ``tol`` by ``_correct`` from the line through the two branch
    points that bracket the crossing.  Each step predicts along the unit
    tangent and corrects by Newton on the hyperplane normal to it, to
    ``NEWTON_TOL``; a step whose corrector fails, whose tangent turns too
    far, or whose crossing ``_correct`` fails is retried at half the
    length.

    Returns the solution at tau_end, its ``_correct`` parts, the
    bracketing ``(lambda, y)`` pairs, the Newton iterations taken, at most
    ``budget``, and why it failed.  Each tangent is a bordered Newton solve
    and counts as an iteration.  The first three are None, and the reason
    is set, once the budget is spent, once the step length is below
    ``ARC_MIN_STEP``, or once an accepted point lies at lambda < 0: the
    detour has turned back past infinite temperature and would walk the
    branch the wrong way until the budget runs out.
    """
    if budget < 1:
        return None, None, None, 0, "the detour spent its Newton budget"
    lam_end = 1.0 / tau_end
    v = np.append(y, lam)
    t = _tangent(ops, v, np.append(np.zeros_like(y), 1.0), logt)
    h = min(lam_end - lam, ARC_MAX_STEP)
    its = 1
    while h >= ARC_MIN_STEP and its < budget:
        w, limit = v + h * t, ARC_FIRST_CORRECTION * h
        for k in range(ARC_CORRECTOR_ITERS + 1):
            f, x, br, tau, c = _branch_residual(ops, w, logt)
            if np.maximum.reduce(np.abs(f)) <= NEWTON_TOL or k == ARC_CORRECTOR_ITERS or its == budget:
                break
            dw = _newton_direction(ops, f, x, br, tau, (c, t, 0.0))
            its += 1
            size = np.linalg.norm(dw)
            if not size <= limit:  # also rejects a nan step
                break
            w, limit = w + dw, 0.5 * size
        accepted = np.maximum.reduce(np.abs(f)) <= NEWTON_TOL and its < budget
        if accepted:
            t_w = _tangent(ops, w, t, logt)
            its += 1
            accepted = t_w @ t >= ARC_MIN_COSINE
        if accepted and w[-1] < 0:
            why = "the arclength detour from a stalled temperature turned back past lambda 0"
            return None, None, None, its, why
        if accepted and v[-1] < lam_end <= w[-1]:
            bracket = [(v[-1], v[:-1]), (w[-1], w[:-1])]
            cap = min(NEWTON_STAGE_ITERS, budget - its)
            y_end, k_end, parts = _correct(
                ops, _extrapolate(bracket, lam_end), tau_end, logt, cap, tol
            )
            its += k_end
            if parts is not None:
                return y_end, parts, bracket, its, None
            accepted = False
        if not accepted:
            h *= 0.5
            continue
        v, t = w, t_w
        if k <= 2:
            h = min(1.5 * h, ARC_MAX_STEP)
    if its >= budget:
        return None, None, None, its, "the detour spent its Newton budget"
    return None, None, None, its, f"the arclength step fell below {ARC_MIN_STEP:g} past a stalled temperature"


def solve_lle(game: Game, config: QREConfig | None = None) -> EquilibriumResult:
    """Trace the principal branch of the logit QRE toward its
    low-temperature limit, the LLE.

    The temperature starts at ``tau_init`` and is multiplied by
    ``tau_decay`` down to ``tau_terminal``.  At each temperature the QRE
    fixed point is solved by damped Newton in the log-marginals
    (``_correct``), from a prediction: the Lagrange interpolant in
    ``lambda = 1/tau`` through the last three solved temperatures'
    log-marginals, a line through two, the solution itself after one (the
    trace's first temperature starts from the target profile).
    ``tau_terminal`` is solved until the residual's max-norm is at most
    ``NEWTON_TOL``; every other temperature only to ``NEWTON_STAGE_TOL``,
    which keeps the next prediction in the corrector's basin at about half
    the Newton iterations.  A temperature whose residual misses its
    tolerance within ``NEWTON_STAGE_ITERS`` iterations from its prediction
    (the branch folds back there, or the prediction left the corrector's
    basin) is reached by an arclength detour along the branch
    (``_detour``), counted in ``restarts``, from the last solved
    temperature, first solved on to ``NEWTON_TOL``; the predictor's history
    then holds the two branch points bracketing the crossing, and the
    solution.  ``ConvergenceError`` is raised when the detour's step falls
    below ``ARC_MIN_STEP`` or the detour turns back past lambda 0, or once
    ``max_steps`` caps the Newton iterations in all, those of rejected
    predictions and detours, and the detour's tangents, included.
    Stops once the terminal temperature is solved, or as soon as the
    start's or a solved temperature's true (unregularized) exploitability
    reaches ``epsilon_ne``; with ``epsilon_ne=0`` that early exit is off
    and the trace always runs to ``tau_terminal``.  The trace starts at
    the target profile, the fixed point at infinite temperature.  The
    trace holds the start, one record per temperature and the final
    profile, ``step`` counting Newton iterations.  Deterministic.

    A solved temperature's record comes from the corrector's last
    residual, rescaled to the normalised profile that ``_correct``
    returns, so it is exact at that profile up to rounding, however loose
    the temperature's tolerance.  Its exploitability is taken at that
    temperature; its loss is filled in when the trace ends, whether it
    returns or raises, the log-partitions of every such record's soft best
    response taken in one batch.  The exact record (``_qre_gap``) is taken
    at the start, on a stalled iterate, at the terminal temperature and
    wherever the corrector's exploitability is at most ``2 * epsilon_ne``;
    so the early exit is decided on the returned profile's exact
    exploitability, and ``exploitability`` and the final record come from
    it.
    """
    config = config or QREConfig()
    if config.targets is None:
        config = replace(config, targets=kernels.affinity_targets(game))
    targets = _validate_targets(game, config.targets)
    logt = np.log(np.concatenate(targets))

    ops = _Contraction(game)
    y = logt.copy()
    history = deque(maxlen=3)  # (1/tau, y) of the last solved temperatures

    tau = config.tau_init
    step = restarts = 0
    loss, exploit = _qre_gap(ops, y, tau, logt)
    trace = [TraceRecord(step, tau, loss, exploit)]
    termination = None
    if config.epsilon_ne > 0 and exploit <= config.epsilon_ne:
        termination = "epsilon_ne"
    pending = []  # (trace index, v, x . (y - v)) of the corrector's records
    with np.errstate(over="ignore", invalid="ignore"):
        while termination is None:
            terminal = tau <= config.tau_terminal * (1 + 1e-12)
            tol = NEWTON_TOL if terminal else NEWTON_STAGE_TOL
            start = _extrapolate(history, 1.0 / tau) if len(history) > 1 else y
            y_next, its, parts = _correct(
                ops, start, tau, logt, min(NEWTON_STAGE_ITERS, config.max_steps - step), tol
            )
            step += its
            if parts is None and step < config.max_steps:
                restarts += 1
                # before any temperature is solved, y is the exact point at
                # lambda 0; a solved one is solved on to NEWTON_TOL, as the
                # detour's branch points are
                lam = history[-1][0] if history else 0.0
                if history:
                    cap = min(NEWTON_STAGE_ITERS, config.max_steps - step)
                    y, its, _ = _correct(ops, y, 1.0 / lam, logt, cap, NEWTON_TOL)
                    step += its
                found, parts, bracket, its, why = _detour(
                    ops, y, lam, tau, logt, config.max_steps - step, tol
                )
                step += its
                if parts is not None:
                    y_next = found
                    history = deque(bracket, maxlen=3)
            y = y_next
            if parts is None:
                break
            history.append((1.0 / tau, y))
            x, dev, v = parts
            exploit = ops.exploitability(x, dev)
            # the corrector's record differs from the exact one by rounding
            # only, but near epsilon_ne rounding could decide the exit, so it
            # is decided on the exact record
            if terminal or exploit <= 2.0 * config.epsilon_ne:
                loss, exploit = _qre_gap(ops, y, tau, logt)
            else:
                loss = np.nan
                pending.append((len(trace), v, float(x @ (y - v))))
            trace.append(TraceRecord(step, tau, loss, exploit))
            if config.epsilon_ne > 0 and exploit <= config.epsilon_ne:
                termination = "epsilon_ne"
            elif terminal:
                termination = "terminal_tau"
            else:
                tau = max(tau * config.tau_decay, config.tau_terminal)

    # a record from the corrector gets its loss here, on the raising path
    # too: tau (sum_i lse_i(v) + x . (y - v)), the log-partitions of every
    # such record's softmax input v taken in one batch
    if pending:
        rows, vs, dots = zip(*pending)
        _, lse = ops.log_softmax(np.stack(vs, axis=1))
        for k, total, dot in zip(rows, lse.sum(axis=0).tolist(), dots):
            trace[k].loss = trace[k].tau * (total + dot)

    if termination is None:
        # the stalled iterate gets its own record
        loss, exploit = _qre_gap(ops, y, tau, logt)
    trace.append(TraceRecord(step, tau, loss, exploit))
    profile = ops.profile(y)
    if termination is None:
        # short of max_steps, only a failed detour stops the trace
        reason = f"all {config.max_steps} Newton iterations spent" if step >= config.max_steps else why
        raise ConvergenceError(
            f"solve_lle: {reason} (tau={tau:.4g}, loss={loss:.3e}, "
            f"exploitability={exploit:.3e}, step {step})",
            iterate=profile,
            trace=trace,
        )
    return EquilibriumResult(
        profile=profile,
        exploitability=exploit,
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
        restarts=restarts,
    )


# ---------------------------------------------------------------------------
# Max-relative-entropy CCE


def target_log_joint(targets) -> np.ndarray:
    """Log of the product joint of per-player target distributions."""
    logs = [np.log(np.asarray(t, dtype=float)) for t in targets]
    out = logs[0]
    for lt in logs[1:]:
        out = np.add.outer(out, lt)
    return out


class _CCEDual:
    """The dual objective over the flat multiplier vector, and its gradient.

    With ``s_i`` the sum of player i's multipliers and ``g_i`` its
    multiplier-weighted deviation payoffs, a function of the co-players'
    actions, the logit is ``t + sum_i s_i u_i - sum_i g_i``.  It is formed
    in one preallocated flat buffer: one matvec over the payoff tensors and
    the target log-joint ``t``, stacked as rows, then each player's ``g_i``
    subtracted in place by broadcasting; the buffer is then exponentiated
    and normalised in place into the joint.  Each player's payoff tensor is
    also kept laid out as ``(A_i, prod(rest))``, so ``g_i`` and the
    deviation payoffs are one matvec apiece, and each co-marginal is one
    matvec of the buffer with a ones vector over the player's axis.
    ``evaluate`` returns the joint as a view of the buffer, valid until the
    next evaluation.
    """

    def __init__(self, game: Game, targets):
        shape = game.shape
        self.sizes = list(shape)
        self._stack = np.empty((len(shape) + 1, np.prod(shape, dtype=int)))
        for row, u in zip(self._stack, game.utilities):
            row[:] = u.ravel()
        self._stack[-1] = target_log_joint(targets).ravel()
        # the target row's coefficient stays 1
        self._coef = np.ones(len(shape) + 1)
        self._buf = np.empty(self._stack.shape[1])
        self._joint = self._buf.reshape(shape)
        self.perms = [
            np.ascontiguousarray(np.moveaxis(u, i, 0)).reshape(shape[i], -1)
            for i, u in enumerate(game.utilities)
        ]
        # the buffer as (actions before, A_i, actions after) for player i
        self._views = [
            self._buf.reshape(np.prod(shape[:i], dtype=int), s, -1) for i, s in enumerate(shape)
        ]
        self._ones = [np.ones(s) for s in shape]
        self._last = None

    def _co_marginal(self, i: int) -> np.ndarray:
        view, ones = self._views[i], self._ones[i]
        # over the last axis one matvec covers every row; over another, one
        # matvec per index of the axes before it
        if view.shape[2] == 1:
            return view[:, :, 0] @ ones
        return (ones @ view).ravel()

    def evaluate(self, flat: np.ndarray):
        """Dual loss, implied joint and every player's deviation regrets."""
        if self._last is not None and np.array_equal(flat, self._last[0]):
            return self._last[1]
        alphas = _split(flat, self.sizes)
        n, buf = len(alphas), self._buf
        for i, a in enumerate(alphas):
            self._coef[i] = a.sum()
        np.dot(self._coef, self._stack, out=buf)
        for a, perm, view in zip(alphas, self.perms, self._views):
            view -= (a @ perm).reshape(view.shape[0], 1, view.shape[2])
        peak = buf.max()
        buf -= peak
        np.exp(buf, out=buf)
        # taken before the scaling, the co-marginals also give the total
        co = [self._co_marginal(i) for i in range(n)]
        total = co[0].sum()
        buf *= 1.0 / total
        values = self._stack[:n] @ buf
        regrets = [perm @ (c / total) - v for perm, c, v in zip(self.perms, co, values)]
        lse = float(peak + np.log(total))
        # L-BFGS-B reports each iterate after evaluating it; keep that
        # evaluation so recording the iterate costs nothing
        self._last = (flat.copy(), (lse, self._joint, regrets))
        return lse, self._joint, regrets

    def loss_grad(self, flat: np.ndarray):
        """The gradient in the multipliers is minus the deviation regret."""
        lse, _, regrets = self.evaluate(flat)
        return lse, -np.concatenate(regrets)

    def hessian(self, free: np.ndarray, regrets: np.ndarray) -> np.ndarray:
        """The dual's Hessian on the flat multiplier indices ``free``, at the
        last evaluated point, whose regrets on ``free`` are ``regrets``.

        It is the covariance under the joint of the free constraints' gain
        rows ``u_i(a, x_-i) - u_i(x)``.  A row's deviation payoffs are row
        ``a`` of ``perms[i]``, broadcast along player i's axis.  The rows are
        built over blocks of the joint's first axis of about
        ``CCE_HESSIAN_CELLS`` cells, and the second moment summed per block.
        """
        shape = tuple(self.sizes)
        stride = self._buf.size // shape[0]
        step = max(1, CCE_HESSIAN_CELLS // stride)
        offsets = np.cumsum([0, *shape])
        # ``free`` is sorted, so each player's rows are one slice of it;
        # a player's deviation payoffs get a unit axis for its own action
        bounds = np.searchsorted(free, offsets)
        groups = []
        for i in range(len(shape)):
            lo, hi = bounds[i], bounds[i + 1]
            if lo < hi:
                dev = self.perms[i][free[lo:hi] - offsets[i]]
                dev = dev.reshape((hi - lo,) + shape[:i] + shape[i + 1 :])
                groups.append((lo, hi, i, np.expand_dims(dev, i + 1)))
        utils = [row.reshape(shape) for row in self._stack[:-1]]
        joint = self._buf.reshape(shape[0], stride)
        gain = np.empty((free.size, min(step, shape[0]) * stride))
        second = np.zeros((free.size, free.size))
        for first in range(0, shape[0], step):
            last = min(first + step, shape[0])
            block = gain[:, : (last - first) * stride]
            for lo, hi, i, dev in groups:
                own = dev if i == 0 else dev[:, first:last]
                out = block[lo:hi].reshape((hi - lo, last - first) + shape[1:])
                np.subtract(own, utils[i][first:last], out=out)
            second += (block * joint[first:last].ravel()) @ block.T
        return second - np.outer(regrets, regrets)


def _kkt_residual(flat: np.ndarray, regrets: np.ndarray) -> float:
    """The largest violation of the dual's KKT conditions: a positive
    regret, or a positive multiplier's regret away from zero."""
    return float(np.max(np.where(flat > 0, np.abs(regrets), regrets), initial=0.0))


def _newton_finish(dual: _CCEDual, flat: np.ndarray, tol: float, record, budget: int):
    """Projected Newton steps on the CCE dual from the multipliers ``flat``
    (Bertsekas 1982), until the KKT residual is at most ``tol``, for at most
    ``budget`` steps, or until a step finds no decrease.

    The free set holds the positive multipliers and those whose regret, the
    negative gradient, is positive.  On it the step solves the Hessian
    system by least squares, whose least-norm solution stays unique where
    exact clones make the Hessian singular.  The step is projected onto the
    nonnegative orthant and shortened until the loss falls by
    ``CCE_ARMIJO`` of its first-order decrease, up to rounding: after the
    full step comes the longest one that clips no multiplier, if that is
    under a half, then halvings.  Each step is recorded.  Returns the last
    point, its regrets and the number of steps.
    """
    lse, _, regrets = dual.evaluate(flat)
    r = np.concatenate(regrets)
    steps = 0
    while _kkt_residual(flat, r) > tol and steps < budget:
        free = np.flatnonzero((flat > 0) | (r > 0))
        d = np.linalg.lstsq(dual.hessian(free, r[free]), r[free])[0]
        slack = CCE_LOSS_ROUNDING * (1.0 + abs(lse))
        x = flat[free]
        hits = (d < 0) & (x > 0)
        t_bound = float(np.min(x[hits] / -d[hits], initial=1.0))
        t = 1.0
        while True:
            trial = flat.copy()
            trial[free] = np.maximum(x + t * d, 0.0)
            trial_lse, _, trial_regrets = dual.evaluate(trial)
            if trial_lse <= lse - CCE_ARMIJO * (r @ (trial - flat)) + slack:
                break
            if t == 1.0 and t_bound < 0.5:
                t = t_bound
            else:
                t *= 0.5
                if t < NEWTON_MIN_DAMPING:
                    return flat, r, steps
        flat, lse, r = trial, trial_lse, np.concatenate(trial_regrets)
        steps += 1
        record(flat)
    return flat, r, steps


def solve_mre_cce(game: Game, config: CCEConfig | None = None) -> EquilibriumResult:
    """Max-relative-entropy CCE: bounded L-BFGS-B on the convex dual,
    finished by projected Newton.

    The dual variables are one multiplier ``alpha >= 0`` per player and
    deviation action; the joint is the softmax of the target log-joint
    tilted by the multipliers (``_CCEDual``), and the dual loss is its
    log-partition (Ortiz, Schapire & Kakade 2007).  The loss's gradient in
    ``alpha`` is minus the deviation regret under the implied joint, and
    its Hessian the covariance of the deviation gains.  At the minimum the
    KKT conditions hold: every regret is at most zero, and a multiplier is
    positive only where its regret is zero, so the joint is the
    KL-projection of the target onto the CCE polytope.

    L-BFGS-B runs from all-zero multipliers, i.e. the target itself, until
    its set of positive multipliers has stayed the same for
    ``CCE_STABLE_ITERS`` iterations, or until the loss stops falling in
    floating point.  The projected Newton finish (``_newton_finish``) then
    takes the multipliers to the KKT conditions at rounding level,
    ``CCE_KKT_TOL`` times the largest absolute payoff, so the joint is the
    maximiser itself, not a gradient-tolerance iterate.  A finish that
    misses them resumes L-BFGS-B once from its last point with an empty
    memory, now without the hand-over, and finishes again (``restarts``
    1).  ``max_steps`` caps the L-BFGS-B iterations and Newton steps
    together, and the trace holds one record for each.

    The joint is accepted if its exploitability is at most ``epsilon_cce``
    and it either meets the KKT conditions (termination ``"kkt"``) or was
    reached within ``max_steps`` with steps to spare (termination
    ``"epsilon_cce"``); otherwise ``ConvergenceError`` carries the final
    iterate and the trace.  Deterministic.
    """
    config = config or CCEConfig()
    targets = _validate_targets(
        game, uniform_targets(game) if config.targets is None else config.targets
    )
    dual = _CCEDual(game, targets)
    tol = CCE_KKT_TOL * max(float(np.abs(u).max()) for u in game.utilities)
    flat = np.zeros(sum(dual.sizes))

    trace: list[TraceRecord] = []

    def record(flat: np.ndarray) -> None:
        lse, _, regrets = dual.evaluate(flat)
        exploit = sum(max(0.0, float(r.max())) for r in regrets)
        trace.append(TraceRecord(len(trace), None, lse, exploit))

    def steps_left() -> int:
        return config.max_steps - (len(trace) - 1)

    record(flat)
    newton_steps = 0
    # the first L-BFGS-B run hands over to the finish; a finish that misses
    # the KKT conditions resumes L-BFGS-B once, run until it stops.  Of
    # 5,116 solves in a 32-trial skill-world cce run, 13 were resumed and
    # none needed a second resume; 5 ended short of the KKT tolerance, at
    # exploitability 1.2e-11 or less.
    for restarts, handover in enumerate((True, False)):
        support, same = None, 0

        def callback(intermediate_result) -> None:
            nonlocal support, same
            record(intermediate_result.x)
            if handover:
                positive = intermediate_result.x > 0
                same = same + 1 if np.array_equal(positive, support) else 0
                support = positive
                if same >= CCE_STABLE_ITERS:
                    raise StopIteration

        opt = minimize(
            dual.loss_grad,
            flat,
            jac=True,
            method="L-BFGS-B",
            bounds=[(0.0, None)] * flat.size,
            callback=callback,
            options={
                "maxiter": steps_left(),
                # an iteration makes at most maxls + 1 = 21 evaluations, so
                # only maxiter binds
                "maxfun": 21 * steps_left(),
                # no tolerance: the run stops at the hand-over, or where
                # the loss stops falling in floating point
                "gtol": 0.0,
                "ftol": 0.0,
            },
        )
        flat = opt.x
        if steps_left() <= 0:
            break
        flat, regrets, steps = _newton_finish(
            dual, flat, tol, record, min(CCE_NEWTON_STEPS, steps_left())
        )
        newton_steps += steps
        if _kkt_residual(flat, regrets) <= tol or steps_left() <= 0:
            break
    _, x, regrets = dual.evaluate(flat)
    kkt = _kkt_residual(flat, np.concatenate(regrets)) <= tol
    profile = JointDistribution(x)
    final_exploit = exploitability(game, profile)
    duals = _split(flat.copy(), dual.sizes)
    # a spent budget leaves a joint that is feasible at best, not yet the
    # entropy maximiser
    if not (kkt or steps_left() > 0) or not final_exploit <= config.epsilon_cce:
        raise ConvergenceError(
            f"solve_mre_cce: exploitability {final_exploit:.3e} "
            f"(bound {config.epsilon_cce:.1e}) after {len(trace) - 1} steps and "
            f"{restarts} restarts: {opt.message}",
            iterate=profile,
            trace=trace,
        )
    return EquilibriumResult(
        profile=profile,
        exploitability=final_exploit,
        trace=trace,
        converged=True,
        method="cce",
        termination="kkt" if kkt else "epsilon_cce",
        targets=targets,
        duals=duals,
        config={
            "max_steps": config.max_steps,
            "epsilon_cce": config.epsilon_cce,
        },
        restarts=restarts,
        newton_steps=newton_steps,
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
    stalled: int  # traced priors that raised ConvergenceError


def _indifference(ops: _Contraction, x: np.ndarray, v: np.ndarray, support: np.ndarray):
    """Residual and Jacobian of a support's indifference equations at flat
    marginals x, zero off the support, and one value v_i per player.

    The residual is ``dev_i[a](x) - v_i`` for each supported action a of
    each player i, then ``sum(x_i) - 1`` per player; the unknowns are x on
    the support, then v.  The x-block of the Jacobian is the pair blocks
    ``dE[u_i | a_i]/dx_j[b]``.  Leaves the pair blocks at x.
    """
    dev = ops.contract(x)
    seg = ops.seg[support]
    f = np.concatenate([dev[support] - v[seg], ops.seg_sum(x) - 1.0])
    b_r, b_mr = ops.schur_blocks()
    pairs = np.zeros((x.size, x.size))
    pairs[np.ix_(ops.rest, ops.cols)] = b_r
    pairs[ops.big, ops.rest] = b_mr
    member = (seg[:, None] == np.arange(len(ops.sizes))).astype(float)
    jac = np.block([
        [pairs[np.ix_(support, support)], -member],
        [member.T, np.zeros((member.shape[1],) * 2)],
    ])
    return f, jac


def _polish(ops: _Contraction, x: np.ndarray) -> np.ndarray | None:
    """The exact equilibrium on the support of flat marginals x, or None.

    The support holds each player's actions with more than
    ``SUPPORT_FRACTION`` of its largest mass.  Newton solves its
    indifference equations (``_indifference``), in one step on two players,
    whose deviation payoffs are linear.  The result counts only if the
    system is nonsingular and solved to ``NEWTON_TOL``, no mass is negative
    and the exploitability is at most 1e-9.
    """
    peak = np.maximum.reduceat(x, ops.starts)
    keep = x > SUPPORT_FRACTION * peak[ops.seg]
    support = np.flatnonzero(keep)
    x = np.where(keep, x, 0.0)
    v = ops.seg_sum(x * ops.contract(x))
    k = support.size
    for _ in range(NEWTON_STAGE_ITERS):
        f, jac = _indifference(ops, x, v, support)
        if np.abs(f).max() <= NEWTON_TOL:
            break
        try:
            d = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            return None
        x[support] += d[:k]
        v += d[k:]
    else:
        return None
    if np.any(x < 0):
        return None
    x /= ops.seg_sum(x)[ops.seg]
    if ops.exploitability(x, ops.contract(x)) > 1e-9:
        return None
    return x


def enumerate_nes(
    game: Game,
    count: int,
    epsilon: float = 1e-3,
    seed: int = 0,
    replicas: int | None = None,
    lle_config: QREConfig | None = None,
) -> EnumerationResult:
    """Collect up to ``count`` distinct approximate Nash equilibria.

    Candidates come from logit tracing procedures (McKelvey & Palfrey
    1995; Herings & Peeters 2010).  Element 0 is the LLE under
    ``lle_config``; the others trace ``solve_lle`` from ``replicas``
    priors, each player's target drawn from a flat Dirichlet by
    ``default_rng(seed)``, so different priors can end on different
    equilibria.  Every trace runs with ``epsilon_ne=0`` down to the lower
    of ``tau_terminal`` and ``ENUM_TAU_TERMINAL``; a prior whose trace
    raises ``ConvergenceError`` is counted in ``stalled`` and skipped.
    Each candidate is then polished to the exact equilibrium on its
    support (``_polish``), cf. Porter, Nudelman & Shoham (2008), and kept
    traced where the polish fails.  Candidates after element 0 with
    exploitability above ``epsilon`` are dropped, and profiles whose rating
    vectors differ by less than ``DEDUP_TOL`` in L2 are considered the
    same equilibrium.
    Priors are traced in turn only until ``count`` equilibria are kept.
    Raises ``ConvergenceError`` if the LLE cannot be traced.
    """
    if count < 1:
        raise ParameterError("count must be at least 1")
    config = lle_config or QREConfig()
    deep = replace(
        config, epsilon_ne=0.0, tau_terminal=min(config.tau_terminal, ENUM_TAU_TERMINAL)
    )
    lle = solve_lle(game, deep)
    ops = _Contraction(game)
    R = replicas if replicas is not None else max(8, 4 * count)
    rng = np.random.default_rng(seed)
    profiles, ratings, exploits = [], [], []
    stalled = 0
    prof = lle.profile
    for pos in range(R + 1):
        if pos > 0:
            targets = tuple(rng.dirichlet(np.ones(n)) for n in game.shape)
            try:
                prof = solve_lle(game, replace(deep, targets=targets)).profile
            except ConvergenceError:
                stalled += 1
                continue
        x = np.concatenate(prof.marginals)
        polished = _polish(ops, x)
        if polished is not None:
            x = polished
        dev = ops.contract(x)
        ex = ops.exploitability(x, dev)
        rv = ops.regrets(x, dev)
        if pos > 0 and ex > epsilon:
            continue
        if any(np.linalg.norm(rv - prev) < DEDUP_TOL for prev in ratings):
            continue
        profiles.append(ProductProfile(tuple(_split(x, ops.sizes))))
        ratings.append(rv)
        exploits.append(ex)
        if len(profiles) == count:
            break
    gaps = [float(np.linalg.norm(a - b)) for a, b in combinations(ratings, 2)]
    return EnumerationResult(
        profiles=profiles,
        rating_vectors=ratings,
        exploitabilities=exploits,
        requested=count,
        complete=len(profiles) >= count,
        min_pairwise_gap=min(gaps, default=0.0),
        stalled=stalled,
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
