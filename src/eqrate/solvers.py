"""Equilibrium solvers.

Two selection routes:

* ``solve_lle`` follows the principal branch of logit quantal-response
  equilibria, from the target profile at infinite temperature toward the
  zero-temperature limit (McKelvey & Palfrey 1995), by one
  pseudo-arclength predictor-corrector loop in the log-marginals and
  lambda = 1/tau (Turocy 2005; Allgower & Georg 1990), from lambda 0 on
  through every fold of the branch.  The logits are tilted by per-player
  target distributions, so a max-affinity-entropy target makes the traced
  equilibrium invariant to cloned actions.
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

import functools
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from itertools import combinations

import numpy as np
from scipy.linalg import lapack
from scipy.optimize import minimize
from scipy.special import softmax

from . import kernels
from .errors import ConvergenceError, DimensionError, ParameterError
from .games import Game, JointDistribution, ProductProfile, all_regrets, exploitability_from_regrets

# Solver defaults.
DEFAULT_TAU_TERMINAL = 1e-2
DEFAULT_EPSILON_NE = 1e-3

# The LLE trace (``solve_lle``) follows the QRE branch by pseudo-arclength
# continuation in v = (y, lambda = 1/tau), y the log-marginals (Allgower &
# Georg 1990, ch. 6).  Its arclength weights each log-marginal by its
# target and lambda by ARC_LAMBDA_WEIGHT.  The step length h starts at
# ARC_FIRST_STEP and follows the prediction's error e, the max-norm distance
# from the prediction to the corrected point, at order p: h <- h * min(0.9 *
# (ARC_PREDICT_TOL / e)**(1/p), 4); a step whose factor falls below 1/2 is
# retried at half the length.  Every correction is full Newton steps on a
# hyperplane (``_arc_correct``), at most NEWTON_ITERS of them: a step's
# until the residual's max-norm is at most ARC_TOL, halved for the rest of
# the trace by each failed step; the landing on tau_terminal, on the
# hyperplane of fixed lambda, until it is at most NEWTON_TOL.  The trace
# raises once h falls below ARC_MIN_STEP.  Over 2,250 random KOTH games
# (150 each of 20x6, 10x4, 30x8, 8x3 and 40x5 prompts x models, drawn by
# default_rng(1), (2) and (3)) none raises, where a temperature grid with
# arclength detours raised on 11; ARC_TOL 1e-3, ARC_PREDICT_TOL 1.5e-2 or
# an ARC_LAMBDA_WEIGHT of 1 each lost the branch or raised on some.  The
# landing needs no line search: a damped Newton with step halving, once
# used there, halved no step in 2,165 landings on those games.
NEWTON_TOL = 1e-10
NEWTON_ITERS = 30
ARC_TOL = 3e-4
ARC_PREDICT_TOL = 1e-2
ARC_FIRST_STEP = 0.3
ARC_LAMBDA_WEIGHT = 0.1
ARC_MIN_STEP = 1e-10

# L-BFGS-B on the CCE dual hands over to the projected Newton finish
# (``_newton_finish``) once its set of positive multipliers has been the
# same for CCE_STABLE_ITERS iterations.  On the bench's arena game that is
# after 27 iterations, where L-BFGS-B alone took 147 to a projected
# gradient of 1e-8.  With the Hessian built from sums over player 0's axis,
# medians over 4-5 runs of 5 solves each, on arena and a 5-iteration
# skill-world cce trial: 2 took 91.6 and 49.0 ms of CCE time, 3 83.6 and
# 49.8, 5 88.0 and 49.5, 8 96.9 and 52.8.  No value was faster than 5 on both.
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
# step.  A step shorter than NEWTON_MIN_DAMPING ends the finish.
CCE_ARMIJO = 1e-4
CCE_LOSS_ROUNDING = 1e-13
NEWTON_MIN_DAMPING = 2.0**-30
# The finish's Hessian is accumulated over blocks of the joint of about
# this many cells, so no gain matrix over the whole joint is built.  On
# the bench's arena game (6 rows a block: 5 gain rows and u_0) blocks of
# 2**12, 2**13, 2**14 and 2**15 cells took 3.0-3.6, 2.4-2.8, 2.5-3.1 and
# 4.7-5.2 ms a Hessian, at transient peaks of 0.89, 1.2, 2.0 and 3.6 MB
# (tracemalloc); 2**12 keeps the smallest peak at a cost of under 1 ms.
CCE_HESSIAN_CELLS = 2**12

# ``enumerate_nes`` traces each candidate to ENUM_TAU_TERMINAL and takes as
# its support the actions with more than SUPPORT_FRACTION of the player's
# largest mass.  At tau 1e-2 the off-support mass of a KOTH game's traced
# profiles is still above that fraction: on the 12x4 game of the bench
# generator (content seed 0), traced to 1e-2, neither the LLE nor any of the
# 10 priors of ``default_rng(0)`` polishes (4 of the 11 would with a 1e-2
# fraction); traced to 1e-3, all of them do.
ENUM_TAU_TERMINAL = 1e-3
SUPPORT_FRACTION = 1e-3
# candidates whose rating vectors are closer than this in L2 are one
# equilibrium
DEDUP_TOL = 1e-3


def _check_max_steps(value) -> None:
    # a NaN cap never stops a solve, and a float or bool one would be saved
    # in the result's config as it is
    if type(value) is not int or value < 1:
        raise ParameterError(f"max_steps must be an integer of at least 1, not {value!r}")


@dataclass(frozen=True)
class QREConfig:
    """Settings of the LLE trace: the temperature ``tau_terminal`` whose
    point of the QRE branch ``solve_lle`` returns; the early exit
    ``epsilon_ne``; the cap ``max_steps`` on Newton iterations in all; and
    the per-player ``targets`` (default: affinity targets)."""

    tau_terminal: float = DEFAULT_TAU_TERMINAL
    # stop early once the true exploitability is at most this; 0 turns the
    # early exit off, so the trace always runs to tau_terminal
    epsilon_ne: float = DEFAULT_EPSILON_NE
    # Newton iterations in all, counting those of rejected steps
    max_steps: int = 200_000
    targets: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if not 0 < self.tau_terminal < math.inf:
            raise ParameterError(f"tau_terminal must be positive and finite, not {self.tau_terminal}")
        if not self.epsilon_ne >= 0:
            raise ParameterError(f"epsilon_ne must be nonnegative, not {self.epsilon_ne}")
        _check_max_steps(self.max_steps)


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
        _check_max_steps(self.max_steps)


# the config class of each equilibrium method
SOLVER_CONFIGS = {"ne": QREConfig, "cce": CCEConfig}


def _settings(config: QREConfig | CCEConfig) -> dict:
    """Every field of a solver config but its targets, in field order: the
    ``config`` an ``EquilibriumResult`` stores."""
    return {f.name: getattr(config, f.name) for f in fields(config) if f.name != "targets"}


@dataclass
class TraceRecord:
    step: int
    tau: float | None
    loss: float
    exploitability: float


@dataclass
class EquilibriumResult:
    """A solve's equilibrium, its exploitability and its trace.

    ``regrets`` holds one vector per player, each action's deviation gain
    at ``profile``, from the solve's own evaluation of it: the contraction
    of the LLE's final exact record, or the CCE dual's evaluation that
    built the joint.  It is kept in memory only; ``to_dict`` does not
    write it, and ``ratings.rate`` takes the regrets of a loaded profile
    afresh.
    """

    profile: ProductProfile | JointDistribution
    exploitability: float
    trace: list[TraceRecord]
    converged: bool
    method: str
    termination: str
    targets: tuple[np.ndarray, ...] | None = None
    duals: list[np.ndarray] | None = None
    config: dict | None = None
    # CCE: 1 if L-BFGS-B was resumed after a Newton finish that missed the
    # KKT conditions; 0 for an LLE
    restarts: int = 0
    # CCE: steps of the projected Newton finish
    newton_steps: int = 0
    regrets: list[np.ndarray] | None = None

    def to_dict(self) -> dict:
        """JSON-ready dict.  A product profile is stored as its
        ``marginals``; a CCE as its dual multipliers, ``{"type": "cce_dual",
        "duals": [...], "shape": [...]}`` with one list per player, since
        the multipliers and ``targets`` fix the joint (``profile_from_dict``
        rebuilds it).  Each trace record is its ``TraceRecord`` fields, and
        ``config`` every solver setting but the targets."""
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
            "trace": [asdict(r) for r in self.trace],
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
    joint bit for bit.

    A dict without a profile of one of those types and its keys (and a
    ``cce_dual``'s ``targets``) raises ``ParameterError``, as do a profile
    whose shape is not the game's, marginals with a NaN or infinite entry,
    multipliers that are not finite and nonnegative, and a joint whose
    exploitability on ``game`` is not finite or exceeds the dict's
    ``config.epsilon_cce``: that CCE was solved on another game.  A
    ``cce_dual`` joint's exploitability comes from the evaluation that
    rebuilt it, as the solve's did.  A value of the wrong JSON type raises
    ``TypeError`` or ``ValueError`` instead.
    """
    needed = {"product": ("marginals",), "cce_dual": ("duals", "shape")}
    prof = data.get("profile") if isinstance(data, dict) else None
    keys = needed.get(prof.get("type")) if isinstance(prof, dict) else None
    # a CCE's multipliers rebuild its joint with the dict's targets
    if keys is None or any(k not in prof for k in keys) or (prof["type"] == "cce_dual" and data.get("targets") is None):
        raise ParameterError(f"an equilibrium file holds a profile of type {', '.join(needed)} with its keys")
    product = prof["type"] == "product"
    shape = tuple(len(m) for m in prof["marginals"]) if product else tuple(prof["shape"])
    if shape != game.shape:
        raise ParameterError(f"equilibrium of shape {shape} does not fit game {game.shape}")
    if product:
        marginals = tuple(np.asarray(m, dtype=float) for m in prof["marginals"])
        if not all(np.isfinite(m).all() for m in marginals):
            raise ParameterError("the stored marginals hold a NaN or infinite entry")
        with np.errstate(over="ignore"):  # a sum that overflows is not 1
            return ProductProfile(marginals)
    if [len(a) for a in prof["duals"]] != list(shape):
        raise ParameterError("one multiplier per player and action required")
    duals = np.concatenate(prof["duals"], dtype=float)
    if not (np.isfinite(duals) & (duals >= 0)).all():
        raise ParameterError("the stored multipliers hold a NaN, infinite or negative entry")
    targets = tuple(np.asarray(t, dtype=float) for t in data["targets"])
    _validate_targets(game, targets)
    # the stored targets are the solve's own; validation may renormalise
    # them by an ulp, so the joint is built from them as stored
    with np.errstate(over="ignore", invalid="ignore"):
        _, x, regrets = _CCEDual(game, targets).evaluate(duals)
        profile = JointDistribution(x)
    gap = exploitability_from_regrets(regrets)
    bound = (data.get("config") or {}).get("epsilon_cce")
    if not (math.isfinite(gap) and (bound is None or gap <= bound)):
        within = "" if bound is None else f", not within its bound {bound:.1e}"
        raise ParameterError(
            f"the stored CCE has exploitability {gap:.3e} on this game{within}: "
            "it was solved on another game, or holds a NaN"
        )
    return profile


class _Contraction:
    """Pairwise payoff blocks of a game over one flat action vector.

    Every player's actions are laid end to end, player i owning the segment
    ``slices[i]``, so per-player softmax and dot products are segment
    reductions over ``starts``.  For each ordered pair (i, j) the block
    ``E[u_i | a_i, a_j]``, the remaining players mixed independently, is
    ``blocks[i, j]``, kept beside the block of (j, i), which mixes the same
    players.  The two payoff tensors are stored with those players' axes
    leading, so one ``w @ mat`` refreshes both blocks, ``w`` being the
    Kronecker product of their marginals; with two players the blocks are
    constant.  ``contract`` and ``schur_blocks`` return their own buffers,
    valid until the next call.

    For the Newton corrector the actions split into the largest player's,
    ``big``, and the ``rest``; ``schur_blocks`` gathers the pair blocks
    between and within the two groups, the rest's rows stacked over the
    columns ``cols``: big, then rest.  The corrector's work buffers are
    kept here too (``_newton_direction``).
    """

    def __init__(self, game: Game):
        n, shape = game.num_players, game.shape
        self.sizes = list(shape)
        offsets = np.cumsum([0, *shape])
        self.starts = offsets[:-1]
        self.seg = np.repeat(np.arange(n), shape)
        self.slices = [slice(a, b) for a, b in zip(offsets[:-1], offsets[1:])]
        self.marginals = np.empty(offsets[-1])
        self.dev = game.utilities[0].astype(float) if n == 1 else np.empty(offsets[-1])
        big = int(np.argmax(shape))
        nb, size = shape[big], offsets[-1]
        self.big = self.slices[big]
        self.rest = np.flatnonzero(self.seg != big)
        nr = self.rest.size
        # where each player's segment sits within rest
        at = {i: self.slices[i].start - (nb if i > big else 0) for i in range(n)}
        # one 0/1 row per rest player over the rest, marking its actions
        rest_seg = np.repeat(np.arange(n - 1), [s for i, s in enumerate(shape) if i != big])
        self.rest_players = (rest_seg == np.arange(n - 1)[:, None]).astype(float)
        # the flat indices of the corrector's system's columns before
        # elimination, cols and then lambda, and of its unknowns, the rest
        # and then lambda; e_lambda, the normal of a hyperplane of fixed tau
        self.order = np.concatenate([np.arange(self.big.start, self.big.stop), self.rest, [size]])
        self.cols = self.order[:-1]
        self.unknowns = self.order[nb:]
        self.fixed_tau = np.zeros(size + 1)
        self.fixed_tau[-1] = 1.0
        # the gathered blocks, each with the deviation payoffs as one more
        # column; the big rows with a spare zero column for the residual
        self._b_r = np.zeros((nr, size + 1))
        self._b_mr = np.zeros((nb, nr + 2))
        # the elimination's work (``_newton_direction``): x / tau over cols,
        # then ones for the border and the residual; the rows to eliminate;
        # the big rows over the identity of the unknowns; -I over the rest's
        # rows, transposed, with a last row for the right-hand side; and the
        # unknowns then -1
        self._scale = np.ones(size + 2)
        self._rows = np.empty((nr + 1, size + 1))
        self._stack = np.zeros((size + 1, nr + 2))
        self._stack[nb:, :-1] = np.eye(nr + 1)
        self._minus_eye = np.zeros((nr + 2, nr + 1))
        self._minus_eye[:nr, :nr] = -np.eye(nr)
        self._tail = np.full(nr + 2, -1.0)
        # the pair blocks: B_ij and B_ji share the remaining players, so one
        # buffer holds both and one w @ mat refreshes it
        self.blocks = blocks = {}
        self._refresh = []
        for i, j in combinations(range(n), 2):
            rest = [k for k in range(n) if k not in (i, j)]
            cells = shape[i] * shape[j]
            mat = np.concatenate(
                [
                    game.utilities[i].transpose(*rest, i, j).reshape(-1, cells),
                    game.utilities[j].transpose(*rest, j, i).reshape(-1, cells),
                ],
                axis=1,
            )
            buf = np.empty(2 * cells)
            blocks[i, j] = buf[:cells].reshape(shape[i], shape[j])
            blocks[j, i] = buf[cells:].reshape(shape[j], shape[i])
            if rest:
                self._refresh.append((mat, [self.marginals[self.slices[k]] for k in rest], buf))
            else:
                buf[:] = mat[0]
        # each player's deviation payoffs are its block against player 0
        # (player 0's against player 1) times that co-player's marginal
        self._devs = [
            (blocks[i, int(i == 0)], self.marginals[self.slices[int(i == 0)]], self.dev[self.slices[i]])
            for i in range(n if n > 1 else 0)
        ]
        # where each block goes in ``schur_blocks``' matrices: big's rows by
        # the rest's columns, or a rest player's rows by big's then the
        # rest's columns
        self._gather = []
        for (i, j), block in blocks.items():
            if i == big:
                dest = self._b_mr[:, at[j] : at[j] + shape[j]]
            elif j == big:
                dest = self._b_r[at[i] : at[i] + shape[i], :nb]
            else:
                dest = self._b_r[at[i] : at[i] + shape[i], nb + at[j] : nb + at[j] + shape[j]]
            self._gather.append((dest, block))

    def schur_blocks(self):
        """The pair blocks at the last ``contract``, gathered into two
        matrices: rest rows by ``cols`` (big then rest; zero within a
        player), then the rest's deviation payoffs; and big rows by rest
        columns, then the big player's deviation payoffs and a zero
        column."""
        for dest, block in self._gather:
            dest[...] = block
        self._b_r[:, -1] = self.dev[self.rest]
        self._b_mr[:, -2] = self.dev[self.big]
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
        player's deviation payoffs, flat.  Until the next call ``marginals``
        holds a copy of x and ``dev`` the returned payoffs."""
        self.marginals[...] = x
        # np.dot, not np.matmul: the same bits, with less dispatch per call
        for mat, xs, out in self._refresh:
            w = xs[0]
            for xk in xs[1:]:
                w = np.kron(w, xk)
            np.dot(w, mat, out=out)
        for block, xj, out in self._devs:
            np.dot(block, xj, out=out)
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
    """``flat`` cut into consecutive views of the given sizes."""
    out, start = [], 0
    for size in sizes:
        out.append(flat[start : start + size])
        start += size
    return out


def _validate_targets(game: Game, targets) -> tuple[np.ndarray, ...]:
    if len(targets) != game.num_players:
        raise DimensionError("one target distribution per player required")
    out = []
    for i, t in enumerate(targets):
        t = np.asarray(t, dtype=float)
        if t.shape != (game.num_actions(i),):
            raise DimensionError(f"target {i} has wrong length")
        if not (np.isfinite(t) & (t > 0)).all():
            raise ParameterError(f"target {i} must be finite and strictly positive")
        total = t.sum()
        if abs(total - 1.0) > 1e-6:
            raise ParameterError(f"target {i} must be a distribution")
        out.append(t / total)
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


def _newton_direction(ops: _Contraction, f, x, br, tau: float, border) -> np.ndarray | None:
    """Solve the bordered system ``[[J, c], [t^T]] [d; e] = -[f; q]`` of the
    QRE branch in ``(y, lambda = 1/tau)``, ``border = (t, q)``, and return
    ``[d; e]``.  J is the residual's Jacobian in y, ``I - P B diag(x) /
    tau``, with B the pair blocks at x and ``P = blockdiag(I - 1 br_i^T)``
    the log-softmax derivative; c is its derivative in lambda, ``-P dev``,
    minus the regrets at br of the last contraction's deviation payoffs.

    No player has a block against itself, so J's diagonal blocks are I.  The
    rows of ``P [B diag(x) / tau, dev]`` are formed for every action, in
    ``_Contraction``'s buffers.  The largest player's, ``big``, with its
    residual as one more column, are stacked over the identity of the other
    unknowns, the rest's and lambda, and one product with the rest's rows
    and the border row eliminates big's unknowns, leaving a dense solve
    over the rest and lambda.  None if that system is singular (LAPACK
    gesv's info > 0): a failed correction to ``_arc_correct``.
    """
    t, q = border
    b_r, b_mr = ops.schur_blocks()
    m, r = ops.big, ops.rest
    nb, n = b_mr.shape[0], r.size
    scale, rows, stack = ops._scale, ops._rows, ops._stack
    # x / tau over cols, ahead of two ones: the deviation payoffs' column
    # and the residual's are not scaled
    np.divide(x[ops.cols], tau, out=scale[:-2])
    # each rest player's rows pulled by I - 1 br_i^T, then scaled
    pull = ops.rest_players * br[r]
    np.subtract(b_r, np.dot(ops.rest_players.T, np.dot(pull, b_r)), out=rows[:n])
    rows[:n] *= scale[:-1]
    rows[n] = t[ops.order]
    # big's rows, then its residual: d_m = top @ [d_r; e; -1]
    top = stack[:nb]
    np.subtract(b_mr, np.dot(br[m], b_mr), out=top)
    top[:, -1] = f[m]
    top *= scale[nb:]
    # the transposed system, its last row the right-hand side: the rest's
    # rows come out negated with their residual, which leaves the solution
    # as it is, and the border row as it is, with t_m . f_m - q
    system = np.dot(stack.T, rows.T)
    minus_eye = ops._minus_eye
    minus_eye[-1, :n] = f[r]
    minus_eye[-1, n] = -q
    system += minus_eye
    _, _, u, info = lapack.dgesv(system[:-1].T, system[-1])
    if info != 0:
        return None
    d = np.empty(f.size + 1)
    d[ops.unknowns] = u
    tail = ops._tail
    tail[:-1] = u
    np.dot(top, tail, out=d[m])
    return d


def _record(ops: _Contraction, y: np.ndarray, x: np.ndarray):
    """The exploitability of a solved iterate y and the parts of its trace
    record, from the last residual at y, whose e^y is x: y, x, the
    deviation payoffs ``dev`` at x and each player's sum ``s_i`` of x.
    Deviation payoffs are multilinear in the co-players' marginals, so at
    the normalised profile ``x_i / s_i`` player i's are ``dev_i /
    prod_{k != i} s_k``: the record is exact at the normalised profile, at
    any tolerance, without another contraction."""
    s = np.add.reduceat(x, ops.starts)
    dev = ops.dev.copy()
    # max_a (dev_a - v) is max_a dev_a - v, in floating point too, as
    # rounding is monotone; a NaN gain stays NaN
    best = np.maximum.reduceat(dev, ops.starts).tolist()
    value = np.add.reduceat(x * dev, ops.starts).tolist()
    sums = s.tolist()
    total = math.prod(sums)
    exploit = sum(max((b - v / s_i) * (s_i / total), 0.0) for b, v, s_i in zip(best, value, sums))
    return exploit, (y, x, dev, s)


def _extrapolate(points, s: float) -> np.ndarray:
    """The Lagrange interpolant through the ``(s_k, v_k)`` of points,
    evaluated at s."""
    for k, (s_k, v_k) in enumerate(points):
        weight = 1.0
        for j, (s_j, _) in enumerate(points):
            if j != k:
                weight *= (s - s_j) / (s_k - s_j)
        if k == 0:
            pred = weight * v_k
        else:
            pred += weight * v_k
    return pred


def _arc_correct(ops: _Contraction, w: np.ndarray, normal: np.ndarray, logt: np.ndarray, tol: float, cap: int):
    """Newton on the hyperplane through ``w = [y; lambda]`` normal to
    ``normal`` (the bordered ``_newton_direction``), until the QRE
    residual's max-norm is at most ``tol``, for at most ``cap`` iterations,
    or until the system is singular: the LLE trace's one corrector, of its
    steps, of the point a step failed from and of the landing on
    ``tau_terminal`` (normal e_lambda, ``_Contraction.fixed_tau``).  A
    residual that is NaN, as where e^y overflows, ends it too, and only
    warns; ``solve_lle`` silences that around its whole trace.  Returns the
    last iterate, its e^y and tau, that max-norm and the iterations
    taken."""
    its = 0
    while True:
        lam = float(w[-1])
        tau = 1.0 / lam if lam else math.inf
        f, x, br = _qre_residual(ops, w[:-1], tau, logt)
        res = np.maximum.reduce(np.abs(f))
        if not res > tol or its == cap:
            return w, x, tau, res, its
        dw = _newton_direction(ops, f, x, br, tau, (normal, 0.0))
        its += 1
        if dw is None:
            return w, x, tau, res, its
        w = w + dw


def solve_lle(game: Game, config: QREConfig | None = None) -> EquilibriumResult:
    """Trace the principal branch of the logit QRE toward its
    low-temperature limit, the LLE.

    One pseudo-arclength predictor-corrector loop follows the branch in ``v
    = (y, lambda)``, y the log-marginals and lambda = 1/tau (Allgower &
    Georg 1990, ch. 6; Turocy 2005), from lambda 0, where it is the target
    profile t, to ``tau_terminal``.  Arclength is measured with each
    log-marginal weighted by its target, so a class of exact clones counts
    as one action and the trace, early exit included, is invariant to
    cloning; lambda has weight ``ARC_LAMBDA_WEIGHT``.  The first direction
    is the exact tangent at lambda 0, (the regrets at t, 1), normalised.
    Each step predicts with the Lagrange interpolant in arclength through
    the last three accepted points (two after the first step), and corrects
    by Newton on the hyperplane through the prediction normal to the
    direction from the last point to it (the bordered
    ``_newton_direction``), so the trace passes folds of the branch, where
    lambda turns back, as it passes any other point.  The step length
    follows the prediction's error (``ARC_PREDICT_TOL``).  A step fails, and
    is retried from the same point at half the length, if its corrector
    misses its tolerance (``ARC_TOL``) within ``NEWTON_ITERS`` iterations or
    meets a singular system, if the prediction missed by so much that the
    step would be more than halved, or if the corrected point lies at lambda
    <= 0: it may have left the branch.  Each failure also halves the
    corrector's tolerance for the rest of the trace, and the point the step
    failed from is first solved on to ``NEWTON_TOL``, once, on its own
    hyperplane: near a sharp fold a point within the tolerance can lie too
    far off the branch for any shorter step to start from.  Once an
    accepted point lies at or past ``1/tau_terminal``, the trace lands on
    ``tau_terminal``: from the chord's point at lambda ``1/tau_terminal``,
    between that point and the one before, Newton on the hyperplane of
    that lambda solves it to ``NEWTON_TOL``; a failure there also fails the
    step.  Every correction is ``_arc_correct``.  ``ConvergenceError`` is
    raised when the step falls below ``ARC_MIN_STEP``, or once
    ``max_steps`` caps the Newton iterations in all, those of failed steps
    included.

    Stops once ``tau_terminal`` is solved, or as soon as the start's or an
    accepted point's true (unregularized) exploitability reaches
    ``epsilon_ne``; with ``epsilon_ne=0`` that early exit is off and the
    trace always runs to ``tau_terminal``.  The trace holds the start
    (``tau`` None, at infinite temperature, where the QRE loss is 0), one
    record per accepted point and the returned profile's again, ``step``
    counting Newton iterations; ``restarts`` is 0.  Deterministic.

    An accepted point's record comes from the corrector's last residual,
    rescaled to the normalised profile (``_record``), so it is exact at
    that profile up to rounding, however loose the corrector's tolerance.
    Its exploitability is taken at that point; its loss is filled in when
    the trace ends, whether it returns or raises, in one batch.  The exact
    record (``_qre_gap``) is taken at ``tau_terminal`` and wherever the
    corrector's exploitability is at most ``2 * epsilon_ne``; so the early
    exit is decided on the returned profile's exact exploitability, and
    ``exploitability`` and the final record come from it.
    """
    config = config or QREConfig()
    if config.targets is None:
        config = replace(config, targets=kernels.affinity_targets(game))
    targets = _validate_targets(game, config.targets)
    logt = np.log(np.concatenate(targets))
    lam_end = 1.0 / config.tau_terminal

    ops = _Contraction(game)
    x = np.concatenate(targets)
    dev = ops.contract(x)
    exploit = ops.exploitability(x, dev)
    trace = [TraceRecord(0, None, 0.0, exploit)]
    # the regrets of the last exact record
    regrets = ops.regrets(x, dev)
    # the metric of arclength: each log-marginal weighted by its target, so
    # that exact clones, which split one target, count as one action
    metric = np.append(x, ARC_LAMBDA_WEIGHT)
    tangent = np.append(regrets, 1.0)
    tangent /= math.sqrt(tangent @ (metric * tangent))
    points = [(0.0, np.append(logt, 0.0))]  # (arclength, v) of the last accepted points
    y, h, step = logt, ARC_FIRST_STEP, 0
    termination = "epsilon_ne" if config.epsilon_ne > 0 and exploit <= config.epsilon_ne else None
    pending = []  # (trace index, y, x, dev, s) of the corrector's records
    tol = ARC_TOL  # the corrector's; halved, with the step, by each failure
    loose = False  # whether the last point was solved to tol only

    def correct(w, normal, tol):
        # at most NEWTON_ITERS iterations and what is left of max_steps
        nonlocal step
        w, x, tau, res, its = _arc_correct(ops, w, normal, logt, tol, min(NEWTON_ITERS, config.max_steps - step))
        step += its
        return w, x, tau, res

    with np.errstate(over="ignore", invalid="ignore"):
        while termination is None:
            if h < ARC_MIN_STEP:
                why = f"the arclength step fell below {ARC_MIN_STEP:g}"
                break
            s, v = points[-1]
            if len(points) == 1:
                pred, order = v + h * tangent, 2
            else:
                pred, order = _extrapolate(points, s + h), len(points)
            direction = pred - v
            normal = metric * direction
            normal /= math.sqrt(direction @ normal)
            w, x, tau, res = correct(pred, normal, tol)
            lam = float(w[-1])
            chord = w - v
            e = float(np.maximum.reduce(np.abs(w - pred)))
            grow = 0.9 * (ARC_PREDICT_TOL / e) ** (1.0 / order) if e else 4.0
            # a point whose prediction missed by so much that h would be cut
            # below half, or at lambda <= 0, may have left the branch
            ok = res <= tol and grow >= 0.5 and lam > 0
            terminal = ok and lam >= lam_end
            end = w
            if terminal:
                # the landing on tau_terminal; its record keeps the
                # configured tau, which 1 / lam_end may miss by an ulp
                end = v + (lam_end - v[-1]) / (lam - v[-1]) * chord
                end[-1] = lam_end
                end, x, _, res = correct(end, ops.fixed_tau, NEWTON_TOL)
                ok, tau = res <= NEWTON_TOL, config.tau_terminal
            if not ok:
                if step >= config.max_steps:
                    why = f"all {config.max_steps} Newton iterations spent"
                    break
                h *= 0.5
                tol = max(0.5 * tol, NEWTON_TOL)
                if loose:
                    # the point a step failed from is solved on to
                    # NEWTON_TOL, once, on its own hyperplane
                    tight, _, _, res = correct(v, last_normal, NEWTON_TOL)
                    loose = False
                    if res <= NEWTON_TOL:
                        points[-1] = (s, tight)
                continue
            loose, last_normal = True, normal
            y = end[:-1]
            exploit, parts = _record(ops, y, x)
            # the corrector's record differs from the exact one by rounding
            # only, but near epsilon_ne rounding could decide the exit, so it
            # is decided on the exact record
            if terminal or exploit <= 2.0 * config.epsilon_ne:
                loss, exploit = _qre_gap(ops, y, tau, logt)
                regrets = ops.regrets(ops.marginals, ops.dev)
            else:
                loss = np.nan
                pending.append((len(trace), *parts))
            trace.append(TraceRecord(step, tau, loss, exploit))
            if config.epsilon_ne > 0 and exploit <= config.epsilon_ne:
                termination = "epsilon_ne"
            elif terminal:
                termination = "terminal_tau"
            h *= min(grow, 4.0)
            points = [*points[-2:], (s + math.sqrt(chord @ (metric * chord)), w)]

    # a record from the corrector gets its loss here, on the raising path
    # too: tau (sum_i lse_i(v) + x . (y - v)), v = dev / tau + log t the
    # soft best response's input, in one batch over every such record's
    # profile x, log-marginals y and deviation payoffs dev, each normalised
    # as ``_record`` says
    if pending:
        rows, *columns = zip(*pending)
        # each record a column; np.stack(c, axis=1) builds the same, slower
        ys, xs, vs, sums = (np.array(c).T.copy() for c in columns)
        scale = sums[ops.seg]
        xs /= scale
        ys -= np.log(scale)
        vs /= sums.prod(axis=0) / scale
        vs /= [trace[k].tau for k in rows]
        vs += logt[:, None]
        _, lse = ops.log_softmax(vs)
        ys -= vs
        ys *= xs
        totals = lse.sum(axis=0) + ys.sum(axis=0)
        for k, total in zip(rows, totals.tolist()):
            trace[k].loss = trace[k].tau * total
    last = trace[-1]
    trace.append(replace(last, step=step))
    profile = ops.profile(y)
    if termination is None:
        lam = 0.0 if last.tau is None else 1.0 / last.tau
        raise ConvergenceError(
            f"solve_lle: {why} (lambda={lam:.4g}, loss={last.loss:.3e}, "
            f"exploitability={last.exploitability:.3e}, step {step})",
            iterate=profile,
            trace=trace,
        )
    return EquilibriumResult(
        profile=profile,
        exploitability=last.exploitability,
        trace=trace,
        converged=True,
        method="ne",
        termination=termination,
        targets=targets,
        config=_settings(config),
        regrets=_split(regrets, ops.sizes),
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
    next evaluation.  ``hessian`` splits its rows by player: player 0's, on
    the joint's first axis, from sums over that axis; every other player's
    from gain rows over blocks of the joint.
    """

    def __init__(self, game: Game, targets):
        shape = game.shape
        self.sizes = list(shape)
        self._offsets = np.cumsum([0, *shape])
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

        It is the covariance under the joint p of the free constraints' gain
        rows ``u_i(a, x_-i) - u_i(x)``.  A row's deviation payoffs are row
        ``a`` of ``perms[i]``, broadcast along player i's axis.  The rows
        split by player:

        - Every player but 0: gain rows, built with one more row, ``u_0``,
          over blocks of the joint's first axis of about
          ``CCE_HESSIAN_CELLS`` cells.  Their second moments, and their sums
          over ``x_0`` times p, ``S``, are summed per block.
        - Player 0, whose axis is the joint's first: no row over the joint.
          With ``D`` its rows of ``perms[0]``, ``m`` the co-marginal of the
          other players and ``w`` the ``S`` of ``u_0``, its own block of
          second moments is ``(D m) D' - D w 1' - 1 (D w)' + E[u_0^2]`` and
          its block with another row g is ``D S_g' - 1 E[g u_0]'``.

        ``D`` and ``u_0`` are first centred on ``u_0``'s mean given
        ``x_-0``, ``w / m``.  That leaves every gain as it is, and bounds
        each term of the own block's diagonal by the second moment it sums
        to; uncentred, terms of the size of ``u_0^2`` cancel.
        """
        shape = tuple(self.sizes)
        stride = self._buf.size // shape[0]
        step = max(1, CCE_HESSIAN_CELLS // stride)
        offsets = self._offsets
        # ``free`` is sorted, so each player's rows are one slice of it,
        # player 0's the first k; a player's deviation payoffs get a unit
        # axis for its own action
        bounds = np.searchsorted(free, offsets)
        k = bounds[1]
        groups = []
        for i in range(1, len(shape)):
            lo, hi = bounds[i], bounds[i + 1]
            if lo < hi:
                dev = self.perms[i][free[lo:hi] - offsets[i]]
                dev = dev.reshape((hi - lo,) + shape[:i] + shape[i + 1 :])
                groups.append((lo - k, hi - k, i, np.expand_dims(dev, i + 1)))
        utils = self._stack[:-1].reshape((len(shape),) + shape)
        joint, u0 = self._buf.reshape(shape[0], stride), self.perms[0]
        m = self._ones[0] @ joint
        # where m underflows to 0 any mean will do
        mean = np.einsum("ir,ir->r", joint, u0) / np.maximum(m, np.finfo(float).tiny)
        rows = free.size - k + 1
        gain = np.empty((rows, min(step, shape[0]) * stride))
        weighted = np.empty_like(gain)
        moment = np.zeros((rows, rows))
        sums = np.zeros((rows, stride))
        for first in range(0, shape[0], step):
            last = min(first + step, shape[0])
            block = gain[:, : (last - first) * stride]
            pg = weighted[:, : block.shape[1]]
            for lo, hi, i, dev in groups:
                out = block[lo:hi].reshape((hi - lo, last - first) + shape[1:])
                # a broadcast copy and a plain subtraction: one broadcast
                # subtraction, which numpy buffers, made arena's Hessian
                # about 9% slower
                np.copyto(out, dev[:, first:last])
                out -= utils[i][first:last]
            np.subtract(u0[first:last], mean, out=block[-1].reshape(last - first, stride))
            np.multiply(block, joint[first:last].ravel(), out=pg)
            moment += pg @ block.T
            sums += self._ones[0][: last - first] @ pg.reshape(rows, last - first, stride)
        # second moments of player 0's deviation payoffs, of the other rows
        # and of u_0; a row of player 0 is its deviation payoff less u_0
        d0 = u0[free[:k]] - mean
        left = d0 @ np.concatenate((d0 * m, sums)).T
        second = np.empty((k + rows, k + rows))
        second[:k] = left
        second[k:, :k] = left[:, k:].T
        second[k:, k:] = moment
        second[:k] -= second[-1]
        second[:, :k] -= second[:, -1:]
        return second[:-1, :-1] - np.outer(regrets, regrets)


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
    the Hessian is singular.  Exact clones make it so; ``solve`` passes
    their quotient instead, but a direct call of ``solve_mre_cce`` on a
    game with clones still reaches the singular case.  The step is
    projected onto the nonnegative orthant and shortened until the loss
    falls by ``CCE_ARMIJO`` of its first-order decrease, up to rounding:
    after the full step comes the longest one that clips no multiplier, if
    that is under a half, then halvings.  Each step is recorded.  Returns
    the last point, its regrets and the number of steps.
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
    iterate and the trace.  The exploitability and ``regrets`` come from
    the dual evaluation that built the joint.  Deterministic.
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
        trace.append(TraceRecord(len(trace), None, lse, exploitability_from_regrets(regrets)))

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
    final_exploit = exploitability_from_regrets(regrets)
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
        config=_settings(config),
        restarts=restarts,
        newton_steps=newton_steps,
        regrets=list(regrets),
    )


# ---------------------------------------------------------------------------
# Dispatch, on the quotient by exact duplicate actions


def _duplicate_classes(game: Game) -> list[np.ndarray] | None:
    """Each player's classes of exact duplicate actions: actions whose
    slices along the player's axis are equal, element by element, in every
    player's tensor.  Returns, per player, the first action of each
    action's class; None if no player has two actions in one class.

    Actions whose slices of the player's own tensor have equal bytes, once
    adding 0.0 has made each -0.0 a 0.0, are equal there, as utilities are
    finite.  Each is compared with the first of them in every tensor, and
    one that differs keeps a class of its own: a finer partition, still an
    exact quotient.  On a 2-core x86 VM a search takes 0.08 / 0.21 / 1.8
    ms on the bench's 60x8x8, 180x8x8 and 500x17x17 games, mostly hashing:
    under 1% of any bench op."""
    firsts, merged = [], False
    for i, u in enumerate(game.utilities):
        n = u.shape[i]
        slices = np.moveaxis(u, i, 0).reshape(n, -1) + 0.0
        seen = {}
        first = np.array([seen.setdefault(row.tobytes(), a) for a, row in enumerate(slices)])
        cand = np.flatnonzero(first != np.arange(n))
        if cand.size:
            same = np.ones(cand.size, dtype=bool)
            others = tuple(k for k in range(u.ndim) if k != i)
            for v in game.utilities:
                same &= (v.take(cand, axis=i) == v.take(first[cand], axis=i)).all(axis=others)
            first[cand[~same]] = cand[~same]
            merged |= bool(same.any())
        firsts.append(first)
    return firsts if merged else None


def _expand(profile: ProductProfile | JointDistribution, classes, shares):
    """A quotient game's profile on the full game: each class's mass split
    over its members by ``shares``, their parts of the class's target."""
    if isinstance(profile, ProductProfile):
        return ProductProfile(tuple(x[c] * s for x, c, s in zip(profile.marginals, classes, shares)))
    return JointDistribution(profile.joint[np.ix_(*classes)] * functools.reduce(np.multiply.outer, shares))


def solve(game: Game, method: str, targets, classes=..., **settings) -> EquilibriumResult:
    """Solve ``game`` for the equilibrium of ``method``: the LLE for
    ``"ne"``, the MRE CCE for ``"cce"``, toward ``targets``, one
    distribution per player and required.  ``settings`` are fields of the
    method's config class in ``SOLVER_CONFIGS``, built with ``targets``.
    The solver is looked up by its module name at call time, so a wrapper
    set on ``solve_lle`` or ``solve_mre_cce`` sees every solve.

    A game with exact duplicate actions (``_duplicate_classes``) is solved
    on its quotient: the first action of each class of duplicates, whose
    target is the sum of the class's targets.  Every QRE splits a class's
    mass in proportion to its members' targets, so the LLE's marginals are
    ``x_a = x_class * t_a / t_class``; the MRE CCE's multipliers are the
    quotient's, each class's on its first member and 0 on the others, and
    its joint is rebuilt from them on ``game``.  The result holds the full
    game's targets, and its exploitability and ``regrets`` from one
    evaluation on ``game``: the LLE's expanded profile's, or the CCE dual's
    that rebuilt the joint.  It holds the quotient solve's trace,
    ``termination``, ``restarts`` and ``newton_steps``, so the ``steps``,
    ``stages``, ``restarts`` and ``newton_steps`` of a CLI manifest count
    the quotient's work.  A ``ConvergenceError`` carries its iterate
    expanded to ``game``.  A game without duplicates goes to the solver as
    it is.  A caller that solves one game several times passes
    ``classes``, what ``_duplicate_classes(game)`` returned, so the game is
    searched once; left out, it is searched here.
    """
    if targets is None:
        raise ParameterError("solve needs targets: one distribution per player")
    config = SOLVER_CONFIGS[method](targets=targets, **settings)
    solver = solve_lle if method == "ne" else solve_mre_cce
    firsts = _duplicate_classes(game) if classes is ... else classes
    if firsts is None:
        return solver(game, config)
    targets = _validate_targets(game, targets)
    reps = [np.flatnonzero(first == np.arange(first.size)) for first in firsts]
    members = [np.searchsorted(r, first) for r, first in zip(reps, firsts)]
    sums = tuple(np.bincount(c, weights=t) for c, t in zip(members, targets))
    shares = [t / s[c] for t, s, c in zip(targets, sums, members)]
    utilities = game.utilities
    for i, r in enumerate(reps):
        if r.size < game.shape[i]:
            utilities = [u.take(r, axis=i) for u in utilities]
    quotient = Game(game.players, [[labels[a] for a in r] for labels, r in zip(game.action_labels, reps)], utilities)
    try:
        result = solver(quotient, replace(config, targets=sums))
    except ConvergenceError as exc:
        exc.iterate = _expand(exc.iterate, members, shares)
        raise
    if method == "ne":
        profile = _expand(result.profile, members, shares)
        regrets, duals = all_regrets(game, profile), None
    else:
        duals = [np.zeros(n) for n in game.shape]
        for full, r, alpha in zip(duals, reps, result.duals):
            full[r] = alpha
        # the joint as profile_from_dict rebuilds it from the saved result
        _, joint, regrets = _CCEDual(game, targets).evaluate(np.concatenate(duals))
        profile, regrets = JointDistribution(joint), list(regrets)
    gap = exploitability_from_regrets(regrets)
    return replace(result, profile=profile, exploitability=gap, targets=targets, duals=duals, regrets=regrets)


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
    pairs = np.zeros((x.size, x.size))
    for (i, j), block in ops.blocks.items():
        pairs[ops.slices[i], ops.slices[j]] = block
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
    for _ in range(NEWTON_ITERS):
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
    Raises ``ConvergenceError`` if the LLE cannot be traced, and
    ``ParameterError`` for a ``count`` below 1 or an ``epsilon`` that is
    negative or NaN.
    """
    if count < 1:
        raise ParameterError("count must be at least 1")
    if not epsilon >= 0:
        raise ParameterError(f"epsilon must be nonnegative, not {epsilon}")
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
