"""Skill-world simulation of rating-driven model and prompt selection.

Prompts are distributions over a fixed set of skills; models are
nonnegative skill-competency vectors accumulated as sums of simplex
increments.  Each iteration optionally adds the best-rated of a batch of
candidate prompts, then grows a candidate model by best-of increments
until it is the top-rated model overall.  The rating method is pluggable:
a Bradley-Terry/separability baseline or equilibrium ratings, so the
effect of the rating system on skill coverage can be compared via the
Shannon entropy of the mean prompt and model vectors.
"""

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import koth as koth_mod
from . import solvers
from .errors import ConvergenceError, ParameterError
from .games import Game, all_regrets
from .kernels import affinity_targets
from .ratings import elo_ratings, separability


# Candidates rated within SELECTION_TOL of the best are tied with it, and
# the first of them is picked.  Every action the CCE supports has regret 0,
# so a plain argmax among them would pick by solver rounding: in a 6-trial,
# 8-iteration cce run, 29 of 157 increment picks had two or more candidates
# within 1e-6 of the best, all at about -5e-9.
SELECTION_TOL = 1e-6


def _pick(ratings: np.ndarray) -> int:
    """The first index whose rating is within ``SELECTION_TOL`` of the
    largest."""
    return int(np.argmax(ratings >= ratings.max() - SELECTION_TOL))


def _king_tensor(prompts: np.ndarray, models: np.ndarray) -> np.ndarray:
    margins = prompts @ models.T  # (P, M)
    return margins[:, :, None] - margins[:, None, :]


def _skill_game(u_k: np.ndarray) -> Game:
    P, M = u_k.shape[0], u_k.shape[1]
    labels_p = tuple(f"p{i:03d}" for i in range(P))
    labels_m = tuple(f"m{i:03d}" for i in range(M))
    return koth_mod._koth_game(u_k, labels_p, labels_m, [None] * P).game


@dataclass(frozen=True)
class SimConfig:
    """Knobs for the evolutionary selection procedure.

    The elo arm rates prompts by separability and models by the Elo
    (Bradley-Terry) fit of the prompt-averaged win matrix.  Every
    equilibrium rating call solves its game from scratch, so each rates by
    the equilibrium its arm selects: the LLE traced from the targets, or
    the MRE CCE.

    ``solver`` overrides fields of the arm's solver config (``QREConfig``
    for ne, ``CCEConfig`` for cce) and is passed on as given.  Left None,
    the ne arm uses ``NE_OVERRIDES`` and the cce arm the ``CCEConfig``
    defaults.

    With ``n_jobs > 1`` the trials run in ``min(n_jobs, trials)`` worker
    processes.  Every ``int`` field must be an int, and every one but
    ``seed`` is a count of at least 1.
    """

    num_skills: int = 4
    initial_prompts: int = 10
    initial_models: int = 2
    candidate_prompts: int = 64  # best-of batch size for new prompts
    candidate_increments: int = 8  # improvement vectors sampled per inner round
    iterations: int = 30
    rating_method: str = "elo"  # elo | ne | cce
    additional_prompts: bool = True
    trials: int = 32
    seed: int = 0
    inner_round_cap: int = 1000
    solver: dict | None = None  # solver config overrides for ne/cce
    n_jobs: int = 1

    def __post_init__(self):
        ints = {f.name: getattr(self, f.name) for f in fields(self) if f.type is int}
        # JSON may give floats, strings or booleans; a saved trajectory needs ints
        for value in ints.values():
            if type(value) is not int:
                raise ParameterError(f"counts and seed must be integers, not {value!r}")
        if min(value for name, value in ints.items() if name != "seed") < 1:
            raise ParameterError("all counts must be at least 1")
        if self.rating_method not in ("elo", *solvers.SOLVER_CONFIGS):
            raise ParameterError(f"unknown rating method {self.rating_method!r}")
        if self.solver is not None and not isinstance(self.solver, dict):
            raise ParameterError(f"solver must be an object of settings, not {self.solver!r}")
        if self.solver is not None and self.rating_method != "elo":
            arm = solvers.SOLVER_CONFIGS[self.rating_method]
            # _ratings sets the targets itself
            allowed = {f.name for f in fields(arm)} - {"targets"}
            for key in self.solver:
                if key not in allowed:
                    raise ParameterError(f"solver key {key!r} is not a {arm.__name__} setting")
            try:
                arm(**self.solver)  # checks the values _ratings will solve with
            except TypeError as exc:
                raise ParameterError(f"solver settings {self.solver!r}: {exc}") from None


@dataclass
class TrialResult:
    trial: int
    seed: int
    aborted: bool = False
    abort_info: dict | None = None
    # one entry per ne or cce solve that raised ConvergenceError and was
    # rated with its unconverged iterate (kind "convergence_error"): the
    # iteration, the game shape and the iterate's exploitability
    fallbacks: list[dict] = field(default_factory=list)
    snapshots: list[dict] = field(default_factory=list)


@dataclass
class SimTrajectory:
    config: SimConfig
    trials: list[TrialResult]

    def to_dict(self) -> dict:
        """JSON-ready dict: ``config`` holds every ``SimConfig`` field and
        each of ``trials`` every ``TrialResult`` field, in field order."""
        return asdict(self)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_dict()))


def shannon_entropy(weights: np.ndarray) -> float:
    """Entropy (nats) of a nonnegative vector after L1 normalization."""
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    if total <= 0:
        return 0.0
    x = w / total
    pos = x > 0
    return float(-np.sum(x[pos] * np.log(x[pos])))


def _snapshot(t: int, prompts: list, models: list) -> dict:
    return {
        "t": t,
        "prompts": len(prompts),
        "models": len(models),
        "H_p": shannon_entropy(np.mean(prompts, axis=0)),
        "H_m": shannon_entropy(np.mean(models, axis=0)),
    }


# desk-scale overrides of the ne arm's QREConfig; pass solver={} for the
# pure paper schedule.  A soft terminal temperature is enough here:
# ratings only pick argmax candidates.
NE_OVERRIDES = {"tau_terminal": 0.1}


def _ratings(config: SimConfig, prompts: np.ndarray, models: np.ndarray, t: int, fallbacks: list):
    """Prompt and model ratings of the skill game of ``prompts`` and
    ``models`` by ``config.rating_method``.

    elo rates prompts by separability and models by the Elo fit of the
    win matrix.  ne and cce solve the game cold and rate by the regrets the
    solve returns with its equilibrium.  Payoffs are first scaled to
    max-abs 1 so the solver schedule and kernel bandwidth operate at their
    design scale; ratings are used only ordinally here and positive
    rescaling preserves the order.  A solve that raises
    ``ConvergenceError`` rates with the regrets at its unconverged iterate,
    and that event is appended to ``fallbacks``; an ne solve's arclength
    trace passes a fold of the QRE branch as it passes any other point.
    """
    u_k = _king_tensor(prompts, models)
    if config.rating_method == "elo":
        r_p = np.array([separability(u_k, i) for i in range(u_k.shape[0])])
        return r_p, elo_ratings(koth_mod._win_matrix(u_k))
    scale = float(np.abs(u_k).max())
    if scale > 0:
        u_k = u_k / scale
    game = _skill_game(u_k)
    targets = affinity_targets(game)
    overrides = config.solver
    if overrides is None:
        overrides = NE_OVERRIDES if config.rating_method == "ne" else {}
    try:
        regs = solvers.solve(game, config.rating_method, targets, **overrides).regrets
    except ConvergenceError as exc:
        # rate with the last iterate rather than dying; candidate
        # selection only needs the rating order
        event = {"iteration": t, "shape": list(game.shape), "kind": "convergence_error"}
        fallbacks.append({**event, "exploitability": exc.trace[-1].exploitability})
        regs = all_regrets(game, exc.iterate)
    return regs[0], regs[1]


def _run_trial(task: tuple[SimConfig, int, int]) -> TrialResult:
    """One trial of the selection procedure; ``task`` is ``(config, trial, seed)``."""
    config, trial, seed = task
    rng = np.random.default_rng(seed)
    fallbacks: list[dict] = []
    S = config.num_skills
    prompts = list(rng.dirichlet(np.ones(S), size=config.initial_prompts))
    models = list(rng.dirichlet(np.ones(S), size=config.initial_models))
    snapshots = [_snapshot(0, prompts, models)]
    for t in range(1, config.iterations + 1):
        if config.additional_prompts:
            cand_p = rng.dirichlet(np.ones(S), size=config.candidate_prompts)
            stack_p = np.concatenate([cand_p, np.stack(prompts)])
            r_p, _ = _ratings(config, stack_p, np.stack(models), t, fallbacks)
            best = _pick(r_p[: config.candidate_prompts])
            prompts.append(cand_p[best])
        candidate = np.zeros(S)
        rounds = 0
        while True:
            rounds += 1
            if rounds > config.inner_round_cap:
                # aborted: the snapshots taken before iteration t are kept
                return TrialResult(
                    trial=trial,
                    seed=seed,
                    aborted=True,
                    abort_info={
                        "iteration": t,
                        "rounds": rounds,
                        "message": f"inner model loop exceeded {config.inner_round_cap} rounds",
                    },
                    fallbacks=fallbacks,
                    snapshots=snapshots,
                )
            deltas = rng.dirichlet(np.ones(S), size=config.candidate_increments)
            stack_m = np.concatenate([candidate + deltas, np.stack(models)])
            _, r_m = _ratings(config, np.stack(prompts), stack_m, t, fallbacks)
            best = _pick(r_m[: config.candidate_increments])
            candidate = candidate + deltas[best]
            if best == _pick(r_m):
                models.append(candidate)
                break
        snapshots.append(_snapshot(t, prompts, models))
    return TrialResult(trial=trial, seed=seed, fallbacks=fallbacks, snapshots=snapshots)


def run_simulation(config: SimConfig) -> SimTrajectory:
    """Run all trials of the evolutionary selection procedure.

    Trials are independent; with ``n_jobs > 1`` they run in parallel
    worker processes, at most one per trial.  Per-trial seeds are spawned from the config seed,
    so results are reproducible regardless of parallelism.
    """
    seeds = [
        int(ss.generate_state(1)[0])
        for ss in np.random.SeedSequence(config.seed).spawn(config.trials)
    ]
    tasks = [(config, trial, seeds[trial]) for trial in range(config.trials)]
    if config.n_jobs > 1:
        with ProcessPoolExecutor(max_workers=min(config.n_jobs, config.trials)) as pool:
            results = list(pool.map(_run_trial, tasks))
    else:
        results = [_run_trial(t) for t in tasks]
    return SimTrajectory(config=config, trials=results)


def entropy_trace(trajectory: SimTrajectory) -> list[dict]:
    """Flatten a trajectory into per-iteration rows ready for CSV: each
    snapshot's keys, then ``method``, ``trial`` and ``seed``."""
    if not trajectory.trials:
        raise ParameterError("empty trajectory")
    method = trajectory.config.rating_method
    return [
        {**snap, "method": method, "trial": trial.trial, "seed": trial.seed}
        for trial in trajectory.trials
        for snap in trial.snapshots
    ]
