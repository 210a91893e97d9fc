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
from dataclasses import dataclass, field, fields

import numpy as np

from . import koth as koth_mod
from . import solvers
from .errors import ConvergenceError, DimensionError, ParameterError, SimulationAbort
from .games import Game, ProductProfile, all_regrets
from .kernels import affinity_targets
from .ratings import elo_ratings, separability


def skill_utility(p: np.ndarray, m_i: np.ndarray, m_j: np.ndarray) -> float:
    """Margin of model i over model j on a prompt: ``p . (m_i - m_j)``."""
    p = np.asarray(p, dtype=float)
    m_i = np.asarray(m_i, dtype=float)
    m_j = np.asarray(m_j, dtype=float)
    if not p.shape == m_i.shape == m_j.shape:
        raise DimensionError("prompt and model vectors must share one length")
    return float(p @ (m_i - m_j))


@dataclass
class SkillWorld:
    """Simulation state: prompt vectors and models as increment sums."""

    prompts: list[np.ndarray]
    model_increments: list[list[np.ndarray]]
    seed: int = 0

    def __post_init__(self):
        for p in self.prompts:
            if abs(float(np.sum(p)) - 1.0) > 1e-9 or np.any(p < -1e-12):
                raise DimensionError("prompts must lie on the skill simplex")
        for incs in self.model_increments:
            for d in incs:
                if np.any(d < -1e-12):
                    raise DimensionError("model increments must be nonnegative")

    @property
    def models(self) -> list[np.ndarray]:
        return [np.sum(incs, axis=0) for incs in self.model_increments]

    @property
    def num_skills(self) -> int:
        return len(self.prompts[0])


def _king_tensor(prompts: np.ndarray, models: np.ndarray) -> np.ndarray:
    margins = prompts @ models.T  # (P, M)
    return margins[:, :, None] - margins[:, None, :]


def _skill_game(u_k: np.ndarray) -> Game:
    P, M = u_k.shape[0], u_k.shape[1]
    labels_p = tuple(f"p{i:03d}" for i in range(P))
    labels_m = tuple(f"m{i:03d}" for i in range(M))
    return koth_mod._koth_game(u_k, labels_p, labels_m, [None] * P).game


def build_skill_game(world: SkillWorld) -> Game:
    """The 3-player evaluation game implied by a skill world."""
    if len(world.prompts) < 1 or len(world.model_increments) < 2:
        raise DimensionError("need at least 1 prompt and 2 models")
    return _skill_game(_king_tensor(np.stack(world.prompts), np.stack(world.models)))


@dataclass(frozen=True)
class SimConfig:
    """Knobs for the evolutionary selection procedure.

    ``warm_start`` reuses the previous solve's logits when the action sets
    changed only incrementally, cutting equilibrium solves from a full
    anneal to a short refinement; turn it off to re-anneal from scratch on
    every rating call (slower, selection-path faithful).

    ``solver`` overrides fields of the arm's solver config (``QREConfig``
    for ne, ``CCEConfig`` for cce) and is passed on as given.  Left None,
    the ne arm uses ``_EquilibriumRater.DEFAULT_OVERRIDES`` and the cce arm
    the ``CCEConfig`` defaults.
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
    model_rating: str = "bt"  # elo arm: bt | mean_utility
    inner_round_cap: int = 1000
    solver: dict | None = None  # solver config overrides for ne/cce
    warm_start: bool = False
    n_jobs: int = 1

    def __post_init__(self):
        if min(
            self.num_skills,
            self.initial_prompts,
            self.initial_models,
            self.candidate_prompts,
            self.candidate_increments,
            self.iterations,
            self.trials,
        ) < 1:
            raise ParameterError("all counts must be at least 1")
        if self.rating_method not in ("elo", "ne", "cce"):
            raise ParameterError(f"unknown rating method {self.rating_method!r}")
        if self.model_rating not in ("bt", "mean_utility"):
            raise ParameterError(f"unknown model rating {self.model_rating!r}")
        if self.solver is not None and self.rating_method != "elo":
            arm = solvers.QREConfig if self.rating_method == "ne" else solvers.CCEConfig
            # the rater sets the targets itself
            allowed = {f.name for f in fields(arm)} - {"targets", "target_log_joint"}
            for key in self.solver:
                if key not in allowed:
                    raise ParameterError(f"solver key {key!r} is not a {arm.__name__} setting")


@dataclass
class TrialResult:
    trial: int
    seed: int
    snapshots: list[dict]
    aborted: bool = False
    abort_info: dict | None = None
    # one entry per solve rated with an unconverged iterate: the iteration,
    # the game shape and the iterate's exploitability
    fallbacks: list[dict] = field(default_factory=list)


@dataclass
class SimTrajectory:
    config: SimConfig
    trials: list[TrialResult]

    def to_dict(self) -> dict:
        return {
            "config": {
                k: getattr(self.config, k)
                for k in (
                    "num_skills",
                    "initial_prompts",
                    "initial_models",
                    "candidate_prompts",
                    "candidate_increments",
                    "iterations",
                    "rating_method",
                    "additional_prompts",
                    "trials",
                    "seed",
                    "model_rating",
                )
            },
            "trials": [
                {
                    "trial": t.trial,
                    "seed": t.seed,
                    "aborted": t.aborted,
                    "abort_info": t.abort_info,
                    "fallbacks": t.fallbacks,
                    "snapshots": t.snapshots,
                }
                for t in self.trials
            ],
        }

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


def _elo_model_ratings(u_k: np.ndarray, mode: str) -> np.ndarray:
    if mode == "mean_utility":
        return np.clip(u_k, -1.0, 1.0).mean(axis=(0, 2))
    return elo_ratings(koth_mod._win_matrix(u_k))


class _EquilibriumRater:
    """Per-trial equilibrium rating with optional warm starts.

    Payoffs are scaled to max-abs 1 before solving so the solver schedule
    and kernel bandwidth operate at their design scale; ratings are used
    only ordinally here and positive rescaling preserves the order.
    Logits of persistent actions are carried between solves; candidate
    rows (always at the front) start at their target logits.
    """

    # desk-scale overrides of the ne arm's QREConfig; pass solver={} for the
    # pure paper schedule.  A soft terminal temperature is enough here:
    # ratings only pick argmax candidates.  The forced anneal carries a
    # trace past a fold of the QRE branch instead of falling back to the
    # unconverged iterate; none of the 41,124 temperatures of four trials
    # (seeds 0-3, 5 or 30 iterations) stalled.
    DEFAULT_OVERRIDES = {
        "tau_terminal": 0.1,
        "force_anneal_on_stall": True,
    }

    def __init__(self, config: SimConfig):
        self.method = config.rating_method
        defaults = self.DEFAULT_OVERRIDES if self.method == "ne" else {}
        self.overrides = dict(defaults if config.solver is None else config.solver)
        self.warm = config.warm_start
        self.z_store = {0: [], 1: [], 2: []}  # persistent-action logits
        self.last_z: list[np.ndarray] | None = None
        self.fallbacks: list[dict] = []

    def _solve(self, game, targets, warm_ok, new_p, new_m, iteration) -> ProductProfile:
        base = solvers.QREConfig(targets=targets, **self.overrides)
        if warm_ok:
            logt = [np.log(t) for t in targets]
            init = []
            for player, fresh in ((0, new_p), (1, new_m), (2, new_m)):
                stored = np.asarray(self.z_store[player])
                init.append(np.concatenate([logt[player][:fresh], stored]))
            warm = solvers.QREConfig(
                targets=targets,
                **{
                    **self.overrides,
                    "tau_init": base.tau_terminal / base.tau_decay**2,
                    "max_steps": 20_000,
                },
            )
            try:
                return solvers.solve_lle(game, warm, init_logits=init).profile
            except ConvergenceError:
                pass
        try:
            return solvers.solve_lle(game, base).profile
        except ConvergenceError as exc:
            # rate with the furthest-annealed iterate rather than dying;
            # candidate selection only needs the rating order
            self.fallbacks.append(
                {
                    "iteration": iteration,
                    "shape": list(game.shape),
                    "exploitability": exc.trace[-1].exploitability,
                }
            )
            return exc.iterate

    def rate(self, prompts: np.ndarray, models: np.ndarray, new_p: int, new_m: int, t: int):
        u_k = _king_tensor(prompts, models)
        scale = float(np.abs(u_k).max())
        if scale > 0:
            u_k = u_k / scale
        P, M = u_k.shape[0], u_k.shape[1]
        game = _skill_game(u_k)
        targets = affinity_targets(game)
        warm_ok = (
            self.warm
            and self.method == "ne"
            and len(self.z_store[0]) == P - new_p
            and len(self.z_store[1]) == M - new_m
        )
        if self.method == "ne":
            profile = self._solve(game, targets, warm_ok, new_p, new_m, t)
            self.last_z = [np.log(np.maximum(m, 1e-300)) for m in profile.marginals]
            for player, fresh in ((0, new_p), (1, new_m), (2, new_m)):
                self.z_store[player] = list(self.last_z[player][fresh:])
        else:
            config = solvers.CCEConfig(
                target_log_joint=solvers.target_log_joint(targets), **self.overrides
            )
            profile = solvers.solve_mre_cce(game, config).profile
        regs = all_regrets(game, profile)
        return regs[0], regs[1]

    def accept_prompt(self, candidate_index: int) -> None:
        if self.last_z is not None:
            self.z_store[0].append(self.last_z[0][candidate_index])

    def accept_model(self, candidate_index: int) -> None:
        if self.last_z is not None:
            self.z_store[1].append(self.last_z[1][candidate_index])
            self.z_store[2].append(self.last_z[2][candidate_index])


def _run_trial(
    config: SimConfig, trial: int, seed: int, rater: _EquilibriumRater | None
) -> TrialResult:
    rng = np.random.default_rng(seed)
    S = config.num_skills
    prompts = list(rng.dirichlet(np.ones(S), size=config.initial_prompts))
    models = list(rng.dirichlet(np.ones(S), size=config.initial_models))

    def rate_sets(p_stack, m_stack, new_p, new_m, t):
        if rater is not None:
            return rater.rate(p_stack, m_stack, new_p, new_m, t)
        u_k = _king_tensor(p_stack, m_stack)
        r_p = np.array([separability(u_k, i) for i in range(u_k.shape[0])])
        r_m = _elo_model_ratings(u_k, config.model_rating)
        return r_p, r_m

    snapshots = [_snapshot(0, prompts, models)]
    for t in range(1, config.iterations + 1):
        if config.additional_prompts:
            cand_p = rng.dirichlet(np.ones(S), size=config.candidate_prompts)
            stack_p = np.concatenate([cand_p, np.stack(prompts)])
            r_p, _ = rate_sets(stack_p, np.stack(models), config.candidate_prompts, 0, t)
            best = int(np.argmax(r_p[: config.candidate_prompts]))
            prompts.append(cand_p[best])
            if rater is not None:
                rater.accept_prompt(best)
        candidate = np.zeros(S)
        rounds = 0
        while True:
            rounds += 1
            if rounds > config.inner_round_cap:
                raise SimulationAbort(
                    f"inner model loop exceeded {config.inner_round_cap} rounds",
                    trial=trial,
                    iteration=t,
                    rounds=rounds,
                )
            deltas = rng.dirichlet(np.ones(S), size=config.candidate_increments)
            stack_m = np.concatenate([candidate + deltas, np.stack(models)])
            _, r_m = rate_sets(
                np.stack(prompts), stack_m, 0, config.candidate_increments, t
            )
            best = int(np.argmax(r_m[: config.candidate_increments]))
            candidate = candidate + deltas[best]
            if best == int(np.argmax(r_m)):
                models.append(candidate)
                if rater is not None:
                    rater.accept_model(best)
                break
        snapshots.append(_snapshot(t, prompts, models))
    return TrialResult(trial=trial, seed=seed, snapshots=snapshots)


def _trial_task(args) -> TrialResult:
    config, trial, seed = args
    rater = _EquilibriumRater(config) if config.rating_method != "elo" else None
    try:
        result = _run_trial(config, trial, seed, rater)
    except SimulationAbort as exc:
        result = TrialResult(
            trial=trial,
            seed=seed,
            snapshots=[],
            aborted=True,
            abort_info={
                "iteration": exc.iteration,
                "rounds": exc.rounds,
                "message": str(exc),
            },
        )
    if rater is not None:
        result.fallbacks = rater.fallbacks
    return result


def run_simulation(config: SimConfig) -> SimTrajectory:
    """Run all trials of the evolutionary selection procedure.

    Trials are independent; with ``n_jobs > 1`` they run in parallel
    worker processes.  Per-trial seeds are spawned from the config seed,
    so results are reproducible regardless of parallelism.
    """
    seeds = [
        int(ss.generate_state(1)[0])
        for ss in np.random.SeedSequence(config.seed).spawn(config.trials)
    ]
    tasks = [(config, trial, seeds[trial]) for trial in range(config.trials)]
    if config.n_jobs > 1:
        with ProcessPoolExecutor(max_workers=config.n_jobs) as pool:
            results = list(pool.map(_trial_task, tasks))
    else:
        results = [_trial_task(t) for t in tasks]
    return SimTrajectory(config=config, trials=results)


def entropy_trace(trajectory: SimTrajectory) -> list[dict]:
    """Flatten a trajectory into per-iteration rows ready for CSV."""
    if not trajectory.trials:
        raise ParameterError("empty trajectory")
    rows = []
    for trial in trajectory.trials:
        for snap in trial.snapshots:
            rows.append(
                {
                    "t": snap["t"],
                    "prompts": snap["prompts"],
                    "models": snap["models"],
                    "H_p": snap["H_p"],
                    "H_m": snap["H_m"],
                    "method": trajectory.config.rating_method,
                    "trial": trial.trial,
                    "seed": trial.seed,
                }
            )
    return rows
