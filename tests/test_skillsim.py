import json
from dataclasses import replace

import numpy as np
import pytest

from eqrate import koth, ratings, skillsim, solvers
from eqrate.errors import ParameterError
from eqrate.games import all_regrets
from eqrate.kernels import affinity_targets
from conftest import fold_game


def test_cce_arm_runs():
    # the ne arm's QREConfig overrides must not reach CCEConfig
    traj = skillsim.run_simulation(
        skillsim.SimConfig(rating_method="cce", trials=1, iterations=2)
    )
    (trial,) = traj.trials
    assert not trial.aborted
    assert [s["t"] for s in trial.snapshots] == [0, 1, 2]


def test_solver_overrides_per_arm(monkeypatch):
    calls = []
    solve = solvers.solve

    def spy(game, method, targets, **overrides):
        calls.append((method, overrides))
        return solve(game, method, targets, **overrides)

    monkeypatch.setattr(solvers, "solve", spy)
    rng = np.random.default_rng(2)
    prompts, models = rng.dirichlet(np.ones(4), size=6), rng.dirichlet(np.ones(4), size=3)
    for config in (
        skillsim.SimConfig(rating_method="ne"),
        skillsim.SimConfig(rating_method="cce"),
        skillsim.SimConfig(rating_method="cce", solver={"epsilon_cce": 1e-4}),
    ):
        skillsim._ratings(config, prompts, models, 1, [])
    assert calls == [("ne", skillsim.NE_OVERRIDES), ("cce", {}), ("cce", {"epsilon_cce": 1e-4})]


def test_bt_model_ratings_are_elo_of_the_skill_game():
    rng = np.random.default_rng(3)
    prompts = rng.dirichlet(np.ones(4), size=5)
    models = rng.dirichlet(np.ones(4), size=3)
    game = skillsim._skill_game(skillsim._king_tensor(prompts, models))
    kg = koth.KOTHGame(game=game, clone_sources=(None,) * game.shape[0])
    expected = ratings.elo_ratings(koth.prompt_average_win_matrix(kg))
    got = ratings.elo_ratings(koth._win_matrix(game.utilities[1]))
    assert np.array_equal(got, expected)


def test_convergence_fallback_is_recorded():
    # five steps cannot finish a trace, so every cold solve falls back to
    # its unconverged iterate
    solver = {**skillsim.NE_OVERRIDES, "max_steps": 5}
    traj = skillsim.run_simulation(
        skillsim.SimConfig(rating_method="ne", trials=1, iterations=2, solver=solver)
    )
    (trial,) = traj.trials
    assert not trial.aborted
    assert trial.fallbacks
    for event in trial.fallbacks:
        assert event["kind"] == "convergence_error"
        assert event["iteration"] in (1, 2)
        assert len(event["shape"]) == 3
        assert np.isfinite(event["exploitability"]) and event["exploitability"] >= 0
    saved = json.loads(json.dumps(traj.to_dict()))
    assert saved["trials"][0]["fallbacks"] == trial.fallbacks
    assert saved["config"]["solver"] == solver


def test_cce_convergence_fallback_is_recorded():
    # one L-BFGS-B iteration cannot finish a dual solve, so every cce
    # solve falls back to its last joint instead of aborting the run
    traj = skillsim.run_simulation(
        skillsim.SimConfig(rating_method="cce", trials=1, iterations=2, solver={"max_steps": 1})
    )
    (trial,) = traj.trials
    assert not trial.aborted
    assert [s["t"] for s in trial.snapshots] == [0, 1, 2]
    assert trial.fallbacks
    for event in trial.fallbacks:
        assert event["kind"] == "convergence_error"
        assert event["iteration"] in (1, 2)
        assert len(event["shape"]) == 3
        assert np.isfinite(event["exploitability"]) and event["exploitability"] >= 0
    saved = json.loads(json.dumps(traj.to_dict()))
    assert saved["trials"][0]["fallbacks"] == trial.fallbacks


def test_n_jobs_checked_and_capped_at_trials(monkeypatch):
    with pytest.raises(ParameterError, match="at least 1"):
        skillsim.SimConfig(n_jobs=0)
    pools = []

    class SequentialPool:
        # stands in for ProcessPoolExecutor: records its size, starts no process
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(skillsim, "ProcessPoolExecutor", SequentialPool)
    config = skillsim.SimConfig(trials=2, iterations=1, n_jobs=64)
    traj = skillsim.run_simulation(config)
    assert pools == [2]
    serial = skillsim.run_simulation(replace(config, n_jobs=1))
    assert pools == [2]
    assert traj.to_dict()["trials"] == serial.to_dict()["trials"]


def test_ne_rating_is_one_cold_lle_trace():
    rng = np.random.default_rng(11)
    prompts = rng.dirichlet(np.ones(4), size=12)
    models = rng.dirichlet(np.ones(4), size=5)
    fallbacks = []
    r_p, r_m = skillsim._ratings(skillsim.SimConfig(rating_method="ne"), prompts, models, 1, fallbacks)
    u_k = skillsim._king_tensor(prompts, models)
    game = skillsim._skill_game(u_k / np.abs(u_k).max())
    config = solvers.QREConfig(targets=affinity_targets(game), tau_terminal=0.1)
    expected = solvers.solve_lle(game, config).regrets
    assert np.array_equal(r_p, expected[0])
    assert np.array_equal(r_m, expected[1])
    assert fallbacks == []


@pytest.mark.parametrize("method", ["ne", "cce"])
@pytest.mark.parametrize("duplicates", [False, True])
def test_ratings_are_the_regrets_at_the_solved_profile(method, duplicates):
    # the ratings are the solve's own regrets; with an exact copy of a
    # prompt the solve runs on the quotient and takes them on the full game
    rng = np.random.default_rng(5)
    prompts = rng.dirichlet(np.ones(4), size=9)
    if duplicates:
        prompts = np.concatenate([prompts, prompts[2:3]])
    models = rng.dirichlet(np.ones(4), size=4)
    fallbacks = []
    ratings_ = skillsim._ratings(skillsim.SimConfig(rating_method=method), prompts, models, 1, fallbacks)
    u_k = skillsim._king_tensor(prompts, models)
    game = skillsim._skill_game(u_k / np.abs(u_k).max())
    assert (solvers._duplicate_classes(game) is not None) == duplicates
    overrides = skillsim.NE_OVERRIDES if method == "ne" else {}
    result = solvers.solve(game, method, affinity_targets(game), **overrides)
    for got, want in zip(ratings_, all_regrets(game, result.profile)):
        assert np.abs(got - want).max() <= 1e-12
    assert fallbacks == []


def test_fold_records_no_fallback(monkeypatch):
    # the QRE branch turns steeply near tau 0.12, above the default
    # overrides' terminal temperature, where a temperature grid stalls; the
    # arclength trace passes and rates with the solved profile
    game = fold_game()
    # the fold game is a KOTH game of judge scores, not of skill vectors
    monkeypatch.setattr(skillsim, "_skill_game", lambda u_k: game)
    fallbacks = []
    r_p, r_m = skillsim._ratings(skillsim.SimConfig(rating_method="ne"), np.eye(4), np.eye(4)[:3], 3, fallbacks)
    assert fallbacks == []
    result = solvers.solve_lle(game, solvers.QREConfig(targets=affinity_targets(game), tau_terminal=0.1))
    assert result.termination == "terminal_tau"
    assert np.array_equal(r_p, result.regrets[0]) and np.array_equal(r_m, result.regrets[1])


def test_default_trial_records_no_fallback():
    traj = skillsim.run_simulation(skillsim.SimConfig(rating_method="ne", trials=1, iterations=2))
    (trial,) = traj.trials
    assert trial.fallbacks == []


def test_a_trial_past_its_inner_round_cap_is_aborted(tmp_path):
    # one inner round is too few for a candidate to reach the top: both
    # trials abort, the first in its second iteration
    config = skillsim.SimConfig(rating_method="elo", trials=2, iterations=3, inner_round_cap=1, seed=0)
    traj = skillsim.run_simulation(config)
    path = tmp_path / "traj.json"
    traj.save(path)
    saved = json.loads(path.read_text(encoding="utf-8"))["trials"]
    assert [t.abort_info["iteration"] for t in traj.trials] == [2, 1]
    for trial, stored in zip(traj.trials, saved):
        assert trial.aborted and stored["aborted"]
        assert trial.abort_info["rounds"] == config.inner_round_cap + 1
        assert trial.abort_info["message"] == "inner model loop exceeded 1 rounds"
        assert stored["abort_info"] == trial.abort_info
    # the snapshots taken before the abort are kept: t = 0 and 1, then t = 0
    assert [len(t.snapshots) for t in traj.trials] == [2, 1]
    assert [len(t["snapshots"]) for t in saved] == [2, 1]
    assert [t.snapshots for t in traj.trials] == [t["snapshots"] for t in saved]


def test_solver_keys_checked_against_the_arm():
    with pytest.raises(ParameterError, match="tau_terminal"):
        skillsim.SimConfig(rating_method="cce", solver={"tau_terminal": 1e-2})
    with pytest.raises(ParameterError, match="epsilon_cce"):
        skillsim.SimConfig(rating_method="ne", solver={"epsilon_cce": 1e-4})
    with pytest.raises(ParameterError, match="force_anneal_on_stall"):
        skillsim.SimConfig(rating_method="ne", solver={"force_anneal_on_stall": True})
    # the temperature grid's settings went with the grid
    for key in ("tau_init", "tau_decay"):
        with pytest.raises(ParameterError, match=f"solver key '{key}' is not a QREConfig setting"):
            skillsim.SimConfig(rating_method="ne", solver={key: 0.9})


def test_solver_values_checked_by_the_arm_config():
    # the rater sets the targets, so the key is rejected by name
    with pytest.raises(ParameterError, match="'targets'"):
        skillsim.SimConfig(rating_method="ne", solver={"targets": None})
    with pytest.raises(ParameterError, match="tau_terminal"):
        skillsim.SimConfig(rating_method="ne", solver={"tau_terminal": float("inf")})
    with pytest.raises(ParameterError, match="epsilon_cce"):
        skillsim.SimConfig(rating_method="cce", solver={"epsilon_cce": -1.0})
    with pytest.raises(ParameterError, match="max_steps"):
        skillsim.SimConfig(rating_method="cce", solver={"max_steps": "5"})
    # a value the arm config cannot compare is named with the settings
    with pytest.raises(ParameterError, match="solver settings {'tau_terminal': '0.1'}"):
        skillsim.SimConfig(rating_method="ne", solver={"tau_terminal": "0.1"})
    # the elo arm solves nothing and checks no solver values
    skillsim.SimConfig(rating_method="elo", solver={"tau_terminal": float("inf")})


def test_cce_selection_keeps_more_prompt_skills_than_elo():
    # the paper's direction on a short seeded run: paired by trial seed,
    # CCE-driven selection ends with a more even mean prompt (higher H_p)
    # than Elo in all 6 trials (differences 0.020 to 0.140 when measured)
    config = skillsim.SimConfig(iterations=8, trials=6, seed=0)
    elo = skillsim.run_simulation(config)
    cce = skillsim.run_simulation(replace(config, rating_method="cce"))
    assert not any(t.aborted or t.fallbacks for t in cce.trials)
    diff = [c.snapshots[-1]["H_p"] - e.snapshots[-1]["H_p"] for c, e in zip(cce.trials, elo.trials)]
    assert min(diff) > 0


def test_entropy_of_a_zero_vector_and_trace_of_no_trials():
    assert skillsim.shannon_entropy(np.zeros(3)) == 0.0
    assert skillsim.shannon_entropy(np.array([2.0, 2.0])) == pytest.approx(np.log(2.0))
    with pytest.raises(ParameterError, match="empty trajectory"):
        skillsim.entropy_trace(skillsim.SimTrajectory(config=skillsim.SimConfig(), trials=[]))


def test_selection_picks_the_first_of_the_near_best():
    # ratings within SELECTION_TOL of the best are tied, and the first of
    # them is picked, so solver rounding among zero-regret candidates
    # cannot decide the pick
    tol = skillsim.SELECTION_TOL
    assert skillsim._pick(np.array([-0.5, -5e-9, 0.0, -2e-9])) == 1
    assert skillsim._pick(np.array([-0.5, -2 * tol, 0.0, -tol / 2])) == 2
    assert skillsim._pick(np.array([0.3])) == 0
