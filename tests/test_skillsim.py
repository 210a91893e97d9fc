import json

import numpy as np

from eqrate import koth, ratings, skillsim


def test_cce_arm_runs():
    # the ne arm's QREConfig overrides must not reach CCEConfig
    traj = skillsim.run_simulation(
        skillsim.SimConfig(rating_method="cce", trials=1, iterations=2)
    )
    (trial,) = traj.trials
    assert not trial.aborted
    assert [s["t"] for s in trial.snapshots] == [0, 1, 2]


def test_solver_overrides_per_arm():
    ne = skillsim._EquilibriumRater(skillsim.SimConfig(rating_method="ne"))
    cce = skillsim._EquilibriumRater(skillsim.SimConfig(rating_method="cce"))
    given = skillsim._EquilibriumRater(
        skillsim.SimConfig(rating_method="cce", solver={"epsilon_cce": 1e-4})
    )
    assert ne.overrides == skillsim._EquilibriumRater.DEFAULT_OVERRIDES
    assert cce.overrides == {}
    assert given.overrides == {"epsilon_cce": 1e-4}


def test_bt_model_ratings_are_elo_of_the_skill_game():
    rng = np.random.default_rng(3)
    world = skillsim.SkillWorld(
        prompts=list(rng.dirichlet(np.ones(4), size=5)),
        model_increments=[[m] for m in rng.dirichlet(np.ones(4), size=3)],
    )
    game = skillsim.build_skill_game(world)
    kg = koth.KOTHGame(game=game, clone_sources=(None,) * game.shape[0])
    expected = ratings.elo_ratings(koth.prompt_average_win_matrix(kg))
    got = skillsim._elo_model_ratings(game.utilities[1], "bt")
    assert np.array_equal(got, expected)


def test_convergence_fallback_is_recorded():
    # five steps cannot finish a trace, so every cold solve falls back to
    # its unconverged iterate
    solver = {**skillsim._EquilibriumRater.DEFAULT_OVERRIDES, "max_steps": 5}
    traj = skillsim.run_simulation(
        skillsim.SimConfig(rating_method="ne", trials=1, iterations=2, solver=solver)
    )
    (trial,) = traj.trials
    assert not trial.aborted
    assert trial.fallbacks
    for event in trial.fallbacks:
        assert event["iteration"] in (1, 2)
        assert len(event["shape"]) == 3
        assert np.isfinite(event["exploitability"]) and event["exploitability"] >= 0
    assert json.loads(json.dumps(traj.to_dict()))["trials"][0]["fallbacks"] == trial.fallbacks


def test_default_trial_records_no_fallback():
    traj = skillsim.run_simulation(skillsim.SimConfig(rating_method="ne", trials=1, iterations=2))
    (trial,) = traj.trials
    assert trial.fallbacks == []
