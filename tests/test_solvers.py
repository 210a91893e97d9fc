import itertools
import json
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import logsumexp

import eqrate.solvers as solvers_mod
from eqrate import kernels, koth, skillsim
from eqrate.errors import ConvergenceError, ParameterError
from eqrate.games import (
    Game,
    JointDistribution,
    ProductProfile,
    all_regrets,
    deviation_payoff,
    exploitability,
)
from eqrate.kernels import affinity_targets
from eqrate.ratings import DEFAULT_TIE_TOL, elo_ratings, rate
from eqrate.solvers import (
    CCEConfig,
    QREConfig,
    _CCEDual,
    _Contraction,
    _branch_residual,
    _correct,
    _indifference,
    _newton_direction,
    _qre_gap,
    _qre_residual,
    enumerate_nes,
    profile_from_dict,
    risk_dominance_beliefs,
    solve_lle,
    solve_mre_cce,
    target_log_joint,
    uniform_targets,
)
from adam_lle import _lle_step, solve_lle_adam
from reference import (
    _cce_loss_alpha,
    affinity_targets_50,
    cce_dual_logit,
    lipschitz_50,
    max_entropy_pg_50,
    qre_best_response,
    qre_loss,
    qre_residual,
)
from conftest import fold_game, random_game, uniform_product

# toy payoffs reach -12, so approximating the infinite-temperature start
# needs a hotter initial temperature than the [-1, 1]-scale default
HOT = dict(tau_init=100.0)


class TestQREBestResponse:
    def test_huge_tau_flattens_to_target(self, chicken):
        prof = uniform_product(chicken)
        br = qre_best_response(chicken, prof, 0, 1e9, np.array([0.5, 0.5]))
        assert np.allclose(br, 0.5, atol=1e-6)

    def test_chicken_indifference_point(self, chicken):
        prof = ProductProfile((np.array([0.5, 0.5]), np.array([11 / 12, 1 / 12])))
        br = qre_best_response(chicken, prof, 0, 1e-3, np.array([0.5, 0.5]))
        assert np.allclose(br, 0.5, atol=1e-4)

    def test_direct_softmax(self):
        u1 = np.array([[1.0], [0.0]])
        game = Game(("a", "b"), (("x", "y"), ("z",)), (u1, np.zeros((2, 1))))
        prof = ProductProfile((np.array([0.5, 0.5]), np.array([1.0])))
        br = qre_best_response(game, prof, 0, 1.0, np.array([0.5, 0.5]))
        e = np.e
        assert np.allclose(br, [e / (e + 1), 1 / (e + 1)])

    def test_tau_validation(self, chicken):
        with pytest.raises(ParameterError):
            qre_best_response(chicken, uniform_product(chicken), 0, 0.0, np.ones(2) / 2)


class TestQRELoss:
    def test_zero_at_fixed_point_rps(self, rps):
        prof = uniform_product(rps)
        targets = uniform_targets(rps)
        for tau in (10.0, 1.0, 0.05):
            br = qre_best_response(rps, prof, 0, tau, targets[0])
            assert np.allclose(br, 1 / 3)
            assert qre_loss(rps, prof, tau, targets) == pytest.approx(0.0, abs=1e-9)

    def test_positive_off_equilibrium(self, chicken):
        prof = ProductProfile(
            (np.array([1 - 1e-9, 1e-9]), np.array([1 - 1e-9, 1e-9]))
        )
        assert qre_loss(chicken, prof, 0.1, uniform_targets(chicken)) > 0.01

    def test_nonnegative_on_random_profiles(self):
        game = random_game((3, 4, 2), seed=3)
        rng = np.random.default_rng(0)
        targets = tuple(rng.dirichlet(np.ones(n)) for n in game.shape)
        for _ in range(20):
            prof = ProductProfile(tuple(rng.dirichlet(np.ones(n)) for n in game.shape))
            assert qre_loss(game, prof, 0.5, targets) >= -1e-12


class TestLLEGradient:
    @pytest.mark.parametrize(
        "shape,tau",
        [((3, 3), 1.0), ((2, 2), 0.05), ((4, 3, 2), 0.3), ((2, 2, 2), 1.0), ((2, 3, 2, 2), 0.5)],
    )
    def test_matches_central_differences(self, shape, tau):
        rng = np.random.default_rng(abs(hash((shape, tau))) % 2**31)
        game = random_game(shape, seed=17)
        targets = tuple(rng.dirichlet(np.ones(n)) for n in shape)
        logt = np.log(np.concatenate(targets))
        ops = _Contraction(game)
        z = np.concatenate([rng.normal(size=n) for n in shape])
        _, gz, _ = _lle_step(ops, z, tau, logt)
        h = 1e-6
        for a in range(z.size):
            zp = z.copy()
            zm = z.copy()
            zp[a] += h
            zm[a] -= h
            lp = _lle_step(ops, zp, tau, logt)[0]
            lm = _lle_step(ops, zm, tau, logt)[0]
            fd = (lp - lm) / (2 * h)
            assert abs(fd - gz[a]) / max(1.0, abs(fd)) < 1e-4


def _koth_clone_game(prompts, models, clones, seed=0):
    """KOTH game of seeded judge scores, with exact clones of prompt 0."""
    rng = np.random.default_rng(seed)
    names = [f"m{i}" for i in range(models)]
    records = [
        koth.PreferenceRecord(f"q{p}", names[a], names[b], float(rng.choice(koth.SCORES)))
        for p in range(prompts)
        for a in range(models)
        for b in range(a + 1, models)
    ]
    return koth.inject_clones(koth.build_koth(records), [0] * clones).game


class TestLLEStep:
    @pytest.mark.parametrize("shape", [(5,), (3, 3), (4, 3, 2), (2, 3, 2, 2), "koth"])
    def test_matches_reference_functions(self, shape):
        # a misplaced pair block would skew the loss and its gradient alike,
        # which central differences cannot see; the public functions
        # contract the payoff tensors on their own
        game = _koth_clone_game(12, 4, 3) if shape == "koth" else random_game(shape, seed=23)
        rng = np.random.default_rng(7)
        ops = _Contraction(game)
        for _ in range(5):
            targets = tuple(rng.dirichlet(np.ones(n)) for n in game.shape)
            tau = float(rng.uniform(0.02, 2.0))
            z = rng.normal(scale=2.0, size=sum(game.shape))
            loss, exploit = _qre_gap(ops, z, tau, np.log(np.concatenate(targets)))
            profile = ops.profile(z)
            dev = ops.contract(np.concatenate(profile.marginals))
            assert abs(loss - qre_loss(game, profile, tau, targets)) <= 1e-12
            for i, d in enumerate(np.split(dev, np.cumsum(game.shape)[:-1])):
                assert np.abs(d - deviation_payoff(game, profile, i)).max() <= 1e-12
            assert abs(exploit - exploitability(game, profile)) <= 1e-12


class TestNewtonDirection:
    @pytest.mark.parametrize("shape", [(5,), (3, 3), (4, 3, 2), (2, 3, 2, 2), "koth"])
    def test_solves_central_difference_jacobian(self, shape):
        # a slightly wrong Jacobian block can still let damped Newton
        # converge, only slowly, which the solver tests would not catch;
        # (2, 3, 2, 2) eliminates a player other than player 0
        game = _koth_clone_game(12, 4, 3) if shape == "koth" else random_game(shape, seed=29)
        rng = np.random.default_rng(13)
        ops = _Contraction(game)
        h = 1e-6
        for _ in range(3):
            logt = np.log(np.concatenate([rng.dirichlet(np.ones(n)) for n in game.shape]))
            tau = float(rng.uniform(0.1, 2.0))
            y = ops.log_softmax(rng.normal(scale=2.0, size=sum(game.shape)))[0]
            jac = np.empty((y.size, y.size))
            for a in range(y.size):
                step = np.zeros(y.size)
                step[a] = h
                plus = _qre_residual(ops, y + step, tau, logt)[0]
                minus = _qre_residual(ops, y - step, tau, logt)[0]
                jac[:, a] = (plus - minus) / (2 * h)
            f, x, br = _qre_residual(ops, y, tau, logt)
            d = _newton_direction(ops, f, x, br, tau)
            assert np.abs(jac @ d + f).max() <= 1e-6 * np.abs(f).max()
            # the arclength detour's bordered system in (y, lambda = 1/tau),
            # with a random last row
            v = np.append(y, 1.0 / tau)
            plus = _qre_residual(ops, y, 1.0 / (v[-1] + h), logt)[0]
            minus = _qre_residual(ops, y, 1.0 / (v[-1] - h), logt)[0]
            d_lam = (plus - minus) / (2 * h)
            f, x, br, tau_v, c = _branch_residual(ops, v, logt)
            assert np.abs(c - d_lam).max() <= 1e-7
            t, q = rng.normal(size=v.size), float(rng.normal())
            de = _newton_direction(ops, f, x, br, tau_v, (c, t, q))
            scale = max(np.abs(f).max(), abs(q))
            assert np.abs(jac @ de[:-1] + d_lam * de[-1] + f).max() <= 1e-6 * scale
            assert abs(t @ de + q) <= 1e-9 * scale


@pytest.mark.parametrize("field", ["max_steps"])
@pytest.mark.parametrize("value", [0, -1])
def test_qre_config_rejects_nonpositive_counts(field, value):
    with pytest.raises(ParameterError):
        QREConfig(**{field: value})


@pytest.mark.parametrize(
    "config, field",
    [(QREConfig, "tau_init"), (QREConfig, "tau_terminal"), (QREConfig, "epsilon_ne"), (CCEConfig, "epsilon_cce")],
)
def test_configs_reject_nan(config, field):
    with pytest.raises(ParameterError, match=field):
        config(**{field: float("nan")})


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_solvers_reject_non_finite_targets(rps, bad):
    targets = (np.array([bad, 0.5, 0.5]), np.full(3, 1 / 3))
    with pytest.raises(ParameterError, match="finite"):
        solve_lle(rps, QREConfig(targets=targets))
    with pytest.raises(ParameterError, match="finite"):
        solve_mre_cce(rps, CCEConfig(targets=targets))


class TestSolveLLE:
    def test_rps_uniform(self, rps):
        res = solve_lle(rps, QREConfig(targets=affinity_targets(rps)))
        for m in res.profile.marginals:
            assert np.allclose(m, 1 / 3, atol=1e-3)
        for r in all_regrets(rps, res.profile):
            assert np.abs(r).max() <= 1e-3
        assert res.converged

    def test_rps_duplicated_rock(self, rps_dup_rock):
        res = solve_lle(
            rps_dup_rock, QREConfig(targets=affinity_targets(rps_dup_rock))
        )
        for r in all_regrets(rps_dup_rock, res.profile):
            assert np.abs(r).max() <= 1e-3
        rock_group = res.profile.marginals[0][:2].sum()
        assert rock_group == pytest.approx(1 / 3, abs=1e-2)

    def test_rps_duplicated_rock_traced(self, rps_dup_rock):
        # the affinity target is already an NE, so the default early exit
        # returns it at step 0; epsilon_ne=0 runs the whole trace
        config = QREConfig(targets=affinity_targets(rps_dup_rock), epsilon_ne=0.0)
        res = solve_lle(rps_dup_rock, config)
        assert res.termination == "terminal_tau"
        regrets = all_regrets(rps_dup_rock, res.profile)
        for r in regrets:
            assert np.abs(r).max() <= 1e-3
        assert res.profile.marginals[0][:2].sum() == pytest.approx(1 / 3, abs=1e-2)
        assert abs(regrets[0][0] - regrets[0][1]) <= 1e-9

    def test_chicken_mixed_ne(self, chicken):
        res = solve_lle(chicken, QREConfig(targets=uniform_targets(chicken), **HOT))
        for m in res.profile.marginals:
            assert m[0] == pytest.approx(11 / 12, abs=1e-2)
        from eqrate.games import expected_utility

        assert expected_utility(chicken, res.profile, 0) == pytest.approx(
            -1 / 12, abs=1e-2
        )
        for r in all_regrets(chicken, res.profile):
            assert r.max() <= 1e-2  # no action offers a gain above the bar

    def test_qre_fixed_point_residual_at_termination(self, chicken, rps):
        for game in (chicken, rps):
            targets = affinity_targets(game)
            config = QREConfig(targets=targets, epsilon_ne=0.0, **HOT)
            res = solve_lle(game, config)
            assert res.termination == "terminal_tau"
            assert qre_residual(game, res.profile, config.tau_terminal, targets) <= 1e-2

    def test_determinism_bit_identical(self, chicken):
        a = solve_lle(chicken, QREConfig(targets=uniform_targets(chicken)))
        b = solve_lle(chicken, QREConfig(targets=uniform_targets(chicken)))
        assert len(a.trace) == len(b.trace)
        for ra, rb in zip(a.trace, b.trace):
            assert (ra.step, ra.tau, ra.loss, ra.exploitability) == (
                rb.step,
                rb.tau,
                rb.loss,
                rb.exploitability,
            )
        for ma, mb in zip(a.profile.marginals, b.profile.marginals):
            assert np.array_equal(ma, mb)

    def test_exploitability_field_consistent(self, chicken):
        res = solve_lle(chicken, QREConfig(targets=uniform_targets(chicken)))
        assert res.exploitability == pytest.approx(
            exploitability(chicken, res.profile), abs=1e-9
        )

    def test_nonconvergence_raises_with_trace(self, chicken):
        config = QREConfig(targets=uniform_targets(chicken), max_steps=5, **HOT)
        with pytest.raises(ConvergenceError) as exc:
            solve_lle(chicken, config)
        assert exc.value.trace is not None
        assert isinstance(exc.value.iterate, ProductProfile)

    @pytest.mark.parametrize(
        "case", ["fold", "3x3_18", "3x3_12", *(f"4x4_11_draw{k}" for k in (0, 7, 8, 10, 12, 14))]
    )
    def test_detour_passes_a_stalled_temperature(self, case):
        # without the detour each trace stalls: the fold game's branch
        # folds back between tau 0.122 and 0.116 (the Jacobian's smallest
        # singular value falls from 3e-2 to 3e-7); random_game((3, 3), 18)
        # takes a step too long for the corrector's basin at tau 0.377 and
        # folds near lambda 2.76 and 16.9; random_game((3, 3), 12) folds
        # below tau 1e-2; the random_game((4, 4), 11) priors of
        # default_rng(0) stall between tau 0.104 and 0.056
        config = QREConfig(epsilon_ne=0.0)
        if case == "fold":
            game = fold_game()
        elif case.startswith("3x3"):
            game = random_game((3, 3), int(case[4:]))
            if case == "3x3_12":
                config = replace(config, tau_terminal=1e-3)
        else:
            game = random_game((4, 4), 11)
            rng = np.random.default_rng(0)
            draws = [tuple(rng.dirichlet(np.ones(n)) for n in game.shape) for _ in range(16)]
            config = replace(
                config, targets=draws[int(case[11:])], tau_init=100.0, tau_terminal=1e-3
            )
        start = time.perf_counter()
        res = solve_lle(game, config)
        assert time.perf_counter() - start < 1.0
        assert res.converged and res.termination == "terminal_tau"
        assert res.trace[-1].tau == config.tau_terminal
        assert qre_residual(game, res.profile, config.tau_terminal, res.targets) <= 1e-10
        assert res.restarts >= 1
        assert res.to_dict()["restarts"] == res.restarts

    def test_fold_raises_fast(self):
        # the trace stalls at the fold at tau 0.116 after 50 Newton
        # iterations and the detour past it needs 78 more; with 100 in all
        # the detour must stop at the cap and raise there, not overrun it
        config = QREConfig(max_steps=100)
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="all 100 Newton iterations spent") as exc:
            solve_lle(fold_game(), config)
        assert time.perf_counter() - start < 1.0
        assert isinstance(exc.value.iterate, ProductProfile)
        assert exc.value.trace[-1].step == config.max_steps
        assert 0.115 < exc.value.trace[-1].tau < 0.122

    def test_detour_turned_back_raises_fast(self, monkeypatch):
        # a detour set off backwards walks the fold game's branch down to
        # lambda 0 and on past it; it must stop there with its own reason,
        # not spend all max_steps
        _reverse_first_tangent(monkeypatch)
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="turned back past lambda 0") as exc:
            solve_lle(fold_game(), QREConfig(max_steps=2000))
        assert time.perf_counter() - start < 1.0
        assert exc.value.trace[-1].step < 500  # 172: 50 to the stall, 122 back
        assert isinstance(exc.value.iterate, ProductProfile)

    @pytest.mark.parametrize("case", ["fold", "3x3_18"])
    def test_every_newton_solve_counts_against_the_budget(self, case, monkeypatch):
        # a detour's tangents are bordered Newton solves too, so a walk of
        # arclength steps accepted with no correction is still bounded.
        # The fold game's detour runs from step 50 to 128; the first of
        # random_game((3, 3), 18)'s from 29 to 73, and every cap in it is
        # tried
        if case == "fold":
            game, caps = fold_game(), range(50, 130, 7)
        else:
            game, caps = random_game((3, 3), 18), range(29, 74)
        real, calls = solvers_mod._newton_direction, []

        def spy(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(solvers_mod, "_newton_direction", spy)
        res = solve_lle(game, QREConfig(epsilon_ne=0.0))
        assert res.termination == "terminal_tau" and res.restarts >= 1
        assert len(calls) == res.trace[-1].step
        for cap in caps:
            calls.clear()
            with pytest.raises(ConvergenceError, match=f"all {cap} Newton iterations spent") as exc:
                solve_lle(game, QREConfig(epsilon_ne=0.0, max_steps=cap))
            assert len(calls) == exc.value.trace[-1].step == cap

    def test_overflowing_prediction_is_not_a_solved_temperature(self):
        # a prediction of this game's trace, at tau 0.090 after a detour,
        # overflows e^y; its residual is nan, which once passed the
        # corrector's test with no iteration, and the trace went on to
        # return a pure profile at exploitability 2.5 with nan records
        game = _koth_clone_game(12, 5, 0, seed=20)
        res = solve_lle(game, QREConfig(epsilon_ne=0.0))
        assert res.termination == "terminal_tau"
        assert all(np.isfinite([r.loss, r.exploitability]).all() for r in res.trace)
        assert res.exploitability == pytest.approx(8.54e-3, abs=1e-5)
        assert res.exploitability == pytest.approx(exploitability(game, res.profile), abs=1e-12)
        assert qre_residual(game, res.profile, 1e-2, res.targets) <= 1e-10

    def test_detour_starts_from_a_tightly_solved_point(self):
        # temperatures before the last are solved to NEWTON_STAGE_TOL only;
        # a detour from such a point, not first solved on to NEWTON_TOL,
        # loses this game's branch at tau 0.085 (its step falls below
        # ARC_MIN_STEP)
        game = _koth_clone_game(12, 5, 0, seed=7)
        res = solve_lle(game, QREConfig(epsilon_ne=0.0))
        assert res.termination == "terminal_tau" and res.restarts >= 1
        assert qre_residual(game, res.profile, 1e-2, res.targets) <= 1e-10

    def test_corrector_rejects_a_non_finite_start(self):
        game = random_game((3, 3), 0)
        ops, logt = _Contraction(game), np.log(np.full(6, 1 / 3))
        y = np.full(6, 800.0)  # e^800 overflows
        for cap in (0, 30):
            out_y, its, parts = _correct(ops, y, 0.5, logt, cap, solvers_mod.NEWTON_TOL)
            assert (its, parts) == (0, None)
            assert out_y is y

    def test_forced_anneal_is_counted(self, tmp_path, monkeypatch):
        # the fold that a forced anneal used to pass is now passed by a
        # detour; each detour is counted in restarts and saved with it
        detours = []
        real = solvers_mod._detour

        def spy(*args):
            detours.append(args[3])
            return real(*args)

        monkeypatch.setattr(solvers_mod, "_detour", spy)
        res = solve_lle(fold_game())
        assert res.converged and res.termination == "terminal_tau"
        assert res.restarts == len(detours) >= 1
        path = tmp_path / "eq.json"
        res.save(path)
        with open(path) as fh:
            saved = json.load(fh)
        assert saved["restarts"] == res.restarts
        assert "forced_anneals" not in saved

    def test_rejected_prediction_reruns_from_last_solution(self):
        # the extrapolated start misses this game's Newton basin at one
        # temperature; a trace without the detour stalls there, at tau 0.440
        game = random_game((3, 4, 2), 7)
        res = solve_lle(game, QREConfig(epsilon_ne=0.0))
        assert res.termination == "terminal_tau"
        assert res.restarts > 0

    def test_predictor_passes_a_corrector_stall(self):
        # tracing from each last solution stalls at tau 0.277, but the
        # Jacobian's smallest singular value there dips only to 2.1e-2 (at
        # tau 0.287, on a 0.995 grid), against 3e-7 at the fold of
        # test_fold_raises_fast: the branch goes on, the start was outside
        # the corrector's basin
        game = random_game((6, 3, 3), 19)
        for tau_terminal in (1e-2, 1e-3):
            config = QREConfig(epsilon_ne=0.0, tau_terminal=tau_terminal)
            res = solve_lle(game, config)
            assert res.termination == "terminal_tau"
            assert qre_residual(game, res.profile, tau_terminal, res.targets) <= 1e-9

    def test_predictor_cuts_newton_steps(self):
        # 286 Newton iterations over 91 temperatures from each last solution
        game = _koth_clone_game(8, 4, 0)
        res = solve_lle(game, QREConfig(epsilon_ne=0.0))
        assert res.termination == "terminal_tau"
        assert res.trace[-1].step <= 200

    def test_final_record_repeats_the_last_temperature(self, chicken):
        config = QREConfig(targets=uniform_targets(chicken), epsilon_ne=0.0, **HOT)
        res = solve_lle(chicken, config)
        assert res.trace[-1] == res.trace[-2]
        assert res.exploitability == res.trace[-1].exploitability
        assert res.exploitability == pytest.approx(exploitability(chicken, res.profile), abs=1e-12)

    def test_serialization_round_trip(self, tmp_path, rps):
        res = solve_lle(rps, QREConfig(targets=affinity_targets(rps)))
        path = tmp_path / "eq.json"
        res.save(path)
        with open(path) as fh:
            data = json.load(fh)
        prof = profile_from_dict(data, rps)
        for a, b in zip(prof.marginals, res.profile.marginals):
            assert np.allclose(a, b)
        assert data["method"] == "ne"
        assert len(data["trace"]) == len(res.trace)


class TestCloneInvariance:
    def test_chicken_affinity_targets_invariant(self, chicken, chicken_dup_straight):
        base = solve_lle(
            chicken, QREConfig(targets=affinity_targets(chicken), **HOT)
        )
        dup = solve_lle(
            chicken_dup_straight,
            QREConfig(targets=affinity_targets(chicken_dup_straight), **HOT),
        )
        base_r = all_regrets(chicken, base.profile)
        dup_r = all_regrets(chicken_dup_straight, dup.profile)
        # original actions keep their ratings
        assert abs(dup_r[0][0] - base_r[0][0]) <= 1e-3
        assert abs(dup_r[1][0] - base_r[1][0]) <= 1e-3
        assert abs(dup_r[1][1] - base_r[1][1]) <= 1e-3
        assert abs(dup_r[0][1] - base_r[0][1]) <= 1e-3
        # the two copies agree with each other
        assert abs(dup_r[0][1] - dup_r[0][2]) <= 1e-6

    def test_shannon_targets_break_on_clone(self, chicken, chicken_dup_straight):
        base = solve_lle(chicken, QREConfig(targets=uniform_targets(chicken), **HOT))
        dup = solve_lle(
            chicken_dup_straight,
            QREConfig(targets=uniform_targets(chicken_dup_straight), **HOT),
        )
        base_r = np.concatenate(all_regrets(chicken, base.profile))
        dup_r = all_regrets(chicken_dup_straight, dup.profile)
        diffs = [
            abs(dup_r[0][0] - base_r[0]),
            abs(dup_r[0][1] - base_r[1]),
            abs(dup_r[1][0] - base_r[2]),
            abs(dup_r[1][1] - base_r[3]),
        ]
        assert max(diffs) > 0.1

    def test_random_game_clone_invariance(self):
        game = random_game((4, 3), seed=23, scale=0.5)
        u1 = np.vstack([game.utilities[0], game.utilities[0][1]])
        u2 = np.vstack([game.utilities[1], game.utilities[1][1]])
        dup = Game(
            game.players,
            (game.action_labels[0] + ("a0_1_clone",), game.action_labels[1]),
            (u1, u2),
        )
        base = solve_lle(game, QREConfig(targets=affinity_targets(game)))
        dupres = solve_lle(dup, QREConfig(targets=affinity_targets(dup)))
        br = all_regrets(game, base.profile)
        dr = all_regrets(dup, dupres.profile)
        for a in range(4):
            assert abs(dr[0][a] - br[0][a]) <= 1e-3
        for a in range(3):
            assert abs(dr[1][a] - br[1][a]) <= 1e-3
        assert abs(dr[0][1] - dr[0][4]) <= 1e-6

    def test_koth_prompt_clones_keep_king_ratings(self):
        # the three-player prompt/king/rebel game, with exact clones of one
        # prompt: the king's NE ratings and ranking stay put, Elo's do not
        rng = np.random.default_rng(0)
        models = [f"m{i}" for i in range(4)]
        records = [
            koth.PreferenceRecord(f"q{p}", models[a], models[b], float(rng.choice(koth.SCORES)))
            for p in range(8)
            for a in range(4)
            for b in range(a + 1, 4)
        ]
        base = koth.build_koth(records)
        cloned = koth.inject_clones(base, [0] * 5)
        reports, elos = [], []
        for kg in (base, cloned):
            config = QREConfig(targets=affinity_targets(kg.game))
            res = solve_lle(kg.game, config)
            assert res.converged and res.termination == "terminal_tau"
            reports.append(rate(kg.game, res.profile, "NE"))
            elos.append(elo_ratings(koth.prompt_average_win_matrix(kg)))
        king = reports[0].player_index("king")
        assert np.abs(reports[0].ratings[king] - reports[1].ratings[king]).max() <= DEFAULT_TIE_TOL
        assert reports[0].ranking(king) == reports[1].ranking(king)
        assert np.argsort(elos[0]).tolist() != np.argsort(elos[1]).tolist()


class TestAgainstAdamReference:
    """The Newton continuation selects the equilibrium the annealed Adam
    descent traced (``tests/adam_lle.py``), whose own spread between tau_init
    1 and 100 is up to 4e-4 on these games."""

    def games(self, chicken):
        return {
            "koth": _koth_clone_game(8, 4, 0),
            "koth_clones": _koth_clone_game(8, 4, 5),
            "chicken": chicken,
            "random": random_game((3, 4, 2), seed=3),
        }

    @pytest.mark.parametrize("name", ["koth", "koth_clones", "chicken", "random"])
    def test_same_equilibrium(self, name, chicken):
        game = self.games(chicken)[name]
        config = QREConfig(targets=affinity_targets(game), epsilon_ne=0.0)
        res = solve_lle(game, config)
        ref, termination, _ = solve_lle_adam(game, config)
        assert res.termination == termination == "terminal_tau"
        ours, theirs = rate(game, res.profile, "NE"), rate(game, ref, "NE")
        for p in range(game.num_players):
            assert np.abs(ours.ratings[p] - theirs.ratings[p]).max() <= 5e-4
        if name.startswith("koth"):
            king = ours.player_index("king")
            assert ours.ranking(king) == theirs.ranking(king)
        hot = solve_lle(game, replace(config, tau_init=100.0))
        for a, b in zip(all_regrets(game, res.profile), all_regrets(game, hot.profile)):
            assert np.abs(a - b).max() <= 1e-10
        assert qre_residual(game, res.profile, config.tau_terminal, config.targets) <= 1e-9

    def test_koth_king_clone_shift(self):
        kings = []
        for clones in (0, 5):
            game = _koth_clone_game(8, 4, clones)
            res = solve_lle(game, QREConfig(targets=affinity_targets(game), epsilon_ne=0.0))
            report = rate(game, res.profile, "NE")
            kings.append(report.ratings[report.player_index("king")])
        assert np.abs(kings[0] - kings[1]).max() <= 1e-8


class TestCCE:
    # the co-marginal layouts: nothing before or after the collapsed axis,
    # both, and a one-action player
    @pytest.mark.parametrize(
        "shape", [(3,), (1, 4), (4, 1, 3), (3, 4, 2), (2, 3, 2, 2), "koth"], ids=str
    )
    def test_dual_evaluation_matches_reference(self, shape):
        game = _koth_clone_game(60, 8, 0) if shape == "koth" else random_game(shape, seed=5)
        rng = np.random.default_rng(8)
        targets = tuple(rng.dirichlet(np.ones(n)) for n in game.shape)
        dual = _CCEDual(game, targets)
        points = [[rng.uniform(0.0, 1.0, n) for n in game.shape] for _ in range(2)]
        expected = []
        for alphas in points:
            logit = cce_dual_logit(game, alphas, target_log_joint(targets))
            loss = logsumexp(logit)
            joint = np.exp(logit - loss)
            expected.append((loss, joint, all_regrets(game, JointDistribution(joint))))
        # in turn, so a stale buffer or cache would show
        for alphas, (loss, joint, regrets) in [*zip(points, expected)] * 2:
            got_loss, got_joint, got_regrets = dual.evaluate(np.concatenate(alphas))
            assert got_loss == pytest.approx(loss, abs=1e-12)
            assert got_joint.shape == game.shape
            assert np.abs(got_joint - joint).max() <= 1e-12
            for r, e in zip(got_regrets, regrets):
                assert np.abs(r - e).max() <= 1e-12

    @pytest.mark.parametrize("name", ["chicken", "koth"])
    def test_serialization_round_trip(self, tmp_path, name, chicken):
        game = chicken if name == "chicken" else _koth_clone_game(60, 8, 0)
        res = solve_mre_cce(game, CCEConfig(targets=affinity_targets(game)))
        path = tmp_path / "cce.json"
        res.save(path)
        with open(path) as fh:
            data = json.load(fh)
        assert data["profile"]["type"] == "cce_dual"
        assert "joint" not in data["profile"]
        assert np.array_equal(profile_from_dict(data, game).joint, res.profile.joint)
        # the format written before CCEs were stored as their multipliers
        legacy = {
            **data,
            "targets": None,
            "profile": {
                "type": "joint",
                "joint": res.profile.joint.ravel().tolist(),
                "shape": list(game.shape),
            },
        }
        assert np.array_equal(profile_from_dict(legacy, game).joint, res.profile.joint)

    def test_stored_cce_of_another_game_rejected(self, chicken):
        data = solve_mre_cce(chicken).to_dict()
        flipped = Game(chicken.players, chicken.action_labels, tuple(-u for u in chicken.utilities))
        with pytest.raises(ParameterError, match="another game"):
            profile_from_dict(data, flipped)
        with pytest.raises(ParameterError, match="does not fit"):
            profile_from_dict(data, random_game((2, 3), seed=0))

    def test_stored_cce_with_a_nan_rejected(self, chicken):
        data = solve_mre_cce(chicken).to_dict()
        nan_bound = {**data, "config": {**data["config"], "epsilon_cce": float("nan")}}
        duals = [[float("nan"), *d[1:]] for d in data["profile"]["duals"]]
        nan_duals = {**data, "profile": {**data["profile"], "duals": duals}}
        for bad in (nan_bound, nan_duals):
            with pytest.raises(ParameterError, match="NaN"):
                profile_from_dict(bad, chicken)

    def test_dual_logit_zero_alphas(self, rps):
        t = target_log_joint(uniform_targets(rps))
        l = cce_dual_logit(rps, [np.zeros(3), np.zeros(3)], t)
        assert np.allclose(l, t)

    def test_dual_logit_single_player_single_action(self):
        game = Game(("solo",), (("only",),), (np.array([2.0]),))
        t = np.array([0.0])
        assert np.allclose(cce_dual_logit(game, [np.zeros(1)], t), t)

    def test_dual_logit_brute_force(self, rps):
        rng = np.random.default_rng(4)
        alphas = [rng.uniform(0, 1, 3), rng.uniform(0, 1, 3)]
        t = target_log_joint(uniform_targets(rps))
        l = cce_dual_logit(rps, alphas, t)
        expect = np.zeros((3, 3))
        for a1 in range(3):
            for a2 in range(3):
                s = t[a1, a2]
                for i, u in enumerate(rps.utilities):
                    for dev in range(3):
                        if i == 0:
                            gain = u[dev, a2] - u[a1, a2]
                        else:
                            gain = u[a1, dev] - u[a1, a2]
                        s -= alphas[i][dev] * gain
                expect[a1, a2] = s
        assert np.allclose(l, expect, atol=1e-12)

    def test_negative_alpha_rejected(self, rps):
        t = target_log_joint(uniform_targets(rps))
        with pytest.raises(ParameterError):
            cce_dual_logit(rps, [np.array([-0.1, 0, 0]), np.zeros(3)], t)

    def test_rps_uniform_target_gives_uniform_joint(self, rps):
        res = solve_mre_cce(rps)
        assert np.allclose(res.profile.joint, 1 / 9, atol=1e-3)
        assert res.exploitability <= 1e-3

    def test_chicken_cce_regret_bound(self, chicken):
        res = solve_mre_cce(chicken, CCEConfig(epsilon_cce=1e-4))
        assert exploitability(chicken, res.profile) <= 1e-4

    def test_chicken_dup_straight_affinity_ratings_zero(self, chicken, chicken_dup_straight):
        # at the MRE CCE only actions with a positive multiplier are rated
        # zero (complementary slackness); the rest are rated below zero, and
        # cloning an action moves no original action's rating
        def solve(game):
            targets = affinity_targets(game)
            config = CCEConfig(targets=targets, epsilon_cce=1e-3)
            res = solve_mre_cce(game, config)
            return res, all_regrets(game, res.profile)

        base, base_r = solve(chicken)
        dup, dup_r = solve(chicken_dup_straight)
        for r, alpha in zip(dup_r, dup.duals):
            assert r.max() <= 1e-3
            for a in range(len(alpha)):
                if alpha[a] > 1e-3:
                    assert abs(r[a]) <= 1e-2
        assert abs(dup_r[0][1] - dup_r[0][2]) <= 1e-6
        assert abs(dup_r[0][0] - base_r[0][0]) <= 1e-3
        assert abs(dup_r[0][1] - base_r[0][1]) <= 1e-3
        assert abs(dup_r[1][0] - base_r[1][0]) <= 1e-3
        assert abs(dup_r[1][1] - base_r[1][1]) <= 1e-3

    def test_convexity_probe_in_dual_space(self, chicken):
        rng = np.random.default_rng(6)
        t = target_log_joint(uniform_targets(chicken))
        for _ in range(30):
            a = [rng.uniform(0, 3, 2), rng.uniform(0, 3, 2)]
            b = [rng.uniform(0, 3, 2), rng.uniform(0, 3, 2)]
            mid = [(x + y) / 2 for x, y in zip(a, b)]
            assert _cce_loss_alpha(chicken, mid, t) <= 0.5 * (
                _cce_loss_alpha(chicken, a, t) + _cce_loss_alpha(chicken, b, t)
            ) + 1e-9

    def test_dual_gradient_matches_finite_differences(self, chicken):
        # the gradient the solver descends: minus the regret under the joint
        from eqrate.games import deviation_payoff, expected_utility

        rng = np.random.default_rng(11)
        t = target_log_joint(uniform_targets(chicken))
        alphas = [rng.uniform(0.1, 2.0, size=2), rng.uniform(0.1, 2.0, size=2)]
        loss, grad = _CCEDual(chicken, uniform_targets(chicken)).loss_grad(np.concatenate(alphas))
        assert loss == pytest.approx(_cce_loss_alpha(chicken, alphas, t), abs=1e-12)
        logit = cce_dual_logit(chicken, alphas, t)
        joint = JointDistribution(np.exp(logit - logsumexp(logit)))
        h = 1e-6
        for i in range(2):
            regret = deviation_payoff(chicken, joint, i) - expected_utility(chicken, joint, i)
            for a in range(2):
                ap = [v.copy() for v in alphas]
                am = [v.copy() for v in alphas]
                ap[i][a] += h
                am[i][a] -= h
                fd = (_cce_loss_alpha(chicken, ap, t) - _cce_loss_alpha(chicken, am, t)) / (2 * h)
                assert abs(fd - (-regret[a])) / max(1.0, abs(fd)) < 1e-4
                assert abs(fd - grad[2 * i + a]) / max(1.0, abs(fd)) < 1e-4

    def test_complementary_slackness(self, chicken):
        res = solve_mre_cce(chicken, CCEConfig(epsilon_cce=1e-5))
        regs = all_regrets(chicken, res.profile)
        for r, alpha in zip(regs, res.duals):
            for a in range(len(alpha)):
                if alpha[a] > 1e-3:
                    assert r[a] >= r.max() - 0.05

    def test_chicken_kkt_certificate(self, chicken):
        # the MRE CCE of chicken puts a positive multiplier on swerve at
        # zero regret and an exact zero on straight, whose regret is -3.375
        res = solve_mre_cce(chicken)
        for r, alpha in zip(all_regrets(chicken, res.profile), res.duals):
            assert r.max() <= 1e-3
            assert alpha[1] == 0.0
            assert alpha[0] > 0.1
            assert abs(r[0]) <= 1e-6
            assert r[1] == pytest.approx(-3.3754, abs=1e-4)
        assert res.trace[0].step == 0
        assert [rec.step for rec in res.trace] == list(range(len(res.trace)))

    def test_iteration_cap_raises_with_trace(self, chicken):
        with pytest.raises(ConvergenceError) as exc:
            solve_mre_cce(chicken, CCEConfig(max_steps=2))
        assert isinstance(exc.value.iterate, JointDistribution)
        assert exc.value.trace[-1].step == 2

    def test_determinism(self, chicken):
        a = solve_mre_cce(chicken)
        b = solve_mre_cce(chicken)
        assert np.array_equal(a.profile.joint, b.profile.joint)
        assert [(r.step, r.loss) for r in a.trace] == [(r.step, r.loss) for r in b.trace]


def _active_prompt_clone_game(clones):
    """``_koth_clone_game(60, 8, 0)`` with exact clones of prompt 46, whose
    multiplier is positive at the MRE CCE: the clones' gain rows are
    identical, so the finish's Hessian is singular."""
    base = _koth_clone_game(60, 8, 0)
    kg = koth.KOTHGame(game=base, clone_sources=(None,) * base.shape[0])
    return koth.inject_clones(kg, [46] * clones).game


class TestCCEFinish:
    @pytest.mark.parametrize(
        "shape", [(3,), (1, 4), (4, 1, 3), (3, 4, 2), (2, 3, 2, 2), "koth"], ids=str
    )
    @pytest.mark.parametrize("cells", [1, 7, 2**15])
    def test_hessian_matches_central_differences(self, shape, cells, monkeypatch):
        # blocks of one axis-0 index, of a few, and the whole joint at once
        monkeypatch.setattr(solvers_mod, "CCE_HESSIAN_CELLS", cells)
        game = _koth_clone_game(12, 4, 3) if shape == "koth" else random_game(shape, seed=5)
        rng = np.random.default_rng(17)
        dual = _CCEDual(game, tuple(rng.dirichlet(np.ones(n)) for n in game.shape))
        flat = rng.uniform(0.0, 1.0, sum(game.shape))
        free = np.flatnonzero(rng.uniform(size=flat.size) < 0.7)
        _, grad = dual.loss_grad(flat)
        hess = dual.hessian(free, -grad[free])
        h = 1e-6
        for col, j in enumerate(free):
            step = np.zeros(flat.size)
            step[j] = h
            fd = (dual.loss_grad(flat + step)[1] - dual.loss_grad(flat - step)[1]) / (2 * h)
            assert np.abs(hess[:, col] - fd[free]).max() <= 1e-7

    @pytest.mark.parametrize("name", ["chicken", "koth_12x4", "koth_60x8", "koth_60x8_120_clones"])
    def test_kkt_at_rounding_level(self, name, chicken):
        # no positive regret, and zero regret on every positive multiplier,
        # to CCE_KKT_TOL times the largest payoff, recomputed from the joint
        games = {
            "chicken": lambda: chicken,
            "koth_12x4": lambda: _koth_clone_game(12, 4, 3),
            "koth_60x8": lambda: _koth_clone_game(60, 8, 0),
            "koth_60x8_120_clones": lambda: _koth_clone_game(60, 8, 120),
        }
        game = games[name]()
        targets = None if name == "chicken" else affinity_targets(game)
        res = solve_mre_cce(game, CCEConfig(targets=targets))
        tol = solvers_mod.CCE_KKT_TOL * max(np.abs(u).max() for u in game.utilities)
        assert res.termination == "kkt" and res.restarts == 0
        assert res.exploitability <= 1e-12 * max(np.abs(u).max() for u in game.utilities)
        for r, alpha in zip(all_regrets(game, res.profile), res.duals):
            assert r.max() <= tol
            assert np.abs(r[alpha > 0]).max(initial=0.0) <= tol
        assert [rec.step for rec in res.trace] == list(range(len(res.trace)))

    @pytest.mark.parametrize("name", ["chicken", "koth_12x4", "stale_curvature"])
    def test_finish_alone_solves_from_the_target(self, name, chicken):
        # from all-zero multipliers the free set is the positive regrets
        # alone, so the finish must add constraints and project the step
        # back onto alpha >= 0 to reach the solver's multipliers
        game = {
            "chicken": lambda: chicken,
            "koth_12x4": lambda: _koth_clone_game(12, 4, 3),
            "stale_curvature": _stale_curvature_game,
        }[name]()
        targets = uniform_targets(game) if name == "chicken" else affinity_targets(game)
        dual = _CCEDual(game, targets)
        steps = []
        flat, regrets, taken = solvers_mod._newton_finish(
            dual, np.zeros(sum(game.shape)), 1e-12, steps.append, solvers_mod.CCE_NEWTON_STEPS
        )
        assert taken == len(steps) >= 1
        assert solvers_mod._kkt_residual(flat, regrets) <= 1e-12
        assert flat.min() >= 0.0
        res = solve_mre_cce(game, CCEConfig(targets=targets))
        assert np.abs(flat - np.concatenate(res.duals)).max() <= 1e-10

    def test_singular_hessian_repeats_bit_for_bit(self):
        game = _active_prompt_clone_game(3)
        config = CCEConfig(targets=affinity_targets(game))
        a = solve_mre_cce(game, config)
        flat = np.concatenate(a.duals)
        dual = _CCEDual(game, a.targets)
        regrets = np.concatenate(dual.evaluate(flat)[2])
        free = np.flatnonzero((flat > 0) | (regrets > 0))
        assert np.linalg.matrix_rank(dual.hessian(free, regrets[free])) < free.size
        assert a.newton_steps >= 1 and a.termination == "kkt"
        # the least-norm step splits the prompt's multiplier evenly over its
        # clones, and the clones' ratings are equal
        assert np.allclose(a.duals[0][60:], a.duals[0][46], rtol=1e-9)
        b = solve_mre_cce(game, config)
        assert np.array_equal(a.profile.joint, b.profile.joint)
        assert all(map(np.array_equal, a.duals, b.duals))
        assert [(r.loss, r.exploitability) for r in a.trace] == [(r.loss, r.exploitability) for r in b.trace]

    def test_a_cap_inside_the_finish_raises(self):
        game = _koth_clone_game(60, 8, 0)
        config = CCEConfig(targets=affinity_targets(game))
        res = solve_mre_cce(game, config)
        steps = res.trace[-1].step
        assert res.newton_steps >= 2
        # one step short: the finish is cut before the KKT conditions hold,
        # and the budget is spent, so even a feasible joint is refused
        with pytest.raises(ConvergenceError) as exc:
            solve_mre_cce(game, replace(config, max_steps=steps - 1))
        assert exc.value.trace[-1].step == steps - 1
        assert exc.value.trace[-1].exploitability <= config.epsilon_cce

    def test_a_missed_finish_resumes_lbfgsb(self, monkeypatch):
        # with no Newton step allowed the finish misses the KKT conditions,
        # so L-BFGS-B is resumed once and runs until it stops; its joint is
        # accepted within epsilon_cce
        game = _koth_clone_game(60, 8, 0)
        config = CCEConfig(targets=affinity_targets(game))
        finished = solve_mre_cce(game, config)
        monkeypatch.setattr(solvers_mod, "CCE_NEWTON_STEPS", 0)
        res = solve_mre_cce(game, config)
        assert res.restarts == 1 and res.newton_steps == 0
        assert res.termination == "epsilon_cce"
        assert res.exploitability <= 1e-6
        assert np.abs(res.profile.joint - finished.profile.joint).max() <= 1e-6


class TestEnumerate:
    def test_chicken_finds_all_three_nes(self, chicken):
        result = enumerate_nes(
            chicken,
            count=3,
            epsilon=1e-3,
            seed=0,
            lle_config=QREConfig(targets=uniform_targets(chicken), **HOT),
        )
        assert result.complete
        assert len(result.profiles) == 3
        kinds = set()
        for prof in result.profiles:
            p1, p2 = prof.marginals
            if p1[0] > 0.8 and p2[0] > 0.8:
                kinds.add("mixed")
                assert p1[0] == pytest.approx(11 / 12, abs=2e-2)
            elif p1[1] > 0.9 and p2[0] > 0.9:
                kinds.add("p1_straight")
            elif p1[0] > 0.9 and p2[1] > 0.9:
                kinds.add("p2_straight")
        assert kinds == {"mixed", "p1_straight", "p2_straight"}
        for prof in result.profiles:
            assert exploitability(chicken, prof) <= 1e-3

    def test_supported_actions_near_zero_regret(self, chicken):
        result = enumerate_nes(
            chicken,
            count=3,
            epsilon=1e-3,
            seed=0,
            lle_config=QREConfig(targets=uniform_targets(chicken), **HOT),
        )
        for prof in result.profiles:
            regs = all_regrets(chicken, prof)
            for m, r in zip(prof.marginals, regs):
                for a in range(len(m)):
                    if m[a] > 1e-3:
                        assert abs(r[a]) <= 1e-2

    def test_rps_unique_ne_dedups_to_one(self, rps):
        result = enumerate_nes(
            rps,
            count=2,
            epsilon=1e-3,
            seed=1,
            replicas=6,
            lle_config=QREConfig(targets=affinity_targets(rps)),
        )
        assert len(result.profiles) == 1
        assert not result.complete

    def test_zero_sum_saddle_found(self):
        # pure saddle at (a1, b1), value 1: for the column player b1
        # strictly dominates b0 (-0.5 > -2, -1 > -1.5), and against b1 the
        # row player prefers a1 (1 > 0.5)
        u1 = np.array([[2.0, 0.5], [1.5, 1.0]])
        game = Game(("r", "c"), (("a0", "a1"), ("b0", "b1")), (u1, -u1))
        result = enumerate_nes(game, count=1, epsilon=1e-3, seed=2)
        prof = result.profiles[0]
        assert prof.marginals[0][1] > 0.99
        assert prof.marginals[1][1] > 0.99

    def test_polish_is_exact(self, chicken):
        result = enumerate_nes(
            chicken,
            count=3,
            epsilon=1e-3,
            seed=0,
            lle_config=QREConfig(targets=uniform_targets(chicken), **HOT),
        )
        (mixed,) = [p for p in result.profiles if min(m[0] for m in p.marginals) > 0.8]
        for m in mixed.marginals:
            assert np.abs(m - [11 / 12, 1 / 12]).max() <= 1e-12
        for prof in result.profiles:
            assert exploitability(chicken, prof) <= 1e-9

    def test_polish_is_exact_on_four_players(self):
        game = random_game((2, 3, 2, 2), 3)
        result = enumerate_nes(game, count=4)
        assert result.profiles
        for prof in result.profiles:
            assert exploitability(game, prof) <= 1e-9

    def test_stalled_priors_counted(self):
        # 8 of this game's priors stall at a fold of their branch without
        # the detour; with it none stalls, and the equilibria reached are
        # polished
        game = random_game((4, 4), 11)
        result = enumerate_nes(game, count=5, seed=0)
        assert result.stalled == 0
        assert result.profiles
        for prof in result.profiles:
            assert exploitability(game, prof) <= 1e-9

    def test_lle_branch_folding_past_its_stop(self):
        # element 0 is traced deeper than lle_config asks.  This game's LLE
        # branch folds between tau 1e-2 and 1e-3, and the deep trace
        # detours past the fold to a profile that polishes, where the LLE
        # at tau 1e-2 is 5.2e-3 from an equilibrium.  The second game's
        # branch folds above tau 1e-2.
        game = random_game((3, 3), 12)
        assert solve_lle(game).exploitability > 1e-3
        result = enumerate_nes(game, count=1)
        assert exploitability(game, result.profiles[0]) <= 1e-9
        game = random_game((3, 3), 1)
        result = enumerate_nes(game, count=1)
        assert len(result.profiles) == 1
        assert exploitability(game, result.profiles[0]) <= 1e-9

    @pytest.mark.parametrize("shape", [(3, 3), (4, 3, 2), (2, 3, 2, 2), "koth"])
    def test_indifference_jacobian_matches_central_differences(self, shape):
        # a wrong pair block would still let Newton reach a fixed point of
        # some other system, which the polish would reject, quietly keeping
        # every traced candidate unpolished
        game = _koth_clone_game(12, 4, 3) if shape == "koth" else random_game(shape, seed=37)
        rng = np.random.default_rng(17)
        ops = _Contraction(game)
        n = game.num_players
        h = 1e-6
        for _ in range(3):
            keep = rng.uniform(size=sum(game.shape)) < 0.7
            keep[ops.starts] = True
            support = np.flatnonzero(keep)
            k = support.size

            def residual(u):
                x = np.zeros(keep.size)
                x[support] = u[:k]
                return _indifference(ops, x, u[k:], support)[0]

            u = np.concatenate([rng.uniform(size=k), rng.normal(size=n)])
            jac = np.empty((k + n, k + n))
            for c in range(k + n):
                step = np.zeros(k + n)
                step[c] = h
                jac[:, c] = (residual(u + step) - residual(u - step)) / (2 * h)
            x = np.zeros(keep.size)
            x[support] = u[:k]
            _, analytic = _indifference(ops, x, u[k:], support)
            assert np.abs(analytic - jac).max() <= 1e-7


class TestRiskDominance:
    def chicken_nes(self):
        return [
            ProductProfile((np.array([11 / 12, 1 / 12]), np.array([11 / 12, 1 / 12]))),
            ProductProfile((np.array([1.0, 0.0]), np.array([0.0, 1.0]))),
            ProductProfile((np.array([0.0, 1.0]), np.array([1.0, 0.0]))),
        ]

    def test_single_equilibrium_degenerate(self, chicken):
        res = risk_dominance_beliefs(chicken, [self.chicken_nes()[0]])
        assert np.allclose(res.priors[0], [1.0])
        assert res.payoff_table.shape == (1, 2)
        assert res.payoff_table[0, 0] == pytest.approx(-1 / 12)

    def test_identical_equilibria_stay_uniform(self, chicken):
        ne = self.chicken_nes()[0]
        res = risk_dominance_beliefs(chicken, [ne, ne], iterations=500)
        assert np.allclose(res.priors[0], 0.5)
        assert np.allclose(res.priors[1], 0.5)

    def test_chicken_uniform_prior_payoff_table(self, chicken):
        nes = self.chicken_nes()
        res = risk_dominance_beliefs(chicken, nes, eta=1e-2, iterations=0)
        # iterations=0 keeps uniform priors; table against uniform co-play
        u1 = chicken.utilities[0]
        for k in range(3):
            x1 = nes[k].marginals[0]
            expect = np.mean(
                [x1 @ u1 @ nes[q].marginals[1] for q in range(3)]
            )
            assert res.payoff_table[k, 0] == pytest.approx(expect, abs=1e-6)

    def test_cross_play_miscoordination_value(self, chicken):
        # both-straight cross-play entry: p1 straight vs p2 straight = -12
        nes = self.chicken_nes()
        u1 = chicken.utilities[0]
        val = nes[2].marginals[0] @ u1 @ nes[1].marginals[1]
        assert val == pytest.approx(-12.0)

    def test_known_equilibrium_becomes_focal(self, chicken):
        nes = self.chicken_nes()
        res = risk_dominance_beliefs(chicken, nes, eta=1e-2, iterations=10_000)
        for pi in res.priors:
            assert pi.sum() == pytest.approx(1.0)
        assert res.payoff_table.shape == (3, 2)


def _reverse_first_tangent(monkeypatch):
    """Wrap ``solvers._tangent`` so that a detour's first tangent points
    backwards."""
    real, calls = solvers_mod._tangent, []

    def first_reversed(*args):
        calls.append(real(*args))
        return -calls[-1] if len(calls) == 1 else calls[-1]

    monkeypatch.setattr(solvers_mod, "_tangent", first_reversed)


def _solved_stages(monkeypatch):
    """Wrap ``solvers._correct`` to keep (tau, y, ops, logt) of every solved
    temperature."""
    stages = []
    real = solvers_mod._correct

    def spy(ops, y, tau, logt, *args):
        out = real(ops, y, tau, logt, *args)
        if out[2] is not None:
            stages.append((tau, out[0].copy(), ops, logt))
        return out

    monkeypatch.setattr(solvers_mod, "_correct", spy)
    return stages


class TestTraceRecords:
    """A solved temperature's record comes from the corrector's last
    residual; the exact ``_qre_gap`` is kept for the records that decide or
    end the trace."""

    def games(self, chicken):
        return {
            "chicken": (chicken, QREConfig(targets=uniform_targets(chicken), **HOT)),
            "random": (random_game((3, 4, 2), seed=3), QREConfig()),
            "koth": (_koth_clone_game(8, 4, 0), QREConfig()),
        }

    @pytest.mark.parametrize("name", ["chicken", "random", "koth"])
    def test_records_match_the_exact_gap(self, name, chicken, monkeypatch):
        game, config = self.games(chicken)[name]
        stages = _solved_stages(monkeypatch)
        res = solve_lle(game, replace(config, epsilon_ne=0.0))
        assert res.termination == "terminal_tau"
        records = res.trace[1:-1]
        assert len(records) == len(stages) > 1
        for record, (tau, y, ops, logt) in zip(records, stages):
            loss, exploit = _qre_gap(ops, y, tau, logt)
            assert record.tau == tau
            assert abs(record.loss - loss) <= 1e-9
            assert abs(record.exploitability - exploit) <= 1e-9
        tau, y, ops, logt = stages[-1]
        assert (records[-1].loss, records[-1].exploitability) == _qre_gap(ops, y, tau, logt)
        assert res.trace[-1] == res.trace[-2]

    @pytest.mark.parametrize("name", ["chicken", "random", "koth"])
    def test_records_take_no_contraction(self, name, chicken, monkeypatch):
        # every contraction is a residual's but the exact gaps at the start
        # and the terminal temperature: the corrector's records and their
        # losses, taken in one batch, contract nothing
        game, config = self.games(chicken)[name]
        counts = {"contract": 0, "residual": 0}
        contract, residual = _Contraction.contract, solvers_mod._qre_residual

        def count_contract(ops, x):
            counts["contract"] += 1
            return contract(ops, x)

        def count_residual(*args):
            counts["residual"] += 1
            return residual(*args)

        monkeypatch.setattr(_Contraction, "contract", count_contract)
        monkeypatch.setattr(solvers_mod, "_qre_residual", count_residual)
        res = solve_lle(game, replace(config, epsilon_ne=0.0))
        assert res.termination == "terminal_tau"
        assert counts["residual"] > len(res.trace)
        assert counts["contract"] == counts["residual"] + 2

    @pytest.mark.parametrize("case", ["capped", "turned_back"])
    def test_raised_trace_has_every_loss(self, case, monkeypatch):
        # the losses of the corrector's records are filled when the trace
        # ends, also when it raises: on the fold game once max_steps runs
        # out in the detour, and once a detour turns back past lambda 0
        if case == "turned_back":
            _reverse_first_tangent(monkeypatch)
        stages = _solved_stages(monkeypatch)
        with pytest.raises(ConvergenceError) as exc:
            solve_lle(fold_game(), QREConfig(max_steps=100 if case == "capped" else 2000))
        trace, iterate = exc.value.trace, exc.value.iterate
        _, _, ops, logt = stages[0]
        # the start, every solved temperature, and the stalled iterate; the
        # last solved temperature is solved once more before the detour
        points = [(trace[0].tau, logt)] + [(tau, y) for tau, y, _, _ in stages[: len(trace) - 2]]
        points.append((trace[-1].tau, np.log(np.concatenate(iterate.marginals))))
        assert len(stages) == len(trace) - 1
        for record, (tau, y) in zip(trace, points, strict=True):
            loss, exploit = _qre_gap(ops, y, tau, logt)
            assert record.tau == tau
            assert np.isfinite(record.loss) and abs(record.loss - loss) <= 1e-9
            assert abs(record.exploitability - exploit) <= 1e-9

    def test_early_exit_is_decided_on_the_exact_exploitability(self, monkeypatch):
        game = _koth_clone_game(8, 4, 0)
        stages = _solved_stages(monkeypatch)
        full = solve_lle(game, QREConfig(epsilon_ne=0.0))
        cheap = [r.exploitability for r in full.trace[1:-1]]
        exact = [_qre_gap(ops, y, tau, logt)[1] for tau, y, ops, logt in stages]
        # a stage whose record from the corrector reads below its exact
        # value and below every earlier record: an exit decided on that
        # record would stop there, one decided on the exact value may not
        k = next(
            k
            for k in range(len(cheap) // 4, len(cheap))
            if cheap[k] < exact[k] and cheap[k] < min(cheap[:k]) and cheap[k] < min(exact[:k])
        )
        eps = cheap[k]
        first = next((j for j, e in enumerate(exact) if e <= eps), None)
        assert first != k
        stages.clear()
        res = solve_lle(game, QREConfig(epsilon_ne=eps))
        if first is None:
            assert res.termination == "terminal_tau"
            assert len(res.trace) == len(full.trace)
        else:
            assert res.termination == "epsilon_ne"
            assert len(res.trace) == first + 3
            assert res.trace[-1].tau == stages[first][0]
            assert res.exploitability == exact[first]
        assert abs(res.exploitability - exploitability(game, res.profile)) <= 1e-12

    def test_exact_gap_only_at_the_start_and_the_terminal_temperature(self, monkeypatch):
        calls = []
        real = solvers_mod._qre_gap

        def spy(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(solvers_mod, "_qre_gap", spy)
        res = solve_lle(_koth_clone_game(8, 4, 0), QREConfig(epsilon_ne=0.0))
        assert res.termination == "terminal_tau"
        assert calls == [res.trace[0].tau, res.trace[-1].tau]

    def test_loose_stages_change_only_the_step_count(self, chicken, monkeypatch):
        # every temperature solved to NEWTON_TOL, as the terminal one is,
        # against the trace's own; the fold game's trace detours once
        games = {**self.games(chicken), "fold": (fold_game(), QREConfig())}
        tols = (solvers_mod.NEWTON_STAGE_TOL, solvers_mod.NEWTON_TOL)
        for game, config in games.values():
            solves = []
            for stage_tol in tols:
                monkeypatch.setattr(solvers_mod, "NEWTON_STAGE_TOL", stage_tol)
                solves.append([solve_lle(game, replace(config, epsilon_ne=eps)) for eps in (0.0, 1e-3, 1e-2)])
            for k, (loose, tight) in enumerate(zip(*solves)):
                gap = max(np.abs(a - b).max() for a, b in zip(loose.profile.marginals, tight.profile.marginals))
                assert loose.termination == tight.termination
                assert loose.trace[-1].tau == tight.trace[-1].tau
                if k == 0:
                    assert loose.termination == "terminal_tau"
                    assert gap <= 1e-12
                    assert loose.trace[-1].step < tight.trace[-1].step
                else:
                    assert gap <= 1e-5


class TestTargetsPowerIteration:
    """The targets' power iteration stops once its iterate cycles in
    floating point; the targets equal those of a fixed 50-round iteration."""

    @pytest.mark.parametrize("name", ["rps_dup_rock", "koth_clones", "random", "skillworld"])
    def test_targets_match_fifty_rounds(self, name, rps_dup_rock):
        game = {
            "rps_dup_rock": lambda: rps_dup_rock,
            "koth_clones": lambda: _koth_clone_game(8, 4, 5),
            "random": lambda: random_game((3, 4, 2), seed=3),
            "skillworld": _stale_curvature_game,
        }[name]()
        for variance, mode in itertools.product([1e-6, 1e-4], ["joint", "factorized"]):
            ours = affinity_targets(game, variance=variance, mode=mode)
            refs = affinity_targets_50(game, variance=variance, mode=mode)
            for t, ref in zip(ours, refs, strict=True):
                assert np.array_equal(t, ref), (variance, mode)

    # the iterate of size 13 cycles with period 3 from round 3, and that of
    # size 29 with period 2, in the other phase from the last round
    @pytest.mark.parametrize("n", [5, 13, 29])
    def test_identity_kernel(self, n, monkeypatch):
        ref = max_entropy_pg_50(np.eye(n), 1e-7, 100_000)
        U, x = np.eye(n), np.full(n, 1.0 / n)
        first_step = x - (1.0 / lipschitz_50(U)) * (2.0 * (U.T @ (U @ x)))
        rounds, points = [], []
        norm, project = kernels.np.linalg.norm, kernels.project_simplex
        monkeypatch.setattr(kernels.np.linalg, "norm", lambda v: rounds.append(v) or norm(v))
        monkeypatch.setattr(kernels, "project_simplex", lambda v: points.append(v) or project(v))
        ours = kernels.max_affinity_entropy(np.eye(n), tolerance=1e-7)
        assert np.array_equal(ours, ref)
        assert np.array_equal(points[0], first_step)
        assert len(rounds) <= 3


def _stale_curvature_game():
    """The 21x20x20 skill-world game of ``_STALE_PROMPTS`` and
    ``_STALE_MODELS``, scaled as the skill-world rater scales it."""
    u = skillsim._king_tensor(np.array(_STALE_PROMPTS), np.array(_STALE_MODELS))
    return skillsim._skill_game(u / np.abs(u).max())


class TestCCERestart:
    def test_stale_curvature_stop_is_restarted(self):
        # L-BFGS-B alone stops on a relative reduction of the loss at
        # exploitability 4.16e-3 on this game (trial 4, iteration 11 of the
        # cce arm at the SimConfig defaults); the Newton finish, which
        # replaced the restarts from that stop, solves it to rounding level
        game = _stale_curvature_game()
        config = CCEConfig(targets=affinity_targets(game))
        res = solve_mre_cce(game, config)
        assert res.converged and res.exploitability <= 1e-12
        assert res.exploitability <= config.epsilon_cce
        assert res.exploitability == exploitability(game, res.profile)
        assert [r.step for r in res.trace] == list(range(len(res.trace)))
        assert res.to_dict()["restarts"] == res.restarts

    def test_no_restart_below_epsilon(self):
        # L-BFGS-B alone also stops on a relative reduction of the loss
        # here, within epsilon_cce; the finish needs no resume
        game = _koth_clone_game(60, 8, 0)
        res = solve_mre_cce(game, CCEConfig(targets=affinity_targets(game)))
        assert res.restarts == 0


_STALE_PROMPTS = [
    [0.6079485698431857, 0.2879312280208058, 0.09218363214100095, 0.011936569995007711],
    [0.26589352094995833, 0.11057120411476022, 0.08353317210823594, 0.5400021028270455],
    [0.2918964155219503, 0.1618501705893673, 0.200250794889609, 0.3460026189990733],
    [0.2850103370666264, 0.028509278016737267, 0.3309326302488254, 0.35554775466781113],
    [0.08111315717970854, 0.45987712862164104, 0.40444705345656307, 0.05456266074208732],
    [0.5563622592210427, 0.08877185852108446, 0.018572172830346737, 0.3362937094275261],
    [0.47467101556385866, 0.31024268012953543, 0.1557236025232154, 0.05936270178339055],
    [0.09200338042038925, 0.3529374552552245, 0.4286886718933678, 0.12637049243101847],
    [0.23257180176723952, 0.1165769292108817, 0.1623522762790502, 0.4884989927428286],
    [0.20449518913611167, 0.015431265415600774, 0.32771044616814865, 0.45236309928013896],
    [0.9196495508584394, 0.04505436126601042, 0.012243704280004663, 0.023052383595545504],
    [0.6807707369650491, 0.06196445537924827, 0.02961265826809527, 0.22765214938760742],
    [0.7180063206634373, 0.01958733219395948, 0.14381268847207623, 0.11859365867052697],
    [0.0026344994818154267, 0.0814092722215357, 0.8664768953664048, 0.049479332930244126],
    [0.05025621031806408, 0.03167751505688161, 0.8050163761751307, 0.11304989844992377],
    [0.023489607479474577, 0.10619226030694225, 0.757095896021499, 0.1132222361920843],
    [0.019588838073634353, 0.040846702583498776, 0.8520364185559169, 0.08752804078695002],
    [0.08522608185232755, 0.12534254274053516, 0.7848949512922803, 0.00453642411485708],
    [0.2119614914002625, 0.07073927133735577, 0.6902441163377016, 0.027055120924679998],
    [0.17371953597231207, 0.015491837809017873, 0.8031155376182089, 0.007673088600461105],
    [0.7739650114727643, 0.21851261834961297, 0.005678991181416332, 0.0018433789962063619],
]
_STALE_MODELS = [
    [0.27863796755130804, 0.2906262986460716, 1.041551607560982, 0.3891841262416383],
    [0.4432215064735438, 0.47149066992065153, 0.6573608012772867, 0.4279270223285179],
    [0.4923585581508156, 0.5680245645323292, 0.7067611315328033, 0.23285574578405208],
    [0.16787127240393088, 0.8464433992729861, 0.8289404377933212, 0.15674489052976187],
    [0.6162315133924139, 0.5300634875557193, 0.6831036717774119, 0.1706013272744548],
    [0.6099445353839136, 0.23406863724319865, 0.914549904874795, 0.24143692249809273],
    [0.20049400354691843, 0.6798556755151037, 0.6639088622556876, 0.45574145868229027],
    [0.09982383999496655, 0.3537746422672589, 1.357931994741301, 0.18846952299647318],
    [0.3443995062619607, 0.13254001014681827, 0.11470888067692778, 0.40835160291429323],
    [0.02967843256101355, 0.09996979964521698, 0.13852586037696688, 0.7318259074168026],
    [0.48628553925846063, 0.09881933613348698, 0.005007131198375217, 0.4098879934096771],
    [1.1278363183135094, 0.17576630248913885, 0.055191489587291975, 0.6412058896100596],
    [0.8937553402309761, 0.21835301746046165, 0.7610558351536074, 0.12683580715495463],
    [1.089616851787619, 0.1746489590242592, 0.37586937873190146, 0.3598648104562202],
    [1.771492930309965, 0.8767621442342552, 0.10554057531170499, 0.24620435014407482],
    [0.995474652954858, 0.5529964232237445, 1.8909610076530547, 0.5605679161683428],
    [2.368717027913186, 1.1216427803486, 0.9546319377547041, 0.5550082539835097],
    [1.001467573243551, 0.4054802598727356, 3.015844280947089, 0.5772078859366241],
    [2.4280650719700567, 0.9532056798429827, 2.3433915634359943, 0.2753376847509663],
    [0.3353398679937831, 0.49080653502164434, 3.407820130239465, 1.7660334667451074],
]
