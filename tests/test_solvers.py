import numpy as np
import pytest

import eqrate.solvers as solvers_mod
from eqrate import koth
from eqrate.errors import ConvergenceError, ParameterError
from eqrate.games import (
    Game,
    JointDistribution,
    ProductProfile,
    all_regrets,
    deviation_payoff,
    exploitability,
    uniform_product,
)
from eqrate.kernels import affinity_targets
from eqrate.ratings import DEFAULT_TIE_TOL, elo_ratings, rate
from eqrate.solvers import (
    CCEConfig,
    QREConfig,
    _cce_loss_alpha,
    _Contraction,
    _enum_objective_grad,
    _lle_step,
    cce_dual_logit,
    enumerate_nes,
    profile_from_dict,
    qre_best_response,
    qre_loss,
    qre_residual,
    risk_dominance_beliefs,
    solve_lle,
    solve_mre_cce,
    target_log_joint,
    uniform_targets,
)
from conftest import random_game

# toy payoffs reach -12, so approximating the infinite-temperature start
# needs a hotter initial temperature than the [-1, 1]-scale default
HOT = dict(tau_init=100.0, anneal_check_interval=50)


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
        _, gz, _, _ = _lle_step(ops, z, tau, logt)
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


def _koth_clone_game(prompts, models, clones):
    """KOTH game of seeded judge scores, with exact clones of prompt 0."""
    rng = np.random.default_rng(0)
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
            loss, _, dev, exploit = _lle_step(ops, z, tau, np.log(np.concatenate(targets)))
            profile = ops.profile(z)
            assert abs(loss - qre_loss(game, profile, tau, targets)) <= 1e-12
            for i, d in enumerate(np.split(dev, np.cumsum(game.shape)[:-1])):
                assert np.abs(d - deviation_payoff(game, profile, i)).max() <= 1e-12
            assert abs(exploit - exploitability(game, profile)) <= 1e-12


@pytest.mark.parametrize("field", ["anneal_check_interval", "max_steps"])
@pytest.mark.parametrize("value", [0, -1])
def test_qre_config_rejects_nonpositive_counts(field, value):
    with pytest.raises(ParameterError):
        QREConfig(**{field: value})


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

    def test_serialization_round_trip(self, tmp_path, rps):
        res = solve_lle(rps, QREConfig(targets=affinity_targets(rps)))
        path = tmp_path / "eq.json"
        res.save(path)
        import json

        with open(path) as fh:
            data = json.load(fh)
        prof = profile_from_dict(data)
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
            config = QREConfig(targets=affinity_targets(kg.game), anneal_check_interval=50)
            res = solve_lle(kg.game, config)
            assert res.converged and res.termination == "terminal_tau"
            reports.append(rate(kg.game, res.profile, "NE"))
            elos.append(elo_ratings(koth.prompt_average_win_matrix(kg)))
        king = reports[0].player_index("king")
        assert np.abs(reports[0].ratings[king] - reports[1].ratings[king]).max() <= DEFAULT_TIE_TOL
        assert reports[0].ranking(king) == reports[1].ranking(king)
        assert np.argsort(elos[0]).tolist() != np.argsort(elos[1]).tolist()


class TestCCE:
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
            config = CCEConfig(target_log_joint=target_log_joint(targets), epsilon_cce=1e-3)
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
        from eqrate.solvers import _CCEDual
        from scipy.special import logsumexp

        rng = np.random.default_rng(11)
        t = target_log_joint(uniform_targets(chicken))
        alphas = [rng.uniform(0.1, 2.0, size=2), rng.uniform(0.1, 2.0, size=2)]
        loss, grad = _CCEDual(chicken, t).loss_grad(np.concatenate(alphas))
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

    def test_gradient_of_enumeration_objective(self):
        game = random_game((3, 3), seed=31)
        ops = _Contraction(game)
        rng = np.random.default_rng(5)
        zs = np.stack([np.concatenate([rng.normal(size=3), rng.normal(size=3)]) for _ in range(2)])
        w = 0.37
        _, grads = _enum_objective_grad(ops, zs, w)
        h = 1e-6
        for r in range(2):
            for a in range(6):
                zp = zs.copy()
                zm = zs.copy()
                zp[r, a] += h
                zm[r, a] -= h
                vp, _ = _enum_objective_grad(ops, zp, w)
                vm, _ = _enum_objective_grad(ops, zm, w)
                fd = (vp - vm) / (2 * h)
                assert abs(fd - grads[r, a]) / max(1.0, abs(fd)) < 1e-4


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
