import itertools
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import logsumexp

import eqrate.solvers as solvers_mod
from eqrate import kernels, koth, skillsim
from eqrate.errors import ConvergenceError, DimensionError, ParameterError
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
    _arc_correct,
    _Contraction,
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
    cce_hessian,
    cce_dual_logit,
    max_entropy_pg,
    qre_best_response,
    qre_loss,
    qre_residual,
)
from conftest import fold_game, random_game, uniform_product

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


def _koth_with_clones(prompts, models, indices, seed=0, noise=0.0):
    """KOTH game of seeded judge scores, with clones of the prompts at
    ``indices`` appended in order, noised by ``noise``."""
    rng = np.random.default_rng(seed)
    names = [f"m{i}" for i in range(models)]
    records = [
        koth.PreferenceRecord(f"q{p}", names[a], names[b], float(rng.choice(koth.SCORES)))
        for p in range(prompts)
        for a in range(models)
        for b in range(a + 1, models)
    ]
    return koth.inject_clones(koth.build_koth(records), indices, noise_halfwidth=noise)


def _koth_clone_game(prompts, models, clones, seed=0):
    """KOTH game of seeded judge scores, with exact clones of prompt 0."""
    return _koth_with_clones(prompts, models, [0] * clones, seed).game


def _sweep_game(prompts, models, index, seed=1):
    """Game ``index`` of shape ``(prompts, models)`` in a seeded sweep of
    random KOTH games: ``default_rng(seed)`` draws 150 king tensors of each
    shape (20, 6), (10, 4), (30, 8), (8, 3) and (40, 5) in turn, and each is
    antisymmetrised per prompt."""
    rng = np.random.default_rng(seed)
    for shape in [(20, 6), (10, 4), (30, 8), (8, 3), (40, 5)]:
        for k in range(150):
            u = rng.choice(koth.SCORES, (shape[0], shape[1], shape[1]))
            if shape == (prompts, models) and k == index:
                u = (u - u.transpose(0, 2, 1)) / 2
                names = ([f"q{p}" for p in range(prompts)], [f"m{m}" for m in range(models)])
                return koth._koth_game(u, *names, (None,) * prompts).game
    raise ValueError(f"no game {index} of shape {(prompts, models)}")


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
            # the border (e_lambda, 0) fixes lambda: J d = -f
            d = _newton_direction(ops, f, x, br, tau, (ops.fixed_tau, 0.0))
            assert d[-1] == 0.0
            assert np.abs(jac @ d[:-1] + f).max() <= 1e-6 * np.abs(f).max()
            # the trace's bordered system in (y, lambda = 1/tau), with a
            # random last row
            lam = 1.0 / tau
            plus = _qre_residual(ops, y, 1.0 / (lam + h), logt)[0]
            minus = _qre_residual(ops, y, 1.0 / (lam - h), logt)[0]
            d_lam = (plus - minus) / (2 * h)
            f, x, br = _qre_residual(ops, y, tau, logt)
            t, q = rng.normal(size=y.size + 1), float(rng.normal())
            de = _newton_direction(ops, f, x, br, tau, (t, q))
            scale = max(np.abs(f).max(), abs(q))
            assert np.abs(jac @ de[:-1] + d_lam * de[-1] + f).max() <= 1e-6 * scale
            assert abs(t @ de + q) <= 1e-9 * scale

    @staticmethod
    def dense_bordered(game, y, tau, logt, t, q):
        """The bordered system ``[[J, c], [t^T]]`` and its right-hand side
        ``-[f; q]``, built densely from the payoff tensors at x = e^y."""
        n, offsets = game.num_players, np.cumsum([0, *game.shape])
        x = np.exp(y)
        xs = np.split(x, offsets[1:-1])
        segment = [slice(a, b) for a, b in zip(offsets[:-1], offsets[1:])]

        def contract(i, keep):
            out = game.utilities[i]
            for k in reversed(range(n)):
                if k not in keep:
                    out = np.tensordot(out, xs[k], axes=(k, 0))
            return out

        pairs, dev = np.zeros((x.size, x.size)), np.empty(x.size)
        for i in range(n):
            dev[segment[i]] = contract(i, (i,))
            for j in range(n):
                if j != i:
                    block = contract(i, (i, j))
                    pairs[segment[i], segment[j]] = block if i < j else block.T
        v = dev / tau + logt
        br = np.concatenate([np.exp(p - logsumexp(p)) for p in np.split(v, offsets[1:-1])])
        pull = np.zeros((x.size, x.size))
        for seg in segment:
            pull[seg, seg] = np.eye(seg.stop - seg.start) - br[seg][None, :]
        dense = np.zeros((x.size + 1, x.size + 1))
        dense[:-1, :-1] = np.eye(x.size) - pull @ pairs * (x / tau)
        dense[:-1, -1] = -pull @ dev
        dense[-1] = t
        return dense, -np.append(y - np.log(br), q)

    @pytest.mark.parametrize("shape", [(2, 5, 3), (6, 3, 3), (3, 4)])
    def test_matches_the_dense_bordered_solve(self, shape):
        # (2, 5, 3) eliminates a player in the middle, (6, 3, 3) the first
        game = random_game(shape, seed=41)
        rng = np.random.default_rng(7)
        ops = _Contraction(game)
        for _ in range(3):
            logt = np.log(np.concatenate([rng.dirichlet(np.ones(n)) for n in shape]))
            tau = float(rng.uniform(0.1, 2.0))
            y = rng.normal(scale=1.5, size=sum(shape))
            t, q = rng.normal(size=y.size + 1), float(rng.normal())
            dense, rhs = self.dense_bordered(game, y, tau, logt, t, q)
            f, x, br = _qre_residual(ops, y, tau, logt)
            assert np.abs(f + rhs[:-1]).max() <= 1e-12
            want = np.linalg.solve(dense, rhs)
            got = _newton_direction(ops, f, x, br, tau, (t, q))
            assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())
            # the border (e_lambda, 0) fixes lambda: J d = -f
            want = np.linalg.solve(dense[:-1, :-1], rhs[:-1])
            got = _newton_direction(ops, f, x, br, tau, (ops.fixed_tau, 0.0))
            assert got.shape == (want.size + 1,) and got[-1] == 0.0
            assert np.abs(got[:-1] - want).max() <= 1e-10 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("field", ["max_steps"])
@pytest.mark.parametrize("value", [0, -1])
def test_qre_config_rejects_nonpositive_counts(field, value):
    with pytest.raises(ParameterError):
        QREConfig(**{field: value})


@pytest.mark.parametrize(
    "config, field",
    [(QREConfig, "tau_terminal"), (QREConfig, "epsilon_ne"), (CCEConfig, "epsilon_cce")],
)
def test_configs_reject_nan(config, field):
    with pytest.raises(ParameterError, match=field):
        config(**{field: float("nan")})


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
def test_qre_config_needs_a_positive_finite_terminal_temperature(value):
    with pytest.raises(ParameterError, match="tau_terminal must be positive and finite"):
        QREConfig(tau_terminal=value)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_solvers_reject_non_finite_targets(rps, bad):
    targets = (np.array([bad, 0.5, 0.5]), np.full(3, 1 / 3))
    with pytest.raises(ParameterError, match="finite"):
        solve_lle(rps, QREConfig(targets=targets))
    with pytest.raises(ParameterError, match="finite"):
        solve_mre_cce(rps, CCEConfig(targets=targets))


@pytest.mark.parametrize(
    "targets, error, message",
    [
        ((np.full(3, 1 / 3),), DimensionError, "one target distribution per player"),
        ((np.full(3, 1 / 3), np.full(2, 1 / 2)), DimensionError, "target 1 has wrong length"),
        ((np.full(3, 1 / 3), np.full(3, 0.3)), ParameterError, "target 1 must be a distribution"),
    ],
    ids=["count", "length", "sum"],
)
def test_solvers_reject_targets_that_do_not_fit(rps, targets, error, message):
    with pytest.raises(error, match=message):
        solve_lle(rps, QREConfig(targets=targets))
    with pytest.raises(error, match=message):
        solve_mre_cce(rps, CCEConfig(targets=targets))


def test_solve_calls_each_method_solver_by_its_module_name(monkeypatch, chicken):
    # a wrapper set on the module attribute sees the solve, as the bench's does
    calls = []
    for name in ("solve_lle", "solve_mre_cce"):
        real = getattr(solvers_mod, name)
        monkeypatch.setattr(solvers_mod, name, lambda g, c, _f=real, _n=name: calls.append((_n, g, c)) or _f(g, c))
    targets = uniform_targets(chicken)
    ne = solvers_mod.solve(chicken, "ne", targets, epsilon_ne=0.0)
    cce = solvers_mod.solve(chicken, "cce", targets, max_steps=500)
    assert [(name, type(config)) for name, _, config in calls] == [("solve_lle", QREConfig), ("solve_mre_cce", CCEConfig)]
    # a game without duplicate actions reaches the solver as it is
    assert all(game is chicken and config.targets is targets for _, game, config in calls)
    assert ne.config == {
        "tau_terminal": QREConfig.tau_terminal,
        "epsilon_ne": 0.0,
        "max_steps": QREConfig.max_steps,
    }
    assert cce.config == {"max_steps": 500, "epsilon_cce": CCEConfig.epsilon_cce}


@pytest.mark.parametrize("config", [QREConfig, CCEConfig])
@pytest.mark.parametrize("value", [float("nan"), 2.5, True])
def test_configs_reject_a_max_steps_that_is_not_a_count(config, value):
    with pytest.raises(ParameterError, match="max_steps"):
        config(max_steps=value)


def _solved_games(monkeypatch):
    """Every game the two solvers receive through their module names."""
    seen = []
    for name in ("solve_lle", "solve_mre_cce"):
        real = getattr(solvers_mod, name)
        monkeypatch.setattr(solvers_mod, name, lambda g, c, _f=real: seen.append(g) or _f(g, c))
    return seen


class TestQuotient:
    """``solvers.solve`` solves a game with exact duplicate actions on its
    quotient and expands the result: it matches the solver's own result on
    the full game."""

    @staticmethod
    def assert_matches_full_solve(game, method, targets, got):
        solver = solve_lle if method == "ne" else solve_mre_cce
        want = solver(game, solvers_mod.SOLVER_CONFIGS[method](targets=targets))
        if method == "ne":
            for a, b in zip(got.profile.marginals, want.profile.marginals):
                assert np.abs(a - b).max() <= 1e-10
        else:
            assert np.abs(got.profile.joint - want.profile.joint).max() <= 1e-10
        assert abs(got.exploitability - want.exploitability) <= 1e-10
        for a, b in zip(got.targets, want.targets):
            assert np.array_equal(a, b)
        got_report, want_report = rate(game, got.profile, "X"), rate(game, want.profile, "X")
        for a, b in zip(got_report.ratings, want_report.ratings):
            assert np.abs(a - b).max() <= 1e-10
        for a, b in zip(got_report.ranks, want_report.ranks):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("method", ["ne", "cce"])
    @pytest.mark.parametrize("entropy", ["affinity", "uniform"])
    def test_prompt_clones_are_solved_on_the_quotient(self, monkeypatch, method, entropy):
        # 12 prompts and 7 clones of four of them; the game's last row is one
        game = _koth_with_clones(12, 4, [3, 0, 7, 3, 11, 0, 3], seed=1).game
        targets = affinity_targets(game) if entropy == "affinity" else uniform_targets(game)
        seen = _solved_games(monkeypatch)
        got = solvers_mod.solve(game, method, targets)
        assert [g.shape for g in seen] == [(12, 4, 4)]
        assert seen[0].action_labels == (game.action_labels[0][:12], *game.action_labels[1:])
        monkeypatch.undo()
        self.assert_matches_full_solve(game, method, targets, got)

    @pytest.mark.parametrize("method", ["ne", "cce"])
    @pytest.mark.parametrize("players", [(1,), (1, 2)])
    def test_duplicates_of_any_player_are_merged(self, monkeypatch, method, players):
        base = random_game((3, 4, 3), seed=5, scale=0.5)
        copies = {1: [0, 1, 2, 1, 3, 1], 2: [2, 0, 1, 2]}
        index = [copies[i] if i in players else list(range(n)) for i, n in enumerate(base.shape)]
        game = Game(
            base.players,
            tuple(tuple(f"{base.action_labels[i][a]}#{k}" for k, a in enumerate(ix)) for i, ix in enumerate(index)),
            tuple(u[np.ix_(*index)] for u in base.utilities),
        )
        firsts = solvers_mod._duplicate_classes(game)
        assert firsts[0].tolist() == [0, 1, 2]
        assert firsts[1].tolist() == ([0, 1, 2, 1, 4, 1] if 1 in players else [0, 1, 2, 3])
        assert firsts[2].tolist() == ([0, 1, 2, 0] if 2 in players else [0, 1, 2])
        targets = affinity_targets(game)
        seen = _solved_games(monkeypatch)
        got = solvers_mod.solve(game, method, targets)
        assert [g.shape for g in seen] == [base.shape]
        monkeypatch.undo()
        self.assert_matches_full_solve(game, method, targets, got)

    def test_slices_apart_only_by_the_sign_of_a_zero_are_merged(self):
        base = random_game((4, 3), seed=2)
        labels = (base.action_labels[0] + ("copy",), base.action_labels[1])
        utilities = [np.vstack([u, u[1]]) for u in base.utilities]
        for u in utilities:
            u[1, 0], u[4, 0] = 0.0, -0.0
        game = Game(base.players, labels, tuple(utilities))
        assert np.signbit(game.utilities[0][4, 0]) and not np.signbit(game.utilities[0][1, 0])
        assert solvers_mod._duplicate_classes(game)[0].tolist() == [0, 1, 2, 3, 1]

    @pytest.mark.parametrize("other", [0, 2])
    def test_a_copy_that_differs_in_another_players_tensor_is_not_merged(self, other):
        # player 1's action 4 copies action 1 in player 1's own tensor only
        base = random_game((3, 4, 3), seed=5, scale=0.5)
        labels = list(base.action_labels)
        labels[1] = (*labels[1], "copy")
        utilities = [np.concatenate([u, u[:, 1:2]], axis=1) for u in base.utilities]
        utilities[other][2, 4, 1] += 0.25
        game = Game(base.players, tuple(labels), tuple(utilities))
        assert np.array_equal(game.utilities[1][:, 1], game.utilities[1][:, 4])
        assert solvers_mod._duplicate_classes(game) is None

    @pytest.mark.parametrize("case", ["model-copy", "noised-clone"])
    def test_near_duplicates_are_not_merged(self, monkeypatch, case):
        if case == "model-copy":
            # a copy of model 1: the king's slices of the two are equal, but
            # the rebel gets -1 only against the king's own model
            kg = _koth_with_clones(12, 4, [], seed=1)
            m = len(kg.models)
            idx = [*range(m), 1]
            u_k = kg.u_king[:, idx][:, :, idx]
            u_k[:, 1, m] = u_k[:, m, 1] = 0.0
            game = koth._koth_game(u_k, kg.prompts, [*kg.models, "m1_copy"], kg.clone_sources).game
            assert np.array_equal(game.utilities[1][:, 1], game.utilities[1][:, m])
        else:
            game = _koth_with_clones(12, 4, [3, 0], seed=1, noise=0.1).game
        assert solvers_mod._duplicate_classes(game) is None
        seen = _solved_games(monkeypatch)
        solvers_mod.solve(game, "ne", affinity_targets(game))
        assert len(seen) == 1 and seen[0] is game

    @pytest.mark.parametrize("method", ["ne", "cce"])
    @pytest.mark.parametrize("name", ["rps", "rps_dup_rock"])
    def test_missing_targets_are_rejected(self, request, method, name):
        # the game with a duplicate row once raised TypeError on its quotient
        with pytest.raises(ParameterError, match="targets"):
            solvers_mod.solve(request.getfixturevalue(name), method, None)

    @pytest.mark.parametrize("method", ["ne", "cce"])
    def test_a_raised_iterate_is_expanded_to_the_full_game(self, method):
        game = _koth_with_clones(12, 4, [3, 0, 7, 3], seed=1).game
        with pytest.raises(ConvergenceError) as info:
            solvers_mod.solve(game, method, uniform_targets(game), max_steps=1)
        iterate = info.value.iterate
        if method == "ne":
            assert tuple(x.size for x in iterate.marginals) == game.shape
            # uniform targets split each class evenly
            prompts = iterate.marginals[0]
            assert prompts[12] == prompts[3] == prompts[15] and prompts[13] == prompts[0]
        else:
            assert iterate.joint.shape == game.shape
        # the skill-world rater rates with it
        assert [r.size for r in all_regrets(game, iterate)] == list(game.shape)

    def test_a_saved_cce_of_a_clone_game_rebuilds_bit_for_bit(self, tmp_path):
        game = _koth_with_clones(12, 4, [3, 0, 7, 3], seed=1).game
        res = solvers_mod.solve(game, "cce", affinity_targets(game))
        # each class's multiplier sits on its first member
        assert not np.any(res.duals[0][12:])
        path = tmp_path / "cce.json"
        res.save(path)
        with open(path) as fh:
            data = json.load(fh)
        assert data["profile"]["shape"] == list(game.shape)
        assert np.array_equal(profile_from_dict(data, game).joint, res.profile.joint)


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
        res = solve_lle(chicken, QREConfig(targets=uniform_targets(chicken)))
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
            config = QREConfig(targets=targets, epsilon_ne=0.0)
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
        config = QREConfig(targets=uniform_targets(chicken), max_steps=5)
        with pytest.raises(ConvergenceError) as exc:
            solve_lle(chicken, config)
        assert exc.value.trace is not None
        assert isinstance(exc.value.iterate, ProductProfile)

    @pytest.mark.parametrize(
        "case",
        ["fold", "3x3_18", "3x3_12", *(f"4x4_11_draw{k}" for k in (0, 7, 8, 10, 12, 14)), "koth_12x5_7"],
    )
    def test_detour_passes_a_stalled_temperature(self, case):
        # a trace over a temperature grid stalls on each of these games,
        # and the arclength trace passes: the fold game's branch turns
        # steeply between tau 0.122 and 0.116 (the Jacobian's smallest
        # singular value dips to 6.5e-3 near tau 0.1185); random_game((3,
        # 3), 18) folds back in lambda near 2.76 and 16.9, and
        # random_game((3, 3), 12) below tau 1e-2; the random_game((4, 4), 11)
        # priors of default_rng(0) stall a grid between tau 0.104 and 0.056;
        # the 12x5 KOTH game lost its branch at tau 0.085 on a grid whose
        # detour started from a loosely solved point.  Each ends within
        # 1e-15 of a tau_decay=0.99 grid trace's profile.
        config = QREConfig(epsilon_ne=0.0)
        if case == "fold":
            game = fold_game()
        elif case == "koth_12x5_7":
            game = _koth_clone_game(12, 5, 0, seed=7)
        elif case.startswith("3x3"):
            game = random_game((3, 3), int(case[4:]))
            if case == "3x3_12":
                config = replace(config, tau_terminal=1e-3)
        else:
            game = random_game((4, 4), 11)
            rng = np.random.default_rng(0)
            draws = [tuple(rng.dirichlet(np.ones(n)) for n in game.shape) for _ in range(16)]
            config = replace(config, targets=draws[int(case[11:])], tau_terminal=1e-3)
        start = time.perf_counter()
        res = solve_lle(game, config)
        assert time.perf_counter() - start < 1.0
        assert res.converged and res.termination == "terminal_tau"
        assert res.trace[-1].tau == config.tau_terminal
        assert qre_residual(game, res.profile, config.tau_terminal, res.targets) <= 1e-10
        assert res.restarts == res.to_dict()["restarts"] == 0
        if case.startswith("3x3"):
            # the accepted points pass the folds: lambda falls between some
            taus = [r.tau for r in res.trace[1:-1]]
            assert any(b > a for a, b in zip(taus, taus[1:]))

    @pytest.mark.parametrize(
        "shape, index",
        [((20, 6), 19), ((20, 6), 52), ((30, 8), 92), ((40, 5), 6), ((20, 6), 92)],
        ids=["20x6_19", "20x6_52", "30x8_92", "40x5_6", "20x6_92"],
    )
    def test_sweep_games_end_on_the_fine_grid_branch(self, shape, index):
        # games of the seeded sweep of random KOTH games (_sweep_game) that
        # a tau_decay=0.95 grid trace with arclength detours got wrong:
        # 20x6 #19 and #52 ended 0.33 and 0.41 (max-abs marginal) from a
        # finer grid's profile, on another branch; 30x8 #92 spent all
        # 200,000 Newton iterations in 19 s, and 40x5 #6 raised.  20x6 #92
        # folds sharply near lambda 77.8, where a trace whose corrector
        # tolerance does not tighten with its failed steps raises.  The
        # pinned marginals are a tau_decay=0.99 grid trace's, at default
        # settings
        game = _sweep_game(*shape, index)
        start = time.perf_counter()
        res = solvers_mod.solve(game, "ne", affinity_targets(game))
        assert time.perf_counter() - start < 1.0
        assert res.termination == "terminal_tau"
        for got, want in zip(res.profile.marginals, _SWEEP_FINE_GRID[f"{shape[0]}x{shape[1]}_{index}"], strict=True):
            assert np.abs(got - want).max() <= 1e-9

    def test_a_failed_step_solves_its_start_point_on(self, monkeypatch):
        # a prior of a 12x4 KOTH game traced to tau 1e-3, as enumerate_nes
        # does: near lambda 517 a point accepted at ARC_TOL lies too far off
        # the branch for any shorter step's corrector to converge, and the
        # trace raised; solved on to NEWTON_TOL once a step from it fails,
        # it does not.  The trace ends where one that corrects every point
        # to NEWTON_TOL ends
        game = _koth_clone_game(12, 4, 0, seed=3)
        rng = np.random.default_rng(0)
        draws = [tuple(rng.dirichlet(np.ones(n)) for n in game.shape) for _ in range(5)]
        config = QREConfig(targets=draws[4], epsilon_ne=0.0, tau_terminal=1e-3)
        res = solve_lle(game, config)
        assert res.termination == "terminal_tau"
        monkeypatch.setattr(solvers_mod, "ARC_TOL", solvers_mod.NEWTON_TOL)
        monkeypatch.setattr(solvers_mod, "ARC_PREDICT_TOL", 1e-3)
        tight = solve_lle(game, config)
        for a, b in zip(res.profile.marginals, tight.profile.marginals):
            assert np.abs(a - b).max() <= 1e-10

    def test_the_trace_keeps_the_branch_where_every_grid_jumps(self):
        # game (10, 4) #121 of the sweep: temperature grids of factor 0.95,
        # 0.99, 0.995 and 0.999 all end 0.60 (max-abs marginal) from the
        # branch's end, jumping sheets near tau 0.078 where the branch turns
        # fast but smoothly (the smallest singular value of the Jacobian in
        # y dips only to 9.8e-3).  A step whose prediction misses by much is
        # retried shorter, and the trace ends where one at ARC_TOL 1e-10 and
        # ARC_PREDICT_TOL 1e-4 does; those marginals are pinned
        game = _sweep_game(10, 4, 121)
        res = solvers_mod.solve(game, "ne", affinity_targets(game))
        assert res.termination == "terminal_tau"
        want = [
            [0.0, 9.087e-08, 0.33702453719, 1e-11, 1.9e-10, 0.66265373039, 0.00031478882, 6.85197e-06, 0.0, 5.7e-10],
            [0.41594169567, 0.51951157842, 0.06454672591, 0.0],
            [0.1597864814, 6e-11, 0.20343941444, 0.6367741041],
        ]
        for got, w in zip(res.profile.marginals, want, strict=True):
            assert np.abs(got - w).max() <= 1e-9

    def test_the_first_step_follows_the_exact_tangent(self, monkeypatch):
        # at lambda 0 the branch is the target profile t, and its tangent is
        # (the regrets at t, 1): the first prediction lies along it
        game = random_game((3, 4, 2), 5)
        targets = affinity_targets(game)
        calls, real = [], solvers_mod._qre_residual
        monkeypatch.setattr(
            solvers_mod, "_qre_residual", lambda ops, y, tau, logt: calls.append((y.copy(), tau)) or real(ops, y, tau, logt)
        )
        solve_lle(game, QREConfig(targets=targets, epsilon_ne=0.0))
        # unit in the trace's metric: log-marginals weighted by their targets
        regrets = np.concatenate(all_regrets(game, ProductProfile(targets)))
        metric = np.append(np.concatenate(targets), solvers_mod.ARC_LAMBDA_WEIGHT)
        tangent = np.append(regrets, 1.0)
        tangent /= math.sqrt(metric @ tangent**2)
        y, tau = calls[0]
        step = solvers_mod.ARC_FIRST_STEP
        assert 1.0 / tau == pytest.approx(step * tangent[-1], rel=1e-12)
        assert np.abs(y - (np.log(np.concatenate(targets)) + step * tangent[:-1])).max() <= 1e-12

    def test_fold_raises_fast(self):
        # the fold game's trace reaches the steep turn after about 22 Newton
        # iterations and leaves it after 35, of 68 in all; with 30 it must
        # stop at the cap there and raise, not overrun it
        config = QREConfig(max_steps=30)
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="all 30 Newton iterations spent") as exc:
            solve_lle(fold_game(), config)
        assert time.perf_counter() - start < 1.0
        assert isinstance(exc.value.iterate, ProductProfile)
        assert exc.value.trace[-1].step == config.max_steps
        assert 0.115 < exc.value.trace[-1].tau < 0.122

    @pytest.mark.parametrize("case", ["fold", "3x3_18"])
    def test_every_newton_solve_counts_against_the_budget(self, case, monkeypatch):
        # the bordered corrector's and the last temperature's Newton
        # iterations alike, on rejected steps too.  The fold game's trace
        # takes 68; random_game((3, 3), 18)'s 146, with folds from step 34
        # to 120, and every third cap over them is tried
        if case == "fold":
            game, caps = fold_game(), range(1, 68, 6)
        else:
            game, caps = random_game((3, 3), 18), range(30, 146, 3)
        real, calls = solvers_mod._newton_direction, []

        def spy(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(solvers_mod, "_newton_direction", spy)
        res = solve_lle(game, QREConfig(epsilon_ne=0.0))
        assert res.termination == "terminal_tau"
        assert len(calls) == res.trace[-1].step > caps[-1]
        for cap in caps:
            calls.clear()
            with pytest.raises(ConvergenceError, match=f"all {cap} Newton iterations spent") as exc:
                solve_lle(game, QREConfig(epsilon_ne=0.0, max_steps=cap))
            assert len(calls) == exc.value.trace[-1].step == cap

    def test_overflowing_prediction_is_not_a_solved_temperature(self):
        # a prediction of a grid trace of this game, at tau 0.090 after a
        # detour, overflowed e^y; its residual is nan, which once
        # passed the corrector's test with no iteration, and the trace went
        # on to return a pure profile at exploitability 2.5 with nan records
        game = _koth_clone_game(12, 5, 0, seed=20)
        res = solve_lle(game, QREConfig(epsilon_ne=0.0))
        assert res.termination == "terminal_tau"
        assert all(np.isfinite([r.loss, r.exploitability]).all() for r in res.trace)
        assert res.exploitability == pytest.approx(8.54e-3, abs=1e-5)
        assert res.exploitability == pytest.approx(exploitability(game, res.profile), abs=1e-12)
        assert qre_residual(game, res.profile, 1e-2, res.targets) <= 1e-10

    def test_corrector_rejects_a_non_finite_start(self):
        # its residual is NaN, which fails the tolerance with no iteration;
        # solve_lle runs every correction in this errstate
        game = random_game((3, 3), 0)
        ops, logt = _Contraction(game), np.log(np.full(6, 1 / 3))
        w = np.append(np.full(6, 800.0), 2.0)  # e^800 overflows
        with np.errstate(over="ignore", invalid="ignore"):
            for cap in (0, 30):
                out_w, _, _, res, its = _arc_correct(ops, w, ops.fixed_tau, logt, solvers_mod.NEWTON_TOL, cap)
                assert its == 0 and math.isnan(res)
                assert out_w is w

    def test_lands_on_a_terminal_temperature_that_1_over_lambda_misses(self):
        # 1 / (1 / 0.013) is one ulp off 0.013: the landing corrects at that
        # tau, but the record and its exact gap keep the configured one
        assert 1.0 / (1.0 / 0.013) != 0.013
        game = _koth_clone_game(12, 4, 3)
        res = solve_lle(game, QREConfig(epsilon_ne=0.0, tau_terminal=0.013))
        assert res.termination == "terminal_tau"
        assert res.trace[-1].tau == res.trace[-2].tau == 0.013
        assert qre_residual(game, res.profile, 0.013, res.targets) <= 1e-10

    def test_rejected_prediction_reruns_from_last_solution(self, monkeypatch):
        # the folds of random_game((3, 3), 18) reject some steps: each is
        # predicted again from the same last accepted point, at half the
        # step
        real, calls = solvers_mod._extrapolate, []

        def spy(points, s):
            calls.append((points[-1][0], s))
            return real(points, s)

        monkeypatch.setattr(solvers_mod, "_extrapolate", spy)
        res = solve_lle(random_game((3, 3), 18), QREConfig(epsilon_ne=0.0))
        assert res.termination == "terminal_tau"
        reruns = [(a, b) for a, b in zip(calls, calls[1:]) if a[0] == b[0]]
        assert reruns
        for (s, first), (_, second) in reruns:
            assert second - s == pytest.approx((first - s) / 2, rel=1e-9)

    def test_a_singular_newton_system_fails_the_step(self, monkeypatch):
        # LAPACK reports the corrector's fifth system singular: that step
        # fails, is retried at half the length, and the trace ends where it
        # would have.  A singular system once escaped as LinAlgError
        game = fold_game()
        config = QREConfig(epsilon_ne=0.0)
        want = solve_lle(game, config)
        real, calls = solvers_mod.lapack.dgesv, []

        def singular_fifth(a, b, **kwargs):
            calls.append(None)
            out = real(a, b, **kwargs)
            return (*out[:3], 1) if len(calls) == 5 else out

        monkeypatch.setattr(solvers_mod.lapack, "dgesv", singular_fifth)
        res = solve_lle(game, config)
        assert len(calls) > 5 and res.termination == "terminal_tau"
        assert res.trace[-1].step > want.trace[-1].step
        for a, b in zip(res.profile.marginals, want.profile.marginals):
            assert np.abs(a - b).max() <= 1e-10

    def test_predictor_passes_a_corrector_stall(self):
        # a grid trace from each last solution stalls at tau 0.277, but the
        # Jacobian's smallest singular value there dips only to 2.1e-2 (at
        # tau 0.287, on a 0.995 grid): the branch goes on, the start was
        # outside the corrector's basin
        game = random_game((6, 3, 3), 19)
        for tau_terminal in (1e-2, 1e-3):
            config = QREConfig(epsilon_ne=0.0, tau_terminal=tau_terminal)
            res = solve_lle(game, config)
            assert res.termination == "terminal_tau"
            assert qre_residual(game, res.profile, tau_terminal, res.targets) <= 1e-9

    def test_predictor_cuts_newton_steps(self):
        # 286 Newton iterations over 91 grid temperatures from each last
        # solution; the arclength trace takes 50
        game = _koth_clone_game(8, 4, 0)
        res = solve_lle(game, QREConfig(epsilon_ne=0.0))
        assert res.termination == "terminal_tau"
        assert res.trace[-1].step <= 100

    def test_final_record_repeats_the_last_temperature(self, chicken):
        config = QREConfig(targets=uniform_targets(chicken), epsilon_ne=0.0)
        res = solve_lle(chicken, config)
        assert res.trace[-1] == res.trace[-2]
        assert res.exploitability == res.trace[-1].exploitability
        assert res.exploitability == pytest.approx(exploitability(chicken, res.profile), abs=1e-12)

    @pytest.mark.parametrize("epsilon_ne", [0.0, 1e-3, 10.0])
    def test_regrets_are_taken_at_the_returned_profile(self, chicken, epsilon_ne):
        # from the final exact record's contraction: at tau_terminal, at an
        # early exit, or at the start (every profile is within 10)
        res = solve_lle(chicken, QREConfig(targets=affinity_targets(chicken), epsilon_ne=epsilon_ne))
        assert len(res.trace) == 2 if epsilon_ne == 10.0 else len(res.trace) > 2
        for got, want in zip(res.regrets, all_regrets(chicken, res.profile), strict=True):
            assert np.abs(got - want).max() <= 1e-12
        # the same contraction as the final record's exploitability
        assert sum(max(float(r.max()), 0.0) for r in res.regrets) == res.exploitability
        assert "regrets" not in res.to_dict()

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
            chicken, QREConfig(targets=affinity_targets(chicken))
        )
        dup = solve_lle(
            chicken_dup_straight,
            QREConfig(targets=affinity_targets(chicken_dup_straight)),
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
        base = solve_lle(chicken, QREConfig(targets=uniform_targets(chicken)))
        dup = solve_lle(
            chicken_dup_straight,
            QREConfig(targets=uniform_targets(chicken_dup_straight)),
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
    descent traced (``tests/adam_lle.py``), whose own spread between initial
    temperatures 1 and 100 is up to 4e-4 on these games."""

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
        # the joint itself, a format no solve writes, is an unknown type
        legacy = {
            **data,
            "targets": None,
            "profile": {
                "type": "joint",
                "joint": res.profile.joint.ravel().tolist(),
                "shape": list(game.shape),
            },
        }
        with pytest.raises(ParameterError, match="holds a profile of type product, cce_dual with its keys"):
            profile_from_dict(legacy, game)

    @pytest.mark.parametrize("route", ["direct", "quotient", "file"])
    def test_exploitability_comes_from_the_dual_evaluation(self, route):
        # the reported exploitability is the gap of the regrets that the
        # joint was built with, not of one more pass over the joint; on
        # these games the two differ in the last bits
        game = _koth_clone_game(12, 4, 3) if route == "quotient" else _koth_clone_game(8, 4, 0)
        targets = affinity_targets(game)
        if route == "quotient":
            assert solvers_mod._duplicate_classes(game) is not None
            res = solvers_mod.solve(game, "cce", targets)
        else:
            res = solve_mre_cce(game, CCEConfig(targets=targets))
        assert res.exploitability == sum(max(float(r.max()), 0.0) for r in res.regrets)
        profile = res.profile
        if route == "file":
            data = json.loads(json.dumps(res.to_dict()))
            assert "regrets" not in data
            # the rebuild's check takes the same evaluation's gap, so the
            # reported exploitability is itself within the bound
            data["config"]["epsilon_cce"] = res.exploitability
            profile = profile_from_dict(data, game)
            assert np.array_equal(profile.joint, res.profile.joint)
        assert abs(res.exploitability - exploitability(game, profile)) <= 1e-14
        for got, want in zip(res.regrets, all_regrets(game, profile)):
            assert np.abs(got - want).max() <= 1e-14

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

    def test_stored_multipliers_rejected_unless_finite_and_nonnegative(self, chicken):
        # without a config there is no bound, yet a NaN joint is no CCE
        data = {k: v for k, v in solve_mre_cce(chicken).to_dict().items() if k != "config"}
        (swerve, straight), other = data["profile"]["duals"]

        def stored(duals):
            return profile_from_dict({**data, "profile": {**data["profile"], "duals": [duals, other]}}, chicken)

        for duals, message in (
            ([swerve], "one multiplier per player and action"),
            ([float("nan"), straight], "NaN"),
            ([swerve, -1e-3], "negative"),
            ([swerve, float("inf")], "infinite"),
            # finite, but the logit overflows and the joint is NaN
            ([swerve, 1e308], "exploitability nan"),
        ):
            with pytest.raises(ParameterError, match=message):
                stored(duals)
        # the logit overflows to -inf only off one cell: the joint is the pure
        # profile (straight, swerve), an exact CCE
        joint = stored([1e308, straight]).joint
        assert joint.tolist() == [[0.0, 0.0], [1.0, 0.0]]

    def test_stored_profile_missing_a_key_rejected(self, chicken):
        # each once raised KeyError
        ne = solve_lle(chicken).to_dict()
        res = solve_mre_cce(chicken)
        cce = res.to_dict()
        # a joint profile, whole or without its joint key, is of no known type
        joint = {**cce, "profile": {"type": "joint", "joint": res.profile.joint.ravel().tolist(), "shape": [2, 2]}}
        no_profile = {k: v for k, v in ne.items() if k != "profile"}
        no_marginals = {**ne, "profile": {"type": "product"}}
        no_targets = {k: v for k, v in cce.items() if k != "targets"}
        no_joint = {**joint, "profile": {"type": "joint", "shape": [2, 2]}}
        for bad in (joint, no_profile, no_marginals, no_targets, no_joint):
            with pytest.raises(ParameterError, match="holds a profile of type product, cce_dual with its keys"):
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

    @pytest.mark.parametrize(
        "shape", [(3,), (1, 4), (4, 1, 3), (3, 4, 2), (2, 3, 2, 2), "koth"], ids=str
    )
    @pytest.mark.parametrize("cells", [1, 7, 2**15])
    @pytest.mark.parametrize("rows", ["others", "player_0", "one", "all"])
    def test_hessian_matches_gain_rows(self, shape, cells, rows, monkeypatch):
        # player 0's rows come from sums over its axis, the others' from
        # gain rows; "one" is the middle index, of player 0 on (3,) and the
        # KOTH game and of player 1 on the rest
        monkeypatch.setattr(solvers_mod, "CCE_HESSIAN_CELLS", cells)
        game = _koth_clone_game(12, 4, 3) if shape == "koth" else random_game(shape, seed=5)
        rng = np.random.default_rng(17)
        dual = _CCEDual(game, tuple(rng.dirichlet(np.ones(n)) for n in game.shape))
        flat = rng.uniform(0.0, 1.0, sum(game.shape))
        _, joint, regrets = dual.evaluate(flat)
        n0 = game.shape[0]
        free = {
            "others": np.arange(n0, flat.size),
            "player_0": np.arange(n0),
            "one": np.array([flat.size // 2]),
            "all": np.arange(flat.size),
        }[rows]
        regrets = np.concatenate(regrets)[free]
        hess = dual.hessian(free, regrets)
        scale = max(np.abs(u).max() for u in game.utilities) ** 2
        # a one-player game has no other rows: the Hessian is empty
        assert hess.shape == (free.size, free.size)
        err = np.abs(hess - cce_hessian(game, joint, free, regrets)).max(initial=0.0)
        assert err <= 1e-13 * scale

    @pytest.mark.parametrize("cells", [7, 2**15])
    def test_hessian_ignores_an_offset_of_player_0_payoffs(self, cells, monkeypatch):
        # an offset leaves every gain row as it is; built from player 0's
        # payoffs without their mean given the other players' actions, its
        # rows' second moments cancel terms of the offset's square, and the
        # Hessian is off by about 5e-8
        monkeypatch.setattr(solvers_mod, "CCE_HESSIAN_CELLS", cells)
        base = random_game((6, 3, 4), seed=8)
        game = replace(base, utilities=(base.utilities[0] + 1e4, *base.utilities[1:]))
        rng = np.random.default_rng(3)
        targets = tuple(rng.dirichlet(np.ones(n)) for n in game.shape)
        free = np.arange(sum(game.shape))
        flat = rng.uniform(0.0, 1.0, free.size)
        dual = _CCEDual(game, targets)
        _, joint, regrets = dual.evaluate(flat)
        regrets = np.concatenate(regrets)
        hess = dual.hessian(free, regrets)
        scale = max(np.abs(u).max() for u in base.utilities) ** 2
        assert np.abs(hess - cce_hessian(game, joint, free, regrets)).max() <= 1e-13 * scale

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
            lle_config=QREConfig(targets=uniform_targets(chicken)),
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
            lle_config=QREConfig(targets=uniform_targets(chicken)),
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
            lle_config=QREConfig(targets=uniform_targets(chicken)),
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
        # 8 of this game's priors stall a temperature grid at a fold of
        # their branch; the arclength trace passes every fold, so none
        # stalls, and the equilibria reached are polished
        game = random_game((4, 4), 11)
        result = enumerate_nes(game, count=5, seed=0)
        assert result.stalled == 0
        assert result.profiles
        for prof in result.profiles:
            assert exploitability(game, prof) <= 1e-9

    def test_lle_branch_folding_past_its_stop(self):
        # element 0 is traced deeper than lle_config asks.  This game's LLE
        # branch folds between tau 1e-2 and 1e-3, and the deep trace
        # passes the fold to a profile that polishes, where the LLE
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


def _solved_stages(monkeypatch):
    """Wrap ``solvers._record`` to keep (y, ops) of every accepted point of
    the trace, the one at the terminal temperature included."""
    stages = []
    real = solvers_mod._record

    def spy(ops, y, x):
        stages.append((y.copy(), ops))
        return real(ops, y, x)

    monkeypatch.setattr(solvers_mod, "_record", spy)
    return stages


class TestTraceRecords:
    """An accepted point's record comes from the corrector's last residual;
    the exact ``_qre_gap`` is kept for the records that decide or end the
    trace."""

    def games(self, chicken):
        return {
            "chicken": (chicken, QREConfig(targets=uniform_targets(chicken))),
            "random": (random_game((3, 4, 2), seed=3), QREConfig()),
            "koth": (_koth_clone_game(8, 4, 0), QREConfig()),
        }

    @pytest.mark.parametrize("name", ["chicken", "random", "koth"])
    def test_records_match_the_exact_gap(self, name, chicken, monkeypatch):
        game, config = self.games(chicken)[name]
        stages = _solved_stages(monkeypatch)
        res = solve_lle(game, replace(config, epsilon_ne=0.0))
        assert res.termination == "terminal_tau"
        records, logt = res.trace[1:-1], np.log(np.concatenate(res.targets))
        assert len(records) == len(stages) > 1
        for record, (y, ops) in zip(records, stages):
            loss, exploit = _qre_gap(ops, y, record.tau, logt)
            assert abs(record.loss - loss) <= 1e-9
            assert abs(record.exploitability - exploit) <= 1e-9
        y, ops = stages[-1]
        assert (records[-1].loss, records[-1].exploitability) == _qre_gap(ops, y, records[-1].tau, logt)
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

    @pytest.mark.parametrize("case", ["capped", "small_step"])
    def test_raised_trace_has_every_loss(self, case, monkeypatch):
        # the losses of the corrector's records are filled when the trace
        # ends, also when it raises: on the fold game once max_steps runs
        # out at its steep turn, and once the step falls below a minimum
        # raised to 0.1
        if case == "small_step":
            monkeypatch.setattr(solvers_mod, "ARC_MIN_STEP", 0.1)
        stages = _solved_stages(monkeypatch)
        game = fold_game()
        with pytest.raises(ConvergenceError, match="iterations spent" if case == "capped" else "fell below 0.1") as exc:
            solve_lle(game, QREConfig(max_steps=30))
        trace, iterate = exc.value.trace, exc.value.iterate
        # the start at lambda 0, where the loss is 0; every accepted point;
        # and the last of them again, the raised iterate
        targets = affinity_targets(game)
        logt = np.log(np.concatenate(targets))
        assert trace[0].tau is None and trace[0].loss == 0.0
        assert trace[0].exploitability == pytest.approx(exploitability(game, ProductProfile(targets)), abs=1e-12)
        assert len(stages) == len(trace) - 2 > 1
        for record, (y, ops) in zip(trace[1:-1], stages, strict=True):
            loss, exploit = _qre_gap(ops, y, record.tau, logt)
            assert np.isfinite(record.loss) and abs(record.loss - loss) <= 1e-9
            assert abs(record.exploitability - exploit) <= 1e-9
        assert replace(trace[-1], step=trace[-2].step) == trace[-2]
        # the last point's log-marginals, normalised
        for a, b in zip(iterate.marginals, np.split(np.exp(stages[-1][0]), np.cumsum(game.shape)[:-1])):
            assert np.abs(a - b / b.sum()).max() <= 1e-12

    def test_early_exit_is_decided_on_the_exact_exploitability(self, monkeypatch):
        game = _koth_clone_game(8, 4, 0)
        stages = _solved_stages(monkeypatch)
        full = solve_lle(game, QREConfig(epsilon_ne=0.0))
        cheap = [r.exploitability for r in full.trace[1:-1]]
        logt = np.log(np.concatenate(full.targets))
        exact = [_qre_gap(ops, y, r.tau, logt)[1] for r, (y, ops) in zip(full.trace[1:-1], stages, strict=True)]
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
            assert res.trace[-1].tau == full.trace[1 + first].tau
            assert res.exploitability == exact[first]
        assert abs(res.exploitability - exploitability(game, res.profile)) <= 1e-12

    def test_exact_gap_only_at_the_start_and_the_terminal_temperature(self, monkeypatch):
        # the start's record is exact by its own: the target profile's
        # exploitability, and the loss 0 of infinite temperature
        calls = []
        real = solvers_mod._qre_gap

        def spy(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(solvers_mod, "_qre_gap", spy)
        game = _koth_clone_game(8, 4, 0)
        res = solve_lle(game, QREConfig(epsilon_ne=0.0))
        assert res.termination == "terminal_tau"
        assert calls == [res.trace[-1].tau]
        assert res.trace[0].loss == 0.0
        assert res.trace[0].exploitability == exploitability(game, ProductProfile(res.targets))

    def test_loose_stages_change_only_the_step_count(self, chicken, monkeypatch):
        # every accepted point solved to NEWTON_TOL, as the terminal one is,
        # against the trace's own ARC_TOL.  The tolerance moves the points a
        # little, and with them where an early exit stops, but not the
        # profile at tau_terminal
        games = {**self.games(chicken), "fold": (fold_game(), QREConfig())}
        tols = (solvers_mod.ARC_TOL, solvers_mod.NEWTON_TOL)
        for game, config in games.values():
            solves = []
            for stage_tol in tols:
                monkeypatch.setattr(solvers_mod, "ARC_TOL", stage_tol)
                solves.append([solve_lle(game, replace(config, epsilon_ne=eps)) for eps in (0.0, 1e-3, 1e-2)])
            for eps, loose, tight in zip((0.0, 1e-3, 1e-2), *solves):
                assert loose.termination == tight.termination
                if loose.termination == "epsilon_ne":
                    assert max(loose.exploitability, tight.exploitability) <= eps
                    continue
                gap = max(np.abs(a - b).max() for a, b in zip(loose.profile.marginals, tight.profile.marginals))
                assert loose.trace[-1].tau == tight.trace[-1].tau == config.tau_terminal
                assert gap <= 1e-12
                assert loose.trace[-1].step < tight.trace[-1].step


def _step(U):
    """One over twice the largest row sum of ``|U|'|U|``."""
    return 1.0 / (2.0 * np.max(np.abs(U).T @ np.abs(U).sum(axis=1)))


def _targets_game(name, rps_dup_rock):
    return {
        "rps_dup_rock": lambda: rps_dup_rock,
        "koth_clones": lambda: _koth_clone_game(8, 4, 5),
        "random": lambda: random_game((3, 4, 2), seed=3),
        "skillworld": _stale_curvature_game,
    }[name]()


class TestTargetsStep:
    """The targets' projected gradient steps by one over a row-sum bound on
    its gradient's Lipschitz constant, which needs no power iteration."""

    @pytest.mark.parametrize(
        "name", ["eye5", "eye13", "eye29", "rps_dup_rock", "koth_clones", "random", "skillworld"]
    )
    def test_step_never_exceeds_inverse_lipschitz(self, name, rps_dup_rock, monkeypatch):
        if name.startswith("eye"):
            Ks = [np.eye(int(name[3:]))]
        else:
            game = _targets_game(name, rps_dup_rock)
            dissimilarity = {"joint": kernels.dissimilarity_joint, "factorized": kernels.dissimilarity_factorized}
            Ks = [
                kernels.similarity_kernel(dissimilarity[mode](game, i), variance)
                for variance, mode in itertools.product([1e-6, 1e-4, 1e-2], dissimilarity)
                for i in range(game.num_players)
            ]
        points, project = [], kernels.project_simplex
        monkeypatch.setattr(kernels, "project_simplex", lambda v: points.append(v) or project(v))
        for K in Ks:
            U = kernels._unit_columns(K)
            eta = _step(U)
            assert 2.0 * eta * np.linalg.eigvalsh(U.T @ U).max() <= 1.0 + 1e-12
            # and the maximizer takes that step
            points.clear()
            kernels.max_affinity_entropy(K, tolerance=kernels.TARGET_TOLERANCE)
            x = np.full(len(K), 1.0 / len(K))
            assert np.array_equal(points[0], x - eta * (2.0 * (U.T @ (U @ x))))

    @pytest.mark.parametrize("name", ["rps_dup_rock", "koth_clones", "random", "skillworld"])
    def test_targets_match_fifty_power_rounds(self, name, rps_dup_rock):
        game = _targets_game(name, rps_dup_rock)
        # the largest difference measured is 3.6e-7 (skillworld, 1e-2, factorized)
        for variance, mode in itertools.product([1e-6, 1e-4, 1e-2], ["joint", "factorized"]):
            ours = affinity_targets(game, variance=variance, mode=mode)
            refs = affinity_targets_50(game, variance=variance, mode=mode)
            for t, ref in zip(ours, refs, strict=True):
                assert np.abs(t - ref).max() <= 1e-6, (variance, mode)

    @pytest.mark.parametrize("name", ["rps_dup_rock", "koth_clones", "random", "skillworld"])
    def test_targets_equal_the_reference_loop_to_the_bit(self, name, rps_dup_rock):
        # the maximiser's loop dispatches fewer numpy calls than the
        # reference's, with the same arithmetic
        game = _targets_game(name, rps_dup_rock)
        dissimilarity = {"joint": kernels.dissimilarity_joint, "factorized": kernels.dissimilarity_factorized}
        for variance, mode in itertools.product([1e-6, 1e-4, 1e-2], dissimilarity):
            for i in range(game.num_players):
                K = kernels.similarity_kernel(dissimilarity[mode](game, i), variance)
                U = kernels._unit_columns(K)
                want = max_entropy_pg(U, _step(U), kernels.TARGET_TOLERANCE, 100_000)
                assert np.array_equal(kernels.max_affinity_entropy(K, tolerance=kernels.TARGET_TOLERANCE), want)

    @pytest.mark.parametrize("n", [5, 13, 29])
    def test_identity_kernel_is_uniform_after_one_step(self, n, monkeypatch):
        norms, points, project = [], [], kernels.project_simplex
        monkeypatch.setattr(kernels.np.linalg, "norm", lambda *a, **k: norms.append(a))
        monkeypatch.setattr(kernels, "project_simplex", lambda v: points.append(v) or project(v))
        ours = kernels.max_affinity_entropy(np.eye(n), tolerance=1e-7)
        assert np.array_equal(ours, np.full(n, 1.0 / n))
        assert len(points) == 1 and not norms


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
        # from the dual evaluation that built the joint
        assert abs(res.exploitability - exploitability(game, res.profile)) <= 1e-14
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


# each player's terminal marginals of four games of _sweep_game, traced by a
# tau_decay=0.99 grid at otherwise default settings, to 11 decimals
_SWEEP_FINE_GRID = {
    "20x6_19": [
        [2.14615e-06, 0.00023451274, 0.24777456821, 1.1433e-07, 1.64891e-06, 0.0910385899, 2.61093e-06,
         0.19393928496, 9.61e-09, 0.00070798502, 0.28272087433, 1.301e-08, 0.00044112661, 0.00080409451,
         4.711e-08, 0.13375158842, 8.84822e-06, 2.264e-08, 3.36e-08, 0.04857188079],
        [6.67458e-06, 0.14285969922, 0.27510865905, 0.14796550838, 0.21886059979, 0.21519885899],
        [0.46482351724, 0.14591600407, 8.7e-08, 0.26752046543, 0.1217397975, 1.2875e-07],
    ],
    "20x6_52": [
        [1.8132e-07, 1.913e-08, 6.62495e-06, 2.63189e-06, 6.972e-08, 2.88e-08, 0.00010813329, 2.42e-09,
         0.41800343597, 1.0751e-07, 6.776552e-05, 0.00025586694, 4.23595e-06, 1.2744e-07, 2.419e-08, 3e-11,
         0.17011950938, 0.00013925081, 2e-11, 0.41129198473],
        [1e-11, 0.34739450832, 0.0, 0.0, 0.49944209366, 0.15316339802],
        [0.33669770989, 0.31729361033, 0.17458870564, 0.17141902579, 9.4209e-07, 6.26e-09],
    ],
    "30x8_92": [
        [0.31418592896, 3.5177e-07, 2.029e-08, 8.36251e-06, 3.540438e-05, 0.23048377682, 7.671924e-05,
         0.0002414027, 6.01181e-06, 0.00047271499, 0.2045830903, 1.827025e-05, 1.052916e-05, 1.03425e-06,
         0.08160939629, 0.00097185323, 0.00148575597, 8.180198e-05, 0.02598361524, 0.00012179244,
         0.01460801183, 0.0002163542, 2.63334e-06, 1.7385e-07, 0.00164151361, 4.372167e-05, 0.08043684532,
         1.557844e-05, 0.00017016369, 0.04248717146],
        [0.0, 0.17020497926, 4.59e-09, 0.26691520965, 0.17648025408, 0.02478205704, 0.00015798719,
         0.36145950819],
        [6.2868e-07, 0.19622999532, 0.05877803541, 0.3021762391, 0.30051298036, 0.10806702803, 0.03423509301,
         1e-10],
    ],
    "40x5_6": [
        [1.39e-09, 0.0, 0.13582958628, 1.3923e-07, 3.023e-07, 8.144e-08, 0.06403065723, 0.21439481116,
         0.00017742047, 0.0, 2.528e-08, 5.320454e-05, 1.136e-08, 0.0, 3.798e-08, 9.48735e-06, 3.23647e-06,
         0.00639488464, 4.051e-08, 9.9e-10, 0.0, 5.145e-08, 3.035828e-05, 0.0, 2.22e-09, 1.085e-08,
         0.00014875741, 2.083e-08, 0.00010402801, 2e-11, 0.01007036341, 0.00060687409, 0.08845451263,
         0.11250441869, 0.00141247216, 0.36574673779, 8.77094e-06, 2.1832e-07, 1e-11, 1.847427e-05],
        [0.38123912675, 0.00141857458, 0.29581986746, 0.31476606741, 0.0067563638],
        [0.0, 0.14054094252, 0.27354778646, 0.20030190589, 0.38560936513],
    ],
    "20x6_92": [
        [0.0, 0.0, 9e-11, 1.229423e-05, 0.00154311859, 1.66891e-05, 8.955e-08, 1.7e-09, 0.00373206077,
         5.491806e-05, 2e-11, 0.00040837579, 0.28311071967, 0.0, 1.12e-09, 0.51976851238, 5.6e-10,
         6.5725e-07, 0.19116729541, 0.0001852657],
        [0.07243890725, 0.43500648768, 0.02733576076, 0.0, 0.19539913193, 0.26981971236],
        [0.14655056931, 3e-11, 0.41777654624, 0.43538075936, 0.00029211272, 1.233e-08],
    ],
}
