import base64
import contextlib
import csv
import hashlib
import io
import itertools
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqrate import games, kernels, koth, ratings, skillsim, solvers
from eqrate.cli import _read_game, _save_koth, main
from eqrate.games import save_game


def test_learning_rate_rejected_for_cce(tmp_path, chicken):
    # neither solver has a step size, so the flag would be silently ignored
    path = tmp_path / "chicken.json"
    save_game(chicken, path)
    argv = ["solve", "--game", str(path), "--method", "cce", "--out", str(tmp_path / "eq.json")]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--learning-rate", "0.1"])
    assert exc.value.code == 2
    assert not (tmp_path / "eq.json").exists()
    assert main(argv) == 0


def test_solve_manifest_reports_termination_and_stages(tmp_path, chicken):
    path = tmp_path / "chicken.json"
    save_game(chicken, path)
    out = tmp_path / "eq.json"
    argv = ["solve", "--game", str(path), "--entropy", "shannon", "--epsilon", "0"]
    assert main(argv + ["--out", str(out)]) == 0
    with open(f"{out}.manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(out, encoding="utf-8") as fh:
        trace = json.load(fh)["trace"]
    assert manifest["termination"] == "terminal_tau"
    # the start at lambda 0 has no temperature; each of the 31 points the
    # arclength trace accepts, down to tau 0.01, has its own
    assert trace[0]["tau"] is None
    assert manifest["stages"] == 31 == len({r["tau"] for r in trace[1:]})
    assert manifest["steps"] == trace[-1]["step"]
    assert manifest["restarts"] == 0
    timings = manifest["timings"]
    assert set(timings) == {"load_s", "targets_s", "solve_s", "write_s"}
    assert all(t >= 0 for t in timings.values())


def _build_game(tmp_path, prompts, models):
    rng = np.random.default_rng(0)
    prefs = tmp_path / "prefs.csv"
    with open(prefs, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["prompt_id", "model_a", "model_b", "score"])
        for p in range(prompts):
            for a in range(models):
                for b in range(a + 1, models):
                    writer.writerow([f"q{p}", f"m{a}", f"m{b}", rng.choice(koth.SCORES)])
    game = tmp_path / "game.json"
    assert main(["build", "--prefs", str(prefs), "--out", str(game)]) == 0
    return game, koth.build_koth(koth.read_preference_csv(prefs))


def test_cce_solve_manifest_reports_the_newton_finish(tmp_path):
    game, _ = _build_game(tmp_path, prompts=12, models=4)
    out = tmp_path / "cce.json"
    assert main(["solve", "--game", str(game), "--method", "cce", "--out", str(out)]) == 0
    with open(f"{out}.manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(out, encoding="utf-8") as fh:
        trace = json.load(fh)["trace"]
    # every Newton step has its trace record, so steps counts them too
    assert manifest["steps"] == trace[-1]["step"] > manifest["newton_steps"] >= 1
    assert manifest["termination"] == "kkt"
    assert manifest["restarts"] == 0


def test_rate_elo_writes_a_rating_report(tmp_path):
    game, kg = _build_game(tmp_path, prompts=6, models=5)
    out = tmp_path / "elo.json"
    assert main(["rate", "--game", str(game), "--method", "elo", "--out", str(out)]) == 0
    expected = ratings.elo_ratings(koth.prompt_average_win_matrix(kg))
    with open(out, encoding="utf-8") as fh:
        (table,) = json.load(fh)["tables"]
    assert table["player"] == "king"
    assert table["labels"] == list(kg.models)
    assert table["ratings"] == expected.tolist()
    assert table["ranks"] == ratings.ranks_with_ties(expected, kg.models).tolist()
    assert table["masses"] == [None] * len(kg.models)
    with open(f"{out}.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["label"] for r in rows] == list(kg.models)
    assert [float(r["rating"]) for r in rows] == expected.tolist()
    assert all(r["mass"] == "" for r in rows)


def test_cce_file_rates_and_decomposes_like_the_solver(tmp_path):
    game_path, _ = _build_game(tmp_path, prompts=5, models=4)
    eq, out, table = tmp_path / "cce.json", tmp_path / "cce_rate.json", tmp_path / "dec.csv"
    assert main(["solve", "--game", str(game_path), "--method", "cce", "--out", str(eq)]) == 0
    assert main(["rate", "--game", str(game_path), "--equilibrium", str(eq), "--out", str(out)]) == 0
    argv = ["decompose", "--game", str(game_path), "--equilibrium", str(eq)]
    argv += ["--player", "1", "--action", "m2", "--co-player", "0", "--out", str(table)]
    assert main(argv) == 0
    game, _ = _read_game(game_path)
    result = solvers.solve_mre_cce(game, solvers.CCEConfig(targets=kernels.affinity_targets(game)))
    expected = ratings.rate(game, result.profile, "CCE")
    with open(out, encoding="utf-8") as fh:
        tables = json.load(fh)["tables"]
    assert [t["ratings"] for t in tables] == [r.tolist() for r in expected.ratings]
    assert [t["ranks"] for t in tables] == [r.tolist() for r in expected.ranks]
    dec = ratings.decompose(game, result.profile, 1, game.action_labels[1].index("m2"), 0)
    with open(table, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["contribution"]) for r in rows] == [*dec.contributions.tolist(), dec.rating]


def test_rate_rejects_a_cce_of_another_game(tmp_path, capsys):
    game_path, _ = _build_game(tmp_path, prompts=4, models=3)
    eq = tmp_path / "cce.json"
    assert main(["solve", "--game", str(game_path), "--method", "cce", "--out", str(eq)]) == 0
    with open(game_path, encoding="utf-8") as fh:
        data = json.load(fh)
    king = np.frombuffer(base64.b64decode(data["king"]), dtype="<f8")
    data["king"] = base64.b64encode((-king).tobytes()).decode("ascii")
    other = tmp_path / "negated.json"
    other.write_text(json.dumps(data))
    argv = ["rate", "--equilibrium", str(eq), "--out", str(tmp_path / "r.json")]
    assert main(argv + ["--game", str(other)]) == 2
    assert "another game" in capsys.readouterr().err
    assert main(argv + ["--game", str(game_path)]) == 0


def test_rate_rejects_non_finite_marginals(tmp_path, capsys):
    game_path, _ = _build_game(tmp_path, prompts=4, models=3)
    eq, out = tmp_path / "ne.json", tmp_path / "r.json"
    assert main(["solve", "--game", str(game_path), "--out", str(eq)]) == 0
    with open(eq, encoding="utf-8") as fh:
        data = json.load(fh)
    data["profile"]["marginals"][1][0] = float("nan")
    eq.write_text(json.dumps(data), encoding="utf-8")
    assert main(["rate", "--game", str(game_path), "--equilibrium", str(eq), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "NaN" in err and err.count("\n") == 1
    assert not out.exists() and not (tmp_path / "r.json.csv").exists()


def test_clone_test_elo_ranking_matches_rate(tmp_path):
    game, kg = _build_game(tmp_path, prompts=3, models=3)
    argv = ["clone-test", "--game", str(game), "--target", "m0", "--counts", "0"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    elo = ratings.elo_ratings(koth.prompt_average_win_matrix(kg))
    order = sorted(kg.models, key=lambda m: (-elo[kg.models.index(m)], m))
    with open(tmp_path / "ranking_elo_0.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["player"] for r in rows} == {"king"}
    ranked = sorted(rows, key=lambda r: int(r["rank"]))
    assert [r["label"] for r in ranked] == order
    with open(tmp_path / "clone_test_summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    (row,) = [r for r in summary["rows"] if r["method"] == "elo"]
    assert row["ranking"] == order


def test_clone_test_computes_affinity_targets_once_per_count(tmp_path, monkeypatch):
    # the ne and cce methods of one count share their targets
    game, _ = _build_game(tmp_path, prompts=3, models=3)
    shapes = []
    real = kernels.affinity_targets

    def spy(g, *args, **kwargs):
        shapes.append(g.shape)
        return real(g, *args, **kwargs)

    monkeypatch.setattr(kernels, "affinity_targets", spy)
    argv = ["clone-test", "--game", str(game), "--target", "m0", "--counts", "0,2"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    assert shapes == [(3, 3, 3), (5, 3, 3)]


def test_clone_test_searches_each_game_for_duplicates_once(tmp_path, monkeypatch):
    # the four ne and cce solves of one count share the game's classes; the
    # clones of count 2 are exact, so that game is solved on its quotient
    game, _ = _build_game(tmp_path, prompts=3, models=3)
    found = []
    real = solvers._duplicate_classes

    def spy(g):
        found.append((g.shape, real(g)))
        return found[-1][1]

    monkeypatch.setattr(solvers, "_duplicate_classes", spy)
    argv = ["clone-test", "--game", str(game), "--target", "m0", "--counts", "0,2"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    assert [shape for shape, _ in found] == [(3, 3, 3), (5, 3, 3)]
    assert found[0][1] is None and found[1][1] is not None


@pytest.mark.parametrize(
    "flags, name",
    [(["--variance", "nan"], "variance"), (["--method", "cce", "--epsilon", "nan"], "epsilon_cce")],
)
def test_solve_rejects_a_nan_parameter(tmp_path, capsys, chicken, flags, name):
    path, out = tmp_path / "chicken.json", tmp_path / "eq.json"
    save_game(chicken, path)
    assert main(["solve", "--game", str(path), "--out", str(out), *flags]) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, name", [(["--counts", "0,-3"], "--counts"), (["--counts", "2", "--noise", "nan"], "noise")]
)
def test_clone_test_rejects_a_negative_count_or_nan_noise(tmp_path, capsys, flags, name):
    game, _ = _build_game(tmp_path, prompts=3, models=3)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = ["clone-test", "--game", str(game), "--target", "m0", "--out-dir", str(out_dir)]
    assert main([*argv, *flags]) == 2
    assert name in capsys.readouterr().err
    assert not list(out_dir.iterdir())


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--lambda", "nan"], "--lambda"),
        (["--lambda", "inf"], "--lambda"),
        (["--lambda=-inf", "--counts", "0"], "--lambda"),
        (["--noise", "inf"], "--noise"),
        (["--counts", "0,2", "--noise", "nan"], "--noise"),
        (["--counts", "0,2,-1"], "--counts"),
    ],
)
def test_clone_test_checks_every_setting_before_writing(tmp_path, capsys, flags, name):
    # a bad setting is reported before the first count's files are written
    game, _ = _build_game(tmp_path, prompts=3, models=3)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = ["clone-test", "--game", str(game), "--target", "m0", "--out-dir", str(out_dir)]
    assert main([*argv, *flags]) == 2
    assert name in capsys.readouterr().err
    assert not list(out_dir.iterdir())


def test_simulate_rejects_zero_check_interval(tmp_path, capsys):
    # the Newton trace has no check interval, so the key is unknown
    config = tmp_path / "sim.json"
    solver = {"anneal_check_interval": 0}
    raw = {"rating_method": "ne", "trials": 1, "iterations": 1, "solver": solver}
    config.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path)]) == 2
    assert repr("anneal_check_interval") in capsys.readouterr().err


def test_simulate_rejects_unknown_keys(tmp_path, capsys):
    base = {"rating_method": "ne", "trials": 1, "iterations": 1}
    cases = (
        ({"solver": {"anneal_gate_typo": 1e-5}}, "anneal_gate_typo"),
        ({"bogus": 3}, "bogus"),
        # the NE arm always solves from scratch
        ({"warm_start": True}, "warm_start"),
    )
    for extra, key in cases:
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({**base, **extra}))
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path)]) == 2
        assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw",
    [
        [1],
        {"trials": "2"},
        {"trials": 1.5},
        {"seed": True},
        {"rating_method": "ne", "solver": 5},
        {"methods": 3},
        # the elo arm would run and write its files before the bad one
        {"methods": ["elo", "nash"], "trials": 1, "iterations": 1},
        # the second run would overwrite the first one's trajectory files
        {"methods": ["elo", "elo"], "trials": 1, "iterations": 1},
        # the elo arm would run before the ne arm's QREConfig rejects its value
        {"methods": ["elo", "ne"], "trials": 1, "iterations": 1, "solver": {"tau_terminal": 0.0}},
        {"rating_method": "ne", "trials": 1, "iterations": 1, "solver": {"max_steps": "5"}},
        # which of the two would run is not the config's to leave open
        {"methods": ["ne"], "rating_method": "cce", "trials": 1, "iterations": 1},
        {"methods": [], "trials": 1, "iterations": 1},
        {"trials": 1, "iterations": 1, "inner_round_cap": 0},
        # JSON allows NaN; a NaN cap would reach the solver
        {"methods": ["ne"], "trials": 1, "iterations": 1, "solver": {"max_steps": float("nan")}},
    ],
    ids=[
        "list", "str-count", "float-count", "bool-seed", "int-solver", "int-methods", "second-method",
        "repeated-method", "solver-value", "solver-type", "methods-and-rating-method", "no-methods", "zero-cap",
        "nan-max-steps",
    ],
)
def test_simulate_rejects_a_malformed_config_before_any_trial(tmp_path, capsys, raw):
    config, out_dir = tmp_path / "sim.json", tmp_path / "out"
    config.write_text(json.dumps(raw))
    out_dir.mkdir()
    assert main(["simulate", "--config", str(config), "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(out_dir.iterdir())


def test_clone_test_rejects_a_repeated_or_non_integer_count(tmp_path, capsys):
    # a repeated count would write its ranking files twice
    game, _ = _build_game(tmp_path, prompts=3, models=3)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = ["clone-test", "--game", str(game), "--target", "m0", "--out-dir", str(out_dir)]
    for counts in ("0,0", "0,2,2", "0,x", "1.5"):
        assert main([*argv, "--counts", counts]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --counts ") and err.count("\n") == 1
        assert not list(out_dir.iterdir())


def _malformed_files(tmp_path, chicken):
    """Input files that are not of their format: the argv of a command
    reading one, and the file's path."""
    game = tmp_path / "chicken.json"
    save_game(chicken, game)
    data = json.loads(game.read_text(encoding="utf-8"))
    king = tmp_path / "king.json"
    _save_koth(koth._koth_game(np.zeros((2, 2, 2)), ["q0", "q1"], ["m0", "m1"], [None, None]), king)
    king_data = json.loads(king.read_text(encoding="utf-8"))
    ne, cce = solvers.solve_lle(chicken).to_dict(), solvers.solve_mre_cce(chicken).to_dict()
    ne_prof, cce_prof, no_config = ne["profile"], cce["profile"], {k: v for k, v in cce.items() if k != "config"}
    game_files = {
        "empty": {},
        "no-shape": {k: v for k, v in data.items() if k != "shape"},
        "list": [1, 2],
        # 4 cells fit the shape, but a king tensor has three axes
        "king-2-axes": {"players": ["a", "b"], "actions": [["x", "y"]] * 2, "king": [0.0] * 4, "shape": [2, 2]},
        "shape-not-integers": {"actions": [["p"], ["x", "y"], ["x", "y"]], "king": [0.0] * 4, "shape": [1, 2, "2"]},
        "players-5": {**data, "players": 5},
        "actions-5-6": {**data, "actions": [5, 6]},
        "utilities-5": {**data, "utilities": 5},
    }
    king_files = {
        "king-actions-5": {**king_data, "actions": 5},
        "king-clone-sources-5": {**king_data, "clone_sources": 5},
        "king-labels-off-shape": {**king_data, "actions": [["q0", "q1"], ["m0"], ["m0"]]},
        "king-list-string": {**king_data, "king": [0.0] * 7 + ["x"]},
        "king-list-int-over-float": {**king_data, "king": [0.0] * 7 + [10**400]},
        "not-koth": data,
    }
    eq_files = {
        "no-profile": {"method": "ne"},
        "type-list": {**ne, "profile": {**ne_prof, "type": ["product"]}},
        "marginals-5": {**ne, "profile": {**ne_prof, "marginals": 5}},
        "method-5": {**ne, "method": 5},
        "duals-5": {**cce, "profile": {**cce_prof, "duals": 5}},
        "shape-5": {**cce, "profile": {**cce_prof, "shape": 5}},
        "targets-5": {**cce, "targets": 5},
        "config-5": {**cce, "config": 5},
        "epsilon-cce-x": {**cce, "config": {**cce["config"], "epsilon_cce": "x"}},
        # files no solve writes, which were once rated: a joint of NaNs, and
        # multipliers that are NaN, negative or so large the joint is NaN
        # (on straight; on swerve, 1e308 gives the pure CCE straight/swerve)
        "joint-nan": {**no_config, "profile": {"type": "joint", "joint": [float("nan")] * 4, "shape": [2, 2]}},
    }
    for name, value in (("nan", float("nan")), ("negative", -1e-3), ("huge", 1e308)):
        duals = [[cce_prof["duals"][0][0], value], cce_prof["duals"][1]]
        eq_files[f"duals-{name}"] = {**no_config, "profile": {**cce_prof, "duals": duals}}
    texts = {"game-text": "{", "deep": "[" * 10**5, "eq-text": "not json"}
    cases = {}
    for name, content in (*game_files.items(), *king_files.items(), *eq_files.items(), *texts.items()):
        path = tmp_path / f"{name}.json"
        path.write_text(content if name in texts else json.dumps(content), encoding="utf-8")
        if name in king_files:
            cases[name] = (["rate", "--game", str(path), "--method", "elo"], path)
        elif name in eq_files or name == "eq-text":
            cases[name] = (["rate", "--game", str(game), "--equilibrium", str(path)], path)
        else:
            cases[name] = (["solve", "--game", str(path)], path)
    for name, command in (("game-bytes", "solve"), ("prefs-bytes", "build")):
        path = tmp_path / f"{name}.bin"
        path.write_bytes(b"prompt_id,model_a,model_b,score\nq0,m\xff,m1,0.5\n")
        cases[name] = ([command, "--game" if command == "solve" else "--prefs", str(path)], path)
    return cases


MALFORMED = [
    *("empty", "no-shape", "list", "king-2-axes", "shape-not-integers", "players-5", "actions-5-6", "utilities-5"),
    *("king-actions-5", "king-clone-sources-5", "king-labels-off-shape", "king-list-string"),
    *("king-list-int-over-float", "not-koth"),
    *("no-profile", "type-list", "marginals-5", "method-5", "duals-5", "shape-5", "targets-5", "config-5"),
    *("epsilon-cce-x", "joint-nan", "duals-nan", "duals-negative", "duals-huge"),
    *("game-text", "deep", "eq-text", "game-bytes", "prefs-bytes"),
]


@pytest.mark.parametrize("case", MALFORMED)
def test_a_malformed_game_or_equilibrium_file_is_named(tmp_path, capsys, chicken, case):
    cases = _malformed_files(tmp_path, chicken)
    assert sorted(cases) == sorted(MALFORMED)
    argv, path = cases[case]
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("out*"))


def test_build_lists_at_most_20_missing_cells(tmp_path, capsys):
    # every prompt judges m0 against m1 and m2, none m1 against m2
    prefs, out = tmp_path / "prefs.csv", tmp_path / "game.json"
    rows = [f"q{p:02d},m0,m{b},0.5" for p in range(25) for b in (1, 2)]
    prefs.write_text("\n".join(["prompt_id,model_a,model_b,score", *rows]) + "\n", encoding="utf-8")
    assert main(["build", "--prefs", str(prefs), "--out", str(out)]) == 2
    first, *missing = capsys.readouterr().err.splitlines()
    assert first.startswith("error: 25 (prompt, model pair) cells have no ratings")
    assert missing == [f"  missing: ('q{p:02d}', 'm1', 'm2')" for p in range(20)]
    assert not list(tmp_path.glob("game.json*"))


@pytest.mark.parametrize("method", ["ne", "cce"])
def test_a_solve_out_of_steps_exits_3_and_writes_nothing(tmp_path, capsys, chicken, method):
    path, out = tmp_path / "chicken.json", tmp_path / "eq.json"
    save_game(chicken, path)
    argv = ["solve", "--game", str(path), "--method", method, "--max-steps", "1", "--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: solve_{'lle' if method == 'ne' else 'mre_cce'}: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("eq.json*"))


def test_decompose_manifest_lists_the_families_file(tmp_path, chicken):
    path, eq, fams, out = (tmp_path / name for name in ("chicken.json", "eq.json", "f.json", "dec.csv"))
    save_game(chicken, path)
    assert main(["solve", "--game", str(path), "--out", str(eq)]) == 0
    fams.write_text(json.dumps({"swerve": "soft", "straight": "hard"}), encoding="utf-8")
    argv = ["decompose", "--game", str(path), "--equilibrium", str(eq), "--action", "swerve"]
    assert main([*argv, "--player", "0", "--co-player", "1", "--families", str(fams), "--out", str(out)]) == 0
    with open(f"{out}.manifest.json", encoding="utf-8") as fh:
        assert list(json.load(fh)["inputs"]) == [str(path), str(eq), str(fams)]


def test_clone_test_rejects_a_target_not_in_the_game(tmp_path, capsys):
    game, _ = _build_game(tmp_path, prompts=3, models=3)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["clone-test", "--game", str(game), "--target", "m9", "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == "error: target model 'm9' not in game\n"
    assert not list(out_dir.iterdir())


def test_rate_needs_an_equilibrium_unless_elo(tmp_path, capsys):
    game, _ = _build_game(tmp_path, prompts=3, models=3)
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        main(["rate", "--game", str(game), "--out", str(out)])
    assert exc.value.code == 2
    assert "rate: --equilibrium is required unless --method elo" in capsys.readouterr().err
    assert not list(tmp_path.glob("r.json*"))


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A king file, the same game in full, and its ne and cce files: each
    one's JSON and the argv of rating it, with None for the file's path."""
    tmp = tmp_path_factory.mktemp("valid")
    king, kg = _build_game(tmp, prompts=3, models=3)
    full = tmp / "full.json"
    _write_full_game(kg, full)
    for method in ("ne", "cce"):
        assert main(["solve", "--game", str(king), "--method", method, "--out", str(tmp / f"{method}.json")]) == 0
    argv = {name: ["rate", "--game", None, "--method", "elo"] for name in ("king", "full")}
    argv |= {method: ["rate", "--game", str(king), "--equilibrium", None] for method in ("ne", "cce")}
    paths = {"king": king, "full": full, "ne": tmp / "ne.json", "cce": tmp / "cce.json"}
    return {name: (json.loads(paths[name].read_text(encoding="utf-8")), argv[name]) for name in paths}


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=6,
)


@st.composite
def replaced(draw, doc):
    """``doc`` with the value at a drawn key path, which may be the root,
    replaced by a drawn JSON value."""
    if not (isinstance(doc, (dict, list)) and doc) or draw(st.integers(0, 3)) == 0:
        return draw(json_values)
    key = draw(st.sampled_from(list(doc) if isinstance(doc, dict) else range(len(doc))))
    new = dict(doc) if isinstance(doc, dict) else list(doc)
    new[key] = draw(replaced(doc[key]))
    return new


@pytest.mark.parametrize("name", ["ne", "cce", "king", "full"])
def test_an_edited_input_file_rates_or_is_named(valid_inputs, tmp_path_factory, name):
    doc, argv = valid_inputs[name]
    tmp = tmp_path_factory.mktemp(f"edited_{name}")
    path, out = tmp / "edited.json", tmp / "out.json"

    @settings(max_examples=60, deadline=None)
    @given(edited=replaced(doc))
    def check(edited):
        path.write_text(json.dumps(edited), encoding="utf-8")
        for p in tmp.glob("out.json*"):
            p.unlink()
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([str(path) if a is None else a for a in argv] + ["--out", str(out)])
        if code == 0:
            assert out.exists() and not err.getvalue()
        else:
            assert code == 2
            assert err.getvalue().startswith(f"error: {path}: ") and err.getvalue().count("\n") == 1
            assert not list(tmp.glob("out.json*"))

    check()


def test_simulate_writes_each_method_trajectory(tmp_path):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"methods": ["elo", "ne", "cce"], "trials": 1, "iterations": 1}))
    assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path)]) == 0
    outputs = []
    for method in ("elo", "ne", "cce"):
        json_path, csv_path = (tmp_path / f"trajectory_{method}.{ext}" for ext in ("json", "csv"))
        expected = skillsim.run_simulation(skillsim.SimConfig(rating_method=method, trials=1, iterations=1))
        with open(json_path, encoding="utf-8") as fh:
            assert json.load(fh) == json.loads(json.dumps(expected.to_dict()))
        with open(csv_path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        trace = skillsim.entropy_trace(expected)
        # one row per snapshot, t = 0 and 1
        assert len(rows) == len(expected.trials[0].snapshots) == 2
        assert reader.fieldnames == list(trace[0])
        assert rows == [{k: str(v) for k, v in row.items()} for row in trace]
        outputs += [str(json_path), str(csv_path)]
    with open(tmp_path / "simulate.manifest.json", encoding="utf-8") as fh:
        assert json.load(fh)["outputs"] == outputs


@pytest.mark.parametrize("flag", ["--player", "--co-player"])
def test_decompose_rejects_a_player_out_of_range(tmp_path, capsys, chicken, flag):
    path, eq, out = tmp_path / "chicken.json", tmp_path / "eq.json", tmp_path / "dec.csv"
    save_game(chicken, path)
    assert main(["solve", "--game", str(path), "--out", str(eq)]) == 0
    players = {"--player": "0", "--co-player": "1", flag: "7"}
    argv = ["decompose", "--game", str(path), "--equilibrium", str(eq), "--action", "swerve"]
    argv += [*itertools.chain(*players.items()), "--out", str(out)]
    assert main(argv) == 2
    assert "player index out of range" in capsys.readouterr().err
    assert not out.exists()


def test_decompose_rejects_an_action_the_player_lacks(tmp_path, capsys, chicken):
    path, eq, out = tmp_path / "chicken.json", tmp_path / "eq.json", tmp_path / "dec.csv"
    save_game(chicken, path)
    assert main(["solve", "--game", str(path), "--out", str(eq)]) == 0
    argv = ["decompose", "--game", str(path), "--equilibrium", str(eq), "--player", "1", "--co-player", "0"]
    assert main([*argv, "--action", "nope", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: --action 'nope' is not an action of player 1 (p2)\n"
    assert not out.exists()


@pytest.mark.parametrize("families", [["a", "b"], {"straight": ["a"]}])
def test_decompose_rejects_families_that_are_not_a_label_to_family_object(tmp_path, capsys, chicken, families):
    path, eq, out = tmp_path / "chicken.json", tmp_path / "eq.json", tmp_path / "dec.csv"
    save_game(chicken, path)
    assert main(["solve", "--game", str(path), "--out", str(eq)]) == 0
    fams = tmp_path / "f.json"
    fams.write_text(json.dumps(families), encoding="utf-8")
    argv = ["decompose", "--game", str(path), "--equilibrium", str(eq), "--action", "swerve"]
    argv += ["--player", "0", "--co-player", "1", "--families", str(fams), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {fams}: --families must be a JSON object of label to family\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def manifests(tmp_path_factory, chicken):
    """Every subcommand run once on small inputs: its command and manifest
    path under a case name, and the directory that holds them."""
    tmp = tmp_path_factory.mktemp("manifests")
    game, _ = _build_game(tmp, prompts=4, models=3)
    g, out_dir = str(game), tmp / "out"
    out_dir.mkdir()
    save_game(chicken, tmp / "chicken.json")
    (tmp / "sim.json").write_text(json.dumps({"trials": 1, "iterations": 1}))
    runs = {
        "build-game": ["build", "--game", g, "--out", str(tmp / "again.json")],
        "solve-ne": ["solve", "--game", g, "--out", str(tmp / "ne.json")],
        "solve-cce": ["solve", "--game", g, "--method", "cce", "--out", str(tmp / "cce.json")],
        "rate-eq": ["rate", "--game", g, "--equilibrium", str(tmp / "cce.json"), "--out", str(tmp / "cce_rate.json")],
        "rate-elo": ["rate", "--game", g, "--method", "elo", "--out", str(tmp / "elo.json")],
        "decompose": [
            "decompose", "--game", g, "--equilibrium", str(tmp / "ne.json"),
            "--player", "1", "--action", "m0", "--co-player", "0", "--out", str(tmp / "dec.csv"),
        ],  # fmt: skip
        "clone-test": ["clone-test", "--game", g, "--target", "m0", "--counts", "0,1", "--out-dir", str(out_dir)],
        "enumerate": ["enumerate", "--game", str(tmp / "chicken.json"), "--count", "2", "--out", str(tmp / "enum.json")],
        "simulate": ["simulate", "--config", str(tmp / "sim.json"), "--out-dir", str(out_dir)],
    }
    cases = {"build-prefs": ("build", f"{game}.manifest.json")}
    for case, argv in runs.items():
        assert main(argv) == 0
        cases[case] = (argv[0], f"{argv[-1]}.manifest.json")
    cases["clone-test"] = ("clone-test", out_dir / "clone_test.manifest.json")
    cases["simulate"] = ("simulate", out_dir / "simulate.manifest.json")
    return tmp, cases


@pytest.mark.parametrize(
    "case",
    ["build-prefs", "build-game", "solve-ne", "solve-cce", "rate-eq", "rate-elo"]
    + ["decompose", "clone-test", "enumerate", "simulate"],
)
def test_every_command_writes_its_manifest(manifests, case):
    _, cases = manifests
    command, path = cases[case]
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["command"] == manifest["args"]["command"] == command
    assert manifest["inputs"]
    for name, digest in manifest["inputs"].items():
        with open(name, "rb") as fh:
            assert digest == hashlib.sha256(fh.read()).hexdigest()
    assert manifest["outputs"] and all(os.path.exists(p) for p in manifest["outputs"])
    assert manifest["wall_time_s"] >= 0


def test_clone_test_tables_use_the_rate_csv_format(manifests):
    tmp, _ = manifests

    def header(path):
        with open(path, newline="", encoding="utf-8") as fh:
            return next(csv.reader(fh))

    expected = ["player", "label", "rating", "mass", "rank"]
    assert header(tmp / "out" / "ranking_cce_1.csv") == header(tmp / "cce_rate.json.csv") == expected


def test_equilibrium_files_keep_their_config_and_trace_keys(manifests):
    tmp, _ = manifests
    configs = {
        "ne": ["tau_terminal", "epsilon_ne", "max_steps"],
        "cce": ["max_steps", "epsilon_cce"],
    }
    for method, keys in configs.items():
        with open(tmp / f"{method}.json", encoding="utf-8") as fh:
            eq = json.load(fh)
        assert list(eq["config"]) == keys
        assert all(list(r) == ["step", "tau", "loss", "exploitability"] for r in eq["trace"])


def test_trajectory_files_keep_their_keys(manifests):
    tmp, _ = manifests
    with open(tmp / "out" / "trajectory_elo.json", encoding="utf-8") as fh:
        traj = json.load(fh)
    assert list(traj) == ["config", "trials"]
    (trial,) = traj["trials"]
    assert list(trial) == ["trial", "seed", "aborted", "abort_info", "fallbacks", "snapshots"]
    assert all(list(s) == ["t", "prompts", "models", "H_p", "H_m"] for s in trial["snapshots"])
    with open(tmp / "out" / "trajectory_elo.csv", encoding="utf-8") as fh:
        assert fh.readline() == "t,prompts,models,H_p,H_m,method,trial,seed\n"


def test_enumerate_writes_bundle_table_and_manifest(tmp_path, chicken):
    path = tmp_path / "chicken.json"
    save_game(chicken, path)
    out = tmp_path / "enum.json"
    argv = ["enumerate", "--game", str(path), "--out", str(out)]
    assert main(argv + ["--count", "3"]) == 0
    with open(out, encoding="utf-8") as fh:
        bundle = json.load(fh)
    assert bundle["complete"] is True
    assert len(bundle["equilibria"]) == 3
    assert bundle["stalled"] >= 0
    with open(f"{out}.risk.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["equilibrium", "payoff_player_0", "payoff_player_1"]
    assert len(rows) == 4
    assert (tmp_path / "enum.json.manifest.json").exists()
    assert main(argv + ["--count", "0"]) == 2


@pytest.mark.parametrize("epsilon", ["nan", "-0.1"])
def test_enumerate_rejects_a_nan_or_negative_epsilon(tmp_path, capsys, chicken, epsilon):
    path, out_dir = tmp_path / "chicken.json", tmp_path / "out"
    save_game(chicken, path)
    out_dir.mkdir()
    argv = ["enumerate", "--game", str(path), "--count", "2", "--out", str(out_dir / "enum.json")]
    assert main([*argv, f"--epsilon={epsilon}"]) == 2
    assert "epsilon" in capsys.readouterr().err
    assert not list(out_dir.iterdir())


def _write_full_game(kg, path):
    """A game file with all three tensors, as the benchmark's inputs write it."""
    data = games.game_to_dict(kg.game)
    data["clone_sources"] = list(kg.clone_sources)
    path.write_text(json.dumps(data), encoding="utf-8")


def test_king_only_file_round_trips_through_build_and_rate(tmp_path):
    game, kg = _build_game(tmp_path, prompts=6, models=5)
    with open(game, encoding="utf-8") as fh:
        data = json.load(fh)
    assert "king" in data and "utilities" not in data
    with open(f"{game}.manifest.json", encoding="utf-8") as fh:
        timings = json.load(fh)["timings"]
    assert set(timings) == {"read_s", "tabulate_s", "write_s"}
    assert all(t >= 0 for t in timings.values())
    again = tmp_path / "again.json"
    assert main(["build", "--game", str(game), "--out", str(again)]) == 0
    assert again.read_bytes() == game.read_bytes()
    out = tmp_path / "elo.json"
    assert main(["rate", "--game", str(again), "--method", "elo", "--out", str(out)]) == 0
    with open(out, encoding="utf-8") as fh:
        (table,) = json.load(fh)["tables"]
    assert table["ratings"] == ratings.elo_ratings(koth.prompt_average_win_matrix(kg)).tolist()


def test_full_game_file_rates_like_the_king_only_file(tmp_path):
    king_only, kg = _build_game(tmp_path, prompts=6, models=4)
    full = tmp_path / "full.json"
    _write_full_game(kg, full)
    outputs = {}
    for name, game in (("king", king_only), ("full", full)):
        eq, rated, elo = (tmp_path / f"{name}_{x}.json" for x in ("eq", "rate", "elo"))
        assert main(["solve", "--game", str(game), "--out", str(eq)]) == 0
        assert main(["rate", "--game", str(game), "--equilibrium", str(eq), "--out", str(rated)]) == 0
        assert main(["rate", "--game", str(game), "--method", "elo", "--out", str(elo)]) == 0
        paths = (eq, rated, tmp_path / f"{name}_rate.json.csv", elo, tmp_path / f"{name}_elo.json.csv")
        outputs[name] = [p.read_bytes() for p in paths]
    assert outputs["king"] == outputs["full"]


def test_king_list_file_solves_and_rates_like_the_base64_file(tmp_path):
    # a king-only file of older builds holds the king tensor as a JSON list
    king_b64, _ = _build_game(tmp_path, prompts=6, models=4)
    data = json.loads(king_b64.read_text(encoding="utf-8"))
    assert isinstance(data["king"], str)
    data["king"] = _read_game(king_b64)[0].utilities[1].ravel().tolist()
    king_list = tmp_path / "list.json"
    king_list.write_text(json.dumps(data), encoding="utf-8")
    outputs = {}
    for name, game in (("b64", king_b64), ("list", king_list)):
        paths = []
        for method in ("ne", "cce"):
            eq, rated = tmp_path / f"{name}_{method}.json", tmp_path / f"{name}_{method}_rate.json"
            assert main(["solve", "--game", str(game), "--method", method, "--out", str(eq)]) == 0
            assert main(["rate", "--game", str(game), "--equilibrium", str(eq), "--out", str(rated)]) == 0
            paths += [eq, rated, tmp_path / f"{rated.name}.csv"]
        elo = tmp_path / f"{name}_elo.json"
        assert main(["rate", "--game", str(game), "--method", "elo", "--out", str(elo)]) == 0
        paths += [elo, tmp_path / f"{elo.name}.csv"]
        outputs[name] = [p.read_bytes() for p in paths]
    assert outputs["b64"] == outputs["list"]


def test_king_string_keeps_every_bit_through_save_read_and_build(tmp_path):
    edge = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1 + 0.2, -5e-324]
    u_k = np.resize(np.array(edge), (3, 2, 2))
    kg = koth._koth_game(u_k, ["q0", "q1", "q2"], ["m0", "m1"], [None, 0, None])
    path, again = tmp_path / "edge.json", tmp_path / "again.json"
    _save_koth(kg, path)
    assert isinstance(json.loads(path.read_text(encoding="utf-8"))["king"], str)
    assert main(["build", "--game", str(path), "--out", str(again)]) == 0
    assert again.read_bytes() == path.read_bytes()
    for p in (path, again):
        game, sources = _read_game(p)
        assert sources == [None, 0, None]
        for got, want in zip(game.utilities, koth._koth_tensors(u_k)):
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_rate_rejects_a_bad_king_string(tmp_path, capsys):
    game, _ = _build_game(tmp_path, prompts=3, models=3)
    data = json.loads(game.read_text(encoding="utf-8"))
    raw = base64.b64decode(data["king"])
    cases = (
        # a lenient decoder would skip the "!" and read the tensor intact
        (data["king"][:8] + "!" + data["king"][8:], "not base64"),
        (base64.b64encode(raw[:-8]).decode("ascii"), "holds 26 float64 cells, shape [3, 3, 3] needs 27"),
        (base64.b64encode(raw[:-3]).decode("ascii"), "holds 26.625 float64 cells"),
    )
    bad = tmp_path / "bad.json"
    for king, message in cases:
        bad.write_text(json.dumps({**data, "king": king}), encoding="utf-8")
        assert main(["rate", "--game", str(bad), "--method", "elo", "--out", str(tmp_path / "elo.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and message in err
        assert err.count("\n") == 1


def test_build_reports_a_csv_field_over_the_size_limit(tmp_path, capsys):
    # the quote sends the file through csv.reader, whose field limit is
    # process-global and left as it is
    prefs, out = tmp_path / "prefs.csv", tmp_path / "game.json"
    label = "q" * (csv.field_size_limit() + 1)
    prefs.write_text(f'prompt_id,model_a,model_b,score\n"{label}",m0,m1,0.5\n', encoding="utf-8")
    assert main(["build", "--prefs", str(prefs), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {prefs}, line 2: field larger than field limit")
    assert err.count("\n") == 1
    assert not out.exists()


def test_tampered_koth_file_rejected(tmp_path, capsys):
    _, kg = _build_game(tmp_path, prompts=3, models=3)
    for player, cell in ((0, 1), (2, 1), (2, 0)):
        data = games.game_to_dict(kg.game)
        data["clone_sources"] = list(kg.clone_sources)
        data["utilities"][player][cell] += 0.25
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        argv = ["clone-test", "--game", str(path), "--target", "m0", "--counts", "0,1"]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2
        assert main(["build", "--game", str(path), "--out", str(tmp_path / "out.json")]) == 2
        assert capsys.readouterr().err.count("expected a prompt/king/rebel game") == 2


def _judge_scores(prompts, models, seed):
    """Judge scores with the form of the benchmark's generator: skill gap,
    per-prompt effect, judge noise and position bias, quantised."""
    rng = np.random.default_rng(seed)
    strength = rng.normal(0.0, 0.6, size=models)[None, :] + rng.normal(0.0, 0.35, size=(prompts, models))
    margin = strength[:, :, None] - strength[:, None, :]
    margin = margin + rng.normal(0.0, 0.3, size=margin.shape) + 0.05
    mag = np.where(np.abs(margin) < 0.25, 0.0, np.where(np.abs(margin) < 0.9, 0.5, 1.0))
    return np.sign(margin) * mag


def test_prompt_clones_move_elo_but_not_equilibrium_ranks(tmp_path):
    """The paper's headline, through build and clone-test: adversarial
    prompt clones move a model's Elo rank, not its NE or CCE rank."""
    s = _judge_scores(100, 10, 0)
    prefs = tmp_path / "prefs.csv"
    with open(prefs, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["prompt_id", "model_a", "model_b", "score"])
        for p in range(100):
            for a in range(10):
                for b in range(10):
                    if a != b:
                        writer.writerow([f"q{p:03d}", f"m{a}", f"m{b}", s[p, a, b]])
    game = tmp_path / "game.json"
    assert main(["build", "--prefs", str(prefs), "--out", str(game)]) == 0
    kg = koth.build_koth(koth.read_preference_csv(prefs))
    elo = ratings.elo_ratings(koth.prompt_average_win_matrix(kg))
    target = sorted(kg.models, key=lambda m: (-elo[kg.models.index(m)], m))[4]
    argv = ["clone-test", "--game", str(game), "--target", target, "--counts", "0,100"]
    argv += ["--lambda", "10", "--seed", "0", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    with open(tmp_path / "clone_test_summary.json", encoding="utf-8") as fh:
        rank = {(r["method"], r["count"]): r["target_rank"] for r in json.load(fh)["rows"]}
    assert rank["elo", 0] == 5
    assert rank["elo", 100] != rank["elo", 0]
    assert rank["ne", 100] == rank["ne", 0]
    assert rank["cce", 100] == rank["cce", 0]
