import csv
import json

import numpy as np
import pytest

from eqrate import games, koth, ratings
from eqrate.cli import main
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
    # tau_init 1 down to 0.01 by factors of 0.95: 0.95**89 is the last above
    assert manifest["stages"] == 91 == len({r["tau"] for r in trace})
    assert manifest["steps"] == trace[-1]["step"]
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


def test_simulate_rejects_zero_check_interval(tmp_path):
    # the Newton trace has no check interval, so the key is unknown
    config = tmp_path / "sim.json"
    solver = {"anneal_check_interval": 0}
    raw = {"rating_method": "ne", "trials": 1, "iterations": 1, "solver": solver}
    config.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path)]) == 2


def test_simulate_rejects_unknown_keys(tmp_path, capsys):
    base = {"rating_method": "ne", "trials": 1, "iterations": 1}
    for extra, key in (({"solver": {"anneal_gate_typo": 1e-5}}, "anneal_gate_typo"), ({"bogus": 3}, "bogus")):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({**base, **extra}))
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path)]) == 2
        assert repr(key) in capsys.readouterr().err


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
