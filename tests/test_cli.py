import csv
import json

import numpy as np
import pytest

from eqrate import koth, ratings
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
