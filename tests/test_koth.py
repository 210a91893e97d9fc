import numpy as np
import pytest
from scipy.stats import chisquare

from eqrate.cli import main
from eqrate.errors import DimensionError, IncompleteDataError, ParameterError
from eqrate.kernels import dissimilarity_joint
from eqrate.koth import (
    SCORES,
    KOTHGame,
    PreferenceRecord,
    PreferenceTable,
    adversarial_prompt_sampler,
    build_koth,
    inject_clones,
    mean_king_payoff,
    prompt_average_win_matrix,
    read_preference_csv,
)


def rec(p, a, b, s):
    return PreferenceRecord(prompt_id=p, model_a=a, model_b=b, score=s)


@pytest.fixture
def small_koth():
    records = [
        rec("q1", "alpha", "beta", 1.0),
        rec("q1", "alpha", "gamma", 0.5),
        rec("q1", "beta", "gamma", 0.0),
        rec("q2", "alpha", "beta", -0.5),
        rec("q2", "alpha", "gamma", 1.0),
        rec("q2", "gamma", "beta", -1.0),
    ]
    return build_koth(records)


class TestBuild:
    def test_single_pair_definition(self):
        kg = build_koth([rec("q", "a", "b", 1.0)])
        u_p, u_k, u_r = kg.game.utilities
        ia, ib = kg.models.index("a"), kg.models.index("b")
        assert u_k[0, ia, ib] == 1.0
        assert u_k[0, ib, ia] == -1.0
        assert u_p[0, ia, ib] == 1.0 and u_p[0, ib, ia] == 1.0
        assert u_r[0, ia, ib] == -1.0
        assert u_r[0, ia, ia] == -1.0 and u_r[0, ib, ib] == -1.0
        assert u_k[0, ia, ia] == 0.0 and u_p[0, ia, ia] == 0.0

    def test_opposing_samples_average_to_zero(self):
        kg = build_koth([rec("q", "a", "b", 1.0), rec("q", "a", "b", -1.0)])
        assert kg.u_king[0].max() == 0.0
        assert kg.game.utilities[0][0].max() == 0.0

    def test_half_point_scale(self):
        kg = build_koth([rec("q", "a", "b", 0.5)])
        ia, ib = kg.models.index("a"), kg.models.index("b")
        assert kg.game.utilities[0][0, ia, ib] == 0.5
        assert kg.game.utilities[2][0, ia, ib] == -0.5

    def test_position_bias_symmetrization(self):
        kg = build_koth([rec("q", "a", "b", 1.0), rec("q", "b", "a", 0.0)])
        ia, ib = kg.models.index("a"), kg.models.index("b")
        # forward mean 1.0, reversed mean -0.0: cell is the average 0.5
        assert kg.u_king[0, ia, ib] == pytest.approx(0.5)
        assert kg.u_king[0, ib, ia] == pytest.approx(-0.5)

    def test_missing_cell_listed(self):
        records = [rec("q1", "a", "b", 1.0), rec("q2", "a", "c", 1.0)]
        with pytest.raises(IncompleteDataError) as exc:
            build_koth(records)
        assert ("q1", "a", "c") in exc.value.missing

    def test_invalid_score_rejected(self):
        with pytest.raises(ParameterError):
            rec("q", "a", "b", 0.3)

    def test_self_comparison_rejected(self):
        with pytest.raises(ParameterError):
            rec("q", "a", "a", 0.0)

    def test_invariants_on_built_game(self, small_koth):
        u_p, u_k, u_r = small_koth.game.utilities
        assert np.all(u_p >= 0)
        assert np.array_equal(u_p, np.abs(u_k))
        m = u_k.shape[1]
        off = ~np.eye(m, dtype=bool)
        assert np.allclose((u_r + u_k)[:, off], 0.0)
        diag = np.arange(m)
        assert np.all(u_r[:, diag, diag] == -1.0)
        assert np.allclose(u_k, -u_k.transpose(0, 2, 1))


class TestSampler:
    def test_mean_king_payoff(self, small_koth):
        ubar = mean_king_payoff(small_koth, "alpha")
        ia = small_koth.models.index("alpha")
        assert np.allclose(ubar, small_koth.u_king[:, ia, :].mean(axis=1))

    def test_lambda_zero_is_uniform(self, small_koth):
        draws = adversarial_prompt_sampler(small_koth, "alpha", lam=0.0, count=10_000, seed=1)
        counts = np.bincount(draws, minlength=2)
        assert chisquare(counts).pvalue > 0.01

    def test_lambda_large_is_argmin(self, small_koth):
        ubar = mean_king_payoff(small_koth, "alpha")
        worst = int(np.argmin(ubar))
        draws = adversarial_prompt_sampler(small_koth, "alpha", lam=1e6, count=200, seed=2)
        assert set(draws) == {worst}

    def test_default_lambda_is_ten(self, small_koth):
        import inspect

        sig = inspect.signature(adversarial_prompt_sampler)
        assert sig.parameters["lam"].default == 10.0

    def test_unknown_model(self, small_koth):
        with pytest.raises(ParameterError):
            adversarial_prompt_sampler(small_koth, "nope", count=1)


class TestInjectClones:
    def test_exact_clones_bit_identical(self, small_koth):
        out = inject_clones(small_koth, [1, 0], noise_halfwidth=0.0)
        assert len(out.prompts) == 4
        assert np.array_equal(out.u_king[3], small_koth.u_king[0])
        assert np.array_equal(out.u_king[2], small_koth.u_king[1])
        D = dissimilarity_joint(out.game, 0)
        assert D[0, 3] == 0.0 and D[1, 2] == 0.0
        assert out.clone_sources == (None, None, 1, 0)

    def test_original_rows_untouched(self, small_koth):
        out = inject_clones(small_koth, [0] * 250, noise_halfwidth=0.0)
        assert len(out.prompts) == len(small_koth.prompts) + 250
        assert np.array_equal(out.u_king[:2], small_koth.u_king)
        for player in range(3):
            assert np.array_equal(
                out.game.utilities[player][:2], small_koth.game.utilities[player]
            )

    def test_noise_bounded(self, small_koth):
        out = inject_clones(small_koth, [0, 1, 0], noise_halfwidth=0.01, seed=3)
        delta = out.u_king[2] - small_koth.u_king[0]
        assert np.abs(delta).max() <= 0.01
        assert np.abs(delta).max() > 0.0
        # structure invariants survive noise
        u_p, u_k, u_r = out.game.utilities
        assert np.array_equal(u_p, np.abs(u_k))
        m = u_k.shape[1]
        diag = np.arange(m)
        assert np.all(u_r[:, diag, diag] == -1.0)
        assert np.all(u_k[:, diag, diag] == 0.0)

    def test_labels_unique(self, small_koth):
        out = inject_clones(small_koth, [0, 0, 1])
        assert len(set(out.prompts)) == len(out.prompts)

    def test_noop_on_empty(self, small_koth):
        assert inject_clones(small_koth, []) is small_koth


class TestWinMatrix:
    def test_diagonal_and_complement(self, small_koth):
        w = prompt_average_win_matrix(small_koth)
        assert np.allclose(np.diag(w), 0.5)
        assert np.allclose(w + w.T, 1.0)

    def test_values(self):
        kg = build_koth([rec("q", "a", "b", 1.0)])
        w = prompt_average_win_matrix(kg)
        ia, ib = kg.models.index("a"), kg.models.index("b")
        assert w[ia, ib] == pytest.approx(1.0)
        assert w[ib, ia] == pytest.approx(0.0)


def test_preference_csv_round_trip(tmp_path):
    path = tmp_path / "prefs.csv"
    path.write_text(
        "prompt_id,model_a,model_b,score\n"
        "q1,alpha,beta,1\n"
        "q1,alpha,beta,-0.5\n",
        encoding="utf-8",
    )
    records = read_preference_csv(path)
    assert len(records) == 2
    assert records[1].score == -0.5
    with pytest.raises(ParameterError):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n", encoding="utf-8")
        read_preference_csv(bad)


def test_clone_sources_length_checked(small_koth):
    with pytest.raises(DimensionError):
        KOTHGame(game=small_koth.game, clone_sources=(None,))


def reference_king(records):
    """The per-record tabulation: dict sums, then the cell loop."""
    prompts = sorted({r.prompt_id for r in records})
    models = sorted({r.model_a for r in records} | {r.model_b for r in records})
    p_idx = {p: i for i, p in enumerate(prompts)}
    m_idx = {m: i for i, m in enumerate(models)}
    sums, counts = {}, {}
    for r in records:
        key = (p_idx[r.prompt_id], m_idx[r.model_a], m_idx[r.model_b])
        sums[key] = sums.get(key, 0.0) + r.score
        counts[key] = counts.get(key, 0) + 1
    P, M = len(prompts), len(models)
    u_k = np.zeros((P, M, M))
    missing = []
    for p in range(P):
        for a in range(M):
            for b in range(a + 1, M):
                vals = []
                if (p, a, b) in sums:
                    vals.append(sums[p, a, b] / counts[p, a, b])
                if (p, b, a) in sums:
                    vals.append(-sums[p, b, a] / counts[p, b, a])
                if not vals:
                    missing.append((prompts[p], models[a], models[b]))
                    continue
                u_k[p, a, b] = float(np.mean(vals))
                u_k[p, b, a] = -u_k[p, a, b]
    return u_k, missing


def random_records(seed, prompts=7, models=5, drop=0.0):
    """Shuffled samples: each pair judged 1-3 times forward, reverse or both."""
    rng = np.random.default_rng(seed)
    records = []
    for p in range(prompts):
        for a in range(models):
            for b in range(a + 1, models):
                if rng.random() < drop:
                    continue
                sides = [(a, b), (b, a)][: rng.integers(1, 3)]
                if rng.random() < 0.5:
                    sides = sides[::-1]
                for x, y in sides:
                    for _ in range(rng.integers(1, 4)):
                        records.append(rec(f"q{p}", f"m{x}", f"m{y}", float(rng.choice(SCORES))))
    return [records[i] for i in rng.permutation(len(records))]


@pytest.mark.parametrize("seed", range(5))
def test_build_matches_per_record_tabulation(seed):
    records = random_records(seed)
    expected, missing = reference_king(records)
    assert missing == []
    for given in (records, iter(records), PreferenceTable.from_records(records)):
        u_k = build_koth(given).u_king
        assert np.array_equal(u_k, expected)
        assert np.array_equal(np.signbit(u_k), np.signbit(expected))


def test_missing_cells_listed_in_row_major_order():
    records = random_records(0, drop=0.3)
    _, expected = reference_king(records)
    assert len(expected) > 5
    with pytest.raises(IncompleteDataError) as exc:
        build_koth(records)
    assert exc.value.missing == expected
    assert str(exc.value).startswith(f"{len(expected)} (prompt, model pair) cells have no ratings")


def test_table_rejects_what_a_record_rejects():
    with pytest.raises(ParameterError, match="score 0.3 not in the 5-point scale"):
        PreferenceTable(("q", "q"), ("a", "a"), ("b", "b"), [1.0, 0.3])
    with pytest.raises(ParameterError, match="self-comparisons"):
        PreferenceTable(("q", "q"), ("a", "a"), ("b", "a"), [1.0, 0.0])
    # the first bad row decides, as when records are made one by one
    with pytest.raises(ParameterError, match="self-comparisons"):
        PreferenceTable(("q", "q"), ("a", "a"), ("a", "b"), [1.0, 0.3])
    with pytest.raises(DimensionError):
        PreferenceTable(("q",), ("a", "a"), ("b", "b"), [1.0, 0.5])


def test_preference_csv_columns_found_by_name(tmp_path):
    path = tmp_path / "prefs.csv"
    path.write_text(
        "judge,score,model_b,prompt_id,model_a\n"
        "j1,0.5,beta,q1,alpha\n"
        "\n"
        "j2,-1,alpha,q2,beta\n",
        encoding="utf-8",
    )
    table = read_preference_csv(path)
    assert len(table) == 2
    assert table[0] == rec("q1", "alpha", "beta", 0.5)
    assert table[1] == rec("q2", "beta", "alpha", -1.0)


def _write_prefs(tmp_path, body):
    path = tmp_path / "prefs.csv"
    path.write_text("prompt_id,model_a,model_b,score\n" + body, encoding="utf-8")
    return path


def test_short_csv_row_names_its_line(tmp_path, capsys):
    path = _write_prefs(tmp_path, "q1,a,b,1\n\nq1,a\n")
    with pytest.raises(ParameterError, match="line 4: 2 fields"):
        read_preference_csv(path)
    assert main(["build", "--prefs", str(path), "--out", str(tmp_path / "game.json")]) == 2
    assert "line 4" in capsys.readouterr().err


def test_non_numeric_score_exits_2(tmp_path, capsys):
    path = _write_prefs(tmp_path, "q1,a,b,1\nq1,b,a,win\n")
    assert main(["build", "--prefs", str(path), "--out", str(tmp_path / "game.json")]) == 2
    assert "'win'" in capsys.readouterr().err
    assert not (tmp_path / "game.json").exists()
