import csv
import math

import numpy as np
import pytest

from eqrate.errors import DimensionError, ParameterError
from eqrate.games import JointDistribution, ProductProfile
from eqrate.ratings import (
    DEFAULT_TIE_TOL,
    ELO_SCALE,
    RatingReport,
    decompose,
    elo_ratings,
    ranks_with_ties,
    rate,
    separability,
)
from conftest import random_game, rank_of, uniform_product


class TestRate:
    def test_rps_uniform_all_zero_single_tie(self, rps):
        report = rate(rps, uniform_product(rps), "NE")
        assert np.allclose(report.ratings[0], 0.0)
        assert list(report.ranks[0]) == [1, 1, 1]

    def test_chicken_mixed_ne_both_zero(self, chicken):
        ne = ProductProfile((np.array([11 / 12, 1 / 12]),) * 2)
        report = rate(chicken, ne, "NE")
        assert np.allclose(report.ratings[0], 0.0, atol=1e-12)
        assert list(report.ranks[0]) == [1, 1]

    def test_chicken_both_swerve_straight_ranks_first(self, chicken):
        prof = ProductProfile((np.array([1.0, 0.0]), np.array([1.0, 0.0])))
        report = rate(chicken, prof, "NE")
        assert report.ratings[0][1] == pytest.approx(1.0)
        assert report.ratings[0][0] == pytest.approx(0.0)
        assert rank_of(report, 0, "straight") == 1
        assert rank_of(report, 0, "swerve") == 2
        assert report.ranking(0) == ["straight", "swerve"]

    def test_masses_from_joint(self, rps):
        joint = JointDistribution(np.full((3, 3), 1 / 9))
        report = rate(rps, joint, "CCE")
        assert np.allclose(report.masses[0], 1 / 3)

    def test_zero_exploitability_profile_has_no_positive_rating(self, rps):
        report = rate(rps, uniform_product(rps), "NE")
        for r in report.ratings:
            assert r.max() <= 1e-12

    def test_report_serialization(self, tmp_path, rps):
        report = rate(rps, uniform_product(rps), "NE")
        jpath = tmp_path / "report.json"
        cpath = tmp_path / "report.csv"
        report.save_json(jpath)
        report.save_csv(cpath)
        with open(cpath) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert {r["player"] for r in rows} == {"p1", "p2"}


class TestRanks:
    def test_competition_style_with_gaps(self):
        ranks = ranks_with_ties(np.array([1.0, 1.0, 0.5]), ["a", "b", "c"], 1e-4)
        assert list(ranks) == [1, 1, 3]

    def test_tie_groups_are_transitive(self):
        # chained closeness does not merge groups beyond the leader gap
        ranks = ranks_with_ties(
            np.array([1.0, 0.99995, 0.99991, 0.5]), ["a", "b", "c", "d"], 1e-4
        )
        assert list(ranks) == [1, 1, 1, 4]
        ranks = ranks_with_ties(
            np.array([1.0, 0.99995, 0.9999, 0.99985]), ["a", "b", "c", "d"], 1e-4
        )
        # d is within 1e-4 of c but not of the leader a: new group at c? no --
        # group leader is a; c at 1e-4 exactly stays; d starts a new group
        assert list(ranks) == [1, 1, 1, 4]

    def test_alphabetical_within_ties(self, rps):
        report = rate(rps, uniform_product(rps), "NE")
        assert report.ranking(0) == ["paper", "rock", "scissors"]

    @pytest.mark.parametrize("ratings", [[5.6e-9, -3.4e-9, -1.0], [-3.4e-9, 5.6e-9, -1.0]])
    def test_ranking_follows_tie_groups_not_rounding(self, ratings):
        # two ratings apart by rounding only, in either exact order
        labels = ("model7", "model5", "model0")
        r = np.array(ratings)
        report = RatingReport(
            players=("king",),
            labels=(labels,),
            ratings=(r,),
            masses=None,
            ranks=(ranks_with_ties(r, labels, DEFAULT_TIE_TOL),),
            method="CCE",
            tie_tolerance=DEFAULT_TIE_TOL,
        )
        assert report.ranking(0) == ["model5", "model7", "model0"]


class TestDecompose:
    def test_sum_identity_random_games(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            shape = tuple(rng.integers(2, 5, size=rng.integers(2, 4)))
            game = random_game(shape, seed=100 + trial)
            joint = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
            prof = JointDistribution(joint)
            n = len(shape)
            player = int(rng.integers(n))
            co = int((player + 1) % n)
            action = int(rng.integers(shape[player]))
            table = decompose(game, prof, player, action, co)
            from eqrate.games import regret

            assert table.contributions.sum() == pytest.approx(
                regret(game, prof, player, action), abs=1e-9
            )

    def test_rps_uniform_paper_contributions(self, rps):
        joint = JointDistribution(np.full((3, 3), 1 / 9))
        table = decompose(rps, joint, 0, 1, 1)  # player 1 deviating to paper
        assert np.allclose(table.contributions, [1 / 3, 0.0, -1 / 3])
        assert table.rating == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_single_contribution(self, chicken):
        joint = np.zeros((2, 2))
        joint[0, 1] = 1.0
        table = decompose(chicken, JointDistribution(joint), 0, 1, 1)
        assert table.contributions[0] == pytest.approx(0.0)
        assert table.contributions[1] == pytest.approx(-11.0)

    def test_product_profile_lifted(self, rps):
        prof = uniform_product(rps)
        table = decompose(rps, prof, 0, 1, 1)
        assert np.allclose(table.contributions, [1 / 3, 0.0, -1 / 3])

    def test_grouping_sums(self, rps):
        joint = JointDistribution(np.full((3, 3), 1 / 9))
        grouping = {"rock": "hard", "scissors": "hard", "paper": "soft"}
        table = decompose(rps, joint, 0, 1, 1, grouping)
        assert table.family_sums["hard"] == pytest.approx(0.0, abs=1e-12)
        assert table.family_sums["soft"] == pytest.approx(0.0, abs=1e-12)

    def test_same_player_rejected(self, rps):
        with pytest.raises(ParameterError):
            decompose(rps, uniform_product(rps), 0, 0, 0)

    @pytest.mark.parametrize("player, co_player", [(2, 0), (0, -1)])
    def test_player_index_out_of_range(self, rps, player, co_player):
        with pytest.raises(DimensionError, match="player index out of range"):
            decompose(rps, uniform_product(rps), player, 0, co_player)

    def test_action_and_profile_shape_checked(self, rps, chicken):
        with pytest.raises(DimensionError, match="action index out of range"):
            decompose(rps, uniform_product(rps), 0, 3, 1)
        with pytest.raises(DimensionError, match="profile shape does not match game"):
            decompose(rps, uniform_product(chicken), 0, 0, 1)

    def test_csv_with_family_totals(self, tmp_path, rps):
        joint = JointDistribution(np.full((3, 3), 1 / 9))
        table = decompose(rps, joint, 0, 1, 1, {"rock": "fam"})
        path = tmp_path / "decomp.csv"
        table.save_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        kinds = [r[0] for r in rows[1:]]
        assert "action" in kinds and "family_total" in kinds and "total" in kinds


class TestElo:
    def test_all_half_gives_zeros(self):
        w = np.full((4, 4), 0.5)
        assert np.allclose(elo_ratings(w), 0.0, atol=1e-6)

    def test_identical_models_equal_ratings(self):
        # models 0 and 1 behave identically against everyone
        w = np.array(
            [
                [0.5, 0.5, 0.8],
                [0.5, 0.5, 0.8],
                [0.2, 0.2, 0.5],
            ]
        )
        r = elo_ratings(w)
        assert r[0] == pytest.approx(r[1], abs=1e-9 * ELO_SCALE)

    def test_two_model_gap_matches_logistic_inverse(self):
        w = np.array([[0.5, 0.76], [0.24, 0.5]])
        r = elo_ratings(w, lambda_reg=1e-9)
        gap = r[0] - r[1]
        expected = math.log(0.76 / 0.24) * ELO_SCALE  # about 200 points
        assert gap == pytest.approx(expected, rel=0.02)
        assert expected == pytest.approx(200.0, rel=0.01)

    def test_shift_equivariance_in_log_odds(self):
        # boosting one model's win odds by a constant factor shifts its
        # rating by log(factor) and leaves all other differences unchanged
        rng = np.random.default_rng(8)
        m = 5
        v = rng.normal(size=m)
        w = 1.0 / (1.0 + np.exp(-(v[:, None] - v[None, :])))
        np.fill_diagonal(w, 0.5)
        factor = 1.7
        odds0 = w[0] / (1 - w[0])
        boosted = factor * odds0 / (1 + factor * odds0)
        w2 = w.copy()
        w2[0] = boosted
        w2[:, 0] = 1 - boosted
        np.fill_diagonal(w2, 0.5)
        r1 = elo_ratings(w, lambda_reg=1e-9)
        r2 = elo_ratings(w2, lambda_reg=1e-9)
        rest1 = r1[1:] - r1[1:].mean()
        rest2 = r2[1:] - r2[1:].mean()
        assert np.allclose(rest1, rest2, atol=1e-6 * ELO_SCALE)
        gap_shift = (r2[0] - r2[1]) - (r1[0] - r1[1])
        assert gap_shift == pytest.approx(math.log(factor) * ELO_SCALE, rel=1e-4)

    def test_validation(self):
        with pytest.raises(ParameterError):
            elo_ratings(np.array([[0.5, 0.7], [0.4, 0.5]]))
        with pytest.raises(ParameterError):
            elo_ratings(np.array([[0.4, 0.7], [0.3, 0.5]]))
        with pytest.raises(DimensionError, match="square"):
            elo_ratings(np.full((2, 3), 0.5))
        with pytest.raises(ParameterError, match=r"in \[0, 1\]"):
            elo_ratings(np.array([[0.5, 1.5], [-0.5, 0.5]]))

    def test_one_model_rates_zero(self):
        assert elo_ratings(np.array([[0.5]])).tolist() == [0.0]

    def test_degenerate_all_wins_finite(self):
        w = np.array([[0.5, 1.0], [0.0, 0.5]])
        r = elo_ratings(w)
        assert np.all(np.isfinite(r))
        assert r[0] > r[1]


class TestSeparability:
    def test_all_zero(self):
        assert separability(np.zeros((2, 3, 3)), 0) == 0.0

    def test_shape_and_prompt_checked(self):
        with pytest.raises(DimensionError, match="prompts x models x models"):
            separability(np.zeros((2, 3, 2)), 0)
        with pytest.raises(DimensionError, match="prompt index out of range"):
            separability(np.zeros((2, 3, 3)), 2)

    def test_full_separation(self):
        u = np.ones((1, 2, 2))
        assert separability(u, 0) == pytest.approx(1.0)

    def test_two_model_skill_world_case(self):
        p = np.array([1.0, 0.0])
        ma, mb = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        models = [ma, mb]
        u = np.zeros((1, 2, 2))
        for i in range(2):
            for j in range(2):
                u[0, i, j] = p @ (models[i] - models[j])
        assert separability(u, 0) == pytest.approx(0.5)
