"""Three-stage game: settlement rule, honest play, deviations, augmented form."""

import random
from fractions import Fraction as F

import pytest

from ce_sampler import (
    CeObjective,
    Game,
    HonestParty,
    JointStrategy,
    PolicyParty,
    PreferenceOracle,
    ProtocolConfig,
    RandomStream,
    ScriptedParty,
    augmented_normal_form,
    check_ce,
    emulate,
    play_extended_game,
    settle,
    solve_ce,
)
from conftest import random_rational_game


class TestSettle:
    def test_both_accept_pays_the_game(self, bos):
        assert settle(bos, JointStrategy(0, 0), ("A", "A")) == (4, 2)
        assert settle(bos, JointStrategy(1, 1), ("A", "A")) == (2, 4)

    def test_any_reject_zeroes_both(self, bos):
        for checks in (("A", "R"), ("R", "A"), ("R", "R")):
            for cell in bos.cells():
                assert settle(bos, cell, checks) == (0, 0)


class TestHonestPlay:
    def test_sigma_vs_sigma_never_rejects(self, bos, bos_fair_ce):
        config = ProtocolConfig.plan(bos, F(1, 10), F(1, 2))
        payoffs = []
        for trial in range(100):
            outcome = play_extended_game(
                bos, bos_fair_ce, config, HonestParty(), HonestParty(),
                RandomStream(17).child(trial), record_messages=False,
            )
            assert outcome.checks == ("A", "A")
            assert outcome.stage2 == outcome.transcript.output
            payoffs.append(outcome.payoffs)
        assert set(payoffs) == {(F(4), F(2)), (F(2), F(4))}

    def test_empirical_mean_near_fair_payoff(self, bos, bos_fair_ce):
        config = ProtocolConfig.plan(bos, F(1, 10), F(1, 2))
        n = 2000
        total = F(0)
        for trial in range(n):
            outcome = play_extended_game(
                bos, bos_fair_ce, config, HonestParty(), HonestParty(),
                RandomStream(19).child(trial), record_messages=False,
            )
            total += outcome.payoffs[0]
        assert abs(float(total) / n - 3.0) < 0.15


class TestDeviation:
    def test_ignoring_the_suggestion_scores_zero(self, bos, bos_fair_ce):
        config = ProtocolConfig.plan(bos, F(1, 10), F(1, 2))
        deviant = ScriptedParty(move=0)  # play row A regardless of suggestion
        saw_deviation = saw_obedience = False
        for trial in range(60):
            outcome = play_extended_game(
                bos, bos_fair_ce, config, deviant, HonestParty(),
                RandomStream(23).child(trial), record_messages=False,
            )
            suggested = outcome.transcript.output
            if suggested.s1 != 0:
                saw_deviation = True
                assert outcome.checks[1] == "R"
                assert outcome.payoffs == (0, 0)
            else:
                saw_obedience = True
                assert outcome.checks == ("A", "A")
                assert outcome.payoffs == (4, 2)
        assert saw_deviation and saw_obedience

    def test_unjustified_reject_zeroes_both(self, bos, bos_fair_ce):
        config = ProtocolConfig.plan(bos, F(1, 10), F(1, 2))
        rejector = ScriptedParty(check="R")
        outcome = play_extended_game(
            bos, bos_fair_ce, config, rejector, HonestParty(), RandomStream(29),
            record_messages=False,
        )
        assert outcome.payoffs == (0, 0)

    def test_table_outside_the_game_is_rejected(self, bos, bos_fair_ce, corner_instance):
        _, em = corner_instance
        config = ProtocolConfig(F(1, 10), F(1, 2), em.k)
        with pytest.raises(ValueError, match=r"profile \(2, 2\) is outside the game"):
            play_extended_game(
                bos, bos_fair_ce, config, HonestParty(), HonestParty(), RandomStream(30),
                em=em, record_messages=False,
            )

    def test_second_checker_sees_the_first_move(self, bos, bos_fair_ce):
        observed = []

        class Recorder(HonestParty):
            def check_move(self, transcript, opponent_move, opponent_check=None):
                observed.append((self.player, opponent_check))
                return super().check_move(transcript, opponent_move, opponent_check)

        config = ProtocolConfig.plan(bos, F(1, 10), F(1, 2))
        play_extended_game(
            bos, bos_fair_ce, config, Recorder(), Recorder(), RandomStream(31),
            record_messages=False,
        )
        assert observed == [(1, None), (2, "A")]


class TestAnnouncementCheck:
    """σ compares every opponent announcement with the opponent's true preference."""

    def test_false_root_announcement_is_rejected(self, diagonal_instance):
        game, p, em = diagonal_instance
        config = ProtocolConfig(F(1, 10), F(1), em.k)
        true_sign = PreferenceOracle(em, game).preference(1, ())
        liar = ScriptedParty(announce={(): -true_sign})
        root_bits = set()
        for trial in range(20):
            outcome = play_extended_game(
                game, p, config, liar, HonestParty(), RandomStream(43).child(trial),
                em=em, record_messages=False,
            )
            first = outcome.transcript.rounds[0]
            assert first.resolution == "coin"  # the lie manufactured a flip
            root_bits.add(outcome.transcript.ell[0])
            assert outcome.checks == ("A", "R")
            assert outcome.payoffs == (0, 0)
        assert root_bits == {0, 1}

    def test_truthful_request_zero_is_accepted(self, bos, bos_fair_ce):
        em = emulate(bos, bos_fair_ce, F(1, 2))
        config = ProtocolConfig(F(1, 10), F(1, 2), em.k)
        honest_bit = 0 if PreferenceOracle(em, bos).preference(2, ()) == 1 else 1
        for party1 in (ScriptedParty(win_request={(): F(0)}), PolicyParty({(): F(0)})):
            for trial in range(10):
                outcome = play_extended_game(
                    bos, bos_fair_ce, config, party1, HonestParty(),
                    RandomStream(47).child(trial), em=em, record_messages=False,
                )
                first = outcome.transcript.rounds[0]
                assert (first.resolution, first.cheater, first.win_request) == ("coin", 1, 0)
                assert outcome.transcript.ell[0] == honest_bit  # lost on purpose
                assert outcome.checks == ("A", "A")
                assert outcome.payoffs == bos.payoffs(outcome.transcript.output)

    def test_check_state_resets_per_run(self, diagonal_instance):
        game, p, em = diagonal_instance
        config = ProtocolConfig(F(1, 10), F(1), em.k)
        true_sign = PreferenceOracle(em, game).preference(1, ())
        sigma = HonestParty()
        lied = play_extended_game(
            game, p, config, ScriptedParty(announce={(): -true_sign}), sigma,
            RandomStream(53), em=em, record_messages=False,
        )
        assert lied.payoffs == (0, 0)
        honest = play_extended_game(
            game, p, config, HonestParty(), sigma, RandomStream(53), em=em,
            record_messages=False,
        )
        assert honest.checks == ("A", "A")


class TestAugmentedForm:
    def test_coinflip_expansion_table(self, coinflip):
        aug = augmented_normal_form(coinflip)
        assert aug.strategies_1 == ("0,Accept", "1,Accept", "0,Reject", "1,Reject")
        z, one = F(0), F(1)
        assert aug.u1 == (
            (one, z, z, z),
            (z, z, z, z),
            (z, z, z, z),
            (z, z, z, z),
        )
        assert aug.u2 == (
            (z, z, z, z),
            (z, one, z, z),
            (z, z, z, z),
            (z, z, z, z),
        )

    def test_reject_rows_and_columns_are_zero(self, bos):
        aug = augmented_normal_form(bos)
        for r in range(4):
            for c in range(4):
                if r >= 2 or c >= 2:
                    assert aug.u1[r][c] == 0 and aug.u2[r][c] == 0
                else:
                    assert aug.u1[r][c] == bos.u1[r][c]
                    assert aug.u2[r][c] == bos.u2[r][c]

    def test_equilibria_survive_the_expansion(self, bos, bos_fair_ce):
        # Accept-block strategies keep their original indices, so a CE of
        # the base game reads directly as a distribution of the new one.
        aug = augmented_normal_form(bos)
        assert check_ce(aug, bos_fair_ce)

    def test_solver_outputs_survive_on_random_games(self):
        rng = random.Random(71)
        for _ in range(6):
            game = random_rational_game(rng, 2, 2)
            ce = solve_ce(game, CeObjective.MAX_FAIR)
            assert check_ce(augmented_normal_form(game), ce)

    def test_normalized_flag_carries_over(self, coinflip):
        aug = augmented_normal_form(
            Game(coinflip.strategies_1, coinflip.strategies_2, coinflip.u1, coinflip.u2, True)
        )
        assert aug.normalized
