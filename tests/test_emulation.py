"""Multiset emulation: rounding, layout, the preference oracle, bit-string distributions."""

import random
from collections import Counter
from fractions import Fraction as F

import pytest

from ce_sampler import (
    Game,
    JointDistribution,
    JointStrategy,
    MultisetEmulation,
    PreferenceOracle,
    emulate,
    expected_utility,
    l1_distance,
    normalize,
    rounds_for,
)
from ce_sampler.emulation import bits_to_index, index_to_bits
from conftest import (
    block_average,
    preferred_bit,
    prefix_marginal,
    random_distribution,
    random_rational_game,
    table_law,
)


class TestRoundCount:
    def test_power_of_two_cover(self):
        assert rounds_for(4, F(1, 2)) == 3  # 8 = 4 / (1/2)
        assert rounds_for(4, F(1, 8)) == 5
        assert rounds_for(2, F(1, 2)) == 2
        assert rounds_for(1, F(2)) == 0

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            rounds_for(4, F(0))


class TestEmulate:
    def test_fair_ce_table(self, bos, bos_fair_ce):
        em = emulate(bos, bos_fair_ce, F(1, 2))
        assert em.k == 3
        assert em.table == ((0, 0),) * 4 + ((1, 1),) * 4
        assert l1_distance(table_law(em.table), bos_fair_ce.probs) == 0

    def test_dyadic_probabilities_are_exact(self):
        game = Game.from_payoffs([[1, 0]], [[0, 1]])
        p = JointDistribution({JointStrategy(0, 0): F(3, 4), JointStrategy(0, 1): F(1, 4)})
        em = emulate(game, p, F(1, 2))
        assert em.k == 2
        assert Counter(em.table) == {JointStrategy(0, 0): 3, JointStrategy(0, 1): 1}
        assert l1_distance(table_law(em.table), p.probs) == 0

    def test_uniform_on_power_of_two_support(self):
        game = Game.from_payoffs([[1, 2, 3, 4]], [[4, 3, 2, 1]])
        p = JointDistribution.uniform(list(game.cells()))
        em = emulate(game, p, F(1))
        assert l1_distance(table_law(em.table), p.probs) == 0

    def test_largest_remainder_properties(self):
        rng = random.Random(13)
        for _ in range(40):
            game = random_rational_game(rng, rng.randint(1, 3), rng.randint(1, 4))
            p = random_distribution(rng, list(game.cells()))
            delta = rng.choice([F(1, 2), F(1, 3), F(1, 8)])
            em = emulate(game, p, delta)
            counts = Counter(em.table)
            size = em.size
            assert sum(counts.values()) == size
            assert len(em.table) == size
            for cell in game.cells():
                assert abs(F(counts.get(cell, 0), size) - p.prob(cell)) < F(1, size)
            gap = l1_distance(table_law(em.table), p.probs)
            assert gap <= F(game.n_cells, size) <= delta

    def test_payoff_gap_bounded_by_budget(self):
        rng = random.Random(17)
        for _ in range(20):
            game = normalize(random_rational_game(rng, 2, rng.randint(2, 3)))
            p = random_distribution(rng, list(game.cells()))
            delta = rng.choice([F(1, 2), F(1, 4)])
            em = emulate(game, p, delta)
            induced = JointDistribution(table_law(em.table))
            for player in (1, 2):
                gap = abs(
                    expected_utility(game, induced, player) - expected_utility(game, p, player)
                )
                assert gap <= delta

    def test_layout_permutation(self, bos, bos_fair_ce):
        order = list(bos.cells())[::-1]
        em = emulate(bos, bos_fair_ce, F(1, 2), order=order)
        assert em.table == ((1, 1),) * 4 + ((0, 0),) * 4

    def test_order_must_be_permutation(self, bos, bos_fair_ce):
        with pytest.raises(ValueError):
            emulate(bos, bos_fair_ce, F(1, 2), order=[JointStrategy(0, 0)])

    def test_rejects_nonpositive_budget(self, bos, bos_fair_ce):
        with pytest.raises(ValueError):
            emulate(bos, bos_fair_ce, F(-1, 2))

    @pytest.mark.parametrize("inside", [F(1, 2), F(0)])
    def test_rejects_mass_outside_the_game(self, bos, inside):
        # Rounding over the game's cells alone would drop the outside mass
        # unseen, breaking the L1 <= delta contract.
        p = JointDistribution({JointStrategy(0, 0): inside, JointStrategy(5, 5): 1 - inside})
        with pytest.raises(ValueError, match=r"profile .*s1=5, s2=5.* outside the game"):
            emulate(bos, p, F(1, 2))

    @pytest.mark.parametrize("k, error", [(-1, ValueError), (-3, ValueError), (1.0, TypeError),
                                          ("2", TypeError), (True, TypeError), (None, TypeError)])
    def test_rejects_a_bad_round_count(self, bos_fair_ce, k, error):
        cell = JointStrategy(0, 0)
        with pytest.raises(error, match=r"^k must be"):
            MultisetEmulation(k=k, table=(cell,), source=bos_fair_ce, delta=F(1))
        with pytest.raises(ValueError, match="2\\^k"):
            MultisetEmulation(k=2, table=(cell,), source=bos_fair_ce, delta=F(1))


class TestConditionals:
    def test_branch_averages(self, bos, bos_fair_ce):
        em = emulate(bos, bos_fair_ce, F(1, 2))
        oracle = PreferenceOracle(em, bos)
        assert [block_average(em, bos, 1, (b,)) for b in (0, 1)] == [4, 2]
        assert [block_average(em, bos, 2, (b,)) for b in (0, 1)] == [2, 4]
        assert [oracle.preference(player, ()) for player in (1, 2)] == [1, -1]

    def test_full_prefix_is_single_entry(self, bos, bos_fair_ce):
        em = emulate(bos, bos_fair_ce, F(1, 2))
        oracle = PreferenceOracle(em, bos)
        for index in range(em.size):
            bits = index_to_bits(index, em.k)
            value = block_average(em, bos, 1, bits)
            assert value == bos.utility(1, em.table[index])
            assert F(oracle.numerators(1)[em.table[index]], oracle.scale(1)) == value

    def test_prefix_too_long_rejected(self, bos, bos_fair_ce):
        oracle = PreferenceOracle(emulate(bos, bos_fair_ce, F(1, 2)), bos)
        with pytest.raises(ValueError):
            oracle.preference(1, (0, 1, 1, 0))

    def test_preferred_bits_per_level(self, bos, bos_fair_ce):
        # Ties (equal branch averages) prefer 0, as in ``preference``.
        cases = [(bos, emulate(bos, bos_fair_ce, F(1, 2)))]
        rng = random.Random(41)
        for _ in range(6):
            game = random_rational_game(rng, rng.randint(2, 3), rng.randint(2, 3))
            p = random_distribution(rng, list(game.cells()))
            cases.append((game, emulate(game, p, F(1, 4))))
        for game, em in cases:
            oracle = PreferenceOracle(em, game)
            for player in (1, 2):
                ones = oracle.prefers_one(player)
                assert all(1 <= h < em.size for h in ones)
                table = [int(h in ones) for h in range(em.size)]
                for m in range(em.k):
                    prefixes = [index_to_bits(j, m) for j in range(1 << m)]
                    assert table[1 << m : 2 << m] == [
                        preferred_bit(em, game, player, prefix) for prefix in prefixes
                    ]
                    assert table[1 << m : 2 << m] == [
                        0 if oracle.preference(player, prefix) == 1 else 1 for prefix in prefixes
                    ]


def mixed_denominator_game(rng: random.Random, rows: int, cols: int) -> Game:
    """Unnormalized payoffs of both signs over the denominators 1, 3, 7 and 11."""

    def matrix():
        return [
            [F(rng.randint(-20, 20), rng.choice([1, 3, 7, 11])) for _ in range(cols)]
            for _ in range(rows)
        ]

    return Game.from_payoffs(matrix(), matrix())


class TestIntegerOracle:
    """The oracle's integer sums against sums taken directly in Fractions."""

    @staticmethod
    def cases():
        rng = random.Random(53)
        for _ in range(6):
            game = mixed_denominator_game(rng, rng.randint(2, 3), rng.randint(2, 3))
            p = random_distribution(rng, list(game.cells()))
            yield game, emulate(game, p, rng.choice([F(1, 2), F(1, 4)]))

    def test_sums_and_bits_match_a_fraction_reference(self):
        for game, em in self.cases():
            oracle = PreferenceOracle(em, game)
            for player in (1, 2):
                leaf = [game.utility(player, cell) for cell in em.table]
                scale, numerators = oracle.scale(player), oracle.numerators(player)
                assert [F(numerators[cell], scale) for cell in em.table] == leaf
                for m in range(em.k):
                    width = 1 << (em.k - m)
                    halves = [
                        (sum(leaf[lo:lo + width // 2], F(0)), sum(leaf[lo + width // 2:lo + width], F(0)))
                        for lo in range(0, em.size, width)
                    ]
                    ones = oracle.prefers_one(player)
                    assert [int(h in ones) for h in range(1 << m, 2 << m)] == [
                        0 if zero >= one else 1 for zero, one in halves
                    ]

    def test_values_are_exact_fractions(self):
        game = Game.from_payoffs([[F(1, 3), F(-2, 7)]], [[F(5, 11), F(0)]])
        p = JointDistribution({JointStrategy(0, 0): F(1, 2), JointStrategy(0, 1): F(1, 2)})
        oracle = PreferenceOracle(emulate(game, p, F(1)), game)
        assert oracle.scale(1) == 21 and oracle.scale(2) == 11
        assert oracle.numerators(1) == {JointStrategy(0, 0): 7, JointStrategy(0, 1): -6}
        assert oracle.numerators(2) == {JointStrategy(0, 0): 5, JointStrategy(0, 1): 0}
        assert oracle.preference(1, ()) == 1
        assert oracle.preference(2, ()) == 1

    def test_full_length_prefix_has_no_preference(self, bos, bos_fair_ce):
        em = emulate(bos, bos_fair_ce, F(1, 2))
        oracle = PreferenceOracle(em, bos)
        for player in (1, 2):
            with pytest.raises(ValueError):
                oracle.preference(player, (0,) * em.k)


class TestOracleMeetsGame:
    """The oracle is where a game meets a table; it rejects what does not fit."""

    def test_table_profile_outside_the_game_is_named(self, bos, corner_instance):
        _, em = corner_instance
        with pytest.raises(ValueError, match=r"profile \(2, 2\) is outside the game"):
            PreferenceOracle(em, bos)

    def test_a_table_inside_a_larger_game_is_accepted(self, bos, bos_fair_ce, corner_instance):
        big, _ = corner_instance
        em = emulate(bos, bos_fair_ce, F(1, 2))
        oracle = PreferenceOracle(em, big)
        assert oracle.numerators(1) == {(0, 0): big.u1[0][0], (1, 1): big.u1[1][1]}
        for player in (1, 2):
            assert oracle.preference(player, ()) == 1 - 2 * preferred_bit(em, big, player, ())

    @pytest.mark.parametrize("player", [0, 3, -1])
    def test_bad_player_is_rejected(self, bos, bos_fair_ce, player):
        one_run = emulate(bos, JointDistribution.point_mass(JointStrategy(0, 0)), F(1, 2))
        for em in (one_run, emulate(bos, bos_fair_ce, F(1, 2))):
            oracle = PreferenceOracle(em, bos)
            for query in (
                lambda: oracle.preference(player, ()),
                lambda: oracle.prefers_one(player),
                lambda: oracle.scale(player),
                lambda: oracle.numerators(player),
            ):
                with pytest.raises(ValueError, match="player must be 1 or 2"):
                    query()
            assert oracle.preference(1, ()) in (1, -1)  # a good query still answers


class TestBitHelpers:
    def test_roundtrip(self):
        for k in (1, 3, 6):
            for index in range(1 << k):
                assert bits_to_index(index_to_bits(index, k)) == index

    def test_validation(self):
        with pytest.raises(ValueError):
            bits_to_index((0, 2))
        with pytest.raises(ValueError):
            index_to_bits(8, 3)


class TestBitstringDistributions:
    def test_marginal_to_empty_prefix(self):
        dist = {(0, 1): F(1, 3), (1, 1): F(2, 3)}
        assert prefix_marginal(dist, 0) == {(): F(1)}

    def test_marginal_of_uniform(self):
        dist = {bits: F(1, 4) for bits in [(0, 0), (0, 1), (1, 0), (1, 1)]}
        assert prefix_marginal(dist, 1) == {(0,): F(1, 2), (1,): F(1, 2)}

    def test_marginal_of_point_mass(self):
        dist = {(1, 0, 1): F(1)}
        assert prefix_marginal(dist, 2) == {(1, 0): F(1)}

    def test_l1_identical(self):
        dist = {(0,): F(1, 2), (1,): F(1, 2)}
        assert l1_distance(dist, dict(dist)) == 0

    def test_l1_disjoint_points(self):
        assert l1_distance({(0, 0): F(1)}, {(1, 1): F(1)}) == 2

    def test_l1_two_outcome_skew(self):
        for b in (F(1, 100), F(1, 7), F(1, 2)):
            skewed = {(0,): F(1, 2) + b, (1,): F(1, 2) - b}
            fair = {(0,): F(1, 2), (1,): F(1, 2)}
            assert l1_distance(skewed, fair) == 2 * b

    def test_marginals_contract_l1(self):
        rng = random.Random(19)
        k = 4
        keys = [tuple((i >> (k - 1 - j)) & 1 for j in range(k)) for i in range(1 << k)]
        for _ in range(20):
            def rand_dist():
                weights = [F(rng.randint(0, 6)) for _ in keys]
                if not any(weights):
                    weights[0] = F(1)
                total = sum(weights)
                return {key: w / total for key, w in zip(keys, weights) if w}

            d1, d2 = rand_dist(), rand_dist()
            full = l1_distance(d1, d2)
            for m in range(k + 1):
                assert l1_distance(prefix_marginal(d1, m), prefix_marginal(d2, m)) <= full
