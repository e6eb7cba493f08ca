"""Game model: normalization, payoffs and the three equilibrium checks."""

import itertools
import random
from fractions import Fraction as F

import pytest

from ce_sampler import (
    Game,
    JointDistribution,
    JointStrategy,
    ProductDistribution,
    check_ce,
    check_mixed_ne,
    check_pure_ne,
    expected_utility,
    normalize,
    solve_ce,
)
from conftest import random_distribution, random_rational_game


def brute_force_deviation_gain(game: Game, p: JointDistribution, player: int) -> F:
    """Independent oracle: enumerate every deviation function explicitly."""
    own = range(game.rows) if player == 1 else range(game.cols)

    def value(fn) -> F:
        total = F(0)
        for s, mass in p.probs.items():
            played = fn[s.s1] if player == 1 else fn[s.s2]
            target = JointStrategy(played, s.s2) if player == 1 else JointStrategy(s.s1, played)
            total += mass * game.utility(player, target)
        return total

    identity = value({i: i for i in own})
    best = max(
        value(dict(zip(own, image))) for image in itertools.product(own, repeat=len(own))
    )
    return best - identity


class TestNormalize:
    def test_bos_scales_per_player(self, bos):
        norm = normalize(bos)
        assert norm.u1 == ((F(1), F(0)), (F(0), F(1, 2)))
        assert norm.u2 == ((F(1, 2), F(0)), (F(0), F(1)))
        assert norm.normalized

    def test_already_normalized_game_unchanged(self, coinflip):
        norm = normalize(coinflip)
        assert norm.u1 == coinflip.u1
        assert norm.u2 == coinflip.u2

    def test_constant_player_becomes_zero(self):
        game = Game.from_payoffs([[7, 7], [7, 7]], [[1, 2], [3, 4]])
        norm = normalize(game)
        assert all(v == 0 for row in norm.u1 for v in row)
        assert norm.u2[1][1] == 1

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(25):
            game = random_rational_game(rng, rng.randint(1, 3), rng.randint(1, 3))
            once = normalize(game)
            assert normalize(once) == once

    def test_result_is_kept_on_the_game(self):
        rng = random.Random(12)
        for _ in range(10):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            game = random_rational_game(rng, rows, cols)
            twin = Game.from_payoffs(game.u1, game.u2)
            before = repr(game), hash(game)
            norm = normalize(game)
            assert normalize(game) is norm
            assert normalize(twin) == norm
            assert game == twin and hash(game) == hash(twin)
            assert (repr(game), hash(game)) == before
            assert normalize(norm) == norm

    def test_normalized_flag_validates_range(self):
        with pytest.raises(ValueError):
            Game.from_payoffs([[2]], [[0]], normalized=True)


class TestExpectedUtility:
    def test_fair_ce_payoff(self, bos, bos_fair_ce):
        assert expected_utility(bos, bos_fair_ce, 1) == 3
        assert expected_utility(bos, bos_fair_ce, 2) == 3

    def test_point_mass(self, bos):
        point = JointDistribution.point_mass(JointStrategy(1, 0))
        assert expected_utility(bos, point, 1) == 0
        point = JointDistribution.point_mass(JointStrategy(1, 1))
        assert expected_utility(bos, point, 2) == 4

    def test_mixed_product_payoff(self, bos):
        joint = ProductDistribution((F(2, 3), F(1, 3)), (F(1, 3), F(2, 3))).joint()
        assert expected_utility(bos, joint, 1) == F(4, 3)
        assert expected_utility(bos, joint, 2) == F(4, 3)

    def test_linear_in_distribution(self, bos):
        rng = random.Random(23)
        cells = list(bos.cells())
        for _ in range(20):
            p = random_distribution(rng, cells)
            q = random_distribution(rng, cells)
            alpha = F(rng.randint(0, 8), 8)
            mixed = p.mix(q, alpha)
            for player in (1, 2):
                assert expected_utility(bos, mixed, player) == (
                    alpha * expected_utility(bos, p, player)
                    + (1 - alpha) * expected_utility(bos, q, player)
                )

    def test_rejects_out_of_range_support(self, bos):
        outside = JointDistribution.point_mass(JointStrategy(2, 0))
        with pytest.raises(ValueError):
            expected_utility(bos, outside, 1)


class TestPureNash:
    def test_bos_has_exactly_the_two_matching_profiles(self, bos):
        equilibria = {tuple(s) for s in bos.cells() if check_pure_ne(bos, s)}
        assert equilibria == {(0, 0), (1, 1)}

    def test_mismatched_profile_is_improvable(self, bos):
        assert not check_pure_ne(bos, JointStrategy(0, 1))

    def test_single_cell_game(self):
        game = Game.from_payoffs([[-5]], [[3]])
        assert check_pure_ne(game, JointStrategy(0, 0))


class TestMixedNash:
    def test_bos_interior_equilibrium(self, bos):
        dist = ProductDistribution((F(2, 3), F(1, 3)), (F(1, 3), F(2, 3)))
        assert check_mixed_ne(bos, dist, 0)

    def test_pure_profile_as_product(self, bos):
        dist = ProductDistribution((F(1), F(0)), (F(1), F(0)))
        assert check_mixed_ne(bos, dist, 0)

    def test_uniform_is_not_an_equilibrium(self, bos):
        dist = ProductDistribution((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
        assert not check_mixed_ne(bos, dist, 0)

    def test_tolerance_relaxes_the_check(self, bos):
        dist = ProductDistribution((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
        assert check_mixed_ne(bos, dist, 10)


class TestCorrelatedEquilibrium:
    def test_fair_ce(self, bos, bos_fair_ce):
        assert check_ce(bos, bos_fair_ce)

    def test_coinflip_fair_point(self, coinflip):
        fair = JointDistribution({JointStrategy(0, 0): F(1, 2), JointStrategy(1, 1): F(1, 2)})
        assert check_ce(coinflip, fair)

    def test_mismatch_point_mass_rejected(self, bos):
        assert not check_ce(bos, JointDistribution.point_mass(JointStrategy(0, 1)))

    def test_nash_points_are_correlated_equilibria(self, bos):
        for product in (
            ProductDistribution((F(2, 3), F(1, 3)), (F(1, 3), F(2, 3))),
            ProductDistribution((F(1), F(0)), (F(1), F(0))),
            ProductDistribution((F(0), F(1)), (F(0), F(1))),
        ):
            assert check_mixed_ne(bos, product, 0)
            assert check_ce(bos, product.joint())

    def test_invariant_under_normalization(self):
        rng = random.Random(37)
        checked = 0
        while checked < 30:
            game = random_rational_game(rng, rng.randint(2, 3), rng.randint(2, 3))
            constant = any(
                len({v for row in m for v in row}) == 1 for m in (game.u1, game.u2)
            )
            if constant:
                continue
            p = random_distribution(rng, list(game.cells()))
            assert check_ce(game, p) == check_ce(normalize(game), p)
            checked += 1


class TestDeviationGain:
    """``check_ce`` against the brute-force best gain of any deviation function."""

    def test_exact_ce_has_zero_gain(self, bos, bos_fair_ce):
        assert brute_force_deviation_gain(bos, bos_fair_ce, 1) == 0
        assert brute_force_deviation_gain(bos, bos_fair_ce, 2) == 0
        assert check_ce(bos, bos_fair_ce)

    def test_mismatch_point_mass_gain(self, bos):
        point = JointDistribution.point_mass(JointStrategy(0, 1))
        assert brute_force_deviation_gain(bos, point, 2) == 2
        assert not check_ce(bos, point)

    def test_uniform_on_coinflip(self, coinflip):
        # The suggested bit is ignored by the best deviation (always
        # answer 0), which wins a quarter of the time on top of the
        # quarter the identity already collects.
        uniform = JointDistribution.uniform(list(coinflip.cells()))
        assert brute_force_deviation_gain(coinflip, uniform, 1) == F(1, 4)
        assert not check_ce(coinflip, uniform)

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(51)
        for _ in range(30):
            game = random_rational_game(rng, rng.randint(2, 3), rng.randint(2, 3))
            p = random_distribution(rng, list(game.cells()))
            zero_gain = all(brute_force_deviation_gain(game, p, pl) == 0 for pl in (1, 2))
            assert zero_gain == check_ce(game, p)

    def test_zero_gain_iff_ce(self):
        # A random distribution is rarely a CE, so mix a solved CE with
        # one: the mixtures cross the CE boundary in both directions.
        rng = random.Random(67)
        verdicts = set()
        for _ in range(15):
            game = random_rational_game(rng, 2, rng.randint(2, 3))
            ce = solve_ce(game)
            noise = random_distribution(rng, list(game.cells()))
            for t in (F(0), F(1, 8), F(1, 2), F(1)):
                p = JointDistribution({
                    cell: (1 - t) * ce.prob(cell) + t * noise.prob(cell)
                    for cell in game.cells()
                })
                zero_gain = all(brute_force_deviation_gain(game, p, pl) == 0 for pl in (1, 2))
                assert zero_gain == check_ce(game, p)
                verdicts.add(zero_gain)
        assert verdicts == {True, False}


class TestDistributionTypes:
    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError):
            JointDistribution({JointStrategy(0, 0): F(3, 2), JointStrategy(0, 1): F(-1, 2)})

    def test_rejects_wrong_total(self):
        with pytest.raises(ValueError):
            JointDistribution({JointStrategy(0, 0): F(1, 2)})

    def test_zero_entries_are_dropped(self):
        dist = JointDistribution({JointStrategy(0, 0): F(1), JointStrategy(1, 1): F(0)})
        assert dist.support() == [JointStrategy(0, 0)]

    def test_product_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ProductDistribution((F(1, 2), F(1, 3)), (F(1), F(0)))

    def test_game_shape_validation(self):
        with pytest.raises(ValueError):
            Game.from_payoffs([[1, 2], [3]], [[1, 2], [3, 4]])
