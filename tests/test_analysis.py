"""Exact adversary analysis: honest runs, worst cases, bounds, counterexamples."""

import collections
import hashlib
import itertools
import pickle
import random
import re
import tracemalloc
from fractions import Fraction as F
from functools import cached_property
from math import lcm

import pytest

from ce_sampler import (
    Game,
    HonestParty,
    JointDistribution,
    JointStrategy,
    MultisetEmulation,
    PolicyParty,
    ProtocolConfig,
    RandomStream,
    emulate,
    normalize,
    run_protocol,
    simulate_outputs,
)
from ce_sampler import analysis
from ce_sampler.acceptance import battery
from ce_sampler.analysis import (
    POWERS,
    honest_output_distribution,
    policy_outcome,
    truthful_announcements_optimal,
    verify_distance_bounds,
    verify_payoff_guarantees,
    worst_case_adversary,
)
from ce_sampler.emulation import (
    PreferenceOracle,
    bits_to_index,
    index_to_bits,
    l1_distance,
)
from ce_sampler.serialization import emulation_to_json
from conftest import (
    preferred_bit,
    prefix_marginal,
    random_distribution,
    random_rational_game,
    table_expectation,
)

HALF = F(1, 2)


def recursive_honest_oracle(em, game):
    """Second, direct implementation of the honest-run distribution, read off the table."""
    dist = {}

    def walk(prefix, mass):
        if len(prefix) == em.k:
            dist[prefix] = dist.get(prefix, F(0)) + mass
            return
        prefs = [preferred_bit(em, game, player, prefix) for player in (1, 2)]
        if prefs[0] == prefs[1]:
            walk(prefix + (prefs[0],), mass)
        else:
            walk(prefix + (0,), mass / 2)
            walk(prefix + (1,), mass / 2)

    walk((), F(1))
    return dist


class TestHonestDistribution:
    def test_bos_fair_ce(self, bos, bos_fair_ce):
        em = emulate(bos, bos_fair_ce, F(1, 2))
        assert honest_output_distribution(em, bos) == {
            (0, 0, 0): F(1, 2),
            (1, 0, 0): F(1, 2),
        }

    def test_point_mass_is_deterministic(self, bos):
        point = JointDistribution.point_mass(JointStrategy(1, 1))
        em = emulate(bos, point, F(1, 2))
        dist = honest_output_distribution(em, bos)
        assert list(dist.values()) == [F(1)]

    def test_common_interest_never_flips(self):
        rng = random.Random(7)
        for _ in range(5):
            base = random_rational_game(rng, 2, 3)
            game = Game(base.strategies_1, base.strategies_2, base.u1, base.u1)
            p = random_distribution(rng, list(game.cells()))
            em = emulate(game, p, F(1, 2))
            dist = honest_output_distribution(em, game)
            assert len(dist) == 1  # every round is an agreement

    def test_matches_recursive_oracle(self):
        rng = random.Random(11)
        for _ in range(8):
            game = random_rational_game(rng, rng.randint(2, 3), rng.randint(2, 3))
            p = random_distribution(rng, list(game.cells()))
            em = emulate(game, p, F(1, 2))
            assert honest_output_distribution(em, game) == recursive_honest_oracle(em, game)


class TestWorstCaseAdversary:
    def test_bos_exact_gain(self, bos, bos_fair_ce):
        em = emulate(bos, bos_fair_ce, F(1, 2))
        for bias in (F(0), F(1, 100), F(1, 60)):
            adv = worst_case_adversary(em, bos, bias, dishonest=1)
            assert adv.value == 3 + 2 * bias
            assert adv.leaf_distribution == {
                (0, 0, 0): HALF + bias,
                (1, 0, 0): HALF - bias,
            }

    def test_zero_bias_collapses_to_honest(self):
        rng = random.Random(13)
        for _ in range(10):
            game = random_rational_game(rng, rng.randint(2, 3), rng.randint(2, 3))
            p = random_distribution(rng, list(game.cells()))
            em = emulate(game, p, F(1, 2))
            p_h = honest_output_distribution(em, game)
            for dishonest in (1, 2):
                adv = worst_case_adversary(em, game, F(0), dishonest)
                assert adv.leaf_distribution == p_h
                assert adv.value == table_expectation(em, game, p_h, dishonest)

    def test_point_mass_leaves_nothing_to_steer(self, bos):
        point = JointDistribution.point_mass(JointStrategy(0, 0))
        em = emulate(bos, point, F(1, 2))
        p_h = honest_output_distribution(em, bos)
        adv = worst_case_adversary(em, bos, F(1, 10), dishonest=2)
        assert adv.leaf_distribution == p_h

    def test_value_monotone_in_bias(self):
        rng = random.Random(17)
        for _ in range(6):
            game = random_rational_game(rng, 2, rng.randint(2, 3))
            p = random_distribution(rng, list(game.cells()))
            em = emulate(game, p, F(1, 2))
            biases = [F(0), F(1, 100), F(1, 20), F(1, 5)]
            for dishonest in (1, 2):
                values = [
                    worst_case_adversary(em, game, b, dishonest).value for b in biases
                ]
                assert values == sorted(values)

    def test_dominates_policies_within_each_class(self):
        rng = random.Random(19)
        for _ in range(5):
            game = random_rational_game(rng, 2, 2)
            p = random_distribution(rng, list(game.cells()))
            em = emulate(game, p, F(1, 2))
            bias = F(1, 40)
            honest = worst_case_adversary(em, game, F(0), 1).policy
            best_bias_only = worst_case_adversary(em, game, bias, 1, power="bias-only")
            best_anything = worst_case_adversary(em, game, bias, 1, power="unrestricted")
            for _ in range(10):
                compliant = {
                    prefix: (F(0) if w == 0 else rng.choice([HALF - bias, HALF, HALF + bias]))
                    for prefix, w in honest.items()
                }
                assert policy_outcome(em, game, compliant, 1).value <= best_bias_only.value
                arbitrary = {
                    prefix: rng.choice([F(0), F(1, 4), HALF, HALF + bias])
                    for prefix in honest
                }
                assert policy_outcome(em, game, arbitrary, 1).value <= best_anything.value

    def test_honest_policy_reproduces_honest_run(self, bos, bos_fair_ce):
        em = emulate(bos, bos_fair_ce, F(1, 2))
        outcome = policy_outcome(em, bos, worst_case_adversary(em, bos, F(0), 1).policy, 1)
        p_h = honest_output_distribution(em, bos)
        assert outcome.leaf_distribution == p_h
        assert outcome.value == table_expectation(em, bos, p_h, 1)

    def test_spiteful_objective_minimizes(self, bos, bos_fair_ce):
        em = emulate(bos, bos_fair_ce, F(1, 2))
        p_h = honest_output_distribution(em, bos)
        spite = worst_case_adversary(em, bos, F(1, 60), 1, objective="min-opponent")
        assert spite.value <= table_expectation(em, bos, p_h, 2)
        assert spite.value == 3 - 2 * F(1, 60)  # push toward the (A,A) half

    def test_rejects_bad_arguments(self, bos, bos_fair_ce):
        em = emulate(bos, bos_fair_ce, F(1, 2))
        with pytest.raises(ValueError):
            worst_case_adversary(em, bos, F(1, 2), 1)
        with pytest.raises(ValueError):
            worst_case_adversary(em, bos, F(1, 10), 3)
        with pytest.raises(ValueError):
            worst_case_adversary(em, bos, F(1, 10), 1, power="omniscient")

    def test_unknown_power_rejected_without_a_tree(self):
        # k = 0: the root is the only leaf, so no node ever lists candidates.
        game = Game.from_payoffs([[1]], [[1]])
        em = emulate(game, JointDistribution.point_mass(JointStrategy(0, 0)), F(1))
        assert em.k == 0
        assert worst_case_adversary(em, game, F(0), 1).leaf_distribution == {(): F(1)}
        with pytest.raises(ValueError, match="omniscient"):
            worst_case_adversary(em, game, F(0), 1, power="omniscient")

    def test_policy_prefixes_must_be_internal_nodes(self, bos, bos_fair_ce):
        em = emulate(bos, bos_fair_ce, F(1, 2))
        for bad in [(0, 0, 0), (7,), (0, 1, 1, 0), (0, 2)]:
            with pytest.raises(ValueError, match=re.escape(str(bad))):
                policy_outcome(em, bos, {bad: 1}, 1)
        with pytest.raises(ValueError, match=re.escape("(0, 0, 0)")):
            policy_outcome(em, bos, {(0, 0, 0): 1, (7,): 1}, 1)


class TestScaledWeights:
    """Policies whose weights share no denominator, against a direct Fraction recursion."""

    @staticmethod
    def recursive_outcome(em, game, policy, dishonest, objective):
        honest = 3 - dishonest
        player = dishonest if objective == "max-own" else honest
        dist = {}

        def walk(prefix, mass):
            if len(prefix) == em.k:
                dist[prefix] = mass
                return
            b_h = preferred_bit(em, game, honest, prefix)
            w = policy[prefix]
            walk(prefix + (b_h,), mass * (1 - w))
            walk(prefix + (1 - b_h,), mass * w)

        walk((), F(1))
        dist = {bits: mass for bits, mass in dist.items() if mass}
        value = F(0)
        for bits, mass in dist.items():
            v = game.utility(player, em.entry(bits))
            value += mass * (max(v, F(0)) if objective == "max-own" else v)
        return value, dist

    def test_unrelated_denominators(self, bos, bos_fair_ce):
        weights = [F(1, 3), F(2, 7), F(5, 11), F(0), F(1)]
        rng = random.Random(47)
        games = [(bos, emulate(bos, bos_fair_ce, F(1, 4)))]
        for _ in range(3):
            game = random_rational_game(rng, 2, rng.randint(2, 3))
            games.append((game, emulate(game, random_distribution(rng, list(game.cells())), F(1, 2))))
        for game, em in games:
            nodes = [prefix for m in range(em.k) for prefix in itertools.product((0, 1), repeat=m)]
            for _ in range(3):
                policy = {prefix: rng.choice(weights) for prefix in nodes}
                for dishonest, objective in itertools.product((1, 2), ("max-own", "min-opponent")):
                    outcome = policy_outcome(em, game, policy, dishonest, objective)
                    value, dist = self.recursive_outcome(em, game, policy, dishonest, objective)
                    assert outcome.value == value
                    assert outcome.leaf_distribution == dist
                    assert outcome.policy == policy


def test_single_cell_emulation_has_one_leaf():
    # A single-cell CE needs no rounds: k = 0, and the empty index is the only leaf.
    game = Game.from_payoffs([[F(-3, 7)]], [[F(5, 11)]])
    em = emulate(game, JointDistribution.point_mass(JointStrategy(0, 0)), F(1))
    assert em.k == 0
    assert honest_output_distribution(em, game) == {(): F(1)}
    for power, objective, dishonest in itertools.product(
        POWERS, ("max-own", "min-opponent"), (1, 2)
    ):
        adv = worst_case_adversary(em, game, F(1, 10), dishonest, power, objective)
        assert adv.leaf_distribution == {(): F(1)}
        assert adv.policy == {}
        player = dishonest if objective == "max-own" else 3 - dishonest
        v = game.utility(player, JointStrategy(0, 0))
        assert adv.value == (max(v, F(0)) if objective == "max-own" else v)


class TestDistanceBounds:
    def test_bos_l1_profile(self, bos, bos_fair_ce):
        em = emulate(bos, bos_fair_ce, F(1, 2))
        epsilon = F(1, 10)
        report = verify_distance_bounds(em, bos, epsilon, dishonest=1)
        step = 2 * report.bias  # = epsilon / k
        assert report.l1_per_round == (F(0), step, step, step)
        assert report.l1_per_round[-1] <= epsilon
        assert report.all_hold

    def test_float_policy_weights_are_rejected(self, bos, bos_fair_ce):
        # The same rule as PolicyParty: steering weights are exact rationals.
        em = emulate(bos, bos_fair_ce, F(1, 2))
        with pytest.raises(TypeError):
            PolicyParty({(): 0.1})
        with pytest.raises(TypeError):
            policy_outcome(em, bos, {(): 0.1}, 1)
        exact = policy_outcome(em, bos, {(): "1/10"}, 1)
        assert exact.policy[()] == F(1, 10)

    def test_float_epsilon_is_rejected(self, bos, bos_fair_ce):
        # The same rule as ProtocolConfig: epsilon is an exact rational.
        em = emulate(bos, bos_fair_ce, F(1, 2))
        with pytest.raises(TypeError):
            ProtocolConfig(0.1, F(1, 2), em.k)
        with pytest.raises(TypeError):
            verify_distance_bounds(em, bos, 0.1, 1)
        with pytest.raises(TypeError):
            truthful_announcements_optimal(em, bos, 0.1)
        exact = verify_distance_bounds(em, bos, "1/10", 1)
        assert exact.epsilon == F(1, 10) and exact.bias == F(1, 60)
        assert truthful_announcements_optimal(em, bos, "1/10") is True

    def test_verifiers_build_nothing_of_size_2_to_the_k(self, bos, bos_fair_ce):
        delta, epsilon = F(bos.n_cells, 1 << 18), F(1, 10)
        em = emulate(bos, bos_fair_ce, delta)
        assert em.k == 18
        em.mixed_nodes  # built before tracing: the run scan belongs to the emulation, not the verifiers
        config = ProtocolConfig(epsilon, delta, em.k)
        tracemalloc.start()
        try:
            report = verify_distance_bounds(em, bos, epsilon, 1)
            verdicts = verify_payoff_guarantees(em, bos, config)
            truthful = truthful_announcements_optimal(em, bos, epsilon)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.all_hold and all(verdicts.values()) and truthful
        assert len(report.policy) == (1 << 18) - 1
        assert peak < 1 << 20, peak

    def test_table_outside_the_game_is_rejected(self, bos, corner_instance):
        _, em = corner_instance
        with pytest.raises(ValueError, match=r"profile \(2, 2\)"):
            honest_output_distribution(em, bos)
        with pytest.raises(ValueError, match=r"profile \(2, 2\)"):
            verify_distance_bounds(em, bos, F(1, 10), 1)

    def test_supplied_policy_is_analyzed(self, bos, bos_fair_ce):
        em = emulate(bos, bos_fair_ce, F(1, 2))
        epsilon = F(1, 10)
        honest = worst_case_adversary(em, bos, F(0), 1).policy
        q = policy_outcome(em, bos, honest, 1).leaf_distribution
        p_h = honest_output_distribution(em, bos)
        l1_per_round = tuple(
            l1_distance(prefix_marginal(q, m), prefix_marginal(p_h, m)) for m in range(em.k + 1)
        )
        assert l1_per_round == (F(0),) * 4
        assert all(d <= m * epsilon / em.k for m, d in enumerate(l1_per_round))

    def test_bounds_hold_on_random_instances(self):
        rng = random.Random(23)
        for _ in range(10):
            game = random_rational_game(rng, rng.randint(2, 3), rng.randint(2, 3))
            p = random_distribution(rng, list(game.cells()))
            em = emulate(game, p, rng.choice([F(1, 2), F(1, 4)]))
            for dishonest in (1, 2):
                report = verify_distance_bounds(em, game, F(1, 10), dishonest)
                assert report.all_hold, report.verdicts


class TestPayoffGuarantees:
    def test_bos_all_hold_with_zero_slack(self, bos, bos_fair_ce):
        em = emulate(bos, bos_fair_ce, F(1, 2))
        config = ProtocolConfig(F(1, 10), F(1, 2), em.k)
        verdicts = verify_payoff_guarantees(em, bos, config)
        assert all(verdicts.values()), verdicts
        # The emulation is exact here, so honest play matches the source
        # distribution's payoff exactly (slack zero in the delta bound).
        norm = normalize(bos)
        p_h = honest_output_distribution(em, norm)
        for player in (1, 2):
            source = sum(
                mass * norm.utility(player, cell) for cell, mass in bos_fair_ce.probs.items()
            )
            assert table_expectation(em, norm, p_h, player) == source

    def test_guarantees_on_random_instances(self):
        rng = random.Random(29)
        for _ in range(8):
            game = random_rational_game(rng, 2, rng.randint(2, 3))
            p = random_distribution(rng, list(game.cells()))
            em = emulate(game, p, F(1, 2))
            config = ProtocolConfig(F(1, 10), F(1, 2), em.k)
            verdicts = verify_payoff_guarantees(em, game, config)
            assert all(verdicts.values()), verdicts


class TestAnnouncementLying:
    """A pinned counterexample: lying pays against an opponent who does not check.

    The game (the ``diagonal_instance`` fixture) has its equilibrium
    supported on the diagonal, with every diagonal cell a pure
    equilibrium.  Honest play agrees all the way down to the first
    diagonal cell (payoff 5/9 to player 1 after normalization).  But the
    subtree the honest run never enters holds a cell worth 1 to player 1
    that the *honest opponent* would happily steer to once inside, so
    announcing a false preference at the root — which manufactures a coin
    flip where the protocol expected quiet agreement — hands player 1
    roughly half a chance of reaching it.  The gain dwarfs both the
    epsilon budget and the coin bias (it persists at bias zero), which is
    why the guarantee verifiers are scoped to announcement-honest
    adversaries.  The ``unrestricted`` class and
    ``truthful_announcements_optimal`` pinned here model an opponent who
    does not check announcements.  The honest party σ does check them and
    settles a lie to (0, 0); ``TestCheckedAnnouncements`` covers that.
    """

    def test_honest_run_is_deterministic(self, diagonal_instance):
        game, _, em = diagonal_instance
        assert honest_output_distribution(em, game) == {(0, 0, 0, 0): F(1)}

    def test_lying_beats_truthful_announcing(self, diagonal_instance):
        game, _, em = diagonal_instance
        epsilon = F(1, 10)
        bias = epsilon / (2 * em.k)
        norm = normalize(game)
        truthful = worst_case_adversary(em, norm, bias, 1, power="truthful")
        lying = worst_case_adversary(em, norm, bias, 1, power="unrestricted")
        # Truthful announcements leave no coin to cheat: all-agreement run.
        assert truthful.value == F(5, 9)
        # One false announcement at the root reaches the u1 = 1 subtree.
        assert lying.value == (HALF - bias) * F(5, 9) + (HALF + bias) * 1
        assert lying.value - truthful.value > epsilon
        assert not truthful_announcements_optimal(em, game, epsilon)

    def test_gain_persists_with_zero_coin_bias(self, diagonal_instance):
        game, _, em = diagonal_instance
        norm = normalize(game)
        lying = worst_case_adversary(em, norm, F(0), 1, power="unrestricted")
        assert lying.value == HALF * F(5, 9) + HALF * 1

    def test_distance_bounds_break_for_the_liar(self, diagonal_instance):
        game, _, em = diagonal_instance
        report = verify_distance_bounds(em, game, F(1, 10), 1, power="unrestricted")
        assert not report.verdicts["l1_cumulative"]
        assert not report.verdicts["l1_round_bounds"]

    def test_bias_only_class_stays_honest_here(self, diagonal_instance):
        game, _, em = diagonal_instance
        report = verify_distance_bounds(em, game, F(1, 10), 1)
        assert report.all_hold
        assert report.adversarial_distribution == report.honest_distribution

    def test_protocol_replay_confirms_the_dp(self, diagonal_instance):
        # The backward induction is only meaningful if the real protocol
        # realizes its policy; replay it and compare payoffs.
        game, p, em = diagonal_instance
        epsilon = F(1, 10)
        norm = normalize(game)
        config = ProtocolConfig(epsilon, F(1), em.k)
        lying = worst_case_adversary(em, norm, config.per_round_bias, 1, power="unrestricted")
        trials = 20_000
        counts = simulate_outputs(
            norm, p, config, PolicyParty(lying.policy), HonestParty(),
            RandomStream(2029), trials, em=em,
        )
        empirical = {bits: F(n, trials) for bits, n in counts.items()}
        assert l1_distance(empirical, lying.leaf_distribution) / 2 < F(2, 100)
        empirical_value = sum(
            F(n, trials) * norm.utility(1, em.entry(bits)) for bits, n in counts.items()
        )
        assert abs(float(empirical_value - lying.value)) < 0.02


class TestTruthfulAnnouncementCheck:
    def test_true_on_bos(self, bos, bos_fair_ce):
        em = emulate(bos, bos_fair_ce, F(1, 2))
        assert truthful_announcements_optimal(em, bos, F(1, 10))

    def test_true_on_point_mass(self, bos):
        point = JointDistribution.point_mass(JointStrategy(0, 0))
        em = emulate(bos, point, F(1, 2))
        assert truthful_announcements_optimal(em, bos, F(1, 10))


class TestCheckedAnnouncements:
    """The adversary σ faces: a lie is caught and settles to (0, 0)."""

    def test_lying_gains_nothing_against_the_checker(self, diagonal_instance):
        game, _, em = diagonal_instance
        bias = F(1, 10) / (2 * em.k)
        norm = normalize(game)
        truthful = worst_case_adversary(em, norm, bias, 1, power="truthful")
        checked = worst_case_adversary(em, norm, bias, 1, power="checked")
        unchecked = worst_case_adversary(em, norm, bias, 1, power="unrestricted")
        assert checked.value == truthful.value == F(5, 9)
        assert checked.policy == truthful.policy
        assert checked.leaf_distribution == truthful.leaf_distribution
        assert unchecked.value > checked.value

    def test_checked_equals_truthful_on_random_instances(self):
        rng = random.Random(37)
        for _ in range(6):
            game = random_rational_game(rng, rng.randint(2, 3), rng.randint(2, 3))
            p = random_distribution(rng, list(game.cells()))
            em = emulate(game, p, F(1, 4))
            norm = normalize(game)
            for dishonest in (1, 2):
                for objective in ("max-own", "min-opponent"):
                    truthful = worst_case_adversary(
                        em, norm, F(1, 40), dishonest, power="truthful", objective=objective
                    )
                    checked = worst_case_adversary(
                        em, norm, F(1, 40), dishonest, power="checked", objective=objective
                    )
                    assert checked.value == truthful.value
                    assert checked.policy == truthful.policy


def brute_force_candidates(power, bias, agrees):
    """The steering weights a class reaches at one node (module docstring)."""
    if power == "bias-only":
        return [F(0)] if agrees else [HALF - bias, HALF, HALF + bias]
    if power == "truthful":
        return [F(0)] if agrees else [F(0), HALF, HALF + bias]
    return [F(0), HALF + bias] if agrees else [F(0), HALF, HALF + bias]  # unrestricted


class TestBruteForcePolicies:
    """Every policy of the class, enumerated and valued without the engine."""

    @staticmethod
    def instances(bos, bos_fair_ce):
        yield bos, emulate(bos, bos_fair_ce, F(1, 2))
        rng = random.Random(43)
        for _ in range(3):
            game = random_rational_game(rng, 2, 2)
            yield game, emulate(game, random_distribution(rng, list(game.cells())), F(1, 2))

    def test_optimum_equals_best_enumerated_policy(self, bos, bos_fair_ce):
        bias = F(1, 60)
        for game, em in self.instances(bos, bos_fair_ce):
            assert em.k <= 3
            nodes = [prefix for m in range(em.k) for prefix in itertools.product((0, 1), repeat=m)]
            preferred = {
                (player, prefix): preferred_bit(em, game, player, prefix)
                for player in (1, 2) for prefix in nodes
            }
            for power, objective, dishonest in itertools.product(
                ("bias-only", "truthful", "unrestricted"), ("max-own", "min-opponent"), (1, 2)
            ):
                honest = 3 - dishonest
                player = dishonest if objective == "max-own" else honest

                def value(policy, prefix=()):
                    if len(prefix) == em.k:
                        v = game.utility(player, em.entry(prefix))
                        return max(v, F(0)) if objective == "max-own" else v
                    b_h, w = preferred[honest, prefix], policy[prefix]
                    return (1 - w) * value(policy, prefix + (b_h,)) + w * value(
                        policy, prefix + (1 - b_h,)
                    )

                choices = [
                    brute_force_candidates(
                        power, bias, preferred[1, prefix] == preferred[2, prefix]
                    )
                    for prefix in nodes
                ]
                values = [value(dict(zip(nodes, ws))) for ws in itertools.product(*choices)]
                best = max(values) if objective == "max-own" else min(values)
                adv = worst_case_adversary(em, game, bias, dishonest, power, objective)
                assert adv.value == best, (power, objective, dishonest)
                assert set(adv.policy) == set(nodes)
                assert all(adv.policy[prefix] in c for prefix, c in zip(nodes, choices))
                assert value(adv.policy) == best


# SHA-256 over every battery case of the honest distribution and of the value,
# policy and leaf distribution of every worst case; pinned from the recursive
# tree walks that the level-array engine replaced.
ANALYSIS_FINGERPRINT = "f1d48c988dd184cc23a64e18b9109ad67e0b038d5f2c3f53bd30bc519a6e047e"


def test_analysis_outputs_are_pinned():
    def items(mapping):
        return sorted((bits, str(v)) for bits, v in mapping.items())

    digest = hashlib.sha256()
    for case in battery():
        norm = normalize(case.game)
        record = [case.index, items(honest_output_distribution(case.em, case.game))]
        for power, objective, cheater in itertools.product(
            POWERS, ("max-own", "min-opponent"), (1, 2)
        ):
            adv = worst_case_adversary(
                case.em, norm, case.config.per_round_bias, cheater, power=power, objective=objective
            )
            record.append(
                (power, objective, cheater, str(adv.value), items(adv.policy),
                 items(adv.leaf_distribution))
            )
        digest.update(repr(record).encode())
    assert digest.hexdigest() == ANALYSIS_FINGERPRINT


# ---------------------------------------------------------------------------
# The run-length engine against a dense reference, on tables of any layout
# ---------------------------------------------------------------------------


def dense_leaf_numerators(em, game, player):
    """``player``'s utility at every table entry over one common denominator."""
    utilities = [game.utility(player, cell) for cell in em.table]
    scale = lcm(*(u.denominator for u in utilities))
    return [u.numerator * (scale // u.denominator) for u in utilities], scale


def dense_preferred_table(em, game, player):
    """The tie-prefers-0 rule at every internal node, from the full leaf cumsum."""
    cums = list(itertools.accumulate(dense_leaf_numerators(em, game, player)[0], initial=0))
    table = [0]
    for m in range(em.k):
        half = 1 << (em.k - m - 1)
        ends, mids = cums[:: 2 * half], cums[half :: 2 * half]
        table.extend(0 if mid - lo >= hi - mid else 1 for lo, mid, hi in zip(ends, mids, ends[1:]))
    return table


def ones_of(table):
    """The heap indices of a dense preferred-bit table's 1-entries."""
    return frozenset(h for h, bit in enumerate(table) if bit)


class DenseTree(analysis._Tree):
    """The round tree swept in full: every node of every level is visited.

    It reads no oracle.  Preferences come from the full leaf cumsum, and
    the backward induction sweeps every node of every level with its own
    strict-improvement scan and the checked lie's explicit floor, so it
    costs O(2^k) whatever the table's layout.  Its weights are keyed by
    heap index, with a key at every internal node.
    """

    @property
    def oracle(self):
        raise AssertionError("the dense reference reads no oracle")

    @cached_property
    def tables(self):
        return {p: dense_preferred_table(self.em, self.game, p) for p in (1, 2)}

    @cached_property
    def honest_weights(self):
        table1, table2 = self.tables[1], self.tables[2]
        return {h: F(0) if table1[h] == table2[h] else HALF for h in range(1, 1 << self.k)}

    @cached_property
    def honest_leaves(self):
        return analysis._leaf_masses(ones_of(self.tables[1]), self.honest_weights, self.k)

    def leaves(self, weights, dishonest):
        honest = analysis._check_players(dishonest)
        return analysis._leaf_masses(ones_of(self.tables[honest]), weights, self.k)

    def expectation(self, leaves, player, floor_zero=False):
        values, scale = dense_leaf_numerators(self.em, self.game, player)
        if floor_zero:
            values = [max(v, 0) for v in values]
        total = sum(mass * values[i] for i, mass in leaves.entries)
        return F(total, leaves.denominator * scale)

    @staticmethod
    def scan(options, gain_sign):
        """Move off the first option only on a strict improvement."""
        chosen = options[0]
        for w in options[1:]:
            if w * gain_sign > chosen * gain_sign:
                chosen = w
        return chosen

    def backward_induction(self, bias, dishonest, power, objective):
        honest = analysis._check_players(dishonest)
        if bias < 0 or bias >= HALF:
            raise ValueError("bias must satisfy 0 <= bias < 1/2")
        candidates = {
            agrees: analysis._steering_candidates(power, bias, agrees) for agrees in (False, True)
        }
        if objective == "max-own":
            player, sign = dishonest, 1
            values, d = dense_leaf_numerators(self.em, self.game, dishonest)
            values = [max(v, 0) for v in values]
        elif objective == "min-opponent":
            player, sign = honest, -1
            values, d = dense_leaf_numerators(self.em, self.game, honest)
            values = [-v for v in values]
        else:
            raise ValueError(f"unknown objective {objective!r}")
        checked_lie = power == "checked" and objective == "max-own"
        scale = lcm(*(w.denominator for options in candidates.values() for w in options))
        picks = {}
        for agrees, options in candidates.items():
            for gain_sign in (-1, 0, 1):
                w = self.scan(options, gain_sign)
                picks[agrees, gain_sign] = (w, w.numerator * (scale // w.denominator))
        honest_bits, dishonest_bits = self.tables[honest], self.tables[dishonest]
        weights = {}
        for m in reversed(range(self.k)):
            level_values = []
            for j in range(1 << m):
                h = (1 << m) + j
                b_h = honest_bits[h]
                v_honest_side = values[2 * j + b_h]
                gain = values[2 * j + 1 - b_h] - v_honest_side
                w, numerator = picks[dishonest_bits[h] == b_h, (gain > 0) - (gain < 0)]
                value = scale * v_honest_side + numerator * gain
                if checked_lie and value < 0:
                    value = 0
                level_values.append(value)
                weights[h] = w
            values = level_values
        return F(sign * values[0], d * scale**self.k), weights


def signed_game(rng, rows, cols):
    """Payoffs of both signs over unrelated denominators."""

    def matrix():
        return [
            [F(rng.randint(-12, 12), rng.choice([1, 2, 3, 7])) for _ in range(cols)]
            for _ in range(rows)
        ]

    return Game.from_payoffs(matrix(), matrix())


def hand_built(k, table):
    """A ``MultisetEmulation`` of any layout; its source is the table's own law."""
    counts = collections.Counter(table)
    source = JointDistribution({cell: F(n, len(table)) for cell, n in counts.items()})
    return MultisetEmulation(k=k, table=tuple(table), source=source, delta=F(1, 2))


def layouts():
    """(game, emulation) cases over tables that are and are not contiguous."""
    rng = random.Random(61)
    game = signed_game(rng, 2, 3)
    cells = list(game.cells())
    yield pytest.param(game, hand_built(4, [cells[i % 2] for i in range(16)]), id="alternating")
    yield pytest.param(game, hand_built(5, [cells[i % 3] for i in range(32)]), id="alternating-3")
    for rows, cols in ((2, 2), (2, 3), (3, 3)):
        g = signed_game(rng, rows, cols)
        contiguous = emulate(g, random_distribution(rng, list(g.cells())), F(1, 4))
        shuffled = list(contiguous.table)
        rng.shuffle(shuffled)
        yield pytest.param(g, hand_built(contiguous.k, shuffled), id=f"shuffled-{rows}x{cols}")
        order = list(g.cells())
        rng.shuffle(order)
        p = random_distribution(rng, order)
        yield pytest.param(g, emulate(g, p, F(1, 4), order=order), id=f"ordered-{rows}x{cols}")
    yield pytest.param(game, hand_built(3, [cells[4]] * 8), id="one-run")
    yield pytest.param(game, hand_built(0, [cells[1]]), id="k0")
    yield pytest.param(game, hand_built(1, [cells[2]] * 2), id="k1-one-run")
    yield pytest.param(game, hand_built(1, [cells[2], cells[5]]), id="k1-two-runs")
    yield pytest.param(game, hand_built(4, [cells[0]] * 5 + [cells[3]] * 11), id="one-boundary")


def prefixes_of(k):
    return [prefix for m in range(k) for prefix in itertools.product((0, 1), repeat=m)]


@pytest.fixture
def dense(monkeypatch):
    """Run a call once on the run-length engine and once on the dense reference."""

    def both(fn, *args, **kwargs):
        fast = fn(*args, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(analysis, "_Tree", DenseTree)
            slow = fn(*args, **kwargs)
        return fast, slow

    return both


class TestRunLengthEngine:
    """Every output equals the dense engine's, policies in the same order."""

    @pytest.mark.parametrize("game, em", layouts())
    def test_oracle_matches_full_cumsum(self, game, em):
        oracle = PreferenceOracle(em, game)
        for player in (1, 2):
            ones = oracle.prefers_one(player)
            assert isinstance(ones, frozenset)
            assert ones == ones_of(dense_preferred_table(em, game, player))
            assert ones <= set(em.mixed_nodes)
        assert em.mixed_nodes == [
            (1 << m) + j
            for m in range(em.k)
            for j in range(1 << m)
            if len(set(em.table[j << (em.k - m) : (j + 1) << (em.k - m)])) > 1
        ]

    @pytest.mark.parametrize("game, em", layouts())
    def test_oracles_of_two_games_share_one_emulation(self, game, em):
        # Another game on the same cells, with other payoffs and denominators.
        other = signed_game(random.Random(71), game.rows, game.cols)
        games = (game, other)
        oracles = [PreferenceOracle(em, g) for g in games]
        for player in (1, 2):  # interleaved, so each oracle reads what the other left
            for g, oracle in zip(games, oracles):
                assert oracle.prefers_one(player) == ones_of(dense_preferred_table(em, g, player))
        assert set(vars(em)) <= {"k", "table", "source", "delta", "runs", "mixed_nodes"}

    def test_emulate_leaves_the_shape_uncomputed(self):
        rng = random.Random(73)
        game = signed_game(rng, 3, 3)
        em = emulate(game, random_distribution(rng, list(game.cells())), F(1, 4))
        assert "runs" not in vars(em) and "mixed_nodes" not in vars(em)
        fresh = MultisetEmulation(k=em.k, table=em.table, source=em.source, delta=em.delta)
        PreferenceOracle(em, game).prefers_one(1)
        assert "runs" in vars(em) and "mixed_nodes" in vars(em)
        # The shape is not a field: equality and serialization do not see it.
        assert em == fresh and emulation_to_json(em) == emulation_to_json(fresh)

    @pytest.mark.parametrize("game, em", layouts())
    def test_worst_cases_match(self, game, em, dense):
        fast, slow = dense(honest_output_distribution, em, game)
        assert fast == slow
        fast, slow = dense(policy_outcome, em, game, {}, 1)  # the honest policy
        assert list(fast.policy.items()) == list(slow.policy.items())
        for power, objective, cheater in itertools.product(
            POWERS, ("max-own", "min-opponent"), (1, 2)
        ):
            fast, slow = dense(worst_case_adversary, em, game, F(1, 40), cheater, power, objective)
            assert fast == slow, (power, objective, cheater)
            assert list(fast.policy.items()) == list(slow.policy.items())
            assert list(fast.leaf_distribution.items()) == list(slow.leaf_distribution.items())

    @pytest.mark.parametrize("game, em", layouts())
    def test_policies_are_complete_prefix_dicts_in_level_order(self, game, em):
        prefixes = prefixes_of(em.k)
        assert list(worst_case_adversary(em, game, F(0), 1).policy) == prefixes
        for power, objective, cheater in itertools.product(
            POWERS, ("max-own", "min-opponent"), (1, 2)
        ):
            adv = worst_case_adversary(em, game, F(1, 40), cheater, power, objective)
            assert list(adv.policy) == prefixes, (power, objective, cheater)
        assert list(policy_outcome(em, game, {}, 1).policy) == prefixes

    @pytest.mark.parametrize("game, em", layouts())
    def test_policies_are_lazy_mappings_that_equal_dense_dicts(self, game, em):
        def reference(weights):
            return {
                prefix: weights.get((1 << len(prefix)) | bits_to_index(prefix), F(0))
                for prefix in prefixes_of(em.k)
            }

        tree = analysis._Tree(em, game)
        honest = policy_outcome(em, game, {}, 1).policy
        for cheater in (1, 2):  # honest play is the bias-0 optimum
            zero_bias = worst_case_adversary(em, game, F(0), cheater).policy
            assert zero_bias == honest and repr(zero_bias) == repr(honest)
        cases = [(honest, reference(tree.honest_weights), None)]
        for power, objective, cheater in itertools.product(
            POWERS, ("max-own", "min-opponent"), (1, 2)
        ):
            adv = worst_case_adversary(em, game, F(1, 40), cheater, power, objective)
            _, weights = tree.backward_induction(F(1, 40), cheater, power, objective)
            cases.append((adv.policy, reference(weights), (adv, objective)))
        for policy, dense_policy, worst in cases:
            assert not isinstance(policy, dict)
            assert len(policy) == len(dense_policy) == (1 << em.k) - 1
            assert list(policy) == list(dense_policy)
            assert list(policy.items()) == list(dense_policy.items())
            assert list(policy.values()) == list(dense_policy.values())
            assert policy == dense_policy and dense_policy == policy
            assert dict(policy) == dense_policy
            for off_tree in ((0,) * em.k, (1,) * (em.k + 1), (2,), (0, "1"), [0], "0"):
                with pytest.raises(KeyError):
                    policy[off_tree]
                assert off_tree not in policy
            copy = pickle.loads(pickle.dumps(policy))
            assert type(copy) is type(policy) and copy == dense_policy
            assert list(copy.items()) == list(dense_policy.items())
            if worst is None:
                assert repr(policy) == repr(policy_outcome(em, game, {}, 1).policy)
                continue
            adv, objective = worst
            again = worst_case_adversary(em, game, adv.bias, adv.dishonest, adv.power, objective)
            assert repr(policy) == repr(again.policy)
            replay = policy_outcome(em, game, policy, adv.dishonest, objective)
            assert replay.value == adv.value
            assert replay.policy == policy
            assert replay.leaf_distribution == adv.leaf_distribution

    @pytest.mark.parametrize("game, em", layouts())
    def test_scripted_weights_off_the_mixed_nodes(self, game, em, dense):
        rng = random.Random(67)
        depth = {h: h.bit_length() - 1 for h in em.mixed_nodes}
        mixed = {index_to_bits(h - (1 << m), m) for h, m in depth.items()}
        nodes = prefixes_of(em.k)
        plain = [prefix for prefix in nodes if prefix not in mixed]
        weights = [F(0), F(1, 3), HALF, F(5, 7), F(1)]
        policies = [{prefix: rng.choice(weights) for prefix in plain} for _ in range(3)]
        policies.append({prefix: rng.choice(weights) for prefix in nodes})
        for policy in policies:
            for cheater, objective in itertools.product((1, 2), ("max-own", "min-opponent")):
                fast, slow = dense(policy_outcome, em, game, policy, cheater, objective)
                assert fast == slow
                assert list(fast.policy.items()) == list(slow.policy.items())

    @pytest.mark.parametrize("game, em", layouts())
    def test_verifiers_match(self, game, em, dense):
        epsilon = F(1, 10)
        config = ProtocolConfig(epsilon, em.delta, em.k)
        for power in POWERS:
            for cheater in (1, 2):
                fast, slow = dense(verify_distance_bounds, em, game, epsilon, cheater, power=power)
                assert fast == slow, (power, cheater)
                assert list(fast.policy.items()) == list(slow.policy.items())
            fast, slow = dense(verify_payoff_guarantees, em, game, config, power)
            assert fast == slow, power
        scripted = {prefix: F(1, 3) for prefix in prefixes_of(em.k)}
        fast, slow = dense(policy_outcome, em, game, scripted, 2)
        assert fast == slow
        fast, slow = dense(truthful_announcements_optimal, em, game, epsilon)
        assert fast == slow


class TestPoliciesPlayedInPlace:
    """An analysis policy plays and replays exactly as the dense dict of its items."""

    @staticmethod
    def play(game, em, policy, cheater):
        """simulate_outputs counts and run_protocol transcripts of ``policy`` in seat ``cheater``."""
        config = ProtocolConfig(F(1, 10), em.delta, em.k)
        party = PolicyParty(policy)
        parties = (party, HonestParty()) if cheater == 1 else (HonestParty(), party)
        counts = simulate_outputs(game, em.source, config, *parties, RandomStream(5), 100, em=em)
        transcripts = [
            run_protocol(
                game, em.source, config, *parties, RandomStream(6).child(t), em=em,
                warn_not_ce=False,
            )
            for t in range(4)
        ]
        return counts, transcripts

    @pytest.mark.parametrize("game, em", layouts())
    def test_party_plays_the_policy_as_its_dense_dict(self, game, em):
        k = em.k
        smaller = [hand_built(m, em.table[:: 1 << (k - m)]) for m in range(k)]
        larger = hand_built(k + 1, [cell for cell in em.table for _ in (0, 1)])
        for power, cheater in itertools.product(POWERS, (1, 2)):
            for source in [em, *smaller]:
                policy = worst_case_adversary(source, game, F(1, 40), cheater, power).policy
                lazy = self.play(game, em, policy, cheater)
                assert lazy == self.play(game, em, dict(policy), cheater), (power, cheater, source.k)
            policy = worst_case_adversary(larger, game, F(1, 40), cheater, power).policy
            messages = []
            for form in (policy, dict(policy)):
                with pytest.raises(ValueError, match=re.escape(f"prefix {(0,) * k} ")) as error:
                    self.play(game, em, form, cheater)
                messages.append(str(error.value))
            assert messages[0] == messages[1]

    @pytest.mark.parametrize("game, em", layouts())
    def test_foreign_policy_replays_as_its_dense_dict(self, game, em):
        k = em.k
        other_game = signed_game(random.Random(79), game.rows, game.cols)
        other_em = hand_built(k, em.table[::-1])
        smaller = [hand_built(m, em.table[:: 1 << (k - m)]) for m in range(k)]
        for power, cheater in itertools.product(POWERS, (1, 2)):
            policies = [
                worst_case_adversary(source, g, F(1, 40), cheater, power).policy
                for g, source in [(game, em), (other_game, em), (game, other_em)]
                + [(game, small) for small in smaller]
            ]
            for policy, objective in itertools.product(policies, ("max-own", "min-opponent")):
                replay = policy_outcome(em, game, policy, cheater, objective)
                assert replay == policy_outcome(em, game, dict(policy), cheater, objective)


@pytest.mark.parametrize("game, em", layouts())
def test_a_smaller_policy_plays_the_nodes_below_it_as_sigma(game, em):
    # An analysis policy holds the nodes above its own round count; below
    # them the party flips honestly, so play reaches every leaf that
    # ``policy_outcome`` gives mass and no other.
    k = em.k
    config = ProtocolConfig(F(1, 10), em.delta, k)
    for m, power, cheater in itertools.product(range(k), POWERS, (1, 2)):
        small = hand_built(m, em.table[:: 1 << (k - m)])
        policy = worst_case_adversary(small, game, F(1, 40), cheater, power).policy
        party = PolicyParty(policy)
        parties = (party, HonestParty()) if cheater == 1 else (HonestParty(), party)
        counts = simulate_outputs(game, em.source, config, *parties, RandomStream(9), 500, em=em)
        law = policy_outcome(em, game, policy, cheater).leaf_distribution
        assert set(counts) <= set(law), (m, power, cheater)
        assert {bits for bits, mass in law.items() if mass >= F(1, 32)} <= set(counts)
