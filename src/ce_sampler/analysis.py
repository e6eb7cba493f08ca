"""Exact analysis of the sampling protocol against bounded adversaries.

The k rounds of the protocol form a complete binary tree over index
prefixes.  With both parties honest, each node either fixes its bit
(matching preferences) or splits fair (a coin flip), which yields the
honest output distribution in a single pass.  A dishonest party facing
an honest one controls, at each node, the probability w that the next
bit lands on the side the honest party does not prefer; which w are
reachable depends on how much of the protocol the adversary is willing
to subvert, and on whether the opponent checks announcements, so the
analysis is parameterized by four power levels:

``bias-only``
    Truthful preference announcements; whenever a coin is actually
    flipped the adversary may shade it by at most the per-round bias cap
    in either direction (|w - 1/2| <= bias).  This is the strongest
    class for which the protocol's guarantees hold unconditionally: the
    output distribution stays within m * epsilon / k of the honest one
    after m rounds, epsilon in total, and no payoff moves by more than
    epsilon on the normalized game.  With bias 0 the class collapses to
    honest play exactly.

``truthful``
    Truthful announcements, but arbitrary coin requests — including
    throwing a flip outright (w = 0), which replaces a fair split by a
    certain bit.  Already outside the guarantees: a thrown flip can move
    the distribution by its node's full mass.

``unrestricted``
    Announcements may lie as well, against an opponent who does not check
    them, so every node offers w in [0, 1/2 + bias]: a lie at a node where
    both parties genuinely prefer the same bit manufactures a coin flip
    where none should happen.  Strictly stronger again.  The honest party
    σ of :mod:`ce_sampler.protocol` checks announcements, so this class
    describes the protocol without that check, not the one σ plays.

``checked``
    The adversary σ actually faces: announcements may lie, but σ compares
    each one with the liar's true preference (a deterministic function of
    shared data) and rejects in stage 3, so any lie settles to (0, 0).  A
    lie is one more option worth zero to the max-own objective — the
    same value as the game-stage deviation folded into the leaves — and
    is outside the spiteful objective, which ranges over adversaries that
    let the game settle.  Since every max-own value is at least zero, a
    lie never strictly beats the truthful continuation, and the optimum
    equals the ``truthful`` one.

The payoff-optimal policy within each class is bang-bang over the
reachable endpoints, so backward induction with exact rationals computes
worst cases outright.  The tree is held as level arrays in heap order:
entry j of level m is the node ``index_to_bits(j, m)``, its children are
entries 2j and 2j + 1 of level m + 1, and level k is the emulation table.
Preferences come a level at a time from the oracle's cumulative sums.
Two passes do all the work: a top-down pass carries mass to the leaves
under one steering weight per node (honest play, or any policy), and a
bottom-up pass runs the backward induction.

The verifier functions compare results against the contract bounds with
zero tolerance and report failed verdicts rather than raising: for the
classes beyond bias-only such failures are real, reproducible behaviors
of the protocol, not implementation bugs, and the test suite pins
concrete instances of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Literal, Mapping

from .emulation import (
    BitPrefix,
    MultisetEmulation,
    PreferenceOracle,
    bits_to_index,
    index_to_bits,
    l1_distance,
    marginal,
)
from .games import ZERO, Game, expected_utility, normalize
from .protocol import ProtocolConfig

HALF = Fraction(1, 2)

AdversaryPower = Literal["bias-only", "truthful", "unrestricted", "checked"]
Objective = Literal["max-own", "min-opponent"]

LeafDistribution = dict[BitPrefix, Fraction]
AdversaryPolicy = dict[BitPrefix, Fraction]  # prefix -> P[next bit != honest-preferred]

POWERS = ("bias-only", "truthful", "unrestricted", "checked")


def _leaf_values(
    em: MultisetEmulation, game: Game, player: int, floor_zero: bool
) -> list[Fraction]:
    values = [game.utility(player, cell) for cell in em.table]
    if floor_zero:
        values = [max(v, ZERO) for v in values]
    return values


def _preferred_levels(oracle: PreferenceOracle, player: int) -> list[list[int]]:
    return [oracle.preferred_bits(player, m) for m in range(oracle.k)]


def _honest_weights(bits1: list[list[int]], bits2: list[list[int]]) -> list[list[Fraction]]:
    """Honest play in steering coordinates: w = 0 at agreements, 1/2 at coins."""
    return [
        [ZERO if b1 == b2 else HALF for b1, b2 in zip(level1, level2)]
        for level1, level2 in zip(bits1, bits2)
    ]


def _leaf_masses(
    honest_bits: list[list[int]], weights: list[list[Fraction]]
) -> list[Fraction]:
    """Top-down pass: the 2^k leaf masses, in table order.

    Node j of level m keeps the share ``1 - weights[m][j]`` of its mass on
    the honest party's preferred bit ``honest_bits[m][j]`` and sends the
    rest to the other child.
    """
    masses = [Fraction(1)]
    for bits, level in zip(honest_bits, weights):
        children = [ZERO] * (2 * len(masses))
        for j, mass in enumerate(masses):
            if mass:
                w, b_h = level[j], bits[j]
                children[2 * j + b_h] = mass * (1 - w)
                children[2 * j + 1 - b_h] = mass * w
        masses = children
    return masses


def _positive_leaves(masses: list[Fraction], k: int) -> LeafDistribution:
    return {index_to_bits(i, k): mass for i, mass in enumerate(masses) if mass}


def _policy(weights: list[list[Fraction]]) -> AdversaryPolicy:
    return {
        index_to_bits(j, m): w for m, level in enumerate(weights) for j, w in enumerate(level)
    }


def honest_output_distribution(em: MultisetEmulation, game: Game) -> LeafDistribution:
    """Exact index distribution when both parties are honest.

    Nodes where the truthful preferences coincide contribute a
    deterministic bit; the rest split half and half.
    """
    oracle = PreferenceOracle(em, game)
    bits1, bits2 = _preferred_levels(oracle, 1), _preferred_levels(oracle, 2)
    return _positive_leaves(_leaf_masses(bits1, _honest_weights(bits1, bits2)), em.k)


def honest_policy(em: MultisetEmulation, game: Game) -> AdversaryPolicy:
    """Honest behavior in steering coordinates: w = 0 at agreements, 1/2 at coins.

    Feeding this policy to :func:`policy_outcome` reproduces the honest
    distribution exactly.
    """
    oracle = PreferenceOracle(em, game)
    return _policy(_honest_weights(_preferred_levels(oracle, 1), _preferred_levels(oracle, 2)))


@dataclass(frozen=True)
class AdversaryOutcome:
    """A steering policy, the leaf distribution it induces, and its value."""

    value: Fraction
    policy: AdversaryPolicy
    leaf_distribution: LeafDistribution
    dishonest: int
    bias: Fraction
    power: str


def _check_players(dishonest: int) -> int:
    if dishonest not in (1, 2):
        raise ValueError("dishonest player must be 1 or 2")
    return 2 if dishonest == 1 else 1


def _steering_candidates(
    power: str, bias: Fraction, truthfully_agrees: bool
) -> list[Fraction]:
    """Reachable next-bit steering weights, honest-equivalent choice first.

    Listing the honest-looking weight first and requiring a strict
    improvement to move off it makes every tie resolve toward honest
    behavior, so optimal policies are deterministic and collapse to the
    honest run when the adversary has nothing to gain.  Under ``checked``
    the steering weights are the truthful ones; the lie is scored apart,
    because it changes the settlement rather than the next bit's law.
    """
    if power == "bias-only":
        if truthfully_agrees:
            return [ZERO]
        return [HALF, HALF - bias, HALF + bias]
    if power in ("truthful", "checked"):
        if truthfully_agrees:
            return [ZERO]
        return [HALF, ZERO, HALF + bias]
    if power == "unrestricted":
        base = ZERO if truthfully_agrees else HALF
        return [base, ZERO, HALF + bias]
    raise ValueError(f"unknown adversary power {power!r} (expected one of {POWERS})")


def worst_case_adversary(
    em: MultisetEmulation,
    game: Game,
    bias: Fraction,
    dishonest: int,
    power: AdversaryPower = "bias-only",
    objective: Objective = "max-own",
) -> AdversaryOutcome:
    """Backward-induction optimum over the chosen adversary class.

    ``objective="max-own"`` maximizes the dishonest player's payoff with
    the deviate-in-the-game-stage option folded in as a floor of zero
    (deviating means the opponent rejects and both score nothing);
    ``"min-opponent"`` minimizes the honest player's payoff over
    adversaries that still let the game settle.  Ties always resolve to
    the honest-equivalent steering weight, so the bias-0 worst case *is*
    the honest run.

    Under ``power="checked"`` every node also offers a false announcement,
    which the checking opponent settles to (0, 0): a max-own option worth
    zero, taken only on a strict improvement and, like the game-stage
    deviation at a leaf, recorded in the value rather than the policy.
    The leaf values are floored at zero, so it is never taken.
    """
    honest = _check_players(dishonest)
    if bias < 0 or bias >= HALF:
        raise ValueError("bias must satisfy 0 <= bias < 1/2")
    candidates = {agrees: _steering_candidates(power, bias, agrees) for agrees in (False, True)}
    if objective == "max-own":
        values = _leaf_values(em, game, dishonest, floor_zero=True)
        better: Callable[[Fraction, Fraction], bool] = lambda a, b: a > b
    elif objective == "min-opponent":
        values = _leaf_values(em, game, honest, floor_zero=False)
        better = lambda a, b: a < b
    else:
        raise ValueError(f"unknown objective {objective!r}")
    checked_lie = power == "checked" and objective == "max-own"
    oracle = PreferenceOracle(em, game)
    honest_bits = _preferred_levels(oracle, honest)
    weights: list[list[Fraction]] = [[] for _ in range(em.k)]

    # Bottom-up pass: ``values`` holds the optimal values of level m + 1.
    for m in reversed(range(em.k)):
        dishonest_bits = oracle.preferred_bits(dishonest, m)
        level_values = []
        for j, b_h in enumerate(honest_bits[m]):
            v0, v1 = values[2 * j], values[2 * j + 1]
            v_honest_side, v_other = (v0, v1) if b_h == 0 else (v1, v0)
            options = candidates[dishonest_bits[j] == b_h]
            chosen = options[0]
            chosen_value = (1 - chosen) * v_honest_side + chosen * v_other
            for w in options[1:]:
                value = (1 - w) * v_honest_side + w * v_other
                if better(value, chosen_value):
                    chosen, chosen_value = w, value
            weights[m].append(chosen)
            if checked_lie and better(ZERO, chosen_value):
                chosen_value = ZERO  # lie and be rejected
            level_values.append(chosen_value)
        values = level_values

    dist = _positive_leaves(_leaf_masses(honest_bits, weights), em.k)
    return AdversaryOutcome(values[0], _policy(weights), dist, dishonest, bias, power)


def policy_outcome(
    em: MultisetEmulation,
    game: Game,
    policy: Mapping[BitPrefix, Fraction],
    dishonest: int,
    objective: Objective = "max-own",
) -> AdversaryOutcome:
    """Exact value and leaf distribution of an arbitrary steering policy.

    Prefixes missing from ``policy`` fall back to honest behavior.  The
    optimum returned by :func:`worst_case_adversary` for a class
    dominates every policy inside that class evaluated here.
    """
    honest = _check_players(dishonest)
    oracle = PreferenceOracle(em, game)
    bits1, bits2 = _preferred_levels(oracle, 1), _preferred_levels(oracle, 2)
    weights = _honest_weights(bits1, bits2)
    for prefix, w in policy.items():
        w = Fraction(w)
        if not 0 <= w <= 1:
            raise ValueError("steering probabilities must lie in [0, 1]")
        prefix = tuple(prefix)
        if len(prefix) >= em.k or any(b not in (0, 1) for b in prefix):
            raise ValueError(
                f"policy prefix {prefix} is not an internal node of the {em.k}-round tree"
            )
        weights[len(prefix)][bits_to_index(prefix)] = w
    masses = _leaf_masses(bits1 if honest == 1 else bits2, weights)
    player = dishonest if objective == "max-own" else honest
    values = _leaf_values(em, game, player, floor_zero=(objective == "max-own"))
    value = sum((mass * v for mass, v in zip(masses, values) if mass), ZERO)
    dist = _positive_leaves(masses, em.k)
    return AdversaryOutcome(value, _policy(weights), dist, dishonest, ZERO, "scripted")


def leaf_expectation(
    em: MultisetEmulation, game: Game, dist: Mapping[BitPrefix, Fraction], player: int
) -> Fraction:
    """E[u_player] when the output profile is read off the table at ``dist``."""
    return sum(
        (mass * game.utility(player, em.table[bits_to_index(bits)])
         for bits, mass in dist.items()),
        ZERO,
    )


@dataclass(frozen=True)
class AnalysisReport:
    """Exact distances, payoffs and verdicts for one adversarial scenario."""

    k: int
    epsilon: Fraction
    bias: Fraction
    dishonest: int
    power: str
    honest_distribution: LeafDistribution
    adversarial_distribution: LeafDistribution
    l1_per_round: tuple[Fraction, ...]
    utilities: dict[str, Fraction]
    verdicts: dict[str, bool]
    policy: AdversaryPolicy
    adversary_value: Fraction

    @property
    def all_hold(self) -> bool:
        return all(self.verdicts.values())


def verify_distance_bounds(
    em: MultisetEmulation,
    game: Game,
    epsilon: Fraction,
    dishonest: int,
    policy: Mapping[BitPrefix, Fraction] | None = None,
    power: AdversaryPower = "bias-only",
) -> AnalysisReport:
    """Check the per-round and cumulative L1 bounds on the adversary's skew.

    With per-round bias epsilon/(2k), a shaded coin moves the marginal
    distribution by at most 2 * bias = epsilon/k in L1, so after m rounds
    the distance is at most m * epsilon / k and at most epsilon overall.
    The check runs against the exact worst case of ``power`` (or a
    supplied policy).  Failed verdicts are reported, not raised; for
    powers beyond bias-only they do occur.
    """
    epsilon = Fraction(epsilon)
    k = em.k
    bias = epsilon / (2 * k) if k else ZERO
    norm = normalize(game)
    p_h = honest_output_distribution(em, norm)
    if policy is None:
        adv = worst_case_adversary(em, norm, bias, dishonest, power=power)
    else:
        adv = policy_outcome(em, norm, policy, dishonest)
    q = adv.leaf_distribution

    l1_per_round = tuple(
        l1_distance(marginal(q, m), marginal(p_h, m)) for m in range(k + 1)
    )
    round_bounds_hold = all(
        l1_per_round[m] <= (m * epsilon / k if k else ZERO) for m in range(k + 1)
    )
    growth_holds = all(
        l1_per_round[m + 1] - l1_per_round[m] <= 2 * bias for m in range(k)
    )
    utilities = {
        "honest_run_p1": leaf_expectation(em, norm, p_h, 1),
        "honest_run_p2": leaf_expectation(em, norm, p_h, 2),
        "adversarial_p1": leaf_expectation(em, norm, q, 1),
        "adversarial_p2": leaf_expectation(em, norm, q, 2),
    }
    verdicts = {
        "l1_round_bounds": round_bounds_hold,
        "l1_cumulative": l1_per_round[k] <= epsilon,
        "l1_growth_per_round": growth_holds,
    }
    return AnalysisReport(
        k=k,
        epsilon=epsilon,
        bias=bias,
        dishonest=dishonest,
        power=adv.power,
        honest_distribution=p_h,
        adversarial_distribution=q,
        l1_per_round=l1_per_round,
        utilities=utilities,
        verdicts=verdicts,
        policy=adv.policy,
        adversary_value=adv.value,
    )


def verify_payoff_guarantees(
    em: MultisetEmulation,
    game: Game,
    config: ProtocolConfig,
    power: AdversaryPower = "bias-only",
) -> dict[str, bool]:
    """Exact payoff checks on the normalized game.

    Honest-vs-honest must come within delta of the source distribution's
    payoff for both players.  Against the worst-case cheater of the given
    power, the cheater gains at most epsilon over the honest run and the
    honest player loses at most epsilon — including against the spiteful
    adversary that minimizes the honest player's payoff outright.
    """
    norm = normalize(game)
    bias = config.per_round_bias
    epsilon, delta = config.epsilon, config.delta
    p_h = honest_output_distribution(em, norm)
    source = {player: expected_utility(norm, em.source, player) for player in (1, 2)}
    honest_run = {player: leaf_expectation(em, norm, p_h, player) for player in (1, 2)}

    verdicts: dict[str, bool] = {}
    for player in (1, 2):
        verdicts[f"honest_payoff_preserved_p{player}"] = (
            honest_run[player] >= source[player] - delta
        )
    for cheater in (1, 2):
        honest = _check_players(cheater)
        adv = worst_case_adversary(em, norm, bias, cheater, power=power)
        q = adv.leaf_distribution
        verdicts[f"cheater_gain_bounded_p{cheater}"] = (
            leaf_expectation(em, norm, q, cheater) <= honest_run[cheater] + epsilon
        )
        verdicts[f"honest_loss_bounded_p{honest}_vs_p{cheater}"] = (
            leaf_expectation(em, norm, q, honest) >= honest_run[honest] - epsilon
        )
        spite = worst_case_adversary(
            em, norm, bias, cheater, power=power, objective="min-opponent"
        )
        verdicts[f"honest_floor_p{honest}_vs_spiteful_p{cheater}"] = (
            spite.value >= honest_run[honest] - epsilon
        )
    return verdicts


def deviation_gain_bound_holds(
    em: MultisetEmulation,
    game: Game,
    config: ProtocolConfig,
    dishonest: int,
    power: AdversaryPower = "bias-only",
) -> bool:
    """True iff no deviation in the class beats honest play by more than epsilon.

    The adversary optimizes its coin steering with the game-stage
    deviation folded in (deviating scores zero once the opponent rejects);
    the bound is checked on the normalized game.
    """
    norm = normalize(game)
    p_h = honest_output_distribution(em, norm)
    honest_value = leaf_expectation(em, norm, p_h, dishonest)
    adv = worst_case_adversary(em, norm, config.per_round_bias, dishonest, power=power)
    return adv.value <= honest_value + config.epsilon


def truthful_announcements_optimal(
    em: MultisetEmulation, game: Game, epsilon: Fraction
) -> bool:
    """Does lying about preferences ever beat announcing them truthfully,
    against an opponent who does not check announcements?

    Compares the exact optimum under unrestricted announcements with the
    optimum restricted to truthful ones (both with the full coin-request
    interval), for each dishonest player.  True when the two coincide.
    This is *not* a theorem: a lie at a node where both parties genuinely
    prefer the same bit manufactures a coin flip and can pay off, so
    counterexamples exist and this function reports them honestly.  The
    honest party σ does check announcements, which settles every lie to
    (0, 0); the ``checked`` power models the adversary σ faces.
    """
    epsilon = Fraction(epsilon)
    bias = epsilon / (2 * em.k) if em.k else ZERO
    norm = normalize(game)
    for dishonest in (1, 2):
        free = worst_case_adversary(em, norm, bias, dishonest, power="unrestricted")
        truthful = worst_case_adversary(em, norm, bias, dishonest, power="truthful")
        if free.value != truthful.value:
            return False
    return True
