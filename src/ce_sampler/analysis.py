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
reachable endpoints, so exact backward induction computes worst cases
outright.  Inside the passes a node is named by its heap index alone:
the root is 1, the children of h are 2h and 2h + 1, the node of prefix
``bits`` at depth m is ``2**m + bits_to_index(bits)``, and leaf
``2**k + i`` is table entry i.  Steering weights are held as a heap-index
map in which a missing node has w = 0, and a player's preferences are the
oracle's set of mixed nodes where that player prefers 1.  Prefixes are
built only at the public boundary: a policy is
:class:`ce_sampler.protocol._Policy`, a lazy read-only mapping from every
internal node's prefix, level by level, to its weight, which reads the
heap-index map on demand (and which a ``PolicyParty`` plays in place),
and a leaf distribution holds the positive leaves only.  A supplied
policy becomes heap-index weights through
:func:`ce_sampler.protocol.policy_weights`.  Nothing of size 2**k is
built.

The tree is run-length.  A node is *mixed* when a run of equal table
entries starts strictly inside its block (see
:attr:`~ce_sampler.emulation.MultisetEmulation.mixed_nodes`).  Every
leaf under any other node is the same cell, so both players prefer 0,
honest play agrees (w = 0), every class's optimum keeps that
honest-equivalent weight, and the block is worth its cell's value.  The
weight maps therefore need keys at mixed nodes only, and the backward
induction makes one descending, so bottom-up, pass over the emulation's
ascending list of mixed nodes, holding their values in a dict keyed by
heap index.  There are at most (R - 1) * k of them for R runs;
:func:`~ce_sampler.emulation.emulate` lays each cell out contiguously, so
R is at most the number of cells.  A hand-built table may interleave its
cells, and then up to every node is mixed.  A top-down pass carries mass
to the leaves under one steering weight per node (honest play, or any
policy), visiting only nodes of positive mass.

Both passes run in ints over common denominators.  Leaf utilities are
numerators over the oracle's per-player scale D.  The backward induction
writes each candidate weight as a numerator over the candidates' common
denominator L, so a node at depth m holds a value over D * L**(k - m).
The top-down pass scales each level's weights by the lcm of their
denominators, and a mass is its numerator over the product of those
scales.  ``Fraction``s are built only for the returned values, weights
and positive leaves, so every result is the same exact rational as one
computed in Fractions throughout.  Each verifier asks all its questions
of one tree, which builds one oracle and its two preference sets; the
table's runs and mixed nodes are found once per emulation and shared by
every tree over it.

The verifier functions compare results against the contract bounds with
zero tolerance and report failed verdicts rather than raising: for the
classes beyond bias-only such failures are real, reproducible behaviors
of the protocol, not implementation bugs, and the test suite pins
concrete instances of them.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Literal

from .emulation import BitPrefix, MultisetEmulation, PreferenceOracle, index_to_bits
from .games import ZERO, Game, as_fraction, expected_utility, normalize
from .protocol import ProtocolConfig, _Policy, policy_weights, round_bias

HALF = Fraction(1, 2)

AdversaryPower = Literal["bias-only", "truthful", "unrestricted", "checked"]
Objective = Literal["max-own", "min-opponent"]

LeafDistribution = dict[BitPrefix, Fraction]
AdversaryPolicy = Mapping[BitPrefix, Fraction]  # prefix -> P[next bit != honest-preferred]
Weights = dict[int, Fraction]  # heap index -> steering weight; a missing node has w = 0

POWERS = ("bias-only", "truthful", "unrestricted", "checked")


@dataclass(frozen=True)
class _Leaves:
    """The positive-mass leaves of a top-down pass, in table order.

    Each entry is (table index, mass numerator); every mass is its
    numerator over the one ``denominator``.
    """

    k: int
    entries: list[tuple[int, int]]
    denominator: int

    def distribution(self) -> LeafDistribution:
        return {
            index_to_bits(i, self.k): Fraction(mass, self.denominator)
            for i, mass in self.entries
        }


def _leaf_masses(honest_ones: frozenset[int], weights: Weights, k: int) -> _Leaves:
    """Top-down pass: the positive leaf masses, as ints over one denominator.

    Node h keeps the share ``1 - w`` of its mass on the honest party's
    preferred bit, 1 exactly at the nodes in ``honest_ones``, and sends the
    rest to the other child, where w is ``weights.get(h, ZERO)``.  Each
    level's weights are scaled by the lcm of their denominators, which
    multiplies into the common denominator.  Only nodes with positive mass
    are visited.
    """
    nodes, denominator = [(1, 1)], 1  # (heap index, mass numerator)
    for _ in range(k):
        level = [weights.get(h, ZERO) for h, _ in nodes]
        scale = lcm(*{w.denominator for w in level})
        children = []
        for (h, mass), w in zip(nodes, level):
            moved = mass * w.numerator * (scale // w.denominator)
            kept = mass * scale - moved
            zero, one = (moved, kept) if h in honest_ones else (kept, moved)
            if zero:
                children.append((2 * h, zero))
            if one:
                children.append((2 * h + 1, one))
        nodes, denominator = children, denominator * scale
    size = 1 << k
    return _Leaves(k, [(h - size, mass) for h, mass in nodes], denominator)


def _l1_per_round(q: _Leaves, p: _Leaves) -> tuple[Fraction, ...]:
    """Exact L1 distance between the m-bit marginals of q and p, m = 0..k."""
    gaps: dict[int, int] = {}  # node index -> (q - p) mass, over both denominators
    for i, mass in q.entries:
        gaps[i] = gaps.get(i, 0) + mass * p.denominator
    for i, mass in p.entries:
        gaps[i] = gaps.get(i, 0) - mass * q.denominator
    denominator = q.denominator * p.denominator
    distances = []
    for _ in range(q.k + 1):  # leaves first, then one level up at a time
        distances.append(Fraction(sum(abs(gap) for gap in gaps.values()), denominator))
        parents: dict[int, int] = {}
        for i, gap in gaps.items():
            parents[i >> 1] = parents.get(i >> 1, 0) + gap
        gaps = parents
    return tuple(reversed(distances))


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


class _Tree:
    """The round tree of one emulation and game, shared by a verifier's questions.

    One oracle and its two preference sets serve every pass.  The oracle
    is built on first use, so arguments are checked before any tree work.
    Nodes are heap indices and values stay ints over common denominators
    inside the passes; prefixes and ``Fraction``s are built only on the way
    out.  Only the emulation's mixed nodes are visited one by one; every
    other node holds w = 0, which honest play and every optimum share there
    (see the module docstring).
    """

    def __init__(self, em: MultisetEmulation, game: Game):
        self.em = em
        self.game = game
        self.k = em.k

    @cached_property
    def oracle(self) -> PreferenceOracle:
        return PreferenceOracle(self.em, self.game)

    @cached_property
    def honest_weights(self) -> Weights:
        """Honest play in steering coordinates: w = 1/2 at coins, 0 elsewhere.

        Both players prefer 0 at a node that is not mixed, so only a mixed
        node can be a coin.
        """
        coins = self.oracle.prefers_one(1) ^ self.oracle.prefers_one(2)
        return dict.fromkeys(coins, HALF)

    @cached_property
    def honest_leaves(self) -> _Leaves:
        return _leaf_masses(self.oracle.prefers_one(1), self.honest_weights, self.k)

    def expectation(self, leaves: _Leaves, player: int, floor_zero: bool = False) -> Fraction:
        numerators, table = self.oracle.numerators(player), self.em.table
        if floor_zero:
            numerators = {cell: max(v, 0) for cell, v in numerators.items()}
        total = sum(mass * numerators[table[i]] for i, mass in leaves.entries)
        return Fraction(total, leaves.denominator * self.oracle.scale(player))

    def leaves(self, weights: Weights, dishonest: int) -> _Leaves:
        honest = _check_players(dishonest)
        return _leaf_masses(self.oracle.prefers_one(honest), weights, self.k)

    def backward_induction(
        self, bias: Fraction, dishonest: int, power: str, objective: str
    ) -> tuple[Fraction, Weights]:
        """The optimal value over the class and the steering weights attaining it.

        Values are ints: leaves are utilities over the utility scale D, and
        candidate weights are numerators over their common denominator L,
        so a node at depth m holds a value over ``D * L**(k - m)``.  A
        min-opponent pass negates the leaves and maximizes.

        One descending pass over the mixed nodes visits each after both of
        its children.  A child that is not mixed is a block of one cell,
        whose children tie, so a block of height h is worth its cell's leaf
        value times ``L**h``.  Every candidate weight lies in [0, 1], so
        each max-own value is a convex combination of leaf values floored
        at zero and never needs the checked lie's floor.
        """
        honest = _check_players(dishonest)
        if bias < 0 or bias >= HALF:
            raise ValueError("bias must satisfy 0 <= bias < 1/2")
        candidates = {agrees: _steering_candidates(power, bias, agrees) for agrees in (False, True)}
        if objective == "max-own":
            player, sign = dishonest, 1
            leaf = {cell: max(v, 0) for cell, v in self.oracle.numerators(dishonest).items()}
        elif objective == "min-opponent":
            player, sign = honest, -1
            leaf = {cell: -v for cell, v in self.oracle.numerators(honest).items()}
        else:
            raise ValueError(f"unknown objective {objective!r}")
        scale = lcm(*(w.denominator for options in candidates.values() for w in options))
        picks = {}  # (truthfully agrees, sign of the gain) -> (weight, its numerator over L)
        for agrees, options in candidates.items():
            # A weight w is worth ``v + w * gain`` where the honest side is worth
            # v; ``max`` and ``min`` keep the first of equals, the honest-looking one.
            for gain_sign, w in zip((-1, 0, 1), (min(options), options[0], max(options))):
                picks[agrees, gain_sign] = (w, w.numerator * (scale // w.denominator))
        honest_ones = self.oracle.prefers_one(honest)
        dishonest_ones = self.oracle.prefers_one(dishonest)
        table, k, size = self.em.table, self.k, 1 << self.k
        units = [scale**h for h in range(k + 1)]  # L**h: a leaf value lifted h levels

        values: dict[int, int] = {}  # mixed node -> its optimal value
        weights: Weights = {}

        def node_value(h: int, height: int) -> int:
            """A mixed node's value, else its one cell's leaf value lifted ``height`` levels."""
            value = values.get(h)
            if value is None:
                value = leaf[table[(h << height) - size]] * units[height]
            return value

        for h in reversed(self.em.mixed_nodes):
            height = k - h.bit_length()  # of the children
            b_h = h in honest_ones
            v_honest_side = node_value(2 * h + b_h, height)
            gain = node_value(2 * h + 1 - b_h, height) - v_honest_side
            w, numerator = picks[(h in dishonest_ones) == b_h, (gain > 0) - (gain < 0)]
            values[h] = scale * v_honest_side + numerator * gain
            weights[h] = w

        root = node_value(1, k)
        value = Fraction(sign * root, self.oracle.scale(player) * units[k])
        return value, weights

    def worst_case(
        self, bias: Fraction, dishonest: int, power: str, objective: str
    ) -> tuple[AdversaryOutcome, _Leaves]:
        value, weights = self.backward_induction(bias, dishonest, power, objective)
        leaves = self.leaves(weights, dishonest)
        outcome = AdversaryOutcome(
            value, _Policy(weights, self.k), leaves.distribution(), dishonest, bias, power
        )
        return outcome, leaves


def honest_output_distribution(em: MultisetEmulation, game: Game) -> LeafDistribution:
    """Exact index distribution when both parties are honest.

    Nodes where the truthful preferences coincide contribute a
    deterministic bit; the rest split half and half.
    """
    return _Tree(em, game).honest_leaves.distribution()


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
    outcome, _ = _Tree(em, game).worst_case(bias, dishonest, power, objective)
    return outcome


def policy_outcome(
    em: MultisetEmulation,
    game: Game,
    policy: Mapping[BitPrefix, Fraction],
    dishonest: int,
    objective: Objective = "max-own",
) -> AdversaryOutcome:
    """Exact value and leaf distribution of an arbitrary steering policy.

    A prefix that ``policy`` holds overrides honest play, and the rest
    fall back to it.  A plain mapping holds its keys.  A policy returned
    by this module, over k rounds, holds every node at depth below k, also
    where its sparse weights have no key, so the honest coins of ``em``
    are kept only from depth k down, at heap index ``2**k`` and beyond.
    The optimum returned by :func:`worst_case_adversary` for a class
    dominates every policy inside that class evaluated here.
    """
    honest = _check_players(dishonest)
    tree = _Tree(em, game)
    steer = policy_weights(policy, tree.k)
    first_kept = 1 << policy.k if isinstance(policy, _Policy) else 1
    weights = {h: w for h, w in tree.honest_weights.items() if h >= first_kept}
    weights.update(steer)
    leaves = tree.leaves(weights, dishonest)
    max_own = objective == "max-own"
    value = tree.expectation(leaves, dishonest if max_own else honest, floor_zero=max_own)
    return AdversaryOutcome(
        value, _Policy(weights, tree.k), leaves.distribution(), dishonest, ZERO, "scripted"
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
    power: AdversaryPower = "bias-only",
) -> AnalysisReport:
    """Check the per-round and cumulative L1 bounds on the adversary's skew.

    With per-round bias epsilon/(2k), a shaded coin moves the marginal
    distribution by at most 2 * bias = epsilon/k in L1, so after m rounds
    the distance is at most m * epsilon / k and at most epsilon overall.
    The check runs against the exact worst case of ``power``; a supplied
    policy is evaluated by :func:`policy_outcome`.  Failed verdicts are
    reported, not raised; for powers beyond bias-only they do occur.
    """
    epsilon = as_fraction(epsilon)
    k = em.k
    bias = round_bias(epsilon, k)
    tree = _Tree(em, normalize(game))
    adv, q = tree.worst_case(bias, dishonest, power, "max-own")
    p_h = tree.honest_leaves

    l1_per_round = _l1_per_round(q, p_h)
    round_bounds_hold = all(
        l1_per_round[m] <= (m * epsilon / k if k else ZERO) for m in range(k + 1)
    )
    growth_holds = all(
        l1_per_round[m + 1] - l1_per_round[m] <= 2 * bias for m in range(k)
    )
    utilities = {
        "honest_run_p1": tree.expectation(p_h, 1),
        "honest_run_p2": tree.expectation(p_h, 2),
        "adversarial_p1": tree.expectation(q, 1),
        "adversarial_p2": tree.expectation(q, 2),
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
        honest_distribution=p_h.distribution(),
        adversarial_distribution=adv.leaf_distribution,
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
    tree = _Tree(em, norm)
    source = {player: expected_utility(norm, em.source, player) for player in (1, 2)}
    honest_run = {player: tree.expectation(tree.honest_leaves, player) for player in (1, 2)}

    verdicts: dict[str, bool] = {}
    for player in (1, 2):
        verdicts[f"honest_payoff_preserved_p{player}"] = (
            honest_run[player] >= source[player] - delta
        )
    for cheater in (1, 2):
        honest = _check_players(cheater)
        _, weights = tree.backward_induction(bias, cheater, power, "max-own")
        q = tree.leaves(weights, cheater)
        verdicts[f"cheater_gain_bounded_p{cheater}"] = (
            tree.expectation(q, cheater) <= honest_run[cheater] + epsilon
        )
        verdicts[f"honest_loss_bounded_p{honest}_vs_p{cheater}"] = (
            tree.expectation(q, honest) >= honest_run[honest] - epsilon
        )
        spite, _ = tree.backward_induction(bias, cheater, power, "min-opponent")
        verdicts[f"honest_floor_p{honest}_vs_spiteful_p{cheater}"] = (
            spite >= honest_run[honest] - epsilon
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
    tree = _Tree(em, normalize(game))
    value, _ = tree.backward_induction(config.per_round_bias, dishonest, power, "max-own")
    return value <= tree.expectation(tree.honest_leaves, dishonest) + config.epsilon


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
    epsilon = as_fraction(epsilon)
    bias = round_bias(epsilon, em.k)
    tree = _Tree(em, normalize(game))
    for dishonest in (1, 2):
        free, _ = tree.backward_induction(bias, dishonest, "unrestricted", "max-own")
        truthful, _ = tree.backward_induction(bias, dishonest, "truthful", "max-own")
        if free != truthful:
            return False
    return True
