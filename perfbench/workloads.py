"""The four benchmark workloads, driven through ce_sampler's public functions.

Each workload is a class with the same shape:

``setup(seed)``
    Generates every input from the seed and does the per-run set-up (CE
    solves, emulation, greedy policies).  Returns a ``Plan`` whose ``pool``
    holds one op input per item, grouped into passes of ``pass_len`` items.
``run(plan, item)``
    One op.  Only this call is timed.
``check(plan, index, item, output)``
    Exact checks on the output of op number ``index``.  Returns
    ``(ok, digest)``; ``digest`` is compared against the pinned reference
    digests (``expected_digests.json``) when the seed has them, and against
    the first result for the same pool item otherwise.
``finish(plan)``
    Checks that need the whole run; returns the indices of failed ops.

No op reads another op's output: each op works from its pool item alone.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction as F

import ce_sampler as cs
from ce_sampler.acceptance import bundled_game


@dataclass
class Plan:
    """A run's op inputs; ``fingerprint`` must be equal for every set-up of one seed."""

    pool: list
    pass_len: int
    fingerprint: str
    state: dict = field(default_factory=dict)


class Workload:
    """Defaults shared by the workloads."""

    def finish(self, plan: Plan) -> set:
        return set()


def digest(*parts) -> str:
    """Short stable hash of a structure of ints, Fractions, strings and tuples."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def random_payoffs(rng: random.Random, rows: int, cols: int) -> tuple:
    """Two payoff matrices shaped like the acceptance battery's random games."""

    def matrix():
        return tuple(
            tuple((rng.randint(0, 12), rng.choice((1, 1, 2, 3, 4))) for _ in range(cols))
            for _ in range(rows)
        )

    return matrix(), matrix()


def coordination_payoffs(rng: random.Random, n: int) -> tuple:
    """An n x n coordination game whose players favour different diagonal cells.

    Off-diagonal payoffs (0..3) lie below every diagonal payoff (4..12), so
    each diagonal cell is a pure equilibrium.  Player 1's favourite cell is
    player 2's least favourite and the other way round, and any cell between
    them is worth no more to either player than their least favourite.  A
    mix of the two favourites then beats every single cell for the worse-off
    player, so the max-fair CE has at least two cells and the round tree has
    coin flips.  One denominator per game keeps the orderings.
    """
    d = rng.choice((1, 1, 2, 3, 4))
    u1 = [[(rng.randint(0, 3), d) for _ in range(n)] for _ in range(n)]
    u2 = [[(rng.randint(0, 3), d) for _ in range(n)] for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    low1, low2 = rng.randint(6, 8), rng.randint(6, 8)
    for rank, i in enumerate(order):
        if rank == 0:
            a, b = rng.randint(9, 12), low2
        elif rank == n - 1:
            a, b = low1, rng.randint(9, 12)
        else:
            a, b = rng.randint(4, low1), rng.randint(4, low2)
        u1[i][i], u2[i][i] = (a, d), (b, d)
    return tuple(map(tuple, u1)), tuple(map(tuple, u2))


def make_game(payoffs: tuple) -> cs.Game:
    u1, u2 = ([[F(n, d) for n, d in row] for row in m] for m in payoffs)
    return cs.Game.from_payoffs(u1, u2)


def dist_key(dist: cs.JointDistribution) -> tuple:
    return tuple((tuple(cell), str(p)) for cell, p in dist.items_sorted())


def leaf_key(dist) -> tuple:
    return tuple((bits, str(p)) for bits, p in sorted(dist.items()))


# ---------------------------------------------------------------------------
# ce_select: chained exact LPs of CE selection
# ---------------------------------------------------------------------------


class CeSelect(Workload):
    """One op is one ``solve_ce`` or ``ce_slice_bounds`` call on a seeded game."""

    name = "ce_select"
    sizes = ((2, 3), (3, 2))
    kinds = ("max-fair", "max-total-lex", "feasible", "slice")
    passes = 24

    def setup(self, seed: int) -> Plan:
        rng = random.Random(f"{self.name}:{seed}")
        pool = []
        for _ in range(self.passes):
            for rows, cols in self.sizes:
                payoffs = random_payoffs(rng, rows, cols)
                game = make_game(payoffs)
                pool.extend((game, kind) for kind in self.kinds)
        fp = digest(tuple((g.u1, g.u2, kind) for g, kind in pool))
        return Plan(pool, len(self.sizes) * len(self.kinds), fp)

    def run(self, plan: Plan, item):
        game, kind = item
        if kind == "slice":
            return cs.ce_slice_bounds(game)
        return cs.solve_ce(game, cs.CeObjective.from_string(kind))

    def check(self, plan: Plan, index: int, item, output):
        game, kind = item
        if kind == "slice":
            ok = all(lo <= hi for lo, hi in output)
            ok = ok and sum(lo for lo, _ in output) <= 1 <= sum(hi for _, hi in output)
            return ok, digest(tuple((str(lo), str(hi)) for lo, hi in output))
        return cs.check_ce(game, output), digest(dist_key(output))


# ---------------------------------------------------------------------------
# battery: one acceptance-battery case per op
# ---------------------------------------------------------------------------


class Battery(Workload):
    """One op builds a game, a CE point from two one-shot LPs, and verifies it."""

    name = "battery"
    sizes = ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (3, 4), (4, 3), (4, 4))
    budgets = ((F(1, 2), F(1, 10)), (F(1, 2), F(1, 100)), (F(1, 8), F(1, 10)), (F(1, 8), F(1, 100)))
    weights = (F(1), F(1, 2), F(1, 3), F(2, 5), F(3, 4))
    passes = 18

    def setup(self, seed: int) -> Plan:
        rng = random.Random(f"{self.name}:{seed}")
        pool = []
        for i in range(self.passes * len(self.sizes)):
            rows, cols = self.sizes[i % len(self.sizes)]
            delta, epsilon = self.budgets[i % len(self.budgets)]
            payoffs = random_payoffs(rng, rows, cols)
            objectives = tuple(
                tuple(F(rng.randint(-6, 6)) for _ in range(rows * cols)) for _ in range(2)
            )
            pool.append((payoffs, objectives, rng.choice(self.weights), delta, epsilon))
        return Plan(pool, len(self.sizes), digest(tuple(pool)))

    def run(self, plan: Plan, item):
        payoffs, objectives, weight, delta, epsilon = item
        game = make_game(payoffs)
        polytope = cs.build_ce_lp(game, cs.CeObjective.FEASIBLE)
        vertices = [
            cs.simplex_solve(cs.LpProblem(objective, polytope.constraints))
            for objective in objectives
        ]
        cells = list(game.cells())
        v1, v2 = (
            cs.JointDistribution({c: x for c, x in zip(cells, v.values) if x}) for v in vertices
        )
        p = v1.mix(v2, weight)
        em = cs.emulate(game, p, delta)
        config = cs.ProtocolConfig(epsilon, delta, em.k)
        reports = [cs.verify_distance_bounds(em, game, epsilon, dishonest) for dishonest in (1, 2)]
        payoff_verdicts = cs.verify_payoff_guarantees(em, game, config)
        return game, p, vertices, reports, payoff_verdicts

    def check(self, plan: Plan, index: int, item, output):
        game, p, vertices, reports, payoff_verdicts = output
        ok = cs.check_ce(game, p)
        ok = ok and all(r.all_hold for r in reports) and all(payoff_verdicts.values())
        return ok, digest(tuple(str(v.objective_value) for v in vertices))


# ---------------------------------------------------------------------------
# deep_tree: exact adversary analysis over the 2^k round tree
# ---------------------------------------------------------------------------


class DeepTree(Workload):
    """One op is the ``analyze`` work for one game emulated at k = ``k``."""

    name = "deep_tree"
    k = 11
    epsilons = (F(1, 10), F(1, 100))
    passes = 4
    # Eight seeded games per pass, so that a run's median is not one game's
    # cost.  Coordination games, because a random game's CE is often a single
    # cell, whose round tree has no coin flip at all.
    seeded_sizes = 7 * (2,) + (3,)

    def setup(self, seed: int) -> Plan:
        rng = random.Random(f"{self.name}:{seed}")
        games = [bundled_game("bos")]
        games.extend(make_game(coordination_payoffs(rng, n)) for n in self.seeded_sizes)
        cases = []
        for game in games:
            p = cs.solve_ce(game, cs.CeObjective.MAX_FAIR)
            delta = F(game.n_cells, 2**self.k)
            em = cs.emulate(game, p, delta)
            cases.append((game, p, em, delta))
        pool = []
        for j in range(self.passes):
            epsilon = self.epsilons[j % len(self.epsilons)]
            dishonest = 1 + (j // len(self.epsilons)) % 2
            for game, p, em, delta in cases:
                pool.append((game, em, cs.ProtocolConfig(epsilon, delta, em.k), dishonest))
        fp = digest(tuple((g.u1, g.u2, dist_key(p), em.table) for g, p, em, _ in cases))
        return Plan(pool, len(cases), fp)

    def run(self, plan: Plan, item):
        game, em, config, dishonest = item
        report = cs.verify_distance_bounds(em, game, config.epsilon, dishonest)
        payoff_verdicts = cs.verify_payoff_guarantees(em, game, config)
        truthful = cs.truthful_announcements_optimal(em, game, config.epsilon)
        return report, payoff_verdicts, truthful

    def check(self, plan: Plan, index: int, item, output):
        report, payoff_verdicts, truthful = output
        # Bias-only verdicts are theorems; ``truthful`` is not, so it is only digested.
        ok = report.all_hold and all(payoff_verdicts.values())
        return ok, digest(
            leaf_key(report.honest_distribution),
            leaf_key(report.adversarial_distribution),
            str(report.adversary_value),
            tuple(str(v) for v in report.l1_per_round),
            tuple(sorted(report.verdicts.items())),
            tuple(sorted(payoff_verdicts.items())),
            truthful,
        )


# ---------------------------------------------------------------------------
# mc_play: Monte Carlo over the sampling protocol and the three-stage game
# ---------------------------------------------------------------------------

TV_BOUND = F(1, 20)  # total-variation bound over output profiles, per case
TV_MIN_TRIALS = 2000  # below this many trials a case's TV check is skipped


@dataclass
class McCase:
    game: cs.Game
    p: cs.JointDistribution
    em: cs.MultisetEmulation
    config: cs.ProtocolConfig
    party1: cs.PartyBehavior
    party2: cs.PartyBehavior
    exact: dict  # leaf index bits -> exact probability
    path: str  # "play" (play_extended_game per trial) or "simulate" (simulate_outputs)
    trials: int  # trials per op


class McPlay(Workload):
    """One op is a batch of trials of one case; the four cases rotate."""

    name = "mc_play"
    passes = 190

    def setup(self, seed: int) -> Plan:
        rng = random.Random(f"{self.name}:{seed}")
        epsilon = F(1, 10)
        bos = bundled_game("bos")
        seeded = make_game(coordination_payoffs(rng, 3))
        prepared = {}
        for label, game, delta in (("bos", bos, F(1, 2)), ("3x3", seeded, F(9, 256))):
            p = cs.solve_ce(game, cs.CeObjective.MAX_FAIR)
            config = cs.ProtocolConfig.plan(game, epsilon, delta)
            em = cs.emulate(game, p, config.delta)
            greedy = cs.worst_case_adversary(em, cs.normalize(game), config.per_round_bias, 1)
            honest = cs.honest_output_distribution(em, game)
            prepared[label] = (game, p, em, config, greedy, honest)

        def case(label, parties, path, trials):
            game, p, em, config, greedy, honest = prepared[label]
            if parties == "greedy":
                party1, exact = cs.PolicyParty(greedy.policy), greedy.leaf_distribution
            else:
                party1, exact = cs.HonestParty(), honest
            exact = {bits: q for bits, q in exact.items() if q}
            return McCase(game, p, em, config, party1, cs.HonestParty(), exact, path, trials)

        # Batch sizes put every case near 30 ms per op at today's speed.
        cases = [
            case("bos", "honest", "play", 320),
            case("bos", "greedy", "simulate", 1000),
            case("3x3", "greedy", "play", 34),
            case("3x3", "honest", "simulate", 1300),
        ]
        root = cs.RandomStream(seed)
        pool = [(c, cases[c], root.child(c, j)) for j in range(self.passes) for c in range(len(cases))]
        fp = digest(tuple((c.em.table, leaf_key(c.exact)) for c in cases))
        state = {
            "cases": cases,
            "profiles": [Counter() for _ in cases],
            "ops": [[] for _ in cases],
        }
        return Plan(pool, len(cases), fp, state)

    def run(self, plan: Plan, item):
        """Returns the index counts, and whether every play-path trial settled as suggested."""
        _, case, stream = item
        if case.path == "simulate":
            counts = cs.simulate_outputs(
                case.game, case.p, case.config, case.party1, case.party2,
                stream, case.trials, em=case.em,
            )
            return counts, True
        counts: Counter = Counter()
        settled = True
        for t in range(case.trials):
            outcome = cs.play_extended_game(
                case.game, case.p, case.config, case.party1, case.party2,
                stream.child(t), em=case.em, record_messages=False, warn_not_ce=False,
            )
            suggestion = outcome.transcript.output
            settled = settled and outcome.checks == ("A", "A")
            settled = settled and outcome.payoffs == case.game.payoffs(suggestion)
            counts[outcome.transcript.ell] += 1
        return counts, settled

    def check(self, plan: Plan, index: int, item, output):
        c, case, _ = item
        counts, settled = output
        ok = settled and sum(counts.values()) == case.trials
        ok = ok and all(bits in case.exact for bits in counts)
        if ok:
            profiles = plan.state["profiles"][c]
            for bits, n in counts.items():
                profiles[case.em.entry(bits)] += n
        plan.state["ops"][c].append(index)
        return ok, None

    def finish(self, plan: Plan) -> set:
        """Empirical TV distance over output profiles, per case, against the exact law."""
        failed = set()
        for c, case in enumerate(plan.state["cases"]):
            counts = plan.state["profiles"][c]
            total = sum(counts.values())
            if total < TV_MIN_TRIALS:
                continue
            exact: Counter = Counter()
            for bits, q in case.exact.items():
                exact[case.em.entry(bits)] += q
            tv = sum(abs(F(counts[cell], total) - exact[cell]) for cell in set(counts) | set(exact)) / 2
            if tv > TV_BOUND:
                failed.update(plan.state["ops"][c])
        return failed


WORKLOADS = {w.name: w for w in (CeSelect(), Battery(), DeepTree(), McPlay())}
