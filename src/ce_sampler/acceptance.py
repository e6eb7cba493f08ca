"""The package's exit criteria, runnable as a suite.

Each criterion is an independently runnable named check with a wall-time
budget; ``run_acceptance`` executes them in order and reports one
pass/fail line per criterion.  The randomized battery (100+ seeded games
with random equilibrium points) is generated once per process and shared
by every criterion that consumes it, so the batch stays inside its time
budget.

``truthful_announcement_optimality`` asserts that lying in the
preference-announcement step never helps a cheater against honest play
σ.  It holds because σ checks announcements: a preference is a
deterministic function of the game and the emulation table, so σ
compares every opponent announcement with the opponent's true
preference and rejects in stage 3 after a lie, settling the game to
(0, 0).  Against an opponent who does not check (the ``unrestricted``
analysis class) the claim is false, and the battery holds counterexamples
(the regression tests pin one); the criterion replays those liars
through the real protocol against σ to show that every lie is caught.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import Callable

from .analysis import (
    deviation_gain_bound_holds,
    honest_output_distribution,
    verify_distance_bounds,
    verify_payoff_guarantees,
    worst_case_adversary,
)
from .ce_solver import (
    CeObjective,
    build_ce_lp,
    ce_polytope_vertices,
    ce_slice_bounds,
    cell_order,
    payoff_vector,
    solve_ce,
    total_payoff_vector,
)
from .emulation import MultisetEmulation, PreferenceOracle, emulate, l1_distance
from .extended_game import augmented_normal_form, play_extended_game
from .games import (
    ZERO,
    Game,
    JointDistribution,
    JointStrategy,
    ProductDistribution,
    check_ce,
    check_mixed_ne,
    check_pure_ne,
    expected_utility,
    normalize,
)
from .protocol import HonestParty, PolicyParty, ProtocolConfig, simulate_outputs
from .rng import RandomStream
from .serialization import parse_game
from .simplex import EQ, Constraint, LpProblem, simplex_solve

F = Fraction


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


_REGISTRY: list[tuple[str, float, Callable[[], str]]] = []


def _criterion(name: str, budget: float):
    def register(fn):
        _REGISTRY.append((name, budget, fn))
        return fn

    return register


def criterion_names(only: str | None = None) -> list[str]:
    """The registered criteria in order, or those whose name contains ``only``."""
    return [name for name, _, _ in _REGISTRY if only is None or only in name]


def run_criterion(name: str) -> CriterionResult:
    for cname, budget, fn in _REGISTRY:
        if cname == name:
            start = time.perf_counter()
            try:
                detail = fn()
                passed = True
            except AssertionError as exc:
                detail = str(exc) or "assertion failed"
                passed = False
            elapsed = time.perf_counter() - start
            if passed and elapsed > budget:
                passed = False
                detail = f"exceeded {budget:.0f}s budget; {detail}"
            return CriterionResult(cname, passed, detail, elapsed)
    raise KeyError(f"no criterion named {name!r}")


def run_acceptance(only: str | None = None) -> list[CriterionResult]:
    """Run all criteria (or those whose name contains ``only``)."""
    selected = criterion_names(only)
    if not selected:
        raise ValueError(f"no criterion name contains {only!r}")
    return [run_criterion(name) for name in selected]


# ---------------------------------------------------------------------------
# Bundled games
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def bundled_game(name: str) -> Game:
    text = resources.files("ce_sampler").joinpath(f"data/{name}.json").read_text()
    return parse_game(json.loads(text), where=f"bundled:{name}")


def _bos_fair_ce() -> JointDistribution:
    return JointDistribution({JointStrategy(0, 0): F(1, 2), JointStrategy(1, 1): F(1, 2)})


# ---------------------------------------------------------------------------
# Randomized battery: >= 100 seeded games, random equilibrium points
# ---------------------------------------------------------------------------

BATTERY_SEED = 12345
BATTERY_SIZE = 108
_SIZES = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (3, 4), (4, 3), (4, 4)]
_BUDGETS = [(F(1, 2), F(1, 10)), (F(1, 2), F(1, 100)), (F(1, 8), F(1, 10)), (F(1, 8), F(1, 100))]


@dataclass(frozen=True)
class BatteryCase:
    index: int
    game: Game
    p: JointDistribution
    em: MultisetEmulation
    config: ProtocolConfig


def _random_game(rng: random.Random, rows: int, cols: int) -> Game:
    def matrix():
        return [
            [F(rng.randint(0, 12), rng.choice([1, 1, 2, 3, 4])) for _ in range(cols)]
            for _ in range(rows)
        ]

    return Game.from_payoffs(matrix(), matrix())


def _random_ce_vertex(game: Game, rng: random.Random) -> JointDistribution:
    rows = build_ce_lp(game, CeObjective.FEASIBLE).constraints
    objective = tuple(F(rng.randint(-6, 6)) for _ in range(game.n_cells))
    solution = simplex_solve(LpProblem(objective, rows))
    return JointDistribution(
        {cell: v for cell, v in zip(cell_order(game), solution.values) if v}
    )


def _random_ce_point(game: Game, rng: random.Random) -> JointDistribution:
    v1 = _random_ce_vertex(game, rng)
    v2 = _random_ce_vertex(game, rng)
    weight = rng.choice([F(1), F(1, 2), F(1, 3), F(2, 5), F(3, 4)])
    return v1.mix(v2, weight)


@lru_cache(maxsize=1)
def battery() -> tuple[BatteryCase, ...]:
    rng = random.Random(BATTERY_SEED)
    cases = []
    for i in range(BATTERY_SIZE):
        rows, cols = _SIZES[i % len(_SIZES)]
        delta, epsilon = _BUDGETS[i % len(_BUDGETS)]
        game = _random_game(rng, rows, cols)
        p = _random_ce_point(game, rng)
        assert check_ce(game, p), f"battery case {i}: generated point is not a CE"
        em = emulate(game, p, delta)
        cases.append(BatteryCase(i, game, p, em, ProtocolConfig(epsilon, delta, em.k)))
    return tuple(cases)


@lru_cache(maxsize=1)
def battery_payoff_verdicts() -> tuple[dict, ...]:
    return tuple(
        verify_payoff_guarantees(case.em, case.game, case.config) for case in battery()
    )


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


@_criterion("bos_equilibria", budget=1.0)
def _check_bos_equilibria() -> str:
    game = bundled_game("bos")
    pure = {tuple(s) for s in game.cells() if check_pure_ne(game, s)}
    assert pure == {(0, 0), (1, 1)}, f"pure equilibria {pure}"
    mixed = ProductDistribution((F(2, 3), F(1, 3)), (F(1, 3), F(2, 3)))
    assert check_mixed_ne(game, mixed, 0), "mixed point fails the equilibrium check"
    joint = mixed.joint()
    for player in (1, 2):
        payoff = expected_utility(game, joint, player)
        assert payoff == F(4, 3), f"player {player} payoff {payoff} != 4/3"
    miss = joint.prob(JointStrategy(0, 1)) + joint.prob(JointStrategy(1, 0))
    assert miss == F(5, 9), f"miscoordination probability {miss} != 5/9"
    return "pure = {(A,A),(B,B)}; mixed payoff 4/3; miscoordination 5/9"


@_criterion("bos_fair_selection", budget=1.0)
def _check_bos_fair_selection() -> str:
    game = bundled_game("bos")
    dist = solve_ce(game, CeObjective.MAX_FAIR)
    expected = _bos_fair_ce()
    assert dist.probs == expected.probs, f"solver returned {dist.items_sorted()}"
    payoffs = tuple(expected_utility(game, dist, pl) for pl in (1, 2))
    assert payoffs == (F(3), F(3)), f"payoffs {payoffs}"
    return "max-fair CE = 1/2 (A,A) + 1/2 (B,B), payoffs (3, 3)"


@_criterion("matching_game_unique_fair_point", budget=1.0)
def _check_matching_game() -> str:
    game = bundled_game("coinflip")
    total = total_payoff_vector(game)
    order = cell_order(game)

    vertices = ce_polytope_vertices(game)
    totals = [sum((v.prob(c) * t for c, t in zip(order, total)), ZERO) for v in vertices]
    best = max(totals)
    assert best == 1, f"max total payoff {best} != 1"
    face = [v for v, t in zip(vertices, totals) if t == best]
    face_supports = {tuple(sorted(v.probs)) for v in face}
    assert face_supports == {((0, 0),), ((1, 1),)}, f"total-1 face vertices {face_supports}"
    # On that two-vertex face, equal payoffs force the midpoint.
    point = face[0].mix(face[1], F(1, 2))
    assert point.probs == _bos_fair_ce().probs

    for g, expected_cells in (
        (game, {(0, 0): F(1, 2), (1, 1): F(1, 2)}),
        (augmented_normal_form(game), {(0, 0): F(1, 2), (1, 1): F(1, 2)}),
    ):
        total_g = total_payoff_vector(g)
        fairness_g = Constraint(
            tuple(a - b for a, b in zip(payoff_vector(g, 1), payoff_vector(g, 2))),
            EQ,
            ZERO,
        )
        bounds = ce_slice_bounds(g, [Constraint(total_g, EQ, F(1)), fairness_g])
        for cell, (lo, hi) in zip(cell_order(g), bounds):
            want = expected_cells.get(tuple(cell), ZERO)
            assert lo == hi == want, f"{g.strategies_1[cell.s1]}/{g.strategies_2[cell.s2]}: [{lo},{hi}] != {want}"
    embedded = _bos_fair_ce()
    assert check_ce(augmented_normal_form(game), embedded)
    return "unique fair total-1 CE is 1/2 (0,0) + 1/2 (1,1), also in the augmented game"


@_criterion("single_flip_cheating_gain", budget=1.0)
def _check_single_flip_gain() -> str:
    game = bundled_game("bos")
    em = emulate(game, _bos_fair_ce(), F(1, 2))
    assert em.k == 3
    for bias in (ZERO, F(1, 100), F(1, 60), F(1, 10)):
        adv = worst_case_adversary(em, game, bias, dishonest=1)
        assert adv.value == 3 + 2 * bias, f"bias {bias}: value {adv.value}"
        expected_q = {(0, 0, 0): F(1, 2) + bias, (1, 0, 0): F(1, 2) - bias}
        got = {k: v for k, v in adv.leaf_distribution.items() if v}
        assert got == expected_q, f"bias {bias}: q {got}"
    return "cheater payoff exactly 3 + 2*bias across bias sweep"


@_criterion("distance_bound_battery", budget=60.0)
def _check_distance_bounds() -> str:
    failures = []
    for case in battery():
        for dishonest in (1, 2):
            report = verify_distance_bounds(
                case.em, case.game, case.config.epsilon, dishonest
            )
            if not report.all_hold:
                failures.append((case.index, dishonest, report.verdicts))
    assert not failures, f"distance bound failures: {failures[:5]}"
    n = len(battery())
    return f"L1 bounds (per-round, cumulative, growth) hold on all {n} cases x 2 cheaters"


@_criterion("payoff_guarantee_battery", budget=60.0)
def _check_payoff_guarantees() -> str:
    failures = []
    for case, verdicts in zip(battery(), battery_payoff_verdicts()):
        bad = [k for k, ok in verdicts.items() if not ok]
        if bad:
            failures.append((case.index, bad))
    assert not failures, f"payoff guarantee failures: {failures[:5]}"
    return f"honest-payoff and cheater bounds hold on all {len(battery())} cases"


@_criterion("deviation_gain_battery", budget=60.0)
def _check_deviation_gains() -> str:
    failures = []
    for case, verdicts in zip(battery(), battery_payoff_verdicts()):
        for dishonest in (1, 2):
            if not deviation_gain_bound_holds(case.em, case.game, case.config, dishonest):
                failures.append((case.index, dishonest, "gain"))
        for player in (1, 2):
            # ``case.em.source`` is ``case.p``: the honest-vs-honest floor.
            if not verdicts[f"honest_payoff_preserved_p{player}"]:
                failures.append((case.index, player, "honest-vs-honest floor"))
    assert not failures, f"deviation bound failures: {failures[:5]}"
    return f"honest play is an epsilon-best response on all {len(battery())} cases"


@_criterion("honest_floor_battery", budget=60.0)
def _check_honest_floor() -> str:
    failures = []
    for case, verdicts in zip(battery(), battery_payoff_verdicts()):
        bad = [k for k, ok in verdicts.items() if k.startswith("honest_floor") and not ok]
        if bad:
            failures.append((case.index, bad))
    assert not failures, f"spiteful-adversary floor failures: {failures[:5]}"
    return f"honest payoff floor holds against spiteful cheaters on all {len(battery())} cases"


MC_TRIALS = 200_000
MC_SEED = 20_108


@_criterion("monte_carlo_consistency", budget=30.0)
def _check_monte_carlo() -> str:
    game = bundled_game("bos")
    p = _bos_fair_ce()
    em = emulate(game, p, F(1, 2))
    config = ProtocolConfig(F(1, 10), F(1, 2), em.k)

    p_h = honest_output_distribution(em, game)
    counts = simulate_outputs(
        game, p, config, HonestParty(), HonestParty(), RandomStream(MC_SEED), MC_TRIALS, em=em
    )
    empirical = {bits: F(n, MC_TRIALS) for bits, n in counts.items()}
    tv_honest = l1_distance(empirical, p_h) / 2
    assert tv_honest <= F(2, 100), f"honest-run TV distance {float(tv_honest):.4f} > 0.02"

    adv = worst_case_adversary(em, game, config.per_round_bias, dishonest=1)
    counts = simulate_outputs(
        game, p, config, PolicyParty(adv.policy), HonestParty(),
        RandomStream(MC_SEED + 1), MC_TRIALS, em=em,
    )
    empirical = {bits: F(n, MC_TRIALS) for bits, n in counts.items()}
    tv_greedy = l1_distance(empirical, adv.leaf_distribution) / 2
    assert tv_greedy <= F(2, 100), f"greedy-run TV distance {float(tv_greedy):.4f} > 0.02"
    return (
        f"{MC_TRIALS} trials: honest TV {float(tv_honest):.4f}, "
        f"greedy TV {float(tv_greedy):.4f} (both <= 0.02)"
    )


REPLAY_TRIALS = 64
REPLAY_SEED = 20_109


def _replay_against_checker(case: BatteryCase, policy, dishonest: int) -> tuple[int, list[int]]:
    """Play ``policy`` from seat ``dishonest`` against σ; (lying trials, bad trials).

    A trial is bad if it holds a false announcement and does not settle to
    (0, 0), or holds none and does not settle as suggested.
    """
    oracle = PreferenceOracle(case.em, case.game)
    honest = HonestParty()
    cheater = PolicyParty(policy)
    parties = (cheater, honest) if dishonest == 1 else (honest, cheater)
    root = RandomStream(REPLAY_SEED).child(case.index, dishonest)
    lying, bad = 0, []
    for t in range(REPLAY_TRIALS):
        outcome = play_extended_game(
            case.game, case.p, case.config, *parties, root.child(t),
            em=case.em, record_messages=False, warn_not_ce=False,
        )
        transcript = outcome.transcript
        lied = any(
            (rec.sign1, rec.sign2)[dishonest - 1]
            != oracle.preference(dishonest, transcript.ell[: rec.index - 1])
            for rec in transcript.rounds
        )
        if lied:
            lying += 1
            settled = outcome.payoffs == (ZERO, ZERO)
        else:
            settled = outcome.checks == ("A", "A") and outcome.stage2 == transcript.output
        if not settled:
            bad.append(t)
    return lying, bad


@_criterion("truthful_announcement_optimality", budget=60.0)
def _check_truthful_announcements() -> str:
    # σ checks announcements, so a lie settles to (0, 0).  The best cheater
    # against σ (power "checked") must do exactly as well as the best
    # truthful one.  Where lying would pay against an opponent who does not
    # check ("unrestricted"), that liar is replayed against σ through the
    # protocol code: every trial with a false announcement must settle to
    # (0, 0), and every other trial as suggested.
    failures, replayed, caught = [], [], 0
    cases = [case for case in battery() if case.em.k <= 8]
    for case in cases:
        norm = normalize(case.game)
        bias = case.config.per_round_bias
        for dishonest in (1, 2):
            truthful = worst_case_adversary(case.em, norm, bias, dishonest, power="truthful")
            checked = worst_case_adversary(case.em, norm, bias, dishonest, power="checked")
            if checked.value != truthful.value:
                failures.append((case.index, dishonest, "lying beats truthful against sigma"))
            unchecked = worst_case_adversary(case.em, norm, bias, dishonest, power="unrestricted")
            if unchecked.value <= truthful.value:
                continue
            replayed.append(case.index)
            lying, bad = _replay_against_checker(case, unchecked.policy, dishonest)
            caught += lying
            if not lying:
                failures.append((case.index, dishonest, "replay told no lie"))
            if bad:
                failures.append((case.index, dishonest, f"replay trials {bad[:5]} settled wrongly"))
    assert not failures, (
        f"announcement checking fails on {len(failures)} battery case/cheater pairs: "
        f"{failures[:5]}"
    )
    return (
        f"against sigma, lying never beats truthful announcing on {len(cases)} cases with k <= 8; "
        f"unchecked liars on cases {replayed} caught in {caught} of "
        f"{len(replayed) * REPLAY_TRIALS} replayed trials, each settled (0, 0)"
    )
