"""CE polytope assembly, objective selection, vertices and slice bounds."""

import functools
import hashlib
import math
import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from ce_sampler import (
    CeObjective,
    Game,
    JointDistribution,
    JointStrategy,
    build_ce_lp,
    ce_polytope_vertices,
    ce_slice_bounds,
    check_ce,
    expected_utility,
    solve_ce,
)
from ce_sampler.ce_solver import (
    cell_order,
    deviation_constraints,
    payoff_vector,
    total_payoff_vector,
)
from ce_sampler.simplex import EQ, GE, LE, Constraint, LpInfeasibleError
from conftest import random_rational_game

# SHA-256 of solve_ce under every objective and ce_slice_bounds on 20
# seeded games (2x2...4x4) and one 6x6, taken with the artificial start.
SELECTION_OUTPUTS = "030fa2afe0f2560cc169a4a3bd3b9a2925de456a18ae730943202c2b55d70e33"
# SHA-256 of ce_polytope_vertices on every oracle_games() entry, in the
# order returned, one repr of the cell probabilities per vertex.
ORACLE_VERTICES = "7cae1190c3704b66f748897a533a13c9d6a13acb6a5dba99a10ccb997c1ca8d1"


def satisfies(constraint: Constraint, x: list[F]) -> bool:
    lhs = sum(c * v for c, v in zip(constraint.coeffs, x))
    if constraint.relation == LE:
        return lhs <= constraint.rhs
    if constraint.relation == GE:
        return lhs >= constraint.rhs
    return lhs == constraint.rhs


def as_vector(game: Game, dist: JointDistribution) -> list[F]:
    return [dist.prob(cell) for cell in cell_order(game)]


def dot(coeffs, x) -> F:
    return sum((c * v for c, v in zip(coeffs, x)), F(0))


def _integer_row(coeffs, rhs) -> list[int]:
    scale = math.lcm(*(v.denominator for v in coeffs), rhs.denominator)
    return [int(v * scale) for v in coeffs] + [int(rhs * scale)]


def _solve_integer(rows: list[list[int]]) -> tuple[list[int], int] | None:
    """Fraction-free (Bareiss) elimination of a square integer system.

    Returns integer numerators and a positive common denominator of the
    solution, or None when the system is singular.
    """
    a = [row[:] for row in rows]
    n, prev = len(a), 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return None
        a[k], a[pivot] = a[pivot], a[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n + 1):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    det = prev  # the last Bareiss pivot is the determinant, up to sign
    x = [0] * n
    for i in reversed(range(n)):
        rest = sum(a[i][j] * x[j] for j in range(i + 1, n))
        x[i] = (a[i][n] * det - rest) // a[i][i]
    return ([-v for v in x], -det) if det < 0 else (x, det)


def cut_vertices(game: Game, extra=()) -> set[tuple[F, ...]]:
    """Vertices of the CE polytope cut by the ``>=`` rows ``extra``, by brute force.

    The method of ``ce_polytope_vertices`` in integer arithmetic: every
    vertex makes n - 1 inequalities tight beside the sum-to-one row.
    """
    n = game.n_cells
    axes = [Constraint(tuple(F(i == j) for j in range(n)), GE, F(0)) for i in range(n)]
    rows = deviation_constraints(game) + axes + list(extra)
    integer_rows = [_integer_row(c.coeffs, c.rhs) for c in rows]
    ones = [1] * (n + 1)
    points = set()
    for chosen in combinations(integer_rows, n - 1):
        solved = _solve_integer([ones, *chosen])
        if solved is None:
            continue
        x, den = solved
        if all(sum(c * v for c, v in zip(r, x)) >= r[n] * den for r in integer_rows):
            points.add(tuple(F(v, den) for v in x))
    return points


@functools.cache
def fair_cut(game: Game) -> tuple[F, tuple[Constraint, ...]]:
    """The largest payoff both players can get together, and the rows u_p . x >= it."""
    u1, u2 = payoff_vector(game, 1), payoff_vector(game, 2)
    # min(u1, u2) is linear on each half of the polytope split by u1 = u2,
    # so its maximum is attained at a vertex of one of the halves.
    gap = tuple(a - b for a, b in zip(u1, u2))
    halves = cut_vertices(game, [Constraint(gap, GE, F(0))]) | cut_vertices(
        game, [Constraint(tuple(-v for v in gap), GE, F(0))]
    )
    floor = max(min(dot(u1, x), dot(u2, x)) for x in halves)
    return floor, (Constraint(u1, GE, floor), Constraint(u2, GE, floor))


@functools.cache
def oracle_games() -> tuple[Game, ...]:
    rng = random.Random(8191)
    games = [random_rational_game(rng, r, c) for r, c in ((2, 2), (2, 2), (2, 3), (3, 2))]
    bos = Game.from_payoffs([[4, 0], [0, 2]], [[2, 0], [0, 4]])
    coinflip = Game.from_payoffs([[1, 0], [0, 0]], [[0, 0], [0, 1]])
    constant = Game.from_payoffs([[5, 5, 5], [5, 5, 5]], [[5, 5, 5], [5, 5, 5]])
    return (*games, bos, coinflip, constant)


@functools.cache
def library_vertices(index: int) -> list[list[F]]:
    game = oracle_games()[index]
    return [as_vector(game, v) for v in ce_polytope_vertices(game)]


class TestBuildLp:
    def test_two_by_two_constraint_counts(self, bos):
        problem = build_ce_lp(bos)
        assert problem.n_vars == 4
        relations = [c.relation for c in problem.constraints]
        # 2 + 2 deviation rows, 4 nonnegativity rows, 1 normalization row
        assert len(relations) == 9
        assert relations.count(EQ) == 1

    def test_single_cell_game(self):
        game = Game.from_payoffs([[1]], [[2]])
        problem = build_ce_lp(game)
        assert problem.n_vars == 1
        assert len(problem.constraints) == 2  # nonnegativity + normalization

    def test_constraint_count_formula(self):
        rng = random.Random(3)
        for _ in range(10):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            game = random_rational_game(rng, rows, cols)
            problem = build_ce_lp(game)
            expected = rows * (rows - 1) + cols * (cols - 1) + rows * cols + 1
            assert len(problem.constraints) == expected

    def test_known_equilibria_satisfy_the_rows(self, bos, bos_fair_ce):
        problem = build_ce_lp(bos)
        for dist in (
            bos_fair_ce,
            JointDistribution.point_mass(JointStrategy(0, 0)),
            JointDistribution.point_mass(JointStrategy(1, 1)),
        ):
            x = as_vector(bos, dist)
            assert all(satisfies(c, x) for c in problem.constraints)

    def test_non_equilibrium_violates_some_row(self, bos):
        x = as_vector(bos, JointDistribution.point_mass(JointStrategy(0, 1)))
        problem = build_ce_lp(bos)
        assert not all(satisfies(c, x) for c in problem.constraints)

    def test_total_payoff_optimum_solved_directly(self, bos):
        from ce_sampler import simplex_solve

        solution = simplex_solve(build_ce_lp(bos, CeObjective.MAX_TOTAL_LEX))
        assert solution.objective_value == 6


class TestSolve:
    def test_bos_max_fair(self, bos, bos_fair_ce):
        dist = solve_ce(bos, CeObjective.MAX_FAIR)
        assert dist.probs == bos_fair_ce.probs
        assert expected_utility(bos, dist, 1) == 3
        assert expected_utility(bos, dist, 2) == 3

    def test_bos_max_total_lex(self, bos):
        dist = solve_ce(bos, CeObjective.MAX_TOTAL_LEX)
        assert dist.probs == {JointStrategy(0, 0): F(1)}
        # Cross-check the optimal total against the enumerated vertices.
        total = total_payoff_vector(bos)
        vertex_totals = [
            sum(v.prob(c) * t for c, t in zip(cell_order(bos), total))
            for v in ce_polytope_vertices(bos)
        ]
        assert max(vertex_totals) == 6

    def test_coinflip_max_fair(self, coinflip):
        dist = solve_ce(coinflip, CeObjective.MAX_FAIR)
        assert dist.probs == {
            JointStrategy(0, 0): F(1, 2),
            JointStrategy(1, 1): F(1, 2),
        }

    def test_single_cell_game_forced(self):
        game = Game.from_payoffs([[3]], [[-1]])
        for objective in CeObjective:
            assert solve_ce(game, objective).probs == {JointStrategy(0, 0): F(1)}

    def test_outputs_are_exact_equilibria(self):
        rng = random.Random(29)
        for _ in range(8):
            game = random_rational_game(rng, rng.randint(2, 3), rng.randint(2, 3))
            for objective in CeObjective:
                assert check_ce(game, solve_ce(game, objective))

    def test_deterministic(self):
        rng = random.Random(31)
        game = random_rational_game(rng, 3, 2)
        for objective in CeObjective:
            assert solve_ce(game, objective) == solve_ce(game, objective)

    def test_total_payoff_monotonicity(self):
        rng = random.Random(41)
        for _ in range(6):
            game = random_rational_game(rng, 2, rng.randint(2, 3))
            total = total_payoff_vector(game)

            def total_of(dist):
                return sum(dist.prob(c) * t for c, t in zip(cell_order(game), total))

            assert total_of(solve_ce(game, CeObjective.MAX_TOTAL_LEX)) >= total_of(
                solve_ce(game, CeObjective.MAX_FAIR)
            )

    def test_objective_parsing(self, bos):
        assert CeObjective.from_string("max-fair") is CeObjective.MAX_FAIR
        with pytest.raises(ValueError):
            CeObjective.from_string("fairest")
        # a value names its member, and an unknown one is refused
        assert solve_ce(bos, "max-fair") == solve_ce(bos, CeObjective.MAX_FAIR)
        assert build_ce_lp(bos, "max-total-lex") == build_ce_lp(bos, CeObjective.MAX_TOTAL_LEX)
        for select in (solve_ce, build_ce_lp):
            with pytest.raises(ValueError):
                select(bos, "nope")


class TestVertices:
    def test_coinflip_polytope(self, coinflip):
        vertices = ce_polytope_vertices(coinflip)
        supports = {tuple(sorted(v.probs)) for v in vertices}
        # Mass on (1, 0) would tempt either player to defect to the
        # matching bit, so the polytope is the triangle on the other
        # three point masses.
        assert supports == {((0, 0),), ((0, 1),), ((1, 1),)}
        assert all(check_ce(coinflip, v) for v in vertices)

    def test_vertices_are_equilibria_on_random_games(self):
        rng = random.Random(59)
        for _ in range(6):
            game = random_rational_game(rng, 2, 2)
            vertices = ce_polytope_vertices(game)
            assert vertices, "CE polytope can never be empty"
            assert all(check_ce(game, v) for v in vertices)

    def test_inconsistent_systems_are_skipped(self):
        # Row 1 strictly dominates for player 1, so x00 = x01 = 0 beside
        # x10 + x11 = 0 contradicts the sum-to-one row.
        game = Game.from_payoffs([[0, 0], [1, 1]], [[0, 0], [0, 0]])
        vertices = ce_polytope_vertices(game)
        assert [as_vector(game, v) for v in vertices] == [[0, 0, 1, 0], [0, 0, 0, 1]]
        assert cut_vertices(game) == {tuple(as_vector(game, v)) for v in vertices}

    def test_vertex_lists_are_pinned(self):
        """The order and multiplicity of the vertices, which a set cannot see."""
        digest = hashlib.sha256()
        for index in range(len(oracle_games())):
            for x in library_vertices(index):
                digest.update(repr([str(v) for v in x]).encode())
        assert digest.hexdigest() == ORACLE_VERTICES

    def test_large_game_guard(self):
        rng = random.Random(61)
        game = random_rational_game(rng, 4, 4)
        with pytest.raises(ValueError):
            ce_polytope_vertices(game, max_systems=100)


class TestSliceBounds:
    def test_unique_fair_total_one_point(self, coinflip):
        total = Constraint(total_payoff_vector(coinflip), EQ, F(1))
        fair = Constraint(
            tuple(a - b for a, b in zip(payoff_vector(coinflip, 1), payoff_vector(coinflip, 2))),
            EQ,
            F(0),
        )
        bounds = ce_slice_bounds(coinflip, [total, fair])
        expected = {(0, 0): F(1, 2), (1, 1): F(1, 2)}
        for cell, (lo, hi) in zip(cell_order(coinflip), bounds):
            assert lo == hi == expected.get(tuple(cell), F(0))

    def test_unconstrained_bounds_bracket_vertices(self, coinflip):
        bounds = ce_slice_bounds(coinflip)
        vertices = ce_polytope_vertices(coinflip)
        for i, cell in enumerate(cell_order(coinflip)):
            values = [v.prob(cell) for v in vertices]
            assert bounds[i] == (min(values), max(values))


class TestAgainstVertexOracle:
    """The one-tableau lexicographic sequence against vertex enumeration.

    A lexicographic maximum over a polytope is attained at a vertex, and
    the optimal face of a linear objective is spanned by the vertices
    that attain it, so every selection rule can be replayed on the
    enumerated vertices.
    """

    @pytest.fixture(params=range(len(oracle_games())))
    def case(self, request) -> tuple[Game, list[list[F]]]:
        return oracle_games()[request.param], library_vertices(request.param)

    def test_enumerator_matches_library_oracle(self, case):
        game, vertices = case
        assert cut_vertices(game) == {tuple(x) for x in vertices}

    def test_feasible_is_lex_max_vertex(self, case):
        game, vertices = case
        assert as_vector(game, solve_ce(game, CeObjective.FEASIBLE)) == max(vertices)

    def test_max_total_lex_is_lex_max_total_optimal_vertex(self, case):
        game, vertices = case
        total = total_payoff_vector(game)
        best = max(dot(total, x) for x in vertices)
        expected = max(x for x in vertices if dot(total, x) == best)
        assert as_vector(game, solve_ce(game, CeObjective.MAX_TOTAL_LEX)) == expected

    def test_max_fair_is_lex_max_fair_then_total_optimal_vertex(self, case):
        game, _ = case
        floor, cut = fair_cut(game)
        total = total_payoff_vector(game)
        fair = cut_vertices(game, cut)
        best = max(dot(total, x) for x in fair)
        expected = max(x for x in fair if dot(total, x) == best)
        dist = solve_ce(game, CeObjective.MAX_FAIR)
        assert tuple(as_vector(game, dist)) == expected
        assert min(expected_utility(game, dist, 1), expected_utility(game, dist, 2)) == floor

    def test_slice_bounds_under_a_payoff_floor_are_vertex_extremes(self, case):
        # The floor rows have a positive right-hand side, so they start from
        # an artificial while the deviation rows start from their slack.
        game, _ = case
        floor, cut = fair_cut(game)
        assert floor > 0
        vertices = cut_vertices(game, cut)
        bounds = ce_slice_bounds(game, cut)
        for i in range(game.n_cells):
            values = [x[i] for x in vertices]
            assert bounds[i] == (min(values), max(values))

    def test_slice_bounds_are_vertex_extremes(self, case):
        game, vertices = case
        bounds = ce_slice_bounds(game)
        for i in range(game.n_cells):
            values = [x[i] for x in vertices]
            assert bounds[i] == (min(values), max(values))


def test_empty_slice_raises(coinflip):
    # The total payoff of coinflip never exceeds 1.
    above = Constraint(total_payoff_vector(coinflip), GE, F(3, 2))
    with pytest.raises(LpInfeasibleError):
        ce_slice_bounds(coinflip, [above])


def test_selection_outputs_are_pinned():
    """Every selection rule and the slice bounds have one answer per game.

    So no change of the tableau's start may move them.  The 6x6 game also
    catches a slowdown: its four calls take seconds.
    """
    rng = random.Random(6007)
    games = [random_rational_game(rng, rng.randint(2, 4), rng.randint(2, 4)) for _ in range(20)]
    games.append(random_rational_game(random.Random(0), 6, 6))
    digest = hashlib.sha256()
    for game in games:
        for objective in CeObjective:
            dist = solve_ce(game, objective)
            digest.update(repr([str(dist.prob(c)) for c in cell_order(game)]).encode())
        bounds = ce_slice_bounds(game)
        digest.update(repr([(str(lo), str(hi)) for lo, hi in bounds]).encode())
    assert digest.hexdigest() == SELECTION_OUTPUTS
