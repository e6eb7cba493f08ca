"""Exact simplex: worked cases, error signals, and a vertex-enumeration oracle."""

import hashlib
import itertools
import random
from fractions import Fraction as F

import pytest

from ce_sampler import CeObjective, Game, build_ce_lp, ce_slice_bounds, simplex, solve_ce
from ce_sampler.acceptance import _random_ce_point
from ce_sampler.simplex import (
    EQ,
    GE,
    LE,
    _RELATIONS,
    Constraint,
    LpInfeasibleError,
    LpProblem,
    LpUnboundedError,
    _optimize,
    _Tableau,
    simplex_sequence,
    simplex_solve,
)
from conftest import random_rational_game

# SHA-256 of the vertices simplex_solve returns on 30 seeded CE LPs.
CE_VERTEX_PATH = "3dff81639a6e3d53b288aa1698f9e0e8ebc8cf4256fa11ccfcb33f2aee752cd0"
# SHA-256 of what simplex_sequence returns or raises, lexicographic and not,
# on 40 seeded general LPs (see general_lp), taken with the Fraction tableau.
GENERAL_LP_PATH = "41cc8c6dc4cfbe62cc4d60c6e82752506cdd07ffb0cfd83ea1012a485d48ce36"


def lp(objective, rows):
    return LpProblem(
        tuple(F(c) for c in objective),
        tuple(Constraint(tuple(F(v) for v in coeffs), rel, F(rhs)) for coeffs, rel, rhs in rows),
    )


def dot(coeffs, x) -> F:
    return sum((c * v for c, v in zip(coeffs, x)), F(0))


def feasible(problem: LpProblem, x) -> bool:
    if any(v < 0 for v in x):
        return False
    for con in problem.constraints:
        lhs = dot(con.coeffs, x)
        if con.relation == LE and lhs > con.rhs:
            return False
        if con.relation == GE and lhs < con.rhs:
            return False
        if con.relation == EQ and lhs != con.rhs:
            return False
    return True


def brute_force_max(problem: LpProblem) -> F:
    """Oracle: enumerate candidate vertices from all tight-constraint subsets.

    Every vertex of {x >= 0, constraints} makes n of the hyperplanes
    (constraint boundaries or coordinate planes) tight, so solving each
    square subsystem by elimination and filtering for feasibility visits
    every vertex.  Assumes the problem is feasible and bounded.
    """
    n = problem.n_vars
    planes = [(con.coeffs, con.rhs) for con in problem.constraints]
    for i in range(n):
        axis = [F(0)] * n
        axis[i] = F(1)
        planes.append((tuple(axis), F(0)))

    def solve_square(system):
        a = [list(coeffs) + [rhs] for coeffs, rhs in system]
        for col in range(n):
            pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
            if pivot is None:
                return None
            a[col], a[pivot] = a[pivot], a[col]
            inv = 1 / a[col][col]
            a[col] = [v * inv for v in a[col]]
            for r in range(n):
                if r != col and a[r][col]:
                    f = a[r][col]
                    a[r] = [v - f * w for v, w in zip(a[r], a[col])]
        return [a[r][n] for r in range(n)]

    best = None
    for subset in itertools.combinations(planes, n):
        x = solve_square(subset)
        if x is None or not feasible(problem, x):
            continue
        value = dot(problem.objective, x)
        if best is None or value > best:
            best = value
    assert best is not None, "oracle found no vertex; problem infeasible?"
    return best


def general_lp(rng):
    """A seeded LP that is feasible by construction unless a noise row breaks it.

    Rows pass through a hidden point with mixed denominators, so right-hand
    sides come out negative as well as positive; relations are GE, LE and
    EQ; a redundant EQ row (a multiple of another) is often added; and the
    bounding row is sometimes left out, so some steps are unbounded.
    """
    n = rng.randint(2, 4)

    def frac(lo, hi):
        return F(rng.randint(lo, hi), rng.choice((1, 2, 3, 5, 7)))

    point = [frac(0, 3) for _ in range(n)]
    rows = []
    if rng.random() < 0.85:
        rows.append(Constraint((F(1),) * n, LE, sum(point) + frac(0, 4)))
    for _ in range(rng.randint(1, 4)):
        coeffs = tuple(frac(-4, 5) for _ in range(n))
        relation = rng.choice((LE, GE, EQ))
        rhs = sum(c * x for c, x in zip(coeffs, point))
        if relation != EQ:
            gap = frac(0, 3)
            rhs += gap if relation == LE else -gap
        if rng.random() < 0.1:
            rhs = frac(-4, 8)
        rows.append(Constraint(coeffs, relation, rhs))
    equalities = [row for row in rows if row.relation == EQ]
    if equalities and rng.random() < 0.6:
        base = rng.choice(equalities)
        scale = frac(-3, 3) or F(-1)
        rows.insert(
            rng.randrange(len(rows) + 1),
            Constraint(tuple(scale * c for c in base.coeffs), EQ, scale * base.rhs),
        )
    objectives = [tuple(frac(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, 3))]
    return rows, objectives


class TestWorkedProblems:
    def test_single_variable_box(self):
        problem = lp([1], [([1], LE, 1)])
        solution = simplex_solve(problem)
        assert solution.values == (F(1),)
        assert solution.objective_value == 1

    def test_equality_row(self):
        problem = lp([1, 0], [([1, 1], EQ, 5), ([1, 0], LE, 3)])
        assert simplex_solve(problem).objective_value == 3

    def test_forced_single_point(self):
        problem = lp([7], [([1], EQ, 1)])
        solution = simplex_solve(problem)
        assert solution.values == (F(1),)

    def test_degenerate_still_terminates(self):
        # Two identical rows plus a redundant equality.
        problem = lp(
            [1, 1],
            [([1, 1], LE, 2), ([1, 1], LE, 2), ([2, 2], EQ, 4), ([1, 0], LE, 1)],
        )
        assert simplex_solve(problem).objective_value == 2

    def test_fractional_data(self):
        problem = lp(
            [F(1, 3), F(1, 7)],
            [([F(1, 2), 1], LE, F(5, 4)), ([1, F(1, 3)], LE, 2)],
        )
        assert simplex_solve(problem).objective_value == brute_force_max(problem)

    def test_infeasible(self):
        problem = lp([1], [([1], LE, -1)])
        with pytest.raises(LpInfeasibleError):
            simplex_solve(problem)

    def test_unbounded(self):
        problem = lp([1, 0], [([0, 1], LE, 1)])
        with pytest.raises(LpUnboundedError):
            simplex_solve(problem)

    def test_redundant_equality_row_is_dropped(self):
        # 2x + 2y == 2 repeats x + y == 1, so after phase 1 one artificial
        # stays basic in a row with no nonzero structural or slack entry.
        problem = lp(
            [1, F(1, 2), 1],
            [([1, 1, 0], EQ, 1), ([2, 2, 0], EQ, 2), ([F(1, 3), 0, F(2, 7)], LE, F(5, 6))],
        )
        solution = simplex_solve(problem)
        assert solution.values == (F(0), F(1), F(35, 12))
        assert solution.objective_value == F(41, 12) == brute_force_max(problem)

    def test_implied_nonnegativity_rows_are_harmless(self):
        problem = lp([1], [([1], GE, 0), ([1], LE, 4)])
        assert simplex_solve(problem).objective_value == 4


class TestAgainstOracle:
    def test_random_bounded_problems(self):
        rng = random.Random(1009)
        for _ in range(40):
            n = rng.randint(2, 3)
            rows = [(tuple(F(1) for _ in range(n)), LE, F(rng.randint(2, 6)))]
            for _ in range(rng.randint(1, 4)):
                coeffs = tuple(F(rng.randint(-4, 5)) for _ in range(n))
                rows.append((coeffs, rng.choice([LE, GE]), F(rng.randint(0, 8))))
            objective = [F(rng.randint(-5, 6)) for _ in range(n)]
            problem = lp(objective, rows)
            try:
                value = simplex_solve(problem).objective_value
            except LpInfeasibleError:
                with pytest.raises(AssertionError):
                    brute_force_max(problem)
                continue
            assert value == brute_force_max(problem)

    def test_sequences_match_appended_rows(self):
        """A lexicographic step equals a cold solve with each earlier optimum as an EQ row."""
        rng = random.Random(2027)
        checked = 0
        for _ in range(30):
            n = rng.randint(2, 3)
            rows = [(tuple(F(1) for _ in range(n)), LE, F(rng.randint(2, 6)))]
            for _ in range(rng.randint(1, 4)):
                coeffs = tuple(F(rng.randint(-3, 3)) for _ in range(n))
                rows.append((coeffs, rng.choice([LE, GE, EQ]), F(rng.randint(0, 4))))
            objectives = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(3)]
            constraints = lp(objectives[0], rows).constraints
            try:
                nested = simplex_sequence(constraints, objectives)
            except LpInfeasibleError:
                continue
            free = simplex_sequence(constraints, objectives, lexicographic=False)
            fixed = list(rows)
            for objective, step, alone in zip(objectives, nested, free):
                assert step.objective_value == brute_force_max(lp(objective, fixed))
                assert alone.objective_value == brute_force_max(lp(objective, rows))
                fixed.append((tuple(objective), EQ, step.objective_value))
            checked += 1
        assert checked >= 10

    def test_solution_is_feasible_vertex(self):
        rng = random.Random(77)
        for _ in range(20):
            n = rng.randint(2, 4)
            rows = [(tuple(F(1) for _ in range(n)), EQ, F(1))]
            for _ in range(rng.randint(1, 3)):
                rows.append(
                    (tuple(F(rng.randint(-3, 3)) for _ in range(n)), GE, F(rng.randint(-2, 0)))
                )
            problem = lp([F(rng.randint(-3, 3)) for _ in range(n)], rows)
            try:
                solution = simplex_solve(problem)
            except LpInfeasibleError:
                continue
            assert sum(solution.values) == 1
            assert all(v >= 0 for v in solution.values)


class TestDeterminism:
    def test_identical_inputs_identical_outputs(self):
        problem = lp(
            [2, 1, 1],
            [([1, 1, 1], LE, 4), ([1, -1, 0], GE, 0), ([0, 1, 3], LE, 6)],
        )
        first = simplex_solve(problem)
        second = simplex_solve(problem)
        assert first == second


class TestPivotPath:
    def test_ce_vertices_are_pinned(self):
        """Degenerate CE LPs have many optimal vertices; which one is returned
        follows the pivot path.

        Small integer payoffs and objectives in {-1, 0, 1} keep the optimal
        faces large, so a change of the entering rule moves the digest.  The
        acceptance battery takes its CE points from such solves; this fast pin
        guards Bland's pivot sequence alongside
        ``test_acceptance.py::test_battery_is_pinned``.
        """
        rng = random.Random(4001)
        digest = hashlib.sha256()
        for _ in range(30):
            rows, cols = rng.randint(2, 3), rng.randint(2, 3)
            u1, u2 = (
                [[rng.randint(0, 2) for _ in range(cols)] for _ in range(rows)] for _ in range(2)
            )
            polytope = build_ce_lp(Game.from_payoffs(u1, u2), CeObjective.FEASIBLE)
            objective = tuple(F(rng.randint(-1, 1)) for _ in range(rows * cols))
            solution = simplex_solve(LpProblem(objective, polytope.constraints))
            digest.update(repr([str(v) for v in solution.values]).encode())
        assert digest.hexdigest() == CE_VERTEX_PATH

    def test_general_lps_are_pinned(self):
        """Vertices, values and error signals on general LPs follow the pivot path too."""
        rng = random.Random(5003)
        digest = hashlib.sha256()
        seen = set()
        for _ in range(40):
            rows, objectives = general_lp(rng)
            for lexicographic in (True, False):
                try:
                    steps = simplex_sequence(rows, objectives, lexicographic=lexicographic)
                except (LpInfeasibleError, LpUnboundedError) as exc:
                    outcome = type(exc).__name__
                else:
                    outcome = [([str(v) for v in s.values], str(s.objective_value)) for s in steps]
                seen.add(outcome if isinstance(outcome, str) else "solved")
                digest.update(repr(outcome).encode())
        assert seen == {"solved", "LpInfeasibleError", "LpUnboundedError"}
        assert digest.hexdigest() == GENERAL_LP_PATH


class TestSlackStart:
    def test_slack_start_gives_the_same_values_and_errors(self):
        """The slack start, which CE selection uses, against the artificial one.

        Vertices may differ where an optimum is not unique, so each step's
        value is compared, and the slack-started vertex is checked to be
        feasible and to attain it.
        """
        rng = random.Random(5003)
        for _ in range(40):
            rows, objectives = general_lp(rng)
            for lexicographic in (True, False):
                outcomes = []
                for slack_start in (False, True):
                    try:
                        steps = _optimize(rows, objectives, lexicographic, slack_start)
                    except (LpInfeasibleError, LpUnboundedError) as exc:
                        outcomes.append(type(exc))
                    else:
                        outcomes.append([s.objective_value for s in steps])
                assert outcomes[0] == outcomes[1]
                if isinstance(outcomes[1], list):
                    problem = LpProblem(objectives[0], tuple(rows))
                    for objective, step in zip(objectives, steps):
                        assert feasible(problem, step.values)
                        assert dot(objective, step.values) == step.objective_value


def ce_rows(game: Game) -> tuple[Constraint, ...]:
    return build_ce_lp(game, CeObjective.FEASIBLE).constraints


def outcomes(calls, clear: bool) -> list:
    """Each call's result or error type; with ``clear`` the phase-1 entry is dropped first."""
    results = []
    for call in calls:
        if clear:
            simplex._last_phase_one = (None, None)
        try:
            results.append(call())
        except (LpInfeasibleError, LpUnboundedError) as exc:
            results.append(type(exc))
    return results


@pytest.fixture
def phase_one_runs(monkeypatch):
    """Counts the phase 1s that finish (each ends in the drive-out), from an empty entry."""
    runs = []
    drive_out = _Tableau.drive_out_artificials

    def counted(tab):
        runs.append(tab)
        drive_out(tab)

    monkeypatch.setattr(_Tableau, "drive_out_artificials", counted)
    monkeypatch.setattr(simplex, "_last_phase_one", (None, None))
    return runs


class TestPhaseOneEntry:
    """A solve whose start equals the last finished phase 1's copies its tableau.

    Each check runs its calls in order with the entry in use, then again
    with the entry dropped before every call, and the two must agree.
    """

    @staticmethod
    def compare(calls, phase_one_runs) -> tuple[list, int, int]:
        warm = outcomes(calls, clear=False)
        warm_runs = len(phase_one_runs)
        assert warm == outcomes(calls, clear=True)
        return warm, warm_runs, len(phase_one_runs) - warm_runs

    def test_repeated_polytope_is_solved_as_if_cold(self, phase_one_runs):
        rng = random.Random(6007)
        a, b = (ce_rows(random_rational_game(rng, 3, 3)) for _ in range(2))
        objectives = [tuple(F(rng.randint(-6, 6)) for _ in range(9)) for _ in range(2)]
        solves = [lambda rows=rows, c=c: simplex_solve(LpProblem(c, rows))
                  for rows, c in [(a, objectives[0]), (a, objectives[1]), (b, objectives[0])]]
        # A, A', B, A, A': the second solve of each pair of A hits the entry.
        _, warm, cold = self.compare(solves + solves[:2], phase_one_runs)
        assert (warm, cold) == (3, 5)

    def test_chained_selection_on_one_game(self, phase_one_runs):
        for seed, (rows, cols) in enumerate([(2, 2), (2, 3), (3, 3)]):
            game = random_rational_game(random.Random(seed), rows, cols)
            units = [tuple(F(i == j) for j in range(game.n_cells)) for i in range(game.n_cells)]
            calls = [
                lambda: simplex_sequence(ce_rows(game), units),
                lambda: simplex_sequence(ce_rows(game), units, lexicographic=False),
                lambda: solve_ce(game, CeObjective.MAX_TOTAL_LEX),
                lambda: solve_ce(game, CeObjective.FEASIBLE),
                lambda: ce_slice_bounds(game),
                lambda: solve_ce(game, CeObjective.MAX_FAIR),
            ]
            phase_one_runs.clear()
            _, warm, cold = self.compare(calls, phase_one_runs)
            # the second sequence, FEASIBLE and the slice bounds hit
            assert (warm, cold) == (3, 6)

    def test_row_scale_is_part_of_the_start(self, phase_one_runs):
        # Halving the first EQ row leaves its ints as they are but changes its
        # weight in phase 1, which then stops at another vertex.
        first, second = ((-3, -3, -1, 3), 1), ((-1, 2, -2, 2), 1)
        whole = lp([0] * 4, [(first[0], EQ, first[1]), (second[0], EQ, second[1])])
        half = lp([0] * 4, [([F(c, 2) for c in first[0]], EQ, F(first[1], 2)),
                            (second[0], EQ, second[1])])
        (a, b), _, _ = self.compare([lambda: simplex_solve(half), lambda: simplex_solve(whole)],
                                    phase_one_runs)
        assert a.values != b.values

    def test_infeasible_start_is_not_kept(self, phase_one_runs):
        feasible_lp = lp([1, 1], [([1, 1], EQ, 1)])
        infeasible_lp = lp([1, 1], [([1, 1], EQ, 1), ([1, 0], GE, 2)])
        calls = [lambda: simplex_solve(feasible_lp)] + [lambda: simplex_solve(infeasible_lp)] * 2
        result, warm, cold = self.compare(calls + calls[:1], phase_one_runs)
        assert result[1:3] == [LpInfeasibleError] * 2
        assert (warm, cold) == (1, 2)

    def test_unbounded_after_a_hit(self, phase_one_runs):
        rows = [([1, -1], EQ, 1)]
        calls = [lambda: simplex_solve(lp([-1, 0], rows)), lambda: simplex_solve(lp([1, 0], rows))]
        result, warm, cold = self.compare(calls, phase_one_runs)
        assert result[0].objective_value == -1 and result[1] is LpUnboundedError
        assert (warm, cold) == (1, 2)

    def test_a_battery_point_runs_phase_one_once(self, phase_one_runs):
        """The battery mixes two vertices of one 4x4 CE polytope: one phase 1."""
        rng = random.Random(7)
        _random_ce_point(random_rational_game(rng, 4, 4), rng)
        assert len(phase_one_runs) == 1

    def test_a_hit_builds_no_tableau(self, phase_one_runs, monkeypatch):
        """The second solve of a battery point copies the entry instead of building."""
        builds = []
        init = _Tableau.__init__

        def counted(tab, *args):
            builds.append(tab)
            init(tab, *args)

        monkeypatch.setattr(_Tableau, "__init__", counted)
        rng = random.Random(7)
        _random_ce_point(random_rational_game(rng, 4, 4), rng)
        assert (len(builds), len(phase_one_runs)) == (1, 1)


def dense_pivot(tab: _Tableau, zrow: list[int], row: int, col: int) -> tuple:
    """One fraction-free (Bareiss) pivot over every entry, zeros included.

    Returns the matrix, right-hand side, objective row and det that
    ``tab._pivot(row, col, zrow)`` should leave, and checks that every
    division is exact.
    """
    line, b = tab.matrix[row], tab.rhs[row]
    if line[col] < 0:
        line, b = [-v for v in line], -b
    p, det = line[col], tab.det

    def step(other, pivot_line):
        f = other[col]
        products = [p * v - f * w for v, w in zip(other, pivot_line)]
        assert all(v % det == 0 for v in products)
        return [v // det for v in products]

    full = line + [b]  # the right-hand side as one more column
    stepped = [full if i == row else step(other + [r], full)
               for i, (other, r) in enumerate(zip(tab.matrix, tab.rhs))]
    return [m[:-1] for m in stepped], [m[-1] for m in stepped], step(zrow, line), p


class TestLiveEntries:
    """The pivot computes only the entries that a later step reads."""

    def test_artificial_columns_leave_at_the_drive_out(self, phase_one_runs):
        game = random_rational_game(random.Random(8), 3, 3)
        rows, n = ce_rows(game), game.n_cells
        simplex_solve(LpProblem((F(1),) * n, rows))
        _optimize(rows, [(F(1),) * n], lexicographic=True, slack_start=True)
        # an all-== system, as vertex enumeration builds one
        tight = [Constraint(c.coeffs, EQ, c.rhs) for c in rows[: n - 1]]
        _Tableau([rows[-1], *tight], n).drive_out_artificials()
        assert [len(tab.scales) for tab in phase_one_runs] == [len(rows) - n, 1, n]
        for tab in phase_one_runs:
            assert tab.width == tab.first_artificial
            assert all(len(line) == tab.first_artificial for line in tab.matrix)

    def test_pivot_matches_a_dense_bareiss_pivot(self):
        rng = random.Random(9)
        for _ in range(60):
            n = rng.randint(2, 5)
            dead = rng.randrange(n)  # a column of zeros
            rows = [Constraint((F(0),) * n, EQ, F(0))]  # a row of zeros
            for _ in range(rng.randint(2, 5)):
                coeffs = [0 if j == dead or rng.random() < 0.5 else rng.randint(-4, 4)
                          for j in range(n)]
                rows.append(Constraint(tuple(coeffs), rng.choice(_RELATIONS), rng.randint(-3, 3)))
            rng.shuffle(rows)
            tab = _Tableau(rows, n)
            zrow = [rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(tab.width)]
            for _ in range(4):
                live = [(i, j) for i, line in enumerate(tab.matrix) for j, v in enumerate(line) if v]
                row, col = rng.choice(live)
                expected = dense_pivot(tab, zrow, row, col)
                tab._pivot(row, col, zrow)
                assert (tab.matrix, tab.rhs, zrow, tab.det) == expected


class TestValidation:
    def test_relation_must_be_known(self):
        with pytest.raises(ValueError):
            Constraint((F(1),), "<", F(0))

    def test_width_mismatch_rejected(self):
        row = Constraint((F(1), F(2)), LE, F(1))
        with pytest.raises(ValueError):
            LpProblem((F(1),), (row,))
        with pytest.raises(ValueError, match="constraint width"):
            simplex_sequence([row], [[1]])
        with pytest.raises(ValueError, match="objective lengths"):
            simplex_sequence([row], [[1, 0], [1]])

    def test_empty_objectives_rejected(self):
        with pytest.raises(ValueError, match="objectives"):
            simplex_sequence([Constraint((F(1),), LE, F(1))], [])
