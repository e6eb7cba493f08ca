"""Correlated-equilibrium computation by exact linear programming.

The CE conditions of a finite two-player game are linear in the joint
distribution, so the set of correlated equilibria is a polytope: one
variable per strategy profile, one inequality per ordered pair of a
suggested and a replacement strategy, plus nonnegativity and the
sum-to-one row.  This module assembles that polytope, optimizes over it
under a few selectable objectives, and settles ties lexicographically so
that every solve is fully deterministic.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .games import ZERO, Game, JointDistribution, JointStrategy
from .simplex import EQ, GE, Constraint, LpProblem, _optimize, _scaled, _Tableau


class CeObjective(Enum):
    """Selection rule applied on top of the CE polytope.

    MAX_TOTAL_LEX maximizes the sum of both players' expected payoffs,
    then refines lexicographically (profile probabilities are maximized
    one at a time in row-major order).  MAX_FAIR first maximizes the
    worse player's payoff, then total payoff, then refines the same way.
    FEASIBLE skips straight to the lexicographic refinement.
    """

    MAX_TOTAL_LEX = "max-total-lex"
    MAX_FAIR = "max-fair"
    FEASIBLE = "feasible"

    @classmethod
    def from_string(cls, text: str) -> "CeObjective":
        for member in cls:
            if member.value == text:
                return member
        options = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown objective {text!r} (expected one of: {options})")


def cell_order(game: Game) -> list[JointStrategy]:
    """Canonical row-major ordering of profiles; fixes variable indices."""
    return list(game.cells())


def payoff_vector(game: Game, player: int) -> tuple[Fraction, ...]:
    """Coefficients of E[u_player] as a linear functional of the joint distribution."""
    return tuple(game.utility(player, s) for s in cell_order(game))


def total_payoff_vector(game: Game) -> tuple[Fraction, ...]:
    return tuple(a + b for a, b in zip(payoff_vector(game, 1), payoff_vector(game, 2)))


def deviation_constraints(game: Game) -> list[Constraint]:
    """One >=0 row per player and ordered (suggested, replacement) pair."""
    order = cell_order(game)
    index = {s: i for i, s in enumerate(order)}
    rows: list[Constraint] = []
    for suggested in range(game.rows):
        for alt in range(game.rows):
            if alt == suggested:
                continue
            coeffs = [ZERO] * len(order)
            for c in range(game.cols):
                coeffs[index[JointStrategy(suggested, c)]] = (
                    game.u1[suggested][c] - game.u1[alt][c]
                )
            rows.append(Constraint(tuple(coeffs), GE, ZERO))
    for suggested in range(game.cols):
        for alt in range(game.cols):
            if alt == suggested:
                continue
            coeffs = [ZERO] * len(order)
            for r in range(game.rows):
                coeffs[index[JointStrategy(r, suggested)]] = (
                    game.u2[r][suggested] - game.u2[r][alt]
                )
            rows.append(Constraint(tuple(coeffs), GE, ZERO))
    return rows


def _unit(n: int, i: int) -> tuple[Fraction, ...]:
    coeffs = [ZERO] * n
    coeffs[i] = Fraction(1)
    return tuple(coeffs)


def _nonnegativity_constraints(n: int) -> list[Constraint]:
    return [Constraint(_unit(n, i), GE, ZERO) for i in range(n)]


def _sum_to_one(n: int) -> Constraint:
    return Constraint(tuple(Fraction(1) for _ in range(n)), EQ, Fraction(1))


def build_ce_lp(game: Game, objective: CeObjective | str = CeObjective.MAX_TOTAL_LEX) -> LpProblem:
    """The LP whose feasible region is exactly the game's CE polytope.

    The objective vector is the total payoff for MAX_TOTAL_LEX and zero
    otherwise (MAX_FAIR's maximin step is not a fixed linear functional;
    :func:`solve_ce` adds epigraph columns for it).  ``objective`` may be a
    member or its value; an unknown value raises :class:`ValueError`.
    """
    objective = CeObjective(objective)
    n = game.n_cells
    rows = deviation_constraints(game) + _nonnegativity_constraints(n) + [_sum_to_one(n)]
    if objective is CeObjective.MAX_TOTAL_LEX:
        vector = total_payoff_vector(game)
    else:
        vector = tuple(ZERO for _ in range(n))
    return LpProblem(vector, tuple(rows))


def solve_ce(game: Game, objective: CeObjective | str = CeObjective.MAX_TOTAL_LEX) -> JointDistribution:
    """Compute a correlated equilibrium under the chosen selection rule.

    All selection steps form one lexicographic sequence on one tableau
    (:func:`ce_sampler.simplex.simplex_sequence`, from the slack start:
    the last step leaves one point, so the start cannot change it, and
    phase 1 has only the sum-to-one row's artificial).  MAX_FAIR maximizes
    the worse player's payoff through two extra epigraph columns
    t = t+ - t- with rows u_p . x >= t, then the total payoff, then each
    profile probability in row-major order; MAX_TOTAL_LEX drops the first
    step and FEASIBLE the first two.  The last step leaves a single point.

    The CE polytope is never empty (every mixed equilibrium lies inside
    it), so this always returns a distribution; it passes
    :func:`ce_sampler.games.check_ce` exactly, and identical inputs yield
    identical output.  ``objective`` may be a member or its value; an
    unknown value raises :class:`ValueError`.
    """
    objective = CeObjective(objective)
    n = game.n_cells
    rows = deviation_constraints(game) + [_sum_to_one(n)]
    steps = [_unit(n, i) for i in range(n)]
    if objective is not CeObjective.FEASIBLE:
        steps.insert(0, total_payoff_vector(game))
    if objective is CeObjective.MAX_FAIR:
        # epigraph columns t+, t- with t = t+ - t- <= u_p . x for both players
        rows = [Constraint(c.coeffs + (ZERO, ZERO), c.relation, c.rhs) for c in rows]
        for player in (1, 2):
            coeffs = payoff_vector(game, player) + (Fraction(-1), Fraction(1))
            rows.append(Constraint(coeffs, GE, ZERO))
        steps = [(ZERO,) * n + (Fraction(1), Fraction(-1))] + [v + (ZERO, ZERO) for v in steps]

    point = _optimize(rows, steps, lexicographic=True, slack_start=True)[-1].values
    return JointDistribution({cell: v for cell, v in zip(cell_order(game), point) if v})


# ---------------------------------------------------------------------------
# Polytope geometry helpers (small games only)
# ---------------------------------------------------------------------------


def ce_polytope_vertices(game: Game, max_systems: int = 100_000) -> list[JointDistribution]:
    """Enumerate every vertex of the CE polytope.

    Works by making n-1 of the inequality constraints tight alongside the
    sum-to-one equality and keeping the feasible, unique solutions.  Each
    square system is an all-``==`` simplex tableau, so driving its
    artificials out is fraction-free elimination; a row it deletes leaves
    the system without a unique solution.  The solution is read as
    integers over the tableau's ``det`` and checked against every
    inequality by cross-multiplying; only the vertices kept become
    ``Fraction``s.  The subset count explodes with game size, so this is
    guarded; larger games should use :func:`ce_slice_bounds` instead.
    """
    n = game.n_cells
    inequalities = deviation_constraints(game) + _nonnegativity_constraints(n)
    if n > 1 and math.comb(len(inequalities), n - 1) > max_systems:
        raise ValueError("game too large for vertex enumeration; use ce_slice_bounds")

    # Each row, right-hand side last, times the lcm of its denominators:
    # the same solutions, in ints.
    rows = [_scaled(con.coeffs + (con.rhs,))[0] for con in inequalities]
    tight = [Constraint(tuple(row[:-1]), EQ, row[-1]) for row in rows]
    sum_to_one = _sum_to_one(n)
    seen: set[tuple[int, ...]] = set()
    vertices: list[JointDistribution] = []
    for chosen in combinations(tight, n - 1):
        tab = _Tableau([sum_to_one, *chosen], n)
        tab.drive_out_artificials()
        if len(tab.basis) < n:
            continue
        x = [0] * n
        for b, v in zip(tab.basis, tab.rhs):
            x[b] = v
        det = tab.det
        if any(v < 0 for v in x):
            continue
        if any(sum(c * v for c, v in zip(row, x)) < row[-1] * det for row in rows):
            continue
        g = math.gcd(det, *x)
        key = tuple(v // g for v in x) + (det // g,)
        if key not in seen:
            seen.add(key)
            vertices.append(
                JointDistribution({s: Fraction(v, det) for s, v in zip(cell_order(game), x) if v})
            )
    vertices.sort(key=lambda d: tuple(d.prob(s) for s in cell_order(game)), reverse=True)
    return vertices


def ce_slice_bounds(
    game: Game, extra: Sequence[Constraint] = ()
) -> list[tuple[Fraction, Fraction]]:
    """Per-profile (min, max) probability over the CE polytope cut by ``extra``.

    When min == max for every profile the slice is a single point — the
    workhorse for uniqueness arguments in games too large to enumerate.
    The 2n bounds are one unrestricted sequence on one tableau, from the
    slack start (only values are returned), each starting from the
    previous optimal basis.  Raises LpInfeasibleError
    if the slice is empty.
    """
    n = game.n_cells
    rows = deviation_constraints(game) + [_sum_to_one(n)] + list(extra)
    objectives = []
    for i in range(n):
        vector = _unit(n, i)
        objectives += [vector, tuple(-c for c in vector)]
    solutions = _optimize(rows, objectives, lexicographic=False, slack_start=True)
    values = [s.objective_value for s in solutions]
    return [(-values[2 * i + 1], values[2 * i]) for i in range(n)]
