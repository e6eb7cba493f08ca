"""Exact-arithmetic linear programming via a two-phase simplex.

The solver maximizes a linear objective over nonnegative rational
variables subject to <=, >= and == constraints.  All pivoting is done on
``fractions.Fraction`` values, and entering/leaving variables follow
Bland's rule (lowest eligible index, lowest basis index on ratio ties),
so every run terminates and identical inputs produce identical output —
the two properties the equilibrium layer depends on.

The tableau is stored densely, but a pivot updates only the columns where
the normalized pivot row is nonzero, which on 3×3 CE polytopes is about a
quarter of the row.  :func:`simplex_sequence` optimizes a sequence of objectives
on one tableau: phase 1 runs once, and each later objective starts from
the previous optimal basis.  In a lexicographic sequence each step is
restricted to the optimal face of the steps before it (Isermann 1982,
"Linear lexicographic optimization") by banning from entry every column
whose reduced cost was positive at an earlier optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .games import ZERO, as_fraction

LE, GE, EQ = "<=", ">=", "=="
_RELATIONS = (LE, GE, EQ)


class LpInfeasibleError(Exception):
    """The constraint system has no nonnegative solution."""


class LpUnboundedError(Exception):
    """The objective can grow without bound over the feasible region."""


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction

    def __post_init__(self) -> None:
        if self.relation not in _RELATIONS:
            raise ValueError(f"relation must be one of {_RELATIONS}")
        object.__setattr__(self, "coeffs", tuple(as_fraction(c) for c in self.coeffs))
        object.__setattr__(self, "rhs", as_fraction(self.rhs))


def constraint(coeffs: Sequence, relation: str, rhs) -> Constraint:
    return Constraint(tuple(as_fraction(c) for c in coeffs), relation, as_fraction(rhs))


@dataclass(frozen=True)
class LpProblem:
    """Maximize ``objective . x`` subject to ``constraints`` and x >= 0."""

    objective: tuple[Fraction, ...]
    constraints: tuple[Constraint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "objective", tuple(as_fraction(c) for c in self.objective))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        n = len(self.objective)
        for con in self.constraints:
            if len(con.coeffs) != n:
                raise ValueError("constraint width does not match objective length")

    @property
    def n_vars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class LpSolution:
    values: tuple[Fraction, ...]
    objective_value: Fraction


def _is_implied_nonnegativity(con: Constraint) -> bool:
    """Rows stating ``x_i >= 0`` are already enforced by the variable domain."""
    if con.rhs != 0:
        return False
    nonzero = [c for c in con.coeffs if c != 0]
    if len(nonzero) != 1:
        return False
    c = nonzero[0]
    return (con.relation == GE and c > 0) or (con.relation == LE and c < 0)


class _Tableau:
    def __init__(self, constraints: Sequence[Constraint], n_vars: int):
        rows = [c for c in constraints if not _is_implied_nonnegativity(c)]
        self.n = n_vars
        slack_rows = [i for i, c in enumerate(rows) if c.relation != EQ]
        self.n_slack = len(slack_rows)
        m = len(rows)
        width = self.n + self.n_slack + m  # structural + slack + artificial
        self.width = width
        self.matrix: list[list[Fraction]] = []
        self.rhs: list[Fraction] = []
        self.basis: list[int] = []

        slack_col = {row: self.n + j for j, row in enumerate(slack_rows)}
        for i, con in enumerate(rows):
            line = list(con.coeffs) + [ZERO] * (self.n_slack + m)
            if con.relation == LE:
                line[slack_col[i]] = Fraction(1)
            elif con.relation == GE:
                line[slack_col[i]] = Fraction(-1)
            b = con.rhs
            if b < 0:
                line = [-v for v in line]
                b = -b
            art = self.n + self.n_slack + i
            line[art] = Fraction(1)
            self.matrix.append(line)
            self.rhs.append(b)
            self.basis.append(art)
        self.first_artificial = self.n + self.n_slack

    def _objective_row(self, cost: list[Fraction]) -> list[Fraction]:
        # reduced costs z_j - c_j for the current basis
        z = [ZERO] * self.width
        for i, b in enumerate(self.basis):
            cb = cost[b]
            if cb:
                row = self.matrix[i]
                for j in range(self.width):
                    if row[j]:
                        z[j] += cb * row[j]
        return [z[j] - cost[j] for j in range(self.width)]

    def _pivot(self, row: int, col: int, zrow: list[Fraction]) -> None:
        line = self.matrix[row]
        pivot = line[col]
        if pivot != 1:
            inv = 1 / pivot
            line = [v * inv if v else v for v in line]
            self.matrix[row] = line
            self.rhs[row] *= inv
        # Subtracting a multiple of a zero entry changes nothing, so only
        # the nonzero columns of the pivot row are updated.
        support = [(j, v) for j, v in enumerate(line) if v]
        b = self.rhs[row]
        for i, other in enumerate(self.matrix):
            factor = other[col]
            if factor and i != row:
                for j, v in support:
                    other[j] -= factor * v
                self.rhs[i] -= factor * b
        factor = zrow[col]
        if factor:
            for j, v in support:
                zrow[j] -= factor * v
        self.basis[row] = col

    def run(self, cost: list[Fraction], columns: Sequence[int]) -> list[Fraction]:
        """Bland-rule simplex entering only ``columns`` (ascending).

        Returns the reduced-cost row of the optimal basis.
        """
        zrow = self._objective_row(cost)
        while True:
            entering = next((j for j in columns if zrow[j] < 0), None)
            if entering is None:
                return zrow
            best_row, best_ratio = None, None
            for i, line in enumerate(self.matrix):
                coeff = line[entering]
                if coeff > 0:
                    ratio = self.rhs[i] / coeff
                    key = (ratio, self.basis[i])
                    if best_ratio is None or key < best_ratio:
                        best_ratio, best_row = key, i
            if best_row is None:
                raise LpUnboundedError(f"column {entering} has no blocking row")
            self._pivot(best_row, entering, zrow)

    def value(self, cost: list[Fraction]) -> Fraction:
        total = ZERO
        for i, b in enumerate(self.basis):
            if cost[b]:
                total += cost[b] * self.rhs[i]
        return total

    def point(self) -> tuple[Fraction, ...]:
        x = [ZERO] * self.n
        for i, b in enumerate(self.basis):
            if b < self.n:
                x[b] = self.rhs[i]
        return tuple(x)

    def drive_out_artificials(self) -> None:
        limit = self.first_artificial
        row = 0
        while row < len(self.matrix):
            if self.basis[row] >= limit:
                col = next((j for j in range(limit) if self.matrix[row][j] != 0), None)
                if col is None:
                    # redundant constraint row
                    del self.matrix[row], self.rhs[row], self.basis[row]
                    continue
                dummy = [ZERO] * self.width
                self._pivot(row, col, dummy)
            row += 1


def simplex_sequence(
    constraints: Sequence[Constraint],
    objectives: Sequence[Sequence],
    lexicographic: bool = True,
) -> list[LpSolution]:
    """Maximize each of ``objectives`` in turn over ``constraints`` and x >= 0.

    All steps share one tableau: phase 1 runs once, and each step starts
    from the optimal basis of the step before it.  With ``lexicographic``
    each step maximizes over the optimal face of all earlier steps; after
    a step, the columns with a positive reduced cost are banned from
    entering, which holds them at zero and so keeps every earlier optimum.
    Without it, every step maximizes over the whole feasible region.

    Returns one optimal vertex and value per step.  Raises
    :class:`LpInfeasibleError` / :class:`LpUnboundedError` when the
    constraints have no solution or a step has no finite optimum.
    """
    costs = [LpProblem(objective, tuple(constraints)).objective for objective in objectives]
    n = len(costs[0])
    if any(len(cost) != n for cost in costs):
        raise ValueError("objective lengths differ")
    tab = _Tableau(constraints, n)

    phase1_cost = [ZERO] * tab.width
    for j in range(tab.first_artificial, tab.width):
        phase1_cost[j] = Fraction(-1)
    tab.run(phase1_cost, range(tab.width))
    if tab.value(phase1_cost) != 0:
        raise LpInfeasibleError("artificial variables cannot be driven to zero")
    tab.drive_out_artificials()

    columns: Sequence[int] = range(tab.first_artificial)
    solutions = []
    for objective in costs:
        cost = list(objective) + [ZERO] * (tab.width - n)
        zrow = tab.run(cost, columns)
        solutions.append(LpSolution(tab.point(), tab.value(cost)))
        if lexicographic:
            # At an optimum every eligible reduced cost is >= 0; the optimal
            # face is where each column with a positive one is zero.
            columns = [j for j in columns if not zrow[j]]
    return solutions


def simplex_solve(lp: LpProblem) -> LpSolution:
    """Solve ``lp`` exactly, returning an optimal vertex.

    Raises :class:`LpInfeasibleError` / :class:`LpUnboundedError` when the
    problem has no solution or no finite optimum.
    """
    return simplex_sequence(lp.constraints, [lp.objective])[0]
