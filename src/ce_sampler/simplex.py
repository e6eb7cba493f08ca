"""Exact-arithmetic linear programming via a two-phase simplex.

The solver maximizes a linear objective over nonnegative rational
variables subject to <=, >= and == constraints.  Entering and leaving
variables follow Bland's rule (lowest eligible index, lowest basis index
on ratio ties), so every run terminates and identical inputs produce
identical output — the two properties the equilibrium layer depends on.

The tableau holds Python ints over one common denominator and pivots
with integer-preserving (fraction-free) elimination (Edmonds 1967;
Bareiss 1968), so no ``fractions.Fraction`` is built while pivoting.
Every pivoting decision reads the sign of an int or compares two
cross-multiplied ratios, which are the decisions the rational tableau
makes, so the pivot path is the one a ``Fraction`` tableau takes.
Fractions appear only in the returned vertices and values.  A pivot
computes only entries a later step can read: the artificial columns
leave at the drive-out that ends phase 1, and a pair of zeros stays 0
without arithmetic.
:func:`simplex_sequence` optimizes a sequence of objectives on one
tableau: phase 1 runs once, and each later objective starts from the
previous optimal basis.  In a lexicographic sequence each step is
restricted to the optimal face of the steps before it (Isermann 1982,
"Linear lexicographic optimization") by banning from entry every column
whose reduced cost was positive at an earlier optimum.

The tableau has two starts.  The artificial start gives every row an
artificial column, and phase 1 drives them all out.  The slack start
begins each row that can from its slack: a ``<=`` row with right-hand
side b >= 0, or a ``>=`` row with b <= 0 (negated).  Only the other rows
(``==`` rows, ``>=`` rows with b > 0, ``<=`` rows with b < 0) get an
artificial, and phase 1 is skipped when none does.  On a CE LP every
deviation row ``... >= 0`` then starts from its slack, and phase 1
shrinks to the sum-to-one row.  The two
starts reach the same optimal values and raise the same errors, but where
an optimum is not unique they can return different vertices.  So the
public :func:`simplex_solve` and :func:`simplex_sequence` keep the
artificial start, whose vertices callers rely on (the acceptance battery
takes its CE points from them), and only CE selection, whose every
answer is unique, uses the slack start.

A repeated solve of the same constraints skips phase 1: one module-level
entry is keyed on the inputs of the last finished phase 1 (the number of
variables, the start kind and the constraint rows, compared by value)
and holds the tableau phase 1 reached.  Phase 1 reads nothing but those
inputs, so a hit copies that tableau, builds none, and gives exactly the
pivots, vertices and errors a fresh phase 1 would.
"""

from __future__ import annotations

import math
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
        # Built from a list, the tuple is allocated at its final size; one
        # built from a generator is resized, and freed ones then pile up in
        # CPython's tuple free lists until a full collection.
        object.__setattr__(self, "coeffs", tuple([as_fraction(c) for c in self.coeffs]))
        object.__setattr__(self, "rhs", as_fraction(self.rhs))


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


def _scaled(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers proportional to ``values``, and the positive factor applied."""
    scale = 1
    for v in values:  # pairwise: lcm(*generator) would strand a resized tuple per row
        scale = math.lcm(scale, v.denominator)
    return [v.numerator * (scale // v.denominator) for v in values], scale


class _Tableau:
    """A simplex tableau of ints over one common denominator ``det`` > 0.

    Row i stands for the rational row ``matrix[i] / det`` with right-hand
    side ``rhs[i] / det``.  A pivot keeps every entry an int: each other
    row becomes ``(p * a_ij - a_ic * a_rj) // det``, an exact division,
    and ``det`` becomes the pivot p (Edmonds 1967; Bareiss 1968).  The
    division is exact because every entry is then a minor of the starting
    integer matrix, whose basis columns form the identity; so each row is
    scaled by the lcm of its own denominators, and the column it starts
    from keeps coefficient 1.  With the artificial start that is every
    row's artificial (artificial i measures ``scales[i]`` times the
    artificial of the unscaled row).  With ``slack_start`` a row whose
    slack has a positive coefficient (after negating a ``>=`` row with
    right-hand side 0) starts from that slack, set to 1, so the slack
    measures the row's scale times the unscaled slack; only the other rows
    get an artificial, and ``scales`` lists theirs.  Rescaling a slack
    column by a positive factor moves no pivot decision, and the vertex is
    read from the structural columns only.  ``drive_out_artificials``
    drops every artificial column, so afterwards ``width`` is
    ``first_artificial``.
    """

    def __init__(
        self, constraints: Sequence[Constraint], n_vars: int, slack_start: bool = False
    ):
        rows = [c for c in constraints if not _is_implied_nonnegativity(c)]
        self.n = n_vars
        slack_rows = [i for i, c in enumerate(rows) if c.relation != EQ]
        self.n_slack = len(slack_rows)
        self.first_artificial = self.n + self.n_slack
        self.det = 1
        self.matrix: list[list[int]] = []
        self.rhs: list[int] = []
        self.basis: list[int] = []
        self.scales: list[int] = []  # of the rows with an artificial, in column order

        slack_col = {row: self.n + j for j, row in enumerate(slack_rows)}
        for i, con in enumerate(rows):
            ints, scale = _scaled(con.coeffs + (con.rhs,))
            b = ints.pop()
            line = ints + [0] * self.n_slack
            slack = slack_col.get(i)
            if con.relation == LE:
                line[slack] = scale
            elif con.relation == GE:
                line[slack] = -scale
            if b < 0 or (slack_start and b == 0 and con.relation == GE):
                line = [-v for v in line]
                b = -b
            if slack_start and slack is not None and line[slack] > 0:
                self.basis.append(slack)
            else:
                self.basis.append(self.first_artificial + len(self.scales))
                self.scales.append(scale)
            self.matrix.append(line)
            self.rhs.append(b)
        self.width = self.first_artificial + len(self.scales)  # structural + slack + artificial
        for line, start in zip(self.matrix, self.basis):
            line.extend([0] * len(self.scales))
            line[start] = 1  # the starting basis is the identity

    def _objective_row(self, cost: list[int]) -> list[int]:
        # det times the reduced costs z_j - c_j of the current basis
        z = [-self.det * c for c in cost]
        for i, b in enumerate(self.basis):
            cb = cost[b]
            if cb:
                z = [zj + cb * v for zj, v in zip(z, self.matrix[i])]
        return z

    def _pivot(self, row: int, col: int, zrow: list[int] | None = None) -> None:
        line = self.matrix[row]
        p = line[col]
        if p < 0:
            # Only a drive-out pivot can be negative.  Negating the pivot row
            # first yields the pivoted tableau times -1, so det = -p > 0.
            line = self.matrix[row] = [-v for v in line]
            self.rhs[row] = -self.rhs[row]
            p = -p
        det = self.det
        b = self.rhs[row]
        for i, other in enumerate(self.matrix):
            if i == row:
                continue
            f = other[col]
            # A pair of zeros stays 0, and so does a rescaled 0: skip their arithmetic.
            if f:
                self.matrix[i] = [(p * v - f * w) // det if v or w else 0
                                  for v, w in zip(other, line)]
                self.rhs[i] = (p * self.rhs[i] - f * b) // det
            elif p != det:  # the row is unchanged but moves to the new det
                self.matrix[i] = [p * v // det if v else 0 for v in other]
                self.rhs[i] = p * self.rhs[i] // det
        if zrow is not None:
            f = zrow[col]
            zrow[:] = [(p * v - f * w) // det if v or w else 0 for v, w in zip(zrow, line)]
        self.det = p
        self.basis[row] = col

    def run(self, cost: list[int], columns: Sequence[int]) -> list[int]:
        """Bland-rule simplex entering only ``columns`` (ascending).

        ``cost`` is a positive multiple of the objective.  Returns a
        positive multiple of the reduced-cost row of the optimal basis.
        """
        zrow = self._objective_row(cost)
        while True:
            entering = next((j for j in columns if zrow[j] < 0), None)
            if entering is None:
                return zrow
            # Minimum ratio rhs/coeff, ties to the lowest basis index.  det
            # cancels and coefficients are positive, so cross-multiply.
            best_row = None
            for i, line in enumerate(self.matrix):
                coeff = line[entering]
                if coeff <= 0:
                    continue
                if best_row is not None:
                    lhs, rhs = self.rhs[i] * best_coeff, self.rhs[best_row] * coeff
                    if lhs > rhs or (lhs == rhs and self.basis[i] > self.basis[best_row]):
                        continue
                best_row, best_coeff = i, coeff
            if best_row is None:
                raise LpUnboundedError(f"column {entering} has no blocking row")
            self._pivot(best_row, entering, zrow)

    def value(self, cost: list[int], scale: int) -> Fraction:
        """The objective ``cost / scale`` at the current basis."""
        total = sum(cost[b] * self.rhs[i] for i, b in enumerate(self.basis))
        return Fraction(total, self.det * scale)

    def point(self) -> tuple[Fraction, ...]:
        x = [ZERO] * self.n
        for i, b in enumerate(self.basis):
            if b < self.n:
                x[b] = Fraction(self.rhs[i], self.det)
        return tuple(x)

    def copy(self) -> "_Tableau":
        """The same tableau in lists of its own."""
        tab = object.__new__(_Tableau)
        tab.__dict__.update(self.__dict__)
        tab.matrix, tab.rhs, tab.basis = [line[:] for line in self.matrix], self.rhs[:], self.basis[:]
        return tab

    def drive_out_artificials(self) -> None:
        # Nothing reads an artificial column after phase 1, so they go first.
        limit = self.width = self.first_artificial
        for line in self.matrix:
            del line[limit:]
        row = 0
        while row < len(self.matrix):
            if self.basis[row] >= limit:
                col = next((j for j in range(limit) if self.matrix[row][j]), None)
                if col is None:
                    # redundant constraint row
                    del self.matrix[row], self.rhs[row], self.basis[row]
                    continue
                self._pivot(row, col)
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
    constraints have no solution or a step has no finite optimum, and
    :class:`ValueError` when ``objectives`` is empty or a width differs.
    """
    return _optimize(constraints, objectives, lexicographic, slack_start=False)


# The inputs of the last tableau whose phase 1 succeeded, (n, slack_start,
# constraints) compared by value, and that tableau after drive_out_artificials.
# Its rows stay lists: rows built as tuples and then dropped pile up in
# CPython's per-size tuple free lists (0.6-0.8 MB of peak RSS over chained CE
# selections).
_last_phase_one: tuple = (None, None)


def _optimize(
    constraints: Sequence[Constraint],
    objectives: Sequence[Sequence],
    lexicographic: bool,
    slack_start: bool,
) -> list[LpSolution]:
    """:func:`simplex_sequence` from the artificial or the slack start.

    Every optimal value, and every error, is the same from either start;
    a vertex can differ where the optimum is not unique.
    """
    if not objectives:
        raise ValueError("objectives must hold at least one objective")
    costs = [_scaled([as_fraction(c) for c in objective]) for objective in objectives]
    n = len(costs[0][0])
    if any(len(cost) != n for cost, _ in costs):
        raise ValueError("objective lengths differ")
    if any(len(con.coeffs) != n for con in constraints):
        raise ValueError("constraint width does not match objective length")
    global _last_phase_one
    key = (n, slack_start, tuple(constraints))
    if _last_phase_one[0] == key:
        tab = _last_phase_one[1].copy()
    else:
        tab = _Tableau(constraints, n, slack_start)
        if tab.scales:
            # Artificial i carries scales[i] times the unscaled artificial, so
            # the cost -1/scales[i] makes phase 1 minimize the same sum.
            phase1_scale = math.lcm(*tab.scales)
            phase1_cost = [0] * tab.first_artificial + [-phase1_scale // s for s in tab.scales]
            tab.run(phase1_cost, range(tab.width))
            if tab.value(phase1_cost, phase1_scale) != 0:
                raise LpInfeasibleError("artificial variables cannot be driven to zero")
            tab.drive_out_artificials()
            # phase 2 pivots tab in place, so the entry keeps a copy
            _last_phase_one = key, tab.copy()

    columns: Sequence[int] = range(tab.first_artificial)
    solutions = []
    for objective, scale in costs:
        cost = objective + [0] * (tab.width - n)
        zrow = tab.run(cost, columns)
        solutions.append(LpSolution(tab.point(), tab.value(cost, scale)))
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
    return _optimize(lp.constraints, [lp.objective], lexicographic=True, slack_start=False)[0]
