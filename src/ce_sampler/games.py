"""Finite two-player strategic games over exact rationals.

Everything downstream (equilibrium computation, protocol simulation,
adversary analysis) builds on the vocabulary defined here: a game as a
pair of payoff matrices, joint and product distributions over strategy
profiles, affine payoff normalization, and the standard equilibrium
checks evaluated with exact ``fractions.Fraction`` arithmetic.  No
tolerances are applied unless the caller asks for one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Sequence, Union

RationalLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ``value`` to an exact Fraction.

    Accepts fractions, ints and strings ("3", "1/2", "0.25").  Floats are
    rejected: their binary representation rarely matches the decimal the
    caller had in mind, and this package promises exactness.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("boolean is not a rational value")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse rational from {value!r}") from exc
    raise TypeError(f"cannot convert {type(value).__name__} to an exact rational")


class JointStrategy(NamedTuple):
    """A strategy profile: row index for player 1, column index for player 2."""

    s1: int
    s2: int


def _coerce_matrix(rows: Sequence[Sequence[RationalLike]]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(as_fraction(v) for v in row) for row in rows)


@dataclass(frozen=True)
class Game:
    """A two-player game in normal form with exact rational utilities.

    ``u1[r][c]`` / ``u2[r][c]`` are the payoffs when player 1 plays row
    ``r`` and player 2 plays column ``c``.  ``normalized`` asserts that
    every utility lies inside [0, 1]; it is set by :func:`normalize`.
    """

    strategies_1: tuple[str, ...]
    strategies_2: tuple[str, ...]
    u1: tuple[tuple[Fraction, ...], ...]
    u2: tuple[tuple[Fraction, ...], ...]
    normalized: bool = False

    def __post_init__(self) -> None:
        rows, cols = len(self.strategies_1), len(self.strategies_2)
        if rows < 1 or cols < 1:
            raise ValueError("games need at least one strategy per player")
        for name, matrix in (("u1", self.u1), ("u2", self.u2)):
            if len(matrix) != rows or any(len(row) != cols for row in matrix):
                raise ValueError(f"{name} must be a {rows}x{cols} matrix")
        if self.normalized:
            for matrix in (self.u1, self.u2):
                for row in matrix:
                    for v in row:
                        if not (ZERO <= v <= ONE):
                            raise ValueError("normalized games must have utilities in [0, 1]")

    @classmethod
    def from_payoffs(
        cls,
        u1: Sequence[Sequence[RationalLike]],
        u2: Sequence[Sequence[RationalLike]],
        strategies_1: Sequence[str] | None = None,
        strategies_2: Sequence[str] | None = None,
        normalized: bool = False,
    ) -> "Game":
        m1, m2 = _coerce_matrix(u1), _coerce_matrix(u2)
        labels_1 = tuple(strategies_1) if strategies_1 else tuple(str(i) for i in range(len(m1)))
        labels_2 = tuple(strategies_2) if strategies_2 else tuple(str(j) for j in range(len(m1[0]) if m1 else 0))
        return cls(labels_1, labels_2, m1, m2, normalized)

    @property
    def rows(self) -> int:
        return len(self.strategies_1)

    @property
    def cols(self) -> int:
        return len(self.strategies_2)

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols

    def cells(self) -> Iterator[JointStrategy]:
        """All profiles in canonical row-major order."""
        for r in range(self.rows):
            for c in range(self.cols):
                yield JointStrategy(r, c)

    def contains(self, s: JointStrategy) -> bool:
        return 0 <= s[0] < self.rows and 0 <= s[1] < self.cols

    def utility(self, player: int, s: JointStrategy) -> Fraction:
        if player not in (1, 2):
            raise ValueError("player must be 1 or 2")
        matrix = self.u1 if player == 1 else self.u2
        return matrix[s[0]][s[1]]

    def payoffs(self, s: JointStrategy) -> tuple[Fraction, Fraction]:
        return self.u1[s[0]][s[1]], self.u2[s[0]][s[1]]


def _rescaled(matrix: tuple[tuple[Fraction, ...], ...]) -> tuple[tuple[Fraction, ...], ...]:
    values = [v for row in matrix for v in row]
    lo, hi = min(values), max(values)
    if lo == hi:
        return tuple(tuple(ZERO for _ in row) for row in matrix)
    span = hi - lo
    return tuple(tuple((v - lo) / span for v in row) for row in matrix)


def normalize(game: Game) -> Game:
    """Rescale each player's utilities affinely into [0, 1].

    Scaling is per player, which preserves every best-response comparison
    and therefore every equilibrium of the game.  A player whose utilities
    are all equal comes out as all zeros.  Idempotent.  The result is kept
    on ``game`` outside its fields (equality, hash and repr are unchanged),
    so a later call returns the same object.
    """
    memo = game.__dict__.get("_normalized")
    if memo is None:
        memo = game.__dict__["_normalized"] = Game(
            game.strategies_1,
            game.strategies_2,
            _rescaled(game.u1),
            _rescaled(game.u2),
            normalized=True,
        )
    return memo


@dataclass(frozen=True)
class JointDistribution:
    """An exact probability distribution over strategy profiles.

    ``probs`` maps profiles to nonnegative rationals summing to exactly 1.
    Profiles missing from the mapping have probability zero.
    """

    probs: Mapping[JointStrategy, Fraction]

    def __post_init__(self) -> None:
        cleaned: dict[JointStrategy, Fraction] = {}
        for key, value in self.probs.items():
            p = as_fraction(value)
            if p < 0:
                raise ValueError(f"negative probability {p} for {key}")
            if p:
                cleaned[JointStrategy(*key)] = p
        if sum(cleaned.values(), ZERO) != 1:
            raise ValueError("probabilities must sum to exactly 1")
        object.__setattr__(self, "probs", cleaned)

    @classmethod
    def point_mass(cls, s: JointStrategy) -> "JointDistribution":
        return cls({JointStrategy(*s): ONE})

    @classmethod
    def uniform(cls, cells: Sequence[JointStrategy]) -> "JointDistribution":
        if not cells:
            raise ValueError("uniform distribution needs a nonempty support")
        share = Fraction(1, len(cells))
        out: dict[JointStrategy, Fraction] = {}
        for cell in cells:
            key = JointStrategy(*cell)
            out[key] = out.get(key, ZERO) + share
        return cls(out)

    def prob(self, s: JointStrategy) -> Fraction:
        return self.probs.get(JointStrategy(*s), ZERO)

    def support(self) -> list[JointStrategy]:
        return sorted(self.probs)

    def items_sorted(self) -> list[tuple[JointStrategy, Fraction]]:
        return sorted(self.probs.items())

    def mix(self, other: "JointDistribution", weight: Fraction) -> "JointDistribution":
        """Convex combination ``weight * self + (1 - weight) * other``."""
        w = as_fraction(weight)
        if not (ZERO <= w <= ONE):
            raise ValueError("mixture weight must lie in [0, 1]")
        out: dict[JointStrategy, Fraction] = {}
        for key, value in self.probs.items():
            out[key] = out.get(key, ZERO) + w * value
        for key, value in other.probs.items():
            out[key] = out.get(key, ZERO) + (1 - w) * value
        return JointDistribution(out)


@dataclass(frozen=True)
class ProductDistribution:
    """Independent mixed strategies, one probability vector per player."""

    p1: tuple[Fraction, ...]
    p2: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        for name, vec in (("p1", self.p1), ("p2", self.p2)):
            coerced = tuple(as_fraction(v) for v in vec)
            if any(v < 0 for v in coerced):
                raise ValueError(f"{name} has a negative entry")
            if sum(coerced, ZERO) != 1:
                raise ValueError(f"{name} must sum to exactly 1")
            object.__setattr__(self, name, coerced)

    def joint(self) -> JointDistribution:
        probs = {
            JointStrategy(r, c): pr * pc
            for r, pr in enumerate(self.p1)
            for c, pc in enumerate(self.p2)
            if pr and pc
        }
        return JointDistribution(probs)


def _check_support(game: Game, dist: JointDistribution) -> None:
    for s in dist.probs:
        if not game.contains(s):
            raise ValueError(f"profile {s} outside the game's strategy space")


def expected_utility(game: Game, dist: JointDistribution, player: int) -> Fraction:
    """Exact expectation of ``player``'s utility under ``dist``."""
    _check_support(game, dist)
    return sum((p * game.utility(player, s) for s, p in dist.probs.items()), ZERO)


def check_pure_ne(game: Game, s: JointStrategy) -> bool:
    """True iff no unilateral deviation strictly improves either player."""
    r, c = s
    if not game.contains(JointStrategy(r, c)):
        raise ValueError(f"profile {s} outside the game's strategy space")
    if any(game.u1[alt][c] > game.u1[r][c] for alt in range(game.rows)):
        return False
    if any(game.u2[r][alt] > game.u2[r][c] for alt in range(game.cols)):
        return False
    return True


def check_mixed_ne(game: Game, dist: ProductDistribution, tolerance: RationalLike = 0) -> bool:
    """Check the support condition for a mixed equilibrium.

    True iff, for each player, every strategy played with positive
    probability earns within ``tolerance`` of the best response against
    the opponent's marginal.
    """
    tol = as_fraction(tolerance)
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    if len(dist.p1) != game.rows or len(dist.p2) != game.cols:
        raise ValueError("distribution dimensions do not match the game")

    payoff_1 = [
        sum((dist.p2[c] * game.u1[r][c] for c in range(game.cols)), ZERO)
        for r in range(game.rows)
    ]
    payoff_2 = [
        sum((dist.p1[r] * game.u2[r][c] for r in range(game.rows)), ZERO)
        for c in range(game.cols)
    ]
    for weights, payoffs in ((dist.p1, payoff_1), (dist.p2, payoff_2)):
        best = max(payoffs)
        if any(w > 0 and best - v > tol for w, v in zip(weights, payoffs)):
            return False
    return True


def _signal_value(game: Game, p: JointDistribution, player: int, signal: int, played: int) -> Fraction:
    """Mass-weighted payoff of answering ``signal`` with ``played``.

    For player 1 this is ``sum_c p(signal, c) * u1(played, c)``; analogous
    for player 2 with rows and columns swapped.
    """
    if player == 1:
        return sum(
            (p.prob(JointStrategy(signal, c)) * game.u1[played][c] for c in range(game.cols)),
            ZERO,
        )
    return sum(
        (p.prob(JointStrategy(r, signal)) * game.u2[r][played] for r in range(game.rows)),
        ZERO,
    )


def check_ce(game: Game, p: JointDistribution) -> bool:
    """Exact correlated-equilibrium check.

    For every player and every pair of strategies (suggested, replacement),
    obeying the suggestion must be at least as good, conditioned on having
    received it.
    """
    _check_support(game, p)
    for player, count in ((1, game.rows), (2, game.cols)):
        for signal in range(count):
            stay = _signal_value(game, p, player, signal, signal)
            for alt in range(count):
                if alt != signal and _signal_value(game, p, player, signal, alt) > stay:
                    return False
    return True
