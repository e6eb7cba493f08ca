"""Emulating a joint distribution by a uniform multiset of 2^k profiles.

A distribution over strategy profiles is approximated by a table of
2^k profile copies indexed by k-bit strings: sampling a uniform index
reproduces the distribution up to an L1 error of at most |S| / 2^k.
Copy counts come from largest-remainder rounding, the copies are laid
out contiguously in canonical row-major profile order (configurable via
an explicit permutation), and the prefix structure of the index
therefore partitions the table into aligned blocks.  The conditional
block averages defined here are what the sampling protocol's preference
announcements are computed from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Mapping, Sequence

from .games import ZERO, Game, JointDistribution, JointStrategy, as_fraction

BitPrefix = tuple[int, ...]


def bits_to_index(bits: Sequence[int]) -> int:
    """Interpret a bit sequence as an integer, first bit most significant."""
    value = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {b!r}")
        value = (value << 1) | b
    return value


def index_to_bits(index: int, k: int) -> BitPrefix:
    if not 0 <= index < (1 << k):
        raise ValueError(f"index {index} out of range for {k} bits")
    return tuple((index >> (k - 1 - j)) & 1 for j in range(k))


def rounds_for(n_cells: int, delta: Fraction) -> int:
    """Smallest k with 2^k >= n_cells / delta."""
    if delta <= 0:
        raise ValueError("approximation budget delta must be positive")
    k = 0
    while (1 << k) * delta < n_cells:
        k += 1
    return k


@dataclass(frozen=True)
class MultisetEmulation:
    """A 2^k-entry table of profile copies standing in for ``source``."""

    k: int
    table: tuple[JointStrategy, ...]
    source: JointDistribution
    delta: Fraction

    def __post_init__(self) -> None:
        if len(self.table) != 1 << self.k:
            raise ValueError("table length must be exactly 2^k")

    @property
    def size(self) -> int:
        return 1 << self.k

    def counts(self) -> dict[JointStrategy, int]:
        out: dict[JointStrategy, int] = {}
        for cell in self.table:
            out[cell] = out.get(cell, 0) + 1
        return out

    def induced_distribution(self) -> JointDistribution:
        """The uniform-over-table distribution this emulation realizes."""
        share = Fraction(1, self.size)
        return JointDistribution({cell: n * share for cell, n in self.counts().items()})

    def entry(self, bits: Sequence[int]) -> JointStrategy:
        if len(bits) != self.k:
            raise ValueError(f"need exactly {self.k} bits")
        return self.table[bits_to_index(bits)]


def emulate(
    game: Game,
    p: JointDistribution,
    delta,
    order: Sequence[JointStrategy] | None = None,
) -> MultisetEmulation:
    """Build the uniform-multiset emulation of ``p`` with L1 error <= delta.

    ``order`` optionally permutes the layout (default: row-major); the
    layout determines which profiles share bit prefixes and so steers the
    whole downstream protocol, which is why it is pinned and explicit.
    """
    budget = as_fraction(delta)
    if budget <= 0:
        raise ValueError("approximation budget delta must be positive")
    layout = list(order) if order is not None else list(game.cells())
    if sorted(layout) != sorted(game.cells()):
        raise ValueError("order must be a permutation of the game's profiles")

    k = rounds_for(game.n_cells, budget)
    size = 1 << k

    # Largest-remainder rounding of size * p(cell); ties fall to the
    # earlier cell in the layout, keeping the construction deterministic.
    scaled = [size * p.prob(cell) for cell in layout]
    counts = [int(s) for s in scaled]  # floor: probabilities are nonnegative
    leftover = size - sum(counts)
    remainders = sorted(
        range(len(layout)), key=lambda i: (-(scaled[i] - counts[i]), i)
    )
    for i in remainders[:leftover]:
        counts[i] += 1

    table: list[JointStrategy] = []
    for cell, n in zip(layout, counts):
        table.extend([JointStrategy(*cell)] * n)
    return MultisetEmulation(k=k, table=tuple(table), source=p, delta=budget)


class PreferenceOracle:
    """Constant-time conditional payoff queries over an emulation table.

    Per player, the utilities of the table's distinct cells are scaled by
    the lcm of their denominators, so the cumulative sums over the leaf
    payoffs are ints.  Prefix blocks at the same depth all have the same
    width, so comparing two integer block sums compares the branches; a
    ``Fraction`` is built only when a sum or an expectation is requested.

    Each player's preferences form one table of preferred next bits, one
    per internal node of the round tree in heap order (the root is 1, the
    children of h are 2h and 2h + 1; entry 0 is unused).  It is built on
    first use, and every preference query reads it.
    """

    def __init__(self, em: MultisetEmulation, game: Game):
        self.em = em
        self.game = game
        self.k = em.k
        self._scales: dict[int, int] = {}
        self._numerators: dict[int, dict[JointStrategy, int]] = {}
        self._cums: dict[int, list[int]] = {}
        self._tables: dict[int, list[int]] = {}
        cells = dict.fromkeys(em.table)
        for player in (1, 2):
            utilities = {cell: game.utility(player, cell) for cell in cells}
            scale = lcm(*(u.denominator for u in utilities.values()))
            numerators = {
                cell: u.numerator * (scale // u.denominator) for cell, u in utilities.items()
            }
            self._scales[player] = scale
            self._numerators[player] = numerators
            self._cums[player] = list(accumulate((numerators[c] for c in em.table), initial=0))

    def scale(self, player: int) -> int:
        """The common denominator of ``player``'s utilities over the table."""
        return self._scales[player]

    def leaf_numerators(self, player: int) -> list[int]:
        """``player``'s utility at every table entry, times ``scale(player)``."""
        numerators = self._numerators[player]
        return [numerators[cell] for cell in self.em.table]

    def _block(self, prefix: BitPrefix) -> tuple[int, int]:
        m = len(prefix)
        if m > self.k:
            raise ValueError("prefix longer than the index width")
        width = 1 << (self.k - m)
        lo = bits_to_index(prefix) * width
        return lo, lo + width

    def _scaled_sum(self, player: int, prefix: BitPrefix) -> tuple[int, int]:
        """The block's utility sum times ``scale(player)``, and the block's width."""
        lo, hi = self._block(prefix)
        cums = self._cums[player]
        return cums[hi] - cums[lo], hi - lo

    def block_sum(self, player: int, prefix: BitPrefix) -> Fraction:
        total, _ = self._scaled_sum(player, prefix)
        return Fraction(total, self._scales[player])

    def conditional_expected(self, player: int, prefix: BitPrefix, next_bit: int) -> Fraction:
        """Average payoff over the table block selected by prefix + next_bit."""
        total, width = self._scaled_sum(player, tuple(prefix) + (next_bit,))
        return Fraction(total, self._scales[player] * width)

    def preferred_table(self, player: int) -> list[int]:
        """``player``'s preferred next bit at every internal node, in heap order.

        The two children of a node cover equal-width blocks, so comparing
        their integer sums compares the conditional expectations.  This is
        the preference rule, and the only place it is written: ties prefer 0.
        """
        table = self._tables.get(player)
        if table is None:
            cums = self._cums[player]
            table = [0]
            for m in range(self.k):
                half = 1 << (self.k - m - 1)
                ends, mids = cums[:: 2 * half], cums[half :: 2 * half]
                table.extend(
                    0 if mid - lo >= hi - mid else 1 for lo, mid, hi in zip(ends, mids, ends[1:])
                )
            self._tables[player] = table
        return table

    def preference(self, player: int, prefix: BitPrefix) -> int:
        """+1 when extending the prefix with 0 is weakly better, else -1."""
        m = len(prefix)
        if m >= self.k:
            raise ValueError("prefix must leave at least one undecided bit")
        return 1 - 2 * self.preferred_table(player)[(1 << m) | bits_to_index(prefix)]

    def preferred_bits(self, player: int, m: int) -> list[int]:
        """Preferred next bit at every node of level ``m``, in heap order."""
        if not 0 <= m < self.k:
            raise ValueError(f"level {m} is not internal to the {self.k}-round tree")
        return self.preferred_table(player)[1 << m : 2 << m]


# ---------------------------------------------------------------------------
# Distributions over bit strings
# ---------------------------------------------------------------------------

BitstringDist = Mapping[BitPrefix, Fraction]


def marginal(dist: BitstringDist, m: int) -> dict[BitPrefix, Fraction]:
    """Sum out all but the first ``m`` bits.

    ``marginal(d, 0)`` collapses to ``{(): 1}`` — the empty string carries
    the full mass.
    """
    if m < 0:
        raise ValueError("marginal length must be nonnegative")
    out: dict[BitPrefix, Fraction] = {}
    for bits, mass in dist.items():
        if len(bits) < m:
            raise ValueError(f"bit string {bits} shorter than marginal length {m}")
        head = tuple(bits[:m])
        out[head] = out.get(head, ZERO) + mass
    return out


def l1_distance(d1: Mapping, d2: Mapping) -> Fraction:
    """Exact L1 distance between two mappings-to-rationals over any keys."""
    keys = set(d1) | set(d2)
    return sum((abs(d1.get(key, ZERO) - d2.get(key, ZERO)) for key in keys), ZERO)
