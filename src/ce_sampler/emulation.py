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

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, compress, count, islice
from math import lcm
from operator import mul, ne
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
        if not isinstance(self.k, int) or isinstance(self.k, bool):
            raise TypeError(f"k must be an int, got {self.k!r}")
        if self.k < 0:
            raise ValueError(f"k must be at least 0, got {self.k}")
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
    """Conditional payoff queries over an emulation table, O(log R) per block sum.

    A *run* is a maximal stretch of equal consecutive table entries, and R
    is the number of runs.  :func:`emulate` lays each cell's copies out
    contiguously, so R is at most the number of cells, but a hand-built
    table may hold up to 2^k runs.  The runs are found on first use.

    Per player, the utilities of the table's distinct cells are scaled by
    the lcm of their denominators, so sums over leaf payoffs are ints, and
    the sums are kept only at run starts: a block sum is one bisect over
    the run starts per end.  Prefix blocks at the same depth all have the
    same width, so comparing two integer block sums compares the branches;
    a ``Fraction`` is built only when a sum or an expectation is requested.

    Each player's preferences form one table of preferred next bits, one
    per internal node of the round tree in heap order (the root is 1, the
    children of h are 2h and 2h + 1; entry 0 is unused).  A node is
    *mixed* when a run starts strictly inside its block, and
    ``mixed_nodes`` lists them as one ascending list of heap indices.
    Every leaf of a block that is not mixed is the same cell, so its two
    halves tie and its entry is 0; the rule is evaluated only at mixed
    nodes.  The table is built on first use, and every preference query
    reads it.
    """

    def __init__(self, em: MultisetEmulation, game: Game):
        self.em = em
        self.game = game
        self.k = em.k
        self._tables: dict[int, list[int]] = {}

    @cached_property
    def _runs(self) -> tuple[list[int], list[JointStrategy]]:
        """The start index and the cell of every run, in table order."""
        table = self.em.table
        starts = [0, *compress(count(1), map(ne, islice(table, 1, None), table))]
        return starts, [table[start] for start in starts]

    @cached_property
    def mixed_nodes(self) -> list[int]:
        """The mixed nodes, as ascending heap indices.

        A run start b is leaf ``2**k + b``, and its ancestor ``(2**k + b) >> s``
        covers the leaves sharing all but the low s bits of b, so b lies
        strictly inside that block exactly when those bits are not all 0.
        A child's heap index exceeds its parent's, so ``reversed`` walks the
        list bottom-up.
        """
        nodes = set()
        for b in self._runs[0][1:]:
            zeros = (b & -b).bit_length() - 1  # trailing zero bits of b
            nodes.update(((1 << self.k) | b) >> s for s in range(zeros + 1, self.k + 1))
        return sorted(nodes)

    @cached_property
    def _scaled(self) -> dict[int, tuple[int, dict[JointStrategy, int], list[int], list[int]]]:
        """Per player: the scale, each cell's utility times it, and per run its
        leaf numerator and the sum of the numerators before it."""
        starts, cells = self._runs
        widths = [end - start for start, end in zip(starts, [*starts[1:], self.em.size])]
        out = {}
        for player in (1, 2):
            utilities = {cell: self.game.utility(player, cell) for cell in dict.fromkeys(cells)}
            scale = lcm(*(u.denominator for u in utilities.values()))
            numerators = {
                cell: u.numerator * (scale // u.denominator) for cell, u in utilities.items()
            }
            values = [numerators[cell] for cell in cells]
            befores = list(accumulate(map(mul, widths, values), initial=0))
            out[player] = scale, numerators, values, befores
        return out

    def scale(self, player: int) -> int:
        """The common denominator of ``player``'s utilities over the table."""
        return self._scaled[player][0]

    def numerators(self, player: int) -> dict[JointStrategy, int]:
        """``player``'s utility at each cell of the table, times ``scale(player)``."""
        return self._scaled[player][1]

    def _leading_sum(self, player: int, n: int) -> int:
        """The utility sum over the first ``n`` leaves, times ``scale(player)``."""
        starts = self._runs[0]
        _, _, values, befores = self._scaled[player]
        r = bisect_right(starts, n) - 1
        return befores[r] + (n - starts[r]) * values[r]

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
        return self._leading_sum(player, hi) - self._leading_sum(player, lo), hi - lo

    def block_sum(self, player: int, prefix: BitPrefix) -> Fraction:
        total, _ = self._scaled_sum(player, prefix)
        return Fraction(total, self.scale(player))

    def conditional_expected(self, player: int, prefix: BitPrefix, next_bit: int) -> Fraction:
        """Average payoff over the table block selected by prefix + next_bit."""
        total, width = self._scaled_sum(player, tuple(prefix) + (next_bit,))
        return Fraction(total, self.scale(player) * width)

    def preferred_table(self, player: int) -> list[int]:
        """``player``'s preferred next bit at every internal node, in heap order.

        The two children of a node cover equal-width blocks, so comparing
        their integer sums compares the conditional expectations.  This is
        the preference rule, and the only place it is written: ties prefer 0.
        Nodes that are not mixed tie, so only mixed nodes are compared.
        """
        table = self._tables.get(player)
        if table is None:
            size = 1 << self.k
            table = [0] * size
            for h in self.mixed_nodes:
                half = 1 << (self.k - h.bit_length())  # the width of each child's block
                lo = 2 * half * h - size
                start, mid, end = (
                    self._leading_sum(player, n) for n in (lo, lo + half, lo + 2 * half)
                )
                table[h] = 0 if mid - start >= end - mid else 1
            self._tables[player] = table
        return table

    def preference(self, player: int, prefix: BitPrefix) -> int:
        """+1 when extending the prefix with 0 is weakly better, else -1."""
        m = len(prefix)
        if m >= self.k:
            raise ValueError("prefix must leave at least one undecided bit")
        return 1 - 2 * self.preferred_table(player)[(1 << m) | bits_to_index(prefix)]


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
