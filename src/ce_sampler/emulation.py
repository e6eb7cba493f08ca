"""Emulating a joint distribution by a uniform multiset of 2^k profiles.

A distribution over strategy profiles is approximated by a table of
2^k profile copies indexed by k-bit strings: sampling a uniform index
reproduces the distribution up to an L1 error of at most |S| / 2^k.
Copy counts come from largest-remainder rounding, the copies are laid
out contiguously in canonical row-major profile order (configurable via
an explicit permutation), and the prefix structure of the index
therefore partitions the table into aligned blocks.  The table's shape,
its runs of equal entries and the round-tree nodes whose block a run
boundary crosses, is found once per emulation, on first use.  Block sums
folded bottom-up over those nodes are what the sampling protocol's
preference announcements are computed from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, count, islice
from math import lcm
from operator import ne
from typing import Mapping, Sequence

from .games import ZERO, Game, JointDistribution, JointStrategy, _check_support, as_fraction

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


def heap_index(prefix: BitPrefix) -> int:
    """The round-tree node of ``prefix``: the root is 1, the children of h are 2h and 2h + 1."""
    return (1 << len(prefix)) | bits_to_index(prefix)


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
    """A 2^k-entry table of profile copies standing in for ``source``.

    ``runs`` and ``mixed_nodes`` describe the table's shape.  They are
    computed on first use and kept, and they are not fields: equality
    and serialization see the four fields only.
    """

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

    @cached_property
    def runs(self) -> tuple[list[int], list[JointStrategy]]:
        """The start index and the cell of every run, in table order.

        A run is a maximal stretch of equal consecutive entries.
        :func:`emulate` lays each cell's copies out contiguously, so there
        are at most as many runs as cells, but a hand-built table may hold
        up to 2^k.
        """
        table = self.table
        starts = [0, *compress(count(1), map(ne, islice(table, 1, None), table))]
        return starts, [table[start] for start in starts]

    @cached_property
    def mixed_nodes(self) -> list[int]:
        """The round-tree nodes whose block a run starts strictly inside.

        Nodes are heap indices: the root is 1, the children of h are 2h and
        2h + 1, and leaf ``2**k + i`` is entry i.  A run start b is leaf
        ``2**k + b``, and its ancestor ``(2**k + b) >> s`` covers the leaves
        sharing all but the low s bits of b, so b lies strictly inside that
        block exactly when those bits are not all 0.  Every leaf under a node
        that is not mixed is the same cell.  The list is ascending, and a
        child's heap index exceeds its parent's, so ``reversed`` walks it
        bottom-up.
        """
        nodes = set()
        for b in self.runs[0][1:]:
            zeros = (b & -b).bit_length() - 1  # trailing zero bits of b
            nodes.update(((1 << self.k) | b) >> s for s in range(zeros + 1, self.k + 1))
        return sorted(nodes)

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
    _check_support(game, p)  # mass off the game would be rounded away unseen

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
    """One game's conditional payoff queries over an emulation table.

    The table's shape, its runs and its mixed nodes, belongs to the
    emulation (see :class:`MultisetEmulation`); the oracle adds the game,
    and this is where the two meet: construction raises ``ValueError``
    naming any table profile outside the game, and every query raises it
    for a player other than 1 or 2.  Per player, the utilities of the
    table's distinct cells are scaled by the lcm of their denominators, so
    sums over leaf payoffs are ints.

    Per player, one descending, so bottom-up, pass over the emulation's
    mixed nodes adds each node's two child block sums.  A block that is
    not mixed is one cell's numerator times the block's width, so the pass
    keeps sums at mixed nodes only and costs O(mixed nodes), not O(2^k).
    Prefix blocks at the same depth all have the same width, so comparing
    the two child sums compares the branches, and the same pass collects
    the set of mixed nodes where the player prefers 1.  The two halves of
    a block that is not mixed tie, so the player prefers 0 there, and
    nothing of size 2^k is built.
    """

    def __init__(self, em: MultisetEmulation, game: Game):
        self._cells = dict.fromkeys(em.runs[1])  # the table's distinct profiles
        for cell in self._cells:
            if not game.contains(cell):
                raise ValueError(
                    f"emulation table profile {tuple(cell)} is outside the game's strategy space"
                )
        self.em = em
        self.game = game
        self.k = em.k
        self._scales: dict[int, tuple[int, dict[JointStrategy, int]]] = {}
        self._ones: dict[int, frozenset[int]] = {}

    def _scaled(self, player: int) -> tuple[int, dict[JointStrategy, int]]:
        """``player``'s scale, and each cell's utility times it."""
        scaled = self._scales.get(player)
        if scaled is None:
            # Game.utility rejects a player other than 1 or 2.
            utilities = {cell: self.game.utility(player, cell) for cell in self._cells}
            scale = lcm(*(u.denominator for u in utilities.values()))
            scaled = self._scales[player] = scale, {
                cell: u.numerator * (scale // u.denominator) for cell, u in utilities.items()
            }
        return scaled

    def scale(self, player: int) -> int:
        """The common denominator of ``player``'s utilities over the table."""
        return self._scaled(player)[0]

    def numerators(self, player: int) -> dict[JointStrategy, int]:
        """``player``'s utility at each cell of the table, times ``scale(player)``."""
        return self._scaled(player)[1]

    def _node_sum(self, numerators: dict, sums: dict[int, int], h: int, height: int) -> int:
        """Node h's block sum, scaled as ``numerators``; its block is 2**height leaves wide."""
        total = sums.get(h)
        if total is None:  # not mixed: one cell throughout
            total = numerators[self.em.table[(h << height) - self.em.size]] << height
        return total

    def prefers_one(self, player: int) -> frozenset[int]:
        """The internal nodes, as heap indices, where ``player`` prefers next bit 1.

        Every one is mixed; at every other internal node ``player`` prefers
        0.  This is the preference rule, and the only place it is written:
        ties prefer 0.
        """
        ones = self._ones.get(player)
        if ones is None:
            numerators = self.numerators(player)
            sums: dict[int, int] = {}  # the block sums of the mixed nodes folded so far
            found = []
            for h in reversed(self.em.mixed_nodes):
                height = self.k - h.bit_length()  # of the children
                zero = self._node_sum(numerators, sums, 2 * h, height)
                one = self._node_sum(numerators, sums, 2 * h + 1, height)
                if zero < one:
                    found.append(h)
                sums[h] = zero + one
            ones = self._ones[player] = frozenset(found)
        return ones

    def preference(self, player: int, prefix: BitPrefix) -> int:
        """+1 when extending the prefix with 0 is weakly better, else -1."""
        if len(prefix) >= self.k:
            raise ValueError("prefix must leave at least one undecided bit")
        return -1 if heap_index(prefix) in self.prefers_one(player) else 1


def l1_distance(d1: Mapping, d2: Mapping) -> Fraction:
    """Exact L1 distance between two mappings-to-rationals over any keys."""
    keys = set(d1) | set(d2)
    return sum((abs(d1.get(key, ZERO) - d2.get(key, ZERO)) for key in keys), ZERO)
