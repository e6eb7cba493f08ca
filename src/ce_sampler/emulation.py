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

    Prefix blocks at the same depth all have the same width, so block
    sums (via cumulative sums over the leaf payoffs) are enough to
    compare branches; division only happens when an actual expectation
    is requested.
    """

    def __init__(self, em: MultisetEmulation, game: Game):
        self.em = em
        self.game = game
        self.k = em.k
        self._cums: dict[int, list[Fraction]] = {}
        self._sign_memo: dict[tuple[int, BitPrefix], int] = {}
        for player in (1, 2):
            acc = [ZERO]
            for cell in em.table:
                acc.append(acc[-1] + game.utility(player, cell))
            self._cums[player] = acc

    def _block(self, prefix: BitPrefix) -> tuple[int, int]:
        m = len(prefix)
        if m > self.k:
            raise ValueError("prefix longer than the index width")
        width = 1 << (self.k - m)
        lo = bits_to_index(prefix) * width
        return lo, lo + width

    def block_sum(self, player: int, prefix: BitPrefix) -> Fraction:
        lo, hi = self._block(prefix)
        cums = self._cums[player]
        return cums[hi] - cums[lo]

    def conditional_expected(self, player: int, prefix: BitPrefix, next_bit: int) -> Fraction:
        lo, hi = self._block(tuple(prefix) + (next_bit,))
        cums = self._cums[player]
        return (cums[hi] - cums[lo]) / (hi - lo)

    def preference(self, player: int, prefix: BitPrefix) -> int:
        """+1 when extending the prefix with 0 is weakly better, else -1."""
        key = (player, tuple(prefix))
        sign = self._sign_memo.get(key)
        if sign is None:
            zero = self.block_sum(player, key[1] + (0,))
            one = self.block_sum(player, key[1] + (1,))
            sign = 1 if _prefers_zero(zero, one) else -1
            self._sign_memo[key] = sign
        return sign

    def preferred_bits(self, player: int, m: int) -> list[int]:
        """Preferred next bit at every node of level ``m``, in heap order.

        Entry j is ``preferred_bit(player, index_to_bits(j, m))``, read
        straight off the cumulative sums without building prefixes.
        """
        if not 0 <= m < self.k:
            raise ValueError(f"level {m} is not internal to the {self.k}-round tree")
        cums = self._cums[player]
        half = 1 << (self.k - m - 1)
        bits = []
        for lo in range(0, 1 << self.k, 2 * half):
            mid = lo + half
            zero, one = cums[mid] - cums[lo], cums[mid + half] - cums[mid]
            bits.append(0 if _prefers_zero(zero, one) else 1)
        return bits

    def preferred_bit(self, player: int, prefix: BitPrefix) -> int:
        return 0 if self.preference(player, prefix) == 1 else 1


def _prefers_zero(zero_sum: Fraction, one_sum: Fraction) -> bool:
    """The preference rule on two equal-width block sums: ties prefer 0."""
    return zero_sum >= one_sum


def conditional_expected_utility(
    em: MultisetEmulation, game: Game, prefix: Sequence[int], next_bit: int, player: int
) -> Fraction:
    """Average payoff over the table block selected by prefix + next_bit.

    Every block is fully populated by construction, so the average is
    always defined.
    """
    if len(prefix) >= em.k:
        raise ValueError("prefix must leave at least one undecided bit")
    return PreferenceOracle(em, game).conditional_expected(player, tuple(prefix), next_bit)


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
