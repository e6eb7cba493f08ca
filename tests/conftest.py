import random
from collections import Counter
from fractions import Fraction as F

import pytest

from ce_sampler import Game, JointDistribution, JointStrategy, check_ce, emulate
from ce_sampler.emulation import bits_to_index


@pytest.fixture
def bos() -> Game:
    """Battle-of-the-Sexes-style coordination game with asymmetric stakes."""
    return Game.from_payoffs([[4, 0], [0, 2]], [[2, 0], [0, 4]], ["A", "B"], ["A", "B"])


@pytest.fixture
def coinflip() -> Game:
    """Each player wins (payoff 1) when the matched bit lands on their side."""
    return Game.from_payoffs([[1, 0], [0, 0]], [[0, 0], [0, 1]], ["0", "1"], ["0", "1"])


@pytest.fixture
def bos_fair_ce() -> JointDistribution:
    return JointDistribution({JointStrategy(0, 0): F(1, 2), JointStrategy(1, 1): F(1, 2)})


@pytest.fixture
def corner_instance():
    """A 3x3 game and the emulation of its point mass on (2, 2).

    No 2x2 game holds the table's one profile.
    """
    game = Game.from_payoffs(
        [[i + j for j in range(3)] for i in range(3)], [[i * j for j in range(3)] for i in range(3)]
    )
    return game, emulate(game, JointDistribution.point_mass(JointStrategy(2, 2)), F(1, 2))


@pytest.fixture
def diagonal_instance():
    """A 4x4 game whose uniform diagonal CE runs all-agreement at k = 4.

    Lying at the root pays against an opponent who does not check
    announcements (see ``TestAnnouncementLying``).
    """
    zero = F(0)
    diag_payoffs = [
        (F(1, 2), F(9, 10)),
        (F(1, 2), F(1, 10)),
        (F(9, 10), F(4, 5)),
        (F(1, 10), zero),
    ]
    u1 = [[zero] * 4 for _ in range(4)]
    u2 = [[zero] * 4 for _ in range(4)]
    for i, (a, b) in enumerate(diag_payoffs):
        u1[i][i], u2[i][i] = a, b
    game = Game.from_payoffs(u1, u2)
    p = JointDistribution.uniform([JointStrategy(i, i) for i in range(4)])
    assert check_ce(game, p)
    em = emulate(game, p, F(1))
    assert em.k == 4
    return game, p, em


def random_rational_game(rng: random.Random, rows: int, cols: int) -> Game:
    def matrix():
        return [
            [F(rng.randint(0, 12), rng.choice([1, 1, 2, 3, 4])) for _ in range(cols)]
            for _ in range(rows)
        ]

    return Game.from_payoffs(matrix(), matrix())


def random_distribution(rng: random.Random, cells: list[JointStrategy]) -> JointDistribution:
    weights = [F(rng.randint(0, 9)) for _ in cells]
    if not any(weights):
        weights[0] = F(1)
    total = sum(weights)
    return JointDistribution(
        {c: w / total for c, w in zip(cells, weights) if w}
    )


# ---------------------------------------------------------------------------
# Brute-force references: each reads ``em.table`` directly, never the oracle
# ---------------------------------------------------------------------------


def block_average(em, game, player, prefix):
    """``player``'s average utility over the table block that ``prefix`` selects."""
    width = 1 << (em.k - len(prefix))
    lo = bits_to_index(prefix) * width
    return sum((game.utility(player, cell) for cell in em.table[lo : lo + width]), F(0)) / width


def preferred_bit(em, game, player, prefix):
    """The next bit ``player`` prefers after ``prefix``, by block average; ties prefer 0."""
    zero, one = (block_average(em, game, player, (*prefix, b)) for b in (0, 1))
    return 0 if zero >= one else 1


def table_expectation(em, game, dist, player):
    """E[u_player] when the output profile is read off the table at ``dist``'s bit strings."""
    return sum(
        (mass * game.utility(player, em.table[bits_to_index(bits)]) for bits, mass in dist.items()),
        F(0),
    )


def table_law(table):
    """The law of a uniform draw from ``table``: each profile's copy count over its length."""
    return {cell: F(n, len(table)) for cell, n in Counter(table).items()}


def prefix_marginal(dist, m):
    """The law of the first ``m`` bits of a bit-string distribution."""
    out = {}
    for bits, mass in dist.items():
        out[bits[:m]] = out.get(bits[:m], F(0)) + mass
    return out
