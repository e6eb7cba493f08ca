"""Ideal weak coin flipping between two parties with a bounded-bias cheater.

Each party has a designated winning bit (Alice wins on ``a``, Bob on
``1 - a``).  Honest-vs-honest runs are fair.  A cheater facing an honest
party may request any win probability; the functionality clamps it to
1/2 + bias.  Losing on purpose is unrestricted — a cheater may hand the
opponent the win with certainty.  Nobody aborts: a party that wanted to
abort could simply have declared victory instead, so both parties always
output the same bit.

``flip_law`` states a flip's law once, as the bit that wins and its
exact probability; sampling a flip and the protocol's round tree both
read it from there.

The quantum protocol realizing this functionality for arbitrarily small
bias is deliberately out of scope; everything here treats it as a black
box with the interface above.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

from .games import as_fraction
from .rng import RandomStream

Party = Literal["alice", "bob"]
HALF = Fraction(1, 2)


@dataclass(frozen=True)
class WcfSpec:
    """Parameters of one flip: Alice's winning bit and the cheater bias cap."""

    preferred_value_alice: int
    bias: Fraction

    def __post_init__(self) -> None:
        if self.preferred_value_alice not in (0, 1):
            raise ValueError("preferred value must be a bit")
        object.__setattr__(self, "bias", as_fraction(self.bias))
        if not 0 <= self.bias < HALF:
            raise ValueError("bias must satisfy 0 <= bias < 1/2")

    def winning_value(self, party: Party) -> int:
        if party == "alice":
            return self.preferred_value_alice
        if party == "bob":
            return 1 - self.preferred_value_alice
        raise ValueError(f"unknown party {party!r}")


@dataclass(frozen=True)
class CheaterRequest:
    """A cheating party's desired win probability (clamped by the functionality)."""

    win_probability: Fraction

    def __post_init__(self) -> None:
        w = as_fraction(self.win_probability)
        if not 0 <= w <= 1:
            raise ValueError("requested win probability must lie in [0, 1]")
        object.__setattr__(self, "win_probability", w)


def flip_law(
    spec: WcfSpec, cheater: Party | None = None, request: CheaterRequest | None = None
) -> tuple[int, Fraction]:
    """A flip's law: (the bit that wins, its exact probability).

    With both parties honest Alice's bit wins with probability exactly
    1/2.  With one cheater its bit wins with probability
    ``min(w, 1/2 + bias)``; a request of 0 hands the honest party the win
    with certainty.
    """
    if cheater is None:
        return spec.preferred_value_alice, HALF
    return spec.winning_value(cheater), min(request.win_probability, HALF + spec.bias)


def run_honest(spec: WcfSpec, randomness: RandomStream) -> int:
    """Both parties honest: the settled bit, fair whatever the bias cap."""
    bit, win = flip_law(spec)
    return bit if randomness.bernoulli(win) else 1 - bit


def run_with_cheater(
    spec: WcfSpec, cheater: Party, request: CheaterRequest, randomness: RandomStream
) -> int:
    """One cheating party against an honest one: the settled bit."""
    bit, win = flip_law(spec, cheater, request)
    return bit if randomness.bernoulli(win) else 1 - bit
