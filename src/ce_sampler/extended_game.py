"""The three-stage extended game: sample, play, then accept or reject.

Stage 1 runs the correlated sampling protocol, stage 2 plays the
underlying game, and stage 3 has each player submit Accept or Reject in
a fixed sequential order (player 1 first; the moves are deliberately not
simultaneous).  Any Reject zeroes both payoffs, which is what removes
the incentive to ignore the sampled suggestion: deviate in stage 2 and
an honest opponent rejects, leaving the deviator with nothing.  The same
Reject answers a false preference announcement in stage 1.  Each
party's stage-3 answer is one call, ``check_move``, on the stage-1
transcript and the opponent's move: the honest party compares every
announcement in the transcript with the announcer's true preference.
The stage-2 moves, the checks and the payoffs live on
:class:`ExtendedOutcome`; the transcript holds stage 1 only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .games import ZERO, Game, JointDistribution, JointStrategy
from .protocol import ACCEPT, PartyBehavior, ProtocolConfig, Transcript, run_protocol
from .rng import RandomStream


def settle(
    game: Game, stage2: JointStrategy, checks: tuple[str, str]
) -> tuple[Fraction, Fraction]:
    """Final payoffs: the game's, unless anyone rejected — then (0, 0)."""
    if any(check != ACCEPT for check in checks):
        return ZERO, ZERO
    return game.payoffs(stage2)


@dataclass(frozen=True)
class ExtendedOutcome:
    stage2: JointStrategy
    checks: tuple[str, str]
    payoffs: tuple[Fraction, Fraction]
    transcript: Transcript


def play_extended_game(
    game: Game,
    p: JointDistribution,
    config: ProtocolConfig,
    party1: PartyBehavior,
    party2: PartyBehavior,
    randomness: RandomStream,
    **protocol_kwargs,
) -> ExtendedOutcome:
    """Run all three stages and settle the payoffs."""
    transcript = run_protocol(game, p, config, party1, party2, randomness, **protocol_kwargs)
    suggestion = transcript.output
    move1 = party1.game_move(suggestion)
    move2 = party2.game_move(suggestion)
    check1 = party1.check_move(transcript, move2)
    check2 = party2.check_move(transcript, move1, opponent_check=check1)
    stage2, checks = JointStrategy(move1, move2), (check1, check2)
    return ExtendedOutcome(stage2, checks, settle(game, stage2, checks), transcript)


def augmented_normal_form(game: Game) -> Game:
    """Fold the Accept/Reject stage into one normal-form game.

    Each strategy becomes (strategy, Accept) or (strategy, Reject), with
    all Accept pairs listed first; a profile touching any Reject pays
    (0, 0).  The equilibrium structure of the original game survives: its
    correlated equilibria, re-read on the Accept block, are correlated
    equilibria here.
    """

    def labels(names: tuple[str, ...]) -> tuple[str, ...]:
        return tuple(f"{n},Accept" for n in names) + tuple(f"{n},Reject" for n in names)

    rows, cols = game.rows, game.cols

    def payoff(matrix, r: int, c: int) -> Fraction:
        if r < rows and c < cols:
            return matrix[r][c]
        return ZERO

    u1 = tuple(tuple(payoff(game.u1, r, c) for c in range(2 * cols)) for r in range(2 * rows))
    u2 = tuple(tuple(payoff(game.u2, r, c) for c in range(2 * cols)) for r in range(2 * rows))
    return Game(labels(game.strategies_1), labels(game.strategies_2), u1, u2, normalized=game.normalized)
