"""The two-party correlated strategy sampling protocol.

Both parties deterministically emulate the agreed joint distribution by
a 2^k table, then settle the k index bits one round at a time.  Each
round both announce which next bit they prefer (sign of the difference
in their conditional expected payoff, ties preferring 0).  Matching
announcements fix the bit outright; a mismatch is settled by a weak coin
flip whose bias budget is epsilon / (2k) per round, with player 1 in the
Alice role and player 1's announced bit as Alice's winning value.  After
k rounds both parties output the table entry at the assembled index.

Party behavior is pluggable: the honest behavior announces truthfully,
flips honestly, plays its own suggested strategy, and in stage 3 reads
the finished transcript.  It accepts iff every opponent announcement
matches the opponent's true preference and the opponent played their
suggested strategy.  A preference is a deterministic function of the
game and the emulation table, which both parties hold, so a false
announcement is always caught; it is settled like a game-stage
deviation: a Reject, and (0, 0) for both.  Dishonest behaviors may lie in
any of these places; the channel itself is synchronous and lossless.
Parties keep no per-trial state: every answer is a function of the
node or of the transcript it is given.

Parties are asked by node: the heap index of the round tree, where the
root is 1 and the children of node h are 2h and 2h + 1, so the node of
prefix ``bits`` is ``2**len(bits) + bits_to_index(bits)``.  Prefixes
appear only at the public edges: policy and script mappings,
``Transcript.ell`` and the keys of ``simulate_outputs``.  A steering
policy becomes heap-index weights in one place, :func:`policy_weights`;
the analysis's own policies (:class:`_Policy`) already hold such weights
and are played in place.

Every announcement and coin request is a function of the game, the
emulation table and the node of the 2^k round tree, so a run binds its
game, distribution, emulation, config and two parties once and decides
each node on its first visit.  A trial then walks k decided nodes and
draws coins only where a flip settles the bit.  The run owns its
preference oracle and its verdict on whether the distribution is a
correlated equilibrium.  ``simulate_outputs`` and ``run_protocol`` both
go through that one binding, and consecutive calls with the very same
objects reuse it; any other call rebinds and restarts both parties.
"""

from __future__ import annotations

import warnings
from collections import Counter
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .coin_flip import CheaterRequest, WcfSpec, flip_law
from .emulation import (
    BitPrefix,
    MultisetEmulation,
    PreferenceOracle,
    emulate,
    heap_index,
    index_to_bits,
    rounds_for,
)
from .games import ZERO, Game, JointDistribution, JointStrategy, as_fraction, check_ce
from .rng import RandomStream

ACCEPT = "A"
REJECT = "R"

PreferenceSign = int  # +1 prefers next bit 0, -1 prefers next bit 1


def round_bias(epsilon: Fraction, k: int) -> Fraction:
    """The per-round coin bias cap epsilon / (2k); zero when there are no rounds."""
    return epsilon / (2 * k) if k else ZERO


def _is_internal_node(prefix: BitPrefix, k: int) -> bool:
    """Whether ``prefix`` is 0s and 1s shorter than k: a round of the k-round tree."""
    return len(prefix) < k and all(b in (0, 1) for b in prefix)


def policy_weights(policy: Mapping[BitPrefix, Fraction], k: int) -> dict[int, Fraction]:
    """``policy`` as steering weights keyed by heap index, checked against the k-round tree.

    Each prefix must be 0s and 1s shorter than k, and each steering
    probability w, coerced with ``as_fraction``, must lie in [0, 1]; the
    ``ValueError`` names the first bad prefix in the mapping's order.  An
    analysis :class:`_Policy` over at most k rounds was checked where it
    was made, so its own weights are returned as they are, with no walk;
    the caller must not change them.
    """
    if isinstance(policy, _Policy) and policy.k <= k:
        return policy.weights
    weights = {}
    for prefix, w in policy.items():
        prefix, w = tuple(prefix), as_fraction(w)
        if not _is_internal_node(prefix, k):
            raise ValueError(
                f"policy prefix {prefix} is not an internal node of the {k}-round tree"
            )
        if not 0 <= w <= 1:
            raise ValueError(f"policy prefix {prefix}: steering probability {w} is not in [0, 1]")
        weights[heap_index(prefix)] = w
    return weights


class _Policy(Mapping):
    """The analysis's policy: every internal node's weight keyed by its prefix, level by level.

    A read-only view of heap-index ``weights`` (a missing node has w = 0)
    over a ``k``-round tree, so it holds nothing of size 2**k: a lookup
    maps the prefix to its heap index, and ``items`` and ``values`` walk
    heap indices, which run in key order.  Equality is a mapping's, so it
    equals the dict of its items.  Copy it with ``dict(policy.items())``,
    which walks heap indices; ``dict(policy)`` looks every prefix up
    through the checked ``__getitem__`` and is about four times slower.
    """

    def __init__(self, weights: dict[int, Fraction], k: int):
        self.weights = weights
        self.k = k

    def __len__(self) -> int:
        return (1 << self.k) - 1

    def __iter__(self):
        return (prefix for m in range(self.k) for prefix in product((0, 1), repeat=m))

    def __getitem__(self, prefix: BitPrefix) -> Fraction:
        if not (isinstance(prefix, tuple) and _is_internal_node(prefix, self.k)):
            raise KeyError(prefix)
        return self.weights.get(heap_index(prefix), ZERO)

    def _values(self):
        get = self.weights.get
        return (get(h, ZERO) for h in range(1, 1 << self.k))

    def items(self) -> ItemsView:
        return _PolicyItems(self)

    def values(self) -> ValuesView:
        return _PolicyValues(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class _PolicyItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping._values())


class _PolicyValues(ValuesView):
    def __iter__(self):
        return self._mapping._values()


class TwoCheatersError(RuntimeError):
    """Both parties requested a biased coin at one node of a run."""


@dataclass(frozen=True)
class ProtocolConfig:
    """Run parameters; the per-round coin bias is pinned to epsilon / (2k)."""

    epsilon: Fraction
    delta: Fraction
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", as_fraction(self.epsilon))
        object.__setattr__(self, "delta", as_fraction(self.delta))
        if self.epsilon <= 0 or self.delta <= 0:
            raise ValueError("epsilon and delta must be positive")
        if not isinstance(self.k, int) or isinstance(self.k, bool):
            raise TypeError(f"k must be an int, got {self.k!r}")
        if self.k < 0:
            raise ValueError("round count cannot be negative")

    @property
    def per_round_bias(self) -> Fraction:
        return round_bias(self.epsilon, self.k)

    @classmethod
    def plan(cls, game: Game, epsilon, delta) -> "ProtocolConfig":
        """Derive the round count from the game size and the budget delta."""
        d = as_fraction(delta)
        return cls(as_fraction(epsilon), d, rounds_for(game.n_cells, d))


@dataclass(frozen=True)
class Message:
    """One stage-1 wire message: a preference or a coin result."""

    kind: str  # "preference" | "coin_result"
    sender: int
    round_index: int | None
    value: object


@dataclass(frozen=True)
class RoundRecord:
    index: int
    sign1: PreferenceSign
    sign2: PreferenceSign
    resolution: str  # "agreed" | "coin"
    bit: int
    cheater: int | None = None
    win_request: Fraction | None = None


@dataclass
class Transcript:
    """Full record of one stage-1 run.

    ``output`` is the profile both parties output: the table entry at ``ell``.
    """

    rounds: list[RoundRecord]
    ell: BitPrefix
    output: JointStrategy
    messages: list[Message] = field(default_factory=list)


class PartyBehavior:
    """Honest behavior; subclasses override pieces to model deviations.

    ``start`` binds the behavior to one run: its seat and the run's
    preference oracle.  ``announce(h)`` returns a preference sign at node
    h of the round tree, named by its heap index: the root is 1, and the
    children of h are 2h and 2h + 1, so h lies at depth
    ``h.bit_length() - 1`` and the node of prefix ``bits`` is
    ``2**len(bits) + bits_to_index(bits)``.  ``coin_request(h)`` returns
    None to flip honestly or a desired win probability to cheat;
    ``game_move`` picks the strategy actually played; ``check_move`` is
    the stage-3 verdict, read from the finished stage-1 transcript and the
    opponent's move (and, for player 2, player 1's verdict): reject if any
    opponent announcement differs from the opponent's true preference or
    the opponent left their suggestion.

    A behavior keeps no per-trial state.  Between two ``start`` calls,
    ``announce`` and ``coin_request`` must be functions of the node: the
    run asks each node once and reuses the answer in every later trial,
    and the exact analysis models behaviors the same way.  Every
    behavior here meets this.  A behavior whose answers should change
    must be passed to the next call as a new object, which rebinds.
    """

    player: int

    def start(
        self,
        game: Game,
        em: MultisetEmulation,
        config: ProtocolConfig,
        player: int,
        oracle: PreferenceOracle,
    ) -> None:
        self.player = player
        self.oracle = oracle

    def announce(self, h: int) -> PreferenceSign:
        return -1 if h in self.oracle.prefers_one(self.player) else 1

    def coin_request(self, h: int) -> Fraction | None:
        return None

    def game_move(self, suggestion: JointStrategy) -> int:
        return suggestion[self.player - 1]

    def check_move(
        self,
        transcript: Transcript,
        opponent_move: int,
        opponent_check: str | None = None,
    ) -> str:
        opponent = 3 - self.player
        prefers_one = self.oracle.prefers_one(opponent)
        h = 1  # heap index of the round's node
        for rec, bit in zip(transcript.rounds, transcript.ell):
            if (rec.sign1 if opponent == 1 else rec.sign2) != (-1 if h in prefers_one else 1):
                return REJECT
            h = 2 * h + bit
        return ACCEPT if opponent_move == transcript.output[opponent - 1] else REJECT


class HonestParty(PartyBehavior):
    """The reference strategy σ: truthful, fair, obedient, checking announcements and moves."""


class PolicyParty(PartyBehavior):
    """Plays a per-prefix coin policy against an honest opponent.

    ``policy`` maps each prefix to the probability w of steering the next
    bit away from the honest side's preferred value.  w == 0 is realized
    by announcing the own true preference: where both true preferences
    agree that fixes the honest bit with no coin, and where they differ it
    starts a coin flip that the policy loses on purpose (request 0).
    w > 0 is realized by announcing the opposite of the honest side's
    preference and requesting w from the coin functionality; where both
    true preferences agree, that announcement is a lie.

    A prefix that the policy does not hold is played as σ: a true
    announcement and, at a coin, an honest flip, as
    :func:`~ce_sampler.analysis.policy_outcome` values it.  A plain
    mapping holds its keys.  An analysis policy holds every prefix shorter
    than its own round count, with w = 0 where its weights have no key.

    A plain mapping is copied here, its weights coerced with
    ``as_fraction``, and checked against the run's round count by
    :func:`policy_weights` when the run starts.  An analysis policy is
    kept by reference and, over at most the run's round count, played in
    place: its heap-index weights are read with no walk over its prefixes.
    """

    def __init__(self, policy: Mapping[BitPrefix, Fraction]):
        if not isinstance(policy, _Policy):
            policy = {tuple(prefix): as_fraction(w) for prefix, w in policy.items()}
        self.policy = policy

    def start(self, game, em, config, player, oracle) -> None:
        self.weights = policy_weights(self.policy, config.k)
        # From this node on, a node missing from the weights is not held and flips honestly.
        self.first_honest = 1 << self.policy.k if isinstance(self.policy, _Policy) else 1
        super().start(game, em, config, player, oracle)

    def announce(self, h: int) -> PreferenceSign:
        if self.weights.get(h, ZERO) == 0:
            return super().announce(h)
        return 1 if h in self.oracle.prefers_one(3 - self.player) else -1

    def coin_request(self, h: int) -> Fraction | None:
        return self.weights.get(h, ZERO if h < self.first_honest else None)


def _show_prefix(prefix) -> str:
    return repr("".join(str(b) for b in prefix))


def _script_sign(value) -> PreferenceSign:
    if str(value) not in ("1", "-1"):
        raise ValueError(f"a sign must be 1 or -1, got {value!r}")
    return int(value)


class ScriptedParty(PartyBehavior):
    """Behavior overridden pointwise from a script; honest where silent.

    ``announce``: prefix -> sign (1 or -1); ``win_request``: prefix ->
    probability in [0, 1]; ``move``: strategy index to play instead of the
    suggestion; ``check``: a fixed "A" or "R".  Bad values raise
    ``ValueError`` here; a move or prefix that does not fit the run's seat
    and round count raises it in :meth:`check_seat`, which ``start`` calls
    before it keys both maps by heap index.  Messages name the script
    field (as in a party script file).
    """

    def __init__(
        self,
        announce: Mapping[BitPrefix, int] | None = None,
        win_request: Mapping[BitPrefix, Fraction] | None = None,
        move: int | None = None,
        check: str | None = None,
    ):
        def convert(field: str, mapping, value_of) -> dict:
            out = {}
            for key, value in (mapping or {}).items():
                prefix = tuple(key)
                try:
                    out[prefix] = value_of(value)
                except (ValueError, TypeError) as exc:
                    raise ValueError(
                        f"field {field!r} prefix {_show_prefix(prefix)}: {exc}"
                    ) from exc
            return out

        self.script_announce = convert("announce", announce, _script_sign)
        self.script_win = convert(
            "win_request", win_request, lambda w: CheaterRequest(w).win_probability
        )
        if move is not None and (type(move) is not int or move < 0):
            raise ValueError(
                f"field 'game_move' must be a strategy index (an int >= 0), got {move!r}"
            )
        if check not in (None, ACCEPT, REJECT):
            raise ValueError(f"field 'check_move' must be \"A\" or \"R\", got {check!r}")
        self.script_move = move
        self.script_check = check

    def check_seat(self, game: Game, player: int, k: int) -> None:
        """Raise ``ValueError`` unless the script fits seat ``player`` of ``game`` at k rounds."""
        for field, mapping in (("announce", self.script_announce), ("win_request", self.script_win)):
            for prefix in mapping:
                if not _is_internal_node(prefix, k):
                    raise ValueError(
                        f"field {field!r} prefix {_show_prefix(prefix)} must be 0s and 1s"
                        f" shorter than k = {k}"
                    )
        strategies = game.rows if player == 1 else game.cols
        if self.script_move is not None and self.script_move >= strategies:
            raise ValueError(
                f"field 'game_move' must be a strategy index of player {player} "
                f"(0 to {strategies - 1}), got {self.script_move!r}"
            )

    def start(self, game, em, config, player, oracle) -> None:
        self.check_seat(game, player, config.k)
        self.node_announce = {heap_index(p): sign for p, sign in self.script_announce.items()}
        self.node_win = {heap_index(p): w for p, w in self.script_win.items()}
        super().start(game, em, config, player, oracle)

    def announce(self, h: int) -> PreferenceSign:
        override = self.node_announce.get(h)
        return override if override is not None else super().announce(h)

    def coin_request(self, h: int) -> Fraction | None:
        return self.node_win.get(h)

    def game_move(self, suggestion: JointStrategy) -> int:
        return self.script_move if self.script_move is not None else super().game_move(suggestion)

    def check_move(self, transcript, opponent_move, opponent_check=None) -> str:
        if self.script_check is not None:
            return self.script_check
        return super().check_move(transcript, opponent_move, opponent_check)


class _Run:
    """One protocol run bound to (game, p, emulation, config, party1, party2).

    Binding checks the round count, builds both coin specs and the run's
    preference oracle, starts both parties on that oracle, and does so
    once.  The run also keeps its verdict on whether ``p`` is a correlated
    equilibrium, checked on first request.  A node of the round tree is
    then decided on its first visit and kept, keyed by heap index (the
    root is 1, the children of node h are 2h and 2h + 1).  An entry holds
    ``(win, bit, records)``: for an agreed round ``win`` is None and
    ``bit`` is the fixed bit; for a coin round ``(bit, win)`` is the
    flip's ``flip_law``, the bit that wins and its exact probability.
    ``records`` holds the round's record for either outcome bit.  A trial
    walks k entries and draws only at coin nodes, exactly as many draws as
    the rounds would take one by one.  This relies on the
    ``PartyBehavior`` rule that ``announce`` and ``coin_request`` are
    functions of the node.
    """

    __slots__ = ("key", "game", "p", "em", "k", "party1", "party2", "specs", "nodes", "ce")

    def __init__(
        self,
        key: tuple,
        game: Game,
        p: JointDistribution,
        em: MultisetEmulation,
        config: ProtocolConfig,
        party1: PartyBehavior,
        party2: PartyBehavior,
    ):
        if em.k != config.k:
            raise ValueError(f"emulation has k={em.k} but the config says k={config.k}")
        bias = config.per_round_bias
        self.specs = (WcfSpec(0, bias), WcfSpec(1, bias))
        oracle = PreferenceOracle(em, game)
        party1.start(game, em, config, 1, oracle)
        party2.start(game, em, config, 2, oracle)
        self.key = key
        self.game = game
        self.p = p
        self.em = em
        self.k = config.k
        self.party1 = party1
        self.party2 = party2
        self.nodes: dict[int, tuple] = {}
        self.ce: bool | None = None

    def is_ce(self) -> bool:
        """``check_ce(game, p)``, computed on the first request and kept."""
        if self.ce is None:
            self.ce = check_ce(self.game, self.p)
        return self.ce

    def decide(self, h: int) -> tuple:
        """The entry for node ``h``: announcements, then any coin request."""
        index = h.bit_length()  # the round number: the root's round is 1
        sign1 = self.party1.announce(h)
        sign2 = self.party2.announce(h)
        if sign1 == sign2:
            bit = 0 if sign1 == 1 else 1
            record = RoundRecord(index, sign1, sign2, "agreed", bit)
            entry = (None, bit, (record, record))
        else:
            spec = self.specs[0 if sign1 == 1 else 1]
            req1 = self.party1.coin_request(h)
            req2 = self.party2.coin_request(h)
            if req1 is not None and req2 is not None:
                raise TwoCheatersError(
                    "both parties requested a biased coin; the functionality only "
                    "bounds one cheater against an honest party"
                )
            if req1 is None and req2 is None:
                cheater, request = None, None
                winner, win = flip_law(spec)
            else:
                cheater = 1 if req1 is not None else 2
                request = req1 if req1 is not None else req2
                role = "alice" if cheater == 1 else "bob"
                winner, win = flip_law(spec, role, CheaterRequest(request))
            entry = (win, winner, tuple(
                RoundRecord(index, sign1, sign2, "coin", b, cheater, request) for b in (0, 1)
            ))
        self.nodes[h] = entry
        return entry

    def walk(self, randomness: RandomStream, records: list | None = None) -> int:
        """Settle all k index bits for one trial and return the table index.

        Each round's record is appended to ``records`` when one is given.
        """
        nodes = self.nodes
        h = 1
        for _ in range(self.k):
            entry = nodes.get(h)
            if entry is None:
                entry = self.decide(h)
            win, bit, settled = entry
            if win is not None:
                bit = bit if randomness.bernoulli(win) else 1 - bit
            if records is not None:
                records.append(settled[bit])
            h = 2 * h + bit
        return h - (1 << self.k)


_last_run: _Run | None = None


def _bind(
    game: Game,
    p: JointDistribution | None,
    config: ProtocolConfig,
    party1: PartyBehavior,
    party2: PartyBehavior,
    em: MultisetEmulation | None,
) -> _Run:
    """The run for these objects: the last binding when every one is the same object.

    Without ``em`` the emulation is built from ``p``.  Any other call
    rebinds, which restarts both parties.
    """
    global _last_run
    key = (game, p, em, config, party1, party2)
    run = _last_run
    if run is not None and all(a is b for a, b in zip(run.key, key)):
        return run
    _last_run = None  # a failed binding may have restarted the parties
    if em is None:
        em = emulate(game, p, config.delta)
    _last_run = _Run(key, game, p, em, config, party1, party2)
    return _last_run


def run_protocol(
    game: Game,
    p: JointDistribution,
    config: ProtocolConfig,
    party1: PartyBehavior,
    party2: PartyBehavior,
    randomness: RandomStream,
    em: MultisetEmulation | None = None,
    record_messages: bool = True,
    warn_not_ce: bool = True,
) -> Transcript:
    """One full sampling run; returns its transcript.

    The protocol happily samples any distribution, but its guarantees are
    stated for correlated equilibria, so a non-CE input draws a warning on
    every call.  The check itself runs once per run binding.
    """
    run = _bind(game, p, config, party1, party2, em)
    if warn_not_ce and not run.is_ce():
        warnings.warn("input distribution is not a correlated equilibrium", stacklevel=2)
    records: list[RoundRecord] = []
    leaf = run.walk(randomness, records)
    ell = tuple([rec.bit for rec in records])

    transcript = Transcript(records, ell, run.em.table[leaf])
    if record_messages:
        for rec in records:
            transcript.messages.append(Message("preference", 1, rec.index, rec.sign1))
            transcript.messages.append(Message("preference", 2, rec.index, rec.sign2))
            if rec.resolution == "coin":
                transcript.messages.append(Message("coin_result", 1, rec.index, rec.bit))
                transcript.messages.append(Message("coin_result", 2, rec.index, rec.bit))
    return transcript


def simulate_outputs(
    game: Game,
    p: JointDistribution,
    config: ProtocolConfig,
    party1: PartyBehavior,
    party2: PartyBehavior,
    randomness: RandomStream,
    trials: int,
    em: MultisetEmulation | None = None,
) -> Counter:
    """Empirical index distribution over many runs.

    Draws the same coins as ``run_protocol`` but skips transcript
    assembly; trial ``t`` draws from ``randomness.child(t)``, so counts are
    independent of execution order.
    """
    run = _bind(game, p, config, party1, party2, em)
    leaves: Counter = Counter()
    for t in range(trials):
        leaves[run.walk(randomness.child(t))] += 1
    return Counter({index_to_bits(leaf, run.k): n for leaf, n in leaves.items()})
