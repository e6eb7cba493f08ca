"""Monte Carlo outputs pinned per seed, and party rebinding between runs.

The digests below pin the counter-based stream of ``ce_sampler.rng``
(version 1 of its encoding).  They were re-taken when that stream replaced
the seeded Mersenne Twister, and only after every exact-law check passed
unedited against it.  Any engine that draws the same coins in the same
order must reproduce them byte for byte: index counts, per-trial outcomes,
CLI reports and transcript logs.
"""

import hashlib
import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from ce_sampler import (
    HonestParty,
    PolicyParty,
    ProtocolConfig,
    RandomStream,
    ScriptedParty,
    emulate,
    normalize,
    play_extended_game,
    run_protocol,
    simulate_outputs,
    worst_case_adversary,
)
from ce_sampler.cli import main
from conftest import random_distribution, random_rational_game

BOS = str(Path(__file__).resolve().parent.parent / "src" / "ce_sampler" / "data" / "bos.json")

SIMULATE_TRIALS = 400
PLAY_TRIALS = 60


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _bits(bits) -> str:
    return "".join(str(b) for b in bits)


def _instance(label, bos, bos_fair_ce):
    """(game, p, em, config) for bos at k = 3 or a seeded 3x3 game at k = 8."""
    if label == "bos":
        game, p, delta = bos, bos_fair_ce, F(1, 2)
    else:
        rng = random.Random(627)
        game = random_rational_game(rng, 3, 3)
        p = random_distribution(rng, list(game.cells()))
        delta = F(9, 256)
    config = ProtocolConfig.plan(game, F(1, 10), delta)
    em = emulate(game, p, config.delta)
    assert em.k == {"bos": 3, "3x3": 8}[label]
    return game, p, em, config


SCRIPTS = {
    "bos": dict(announce={(0,): -1}, win_request={(): F(7, 12)}),
    "3x3": dict(announce={(1,): 1, (0, 0): -1}, win_request={(): F(2, 3), (0, 1, 1): F(0)}),
}


def _opponent(kind, label, game, em, config):
    if kind == "honest":
        return HonestParty()
    if kind == "greedy":
        adv = worst_case_adversary(em, normalize(game), config.per_round_bias, 1)
        return PolicyParty(adv.policy)
    return ScriptedParty(**SCRIPTS[label])


def _outcome_key(outcome) -> tuple:
    transcript = outcome.transcript
    rounds = tuple(
        (r.index, r.sign1, r.sign2, r.resolution, r.bit, r.bit, r.cheater, str(r.win_request))
        for r in transcript.rounds
    )
    return (
        _bits(transcript.ell),
        rounds,
        outcome.checks,
        tuple(str(v) for v in outcome.payoffs),
    )


def _counts_digest(counts) -> str:
    return _sha(repr(sorted((_bits(bits), n) for bits, n in counts.items())))


PINNED = {
    ("3x3", "greedy"): (
        "1288dde1575d5e87331551bb128ddab6a5a833c3e928195cff93a00752af62ad",
        "820381f82716908c8167c9673bb245202561cedafbaa4fcd3752e70822672f98",
    ),
    ("3x3", "honest"): (
        "be4cbb0a9f0c2f5d92311c3c684acc3e335160b54c68de74476f9df8f7a0b596",
        "14472df39d9189d9b489a4c7bd8872aef4922177ea1f57b736452f0e8eb97900",
    ),
    ("3x3", "scripted"): (
        "8003b9605f351aad308f66725d5232a585e9f25dc2819050430945110b080b44",
        "cb9cc3ffe9c7d12aa7f128a43e1a732aeccca4cdf6eb0e34c427b0bbe3354a60",
    ),
    ("bos", "greedy"): (
        "78c1bb3dad5d0ae6c776b668b6c33c6981d987dbdeae8aa68d060560f9cf4713",
        "8fa33ed95555ba1105fe951f6906cf078d59a6bb878bdc762b1d47d0592c7f2a",
    ),
    ("bos", "honest"): (
        "671538e9c53dba2a7112ad41cc58c58cbb90bc2cde15c5ed5162642ebdca66da",
        "2aad3bb8525b3c10b95e84635ac53acd52f5eed99224d201b4a35266f03d63af",
    ),
    ("bos", "scripted"): (
        "f2640f9279060d936a8e1456b3ddda17dac2bc28c66a3ee55587d463b7ec679e",
        "ae0f7454b2daa2598594e6bdf1a6aaf157127a047cbfd4e0556a1f055462a830",
    ),
}


def _trial_digests(label, kind, bos, bos_fair_ce) -> tuple[str, str]:
    """Digests of ``simulate_outputs`` counts and of per-trial ``play_extended_game`` outcomes."""
    game, p, em, config = _instance(label, bos, bos_fair_ce)
    party1, party2 = _opponent(kind, label, game, em, config), HonestParty()
    counts = simulate_outputs(
        game, p, config, party1, party2, RandomStream(70), SIMULATE_TRIALS, em=em
    )
    root = RandomStream(71)
    outcomes = [
        _outcome_key(play_extended_game(
            game, p, config, party1, party2, root.child(t),
            em=em, record_messages=False, warn_not_ce=False,
        ))
        for t in range(PLAY_TRIALS)
    ]
    return _counts_digest(counts), _sha(repr(outcomes))


@pytest.mark.parametrize("label, kind", sorted(PINNED), ids=lambda v: str(v))
def test_trial_outputs_are_pinned(label, kind, bos, bos_fair_ce):
    assert _trial_digests(label, kind, bos, bos_fair_ce) == PINNED[(label, kind)]


CLI_PINNED = {
    "run": "320bdeab9c53a70080c367226e21236ac51218f45c007bdbb6452be01b9d6100",
    "play": "92243532ff2c3e43219b0a306ec17dfd2b6d1ee795afef5bf821dd498acdf1bf",
    "transcript": "cb600b745987bccae4a99819cae2c8cf45571077e18c9892bbdb26931542ed39",
}


def _cli_bytes(tmp_path, command, *extra) -> tuple[bytes, bytes | None]:
    report = tmp_path / f"{command}.json"
    argv = [command, "--game", BOS, "--objective", "max-fair", "--seed", "7",
            "--report", str(report), *extra]
    log = None
    if command == "run":
        log = tmp_path / "log.jsonl"
        argv += ["--transcript", str(log)]
    assert main(argv) == 0
    return report.read_bytes(), (log.read_bytes() if log else None)


def test_cli_reports_and_log_are_pinned(tmp_path):
    run_report, log = _cli_bytes(tmp_path, "run", "--trials", "40", "--party1", "greedy")
    play_report, _ = _cli_bytes(tmp_path, "play", "--trials", "50", "--party1", "greedy")
    got = {
        "run": _sha(run_report.decode()),
        "play": _sha(play_report.decode()),
        "transcript": _sha(log.decode()),
    }
    assert got == CLI_PINNED


@pytest.mark.parametrize("command", ["run", "play"])
def test_cli_output_does_not_depend_on_jobs(tmp_path, command):
    outputs = []
    for jobs in ("1", "3"):
        where = tmp_path / jobs
        where.mkdir()
        report, log = _cli_bytes(where, command, "--trials", "25", "--jobs", jobs)
        body = json.loads(report)
        body["config"].pop("jobs")
        outputs.append((body, log))
    assert outputs[0] == outputs[1]


class TestRebinding:
    """Parties shared across runs behave exactly like fresh parties in each run."""

    def test_interleaved_runs_match_fresh_parties(self, bos, bos_fair_ce):
        # Consecutive steps differ in exactly one of: emulation (same k and
        # config object), config (same emulation), policy, or seat.
        ems = {
            "a": emulate(bos, bos_fair_ce, F(1, 2)),
            "b": emulate(bos, bos_fair_ce, F(1, 2), order=list(reversed(list(bos.cells())))),
            "4": emulate(bos, bos_fair_ce, F(1, 4)),
        }
        configs = {
            "3a": ProtocolConfig(F(1, 10), F(1, 2), 3),
            "3b": ProtocolConfig(F(1, 5), F(1, 2), 3),
            "4": ProtocolConfig(F(1, 10), F(1, 4), 4),
        }
        greedy = worst_case_adversary(ems["a"], bos, configs["3a"].per_round_bias, 1).policy
        policies = {"greedy": greedy, "fixed": {(): F(3, 5), (1,): F(1, 3), (0, 1): F(1)}}
        shared = {name: PolicyParty(policy) for name, policy in policies.items()}
        sigma = HonestParty()
        steps = [
            ("a", "3a", "fixed", 1), ("a", "3a", "fixed", 1), ("a", "3b", "fixed", 1),
            ("b", "3b", "fixed", 1), ("b", "3b", "greedy", 1), ("b", "3b", "greedy", 2),
            ("4", "4", "greedy", 2), ("a", "3a", "greedy", 2), ("a", "3a", "fixed", 2),
            ("a", "3a", "fixed", 1), ("b", "3a", "fixed", 1),
        ]

        def play(step, cheater, honest, t):
            em, config, _, seat = step
            parties = (cheater, honest) if seat == 1 else (honest, cheater)
            return [
                _outcome_key(play_extended_game(
                    bos, bos_fair_ce, configs[config], *parties, RandomStream(90).child(t, j),
                    em=ems[em], record_messages=False,
                ))
                for j in range(12)
            ]

        expected = [
            play(step, PolicyParty(policies[step[2]]), HonestParty(), t)
            for t, step in enumerate(steps)
        ]
        got = [play(step, shared[step[2]], sigma, t) for t, step in enumerate(steps)]
        assert got == expected

        def simulate(step, cheater, honest):
            em, config, _, seat = step
            parties = (cheater, honest) if seat == 1 else (honest, cheater)
            return simulate_outputs(
                bos, bos_fair_ce, configs[config], *parties, RandomStream(91), 200, em=ems[em]
            )

        expected = [simulate(step, PolicyParty(policies[step[2]]), HonestParty()) for step in steps]
        assert [simulate(step, shared[step[2]], sigma) for step in steps] == expected

    def test_caught_lie_does_not_leak_into_the_next_trial(self, bos, bos_fair_ce):
        # The liar misstates its preference only below a first bit of 0,
        # so within one run some trials hold the lie and some do not.
        em = emulate(bos, bos_fair_ce, F(1, 2))
        config = ProtocolConfig(F(1, 10), F(1, 2), em.k)
        liar, sigma = ScriptedParty(announce={(0,): -1}), HonestParty()
        seen = set()
        for t in range(40):
            outcome = play_extended_game(
                bos, bos_fair_ce, config, liar, sigma, RandomStream(92).child(t),
                em=em, record_messages=False,
            )
            lied = outcome.transcript.ell[0] == 0
            seen.add(lied)
            assert outcome.checks == (("A", "R") if lied else ("A", "A"))
        assert seen == {True, False}

    @pytest.mark.parametrize("seat", [1, 2])
    def test_each_verdict_reads_its_own_transcript(self, bos, bos_fair_ce, seat):
        # One σ, bound once, checks lying and truthful transcripts in play
        # order, reversed, twice each and shuffled: a verdict depends on
        # its own transcript and the opponent's move alone.
        em = emulate(bos, bos_fair_ce, F(1, 2))
        config = ProtocolConfig(F(1, 10), F(1, 2), em.k)
        liar, sigma = ScriptedParty(announce={(0,): -1}), HonestParty()
        parties = (liar, sigma) if seat == 1 else (sigma, liar)
        cases = []  # (transcript, opponent move, verdict σ must give)
        for t in range(24):
            outcome = play_extended_game(
                bos, bos_fair_ce, config, *parties, RandomStream(95).child(t),
                em=em, record_messages=False,
            )
            transcript = outcome.transcript
            lied = transcript.ell[0] == 0  # the lie is told below a first bit of 0
            cases.append((transcript, transcript.output[seat - 1], "R" if lied else "A"))
            assert outcome.checks[2 - seat] == cases[-1][2]
        oracle = sigma.oracle
        for t in range(8):  # truthful transcripts from a run σ is not part of
            transcript = run_protocol(
                bos, bos_fair_ce, config, HonestParty(), HonestParty(),
                RandomStream(96).child(t), em=em, record_messages=False,
            )
            cases.append((transcript, transcript.output[seat - 1], "A"))
            cases.append((transcript, 1 - transcript.output[seat - 1], "R"))
        assert {verdict for _, _, verdict in cases} == {"A", "R"}
        order = [*reversed(cases), *(case for case in cases for _ in range(2))]
        order += random.Random(97).sample(cases, len(cases))
        for transcript, move, verdict in order:
            assert sigma.check_move(transcript, move) == verdict
        assert sigma.oracle is oracle  # checking rebinds nothing

    def test_run_protocol_after_play_keeps_its_records(self, bos, bos_fair_ce):
        em = emulate(bos, bos_fair_ce, F(1, 2))
        config = ProtocolConfig(F(1, 10), F(1, 2), em.k)
        party1, party2 = HonestParty(), HonestParty()
        first = run_protocol(
            bos, bos_fair_ce, config, party1, party2, RandomStream(93), em=em
        )
        play_extended_game(
            bos, bos_fair_ce, config, party1, party2, RandomStream(94), em=em,
            record_messages=False,
        )
        again = run_protocol(
            bos, bos_fair_ce, config, party1, party2, RandomStream(93), em=em
        )
        assert again.rounds == first.rounds and again.messages == first.messages
