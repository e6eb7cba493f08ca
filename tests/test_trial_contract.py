"""Monte Carlo outputs pinned per seed, and party rebinding between runs.

The digests below were taken from the per-trial engine that re-ran every
announcement and coin request on every trial.  Any engine that draws the
same coins in the same order must reproduce them byte for byte: index
counts, per-trial outcomes, CLI reports and transcript logs.
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
        "36d147a6a2ae4c1a0c1adc4eca1d8934ffe94842f86181f89cdf02fae860941f",
        "c25c16136d2f51e79d99731ca45b3acb40e182c48f2ac26e4eaf34fba5b7b167",
    ),
    ("3x3", "honest"): (
        "069e0c4a3a80feedb5f5afac3151dc6e55eb73105dda99de05aceb225f05de26",
        "18474721c59233f15eb87b955c159e8e3fd2fba92adc782ea6cca084cd5a4e56",
    ),
    ("3x3", "scripted"): (
        "603f1d8f0426a52ab30d53dbf2039fb465e2d5063be101057e52ac1f6396b063",
        "be01f7448d7e3cd287772687d2e07111f46795406a65b0cff3e4dc5a69da575e",
    ),
    ("bos", "greedy"): (
        "c44ebad1ac118a5826f22ba0fbe07a27262cf59b15469878a19a83df4ab1dc97",
        "0ca32117bf410293e4a9294fe73d5c306174d76d860680684829a9117abc3278",
    ),
    ("bos", "honest"): (
        "7975d4186e5b791df7a8c5fe432f8db5da22ee0c2f1843c3d4a9a92807123b08",
        "41bdbe0e63e1bf5639832edd4c4215b91423495e4925b45afd8c69d22b5a47ee",
    ),
    ("bos", "scripted"): (
        "2854df1c1b842a8b3f2082d95dadff5336091ff0d4244ca1a132e1968312e50e",
        "9560ccd6be16af540f34f56b4376dc3f13ea123f1f97fb6b923fd2ae7687df32",
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
    "run": "0eb0c42258e08afdb50009855a962acfd63ff15c0a03b3e649d2f7b878522cf5",
    "play": "381bc1ce64efac36c0ebb003c4470a5526373c4ff417d5a5f81a5f5dd74baa2b",
    "transcript": "268a6a7be6880a5c38fbfa21c87ad2259ff9dca574a35b260257cc51bb9919d9",
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
            assert sigma.opponent_lied is lied
        assert seen == {True, False}

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
