"""Acceptance gate: every exit criterion at its stated tolerance.

Each criterion prints one pass/fail line.  The shared randomized battery
(108 seeded games, sizes 2x2 through 4x4, emulation budgets 1/2 and 1/8,
cheating budgets 1/10 and 1/100) is built once per test session, and its
fingerprint is pinned so that no criterion passes on a drifted battery.

``truthful_announcement_optimality`` checks that lying in the
announcement step never beats truthful announcing against honest play σ.
It holds because σ checks announcements and settles a lie to (0, 0).
Against an opponent who does not check, the claim is false: the battery
holds counterexamples (tests/test_analysis.py pins a deterministic one),
and the criterion replays them through the protocol to show σ catching
every lie.
"""

import hashlib

import pytest

from ce_sampler.acceptance import BATTERY_SIZE, battery, criterion_names, run_criterion

BATTERY_FINGERPRINT = "68d5e3f391144f7c129a397849d199a56183cecc34c121a0cb4e2a9dba4b2c26"


def battery_fingerprint(cases) -> str:
    """SHA-256 over every case's game, CE point, emulation table and budgets."""
    digest = hashlib.sha256()
    for case in cases:
        record = (
            case.index,
            [[str(v) for v in row] for row in case.game.u1],
            [[str(v) for v in row] for row in case.game.u2],
            [(cell.s1, cell.s2, str(q)) for cell, q in case.p.items_sorted()],
            [(cell.s1, cell.s2) for cell in case.em.table],
            str(case.config.epsilon),
            str(case.config.delta),
            case.config.k,
        )
        digest.update(repr(record).encode())
    return digest.hexdigest()


def test_battery_is_pinned():
    cases = battery()
    assert len(cases) == BATTERY_SIZE == 108
    assert battery_fingerprint(cases) == BATTERY_FINGERPRINT


@pytest.mark.parametrize("name", criterion_names())
def test_criterion(name):
    result = run_criterion(name)
    print(result)
    assert result.passed, result.detail
