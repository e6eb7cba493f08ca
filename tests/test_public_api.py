"""The public names the package exports and the benchmark harness relies on.

The harness in ``perfbench/`` wraps package functions by name and calls
the trial entry points with keyword arguments.  These tests read it and
fail when a deletion in the package would break it.
"""

import ast
import importlib
from fractions import Fraction as F
from pathlib import Path

import ce_sampler
from ce_sampler import HonestParty, ProtocolConfig, RandomStream, emulate, play_extended_game

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_targets() -> tuple:
    """The ``TARGETS`` tuple of the tracing module, read without importing it."""
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TARGETS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} defines no TARGETS")


def test_every_exported_name_resolves():
    missing = [name for name in ce_sampler.__all__ if not hasattr(ce_sampler, name)]
    assert missing == []


def test_exported_names_are_pinned():
    # Adding or deleting a public name is a reviewed edit of this list.
    assert sorted(ce_sampler.__all__) == [
        "AdversaryOutcome",
        "AnalysisReport",
        "CeObjective",
        "CheaterRequest",
        "Constraint",
        "ExtendedOutcome",
        "Game",
        "HonestParty",
        "JointDistribution",
        "JointStrategy",
        "LpInfeasibleError",
        "LpProblem",
        "LpSolution",
        "LpUnboundedError",
        "MultisetEmulation",
        "PartyBehavior",
        "PolicyParty",
        "PreferenceOracle",
        "ProductDistribution",
        "ProtocolConfig",
        "RandomStream",
        "ScriptedParty",
        "Transcript",
        "WcfSpec",
        "as_fraction",
        "augmented_normal_form",
        "build_ce_lp",
        "ce_polytope_vertices",
        "ce_slice_bounds",
        "check_ce",
        "check_mixed_ne",
        "check_pure_ne",
        "deviation_gain_bound_holds",
        "emulate",
        "expected_utility",
        "flip_law",
        "honest_output_distribution",
        "l1_distance",
        "normalize",
        "play_extended_game",
        "policy_outcome",
        "rounds_for",
        "run_honest",
        "run_protocol",
        "run_with_cheater",
        "settle",
        "simplex_solve",
        "simulate_outputs",
        "solve_ce",
        "truthful_announcements_optimal",
        "verify_distance_bounds",
        "verify_payoff_guarantees",
        "worst_case_adversary",
    ]


def test_every_traced_target_exists():
    targets = _tracing_targets()
    assert targets
    missing = [
        f"{module}.{attr}"
        for _, module, attr in targets
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_play_accepts_the_benchmark_keywords(bos, bos_fair_ce):
    em = emulate(bos, bos_fair_ce, F(1, 2))
    config = ProtocolConfig(F(1, 10), F(1, 2), em.k)
    outcome = play_extended_game(
        bos, bos_fair_ce, config, HonestParty(), HonestParty(), RandomStream(0),
        em=em, record_messages=False, warn_not_ce=False,
    )
    transcript = outcome.transcript
    assert transcript.messages == []
    assert transcript.output == em.entry(transcript.ell) == outcome.stage2
