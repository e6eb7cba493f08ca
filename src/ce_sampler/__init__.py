"""Mediator-free correlated-equilibrium sampling toolkit.

Compute correlated equilibria of finite two-player games by exact linear
programming, simulate the two-party sampling protocol built on weak coin
flipping, and verify its payoff and bias guarantees both exactly and by
Monte Carlo.
"""

from .games import (
    Game,
    JointDistribution,
    JointStrategy,
    ProductDistribution,
    as_fraction,
    check_ce,
    check_mixed_ne,
    check_pure_ne,
    expected_utility,
    normalize,
)
from .ce_solver import (
    CeObjective,
    build_ce_lp,
    ce_polytope_vertices,
    ce_slice_bounds,
    solve_ce,
)
from .simplex import (
    Constraint,
    LpInfeasibleError,
    LpProblem,
    LpSolution,
    LpUnboundedError,
    simplex_solve,
)
from .emulation import (
    MultisetEmulation,
    PreferenceOracle,
    emulate,
    l1_distance,
    rounds_for,
)
from .coin_flip import (
    CheaterRequest,
    WcfSpec,
    flip_law,
    run_honest,
    run_with_cheater,
)
from .protocol import (
    HonestParty,
    PartyBehavior,
    PolicyParty,
    ProtocolConfig,
    ScriptedParty,
    Transcript,
    run_protocol,
    simulate_outputs,
)
from .extended_game import (
    ExtendedOutcome,
    augmented_normal_form,
    play_extended_game,
    settle,
)
from .analysis import (
    AdversaryOutcome,
    AnalysisReport,
    deviation_gain_bound_holds,
    honest_output_distribution,
    policy_outcome,
    truthful_announcements_optimal,
    verify_distance_bounds,
    verify_payoff_guarantees,
    worst_case_adversary,
)
from .rng import RandomStream

__version__ = "0.1.0"

__all__ = [
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
