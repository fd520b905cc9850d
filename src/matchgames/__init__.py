"""Matching markets whose pairs play zero-sum games, learned from bandit feedback.

The pieces compose bottom-up: ``linprog`` solves the packing LP of a matrix
game, ``games`` turns it into game values and maximin strategies, ``market`` holds
instances, matchings and deferred acceptance, ``instability`` scores how far
an outcome is from a stable equilibrium, ``learning`` runs the optimistic
simulation loop, and ``experiments`` batches runs into trace files.
"""

from .errors import DimensionError, FormatError, InputError, SolverError
from .experiments import (
    ExperimentConfig,
    RegretTrace,
    audit,
    read_aggregate_file,
    read_trace_file,
    run_experiment,
    theoretical_bound,
)
from .games import (
    GameSolution,
    best_response,
    maximin,
    oracle_solve_game,
    solve_game,
)
from .instability import (
    InstabilityReport,
    SubsidyVector,
    matching_instability,
    oracle_mi,
    subset_instability,
)
from .learning import (
    ConfidenceState,
    Policy,
    StepRecord,
    auto_delta,
    run_episode,
    ucb_matrix,
)
from .linprog import solve_lp
from .market import (
    AgentId,
    Generator,
    MarketInstance,
    Matching,
    PreferenceProfile,
    Side,
    UtilityTable,
    deferred_acceptance,
    generate_instance,
    preferences_from_values,
)

__version__ = "0.1.0"

__all__ = [
    "AgentId",
    "ConfidenceState",
    "DimensionError",
    "ExperimentConfig",
    "FormatError",
    "GameSolution",
    "Generator",
    "InputError",
    "InstabilityReport",
    "MarketInstance",
    "Matching",
    "Policy",
    "PreferenceProfile",
    "RegretTrace",
    "Side",
    "SolverError",
    "StepRecord",
    "SubsidyVector",
    "UtilityTable",
    "audit",
    "auto_delta",
    "best_response",
    "deferred_acceptance",
    "generate_instance",
    "matching_instability",
    "maximin",
    "oracle_mi",
    "oracle_solve_game",
    "preferences_from_values",
    "read_aggregate_file",
    "read_trace_file",
    "run_episode",
    "run_experiment",
    "solve_game",
    "solve_lp",
    "subset_instability",
    "theoretical_bound",
    "ucb_matrix",
]
