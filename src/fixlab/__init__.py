"""Fixation probabilities and mutant-spread dynamics on directed weighted graphs.

The package answers one family of questions: given a strongly
connected weighted digraph and a starting set of mutants, how likely
is the mutation to take over, how does its expected footprint evolve,
and how long does takeover take. Deterministic kernel iteration gives
the probabilities to a chosen tolerance, a full-state chain gives
exact answers on small graphs, and a seeded event simulator covers
any mutant fitness.
"""

from .bounds import (
    UPPER_BOUND_RULES,
    BoundReport,
    bound_report,
    upper_bound_single,
)
from .dynamics import (
    BIASED_RULES,
    NEUTRAL_RULES,
    Rule,
    init_vector,
    kernel_matrix,
    neutral_part,
    parse_rule,
    resolve_rule,
    step_values,
)
from .graphs import (
    GENERATOR_KINDS,
    EvolutionaryGraph,
    FeederExperiment,
    GraphStats,
    check_config,
    feeder_pair_graph,
    generate,
    is_strongly_connected,
    load_graph,
    reaches_all,
    save_graph,
    stats,
)
from .montecarlo import (
    BenchmarkResult,
    RequiredRuns,
    RunResult,
    SimulationSummary,
    default_thread_count,
    estimate,
    required_runs,
    sample_transitions,
    simulate_run,
    speedup_benchmark,
    standard_error,
)
from .mttf import (
    STOP_STDEV,
    MttfReport,
    MttfTrace,
    mttf_lower_bound,
)
from .oracle import (
    ORACLE_CAP,
    ChainModel,
    MeanTimes,
    build_chain,
    config_of,
    fixation_exact,
    mean_times_exact,
    state_of,
)
from .solver import (
    CRITERIA,
    AdditivityReport,
    ClosedFormFixation,
    NotStronglyConnected,
    SolveOptions,
    SolveReport,
    TrajectoryTable,
    additivity_check,
    degree_selection_class,
    solve,
    trajectory,
    undirected_closed_form,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # graphs
    "EvolutionaryGraph", "GraphStats", "FeederExperiment", "GENERATOR_KINDS",
    "check_config", "is_strongly_connected", "reaches_all", "stats",
    "generate", "feeder_pair_graph", "load_graph", "save_graph",
    # dynamics
    "Rule", "NEUTRAL_RULES", "BIASED_RULES", "parse_rule", "resolve_rule",
    "neutral_part", "init_vector", "kernel_matrix",
    "step_values",
    # solver
    "NotStronglyConnected", "CRITERIA", "SolveOptions", "SolveReport",
    "TrajectoryTable", "solve", "trajectory",
    "AdditivityReport", "additivity_check",
    "ClosedFormFixation", "undirected_closed_form", "degree_selection_class",
    # bounds
    "UPPER_BOUND_RULES", "BoundReport", "bound_report", "upper_bound_single",
    # oracle
    "ORACLE_CAP", "ChainModel", "MeanTimes", "build_chain",
    "fixation_exact", "mean_times_exact", "state_of", "config_of",
    # mttf
    "STOP_STDEV", "MttfReport", "MttfTrace", "mttf_lower_bound",
    # montecarlo
    "SimulationSummary", "RunResult", "RequiredRuns", "BenchmarkResult",
    "simulate_run", "estimate", "standard_error", "required_runs",
    "sample_transitions", "speedup_benchmark", "default_thread_count",
]
