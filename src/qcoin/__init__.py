"""Quantum-enhanced stochastic simulation of the perturbed coin.

Classical and quantum epsilon-machine models of a two-state perturbed-coin
process, an amplitude-exact simulator of the time-bin photonic processor
that realizes the quantum model over multiple steps, and two-photon
interference analytics for comparing the statistical futures of two
processes.  The `qcoin` CLI reproduces the associated data products.
"""

__version__ = "0.1.0"

from .constants import TOL, Tolerances, block_delay_ns
from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptyBin,
    FitDidNotConverge,
    InternalError,
    InvalidParameter,
    NonPhysicalState,
    QCoinError,
    ReducibleChain,
    StepCountTooLarge,
)
from .markov import (
    CausalState,
    OutcomeDistribution,
    PerturbedCoin,
    StationaryWeights,
    WeightMethod,
    classical_complexity,
    classical_fidelity,
    counts_to_distribution,
    future_distribution,
    sample_trajectories,
    stationary_weights,
    trajectory_probability,
    transition_matrix,
)
from .quantum import (
    DensityMatrix2,
    IdealOutputState,
    ProcessSpec,
    bhattacharyya_futures,
    causal_pair,
    ideal_output_state,
    memory_density,
    output_overlap,
    von_neumann_entropy,
)
from .circuit import (
    PhotonState,
    apply_block,
    arrival_time_distribution,
    block_gate_unitary,
    block_norm_accounting,
    conditional_polarization,
    gate_decomposition_max_deviation,
    prepare_input,
    reconstruct_memory_density,
    run_circuit,
)
from .interference import (
    DipCurve,
    VisibilityFit,
    dip_curve_from_visibility,
    dip_model,
    fit_visibility,
    visibility,
    visibility_sweep,
)
from .checks import CheckResult, probability_grid, run_oracle_checks

__all__ = [
    "TOL",
    "Tolerances",
    "block_delay_ns",
    "QCoinError",
    "ConfigError",
    "DimensionMismatch",
    "EmptyBin",
    "FitDidNotConverge",
    "InternalError",
    "InvalidParameter",
    "NonPhysicalState",
    "ReducibleChain",
    "StepCountTooLarge",
    "CausalState",
    "OutcomeDistribution",
    "PerturbedCoin",
    "StationaryWeights",
    "WeightMethod",
    "classical_complexity",
    "classical_fidelity",
    "counts_to_distribution",
    "future_distribution",
    "sample_trajectories",
    "stationary_weights",
    "trajectory_probability",
    "transition_matrix",
    "DensityMatrix2",
    "IdealOutputState",
    "ProcessSpec",
    "bhattacharyya_futures",
    "causal_pair",
    "ideal_output_state",
    "memory_density",
    "output_overlap",
    "von_neumann_entropy",
    "PhotonState",
    "apply_block",
    "arrival_time_distribution",
    "block_gate_unitary",
    "block_norm_accounting",
    "conditional_polarization",
    "gate_decomposition_max_deviation",
    "prepare_input",
    "reconstruct_memory_density",
    "run_circuit",
    "DipCurve",
    "VisibilityFit",
    "dip_curve_from_visibility",
    "dip_model",
    "fit_visibility",
    "visibility",
    "visibility_sweep",
    "CheckResult",
    "probability_grid",
    "run_oracle_checks",
]
