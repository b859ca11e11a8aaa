"""Cross-module equivalence checks.

Each check pits two independently-implemented routes against each other:
the photonic circuit against the closed-form output superposition, the
quantum output overlap against the one-step-ahead classical Bhattacharyya
coefficient, the tomography-style reconstruction against the direct memory
mixture, the post-selection bookkeeping against the dual-arm norm account,
and the quantum against the classical complexity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import block_norm_accounting, prepare_input, apply_block, arrival_time_distribution, reconstruct_memory_density, run_circuit
from .constants import TOL
from .markov import (
    CausalState,
    PerturbedCoin,
    WeightMethod,
    classical_complexity,
    future_distribution,
    stationary_weights,
)
from .quantum import (
    ProcessSpec,
    bhattacharyya_futures,
    ideal_output_state,
    memory_density,
    output_overlap,
    von_neumann_entropy,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_abs_deviation: float
    tolerance: float
    passed: bool

    @staticmethod
    def from_deviation(name: str, deviation: float, tolerance: float) -> "CheckResult":
        return CheckResult(name, deviation, tolerance, deviation <= tolerance)


def probability_grid(step: float = 0.05) -> list[tuple[float, float]]:
    """All (stay_heads, stay_tails) pairs on a square grid over [0, 1]^2."""
    ticks = np.round(np.arange(0.0, 1.0 + step / 2.0, step), 10)
    return [(float(a), float(b)) for a in ticks for b in ticks]


def run_oracle_checks(
    grid_step: float = 0.05,
    step_counts: tuple[int, ...] = (1, 2, 3, 4),
    identity_draws: int = 1000,
    seed: int = 7,
    inject_fault: bool = False,
) -> list[CheckResult]:
    """Run every equivalence suite; `inject_fault` perturbs one circuit
    amplitude by 1e-6 as a sensitivity canary that must trip the first check.
    """
    grid = probability_grid(grid_step)
    results = [
        _check_circuit_vs_superposition(grid, step_counts, inject_fault),
        _check_overlap_identity(identity_draws, seed),
        _check_reconstruction(grid),
        _check_success_probability(grid, step_counts),
        _check_complexity_ordering(grid),
    ]
    return results


def _check_circuit_vs_superposition(grid, step_counts, inject_fault: bool) -> CheckResult:
    worst = 0.0
    first = True
    for stay_heads, stay_tails in grid:
        coin = PerturbedCoin(stay_heads, stay_tails)
        for start in (CausalState.S0, CausalState.S1):
            for steps in step_counts:
                state = run_circuit(coin, start, steps)
                amps = state.amplitudes
                if inject_fault and first:
                    amps = amps.copy()
                    amps[0, 0] += 1e-6
                    first = False
                ideal = ideal_output_state(coin, start, steps)
                worst = max(worst, float(np.abs(amps - ideal.amplitudes).max()))
                dist, _ = arrival_time_distribution(state)
                enum = future_distribution(coin, start, steps)
                worst = max(worst, float(np.abs(dist.bins - enum.bins).max()))
    return CheckResult.from_deviation("circuit_vs_superposition", worst, TOL.exact)


def _check_overlap_identity(draws: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    starts = (CausalState.S0, CausalState.S1)
    worst = 0.0
    for _ in range(draws):
        proc_a = ProcessSpec(PerturbedCoin(rng.random(), rng.random()))
        proc_b = ProcessSpec(PerturbedCoin(rng.random(), rng.random()))
        start_a = starts[rng.integers(2)]
        start_b = starts[rng.integers(2)]
        steps = int(rng.integers(1, 4))
        quantum_route = output_overlap(proc_a, start_a, proc_b, start_b, steps)
        classical_route = bhattacharyya_futures(proc_a, start_a, proc_b, start_b, steps + 1)
        worst = max(worst, abs(quantum_route - classical_route))
    return CheckResult.from_deviation("overlap_vs_bhattacharyya", worst, TOL.exact)


def _check_reconstruction(grid, steps: int = 3) -> CheckResult:
    worst = 0.0
    for stay_heads, stay_tails in grid:
        if stay_heads == 1.0 and stay_tails == 1.0:
            continue  # no unique stationary weights
        coin = PerturbedCoin(stay_heads, stay_tails)
        for method in (WeightMethod.EXACT_STATIONARY, WeightMethod.THREE_STEP_MARGINAL):
            weights = stationary_weights(coin, method)
            rebuilt = reconstruct_memory_density(coin, weights, steps)
            direct = memory_density(coin, weights)
            worst = max(worst, float(np.abs(rebuilt.matrix - direct.matrix).max()))
    return CheckResult.from_deviation("reconstruction_vs_direct_density", worst, TOL.exact)


def _check_success_probability(grid, step_counts) -> CheckResult:
    worst = 0.0
    for stay_heads, stay_tails in grid:
        coin = PerturbedCoin(stay_heads, stay_tails)
        for start in (CausalState.S0, CausalState.S1):
            state = prepare_input(coin, start)
            for steps in range(1, max(step_counts) + 1):
                retained, discarded = block_norm_accounting(state, coin)
                worst = max(worst, abs(retained + discarded - 1.0))
                state = apply_block(state, coin)
                if steps in step_counts:
                    worst = max(worst, abs(state.success_probability - 0.5**steps))
    return CheckResult.from_deviation("success_probability", worst, TOL.exact)


def _check_complexity_ordering(grid) -> CheckResult:
    worst = 0.0
    for stay_heads, stay_tails in grid:
        if stay_heads == 1.0 and stay_tails == 1.0:
            continue
        coin = PerturbedCoin(stay_heads, stay_tails)
        weights = stationary_weights(coin)
        c_mu = classical_complexity(weights)
        c_q = von_neumann_entropy(memory_density(coin, weights))
        worst = max(worst, c_q - c_mu)
    return CheckResult.from_deviation("quantum_below_classical_complexity", max(worst, 0.0), TOL.prob_sum)
