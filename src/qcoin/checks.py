"""Cross-module equivalence checks.

Each check pits two independently-implemented routes against each other:
the photonic circuit against the closed-form output superposition, the
quantum output overlap's bin sum against the one-step-ahead classical
Bhattacharyya coefficient and against the transfer-matrix power, the
tomography-style reconstruction against the direct memory mixture, the
post-selection bookkeeping against the recombiner arms' norm account, and the
quantum against the classical complexity.  The bin sum `_overlap` is the
enumerating oracle of `quantum.output_overlap` and lives here.

The suites are array passes over the whole (l, m) grid through the public
functions, which take a grid coin and start-index arrays; their result
dataclasses validate every batch element.  The grid is cut into chunks of
at most `CHUNK_AMPLITUDES` amplitudes, each route runs once per chunk, and
each result names the inputs of its worst deviation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import (apply_block, arrival_time_distribution, block_norm_accounting, prepare_input,
                      reconstruct_memory_density)
from .constants import MAX_SUPERPOSITION_STEPS, TOL
from .errors import InvalidParameter
from .markov import (PerturbedCoin, StationaryWeights, WeightMethod, causal_pair, classical_complexity,
                     future_distribution, require_count, require_steps, stationary_weights)
from .quantum import (DensityMatrix2, ProcessSpec, bhattacharyya_futures, memory_density, output_overlap,
                      superposition, von_neumann_entropy)

# Largest number of amplitudes one chunk holds: a grid coin takes 2 starts x
# 2^M bins x 2 polarizations, an identity draw two 16-bin distributions.
CHUNK_AMPLITUDES = 2**16
RECONSTRUCTION_STEPS = 3
_STARTS = ("S0", "S1")


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_abs_deviation: float
    tolerance: float
    passed: bool
    worst_at: dict | None = None  # inputs of the largest deviation


def probability_grid(step: float = 0.05) -> np.ndarray:
    """All (stay_heads, stay_tails) pairs on a square grid over [0, 1]^2, as the rows of an (n, 2)
    array with stay_tails varying fastest; `step` must divide 1."""
    if not 0.0 < step <= 1.0:
        raise InvalidParameter(f"grid_step must be in (0, 1], got {step}")
    ticks = np.round(np.arange(0.0, 1.0 + step / 2.0, step), 10)
    if ticks[-1] != 1.0:
        raise InvalidParameter(f"grid_step {step} does not divide 1: the ticks end at {ticks[-1]}, not 1")
    return np.stack(np.meshgrid(ticks, ticks, indexing="ij"), axis=-1).reshape(-1, 2)


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
    step_counts = tuple(step_counts)
    if not step_counts:
        raise InvalidParameter("step_counts must name at least one step count")
    for steps in step_counts:
        require_steps(steps, MAX_SUPERPOSITION_STEPS)
    require_count(identity_draws, "identity_draws", 1)
    require_count(seed, "seed", 0)
    grid = probability_grid(grid_step)
    size = max(1, CHUNK_AMPLITUDES // (4 * 2 ** max(*step_counts, RECONSTRUCTION_STEPS)))
    chunks = [_grid_suites(grid[lo:lo + size], step_counts, inject_fault and lo == 0)
              for lo in range(0, len(grid), size)]
    circuit, success, reconstruction, complexity = (_first_max(parts) for parts in zip(*chunks))
    bhattacharyya, transfer = _overlap_identity(identity_draws, seed)
    checks = [("circuit_vs_superposition", circuit, TOL.exact),
              ("overlap_vs_bhattacharyya", bhattacharyya, TOL.exact),
              ("transfer_matrix_vs_bin_sum", transfer, TOL.exact),
              ("reconstruction_vs_direct_density", reconstruction, TOL.exact),
              ("success_probability", success, TOL.exact),
              ("quantum_below_classical_complexity", complexity, TOL.prob_sum)]
    # a deviation below 0 (a complexity gap) or an empty suite counts as 0
    return [CheckResult(name, max(dev, 0.0), tol, dev <= tol, at) for name, (dev, at), tol in checks]


def _worst(dev: np.ndarray, locate) -> tuple[float, dict | None]:
    """The largest entry of `dev` and `locate` applied to its first index."""
    if dev.size == 0:
        return -np.inf, None
    index = np.unravel_index(np.argmax(dev), dev.shape)
    return float(dev[index]), locate(*(int(i) for i in index))


def _first_max(parts) -> tuple[float, dict | None]:
    return max(parts, key=lambda part: part[0])  # the earliest on a tie


def _grid_suites(grid: np.ndarray, step_counts: tuple[int, ...], inject_fault: bool) -> tuple:
    """(worst, location) of the four grid suites on one chunk of (l, m) rows."""
    def at(row: int, start: str | None, steps: int | None) -> dict:
        return {"l": float(grid[row, 0]), "m": float(grid[row, 1]), "start": start, "steps": steps}

    circuit, success = _circuit_suites(grid, step_counts, inject_fault)
    # the reducible chain l = m = 1 has no unique stationary weights
    irreducible = ~((grid[:, 0] == 1.0) & (grid[:, 1] == 1.0))
    reconstruction, complexity = np.full((2, len(grid)), -np.inf)
    if irreducible.any():
        reconstruction[irreducible], complexity[irreducible] = _weight_suites(
            PerturbedCoin(grid[irreducible, 0][None], grid[irreducible, 1][None]))  # (1, coin)
    return (_worst(circuit, lambda row, s, k: at(row, _STARTS[s], step_counts[k])),
            _worst(success, lambda row, s, k: at(row, _STARTS[s], k + 1)),
            _worst(reconstruction, lambda row: at(row, None, RECONSTRUCTION_STEPS)),
            _worst(complexity, lambda row: at(row, None, None)))


def _circuit_suites(grid: np.ndarray, step_counts: tuple[int, ...], inject_fault: bool) -> tuple:
    """The circuit after 1, 2, ... blocks up to max(step_counts), one block product at a time: against the
    superposition and the bins of its one recurrence, axes (coin, start, entry of `step_counts`), and the
    post-selection account of each block's output, axes (coin, start, block)."""
    coins = PerturbedCoin(grid[:, 0, None], grid[:, 1, None])  # (coin, 1): the starts broadcast against it
    starts = np.arange(2)
    state = prepare_input(coins, starts)
    matched, accounting = {}, []
    for steps in range(1, max(step_counts) + 1):
        state = apply_block(state, coins)
        dev = np.abs(2.0 * block_norm_accounting(state) - 1.0)  # the two arms' norms have the same bits
        if steps in step_counts:
            distribution = future_distribution(coins, starts, steps)
            ideal = superposition(coins, distribution).amplitudes
            arrival = arrival_time_distribution(state).bins
            diff = state.amplitudes - ideal
            if inject_fault and steps == step_counts[0]:  # the first amplitude of the circuit plus 1e-6
                diff[0, 0, 0, 0] = state.amplitudes[0, 0, 0, 0] + 1e-6 - ideal[0, 0, 0, 0]
            matched[steps] = np.maximum(np.abs(diff, out=diff).max(axis=(-2, -1)),
                                        np.abs(arrival - distribution.bins).max(axis=-1))
        accounting.append(dev)
    return np.stack([matched[k] for k in step_counts], axis=-1), np.stack(accounting, axis=-1)


def _weight_suites(row: PerturbedCoin) -> tuple[np.ndarray, np.ndarray]:
    """Per coin of a (1, coin) row: the worst reconstruction deviation over both weight methods, from one
    reconstruction and one direct mixture of (method, coin) weights (the methods broadcast against the row),
    and C_q - C_mu at the exact stationary weights."""
    exact, marginal = (stationary_weights(row, method) for method in WeightMethod)
    weights = StationaryWeights(np.concatenate([exact.s0, marginal.s0]), np.concatenate([exact.s1, marginal.s1]))
    rebuilt = reconstruct_memory_density(row, weights, RECONSTRUCTION_STEPS)
    direct = memory_density(row, weights)
    reconstruction = np.abs(rebuilt.matrix - direct.matrix).max(axis=(0, -2, -1))
    complexity = von_neumann_entropy(DensityMatrix2(direct.matrix[0])) - classical_complexity(exact)[0]
    return reconstruction, complexity


def _overlap_identity(draws: int, seed: int) -> tuple:
    """The M-step output overlap's bin sum against the (M + 1)-step
    Bhattacharyya coefficient and against the transfer-matrix power, on
    random process pairs, M in 1..3: a (worst, location) per route.  Each
    chunk of draws is one `_draw_table`, evaluated grouped by M.  Every double
    takes one raw word and leaves nothing buffered, so a seed gives the same
    draws whatever the chunk size, equal to a per-draw `rng.random(7)` loop.
    """
    rng = np.random.default_rng(seed)
    size = CHUNK_AMPLITUDES // 32
    parts = [((-np.inf, None),) * 2]
    for lo in range(0, draws, size):
        table = _draw_table(rng, min(size, draws - lo))
        devs = np.empty((2, len(table)))
        for steps in sorted(set(table[:, 6].astype(int).tolist())):  # np.unique would load numpy.ma
            rows = table[:, 6] == steps
            devs[:, rows] = _overlap_deviations(table[rows], steps)

        def at(row: int, draw: np.ndarray = table, lo: int = lo) -> dict:
            l_a, m_a, l_b, m_b, start_a, start_b, steps = draw[row].tolist()
            return {"draw": lo + row, "steps": int(steps),
                    "process_a": {"l": l_a, "m": m_a, "start": _STARTS[int(start_a)]},
                    "process_b": {"l": l_b, "m": m_b, "start": _STARTS[int(start_b)]}}
        parts.append(tuple(_worst(dev, at) for dev in devs))
    return tuple(_first_max(route) for route in zip(*parts))


def _draw_table(rng: np.random.Generator, draws: int) -> np.ndarray:
    """Rows (l_a, m_a, l_b, m_b, start_a, start_b, M) from one table of doubles u: a start is
    S1 where u >= 1/2, and M is 1 + floor(3u)."""
    table = rng.random((draws, 7))
    table[:, 4:6] = table[:, 4:6] >= 0.5
    table[:, 6] = 1.0 + np.floor(3.0 * table[:, 6])
    return table


def _overlap_deviations(table: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """|bin sum - Bhattacharyya| and |transfer matrix - bin sum| for draws that share the step count."""
    proc_a, proc_b = (ProcessSpec(PerturbedCoin(table[:, l_col], table[:, l_col + 1])) for l_col in (0, 2))
    start_a, start_b = table[:, 4].astype(int), table[:, 5].astype(int)
    bin_sum = _overlap(future_distribution(proc_a.coin, start_a, steps).bins,
                       future_distribution(proc_b.coin, start_b, steps).bins,
                       causal_pair(proc_a.coin), causal_pair(proc_b.coin))
    bhattacharyya = bhattacharyya_futures(proc_a, start_a, proc_b, start_b, steps + 1)
    transfer = output_overlap(proc_a, start_a, proc_b, start_b, steps)
    return np.abs(bin_sum - bhattacharyya), np.abs(transfer - bin_sum)


def _overlap(bins_a: np.ndarray, bins_b: np.ndarray, pair_a: np.ndarray, pair_b: np.ndarray):
    """sum_x sqrt(p_A(x) p_B(x)) <S_xM|T_xM> over the last axis of the bins: the enumerating oracle
    of `quantum.output_overlap`."""
    roots = np.sqrt(bins_a * bins_b)
    ends = roots.reshape(roots.shape[:-1] + (2, -1)).sum(axis=-1)  # halves ending in outcome 0 and 1
    finals = pair_a[..., 0] * pair_b[..., 0] + pair_a[..., 1] * pair_b[..., 1]  # <S_j|T_j> per j
    return ends[..., 0] * finals[..., 0] + ends[..., 1] * finals[..., 1]
