"""Cross-module equivalence checks.

Each check pits two independently-implemented routes against each other:
the photonic circuit against the closed-form output superposition, the
quantum output overlap's bin sum against the one-step-ahead classical
Bhattacharyya coefficient and against the transfer-matrix power, the
tomography-style reconstruction against the direct memory mixture, the
post-selection bookkeeping against the dual-arm norm account, and the
quantum against the classical complexity.

The suites are array passes over the whole (l, m) grid through the kernels
the scalar API runs on one coin, with every check of its dataclasses
applied to each batch element.  The grid is cut into chunks of at most
`CHUNK_AMPLITUDES` amplitudes, and each result names the inputs of its
worst deviation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .circuit import _arm_norms, _bin_probabilities, _propagate, _reconstruction
from .constants import MAX_SUPERPOSITION_STEPS, TOL
from .errors import InvalidParameter
from .markov import (PerturbedCoin, WeightMethod, _entropy_bits, _recurrence, _require_distribution,
                     _require_weights, _stationary, require_count, require_steps, transition_matrix)
from .quantum import (_bhattacharyya, _entropy, _mixture, _overlap, _require_density, _require_normalized,
                      _superposition, _transfer_overlap, causal_pair)

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

    circuit, success = _circuit_suites(PerturbedCoin(grid[:, 0], grid[:, 1]), step_counts, inject_fault)
    # the reducible chain l = m = 1 has no unique stationary weights
    irreducible = ~((grid[:, 0] == 1.0) & (grid[:, 1] == 1.0))
    reconstruction, complexity = np.full((2, len(grid)), -np.inf)
    if irreducible.any():
        reconstruction[irreducible], complexity[irreducible] = _weight_suites(
            PerturbedCoin(grid[irreducible, 0], grid[irreducible, 1]))
    return (_worst(circuit, lambda row, s, k: at(row, _STARTS[s], step_counts[k])),
            _worst(success, lambda row, s, k: at(row, _STARTS[s], k + 1)),
            _worst(reconstruction, lambda row: at(row, None, RECONSTRUCTION_STEPS)),
            _worst(complexity, lambda row: at(row, None, None)))


def _circuit_suites(coins: PerturbedCoin, step_counts: tuple[int, ...], inject_fault: bool) -> tuple:
    """One propagation per start up to max(step_counts): the circuit against
    the superposition and the enumeration, axes (coin, start, entry of
    `step_counts`), and the post-selection account, axes (coin, start, block).
    """
    t, pair = transition_matrix(coins), causal_pair(coins)
    block_pair = pair[:, None]  # shared by both starts
    amps = pair[:, :, :, None]  # the prepared input of each start: (coin, start, polarization, bin)
    blocks, futures = _propagate(amps, block_pair), _recurrence(t[:, None], t)
    matched, accounting = {}, []
    for steps in range(1, max(step_counts) + 1):
        retained, discarded = _arm_norms(amps, block_pair)
        dev = np.abs(retained + discarded - 1.0)
        amps, success = next(blocks)
        bins = next(futures)
        if steps in step_counts:
            dev = np.maximum(dev, abs(success - 0.5**steps))
            _require_distribution(bins)
            ideal = _superposition(bins, block_pair)
            _require_normalized(ideal, "output state")
            arrival = _bin_probabilities(amps)
            _require_distribution(arrival)
            circuit = amps
            if inject_fault and steps == step_counts[0]:
                circuit = amps.copy()
                circuit[0, 0, 0, 0] += 1e-6
            matched[steps] = np.maximum(np.abs(circuit - ideal).max(axis=(-2, -1)),
                                        np.abs(arrival - bins).max(axis=-1))
        accounting.append(dev)
    return np.stack([matched[k] for k in step_counts], axis=-1), np.stack(accounting, axis=-1)


def _weight_suites(coins: PerturbedCoin) -> tuple[np.ndarray, np.ndarray]:
    """Per coin: the worst reconstruction deviation over both weight methods,
    and C_q - C_mu at the exact stationary weights.
    """
    pair = causal_pair(coins)
    reconstruction = complexity = -np.inf
    for method in (WeightMethod.EXACT_STATIONARY, WeightMethod.THREE_STEP_MARGINAL):
        s0, s1 = _stationary(coins, method)
        _require_weights(s0, s1)
        rebuilt = _reconstruction(pair, np.stack([s0, s1], axis=-1), RECONSTRUCTION_STEPS)
        direct = _mixture(pair, s0, s1)
        for rho in (rebuilt, direct):
            _require_density(rho)
        reconstruction = np.maximum(reconstruction, np.abs(rebuilt - direct).max(axis=(-2, -1)))
        if method is WeightMethod.EXACT_STATIONARY:
            complexity = _entropy(direct) - _entropy_bits(s0, 1.0 - s0)
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
    routes = []
    for l_col, m_col, start_col in ((0, 1, 4), (2, 3, 5)):
        coin = PerturbedCoin(table[:, l_col], table[:, m_col])
        t = transition_matrix(coin)
        first = t[np.arange(len(table)), table[:, start_col].astype(int)]
        bins = list(islice(_recurrence(t, first), steps - 1, steps + 1))  # M and M + 1 steps
        for b in bins:
            _require_distribution(b)
        routes.append((t, first, causal_pair(coin), *bins))
    (t_a, first_a, pair_a, a_m, a_next), (t_b, first_b, pair_b, b_m, b_next) = routes
    bin_sum = _overlap(a_m, b_m, pair_a, pair_b)
    transfer = _transfer_overlap(t_a, t_b, first_a * first_b, np.vecdot(pair_a, pair_b), steps)
    return np.abs(bin_sum - _bhattacharyya(a_next, b_next)), np.abs(transfer - bin_sum)
