"""Quantum model of the perturbed-coin simulator.

The memory density matrix over the causal states (`causal_pair`, which each
coin builds once in `markov`) and its von Neumann entropy, the output state
(`PhotonState`: the circuit's post-selected photon, and the closed-form
`superposition` of a future distribution, which is the same state), and
overlaps between the statistical futures of two processes.
`output_overlap` is a transfer-matrix power; `bhattacharyya_futures` enumerates
all 2**M futures and is its oracle, as is the bin sum in `checks`.  As in `markov`,
each function takes a grid coin and start-index arrays (leading batch axes),
and `DensityMatrix2` and `PhotonState` hold the batch and validate it
in `__post_init__`.  They hold arrays only; `cli` writes their JSON.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import MAX_OVERLAP_STEPS, MAX_SUPERPOSITION_STEPS, TOL
from .errors import DimensionMismatch, InvalidParameter, NonPhysicalState
from .markov import (CausalState, OutcomeDistribution, PerturbedCoin, StationaryWeights, causal_pair, entropy_bits,
                     float_or_array, future_distribution, owned, require, require_broadcast, require_steps,
                     start_rows, transition_matrix)


def norm_sq(amps: np.ndarray):
    """Squared norms over the last two axes, by numpy's own sum: a float for one state, an array for a
    batch, with the same bits per state."""
    return float_or_array(np.square(amps).sum(axis=(-2, -1)))


def require_one_state(amplitudes: np.ndarray, what: str) -> None:
    """Refuse a batch of states where a function takes one state."""
    if amplitudes.ndim != 2:
        raise InvalidParameter(f"{what} takes one state, got a batch of shape {amplitudes.shape}")


@dataclass(frozen=True)
class DensityMatrix2:
    """2x2 density matrix of the real causal states, (..., 2, 2) for a grid: read-only float64,
    symmetric, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = owned(self.matrix, "density matrix", (2, 2))
        object.__setattr__(self, "matrix", m)
        require(abs(m[..., 0, 1] - m[..., 1, 0]) <= TOL.exact, "matrix is not symmetric")
        trace = m[..., 0, 0] + m[..., 1, 1]
        require(abs(trace - 1.0) <= TOL.exact, "trace must be 1, got {!r}", trace)
        require(_eigenvalues_2x2(m)[0] >= TOL.psd_floor, "matrix is not positive semidefinite")


def _eigenvalues_2x2(m: np.ndarray) -> tuple:
    """Eigenvalues (low, high) of symmetric (..., 2, 2) matrices from trace and determinant."""
    trace = m[..., 0, 0] + m[..., 1, 1]
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    disc = trace * trace - 4.0 * det
    root = np.sqrt(np.maximum(disc, 0.0))
    return (trace - root) / 2.0, (trace + root) / 2.0


def von_neumann_entropy(rho: DensityMatrix2) -> float:
    """Von Neumann entropy -Tr(rho log2 rho) in bits.

    Eigenvalues come from the closed form (tr +- sqrt(tr^2 - 4 det)) / 2
    and are clamped to [0, 1] after checking they are not significantly
    negative (TOL.entropy_floor).
    """
    low, high = _eigenvalues_2x2(rho.matrix)
    require(low >= TOL.entropy_floor, "eigenvalue {!r} is negative beyond tolerance", low, NonPhysicalState)
    return entropy_bits(np.minimum(np.maximum(low, 0.0), 1.0), np.minimum(np.maximum(high, 0.0), 1.0))


def memory_density(coin: PerturbedCoin, weights: StationaryWeights) -> DensityMatrix2:
    """Stationary memory state: the mixture s0 |S0><S0| + s1 |S1><S1| of the causal-state projectors."""
    pair = causal_pair(coin)
    require_broadcast(np.shape(coin.stay_heads), np.shape(weights.s0), "memory_density: coin, weights")
    projectors = pair[..., :, :, None] * pair[..., :, None, :]
    return DensityMatrix2(np.asarray(weights.s0)[..., None, None] * projectors[..., 0, :, :]
                          + np.asarray(weights.s1)[..., None, None] * projectors[..., 1, :, :])


@dataclass(frozen=True)
class ProcessSpec:
    """A perturbed-coin process with a human-readable label."""

    coin: PerturbedCoin
    label: str = ""


@dataclass(frozen=True)
class PhotonState:
    """Output state after `steps_applied` steps: the post-selected photon of the circuit, or the closed-form
    superposition, which is the same state.

    `amplitudes[..., p, b]` (read-only float64, C-ordered (..., 2, 2**steps_applied)) is the
    amplitude with polarization p (0 = H, 1 = V), the memory basis index, in time bin b, polarization-major
    as the blocks make it.  Bin b encodes the outcome string via its binary digits,
    first outcome in the least-significant bit.  Every norm is checked.
    """

    steps_applied: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        steps = require_steps(self.steps_applied, MAX_SUPERPOSITION_STEPS, 0, "steps_applied")  # before 2**steps
        amps = owned(self.amplitudes, "photon state", (2, 2**steps))
        squared = norm_sq(amps)
        require(abs(squared - 1.0) <= TOL.state_norm, "photon state is not normalized: |.|^2 = {!r}", squared)
        object.__setattr__(self, "steps_applied", steps)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def success_probability(self) -> float:
        """The probability that all post-selections so far succeeded: 1/2 per block, exact in binary."""
        return 0.5**self.steps_applied


def superposition(coin: PerturbedCoin, distribution: OutcomeDistribution) -> PhotonState:
    """Superposition sum_x sqrt(p(x)) |x1..xM>|S_xM> over the outcome strings of `distribution`.

    The lower half of the bins ends in outcome 0 (memory S0), the upper in 1.  A coin and a distribution
    whose batches do not broadcast are a DimensionMismatch.
    """
    bins = distribution.bins
    roots = np.sqrt(bins).reshape(bins.shape[:-1] + (2, -1))
    pair = causal_pair(coin)
    try:
        amps = np.multiply(pair.mT[..., None], roots[..., None, :, :], order="C")
    except ValueError:  # caught, not checked first, so a batch that broadcasts costs nothing extra
        raise DimensionMismatch(f"distributions {bins.shape[:-1]} do not broadcast against coins "
                                f"{pair.shape[:-2]}") from None
    return PhotonState(distribution.steps, amps.reshape(amps.shape[:-3] + (2, -1)))


def ideal_output_state(coin: PerturbedCoin, start: CausalState, steps: int) -> PhotonState:
    """The `superposition` of the future distribution of `steps` outcomes from `start`."""
    require_steps(steps, MAX_SUPERPOSITION_STEPS)
    return superposition(coin, future_distribution(coin, start, steps))


def output_overlap(
    proc_a: ProcessSpec,
    start_a: CausalState,
    proc_b: ProcessSpec,
    start_b: CausalState,
    steps: int,
) -> float:
    """Overlap of the two simulators' output superpositions,
    sum_x sqrt(p_A(x) p_B(x)) <S_xM|T_xM>, for 1 <= steps <= MAX_OVERLAP_STEPS.

    The chain has Markov order one, so this is u^T K^(steps - 1) c with K = sqrt(Ta Tb) elementwise,
    u = sqrt(Ta[start_a] Tb[start_b]) and c_j = <S_j|T_j>.  Square-and-multiply on the row (powers of one K
    commute) takes O(log M) time and O(1) memory.  It runs entry by entry on k00..k11 and r0, r1: for one coin
    these are numpy float64 scalars, so no product dispatches on a (2, 2) array, and a grid runs the same lines
    on arrays.  Each product is written out, so a batch gives one pair's bits and no BLAS kernel chosen at run
    time sets them.
    `bhattacharyya_futures` and the bin sum in `checks` enumerate 2**M strings and are its oracles.
    """
    steps = require_steps(steps, MAX_OVERLAP_STEPS)
    ta, tb = transition_matrix(proc_a.coin), transition_matrix(proc_b.coin)
    pa, pb = causal_pair(proc_a.coin), causal_pair(proc_b.coin)
    ua, ub = start_rows(ta, start_a), start_rows(tb, start_b)
    require_broadcast(ua.shape, ub.shape, "output_overlap: side a, side b")  # then the coins broadcast too
    finals = pa[..., 0] * pb[..., 0] + pa[..., 1] * pb[..., 1]  # <S_j|T_j> per j
    k, row = np.sqrt(ta * tb), np.sqrt(ua * ub)
    k00, k01, k10, k11 = k[..., 0, 0], k[..., 0, 1], k[..., 1, 0], k[..., 1, 1]
    r0, r1 = row[..., 0], row[..., 1]
    for bit in range((steps - 1).bit_length()):  # the k entries are those of K^(2^bit)
        if (steps - 1) >> bit & 1:
            r0, r1 = r0 * k00 + r1 * k10, r0 * k01 + r1 * k11
        k00, k01, k10, k11 = k00 * k00 + k01 * k10, k00 * k01 + k01 * k11, k10 * k00 + k11 * k10, k10 * k01 + k11 * k11
    return float_or_array(r0 * finals[..., 0] + r1 * finals[..., 1])


def bhattacharyya_futures(
    proc_a: ProcessSpec,
    start_a: CausalState,
    proc_b: ProcessSpec,
    start_b: CausalState,
    steps: int,
) -> float:
    """Bhattacharyya coefficient sum_x sqrt(p_A(x) p_B(x)) of the two classical future
    distributions, by enumeration, for 1 <= steps <= MAX_ENUMERATION_STEPS.

    Because the chain has Markov order one, the output overlap over M steps
    equals this coefficient taken one step further ahead (M+1 outcomes), so
    it is the independent oracle of `output_overlap`.
    """
    bins_a = future_distribution(proc_a.coin, start_a, steps).bins
    bins_b = future_distribution(proc_b.coin, start_b, steps).bins
    require_broadcast(bins_a.shape, bins_b.shape, "bhattacharyya_futures: side a, side b")
    return float_or_array(np.sqrt(bins_a * bins_b).sum(axis=-1))
