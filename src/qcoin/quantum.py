"""Quantum model of the perturbed-coin simulator.

Causal-state vectors over the polarization basis, the memory density matrix
and its von Neumann entropy, the ideal multi-step output superposition, and
overlaps between the statistical futures of two processes.  `output_overlap`
is the fast route, a transfer-matrix power; the bin sum `_overlap` and
`bhattacharyya_futures` enumerate all 2**M futures and serve as its oracles.
As in `markov`, the kernels and validators take leading batch axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import MAX_OVERLAP_STEPS, MAX_SUPERPOSITION_STEPS, TOL
from .encoding import index_to_bits
from .errors import InvalidParameter, NonPhysicalState
from .markov import (CausalState, PerturbedCoin, StationaryWeights, _any, _entropy_bits, future_distribution,
                     require_steps, transition_matrix)


def _real_array(value, what: str, shape: tuple) -> np.ndarray:
    """`value` as a numpy array of `shape`; a complex dtype is refused, whatever its imaginary parts."""
    arr = np.asarray(value)
    if np.iscomplexobj(arr):
        raise InvalidParameter(f"{what} must be real, got dtype {arr.dtype}")
    if arr.shape != shape:
        raise InvalidParameter(f"{what} must have shape {shape}, got {arr.shape}")
    return arr


def _norm_sq(amps: np.ndarray, axes: int):
    """Squared norms over the last `axes` axes: a float from np.vdot for one
    state, np.vecdot over a batch (the two agree bit for bit).
    """
    if amps.ndim == axes:
        return float(np.vdot(amps, amps))
    flat = amps.reshape(amps.shape[:-axes] + (-1,)) if axes > 1 else amps
    return np.vecdot(flat, flat)


def _require_normalized(amps: np.ndarray, what: str, tol: float = TOL.state_norm, axes: int = 2) -> None:
    """Unit squared norm within `tol` over the last `axes` axes of every state."""
    norm_sq = _norm_sq(amps, axes)
    off = abs(norm_sq - 1.0) > tol
    if _any(off):
        raise InvalidParameter(f"{what} is not normalized: |.|^2 = {float(np.asarray(norm_sq)[off].flat[0])!r}")


def _state_amplitudes(amplitudes, steps: int, what: str) -> np.ndarray:
    """A state's stored amplitudes: the kernels' real (2, 2**steps) array as read-only C-ordered float64,
    taken over without a copy when it is one.  Complex input is refused; the norm is checked."""
    amps = np.ascontiguousarray(_real_array(amplitudes, what, (2, 2**steps)), dtype=float)
    amps.flags.writeable = False
    _require_normalized(amps, what)
    return amps


def causal_pair(coin: PerturbedCoin) -> np.ndarray:
    """Real float64 (2, 2) array whose rows are |S0> = (sqrt(l), sqrt(1 - l)) and
    |S1> = (sqrt(1 - m), sqrt(m)), (..., 2, 2) for a grid of coins: the square roots of the
    transition-matrix rows, norms checked at TOL.exact."""
    pair = np.sqrt(transition_matrix(coin))
    _require_normalized(pair, "causal-state vector", TOL.exact, axes=1)
    return pair


@dataclass(frozen=True)
class DensityMatrix2:
    """2x2 density matrix of the real causal states: read-only float64, symmetric, unit trace,
    positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(_real_array(self.matrix, "density matrix", (2, 2)), dtype=float)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        _require_density(m)

    def to_json_dict(self) -> dict:
        return _density_json(self.matrix.tolist())


def _density_json(re: list) -> dict:
    """A density matrix's JSON form from its entries; "im" stays, all zeros, so pinned payloads are unchanged."""
    return {"re": re, "im": [[0.0, 0.0], [0.0, 0.0]]}


def _require_density(m: np.ndarray) -> None:
    """The `DensityMatrix2` checks on real (..., 2, 2) matrices: symmetric, unit trace, PSD."""
    if (abs(m - m.mT) > TOL.exact).any():
        raise InvalidParameter("matrix is not symmetric")
    trace = m[..., 0, 0] + m[..., 1, 1]
    off = abs(trace - 1.0) > TOL.exact
    if _any(off):
        raise InvalidParameter(f"trace must be 1, got {float(np.asarray(trace)[off].flat[0])!r}")
    if _any(_eigenvalues_2x2(m)[0] < TOL.psd_floor):
        raise InvalidParameter("matrix is not positive semidefinite")


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
    negative.
    """
    return float(_entropy(rho.matrix))


def _entropy(m: np.ndarray):
    """Von Neumann entropy of (..., 2, 2) matrices, eigenvalues checked against TOL.entropy_floor."""
    low, high = _eigenvalues_2x2(m)
    if _any(low < TOL.entropy_floor):
        raise NonPhysicalState(f"eigenvalue {np.min(low)!r} is negative beyond tolerance")
    return _entropy_bits(np.minimum(np.maximum(low, 0.0), 1.0), np.minimum(np.maximum(high, 0.0), 1.0))


def memory_density(coin: PerturbedCoin, weights: StationaryWeights) -> DensityMatrix2:
    """Stationary memory state: weighted mixture of the two causal-state projectors."""
    return DensityMatrix2(_mixture(causal_pair(coin), weights.s0, weights.s1))


def _mixture(pair: np.ndarray, s0, s1) -> np.ndarray:
    """s0 |S0><S0| + s1 |S1><S1| for (..., 2, 2) pairs and weights of the leading shape."""
    projectors = pair[..., :, :, None] * pair[..., :, None, :]
    return (np.asarray(s0)[..., None, None] * projectors[..., 0, :, :]
            + np.asarray(s1)[..., None, None] * projectors[..., 1, :, :])


@dataclass(frozen=True)
class ProcessSpec:
    """A perturbed-coin process with a human-readable label."""

    coin: PerturbedCoin
    label: str = ""


@dataclass(frozen=True)
class IdealOutputState:
    """The multi-step output superposition of the simulator.

    `amplitudes[p, b]` (read-only float64, C-ordered (2, 2**steps)) is the amplitude on
    memory basis index p and time bin b, polarization-major like `PhotonState`; the amplitude
    on a string factorizes as sqrt(p(string)) times the causal-state component of the final
    outcome.
    """

    steps: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", _state_amplitudes(self.amplitudes, self.steps, "output state"))

    def to_json_dict(self) -> dict:
        amps = {index_to_bits(b, self.steps): [[h, 0.0], [v, 0.0]]
                for b, (h, v) in enumerate(zip(*self.amplitudes.tolist()))}
        return {"steps": self.steps, "amplitudes": amps}


def ideal_output_state(coin: PerturbedCoin, start: CausalState, steps: int) -> IdealOutputState:
    """Superposition sum_x sqrt(p(x)) |x1..xM>|S_xM> over all outcome strings.

    The lower half of the bins ends in outcome 0 (memory S0), the upper in 1.
    """
    require_steps(steps, MAX_SUPERPOSITION_STEPS)
    return IdealOutputState(steps, _superposition(future_distribution(coin, start, steps).bins, causal_pair(coin)))


def _superposition(bins: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """Real (..., 2, 2**M) amplitudes sqrt(p(x)) |S_xM>, polarization-major like the circuit's,
    from (..., 2**M) bins and (..., 2, 2) pairs."""
    roots = np.sqrt(bins).reshape(bins.shape[:-1] + (2, -1))
    amps = pair.mT[..., None] * roots[..., None, :, :]
    return amps.reshape(amps.shape[:-3] + (2, -1))


def output_overlap(
    proc_a: ProcessSpec,
    start_a: CausalState,
    proc_b: ProcessSpec,
    start_b: CausalState,
    steps: int,
) -> float:
    """Overlap of the two simulators' output superpositions,
    sum_x sqrt(p_A(x) p_B(x)) <S_xM|T_xM>: the fast route, a 2x2 transfer-matrix power
    (`_transfer_overlap`) in O(log M) time and O(1) memory, for 1 <= steps <= MAX_OVERLAP_STEPS.
    The bin sum `_overlap` and `bhattacharyya_futures` enumerate 2**M strings and are its oracles.
    """
    require_steps(steps, MAX_OVERLAP_STEPS)
    ta, tb = transition_matrix(proc_a.coin), transition_matrix(proc_b.coin)
    finals = np.vecdot(causal_pair(proc_a.coin), causal_pair(proc_b.coin))
    return float(_transfer_overlap(ta, tb, ta[start_a.index] * tb[start_b.index], finals, steps))


def _transfer_overlap(ta: np.ndarray, tb: np.ndarray, first: np.ndarray, finals: np.ndarray, steps: int):
    """u^T K^(steps - 1) c over leading batch axes: K = sqrt(Ta Tb) elementwise, u = sqrt(`first`) for the
    product of the two first-step rows, c = `finals`, the <S_j|T_j>.  The chain has Markov order one, so
    this is the bin sum `_overlap`.  The contraction is written out so a batch gives one pair's bits."""
    power = np.linalg.matrix_power(np.sqrt(ta * tb), steps - 1)
    u = np.sqrt(first)
    row = u[..., 0, None] * power[..., 0, :] + u[..., 1, None] * power[..., 1, :]
    return row[..., 0] * finals[..., 0] + row[..., 1] * finals[..., 1]


def _overlap(bins_a: np.ndarray, bins_b: np.ndarray, pair_a: np.ndarray, pair_b: np.ndarray):
    """sum_x sqrt(p_A(x) p_B(x)) <S_xM|T_xM> over the last axis of the bins: the enumerating oracle
    of `_transfer_overlap`."""
    roots = np.sqrt(bins_a * bins_b)
    ends = roots.reshape(roots.shape[:-1] + (2, -1)).sum(axis=-1)  # halves ending in outcome 0 and 1
    finals = np.vecdot(pair_a, pair_b)  # <S_j|T_j> per j
    return ends[..., 0] * finals[..., 0] + ends[..., 1] * finals[..., 1]


def bhattacharyya_futures(
    proc_a: ProcessSpec,
    start_a: CausalState,
    proc_b: ProcessSpec,
    start_b: CausalState,
    steps: int,
) -> float:
    """Bhattacharyya coefficient of the two classical future distributions, by enumeration, for
    1 <= steps <= MAX_ENUMERATION_STEPS.

    Because the chain has Markov order one, the output overlap over M steps
    equals this coefficient taken one step further ahead (M+1 outcomes), so
    it is the independent oracle of `output_overlap`.
    """
    return float(_bhattacharyya(future_distribution(proc_a.coin, start_a, steps).bins,
                                future_distribution(proc_b.coin, start_b, steps).bins))


def _bhattacharyya(bins_a: np.ndarray, bins_b: np.ndarray):
    """sum_x sqrt(p_A(x) p_B(x)) over the last axis."""
    return np.sqrt(bins_a * bins_b).sum(axis=-1)
