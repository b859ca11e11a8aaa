"""Quantum model of the perturbed-coin simulator.

Causal-state vectors over the polarization basis, the memory density matrix
and its von Neumann entropy, the ideal multi-step output superposition, and
closed-form overlaps between the statistical futures of two processes.
As in `markov`, the kernels and validators take leading batch axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import MAX_SUPERPOSITION_STEPS, TOL
from .encoding import index_to_bits
from .errors import InternalError, InvalidParameter, NonPhysicalState
from .markov import (CausalState, OutcomeDistribution, PerturbedCoin, StationaryWeights, _any, _entropy_bits,
                     future_distribution, require_steps, transition_matrix)


def _require_real(value, what: str):
    """Real part of a numpy complex value or array, imaginary parts checked against TOL.imag_residue."""
    off = abs(value.imag) > TOL.imag_residue
    if _any(off):
        raise InternalError(f"{what} has imaginary residue {float(np.asarray(value.imag)[off].flat[0])!r}")
    return value.real


def _norm_sq(amps: np.ndarray, axes: int):
    """Squared norms over the last `axes` axes: a float from np.vdot for one
    state, np.vecdot over a batch (the two agree bit for bit).
    """
    if amps.ndim == axes:
        return float(np.vdot(amps, amps).real)
    flat = amps.reshape(amps.shape[:-axes] + (-1,)) if axes > 1 else amps
    return np.vecdot(flat, flat).real


def _require_normalized(amps: np.ndarray, what: str, tol: float = TOL.state_norm, axes: int = 2) -> None:
    """Unit squared norm within `tol` over the last `axes` axes of every state."""
    norm_sq = _norm_sq(amps, axes)
    off = abs(norm_sq - 1.0) > tol
    if _any(off):
        raise InvalidParameter(f"{what} is not normalized: |.|^2 = {float(np.asarray(norm_sq)[off].flat[0])!r}")


def _state_amplitudes(amplitudes, steps: int, what: str) -> np.ndarray:
    """A state's stored amplitudes: the kernels' real (2, 2**steps) array as read-only C-ordered float64,
    taken over without a copy when it is one.  Complex input must pass `_require_real`; the norm is checked."""
    amps = np.asarray(amplitudes)
    amps = np.ascontiguousarray(_require_real(amps, what) if np.iscomplexobj(amps) else amps, dtype=float)
    if amps.shape != (2, 2**steps):
        raise InvalidParameter(f"expected amplitude shape {(2, 2**steps)}, got {amps.shape}")
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
    """2x2 density matrix: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex).reshape(2, 2).copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        _require_density(m)

    def eigenvalues(self) -> tuple[float, float]:
        return _eigenvalues_2x2(self.matrix)

    def to_json_dict(self) -> dict:
        return {
            "re": [[float(x.real) for x in row] for row in self.matrix],
            "im": [[float(x.imag) for x in row] for row in self.matrix],
        }


def _require_density(m: np.ndarray) -> None:
    """The `DensityMatrix2` checks on (..., 2, 2) matrices: Hermitian, real unit trace, PSD."""
    if (abs(m - m.swapaxes(-1, -2).conj()) > TOL.exact).any():
        raise InvalidParameter("matrix is not Hermitian")
    trace = _require_real(m[..., 0, 0] + m[..., 1, 1], "density-matrix trace")
    off = abs(trace - 1.0) > TOL.exact
    if _any(off):
        raise InvalidParameter(f"trace must be 1, got {float(np.asarray(trace)[off].flat[0])!r}")
    if _any(_eigenvalues_2x2(m)[0] < TOL.psd_floor):
        raise InvalidParameter("matrix is not positive semidefinite")


def _eigenvalues_2x2(m: np.ndarray) -> tuple:
    """Eigenvalues (low, high) of Hermitian (..., 2, 2) matrices from trace and determinant."""
    trace = (m[..., 0, 0] + m[..., 1, 1]).real
    det = (m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]).real
    disc = trace * trace - 4.0 * det
    root = np.sqrt(np.maximum(disc, 0.0))
    return (trace - root) / 2.0, (trace + root) / 2.0


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy -Tr(rho log2 rho) in bits.

    Eigenvalues come from the closed form (tr +- sqrt(tr^2 - 4 det)) / 2
    and are clamped to [0, 1] after checking they are not significantly
    negative.  Accepts a DensityMatrix2 or a raw 2x2 array.
    """
    m = rho.matrix if isinstance(rho, DensityMatrix2) else np.asarray(rho, dtype=complex)
    return float(_entropy(m))


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
    projectors = pair[..., :, :, None] * pair.conj()[..., :, None, :]
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

    def marginal_distribution(self) -> OutcomeDistribution:
        """Squared marginal over the memory index: the classical future distribution."""
        return OutcomeDistribution(self.steps, (self.amplitudes * self.amplitudes).sum(axis=0))

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
    """Overlap of the two simulators' output superpositions, in closed form:
    sum_x sqrt(p_A(x) p_B(x)) <S_xM|T_xM>.
    """
    return float(_overlap(future_distribution(proc_a.coin, start_a, steps).bins,
                          future_distribution(proc_b.coin, start_b, steps).bins,
                          causal_pair(proc_a.coin), causal_pair(proc_b.coin)))


def _overlap(bins_a: np.ndarray, bins_b: np.ndarray, pair_a: np.ndarray, pair_b: np.ndarray):
    """sum_x sqrt(p_A(x) p_B(x)) <S_xM|T_xM> over the last axis of the bins."""
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
    """Bhattacharyya coefficient of the two classical future distributions.

    Because the chain has Markov order one, the output overlap over M steps
    equals this coefficient taken one step further ahead (M+1 outcomes).
    """
    if steps < 1:
        raise InvalidParameter(f"steps must be >= 1, got {steps}")
    return float(_bhattacharyya(future_distribution(proc_a.coin, start_a, steps).bins,
                                future_distribution(proc_b.coin, start_b, steps).bins))


def _bhattacharyya(bins_a: np.ndarray, bins_b: np.ndarray):
    """sum_x sqrt(p_A(x) p_B(x)) over the last axis."""
    return np.sqrt(bins_a * bins_b).sum(axis=-1)
