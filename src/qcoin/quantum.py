"""Quantum model of the perturbed-coin simulator.

Causal-state vectors over the polarization basis, the memory density matrix
and its von Neumann entropy, the ideal multi-step output superposition, and
closed-form overlaps between the statistical futures of two processes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .constants import TOL
from .encoding import bits_to_index, index_to_bits
from .errors import (
    InternalError,
    InvalidParameter,
    NonPhysicalState,
    StepCountTooLarge,
)
from .markov import CausalState, PerturbedCoin, OutcomeDistribution, StationaryWeights, future_distribution

# The output superposition holds 2**(steps+1) amplitudes.
MAX_SUPERPOSITION_STEPS = 12


def _require_real(value: complex, what: str) -> float:
    if abs(value.imag) > TOL.imag_residue:
        raise InternalError(f"{what} has imaginary residue {value.imag!r}")
    return float(value.real)


@dataclass(frozen=True)
class CausalStateVector:
    """Qubit amplitudes of a causal state over the {|0>, |1>} polarization basis."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(2).copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > TOL.exact:
            raise InvalidParameter(f"causal-state vector is not normalized: |.|^2 = {norm_sq!r}")


def causal_state(coin: PerturbedCoin, state: CausalState) -> CausalStateVector:
    """Memory state encoding a causal state with square-root amplitudes.

    S0 -> (sqrt(stay_heads), sqrt(1 - stay_heads));
    S1 -> (sqrt(1 - stay_tails), sqrt(stay_tails)).
    Both are real and nonnegative by construction.
    """
    if state is CausalState.S0:
        a0, a1 = math.sqrt(coin.stay_heads), math.sqrt(1.0 - coin.stay_heads)
    else:
        a0, a1 = math.sqrt(1.0 - coin.stay_tails), math.sqrt(coin.stay_tails)
    return CausalStateVector(np.array([a0, a1], dtype=complex))


def causal_pair(coin: PerturbedCoin) -> np.ndarray:
    """(2, 2) array whose rows are the validated |S0> and |S1> of `coin`."""
    return np.array([causal_state(coin, s).amplitudes for s in (CausalState.S0, CausalState.S1)])


def causal_overlap(
    coin_a: PerturbedCoin,
    state_a: CausalState,
    coin_b: PerturbedCoin,
    state_b: CausalState,
) -> float:
    """Inner product of two causal-state vectors (real for these states)."""
    a = causal_state(coin_a, state_a).amplitudes
    b = causal_state(coin_b, state_b).amplitudes
    return _require_real(complex(np.vdot(a, b)), "causal-state overlap")


@dataclass(frozen=True)
class DensityMatrix2:
    """2x2 density matrix: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex).reshape(2, 2).copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        if np.abs(m - m.conj().T).max() > TOL.exact:
            raise InvalidParameter("matrix is not Hermitian")
        trace = _require_real(complex(m[0, 0] + m[1, 1]), "density-matrix trace")
        if abs(trace - 1.0) > TOL.exact:
            raise InvalidParameter(f"trace must be 1, got {trace!r}")
        if min(_eigenvalues_2x2(m)) < TOL.psd_floor:
            raise InvalidParameter("matrix is not positive semidefinite")

    def eigenvalues(self) -> tuple[float, float]:
        return _eigenvalues_2x2(self.matrix)

    def to_json_dict(self) -> dict:
        return {
            "re": [[float(x.real) for x in row] for row in self.matrix],
            "im": [[float(x.imag) for x in row] for row in self.matrix],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "DensityMatrix2":
        payload = json.loads(text)
        return cls(np.asarray(payload["re"], dtype=float) + 1j * np.asarray(payload["im"], dtype=float))


def _eigenvalues_2x2(m: np.ndarray) -> tuple[float, float]:
    """Eigenvalues of a Hermitian 2x2 matrix from trace and determinant."""
    trace = (m[0, 0] + m[1, 1]).real
    det = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real
    disc = trace * trace - 4.0 * det
    root = math.sqrt(max(disc, 0.0))
    return (trace - root) / 2.0, (trace + root) / 2.0


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy -Tr(rho log2 rho) in bits.

    Eigenvalues come from the closed form (tr +- sqrt(tr^2 - 4 det)) / 2
    and are clamped to [0, 1] after checking they are not significantly
    negative.  Accepts a DensityMatrix2 or a raw 2x2 array.
    """
    m = rho.matrix if isinstance(rho, DensityMatrix2) else np.asarray(rho, dtype=complex)
    low, high = _eigenvalues_2x2(m)
    if low < TOL.entropy_floor:
        raise NonPhysicalState(f"eigenvalue {low!r} is negative beyond tolerance")
    h = 0.0
    for lam in (low, high):
        lam = min(max(lam, 0.0), 1.0)
        if lam > 0.0:
            h -= lam * math.log2(lam)
    return h


def memory_density(coin: PerturbedCoin, weights: StationaryWeights) -> DensityMatrix2:
    """Stationary memory state: weighted mixture of the two causal-state projectors."""
    s0, s1 = causal_pair(coin)
    rho = weights.s0 * np.outer(s0, s0.conj()) + weights.s1 * np.outer(s1, s1.conj())
    return DensityMatrix2(rho)


@dataclass(frozen=True)
class ProcessSpec:
    """A perturbed-coin process with a human-readable label."""

    coin: PerturbedCoin
    label: str = ""


@dataclass(frozen=True)
class IdealOutputState:
    """The multi-step output superposition of the simulator.

    Amplitudes are stored as a (2**steps, 2) array indexed by (time-bin,
    memory basis index); the amplitude on a string factorizes as
    sqrt(p(string)) times the causal-state component of the final outcome.
    """

    steps: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.steps, 2):
            raise InvalidParameter(
                f"expected amplitude shape {(2**self.steps, 2)}, got {amps.shape}"
            )
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > TOL.state_norm:
            raise InvalidParameter(f"output state is not normalized: |.|^2 = {norm_sq!r}")

    def amplitude(self, bits: str, memory_index: int) -> complex:
        return complex(self.amplitudes[bits_to_index(bits), memory_index])

    def marginal_distribution(self) -> OutcomeDistribution:
        """Squared marginal over the memory index: the classical future distribution."""
        return OutcomeDistribution(self.steps, (np.abs(self.amplitudes) ** 2).sum(axis=1))

    def to_json_dict(self) -> dict:
        amps = {
            index_to_bits(b, self.steps): [[z.real, z.imag] for z in row]
            for b, row in enumerate(self.amplitudes.tolist())
        }
        return {"steps": self.steps, "amplitudes": amps}


def ideal_output_state(coin: PerturbedCoin, start: CausalState, steps: int) -> IdealOutputState:
    """Superposition sum_x sqrt(p(x)) |x1..xM>|S_xM> over all outcome strings.

    The lower half of the bins ends in outcome 0 (memory S0), the upper in 1.
    """
    if not 1 <= steps <= MAX_SUPERPOSITION_STEPS:
        raise StepCountTooLarge(f"steps must be in 1..{MAX_SUPERPOSITION_STEPS}, got {steps}")
    roots = np.sqrt(future_distribution(coin, start, steps).bins).reshape(2, -1)
    return IdealOutputState(steps, (roots[:, :, None] * causal_pair(coin)[:, None, :]).reshape(-1, 2))


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
    roots = np.sqrt(future_distribution(proc_a.coin, start_a, steps).bins
                    * future_distribution(proc_b.coin, start_b, steps).bins)
    ends_0, ends_1 = roots.reshape(2, -1).sum(axis=1)  # halves ending in outcome 0 and 1
    final_0 = causal_overlap(proc_a.coin, CausalState.S0, proc_b.coin, CausalState.S0)
    final_1 = causal_overlap(proc_a.coin, CausalState.S1, proc_b.coin, CausalState.S1)
    return float(ends_0 * final_0 + ends_1 * final_1)


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
    return float(np.sqrt(future_distribution(proc_a.coin, start_a, steps).bins
                         * future_distribution(proc_b.coin, start_b, steps).bins).sum())


def process_json_dict(spec: ProcessSpec, start: CausalState) -> dict:
    return {
        "label": spec.label,
        "l": spec.coin.stay_heads,
        "m": spec.coin.stay_tails,
        "start": start.name,
    }
