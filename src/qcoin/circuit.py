"""Amplitude-exact simulation of the time-bin photonic processor.

Each processor block works on a photon whose polarization carries the memory
state and whose arrival time carries the outcomes so far:

* a polarizing beam splitter routes |H> to the short path and |V> to the
  long path (the long path of block k adds a delay of 2^(k-1) time bins);
* a wave plate in each path re-prepares the polarization in the block's
  |S0> (short) or |S1> (long) causal state;
* the paths recombine on a 50:50 beam splitter and the run is post-selected
  on one output arm.

Because the two paths land in disjoint time bins they cannot interfere at
the recombiner, so the selected arm keeps exactly half of the norm whatever
the input; the 1/sqrt(2) post-selection factor and the renormalization of
the kept state cancel.  `block_norm_accounting` tracks both arms explicitly
to verify that bookkeeping.  All blocks of a run share one coin, so
`run_circuit` validates the causal states once per run, checks the photon
norm after every block and builds one `PhotonState` at the end.  The
kernels take leading batch axes (coins of a grid, start states) and work on
real float64 amplitudes, polarization-major (..., 2, bins) so that the long
bin axis is the inner one; `PhotonState` stores that (2, bins) array as the
kernels hand it over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .constants import FIRST_DELAY_NS, MAX_SUPERPOSITION_STEPS, TOL
from .encoding import bits_to_index, index_to_bits
from .errors import EmptyBin, InvalidParameter
from .markov import (CausalState, OutcomeDistribution, PerturbedCoin, StationaryWeights, _require_distribution,
                     require_steps)
from .quantum import DensityMatrix2, _norm_sq, _require_density, _require_normalized, _state_amplitudes, causal_pair


@dataclass(frozen=True)
class PhotonState:
    """Post-selected photon state after `steps_applied` blocks.

    `amplitudes[p, b]` (read-only float64, C-ordered (2, 2**steps_applied)) is the
    amplitude with polarization p (0 = H, 1 = V) in time bin b, polarization-major as
    the kernels make it.  Bin b encodes the outcome string via its binary digits,
    first outcome in the least-significant bit.
    `success_probability` is the probability that all post-selections so far succeeded.
    """

    steps_applied: int
    amplitudes: np.ndarray
    success_probability: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes",
                           _state_amplitudes(self.amplitudes, self.steps_applied, "photon state"))
        if not 0.0 < self.success_probability <= 1.0:
            raise InvalidParameter(
                f"success probability must be in (0, 1], got {self.success_probability!r}"
            )

    def to_json_dict(self) -> dict:
        bins = {str(b): {"H": [h, 0.0], "V": [v, 0.0]}
                for b, (h, v) in enumerate(zip(*self.amplitudes.tolist()))}
        return {"steps": self.steps_applied, "success_probability": self.success_probability, "bins": bins}


def _block(amps: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """One block on real (..., 2, n) amplitudes, polarization-major; the rows of `pair` (..., 2, 2)
    are |S0> and |S1>.  H times |S0> fills the lower n bins, V times |S1> the upper n."""
    out = pair.mT[..., None] * amps[..., None, :, :]
    return out.reshape(out.shape[:-3] + (2, -1))


def _propagate(amps: np.ndarray, pair: np.ndarray):
    """Yield (amplitudes, success probability) after each further block, norm checked."""
    success = 1.0
    while True:
        amps = _block(amps, pair)
        _require_normalized(amps, "photon state")
        success *= 0.5  # exact in binary
        yield amps, success


def _run(pair: np.ndarray, start: np.ndarray, steps: int) -> tuple[np.ndarray, float]:
    """((..., 2, 2**steps) amplitudes, success probability) after `steps` blocks from `start` (..., 2)."""
    require_steps(steps, MAX_SUPERPOSITION_STEPS)
    return next(islice(_propagate(start[..., None], pair), steps - 1, None))


def prepare_input(coin: PerturbedCoin, start: CausalState) -> PhotonState:
    """Photon in time bin 0 with its polarization set to the initial causal state."""
    return PhotonState(0, causal_pair(coin)[start.index][:, None], 1.0)


def apply_block(state: PhotonState, coin: PerturbedCoin) -> PhotonState:
    """One block: H keeps its bin and becomes |S0>, V moves up by 2^k bins
    and becomes |S1>; the post-selection halves the success probability (see
    the module docstring for why no renormalization is needed).  Validates
    the coin's causal states and the new `PhotonState` on every call.
    """
    k = state.steps_applied
    require_steps(k + 1, MAX_SUPERPOSITION_STEPS)
    return PhotonState(k + 1, _block(state.amplitudes, causal_pair(coin)), state.success_probability * 0.5)


def block_norm_accounting(state: PhotonState, coin: PerturbedCoin) -> tuple[float, float]:
    """Squared norm reaching each recombiner arm, before post-selection.

    Returns (retained, discarded); for a normalized input these sum to 1
    and each equals 1/2 regardless of the coin and the input state.
    """
    retained, discarded = _arm_norms(state.amplitudes, causal_pair(coin))
    return float(retained), float(discarded)


def _arm_norms(amps: np.ndarray, pair: np.ndarray) -> tuple:
    """(retained, discarded) squared norms of one block on (..., 2, n) amplitudes."""
    n = amps.shape[-1]
    retained = _block(amps, pair) * (1.0 / math.sqrt(2.0))
    discarded = np.concatenate([retained[..., :n], -retained[..., n:]], axis=-1)
    return _norm_sq(retained, 2), _norm_sq(discarded, 2)


def run_circuit(coin: PerturbedCoin, start: CausalState, steps: int) -> PhotonState:
    """Send one photon through `steps` identical blocks; bit-identical to
    `prepare_input` followed by `steps` calls to `apply_block`.
    """
    pair = causal_pair(coin)
    amps, success = _run(pair, pair[start.index], steps)
    return PhotonState(steps, amps, success)


def arrival_time_distribution(state: PhotonState) -> tuple[OutcomeDistribution, np.ndarray]:
    """Outcome probabilities (both polarizations of a bin) and arrival times in ns, per bin."""
    steps = state.steps_applied
    if steps < 1:
        raise InvalidParameter("the photon has not passed any block yet")
    probs = _bin_probabilities(state.amplitudes)
    # block k's long path adds FIRST_DELAY_NS * 2^(k-1), so bin b arrives at FIRST_DELAY_NS * b
    return OutcomeDistribution(steps, probs), FIRST_DELAY_NS * np.arange(2**steps, dtype=float)


def _bin_probabilities(amps: np.ndarray) -> np.ndarray:
    """Probability of each time bin, both polarizations: real (..., 2, n) -> (..., n)."""
    return (amps * amps).sum(axis=-2)


def conditional_polarization(state: PhotonState, bits: str) -> DensityMatrix2:
    """Polarization state conditioned on the photon arriving in the bin of `bits`.

    Noise-free equivalent of the tomographic reconstruction at one arrival
    time; always the projector onto the causal state of the final outcome.
    """
    index = bits_to_index(bits)
    row = state.amplitudes[:, index]
    p = float((row * row).sum())
    if p <= TOL.empty_bin:
        bits = index_to_bits(index, state.steps_applied)
        raise EmptyBin(f"bin for {bits!r} carries probability {p!r}")
    row = row * (1.0 / math.sqrt(p))
    return DensityMatrix2(np.outer(row, row))


def reconstruct_memory_density(
    coin: PerturbedCoin,
    weights: StationaryWeights,
    steps: int,
) -> DensityMatrix2:
    """Ensemble average of the conditional polarization over inputs and outcomes.

    Runs the circuit from both causal states, weighs every outcome's
    conditional polarization state by its probability and the input weight;
    matches the direct causal-state mixture.
    """
    return DensityMatrix2(_reconstruction(causal_pair(coin), np.array([weights.s0, weights.s1]), steps))


def _reconstruction(pair: np.ndarray, weights: np.ndarray, steps: int) -> np.ndarray:
    """`reconstruct_memory_density` for (..., 2, 2) pairs and (..., 2) start weights.  Bins at or
    below TOL.empty_bin and zero-weight starts are left out; every conditional state used is
    checked as a density matrix.  Terms are added start by start, bin by bin."""
    amps, _ = _run(pair[..., None, :, :], pair, steps)  # (..., start, polarization, bin)
    probs = _bin_probabilities(amps)
    amps = amps.mT  # (..., start, bin, polarization)
    _require_distribution(probs)
    used = (probs > TOL.empty_bin) & (weights[..., None] != 0.0)
    rows = amps / np.sqrt(np.where(used, probs, 1.0))[..., None]
    states = rows[..., :, None] * rows[..., None, :]
    _require_density(states[used])
    terms = np.where(used[..., None, None], (weights[..., None] * probs)[..., None, None] * states, 0.0)
    return sum(np.moveaxis(terms.reshape(terms.shape[:-4] + (-1, 2, 2)), -3, 0))


def block_gate_unitary(coin: PerturbedCoin) -> np.ndarray:
    """Gate-level model of one block on the basis |memory> x |outcome>, as a real float64 (4, 4) matrix.

    Composition: a controlled-X copying the memory onto the fresh outcome
    qubit, a rotation R on the memory with R|0> = |S0>, and an
    outcome-controlled V with V R|1> = |S1>.  R and V are only fixed up to
    signs on the orthogonal subspace; the real-rotation solution is
    used here.  Basis index is 2*memory + outcome.
    """
    root_stay = math.sqrt(coin.stay_heads)
    root_flip = math.sqrt(1.0 - coin.stay_heads)
    r = np.array([[root_stay, -root_flip], [root_flip, root_stay]])
    r_one = r @ np.array([0.0, 1.0])
    s1 = causal_pair(coin)[CausalState.S1.index]
    delta = math.atan2(s1[1], s1[0]) - math.atan2(r_one[1], r_one[0])
    v = np.array([[math.cos(delta), -math.sin(delta)], [math.sin(delta), math.cos(delta)]])
    cx = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float)
    cv = np.eye(4)
    for mem_out in range(2):
        for mem_in in range(2):
            cv[2 * mem_out + 1, 2 * mem_in + 1] = v[mem_out, mem_in]
    return cv @ np.kron(r, np.eye(2)) @ cx


def gate_decomposition_max_deviation(coin: PerturbedCoin) -> float:
    """Largest amplitude difference between the gate-level block and the
    optical block map, over both input causal states.
    """
    u = block_gate_unitary(coin)
    pair = causal_pair(coin)
    worst = 0.0
    for mem_in in pair:
        gate_out = u @ np.kron(mem_in, np.array([1.0, 0.0]))
        block_out = _block(mem_in[:, None], pair)  # (memory, outcome)
        for outcome in range(2):
            for mem in range(2):
                dev = abs(gate_out[2 * mem + outcome] - block_out[mem, outcome])
                worst = max(worst, dev)
    return worst
