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
the kept state cancel.  `block_norm_accounting` measures the retained arm
of a block's output to verify that bookkeeping.  All blocks of a run share one coin,
whose causal states are built and validated once per coin, and `run_circuit` builds one
`PhotonState`, which checks the norm, at the end.  As in `markov`, each
function takes a grid coin and start-index arrays (leading batch axes), and
works on real float64 amplitudes, polarization-major (..., 2, bins) so that
the long bin axis is the inner one; `PhotonState` stores that array as the
block hands it over.  `block_gate_unitary`, `gate_decomposition_max_deviation`
and `conditional_polarization` take one coin or one state.  `cli` alone
writes the states' JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import FIRST_DELAY_NS, MAX_SUPERPOSITION_STEPS, TOL
from .encoding import bits_to_index
from .errors import DimensionMismatch, EmptyBin, InvalidParameter
from .markov import (CausalState, OutcomeDistribution, PerturbedCoin, StationaryWeights, both_starts, causal_pair,
                     require_one_coin, require_steps, start_rows)
from .quantum import DensityMatrix2, norm_sq, require_one_state, state_amplitudes


@dataclass(frozen=True)
class PhotonState:
    """Post-selected photon state after `steps_applied` blocks.

    `amplitudes[..., p, b]` (read-only float64, C-ordered (..., 2, 2**steps_applied)) is the
    amplitude with polarization p (0 = H, 1 = V) in time bin b, polarization-major as
    the blocks make it.  Bin b encodes the outcome string via its binary digits,
    first outcome in the least-significant bit.
    `success_probability` is the probability that all post-selections so far succeeded.
    """

    steps_applied: int
    amplitudes: np.ndarray
    success_probability: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes",
                           state_amplitudes(self.amplitudes, self.steps_applied, "photon state"))
        if not 0.0 < self.success_probability <= 1.0:
            raise InvalidParameter(
                f"success probability must be in (0, 1], got {self.success_probability!r}"
            )


def _block(amps: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """One block on real (..., 2, n) amplitudes, polarization-major; the rows of `pair` (..., 2, 2)
    are |S0> and |S1>.  H times |S0> fills the lower n bins, V times |S1> the upper n."""
    out = np.multiply(pair.mT[..., None], amps[..., None, :, :], order="C")  # so the reshape copies nothing
    return out.reshape(out.shape[:-3] + (2, -1))


def prepare_input(coin: PerturbedCoin, start: CausalState) -> PhotonState:
    """Photon in time bin 0 with its polarization set to the initial causal state."""
    return PhotonState(0, start_rows(causal_pair(coin), start)[..., None], 1.0)


def apply_block(state: PhotonState, coin: PerturbedCoin) -> PhotonState:
    """One block: H keeps its bin and becomes |S0>, V moves up by 2^k bins
    and becomes |S1>; the post-selection halves the success probability (see
    the module docstring for why no renormalization is needed).  Validates
    the new `PhotonState` on every call.
    """
    k = state.steps_applied
    require_steps(k + 1, MAX_SUPERPOSITION_STEPS)
    return PhotonState(k + 1, _block(state.amplitudes, causal_pair(coin)), state.success_probability * 0.5)


def block_norm_accounting(state: PhotonState):
    """Squared norm reaching the retained recombiner arm of the block that made `state`, before post-selection:
    the block's output times 1/sqrt(2).  The discarded arm negates the long path's (upper) bins of it, so its
    norm has the same bits, and the arms hold the whole norm iff this is 1/2, whatever the coin and input."""
    if state.steps_applied < 1:
        raise InvalidParameter("the photon has not passed any block yet")
    return norm_sq(state.amplitudes * (1.0 / math.sqrt(2.0)))


def run_circuit(coin: PerturbedCoin, start: CausalState, steps: int) -> PhotonState:
    """Send one photon through `steps` identical blocks; bit-identical to
    `prepare_input` followed by `steps` calls to `apply_block`.
    """
    require_steps(steps, MAX_SUPERPOSITION_STEPS)
    pair = causal_pair(coin)
    amps = start_rows(pair, start)[..., None]
    for _ in range(steps):
        amps = _block(amps, pair)
    return PhotonState(steps, amps, 0.5**steps)  # 0.5 per post-selection, exact in binary


def arrival_time_distribution(state: PhotonState) -> tuple[OutcomeDistribution, np.ndarray]:
    """Outcome probabilities (both polarizations of a bin) and arrival times in ns, per bin."""
    steps = state.steps_applied
    if steps < 1:
        raise InvalidParameter("the photon has not passed any block yet")
    amps = state.amplitudes
    probs = amps[..., 0, :] ** 2 + amps[..., 1, :] ** 2
    # block k's long path adds FIRST_DELAY_NS * 2^(k-1), so bin b arrives at FIRST_DELAY_NS * b
    return OutcomeDistribution(steps, probs), FIRST_DELAY_NS * np.arange(2**steps, dtype=float)


def conditional_polarization(state: PhotonState, bits: str) -> DensityMatrix2:
    """Polarization state conditioned on the photon arriving in the bin of `bits`.

    Noise-free equivalent of the tomographic reconstruction at one arrival
    time; always the projector onto the causal state of the final outcome.
    """
    require_one_state(state.amplitudes, "conditional_polarization")
    index = bits_to_index(bits)
    if len(bits) != state.steps_applied:
        raise DimensionMismatch(
            f"outcome string {bits!r} has {len(bits)} outcomes, the state {state.steps_applied} steps")
    row = state.amplitudes[:, index]
    p = float((row * row).sum())
    if p <= TOL.empty_bin:
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
    matches the direct causal-state mixture.  The conditional state of every
    bin above TOL.empty_bin is checked as a density matrix, whatever the
    weights; the weights enter only the sum, added start by start, bin by
    bin.  (method, coin) weights against a (1, coin) grid coin share one
    circuit run and give each method its own bits.
    """
    state = run_circuit(coin, both_starts(coin), steps)
    probs = arrival_time_distribution(state)[0].bins  # (start, ..., bin)
    used = probs > TOL.empty_bin
    rows = state.amplitudes.mT / np.sqrt(np.where(used, probs, 1.0))[..., None]  # (start, ..., bin, polarization)
    states = rows[..., :, None] * rows[..., None, :]
    DensityMatrix2(states[used])
    scale = np.where(used, np.stack([weights.s0, weights.s1])[..., None] * probs, 0.0)  # (start, ..., bin)
    total = 0  # a +-0 term (an unused bin's) leaves the running sum's bits as they are
    for start, b in np.ndindex(2, probs.shape[-1]):
        total = total + scale[start, ..., b, None, None] * states[start, ..., b, :, :]
    return DensityMatrix2(total)


def block_gate_unitary(coin: PerturbedCoin) -> np.ndarray:
    """Gate-level model of one block on the basis |memory> x |outcome>, as a real float64 (4, 4) matrix.

    Composition: a controlled-X copying the memory onto the fresh outcome
    qubit, a rotation R on the memory with R|0> = |S0>, and an
    outcome-controlled V with V R|1> = |S1>.  R and V are only fixed up to
    signs on the orthogonal subspace; the real-rotation solution is
    used here.  Basis index is 2*memory + outcome.
    """
    require_one_coin(coin, "block_gate_unitary")
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
    require_one_coin(coin, "gate_decomposition_max_deviation")
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
