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
`quantum.PhotonState`, which checks the norm, at the end.  As in `markov`, each
function takes a grid coin and start-index arrays (leading batch axes), and
works on real float64 amplitudes, polarization-major (..., 2, bins) so that
the long bin axis is the inner one; `PhotonState` stores a read-only copy of
the block's array.  `cli` alone writes the states' JSON.  The gate-level
block model and the conditional polarization of one bin, which the tests
check the circuit against, live in `tests/oracles.py`.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import MAX_SUPERPOSITION_STEPS, TOL
from .markov import (CausalState, OutcomeDistribution, PerturbedCoin, StationaryWeights, both_starts, causal_pair,
                     require, require_broadcast, require_steps, start_rows)
from .quantum import DensityMatrix2, PhotonState, norm_sq


def _block(amps: np.ndarray, gate: np.ndarray) -> np.ndarray:
    """One block on real (..., 2, n) amplitudes, polarization-major; `gate` is `pair.mT[..., None]` of the
    causal pair, whose rows are |S0> and |S1>.  H times |S0> fills the lower n bins, V times |S1> the upper n."""
    out = np.multiply(gate, amps[..., None, :, :], order="C")  # so the reshape copies nothing
    return out.reshape(out.shape[:-3] + (2, -1))


def prepare_input(coin: PerturbedCoin, start: CausalState) -> PhotonState:
    """Photon in time bin 0 with its polarization set to the initial causal state."""
    return PhotonState(0, start_rows(causal_pair(coin), start)[..., None])


def apply_block(state: PhotonState, coin: PerturbedCoin) -> PhotonState:
    """One block: H keeps its bin and becomes |S0>, V moves up by 2^k bins
    and becomes |S1>; the post-selection halves the success probability (see
    the module docstring for why no renormalization is needed).  Validates
    the new `PhotonState` on every call, which bounds the block count.
    """
    return PhotonState(state.steps_applied + 1, _block(state.amplitudes, causal_pair(coin).mT[..., None]))


def block_norm_accounting(state: PhotonState):
    """Squared norm reaching the retained recombiner arm of the block that made `state`, before post-selection:
    the block's output times 1/sqrt(2).  The discarded arm negates the long path's (upper) bins of it, so its
    norm has the same bits, and the arms hold the whole norm iff this is 1/2, whatever the coin and input."""
    require(state.steps_applied >= 1, "the photon has not passed any block yet")
    return norm_sq(state.amplitudes * (1.0 / math.sqrt(2.0)))


def run_circuit(coin: PerturbedCoin, start: CausalState, steps: int) -> PhotonState:
    """Send one photon through `steps` identical blocks; bit-identical to
    `prepare_input` followed by `steps` calls to `apply_block`.
    """
    require_steps(steps, MAX_SUPERPOSITION_STEPS)
    pair = causal_pair(coin)
    amps, gate = start_rows(pair, start)[..., None], pair.mT[..., None]
    for _ in range(steps):
        amps = _block(amps, gate)
    return PhotonState(steps, amps)


def arrival_time_distribution(state: PhotonState) -> OutcomeDistribution:
    """Outcome probabilities per time bin, both polarizations of a bin added."""
    steps = state.steps_applied
    require(steps >= 1, "the photon has not passed any block yet")
    amps = state.amplitudes
    return OutcomeDistribution(steps, amps[..., 0, :] ** 2 + amps[..., 1, :] ** 2)


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
    require_broadcast(np.shape(coin.stay_heads), np.shape(weights.s0), "reconstruct_memory_density: coin, weights")
    state = run_circuit(coin, both_starts(coin), steps)
    probs = arrival_time_distribution(state).bins  # (start, ..., bin)
    used = probs > TOL.empty_bin
    rows = state.amplitudes.mT / np.sqrt(np.where(used, probs, 1.0))[..., None]  # (start, ..., bin, polarization)
    states = rows[..., :, None] * rows[..., None, :]
    DensityMatrix2(states[used])
    scale = [np.where(u, np.asarray(w)[..., None] * p, 0.0) for u, w, p in zip(used, (weights.s0, weights.s1), probs)]
    total = 0  # a +-0 term (an unused bin's) leaves the running sum's bits as they are
    for start, b in np.ndindex(2, probs.shape[-1]):
        total = total + scale[start][..., b, None, None] * states[start, ..., b, :, :]
    return DensityMatrix2(total)
