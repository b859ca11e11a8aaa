"""The library fuzzer: coin grids, starts and step counts that a function can or cannot use, drawn with a fixed
seed into every function that takes (coin, start, steps) and every call that meets two batches.  Whatever it
draws, only a `QCoinError` subclass may escape: never numpy's or Python's bare error."""

import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcoin.circuit import (PhotonState, apply_block, arrival_time_distribution, prepare_input,
                           reconstruct_memory_density, run_circuit)
from qcoin.errors import QCoinError
from qcoin.interference import visibility_sweep
from qcoin.markov import (CausalState, PerturbedCoin, StationaryWeights, WeightMethod, classical_fidelity,
                          future_distribution, sample_trajectories, stationary_weights, transition_matrix)
from qcoin.quantum import ProcessSpec, bhattacharyya_futures, ideal_output_state, memory_density, output_overlap

# batch shapes that broadcast against some of the others and not against the rest; (0,) only for starts
COIN_SHAPES = [(), (1,), (2,), (3,), (2, 1), (1, 3)]
START_SHAPES = COIN_SHAPES + [(0,), (0, 2)]
# the edges of a stay probability: both ends, the reducible chain at 1, the fair coin
PROBABILITIES = [0.0, 1.0, 0.5, 0.3]
# past both ends of each cap, and both circuit caps' last allowed count
STEPS = [-1, 0, 1, 2, 3, 12, 13]
METHODS = list(WeightMethod) + ["exact", None]


def numbers(draw, shape):
    values = draw(st.lists(st.sampled_from(PROBABILITIES), min_size=int(np.prod(shape)),
                           max_size=int(np.prod(shape))))
    return np.array(values).reshape(shape) if shape else float(values[0])


@st.composite
def coins(draw):
    shape = draw(st.sampled_from(COIN_SHAPES))
    return PerturbedCoin(numbers(draw, shape), numbers(draw, shape))


@st.composite
def starts(draw):
    kind = draw(st.sampled_from(["state", "int", "array"]))
    if kind == "state":
        return draw(st.sampled_from(list(CausalState)))
    if kind == "int":
        return draw(st.sampled_from([0, 1, 2, np.int64(1)]))
    shape = draw(st.sampled_from(START_SHAPES))
    return np.array(draw(st.lists(st.sampled_from([0, 1]), min_size=int(np.prod(shape)),
                                  max_size=int(np.prod(shape)))), dtype=np.int64).reshape(shape)


@st.composite
def cases(draw):
    shape = draw(st.sampled_from(COIN_SHAPES))
    s0 = numbers(draw, shape)
    return SimpleNamespace(
        coin=draw(coins()), start=draw(starts()), other=draw(coins()), other_start=draw(starts()),
        steps=draw(st.sampled_from(STEPS).flatmap(lambda n: st.sampled_from([n, np.int64(n)]))),
        weights=StationaryWeights(s0, 1.0 - s0),
        method=draw(st.sampled_from(METHODS)))


CALLS = [
    lambda c: future_distribution(c.coin, c.start, c.steps),
    lambda c: ideal_output_state(c.coin, c.start, c.steps),
    lambda c: prepare_input(c.coin, c.start),
    lambda c: run_circuit(c.coin, c.start, c.steps),
    lambda c: arrival_time_distribution(apply_block(run_circuit(c.coin, c.start, c.steps), c.coin)),
    lambda c: PhotonState(c.steps, run_circuit(c.coin, c.start, 1).amplitudes),
    lambda c: sample_trajectories(c.coin, c.start, c.steps, 3, 1),
    lambda c: stationary_weights(c.coin, c.method),
    lambda c: output_overlap(ProcessSpec(c.coin), c.start, ProcessSpec(c.other), c.other_start, c.steps),
    lambda c: bhattacharyya_futures(ProcessSpec(c.coin), c.start, ProcessSpec(c.other), c.other_start, c.steps),
    lambda c: classical_fidelity(future_distribution(c.coin, c.start, c.steps),
                                 future_distribution(c.other, c.other_start, c.steps)),
    lambda c: memory_density(c.coin, c.weights),
    lambda c: reconstruct_memory_density(c.coin, c.weights, c.steps),
    lambda c: visibility_sweep(c.other, c.other_start, c.coin, c.start, c.steps),
]


def fuzz(calls) -> None:
    """Run every call on each drawn case; anything but a QCoinError fails the run."""
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=cases())
    def run(case):
        for call in calls:
            try:
                call(case)
            except QCoinError:
                pass

    run()


def test_only_named_errors_escape_the_library():
    began = time.perf_counter()
    fuzz(CALLS)
    assert time.perf_counter() - began < 2.0


def test_a_planted_bare_value_error_fails_the_fuzzer():
    # a start reader that lets numpy's broadcast error through
    def bare_start_rows(c):
        index = np.asarray(c.start.value if isinstance(c.start, CausalState) else c.start)
        t = transition_matrix(c.coin)
        return np.where(index[..., None] == 1, t[..., 1, :], t[..., 0, :])

    with pytest.raises(ValueError, match="broadcast"):
        fuzz(CALLS + [bare_start_rows])
