"""The library fuzzer: coin grids, starts, step counts, draw counts and seeds that a function can or cannot use,
bools among them, drawn with a fixed seed into every function that takes (coin, start, steps) and every call that
meets two batches, and the edge floats put into every field of every holder.  Whatever it draws, only a
`QCoinError` subclass may escape: never numpy's or Python's bare error."""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcoin.checks import run_oracle_checks
from qcoin.circuit import (apply_block, arrival_time_distribution, prepare_input, reconstruct_memory_density,
                           run_circuit)
from qcoin.errors import DimensionMismatch, QCoinError
from qcoin.interference import visibility_sweep
from qcoin.markov import (CausalState, OutcomeDistribution, PerturbedCoin, StationaryWeights, WeightMethod,
                          classical_fidelity, counts_to_distribution, future_distribution, sample_trajectories,
                          stationary_weights, transition_matrix)
from qcoin.quantum import (DensityMatrix2, PhotonState, ProcessSpec, bhattacharyya_futures, ideal_output_state,
                           memory_density, output_overlap, superposition)

# batch shapes that broadcast against some of the others and not against the rest; (0,) only for starts
COIN_SHAPES = [(), (1,), (2,), (3,), (2, 1), (1, 3)]
START_SHAPES = COIN_SHAPES + [(0,), (0, 2)]
# the edge floats: +-0, the smallest subnormal, 1 -+ ulp and NaN
EDGE_FLOATS = [0.0, -0.0, 5e-324, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), math.nan]
# the edges of a stay probability: both ends, the reducible chain at 1, the fair coin, and the edge floats
# that are probabilities
PROBABILITIES = [0.0, 1.0, 0.5, 0.3, -0.0, 5e-324, math.nextafter(1.0, 0.0)]
# past both ends of each cap, both circuit caps' last allowed count, and the bools, which are not counts
STEPS = [-1, 0, 1, 2, 3, 12, 13, True, False, np.True_]
COUNTS = [0, 1, 3, -1, True, False]  # draw counts and seeds
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
        draws=draw(st.sampled_from(COUNTS)), seed=draw(st.sampled_from(COUNTS)),
        weights=StationaryWeights(s0, 1.0 - s0),
        method=draw(st.sampled_from(METHODS)))


def superposed(c):
    """The superposition of the other coin's distribution on the coin: a DimensionMismatch where the batches do
    not broadcast."""
    distribution = future_distribution(c.other, c.other_start, c.steps)
    try:
        np.broadcast_shapes(np.shape(c.coin.stay_heads), distribution.bins.shape[:-1])
    except ValueError:
        with pytest.raises(DimensionMismatch):
            superposition(c.coin, distribution)
    else:
        superposition(c.coin, distribution)


CALLS = [
    lambda c: future_distribution(c.coin, c.start, c.steps),
    lambda c: ideal_output_state(c.coin, c.start, c.steps),
    superposed,
    lambda c: prepare_input(c.coin, c.start),
    lambda c: run_circuit(c.coin, c.start, c.steps),
    lambda c: arrival_time_distribution(apply_block(run_circuit(c.coin, c.start, c.steps), c.coin)),
    lambda c: PhotonState(c.steps, run_circuit(c.coin, c.start, 1).amplitudes),
    lambda c: sample_trajectories(c.coin, c.start, c.steps, c.draws, c.seed),
    lambda c: counts_to_distribution(np.arange(4), c.steps),
    lambda c: run_oracle_checks(1.0, (c.steps,), c.draws, c.seed),
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


# a one-element and a batch holder of each class, each field a valid value
HOLDERS = [
    pytest.param(PerturbedCoin, {"stay_heads": 0.4, "stay_tails": 0.7}, id="PerturbedCoin-one"),
    pytest.param(PerturbedCoin, {"stay_heads": [0.4, 0.2], "stay_tails": [0.7, 0.9]}, id="PerturbedCoin-batch"),
    pytest.param(StationaryWeights, {"s0": 0.25, "s1": 0.75}, id="StationaryWeights-one"),
    pytest.param(StationaryWeights, {"s0": [0.25, 0.5], "s1": [0.75, 0.5]}, id="StationaryWeights-batch"),
    pytest.param(OutcomeDistribution, {"steps": 1, "bins": [0.5, 0.5]}, id="OutcomeDistribution-one"),
    pytest.param(OutcomeDistribution, {"steps": 1, "bins": [[0.5, 0.5], [0.0, 1.0]]}, id="OutcomeDistribution-batch"),
    pytest.param(DensityMatrix2, {"matrix": [[0.5, 0.0], [0.0, 0.5]]}, id="DensityMatrix2-one"),
    pytest.param(DensityMatrix2, {"matrix": [[[0.5, 0.0], [0.0, 0.5]], [[1.0, 0.0], [0.0, 0.0]]]},
                 id="DensityMatrix2-batch"),
    pytest.param(PhotonState, {"steps_applied": 0, "amplitudes": [[0.6], [0.8]]}, id="PhotonState-one"),
    pytest.param(PhotonState, {"steps_applied": 1, "amplitudes": [[[0.6, 0.0], [0.0, 0.8]], [[0.0, 1.0], [0.0, 0.0]]]},
                 id="PhotonState-batch"),
]


@pytest.mark.parametrize("holder, valid", HOLDERS)
def test_edge_floats_in_every_holder_field_are_held_or_refused_by_name(holder, valid):
    # each edge float in each entry of each field, one at a time; every check accepts its range, so NaN fails
    holder(**valid)
    for field, value in valid.items():
        for index in np.ndindex(np.shape(value)):
            for edge in EDGE_FLOATS:
                spoiled = np.array(value, dtype=float)
                spoiled[index] = edge
                try:
                    holder(**{**valid, field: spoiled if index else edge})
                except QCoinError:
                    continue
                assert not math.isnan(edge), (field, index)


def test_a_planted_bare_value_error_fails_the_fuzzer():
    # a start reader that lets numpy's broadcast error through
    def bare_start_rows(c):
        index = np.asarray(c.start.value if isinstance(c.start, CausalState) else c.start)
        t = transition_matrix(c.coin)
        return np.where(index[..., None] == 1, t[..., 1, :], t[..., 0, :])

    with pytest.raises(ValueError, match="broadcast"):
        fuzz(CALLS + [bare_start_rows])
