"""One function per concept: a grid coin and an array of start indices give, in each batch element, the bits
of the one-coin call; a float-valued function returns a float for one coin and an ndarray for a grid; the
functions that take one coin or one state refuse a batch with InvalidParameter; every holder refuses an
empty batch, and a field whose batch is not its sibling field's, with InvalidParameter naming the field; and
a start, a step count or two batches that a function cannot use end in a named QCoinError, never in a bare
numpy or Python error."""

import json

import numpy as np
import pytest

from oracles import (block_gate_unitary, conditional_polarization, gate_decomposition_max_deviation,
                     trajectory_probability)
from qcoin.circuit import (
    PhotonState,
    arrival_time_distribution,
    block_norm_accounting,
    prepare_input,
    reconstruct_memory_density,
    run_circuit,
)
from qcoin.cli import _photon_json
from qcoin.constants import MAX_OVERLAP_STEPS
from qcoin.errors import DimensionMismatch, InvalidParameter
from qcoin.interference import fit_visibility, visibility, visibility_sweep
from qcoin.markov import (
    CausalState,
    OutcomeDistribution,
    PerturbedCoin,
    StationaryWeights,
    WeightMethod,
    causal_pair,
    classical_complexity,
    classical_fidelity,
    counts_to_distribution,
    future_distribution,
    sample_trajectories,
    stationary_weights,
)
from qcoin.quantum import (
    DensityMatrix2,
    ProcessSpec,
    bhattacharyya_futures,
    ideal_output_state,
    memory_density,
    output_overlap,
    superposition,
    von_neumann_entropy,
)

# a (2, 3) grid with edges, orthogonal causal states (0, 0) and no reducible chain
HEADS = np.array([[0.0, 0.35, 1.0], [0.8, 0.5, 0.0]])
TAILS = np.array([[0.5, 1.0, 0.0], [0.2, 0.5, 0.0]])
GRID = PerturbedCoin(HEADS, TAILS)
STARTS = np.array([[0, 1, 1], [1, 0, 0]])
OTHER = PerturbedCoin(0.6, 0.3)


def elements():
    for index in np.ndindex(HEADS.shape):
        yield index, PerturbedCoin(float(HEADS[index]), float(TAILS[index])), CausalState(int(STARTS[index]))


def same_bits(got, expected):
    return np.asarray(got, dtype=float).tobytes() == np.asarray(expected, dtype=float).tobytes()


@pytest.mark.parametrize("call", [
    lambda coin, start: future_distribution(coin, start, 5).bins,
    lambda coin, start: ideal_output_state(coin, start, 3).amplitudes,
    lambda coin, start: superposition(coin, future_distribution(OTHER, CausalState.S1, 3)).amplitudes,
    lambda coin, start: prepare_input(coin, start).amplitudes,
    lambda coin, start: run_circuit(coin, start, 4).amplitudes,
    lambda coin, start: arrival_time_distribution(run_circuit(coin, start, 2)).bins,
    lambda coin, start: block_norm_accounting(run_circuit(coin, start, 2)),
    *(lambda coin, start, steps=steps: output_overlap(ProcessSpec(coin), start, ProcessSpec(OTHER), CausalState.S1,
                                                      steps) for steps in (1, 3, 5, 12, MAX_OVERLAP_STEPS)),
    lambda coin, start: bhattacharyya_futures(ProcessSpec(OTHER), CausalState.S0, ProcessSpec(coin), start, 4),
    lambda coin, start: classical_fidelity(future_distribution(coin, start, 4), future_distribution(OTHER, 1, 4)),
    lambda coin, start: causal_pair(coin),
], ids=["future_distribution", "ideal_output_state", "superposition", "prepare_input", "run_circuit",
        "arrival_time_distribution", "block_norm_accounting", "output_overlap-1", "output_overlap-3", "output_overlap",
        "output_overlap-12", "output_overlap-8192", "bhattacharyya_futures", "classical_fidelity", "causal_pair"])
def test_each_batch_element_has_the_bits_of_its_one_coin_call(call):
    """Each element of a (2, 3) grid, and each coin as a 1-element grid, against the one-coin call, whose
    numbers are numpy scalars where a grid's are arrays."""
    batch = call(GRID, STARTS)
    for index, coin, start in elements():
        one = call(coin, start)
        assert same_bits(batch[index], one)
        single = PerturbedCoin(np.array([coin.stay_heads]), np.array([coin.stay_tails]))
        assert same_bits(call(single, np.array([start.index]))[0], one)


@pytest.mark.parametrize("call", [
    lambda coin, w: np.stack([w.s0, w.s1], axis=-1),
    lambda coin, w: classical_complexity(w),
    lambda coin, w: memory_density(coin, w).matrix,
    lambda coin, w: von_neumann_entropy(memory_density(coin, w)),
    lambda coin, w: reconstruct_memory_density(coin, w, 3).matrix,
], ids=["stationary_weights", "classical_complexity", "memory_density", "von_neumann_entropy",
        "reconstruct_memory_density"])
@pytest.mark.parametrize("method", list(WeightMethod))
def test_each_weight_batch_element_has_the_bits_of_its_one_coin_call(call, method):
    batch = call(GRID, stationary_weights(GRID, method))
    for index, coin, _ in elements():
        assert same_bits(batch[index], call(coin, stationary_weights(coin, method)))


@pytest.mark.parametrize("call", [
    lambda coin, w: memory_density(coin, w).matrix,
    lambda coin, w: reconstruct_memory_density(coin, w, 3).matrix,
], ids=["memory_density", "reconstruct_memory_density"])
def test_a_method_by_coin_weight_batch_gives_each_method_its_own_bits(call):
    # (method, coin) weights against a (1, coin) coin: one call serves both methods
    coins = PerturbedCoin(HEADS.ravel(), TAILS.ravel())
    per_method = [stationary_weights(coins, method) for method in WeightMethod]
    weights = StationaryWeights(np.stack([w.s0 for w in per_method]), np.stack([w.s1 for w in per_method]))
    batch = call(PerturbedCoin(HEADS.ravel()[None], TAILS.ravel()[None]), weights)
    for row, method_weights in zip(batch, per_method):
        assert same_bits(row, call(coins, method_weights))


@pytest.mark.parametrize("call", [
    lambda coin: classical_complexity(stationary_weights(coin)),
    lambda coin: von_neumann_entropy(memory_density(coin, stationary_weights(coin))),
    lambda coin: output_overlap(ProcessSpec(coin), CausalState.S0, ProcessSpec(OTHER), CausalState.S0, 3),
    lambda coin: bhattacharyya_futures(ProcessSpec(coin), CausalState.S0, ProcessSpec(OTHER), CausalState.S0, 3),
    lambda coin: stationary_weights(coin, WeightMethod.THREE_STEP_MARGINAL).s0,
    lambda coin: classical_fidelity(future_distribution(coin, 0, 3), future_distribution(OTHER, 1, 3)),
], ids=["classical_complexity", "von_neumann_entropy", "output_overlap", "bhattacharyya_futures",
        "stationary_weights", "classical_fidelity"])
def test_a_float_for_one_coin_an_array_for_a_grid(call):
    assert type(call(OTHER)) is float
    assert isinstance(call(GRID), np.ndarray) and call(GRID).shape == HEADS.shape


@pytest.mark.parametrize("name, call", [
    ("trajectory_probability", lambda coin: trajectory_probability(coin, CausalState.S0, "01")),
    ("sample_trajectories", lambda coin: sample_trajectories(coin, CausalState.S0, 3, 10, 1)),
    ("block_gate_unitary", block_gate_unitary),
    ("gate_decomposition_max_deviation", gate_decomposition_max_deviation),
])
def test_one_coin_functions_refuse_a_grid(name, call):
    with pytest.raises(InvalidParameter, match=f"{name} takes one coin, got a grid: PerturbedCoin"):
        call(GRID)


def test_one_state_functions_refuse_a_batch():
    batch, one = run_circuit(GRID, STARTS, 2), run_circuit(OTHER, CausalState.S0, 2)
    ideal = ideal_output_state(GRID, STARTS, 2)
    for call in (lambda: visibility(batch, one), lambda: visibility(one, ideal)):
        with pytest.raises(InvalidParameter, match=r"visibility takes one state, got a batch of shape \(2, 3, 2, "):
            call()
    with pytest.raises(InvalidParameter, match="conditional_polarization takes one state, got a batch"):
        conditional_polarization(batch, "01")


@pytest.mark.parametrize("start", [np.array([0, 2]), np.array([-1]), np.array([0.0, 1.0]), np.array([True])],
                         ids=["two", "negative", "float", "bool"])
def test_a_start_array_holds_state_indices(start):
    with pytest.raises(InvalidParameter, match="a start must be a CausalState or state indices 0 and 1"):
        future_distribution(OTHER, start, 2)


# (holder call, the field's name and the shape it must have): a state's amplitudes and the density matrix go by
# what they hold; the second field of a holder takes the batch of its first
@pytest.mark.parametrize("build, message", [
    (lambda: PerturbedCoin(np.array([]), np.array([])), r"stay_heads must have shape \(\), got \(0,\)"),
    (lambda: PerturbedCoin(HEADS, TAILS[0]), r"stay_tails must have shape \(2, 3\), got \(3,\)"),
    (lambda: StationaryWeights(np.empty((2, 0)), np.empty((2, 0))), r"s0 must have shape \(2,\), got \(2, 0\)"),
    (lambda: StationaryWeights(np.array([0.5, 0.5]), 0.5), r"s1 must have shape \(2,\), got \(\)"),
    (lambda: OutcomeDistribution(1, np.empty((0, 2))), r"bins must have shape \(2,\), got \(0, 2\)"),
    (lambda: DensityMatrix2(np.empty((0, 2, 2))), r"density matrix must have shape \(2, 2\), got \(0, 2, 2\)"),
    (lambda: PhotonState(1, np.empty((0, 2, 2))), r"photon state must have shape \(2, 2\), got \(0, 2, 2\)"),
], ids=["PerturbedCoin-empty", "PerturbedCoin-mismatch", "StationaryWeights-empty", "StationaryWeights-mismatch",
        "OutcomeDistribution-empty", "DensityMatrix2-empty", "PhotonState-empty"])
def test_every_holder_refuses_an_empty_or_mismatched_batch(build, message):
    with pytest.raises(InvalidParameter, match=message):
        build()


EMPTY = np.array([], dtype=int)
PAIR = PerturbedCoin(np.array([0.2, 0.7]), np.array([0.4, 0.9]))  # a (2,) grid
TRIPLE = PerturbedCoin(np.array([0.2, 0.7, 0.5]), np.array([0.4, 0.9, 0.5]))  # a (3,) grid, which (2,) does not meet
THREE_WEIGHTS = StationaryWeights(np.array([0.2, 0.5, 0.9]), np.array([0.8, 0.5, 0.1]))


# (call, the error it must end in): each ended in a bare AttributeError or ValueError, or for the weight method
# returned the three-step weights, before one reader took every start and one check every pair of batches
@pytest.mark.parametrize("call, error", [
    (lambda: sample_trajectories(OTHER, 2, 3, 10, 1), InvalidParameter),
    (lambda: sample_trajectories(OTHER, np.array([0, 1]), 3, 10, 1), InvalidParameter),
    (lambda: future_distribution(OTHER, EMPTY, 3), InvalidParameter),
    (lambda: ideal_output_state(OTHER, EMPTY, 3), InvalidParameter),
    (lambda: run_circuit(OTHER, EMPTY, 3), InvalidParameter),
    (lambda: future_distribution(PAIR, np.array([0, 1, 0]), 3), DimensionMismatch),
    (lambda: visibility_sweep(OTHER, CausalState.S0, PAIR, np.array([0, 1, 0]), 3), DimensionMismatch),
    (lambda: output_overlap(ProcessSpec(PAIR), 0, ProcessSpec(TRIPLE), 0, 3), DimensionMismatch),
    (lambda: bhattacharyya_futures(ProcessSpec(PAIR), 0, ProcessSpec(TRIPLE), 0, 3), DimensionMismatch),
    (lambda: classical_fidelity(future_distribution(PAIR, 0, 3), future_distribution(TRIPLE, 0, 3)),
     DimensionMismatch),
    (lambda: superposition(PAIR, future_distribution(TRIPLE, 0, 3)), DimensionMismatch),
    (lambda: memory_density(PAIR, THREE_WEIGHTS), DimensionMismatch),
    (lambda: reconstruct_memory_density(PAIR, THREE_WEIGHTS, 2), DimensionMismatch),
    (lambda: counts_to_distribution([1.5, 2.5], 1), InvalidParameter),
    (lambda: fit_visibility([0, 1, 2, 3, 4.0], [1, np.nan, 1, 1, 1]), InvalidParameter),
    (lambda: stationary_weights(PerturbedCoin(0.3, 0.6), "exact"), InvalidParameter),
    (lambda: future_distribution(PerturbedCoin(0.3, 0.6), [[0], [0, 1]], 3), InvalidParameter),
    (lambda: counts_to_distribution([[1], [1, 2]], 1), InvalidParameter),
], ids=["sample_trajectories-int-start", "sample_trajectories-start-array", "future_distribution-empty-start",
        "ideal_output_state-empty-start", "run_circuit-empty-start", "future_distribution-start-against-coin",
        "visibility_sweep-start-against-coin", "output_overlap-a-against-b", "bhattacharyya_futures-a-against-b",
        "classical_fidelity-a-against-b", "superposition-distribution-against-coin",
        "memory_density-weights-against-coin", "reconstruct_memory_density-weights-against-coin",
        "counts_to_distribution-list", "fit_visibility-nan", "stationary_weights-string-method",
        "future_distribution-ragged-start", "counts_to_distribution-ragged"])
def test_an_unusable_input_ends_in_its_named_error(call, error):
    with pytest.raises(error):
        call()


def test_an_infinite_delay_is_refused_before_the_fit():
    with pytest.raises(InvalidParameter, match="delays and counts must be finite"):
        fit_visibility([0, 1, 2, 3, np.inf], [5, 1, 5, 5, 5])


def test_counts_may_be_a_list():
    assert counts_to_distribution([1, 2], 1).bins.tolist() == [1 / 3, 2 / 3]


@pytest.mark.parametrize("s0", [np.array([[0.2, 0.5], [0.7, 0.1]]), np.array(0.3)], ids=["more-axes", "fewer-axes"])
def test_reconstruct_memory_density_meets_weights_with_more_or_fewer_axes_than_the_coin(s0):
    # against a (2,) coin: no weight axis may meet the circuit's start axis, which runs in front of the coin's
    batch = reconstruct_memory_density(PAIR, StationaryWeights(s0, 1.0 - s0), 3).matrix
    grid = np.broadcast_shapes(s0.shape, (2,))
    assert batch.shape == grid + (2, 2)
    for index in np.ndindex(grid):
        coin = PerturbedCoin(float(PAIR.stay_heads[index[-1]]), float(PAIR.stay_tails[index[-1]]))
        w = float(np.broadcast_to(s0, grid)[index])
        assert same_bits(batch[index], reconstruct_memory_density(coin, StationaryWeights(w, 1.0 - w), 3).matrix)


@pytest.mark.parametrize("start", [1, np.int64(0)], ids=["int", "numpy-int"])
def test_sample_trajectories_reads_an_index_start_as_its_causal_state(start):
    counts = sample_trajectories(OTHER, start, 4, 1000, 3)
    assert counts.tobytes() == sample_trajectories(OTHER, CausalState(int(start)), 4, 1000, 3).tobytes()


def test_step_counts_are_held_as_python_ints():
    state = run_circuit(OTHER, CausalState.S0, np.int64(2))
    assert type(state.steps_applied) is int and json.loads(json.dumps(_photon_json(state)))["steps"] == 2
    assert type(PhotonState(np.int64(3), run_circuit(OTHER, CausalState.S1, 3).amplitudes).steps_applied) is int
    assert type(future_distribution(OTHER, CausalState.S0, np.int64(3)).steps) is int
