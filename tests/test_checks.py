"""The oracle suites run as grid passes; these tests pin them to per-coin
loops over the public scalar API, which run the same kernels one coin at a
time, and check that the batch validation reaches every grid element.
"""

import tracemalloc

import numpy as np
import pytest

from qcoin import checks, circuit
from qcoin.checks import probability_grid, run_oracle_checks
from qcoin.cli import MIN_GRID_STEP
from qcoin.circuit import (
    apply_block,
    arrival_time_distribution,
    block_norm_accounting,
    prepare_input,
    reconstruct_memory_density,
    run_circuit,
)
from qcoin.constants import ALLOCATION_BUDGET_BYTES
from qcoin.errors import InvalidParameter, NonPhysicalState, StepCountTooLarge
from qcoin.markov import (
    CausalState,
    PerturbedCoin,
    WeightMethod,
    _require_distribution,
    _require_weights,
    classical_complexity,
    future_distribution,
    stationary_weights,
)
from qcoin.quantum import (
    ProcessSpec,
    _entropy,
    _require_density,
    _require_normalized,
    bhattacharyya_futures,
    ideal_output_state,
    memory_density,
    output_overlap,
    von_neumann_entropy,
)

STARTS = (CausalState.S0, CausalState.S1)
SMALL = {"grid_step": 0.25, "step_counts": (1, 2, 3), "identity_draws": 50, "seed": 11}
# The bundled preset's deviations when the suites became grid passes
# (printed by oracle-check as 5.551e-16, 3.331e-16, 7.772e-16, 9.992e-16, 0).
PRESET_CEILINGS = {
    "circuit_vs_superposition": 5.551115123125783e-16,
    "overlap_vs_bhattacharyya": 3.3306690738754696e-16,
    "reconstruction_vs_direct_density": 7.771561172376096e-16,
    "success_probability": 9.992007221626409e-16,
    "quantum_below_classical_complexity": 0.0,
}


class Worst:
    """Running maximum that keeps the first location reaching it."""

    def __init__(self):
        self.value, self.at = 0.0, None

    def add(self, value, at):
        if self.at is None or value > self.value:
            self.value, self.at = max(value, 0.0), at


def grid_at(l, m, start, steps):
    return {"l": l, "m": m, "start": start, "steps": steps}


def circuit_loop(grid, step_counts):
    worst = Worst()
    for l, m in grid:
        coin = PerturbedCoin(l, m)
        for start in STARTS:
            for steps in step_counts:
                state = run_circuit(coin, start, steps)
                ideal = ideal_output_state(coin, start, steps)
                dist, _ = arrival_time_distribution(state)
                enum = future_distribution(coin, start, steps)
                dev = max(float(np.abs(state.amplitudes - ideal.amplitudes).max()),
                          float(np.abs(dist.bins - enum.bins).max()))
                worst.add(dev, grid_at(l, m, start.name, steps))
    return worst


def overlap_loop(draws, seed):
    rng = np.random.default_rng(seed)
    worst = Worst()
    for i in range(draws):
        la, ma, lb, mb = rng.random(), rng.random(), rng.random(), rng.random()
        start_a, start_b = STARTS[rng.integers(2)], STARTS[rng.integers(2)]
        steps = int(rng.integers(1, 4))
        proc_a, proc_b = ProcessSpec(PerturbedCoin(la, ma)), ProcessSpec(PerturbedCoin(lb, mb))
        dev = abs(output_overlap(proc_a, start_a, proc_b, start_b, steps)
                  - bhattacharyya_futures(proc_a, start_a, proc_b, start_b, steps + 1))
        worst.add(dev, {"draw": i, "steps": steps,
                        "process_a": {"l": la, "m": ma, "start": start_a.name},
                        "process_b": {"l": lb, "m": mb, "start": start_b.name}})
    return worst


def reconstruction_loop(grid):
    worst = Worst()
    for l, m in grid:
        if l == 1.0 and m == 1.0:
            continue
        coin = PerturbedCoin(l, m)
        dev = 0.0
        for method in (WeightMethod.EXACT_STATIONARY, WeightMethod.THREE_STEP_MARGINAL):
            weights = stationary_weights(coin, method)
            rebuilt = reconstruct_memory_density(coin, weights, 3)
            direct = memory_density(coin, weights)
            dev = max(dev, float(np.abs(rebuilt.matrix - direct.matrix).max()))
        worst.add(dev, grid_at(l, m, None, 3))
    return worst


def success_loop(grid, step_counts):
    worst = Worst()
    for l, m in grid:
        coin = PerturbedCoin(l, m)
        for start in STARTS:
            state = prepare_input(coin, start)
            for steps in range(1, max(step_counts) + 1):
                retained, discarded = block_norm_accounting(state, coin)
                dev = abs(retained + discarded - 1.0)
                state = apply_block(state, coin)
                if steps in step_counts:
                    dev = max(dev, abs(state.success_probability - 0.5**steps))
                worst.add(dev, grid_at(l, m, start.name, steps))
    return worst


def complexity_loop(grid):
    worst = Worst()
    worst.value = -np.inf
    for l, m in grid:
        if l == 1.0 and m == 1.0:
            continue
        coin = PerturbedCoin(l, m)
        weights = stationary_weights(coin)
        gap = von_neumann_entropy(memory_density(coin, weights)) - classical_complexity(weights)
        if worst.at is None or gap > worst.value:
            worst.value, worst.at = gap, grid_at(l, m, None, None)
    worst.value = max(worst.value, 0.0)
    return worst


def test_each_suite_equals_a_per_coin_loop_over_the_scalar_api():
    grid = probability_grid(SMALL["grid_step"])
    expected = [
        circuit_loop(grid, SMALL["step_counts"]),
        overlap_loop(SMALL["identity_draws"], SMALL["seed"]),
        reconstruction_loop(grid),
        success_loop(grid, SMALL["step_counts"]),
        complexity_loop(grid),
    ]
    results = run_oracle_checks(**SMALL)
    for result, loop in zip(results, expected):
        assert result.max_abs_deviation == loop.value, result.name
        assert result.worst_at == loop.at, result.name
        assert result.passed


def test_bundled_preset_deviations_stay_at_their_ceilings():
    results = run_oracle_checks()
    assert {r.name: r.max_abs_deviation for r in results}.keys() == PRESET_CEILINGS.keys()
    for r in results:
        assert r.max_abs_deviation <= PRESET_CEILINGS[r.name], r.name
        assert r.passed


def test_split_chunks_give_identical_results(monkeypatch):
    whole = run_oracle_checks(**SMALL)
    whole_fault = run_oracle_checks(**SMALL, inject_fault=True)
    # 2 coins per grid chunk at M = 3, 2 draws per identity chunk
    monkeypatch.setattr(checks, "CHUNK_AMPLITUDES", 64)
    assert run_oracle_checks(**SMALL) == whole
    assert run_oracle_checks(**SMALL, inject_fault=True) == whole_fault


def draw_loop(rng, draws):
    """The scalar reference for the identity draws: one Generator call per value."""
    return np.array([(rng.random(), rng.random(), rng.random(), rng.random(),
                      rng.integers(2), rng.integers(2), rng.integers(1, 4))
                     for _ in range(draws)]).reshape(-1, 7)


def assert_decode_matches(rng, ref_table, ref_state, draws):
    table = checks._draw_table(rng, draws)
    assert table.dtype == ref_table.dtype and table.tobytes() == ref_table.tobytes(), draws
    assert rng.bit_generator.state == ref_state, draws


def test_decoded_draws_equal_the_scalar_loop():
    # the loop runs once per seed; its prefix and state at each length are the references
    lengths = (1, 2, 3)  # every seed
    long_lengths = (2047, 2048, 2049, 5001)  # across the 2048-draw chunk, on fewer seeds for time
    for seed in range(500):
        ref, done, tables, states = np.random.default_rng(seed), 0, [], {}
        for draws in lengths + (long_lengths if seed < 20 else ()):
            tables.append(draw_loop(ref, draws - done))
            done, states[draws] = draws, ref.bit_generator.state
        table = np.concatenate(tables)
        for draws, state in states.items():
            assert_decode_matches(np.random.default_rng(seed), table[:draws], state, draws)


def pcg64_state_with_word(word, value):
    """A PCG64 state whose raw word number `word` (from 0) is `value`: invert
    the XSL-RR output (value = rotr64(high ^ low, high >> 58)) at a chosen
    high half, then step the state back.
    """
    high = 0x9E3779B97F4A7C15
    rot = high >> 58
    mixed = ((value << rot) | (value >> (64 - rot))) & (2**64 - 1)
    bitgen = np.random.PCG64()
    bitgen.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                    "state": {"state": (high << 64) | (high ^ mixed), "inc": 0xDA3E39CB94B95BDB}}
    return bitgen.advance(2**128 - word - 1).state


@pytest.mark.parametrize("word, value", [(5, 0xDEADBEEF00000000), (10, 0xDEADBEEF)],
                         ids=["first-draw", "second-draw"])
def test_a_rejected_step_count_draw_falls_back_to_the_loop(word, value):
    # a zero low (word 5) or high (word 10) half is where integers(1, 4) reads its 32 bits
    state = pcg64_state_with_word(word, value)
    rng, ref = np.random.default_rng(), np.random.default_rng()
    rng.bit_generator.state = ref.bit_generator.state = state
    assert rng.bit_generator.random_raw(11)[word] == value
    rng.bit_generator.state = state
    table = draw_loop(ref, 4)
    # the rejection read one more 32-bit half, so the loop ends with one buffered
    assert ref.bit_generator.state["has_uint32"] == 1
    assert_decode_matches(rng, table, ref.bit_generator.state, 4)


def test_a_buffered_half_at_the_start_falls_back_to_the_loop():
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    rng.integers(2), ref.integers(2)  # leaves the high half of a word buffered
    table = draw_loop(ref, 6)
    assert_decode_matches(rng, table, ref.bit_generator.state, 6)


@pytest.mark.parametrize("step_counts", [(1, 2, 3), (3, 1)])
def test_canary_is_located_at_the_first_grid_point(step_counts):
    result = run_oracle_checks(grid_step=0.5, step_counts=step_counts, identity_draws=5,
                               inject_fault=True)[0]
    assert result.name == "circuit_vs_superposition"
    assert result.max_abs_deviation == 1e-6
    assert not result.passed
    assert result.worst_at == {"l": 0.0, "m": 0.0, "start": "S0", "steps": step_counts[0]}


@pytest.mark.parametrize("step_counts", [(13,), (2, 13), (0,)])
def test_step_counts_outside_the_circuit_bound_raise(step_counts):
    with pytest.raises(StepCountTooLarge):
        run_oracle_checks(grid_step=0.5, step_counts=step_counts, identity_draws=1)


@pytest.mark.parametrize("draws", [0, -5])
def test_identity_check_needs_a_draw(draws):
    # a check over no draws is not a check
    with pytest.raises(InvalidParameter, match=f"identity_draws must be >= 1, got {draws}"):
        run_oracle_checks(grid_step=0.5, step_counts=(1,), identity_draws=draws)


def test_grid_outside_the_unit_square_is_rejected():
    # a 0.35 grid has a tick at 1.05, a 0.3 grid stops at 0.9
    for grid_step in (0.35, 0.3):
        with pytest.raises(InvalidParameter, match=f"grid_step {grid_step} does not divide 1"):
            run_oracle_checks(grid_step=grid_step, step_counts=(1,), identity_draws=1)


def _tuple_grid(step):
    """The grid as a list of (l, m) tuples from one Python loop over the ticks."""
    ticks = np.round(np.arange(0.0, 1.0 + step / 2.0, step), 10)
    return [(float(a), float(b)) for a in ticks for b in ticks]


@pytest.mark.parametrize("step", [0.5, 0.25, 0.05, 0.01, 1 / 127])
def test_grid_rows_equal_the_tuple_loop(step):
    grid = probability_grid(step)
    assert grid.dtype == np.float64
    assert np.array_equal(grid, _tuple_grid(step))


def test_finest_admitted_grid_stays_within_a_few_budgets():
    tracemalloc.start()
    try:
        grid = probability_grid(MIN_GRID_STEP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.nbytes == ALLOCATION_BUDGET_BYTES
    assert peak < 3 * ALLOCATION_BUDGET_BYTES


def _last_bad(good, bad):
    """A batch of three where only the last element fails."""
    return np.stack([good, good, bad])


@pytest.mark.parametrize("check, batch, error", [
    (_require_distribution, _last_bad([0.5, 0.5], [0.6, 0.6]), InvalidParameter),
    (_require_distribution, _last_bad([0.5, 0.5], [1.5, -0.5]), InvalidParameter),
    (lambda x: _require_normalized(x, "photon state"),
     _last_bad(np.eye(2, dtype=complex) / np.sqrt(2), np.eye(2, dtype=complex)), InvalidParameter),
    (_require_density, _last_bad(np.eye(2) / 2, [[0.5, 0.1], [0.0, 0.5]]), InvalidParameter),
    (_require_density, _last_bad(np.eye(2) / 2, np.eye(2)), InvalidParameter),
    (_require_density, _last_bad(np.eye(2) / 2, [[1.5, 0.0], [0.0, -0.5]]), InvalidParameter),
    (_entropy, _last_bad(np.eye(2) / 2, [[1.5, 0.0], [0.0, -0.5]]), NonPhysicalState),
    (lambda x: _require_weights(x[:, 0], x[:, 1]), _last_bad([0.5, 0.5], [0.7, 0.7]), InvalidParameter),
    (lambda x: _require_weights(x[:, 0], x[:, 1]), _last_bad([0.5, 0.5], [1.5, -0.5]), InvalidParameter),
], ids=["sum", "range", "norm", "hermitian", "trace", "psd", "entropy-floor", "weights-sum",
        "weights-sign"])
def test_batch_validators_check_every_element(check, batch, error):
    check(np.asarray(batch)[:2])
    with pytest.raises(error):
        check(np.asarray(batch))


def _spoil_last(result, change):
    """A copy of a batch result with `change` applied to its last leading element."""
    result = np.array(result)
    result[-1] = change(result[-1])
    return result


@pytest.mark.parametrize("module, name, spoil, message", [
    (circuit, "_block", lambda out: _spoil_last(out, lambda x: x + 1e-3),
     "photon state is not normalized"),
    (checks, "_superposition", lambda out: _spoil_last(out, lambda x: x + 1e-3),
     "output state is not normalized"),
    (checks, "_bin_probabilities", lambda out: _spoil_last(out, lambda x: x * 0.999),
     "probabilities sum to"),
    (checks, "_stationary", lambda out: (out[0], _spoil_last(out[1], lambda x: x + 0.01)),
     "weights must sum to 1"),
    (checks, "_mixture", lambda out: _spoil_last(out, lambda x: x + [[0.0, 0.01], [0.0, 0.0]]),
     "not Hermitian"),
], ids=["photon-norm", "ideal-norm", "arrival-sum", "weights", "hermitian"])
def test_suite_checks_reach_the_last_grid_element(monkeypatch, module, name, spoil, message):
    kernel = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: spoil(kernel(*args)))
    with pytest.raises(InvalidParameter, match=message):
        run_oracle_checks(grid_step=0.5, step_counts=(1, 2), identity_draws=1)


@pytest.mark.parametrize("name", ["_superposition", "_bin_probabilities"])
def test_deviation_in_the_last_bin_of_the_last_coin_is_found(monkeypatch, name):
    # small enough for the norm and probability-sum checks to let it through
    size = 1e-10
    kernel = getattr(checks, name)

    def planted(*args):
        out = np.array(kernel(*args))
        out[(-1,) * out.ndim] -= size  # last coin, start S1, last bin (and polarization V)
        return out

    monkeypatch.setattr(checks, name, planted)
    result = run_oracle_checks(grid_step=0.5, step_counts=(2, 1), identity_draws=1)[0]
    assert result.max_abs_deviation == pytest.approx(size, rel=1e-5)
    assert result.worst_at == {"l": 1.0, "m": 1.0, "start": "S1", "steps": 2}
