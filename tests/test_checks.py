"""The oracle suites run as grid passes; these tests pin them to per-coin
loops over the public scalar API, which run the same kernels one coin at a
time, and check that the batch validation reaches every grid element.
"""

import functools
import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from qcoin import checks, circuit, markov, quantum
from qcoin.checks import probability_grid, run_oracle_checks
from qcoin.cli import EXIT_OK, MIN_GRID_STEP, main
from qcoin.circuit import (
    PhotonState,
    apply_block,
    arrival_time_distribution,
    block_norm_accounting,
    prepare_input,
    reconstruct_memory_density,
    run_circuit,
)
from qcoin.constants import ALLOCATION_BUDGET_BYTES
from qcoin.errors import InvalidParameter, NonPhysicalState, StepCountTooLarge
from qcoin.interference import visibility
from qcoin.markov import (
    CausalState,
    OutcomeDistribution,
    PerturbedCoin,
    StationaryWeights,
    WeightMethod,
    classical_complexity,
    future_distribution,
    stationary_weights,
)
from qcoin.quantum import (
    DensityMatrix2,
    ProcessSpec,
    bhattacharyya_futures,
    causal_pair,
    ideal_output_state,
    memory_density,
    output_overlap,
    von_neumann_entropy,
)

STARTS = (CausalState.S0, CausalState.S1)
SMALL = {"grid_step": 0.25, "step_counts": (1, 2, 3), "identity_draws": 50, "seed": 11}
# The bundled preset's grid deviations when the suites became grid passes
# (printed by oracle-check as 5.551e-16, 7.772e-16, 9.992e-16, 0), and its
# identity deviations since the draws became one table of doubles (2.220e-16
# for the Bhattacharyya route, 3.331e-16 for the transfer matrix).
PRESET_CEILINGS = {
    "circuit_vs_superposition": 5.551115123125783e-16,
    "overlap_vs_bhattacharyya": 2.220446049250313e-16,
    "transfer_matrix_vs_bin_sum": 3.3306690738754696e-16,
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
                dist = arrival_time_distribution(state)
                enum = future_distribution(coin, start, steps)
                dev = max(float(np.abs(state.amplitudes - ideal.amplitudes).max()),
                          float(np.abs(dist.bins - enum.bins).max()))
                worst.add(dev, grid_at(l, m, start.name, steps))
    return worst


def identity_draws(draws, seed):
    """The identity suite's process pairs, one `rng.random(7)` call per draw, each
    with its location and the scalar bin sum of its M-step output overlap."""
    rng = np.random.default_rng(seed)
    for i in range(draws):
        la, ma, lb, mb, u_a, u_b, u_steps = rng.random(7).tolist()
        start_a, start_b = STARTS[u_a >= 0.5], STARTS[u_b >= 0.5]
        steps = 1 + math.floor(3.0 * u_steps)
        proc_a, proc_b = ProcessSpec(PerturbedCoin(la, ma)), ProcessSpec(PerturbedCoin(lb, mb))
        bin_sum = checks._overlap(future_distribution(proc_a.coin, start_a, steps).bins,
                           future_distribution(proc_b.coin, start_b, steps).bins,
                           causal_pair(proc_a.coin), causal_pair(proc_b.coin))
        at = {"draw": i, "steps": steps,
              "process_a": {"l": la, "m": ma, "start": start_a.name},
              "process_b": {"l": lb, "m": mb, "start": start_b.name}}
        yield (proc_a, start_a, proc_b, start_b, steps), bin_sum, at


def overlap_loop(draws, seed):
    worst = Worst()
    for (proc_a, start_a, proc_b, start_b, steps), bin_sum, at in identity_draws(draws, seed):
        worst.add(abs(bin_sum - bhattacharyya_futures(proc_a, start_a, proc_b, start_b, steps + 1)), at)
    return worst


def transfer_loop(draws, seed):
    worst = Worst()
    for args, bin_sum, at in identity_draws(draws, seed):
        worst.add(abs(output_overlap(*args) - bin_sum), at)
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
                state = apply_block(state, coin)
                dev = abs(2.0 * block_norm_accounting(state) - 1.0)
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
        transfer_loop(SMALL["identity_draws"], SMALL["seed"]),
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


def _count_calls(monkeypatch, module, names, calls):
    """Wrap each function in `names` in `module`'s namespace so that it adds its steps argument (or None)
    to `calls[name]`."""
    for name in names:
        public = getattr(module, name)

        def counted(*args, _name=name, _public=public):
            calls[_name].append(args[2] if len(args) > 2 else None)
            return _public(*args)
        monkeypatch.setattr(module, name, counted)


def test_one_chunk_runs_each_route_once(monkeypatch):
    calls = {name: [] for name in ("reconstruct_memory_density", "memory_density", "stationary_weights",
                                   "apply_block", "block_norm_accounting", "future_distribution", "superposition",
                                   "arrival_time_distribution")}
    _count_calls(monkeypatch, checks, calls, calls)
    run_oracle_checks(grid_step=0.25, step_counts=(3, 1), identity_draws=1)
    assert {name: len(made) for name, made in calls.items()} == {
        "reconstruct_memory_density": 1, "memory_density": 1, "stationary_weights": 2,  # one per weight method
        "apply_block": 3, "block_norm_accounting": 3, "future_distribution": 4, "superposition": 2,
        "arrival_time_distribution": 2}
    # one recurrence per step count, then the two sides of the identity draw, whose M is 1 at seed 7
    assert calls["future_distribution"] == [1, 3, 1, 1]


def test_the_circuit_suite_makes_one_product_per_block_and_one_recurrence_per_step_count(monkeypatch):
    calls = {"_block": [], "future_distribution": []}
    _count_calls(monkeypatch, circuit, ["_block"], calls)
    # the suite's own recurrence, and any that the superposition would run
    _count_calls(monkeypatch, quantum, ["future_distribution"], calls)
    _count_calls(monkeypatch, checks, ["future_distribution"], calls)
    checks._circuit_suites(probability_grid(0.25), (4, 2), inject_fault=False)
    assert len(calls["_block"]) == 4
    assert calls["future_distribution"] == [2, 4]


def test_split_chunks_give_identical_results(monkeypatch):
    whole = run_oracle_checks(**SMALL)
    whole_fault = run_oracle_checks(**SMALL, inject_fault=True)
    # 2 coins per grid chunk at M = 3, 2 draws per identity chunk
    monkeypatch.setattr(checks, "CHUNK_AMPLITUDES", 64)
    assert run_oracle_checks(**SMALL) == whole
    assert run_oracle_checks(**SMALL, inject_fault=True) == whole_fault


@pytest.mark.parametrize("step_counts", [(1, 2, 3), (3, 1)])
def test_canary_is_located_at_the_first_grid_point(step_counts):
    result = run_oracle_checks(grid_step=0.5, step_counts=step_counts, identity_draws=5,
                               inject_fault=True)[0]
    assert result.name == "circuit_vs_superposition"
    assert result.max_abs_deviation == 1e-6
    assert not result.passed
    assert result.worst_at == {"l": 0.0, "m": 0.0, "start": "S0", "steps": step_counts[0]}


@pytest.mark.parametrize("step_counts", [(13,), (2, 13), (0,), ()])
def test_step_counts_outside_the_circuit_bound_raise(step_counts):
    error = StepCountTooLarge if step_counts else InvalidParameter
    with pytest.raises(error, match="steps must be in 1..12" if step_counts else "step_counts must name"):
        run_oracle_checks(grid_step=0.5, step_counts=step_counts, identity_draws=1)


@pytest.mark.parametrize("draws", [0, -5])
def test_identity_check_needs_a_draw(draws):
    # a check over no draws is not a check
    with pytest.raises(InvalidParameter, match=f"identity_draws must be >= 1, got {draws}"):
        run_oracle_checks(grid_step=0.5, step_counts=(1,), identity_draws=draws)


@pytest.mark.parametrize("draws, seed, message", [
    (1, -1, "seed must be >= 0, got -1"),
    (2.5, 7, "identity_draws must be an integer, got 2.5"),
], ids=["negative-seed", "fractional-draws"])
def test_seed_and_identity_draws_must_be_integers_in_range(draws, seed, message):
    with pytest.raises(InvalidParameter, match=message):
        run_oracle_checks(grid_step=0.5, step_counts=(1,), identity_draws=draws, seed=seed)


def test_grid_outside_the_unit_square_is_rejected():
    # a 0.35 grid has a tick at 1.05, a 0.3 grid stops at 0.9; a step of 0, below 0 or NaN makes no grid
    for grid_step, message in ((0.35, "grid_step 0.35 does not divide 1"), (0.3, "grid_step 0.3 does not divide 1"),
                               (0.0, r"grid_step must be in \(0, 1\], got 0.0"),
                               (-0.5, r"grid_step must be in \(0, 1\], got -0.5"),
                               (math.nan, r"grid_step must be in \(0, 1\], got nan")):
        with pytest.raises(InvalidParameter, match=message):
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
    (lambda x: OutcomeDistribution(1, x), _last_bad([0.5, 0.5], [0.6, 0.6]), InvalidParameter),
    (lambda x: OutcomeDistribution(1, x), _last_bad([0.5, 0.5], [1.5, -0.5]), InvalidParameter),
    (lambda x: PhotonState(1, x), _last_bad(np.eye(2) / np.sqrt(2), np.eye(2)), InvalidParameter),
    (DensityMatrix2, _last_bad(np.eye(2) / 2, [[0.5, 0.1], [0.0, 0.5]]), InvalidParameter),
    (DensityMatrix2, _last_bad(np.eye(2) / 2, np.eye(2)), InvalidParameter),
    (DensityMatrix2, _last_bad(np.eye(2) / 2, [[1.5, 0.0], [0.0, -0.5]]), InvalidParameter),
    # a DensityMatrix2 refuses what the entropy's looser floor catches, so a stand-in carries the matrix
    (lambda x: von_neumann_entropy(SimpleNamespace(matrix=x)), _last_bad(np.eye(2) / 2, [[1.5, 0.0], [0.0, -0.5]]),
     NonPhysicalState),
    (lambda x: StationaryWeights(x[:, 0], x[:, 1]), _last_bad([0.5, 0.5], [0.7, 0.7]), InvalidParameter),
    (lambda x: StationaryWeights(x[:, 0], x[:, 1]), _last_bad([0.5, 0.5], [1.5, -0.5]), InvalidParameter),
], ids=["sum", "range", "norm", "hermitian", "trace", "psd", "entropy-floor", "weights-sum",
        "weights-sign"])
def test_batch_validators_check_every_element(check, batch, error):
    check(np.asarray(batch)[:2])
    with pytest.raises(error):
        check(np.asarray(batch))


@pytest.mark.parametrize("make", [
    lambda: StationaryWeights(math.nan, math.nan),
    lambda: DensityMatrix2(np.full((2, 2), math.nan)),
    lambda: PhotonState(1, np.full((2, 2), math.nan)),
], ids=["StationaryWeights", "DensityMatrix2", "PhotonState"])
def test_validators_refuse_nan(make):
    # each check accepts its range, so NaN fails it
    with pytest.raises(InvalidParameter):
        make()


def _spoil_last(result, change):
    """A copy of a batch result with `change` applied to its last leading element."""
    result = np.array(result)
    result[-1] = change(result[-1])
    return result


# Each entry replaces a kernel or a result constructor that a public function looks up in its module,
# so the spoiled last grid element reaches the validator through the suite's own calls.
@pytest.mark.parametrize("module, name, spoil, message", [
    (circuit, "_block", lambda block: lambda *args: _spoil_last(block(*args), lambda x: x + 1e-3),
     "photon state is not normalized"),
    (quantum, "causal_pair", lambda pair: lambda *args: _spoil_last(pair(*args), lambda x: x + 1e-3),
     "photon state is not normalized"),
    (circuit, "OutcomeDistribution", lambda cls: lambda steps, bins: cls(steps, _spoil_last(bins, lambda x: x * 0.999)),
     "probabilities sum to"),
    (markov, "StationaryWeights", lambda cls: lambda s0, s1: cls(s0, _spoil_last(s1, lambda x: x + 0.01)),
     "weights must sum to 1"),
    (quantum, "DensityMatrix2", lambda cls: lambda m: cls(_spoil_last(m, lambda x: x + [[0.0, 0.01], [0.0, 0.0]])),
     "not symmetric"),
], ids=["photon-norm", "ideal-norm", "arrival-sum", "weights", "hermitian"])
def test_suite_checks_reach_the_last_grid_element(monkeypatch, module, name, spoil, message):
    monkeypatch.setattr(module, name, spoil(getattr(module, name)))
    with pytest.raises(InvalidParameter, match=message):
        run_oracle_checks(grid_step=0.5, step_counts=(1, 2), identity_draws=1)


def _planted(out):
    """`out` with 1e-10 taken off its last coin, start S1, last bin (and polarization V)."""
    out = np.array(out)
    out[(-1,) * out.ndim] -= 1e-10
    return out


@pytest.mark.parametrize("name, plant", [
    ("superposition", lambda state: replace(state, amplitudes=_planted(state.amplitudes))),
    ("arrival_time_distribution", lambda out: OutcomeDistribution(out.steps, _planted(out.bins))),
], ids=["superposition", "arrival_time_distribution"])
def test_deviation_in_the_last_bin_of_the_last_coin_is_found(monkeypatch, name, plant):
    # small enough for the norm and probability-sum checks to let it through
    public = getattr(checks, name)
    monkeypatch.setattr(checks, name, lambda *args: plant(public(*args)))
    result = run_oracle_checks(grid_step=0.5, step_counts=(2, 1), identity_draws=1)[0]
    assert result.max_abs_deviation == pytest.approx(1e-10, rel=1e-5)
    assert result.worst_at == {"l": 1.0, "m": 1.0, "start": "S1", "steps": 2}


@pytest.fixture
def builds(monkeypatch):
    """The coin objects whose transition matrix and causal pair get built, one entry per build; the lists
    keep the coins alive, so no two of them share an id."""
    built = {"_transition": [], "_causal_pair": []}
    for name, coins in built.items():
        build = PerturbedCoin.__dict__[name].func

        def counted(coin, _build=build, _coins=coins):
            _coins.append(coin)
            return _build(coin)
        cached = functools.cached_property(counted)
        cached.__set_name__(PerturbedCoin, name)
        monkeypatch.setattr(PerturbedCoin, name, cached)
    return built


def test_a_bundled_oracle_check_builds_each_coins_matrix_and_pair_once(builds, tmp_path):
    assert main(["oracle-check", "--out", str(tmp_path)]) == EXIT_OK
    for name, coins in builds.items():
        assert coins and len(coins) == len({id(coin) for coin in coins}), name
    # the one grid chunk: a coin for the circuit suites and a (1, coin) row for the weight suites; the identity
    # draws: two coins for each of M = 1, 2, 3
    assert {name: len(coins) for name, coins in builds.items()} == {"_transition": 8, "_causal_pair": 8}


def test_a_deep_horizon_call_sequence_builds_two_of_each(builds):
    a, b = ProcessSpec(PerturbedCoin(0.35, 0.8)), ProcessSpec(PerturbedCoin(0.6, 0.15))
    steps, start_a, start_b = 10, CausalState.S0, CausalState.S1
    psi, phi = run_circuit(a.coin, start_a, steps), run_circuit(b.coin, start_b, steps)
    ideal_output_state(a.coin, start_a, steps)
    visibility(psi, phi)
    output_overlap(a, start_a, b, start_b, steps)
    bhattacharyya_futures(a, start_a, b, start_b, steps + 1)
    assert {name: len(coins) for name, coins in builds.items()} == {"_transition": 2, "_causal_pair": 2}
