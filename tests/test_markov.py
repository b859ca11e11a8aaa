import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import bits_to_index, longhand_probability, trajectory_probability
from qcoin.checks import probability_grid
from qcoin.cli import cmd_futures, command_record
from qcoin.constants import TOL
from qcoin.encoding import all_bitstrings, lexicographic_bins
from qcoin.errors import DimensionMismatch, InvalidParameter, ReducibleChain, StepCountTooLarge
from qcoin.markov import (
    CHUNK_DRAWS,
    CausalState,
    OutcomeDistribution,
    PerturbedCoin,
    StationaryWeights,
    WeightMethod,
    classical_complexity,
    classical_fidelity,
    counts_to_distribution,
    entropy_bits,
    future_distribution,
    sample_trajectories,
    stationary_weights,
    transition_matrix,
)

S0, S1 = CausalState.S0, CausalState.S1
GRID_TICKS = [round(0.05 * i, 10) for i in range(21)]
# the four corner coins, then interior ones: emit_zero[1] < emit_zero[0] at (0.4, 0.7), the other
# order at (0.2, 0.3), and an exact tie at (0.25, 0.75) (1 - 0.7 is not 0.3 in float64)
SAMPLER_COINS = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.4, 0.7), (0.2, 0.3), (0.25, 0.75)]


def bins_of(steps, by_bits):
    """Bin array of a map from outcome string to value: the values in string
    order, reindexed by `lexicographic_bins` (the bit reversal is its own inverse)."""
    return np.array([by_bits[bits] for bits in all_bitstrings(steps)])[lexicographic_bins(steps)]


def string_map(dist):
    """Each outcome string, in string order, mapped to its bin of `dist`."""
    return {bits: float(dist.bins[bits_to_index(bits)]) for bits in all_bitstrings(dist.steps)}


def one_shot_sample(coin, start, steps, draws, seed):
    """The sampler's reference: all draws of a step in one call of one
    generator, each draw's emission gathered from its state, counted per bin."""
    rng = np.random.default_rng(seed)
    emit_zero = transition_matrix(coin)[:, 0]
    states = np.full(draws, start.index, dtype=np.int64)
    bins = np.zeros(draws, dtype=np.int64)
    for k in range(steps):
        emitted = (rng.random(draws) >= emit_zero[states]).astype(np.int64)
        bins |= emitted << k
        states = emitted
    return np.bincount(bins, minlength=2**steps)


def running_sum(terms):
    """The terms added one by one from 0.0, as `acc += r`."""
    acc = 0.0
    for r in terms:
        acc += r
    return acc


class TestPerturbedCoin:
    def test_rejects_out_of_range(self):
        for bad in (-0.1, 1.1, float("nan")):
            with pytest.raises(InvalidParameter):
                PerturbedCoin(bad, 0.5)
            with pytest.raises(InvalidParameter):
                PerturbedCoin(0.5, bad)

    @pytest.mark.parametrize("heads, tails, message", [
        (np.array([]), np.array([]), r"stay_heads must have shape \(\), got \(0,\); no axis may be empty"),
        (np.zeros((2, 1)), np.zeros((1, 3)), r"stay_tails must have shape \(2, 1\), got \(1, 3\)"),
    ], ids=["empty", "broadcastable"])
    def test_rejects_a_grid_without_one_nonempty_shape(self, heads, tails, message):
        with pytest.raises(InvalidParameter, match=message):
            PerturbedCoin(heads, tails)

    def test_a_later_write_to_the_input_leaves_the_coin_as_it_was(self):
        heads, tails = np.array([0.4, 0.2]), np.array([0.7, 0.9])
        coin = PerturbedCoin(heads, tails)
        heads[0], tails[1] = 7.0, -3.0
        assert coin.stay_heads.tolist() == [0.4, 0.2] and coin.stay_tails.tolist() == [0.7, 0.9]
        assert transition_matrix(coin)[0].tolist() == [[0.4, 0.6], [0.30000000000000004, 0.7]]
        for held in (coin.stay_heads, coin.stay_tails):
            assert held.dtype == np.float64 and not held.flags.writeable

    def test_transition_matrix_values(self):
        t = transition_matrix(PerturbedCoin(0.4, 0.7))
        assert np.allclose(t, [[0.4, 0.6], [0.3, 0.7]], atol=1e-15, rtol=0.0)
        assert transition_matrix(PerturbedCoin(1.0, 1.0)).tolist() == [[1, 0], [0, 1]]
        assert transition_matrix(PerturbedCoin(0.5, 0.5)).tolist() == [[0.5, 0.5], [0.5, 0.5]]

    def test_rows_sum_to_one_over_grid(self):
        for l, m in probability_grid().tolist():
            t = transition_matrix(PerturbedCoin(l, m))
            assert abs(t[0].sum() - 1.0) <= 1e-12
            assert abs(t[1].sum() - 1.0) <= 1e-12


class TestStationaryWeights:
    def test_exact_two_state_fixed_point(self):
        w = stationary_weights(PerturbedCoin(0.4, 0.7))
        assert w.s0 == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert w.s1 == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_exact_matches_eigenvector_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            coin = PerturbedCoin(rng.random() * 0.99, rng.random() * 0.99)
            w = stationary_weights(coin)
            t = transition_matrix(coin)
            vals, vecs = np.linalg.eig(t.T)
            pi = np.abs(vecs[:, np.argmax(vals.real)].real)
            pi /= pi.sum()
            assert w.s0 == pytest.approx(pi[0], abs=1e-10)

    def test_symmetric_chain_is_half_for_both_methods(self):
        coin = PerturbedCoin(0.5, 0.5)
        for method in WeightMethod:
            w = stationary_weights(coin, method)
            assert w.s0 == pytest.approx(0.5, abs=1e-12)

    def test_three_step_marginal_matches_oracle(self):
        l, m = 0.4, 0.7
        flip_s0 = sum(
            longhand_probability(l, m, 0, "".join(b))
            for b in itertools.product("01", repeat=3)
            if b[2] == "1"
        )
        flip_s1 = sum(
            longhand_probability(l, m, 1, "".join(b))
            for b in itertools.product("01", repeat=3)
            if b[2] == "0"
        )
        w = stationary_weights(PerturbedCoin(l, m), WeightMethod.THREE_STEP_MARGINAL)
        assert w.s0 == pytest.approx(flip_s1 / (flip_s0 + flip_s1), abs=1e-12)
        # stays close to the exact fixed point (identical in exact arithmetic)
        assert abs(w.s0 - 1.0 / 3.0) < 5e-3

    def test_detailed_balance_over_grid(self):
        for l, m in probability_grid().tolist():
            if l == 1.0 and m == 1.0:
                continue
            w = stationary_weights(PerturbedCoin(l, m))
            assert abs(w.s0 * (1.0 - l) - w.s1 * (1.0 - m)) <= 1e-12

    def test_reducible_chain_raises_for_both_methods(self):
        for method in WeightMethod:
            with pytest.raises(ReducibleChain):
                stationary_weights(PerturbedCoin(1.0, 1.0), method)

    def test_absorbing_edges_are_well_defined(self):
        assert stationary_weights(PerturbedCoin(1.0, 0.5)).s0 == 1.0
        assert stationary_weights(PerturbedCoin(0.5, 1.0)).s0 == 0.0
        assert stationary_weights(PerturbedCoin(1.0, 0.5), WeightMethod.THREE_STEP_MARGINAL).s0 == 1.0

    def test_a_later_write_to_the_input_leaves_the_weights_as_they_were(self):
        s0, s1 = np.array([0.5, 0.25]), np.array([0.5, 0.75])
        w = StationaryWeights(s0, s1)
        s0[0], s1[1] = -3.0, 4.0
        assert w.s0.tolist() == [0.5, 0.25] and w.s1.tolist() == [0.5, 0.75]
        for held in (w.s0, w.s1):
            assert held.dtype == np.float64 and not held.flags.writeable

    def test_explicit_weights_validate(self):
        StationaryWeights(0.5, 0.5)
        with pytest.raises(InvalidParameter):
            StationaryWeights(0.6, 0.6)
        with pytest.raises(InvalidParameter):
            StationaryWeights(-0.1, 1.1)


class TestClassicalComplexity:
    def test_uniform_and_deterministic(self):
        assert classical_complexity(StationaryWeights(0.5, 0.5)) == 1.0
        assert classical_complexity(StationaryWeights(1.0, 0.0)) == 0.0
        assert classical_complexity(StationaryWeights(0.0, 1.0)) == 0.0

    def test_third_against_direct_entropy_formula(self):
        d0 = 1.0 / 3.0
        expected = -(d0 * math.log2(d0) + (1 - d0) * math.log2(1 - d0))
        got = classical_complexity(stationary_weights(PerturbedCoin(0.4, 0.7)))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_maximized_exactly_at_half(self):
        values = np.linspace(0.0, 1.0, 101)
        entropies = [classical_complexity(StationaryWeights(d, 1.0 - d)) for d in values]
        assert max(entropies) == 1.0
        for d, h in zip(values, entropies):
            if d != 0.5:
                assert h < 1.0


def _entropy_bits_per_element(*probs):
    """`entropy_bits` as one Python p * log2(p) per element: the reference its array path matches bit for bit."""
    h = np.zeros(probs[0].shape)
    for q in probs:
        h = h - np.array([x * math.log2(x) if x > 0.0 else 0.0 for x in q.ravel().tolist()]).reshape(q.shape)
    return h


class TestEntropyBits:
    EDGES = np.array([0.0, 1.0, 1e-300, 5e-324, 0.5, -0.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_arrays_have_the_bits_of_the_per_element_loop(self, seed):
        rng = np.random.default_rng(seed)
        low = np.concatenate([self.EDGES, rng.random(434)]).reshape(2, 220)
        for probs in ((low,), (low, 1.0 - low), (low, 1.0 - low, rng.random((2, 220)) ** 40)):
            assert entropy_bits(*probs).tobytes() == _entropy_bits_per_element(*probs).tobytes()

    def test_floats_have_the_bits_of_one_element_arrays(self):
        for p in self.EDGES.tolist() + [0.3, 0.7]:
            got = entropy_bits(p, 1.0 - p)
            assert type(got) is float
            assert np.float64(got).tobytes() == entropy_bits(np.array([p]), np.array([1.0 - p]))[0].tobytes()


class TestTrajectoryProbability:
    def test_tails_run_is_cube_of_stay_probability(self):
        m = 0.7
        p = trajectory_probability(PerturbedCoin(0.4, m), S1, "111")
        assert p == m * m * m
        assert p == pytest.approx(0.343, abs=1e-12)

    def test_single_step_is_stay_probability(self):
        for l in (0.0, 0.3, 1.0):
            assert trajectory_probability(PerturbedCoin(l, 0.2), S0, "0") == l

    def test_manual_products(self):
        # "010" from S0: stay heads (0.4), flip to tails (0.6), flip back (0.3)
        p = trajectory_probability(PerturbedCoin(0.4, 0.7), S0, "010")
        assert p == pytest.approx(0.4 * 0.6 * 0.3, abs=1e-15)
        # "101" from S0: flip (0.6), flip back (0.3), flip again (0.6)
        q = trajectory_probability(PerturbedCoin(0.4, 0.7), S0, "101")
        assert q == pytest.approx(0.6 * 0.3 * 0.6, abs=1e-15)
        assert q == pytest.approx(0.108, abs=1e-12)

    def test_matches_oracle_on_random_paths(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            l, m = rng.random(), rng.random()
            start = S0 if rng.integers(2) == 0 else S1
            bits = "".join(rng.choice(["0", "1"], size=rng.integers(1, 8)))
            assert trajectory_probability(PerturbedCoin(l, m), start, bits) == pytest.approx(
                longhand_probability(l, m, start.index, bits), abs=1e-15
            )

    def test_rejects_empty_or_bad_strings(self):
        coin = PerturbedCoin(0.4, 0.7)
        with pytest.raises(InvalidParameter):
            trajectory_probability(coin, S0, "")
        with pytest.raises(InvalidParameter):
            trajectory_probability(coin, S0, "012")


class TestFutureDistribution:
    def test_fair_coin_uniform(self):
        dist = future_distribution(PerturbedCoin(0.5, 0.5), S0, 3)
        assert dist.bins.shape == (8,)
        for p in dist.bins.tolist():
            assert p == 0.125

    def test_deterministic_point_mass(self):
        dist = future_distribution(PerturbedCoin(1.0, 1.0), S0, 3)
        assert dist.bins[bits_to_index("000")] == 1.0
        assert sum(dist.bins.tolist()) == 1.0

    def test_monte_carlo_cross_check(self):
        # frequencies from the chain sampler must sit within 3 standard errors
        coin = PerturbedCoin(0.4, 0.7)
        dist = future_distribution(coin, S1, 3)
        assert dist.bins[bits_to_index("111")] == pytest.approx(0.343, abs=1e-12)
        n = 10**6
        counts = sample_trajectories(coin, S1, 3, n, seed=2024)
        for bits, p in string_map(dist).items():
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(counts[bits_to_index(bits)] / n - p) <= 3.0 * se

    def test_sums_to_one_over_grid(self):
        for l, m in probability_grid().tolist():
            coin = PerturbedCoin(l, m)
            for steps in (1, 2, 3, 4):
                for start in (S0, S1):
                    dist = future_distribution(coin, start, steps)
                    assert abs(sum(dist.bins.tolist()) - 1.0) <= 1e-9

    def test_chapman_kolmogorov_marginal(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            coin = PerturbedCoin(rng.random(), rng.random())
            start = S0 if rng.integers(2) == 0 else S1
            for steps in (2, 3, 4):
                longer = future_distribution(coin, start, steps)
                shorter = future_distribution(coin, start, steps - 1)
                for prefix, p in string_map(shorter).items():
                    marginal = (longer.bins[bits_to_index(prefix + "0")]
                                + longer.bins[bits_to_index(prefix + "1")])
                    assert abs(marginal - p) <= 1e-12

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        l=st.sampled_from(GRID_TICKS),
        m=st.sampled_from(GRID_TICKS),
        start=st.sampled_from([S0, S1]),
        steps=st.integers(1, 12),
    )
    @example(l=0.0, m=0.0, start=S0, steps=12)
    @example(l=0.0, m=1.0, start=S1, steps=12)
    @example(l=1.0, m=0.0, start=S0, steps=12)
    @example(l=1.0, m=1.0, start=S1, steps=12)
    @example(l=0.05, m=0.95, start=S1, steps=12)
    def test_recurrence_equals_enumeration_exactly(self, l, m, start, steps):
        coin = PerturbedCoin(l, m)
        dist = future_distribution(coin, start, steps)
        enumerated = [trajectory_probability(coin, start, bits) for bits in all_bitstrings(steps)]
        assert dist.bins[lexicographic_bins(steps)].tolist() == enumerated

    def test_recurrence_equals_enumeration_exactly_on_whole_grid(self):
        for l, m in probability_grid().tolist():
            coin = PerturbedCoin(l, m)
            for start in (S0, S1):
                for steps in (1, 2, 3, 4):
                    dist = future_distribution(coin, start, steps)
                    for bits in all_bitstrings(steps):
                        assert dist.bins[bits_to_index(bits)] == trajectory_probability(coin, start, bits)

    def test_step_bounds(self):
        coin = PerturbedCoin(0.4, 0.7)
        with pytest.raises(StepCountTooLarge):
            future_distribution(coin, S0, 0)
        with pytest.raises(StepCountTooLarge):
            future_distribution(coin, S0, 21)
        with pytest.raises(InvalidParameter, match="steps must be an integer, got 3.0"):
            future_distribution(coin, S0, 3.0)
        # operator.index reads a Python bool as 0 or 1: True gave a 1-step distribution
        with pytest.raises(InvalidParameter, match="steps must be an integer, got True"):
            future_distribution(coin, S0, True)


class TestSampleTrajectories:
    def test_deterministic_chain_all_counts_on_one_string(self):
        counts = sample_trajectories(PerturbedCoin(1.0, 1.0), S0, 3, 100, seed=0)
        assert counts[bits_to_index("000")] == 100
        assert counts.sum() == 100

    def test_fair_coin_frequencies_within_five_sigma(self):
        n = 10**6
        counts = sample_trajectories(PerturbedCoin(0.5, 0.5), S0, 3, n, seed=1)
        sigma = math.sqrt(0.125 * 0.875 / n)
        for bits in all_bitstrings(3):
            assert abs(counts[bits_to_index(bits)] / n - 0.125) <= 5.0 * sigma

    def test_same_seed_reproduces_counts(self):
        coin = PerturbedCoin(0.3, 0.8)
        a = sample_trajectories(coin, S1, 4, 5000, seed=42)
        b = sample_trajectories(coin, S1, 4, 5000, seed=42)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("l, m", SAMPLER_COINS)
    def test_streaming_counts_equal_one_shot_reference(self, l, m):
        coin = PerturbedCoin(l, m)
        sizes = (1, CHUNK_DRAWS - 1, CHUNK_DRAWS, CHUNK_DRAWS + 1)
        for seed, steps, start, n in itertools.product(range(10), (1, 3, 7, 12), (S0, S1), sizes):
            expected = one_shot_sample(coin, start, steps, n, seed)
            assert np.array_equal(sample_trajectories(coin, start, steps, n, seed), expected)

    # the widths of the bin code: uint8 to 8 steps, uint16 to 16, uint32 above, to the step cap
    @pytest.mark.parametrize("steps", [8, 9, 16, 17, 20])
    def test_streaming_counts_equal_one_shot_reference_at_code_width_edges(self, steps):
        for (l, m), start in itertools.product(SAMPLER_COINS, (S0, S1)):
            coin = PerturbedCoin(l, m)
            expected = one_shot_sample(coin, start, steps, CHUNK_DRAWS + 1, 5)
            assert np.array_equal(sample_trajectories(coin, start, steps, CHUNK_DRAWS + 1, 5), expected)

    # step k reads the same uniforms at any step count, so the last three steps summed out leave
    # the 17-step counts
    def test_counts_at_the_step_cap_sum_to_the_seventeen_step_counts(self):
        for (l, m), start in itertools.product(SAMPLER_COINS, (S0, S1)):
            coin = PerturbedCoin(l, m)
            capped = sample_trajectories(coin, start, 20, CHUNK_DRAWS + 1, 5)
            assert np.array_equal(capped.reshape(8, 2**17).sum(axis=0),
                                  sample_trajectories(coin, start, 17, CHUNK_DRAWS + 1, 5))

    # a subset: the whole product above at 10**6 draws takes about a minute,
    # the suite's whole budget
    @pytest.mark.parametrize("l, m, seeds, step_counts", [
        (0.4, 0.7, range(10), (3,)),
        (0.4, 0.7, (0,), (1, 7, 12)),
        *[(l, m, (0,), (3,)) for l, m in SAMPLER_COINS if (l, m) != (0.4, 0.7)],
    ], ids=["0.4-0.7-seeds0to9-M3", "0.4-0.7-seed0-M1,7,12", "0-0-seed0-M3", "0-1-seed0-M3",
            "1-0-seed0-M3", "1-1-seed0-M3", "0.2-0.3-seed0-M3", "0.25-0.75-seed0-M3"])
    def test_streaming_counts_equal_one_shot_reference_at_a_million_draws(self, l, m, seeds, step_counts):
        coin = PerturbedCoin(l, m)
        for seed, steps, start in itertools.product(seeds, step_counts, (S0, S1)):
            expected = one_shot_sample(coin, start, steps, 10**6, seed)
            assert np.array_equal(sample_trajectories(coin, start, steps, 10**6, seed), expected)

    @pytest.mark.parametrize("n, steps", [(2 * 10**5, 3), (2 * 10**6, 3), (2 * 10**5, 12), (2 * 10**6, 12)],
                             ids=["200000", "2000000", "200000-M12", "2000000-M12"])
    def test_memory_does_not_grow_with_draws(self, n, steps):
        tracemalloc.start()
        try:
            sample_trajectories(PerturbedCoin(0.4, 0.7), S1, steps, n, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_requires_positive_draws_and_seed(self):
        coin = PerturbedCoin(0.3, 0.8)
        with pytest.raises(InvalidParameter):
            sample_trajectories(coin, S0, 3, 0, seed=1)
        with pytest.raises(InvalidParameter):
            sample_trajectories(coin, S0, 3, 10, seed=None)

    # an array and a float are two shapes, refused as the coin is built
    @pytest.mark.parametrize("heads, tails, message", [
        (np.array([0.2, 0.3]), np.array([0.5, 0.6]), "sample_trajectories takes one coin, got a grid: PerturbedCoin"),
        (np.array([0.2, 0.3]), 0.5, r"stay_tails must have shape \(2,\), got \(\)"),
        (0.2, np.array([[0.5]]), r"stay_tails must have shape \(\), got \(1, 1\)"),
    ], ids=["grid", "grid-heads", "one-element-grid-tails"])
    def test_a_grid_coin_is_refused(self, heads, tails, message):
        with pytest.raises(InvalidParameter, match=message):
            sample_trajectories(PerturbedCoin(heads, tails), S0, 3, 10, seed=1)

    @pytest.mark.parametrize("draws, seed, message", [
        (10, -1, "seed must be >= 0, got -1"),
        (10, 1.5, "seed must be an integer, got 1.5"),
        (2.5, 1, "draws must be an integer, got 2.5"),
        (True, False, "draws must be an integer, got True"),  # it ended in np.empty's bare TypeError
        (10, False, "seed must be an integer, got False"),
    ], ids=["negative-seed", "fractional-seed", "fractional-draws", "bool-draws", "bool-seed"])
    def test_seed_and_draws_must_be_integers_in_range(self, draws, seed, message):
        with pytest.raises(InvalidParameter, match=message):
            sample_trajectories(PerturbedCoin(0.3, 0.8), S0, 3, draws, seed)


class TestOutcomeDistribution:
    def test_requires_normalization(self):
        with pytest.raises(InvalidParameter):
            OutcomeDistribution(2, np.full(4, 0.2))

    def test_string_map_and_bin_array_agree(self):
        by_bits = {"00": 0.1, "01": 0.2, "10": 0.3, "11": 0.4}
        # bin index: first outcome is the least-significant bit
        assert bins_of(2, by_bits).tolist() == [0.1, 0.3, 0.2, 0.4]
        assert string_map(OutcomeDistribution(2, np.array([0.1, 0.3, 0.2, 0.4]))) == by_bits

    def test_bins_are_read_only_copies(self):
        source = np.full(4, 0.25)
        dist = OutcomeDistribution(2, source)
        source[0] = 1.0
        assert dist.bins[0] == 0.25
        with pytest.raises(ValueError):
            dist.bins[0] = 0.5

    def test_rejects_bad_arrays(self):
        with pytest.raises(InvalidParameter):
            OutcomeDistribution(2, np.full(3, 1.0 / 3.0))
        with pytest.raises(InvalidParameter):
            OutcomeDistribution(1, np.array([1.5, -0.5]))
        with pytest.raises(InvalidParameter):
            OutcomeDistribution(1, np.array([np.nan, 1.0]))
        with pytest.raises(InvalidParameter):
            OutcomeDistribution(1, np.array([0.5, 0.4]))
        with pytest.raises(StepCountTooLarge):
            OutcomeDistribution(0, np.array([1.0]))

    def test_json_dict_schema(self):
        # the futures payload writes each distribution as its steps and a string-keyed map
        dist = future_distribution(PerturbedCoin(0.4, 0.7), S1, 3)
        rec = command_record({"futures": {"l": 0.4, "m_values": [0.7], "steps": 3, "start_states": ["S1"]}},
                             "futures")
        payload = cmd_futures(rec).payloads["futures.json"]["distributions"][0]["distribution"]
        assert payload.pop("steps") == 3
        assert payload["111"] == dist.bins[bits_to_index("111")]
        assert payload == string_map(dist)
        assert list(payload) == all_bitstrings(3)
        assert OutcomeDistribution(3, bins_of(3, payload)).bins.tolist() == dist.bins.tolist()


class TestClassicalFidelity:
    def point_mass(self, steps, bits):
        return OutcomeDistribution(steps, bins_of(steps, {b: float(b == bits) for b in all_bitstrings(steps)}))

    def test_identical_is_one(self):
        dist = future_distribution(PerturbedCoin(0.4, 0.7), S1, 3)
        assert classical_fidelity(dist, dist) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_support_is_zero(self):
        assert classical_fidelity(self.point_mass(3, "000"), self.point_mass(3, "111")) == 0.0

    def test_uniform_vs_point_mass(self):
        uniform = OutcomeDistribution(3, np.full(8, 0.125))
        f = classical_fidelity(uniform, self.point_mass(3, "010"))
        assert f == pytest.approx(math.sqrt(0.125), abs=1e-12)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            a = future_distribution(PerturbedCoin(rng.random(), rng.random()), S0, 3)
            b = future_distribution(PerturbedCoin(rng.random(), rng.random()), S1, 3)
            f = classical_fidelity(a, b)
            assert 0.0 <= f <= 1.0 + 1e-12
            assert f == pytest.approx(classical_fidelity(b, a), abs=1e-15)

    def test_one_iff_equal(self):
        a = future_distribution(PerturbedCoin(0.4, 0.7), S1, 3)
        b = future_distribution(PerturbedCoin(0.4, 0.70001), S1, 3)
        assert classical_fidelity(a, b) < 1.0 - 1e-12

    def test_invariant_under_simultaneous_relabeling(self):
        rng = np.random.default_rng(17)
        a = future_distribution(PerturbedCoin(0.3, 0.6), S0, 3)
        b = future_distribution(PerturbedCoin(0.8, 0.2), S1, 3)
        baseline = classical_fidelity(a, b)
        strings = all_bitstrings(3)
        relabel = dict(zip(strings, rng.permutation(strings)))
        a2 = OutcomeDistribution(3, bins_of(3, {relabel[k]: v for k, v in string_map(a).items()}))
        b2 = OutcomeDistribution(3, bins_of(3, {relabel[k]: v for k, v in string_map(b).items()}))
        assert classical_fidelity(a2, b2) == pytest.approx(baseline, abs=1e-12)

    def test_rounding_below_zero_counts_as_zero(self):
        # entries down to -TOL.exact are accepted, so their products must not reach sqrt
        assert 5e-13 <= TOL.exact
        skewed = OutcomeDistribution(1, np.array([1.0 + 5e-13, -5e-13]))
        uniform = OutcomeDistribution(1, np.array([0.5, 0.5]))
        assert classical_fidelity(skewed, uniform) == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert classical_fidelity(uniform, skewed) == classical_fidelity(skewed, uniform)

    def test_adds_terms_one_by_one_in_string_order(self):
        # the counts report carries this rounding; for this pair a pairwise sum, a sum in bin order
        # or a compensated one (math.fsum, or builtin sum from Python 3.12 on) differs in the last digits
        a = future_distribution(PerturbedCoin(0.3, 0.6), S0, 12)
        b = future_distribution(PerturbedCoin(0.8, 0.2), S1, 12)
        pa, pb = string_map(a), string_map(b)
        terms = [math.sqrt(pa[k] * pb[k]) for k in sorted(pa)]
        assert classical_fidelity(a, b) == running_sum(terms) != math.fsum(terms)

    def test_counts_fidelity_is_the_running_sum_in_string_order(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            coin, start = PerturbedCoin(rng.random(), rng.random()), CausalState(int(rng.integers(2)))
            steps, n, seed = (int(x) for x in rng.integers([1, 1, 0], [13, 10**4, 100]))
            empirical = counts_to_distribution(sample_trajectories(coin, start, steps, n, seed), steps)
            theory = future_distribution(coin, start, steps)
            pe, pt = string_map(empirical), string_map(theory)
            assert classical_fidelity(empirical, theory) == running_sum(math.sqrt(pe[k] * pt[k]) for k in sorted(pe))

    def test_dimension_mismatch(self):
        a = future_distribution(PerturbedCoin(0.4, 0.7), S0, 2)
        b = future_distribution(PerturbedCoin(0.4, 0.7), S0, 3)
        with pytest.raises(DimensionMismatch):
            classical_fidelity(a, b)


def test_counts_to_distribution_matches_frequencies():
    counts = np.zeros(4, dtype=np.int64)
    for bits, c in {"00": 1, "01": 3, "10": 0, "11": 4}.items():
        counts[bits_to_index(bits)] = c
    dist = counts_to_distribution(counts, 2)
    assert string_map(dist) == {"00": 0.125, "01": 0.375, "10": 0.0, "11": 0.5}


@pytest.mark.parametrize("counts", [np.array([0.5, 0.5]), np.array([3, -1]), np.array([0, 0]), np.array([True, False])],
                         ids=["fractional", "negative", "no-draw", "bool"])
def test_counts_to_distribution_takes_nonnegative_integer_counts(counts):
    with pytest.raises(InvalidParameter, match="counts must be nonnegative integers with at least one draw, got"):
        counts_to_distribution(counts, 1)
