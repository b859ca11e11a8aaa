import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qcoin.constants import TOL
from qcoin.encoding import all_bitstrings, bits_to_index, index_to_bits, lexicographic_bins
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
    future_distribution,
    sample_trajectories,
    stationary_weights,
    trajectory_probability,
    transition_matrix,
)

S0, S1 = CausalState.S0, CausalState.S1
GRID_TICKS = [round(0.05 * i, 10) for i in range(21)]
# the four corner coins, then an interior one
SAMPLER_COINS = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.4, 0.7)]


def bins_of(steps, by_bits):
    """Bin array of a map from outcome string to value: the values in string
    order, reindexed by `lexicographic_bins` (the bit reversal is its own inverse)."""
    return np.array([by_bits[bits] for bits in all_bitstrings(steps)])[lexicographic_bins(steps)]


def one_shot_sample(coin, start, steps, draws, seed):
    """The sampler's reference: all draws of a step in one call of one
    generator, counted per outcome string, then mapped to bin indices."""
    rng = np.random.default_rng(seed)
    emit_zero = transition_matrix(coin)[:, 0]
    states = np.full(draws, start.index, dtype=np.int64)
    bins = np.zeros(draws, dtype=np.int64)
    for k in range(steps):
        emitted = (rng.random(draws) >= emit_zero[states]).astype(np.int64)
        bins |= emitted << k
        states = emitted
    strings, indices = string_bins(steps)
    by_bits = dict(zip(strings, np.bincount(bins, minlength=2**steps).tolist()))
    counts = np.zeros(2**steps, dtype=np.int64)
    counts[indices] = [by_bits[bits] for bits in strings]
    return counts


@functools.cache
def string_bins(steps):
    """Each bin's outcome string, then each string's bin index by `bits_to_index`."""
    strings = [index_to_bits(b, steps) for b in range(2**steps)]
    return strings, [bits_to_index(bits) for bits in strings]


def grid(step=0.05):
    ticks = np.round(np.arange(0.0, 1.0 + step / 2, step), 10)
    return [(float(a), float(b)) for a in ticks for b in ticks]


def oracle_trajectory(stay_heads, stay_tails, start, bits):
    """Test-local product of transition probabilities, written out longhand."""
    p = 1.0
    state = 0 if start is S0 else 1
    for c in bits:
        if state == 0:
            p *= stay_heads if c == "0" else 1.0 - stay_heads
        else:
            p *= 1.0 - stay_tails if c == "0" else stay_tails
        state = 0 if c == "0" else 1
    return p


class TestPerturbedCoin:
    def test_rejects_out_of_range(self):
        for bad in (-0.1, 1.1, float("nan")):
            with pytest.raises(InvalidParameter):
                PerturbedCoin(bad, 0.5)
            with pytest.raises(InvalidParameter):
                PerturbedCoin(0.5, bad)

    def test_transition_matrix_values(self):
        t = transition_matrix(PerturbedCoin(0.4, 0.7))
        assert np.allclose(t, [[0.4, 0.6], [0.3, 0.7]], atol=1e-15, rtol=0.0)
        assert transition_matrix(PerturbedCoin(1.0, 1.0)).tolist() == [[1, 0], [0, 1]]
        assert transition_matrix(PerturbedCoin(0.5, 0.5)).tolist() == [[0.5, 0.5], [0.5, 0.5]]

    def test_rows_sum_to_one_over_grid(self):
        for l, m in grid():
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
            oracle_trajectory(l, m, S0, "".join(b))
            for b in itertools.product("01", repeat=3)
            if b[2] == "1"
        )
        flip_s1 = sum(
            oracle_trajectory(l, m, S1, "".join(b))
            for b in itertools.product("01", repeat=3)
            if b[2] == "0"
        )
        w = stationary_weights(PerturbedCoin(l, m), WeightMethod.THREE_STEP_MARGINAL)
        assert w.s0 == pytest.approx(flip_s1 / (flip_s0 + flip_s1), abs=1e-12)
        # stays close to the exact fixed point (identical in exact arithmetic)
        assert abs(w.s0 - 1.0 / 3.0) < 5e-3

    def test_detailed_balance_over_grid(self):
        for l, m in grid():
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

    def test_explicit_weights_validate(self):
        w = StationaryWeights(0.5, 0.5)
        assert w.method is None
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
                oracle_trajectory(l, m, start, bits), abs=1e-15
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
        assert set(dist.probabilities) == set(all_bitstrings(3))
        for p in dist.probabilities.values():
            assert p == 0.125

    def test_deterministic_point_mass(self):
        dist = future_distribution(PerturbedCoin(1.0, 1.0), S0, 3)
        assert dist.probabilities["000"] == 1.0
        assert sum(dist.probabilities.values()) == 1.0

    def test_monte_carlo_cross_check(self):
        # frequencies from the chain sampler must sit within 3 standard errors
        coin = PerturbedCoin(0.4, 0.7)
        dist = future_distribution(coin, S1, 3)
        assert dist.probabilities["111"] == pytest.approx(0.343, abs=1e-12)
        n = 10**6
        counts = sample_trajectories(coin, S1, 3, n, seed=2024)
        for bits, p in dist.probabilities.items():
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(counts[bits_to_index(bits)] / n - p) <= 3.0 * se

    def test_sums_to_one_over_grid(self):
        for l, m in grid():
            coin = PerturbedCoin(l, m)
            for steps in (1, 2, 3, 4):
                for start in (S0, S1):
                    dist = future_distribution(coin, start, steps)
                    assert abs(sum(dist.probabilities.values()) - 1.0) <= 1e-9

    def test_chapman_kolmogorov_marginal(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            coin = PerturbedCoin(rng.random(), rng.random())
            start = S0 if rng.integers(2) == 0 else S1
            for steps in (2, 3, 4):
                longer = future_distribution(coin, start, steps)
                shorter = future_distribution(coin, start, steps - 1)
                for prefix, p in shorter.probabilities.items():
                    marginal = longer.probabilities[prefix + "0"] + longer.probabilities[prefix + "1"]
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
        for l, m in grid():
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

    # a subset: the whole product above at 10**6 draws takes about a minute,
    # the suite's whole budget
    @pytest.mark.parametrize("l, m, seeds, step_counts", [
        (0.4, 0.7, range(10), (3,)),
        (0.4, 0.7, (0,), (1, 7, 12)),
        *[(l, m, (0,), (3,)) for l, m in SAMPLER_COINS[:4]],
    ], ids=["0.4-0.7-seeds0to9-M3", "0.4-0.7-seed0-M1,7,12", "0-0-seed0-M3", "0-1-seed0-M3",
            "1-0-seed0-M3", "1-1-seed0-M3"])
    def test_streaming_counts_equal_one_shot_reference_at_a_million_draws(self, l, m, seeds, step_counts):
        coin = PerturbedCoin(l, m)
        for seed, steps, start in itertools.product(seeds, step_counts, (S0, S1)):
            expected = one_shot_sample(coin, start, steps, 10**6, seed)
            assert np.array_equal(sample_trajectories(coin, start, steps, 10**6, seed), expected)

    @pytest.mark.parametrize("n", [2 * 10**5, 2 * 10**6])
    def test_memory_does_not_grow_with_draws(self, n):
        tracemalloc.start()
        try:
            sample_trajectories(PerturbedCoin(0.4, 0.7), S1, 3, n, seed=1)
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


class TestOutcomeDistribution:
    def test_requires_normalization(self):
        with pytest.raises(InvalidParameter):
            OutcomeDistribution(2, np.full(4, 0.2))

    def test_string_map_and_bin_array_agree(self):
        by_bits = {"00": 0.1, "01": 0.2, "10": 0.3, "11": 0.4}
        # bin index: first outcome is the least-significant bit
        assert bins_of(2, by_bits).tolist() == [0.1, 0.3, 0.2, 0.4]
        assert OutcomeDistribution(2, np.array([0.1, 0.3, 0.2, 0.4])).probabilities == by_bits

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
        dist = future_distribution(PerturbedCoin(0.4, 0.7), S1, 3)
        payload = dist.to_json_dict()
        assert payload.pop("steps") == 3
        assert payload["111"] == dist.probabilities["111"]
        assert payload == dist.probabilities
        assert OutcomeDistribution(3, bins_of(3, dist.probabilities)).bins.tolist() == dist.bins.tolist()


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
        a2 = OutcomeDistribution(3, bins_of(3, {relabel[k]: v for k, v in a.probabilities.items()}))
        b2 = OutcomeDistribution(3, bins_of(3, {relabel[k]: v for k, v in b.probabilities.items()}))
        assert classical_fidelity(a2, b2) == pytest.approx(baseline, abs=1e-12)

    def test_rounding_below_zero_counts_as_zero(self):
        # entries down to -TOL.exact are accepted, so their products must not reach sqrt
        assert 5e-13 <= TOL.exact
        skewed = OutcomeDistribution(1, np.array([1.0 + 5e-13, -5e-13]))
        uniform = OutcomeDistribution(1, np.array([0.5, 0.5]))
        assert classical_fidelity(skewed, uniform) == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert classical_fidelity(uniform, skewed) == classical_fidelity(skewed, uniform)

    def test_adds_terms_one_by_one_in_string_order(self):
        # the counts report carries this rounding; for this pair a pairwise
        # sum or a sum in bin order differs in the last digits
        a = future_distribution(PerturbedCoin(0.3, 0.6), S0, 12)
        b = future_distribution(PerturbedCoin(0.8, 0.2), S1, 12)
        pa, pb = a.probabilities, b.probabilities
        assert classical_fidelity(a, b) == sum(math.sqrt(pa[k] * pb[k]) for k in sorted(pa))

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
    assert dist.probabilities == {"00": 0.125, "01": 0.375, "10": 0.0, "11": 0.5}
