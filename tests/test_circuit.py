import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (EmptyBin, arrival_time_ns, arrival_times_ns, bits_to_index, block_delay_ns, block_gate_unitary,
                     conditional_polarization, gate_decomposition_max_deviation)
from qcoin.constants import TOL
from qcoin.encoding import index_to_bits
from qcoin.errors import DimensionMismatch, InvalidParameter, StepCountTooLarge
from qcoin.circuit import (
    PhotonState,
    apply_block,
    arrival_time_distribution,
    block_norm_accounting,
    prepare_input,
    reconstruct_memory_density,
    run_circuit,
)
from qcoin import circuit
from qcoin.checks import probability_grid
from qcoin.cli import _photon_json
from qcoin.markov import (
    CausalState,
    OutcomeDistribution,
    PerturbedCoin,
    StationaryWeights,
    WeightMethod,
    future_distribution,
    stationary_weights,
)
from qcoin.interference import _amplitudes
from qcoin.quantum import causal_pair, ideal_output_state, memory_density, von_neumann_entropy

S0, S1 = CausalState.S0, CausalState.S1


class TestPrepareInput:
    def test_fair_coin(self):
        state = prepare_input(PerturbedCoin(0.5, 0.5), S0)
        assert state.steps_applied == 0
        assert state.success_probability == 1.0
        assert np.allclose(state.amplitudes, [[math.sqrt(0.5)], [math.sqrt(0.5)]], atol=1e-15)

    def test_deterministic_tails(self):
        state = prepare_input(PerturbedCoin(1.0, 1.0), S1)
        assert state.amplitudes.tolist() == [[0.0], [1.0]]

    def test_derived_square_roots(self):
        state = prepare_input(PerturbedCoin(0.4, 0.9), S0)
        assert state.amplitudes[0, 0] == pytest.approx(0.63246, abs=1e-5)
        assert state.amplitudes[1, 0] == pytest.approx(0.77460, abs=1e-5)


class TestApplyBlock:
    def test_one_block_from_s0(self):
        coin = PerturbedCoin(0.4, 0.7)
        state = apply_block(prepare_input(coin, S0), coin)
        assert state.steps_applied == 1
        assert state.success_probability == 0.5
        s0, s1 = causal_pair(coin)
        assert np.allclose(state.amplitudes[:, 0], math.sqrt(0.4) * s0, atol=1e-15)
        assert np.allclose(state.amplitudes[:, 1], math.sqrt(0.6) * s1, atol=1e-15)

    def test_one_block_from_s1(self):
        coin = PerturbedCoin(0.4, 0.7)
        state = apply_block(prepare_input(coin, S1), coin)
        s0, s1 = causal_pair(coin)
        assert np.allclose(state.amplitudes[:, 0], math.sqrt(0.3) * s0, atol=1e-15)
        assert np.allclose(state.amplitudes[:, 1], math.sqrt(0.7) * s1, atol=1e-15)

    def test_deterministic_routing_stays_in_bin_zero(self):
        coin = PerturbedCoin(1.0, 1.0)
        state = apply_block(prepare_input(coin, S0), coin)
        assert state.success_probability == 0.5
        assert state.amplitudes[:, 0].tolist() == [1.0, 0.0]
        assert state.amplitudes[:, 1].tolist() == [0.0, 0.0]

    def test_two_fair_blocks_hand_expansion(self):
        coin = PerturbedCoin(0.5, 0.5)
        state = apply_block(apply_block(prepare_input(coin, S0), coin), coin)
        assert state.success_probability == 0.25
        # every bin holds 1/2 * (sqrt(.5), sqrt(.5)): uniform over 4 bins x 2 pols
        assert state.amplitudes.shape == (2, 4)
        assert np.allclose(state.amplitudes, 0.5 * math.sqrt(0.5), atol=1e-12)

    def test_block_count_bound(self):
        coin = PerturbedCoin(0.5, 0.5)
        state = run_circuit(coin, S0, 12)
        with pytest.raises(StepCountTooLarge):
            apply_block(state, coin)


def discarded_arm(state):
    """Squared norm of the discarded recombiner arm, built here: the block's output over sqrt(2) with the
    long path's (upper) bins negated."""
    n = state.amplitudes.shape[-1] // 2
    arm = state.amplitudes * (1.0 / math.sqrt(2.0))
    arm = np.concatenate([arm[:, :n], -arm[:, n:]], axis=-1)
    return float((arm * arm).sum())


class TestNormAccounting:
    def test_both_arms_carry_half_everywhere(self):
        for l, m in probability_grid(0.2).tolist():
            coin = PerturbedCoin(l, m)
            for start in (S0, S1):
                state = prepare_input(coin, start)
                for _ in range(4):
                    state = apply_block(state, coin)
                    retained, discarded = block_norm_accounting(state), discarded_arm(state)
                    assert abs(retained - 0.5) <= 1e-12
                    assert abs(discarded - 0.5) <= 1e-12
                    assert abs(retained + discarded - 1.0) <= 1e-12

    def test_arm_split_independent_of_block_coin(self):
        state = apply_block(run_circuit(PerturbedCoin(0.3, 0.9), S1, 2), PerturbedCoin(0.8, 0.1))
        assert block_norm_accounting(state) == pytest.approx(0.5, abs=1e-12)
        assert discarded_arm(state) == pytest.approx(0.5, abs=1e-12)


class TestRunCircuit:
    def test_success_probability_is_two_to_minus_steps(self):
        coin = PerturbedCoin(0.3, 0.8)
        for steps in (1, 2, 3, 4):
            assert run_circuit(coin, S0, steps).success_probability == 0.5**steps
        assert run_circuit(coin, S0, 3).success_probability == 0.125

    def test_deterministic_chain_all_amplitude_on_bin_zero_h(self):
        state = run_circuit(PerturbedCoin(1.0, 1.0), S0, 3)
        expected = np.zeros((2, 8))
        expected[0, 0] = 1.0
        assert np.array_equal(state.amplitudes, expected)

    def test_matches_superposition_construction(self):
        coin = PerturbedCoin(0.4, 0.7)
        state = run_circuit(coin, S1, 3)
        ideal = ideal_output_state(coin, S1, 3)
        assert np.abs(state.amplitudes - ideal.amplitudes).max() <= 1e-12

    def test_matches_superposition_over_grid(self):
        for l, m in probability_grid(0.25).tolist():
            coin = PerturbedCoin(l, m)
            for start in (S0, S1):
                for steps in (1, 2, 3, 4):
                    state = run_circuit(coin, start, steps)
                    ideal = ideal_output_state(coin, start, steps)
                    assert np.abs(state.amplitudes - ideal.amplitudes).max() <= 1e-12

    def test_equals_block_by_block_route_over_grid(self):
        for l, m in probability_grid().tolist():
            coin = PerturbedCoin(l, m)
            for start in (S0, S1):
                state = prepare_input(coin, start)
                for steps in range(1, 13):
                    state = apply_block(state, coin)
                    fast = run_circuit(coin, start, steps)
                    assert np.array_equal(fast.amplitudes, state.amplitudes)
                    assert fast.success_probability == state.success_probability

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        l=st.floats(0.0, 1.0),
        m=st.floats(0.0, 1.0),
        start=st.sampled_from([S0, S1]),
        steps=st.integers(1, 12),
    )
    @example(l=0.0, m=0.0, start=S0, steps=12)
    @example(l=0.0, m=1.0, start=S1, steps=12)
    @example(l=1.0, m=0.0, start=S0, steps=12)
    @example(l=1.0, m=1.0, start=S1, steps=12)
    def test_dual_route_property(self, l, m, start, steps):
        coin = PerturbedCoin(l, m)
        state = run_circuit(coin, start, steps)
        ideal = ideal_output_state(coin, start, steps)
        assert np.abs(state.amplitudes - ideal.amplitudes).max() <= TOL.exact
        dist = arrival_time_distribution(state)
        assert np.abs(dist.bins - future_distribution(coin, start, steps).bins).max() <= TOL.exact

    def test_step_bounds(self):
        coin = PerturbedCoin(0.4, 0.7)
        with pytest.raises(StepCountTooLarge):
            run_circuit(coin, S0, 0)
        with pytest.raises(StepCountTooLarge):
            run_circuit(coin, S0, 13)
        with pytest.raises(InvalidParameter, match="steps must be an integer, got 2.0"):
            run_circuit(coin, S0, 2.0)


class TestArrivalTimes:
    def test_fair_coin_uniform_and_time_grid(self):
        state = run_circuit(PerturbedCoin(0.5, 0.5), S0, 3)
        dist, times = arrival_time_distribution(state), arrival_times_ns(3)
        for p in dist.bins:
            assert p == pytest.approx(0.125, abs=1e-12)
        assert sorted(times.tolist()) == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0]
        assert max(times.tolist()) == 14.0

    def test_deterministic_chain_all_mass_at_zero_ns(self):
        state = run_circuit(PerturbedCoin(1.0, 1.0), S0, 3)
        dist, times = arrival_time_distribution(state), arrival_times_ns(3)
        assert dist.bins[bits_to_index("000")] == 1.0
        assert times[bits_to_index("000")] == 0.0

    def test_times_are_indexed_by_bin(self):
        for steps in range(1, 7):
            times = arrival_times_ns(steps)
            assert times.tolist() == [arrival_time_ns(index_to_bits(b, steps)) for b in range(2**steps)]

    def test_matches_markov_enumeration_over_grid(self):
        for l, m in probability_grid(0.2).tolist():
            coin = PerturbedCoin(l, m)
            for start in (S0, S1):
                dist = arrival_time_distribution(run_circuit(coin, start, 3))
                enum = future_distribution(coin, start, 3)
                for b in range(8):
                    assert abs(dist.bins[b] - enum.bins[b]) <= 1e-12

    def test_csv_rows_shape(self):
        dist, times = arrival_time_distribution(run_circuit(PerturbedCoin(0.4, 0.7), S1, 3)), arrival_times_ns(3)
        assert len(times) == 8
        assert dist.bins.shape == (8,)
        assert index_to_bits(0, 3) == "000"
        last = bits_to_index("111")
        assert times[last] == 14.0
        assert dist.bins[last] == pytest.approx(0.343, abs=1e-12)
        # delay constants: 2, 4, 8 ns
        assert [block_delay_ns(k) for k in (1, 2, 3)] == [2.0, 4.0, 8.0]


class TestConditionalPolarization:
    def test_deterministic_chain_projects_onto_h(self):
        state = run_circuit(PerturbedCoin(1.0, 1.0), S0, 3)
        rho = conditional_polarization(state, "000")
        assert np.allclose(rho.matrix, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_projects_onto_final_causal_state(self):
        coin = PerturbedCoin(0.4, 0.7)
        state = run_circuit(coin, S0, 3)
        s1 = causal_pair(coin)[S1.index]
        for bits in ("001", "011", "101", "111"):
            rho = conditional_polarization(state, bits)
            assert np.abs(rho.matrix - np.outer(s1, s1.conj())).max() <= 1e-12

    def test_depends_only_on_last_outcome(self):
        coin = PerturbedCoin(0.35, 0.65)
        state = run_circuit(coin, S1, 3)
        reference = conditional_polarization(state, "010")
        for bits in ("000", "100", "110"):
            rho = conditional_polarization(state, bits)
            assert np.abs(rho.matrix - reference.matrix).max() <= 1e-12

    def test_specific_projector_value(self):
        state = run_circuit(PerturbedCoin(0.4, 0.7), S0, 3)
        rho = conditional_polarization(state, "010")
        v = np.array([math.sqrt(0.4), math.sqrt(0.6)])
        assert np.abs(rho.matrix - np.outer(v, v)).max() <= 1e-12

    def test_empty_bin_raises(self):
        state = run_circuit(PerturbedCoin(1.0, 1.0), S0, 3)
        with pytest.raises(EmptyBin):
            conditional_polarization(state, "100")

    @pytest.mark.parametrize("bits", ["1", "1111"], ids=["short", "long"])
    def test_outcome_string_of_another_length_raises(self, bits):
        # a short string would read the bin of its zero-padded extension, a long one no bin
        state = run_circuit(PerturbedCoin(0.4, 0.7), S0, 3)
        with pytest.raises(DimensionMismatch, match=f"{bits!r} has {len(bits)} outcomes, the state 3 steps"):
            conditional_polarization(state, bits)


class TestReconstructMemoryDensity:
    def test_a_nonphysical_conditional_state_raises_under_a_zero_weight(self, monkeypatch):
        coin = PerturbedCoin(0.35, 1.0)  # tails stays tails, so S0 has stationary weight 0
        weights = stationary_weights(coin)
        assert weights.s0 == 0.0
        reconstruct_memory_density(coin, weights, 2)
        arrival = circuit.arrival_time_distribution

        def reversed_s0_bins(state):
            # still a distribution, but S0's bin 0 now claims 0.65 where its amplitudes carry 0.1225
            dist = arrival(state)
            bins = dist.bins.copy()
            bins[S0.index] = bins[S0.index, ::-1]
            return OutcomeDistribution(dist.steps, bins)

        monkeypatch.setattr(circuit, "arrival_time_distribution", reversed_s0_bins)
        with pytest.raises(InvalidParameter, match=r"trace must be 1, got 0\.18846"):
            reconstruct_memory_density(coin, weights, 2)

    def test_fair_coin_pure_memory(self):
        coin = PerturbedCoin(0.5, 0.5)
        rho = reconstruct_memory_density(coin, stationary_weights(coin), 3)
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_limit_with_supplied_weights(self):
        coin = PerturbedCoin(1.0, 1.0)
        rho = reconstruct_memory_density(coin, StationaryWeights(0.5, 0.5), 3)
        assert np.allclose(rho.matrix, np.diag([0.5, 0.5]), atol=1e-12)
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-12)

    def test_last_sweep_point_matches_direct_mixture(self):
        coin = PerturbedCoin(0.397, 0.994)
        for method in WeightMethod:
            weights = stationary_weights(coin, method)
            rebuilt = reconstruct_memory_density(coin, weights, 3)
            direct = memory_density(coin, weights)
            assert np.abs(rebuilt.matrix - direct.matrix).max() <= 1e-12
            assert von_neumann_entropy(rebuilt) == pytest.approx(
                von_neumann_entropy(direct), abs=1e-10
            )

    def test_matches_direct_mixture_over_grid(self):
        for l, m in probability_grid(0.2).tolist():
            if l == 1.0 and m == 1.0:
                continue
            coin = PerturbedCoin(l, m)
            weights = stationary_weights(coin)
            rebuilt = reconstruct_memory_density(coin, weights, 3)
            direct = memory_density(coin, weights)
            assert np.abs(rebuilt.matrix - direct.matrix).max() <= 1e-12


class TestGateDecomposition:
    def test_unitary(self):
        for l, m in probability_grid(0.25).tolist():
            u = block_gate_unitary(PerturbedCoin(l, m))
            assert u.dtype == np.float64  # real rotations: orthogonal
            assert np.abs(u @ u.T - np.eye(4)).max() <= 1e-12

    def test_matches_optical_block_over_grid(self):
        for l, m in probability_grid(0.2).tolist():
            assert gate_decomposition_max_deviation(PerturbedCoin(l, m)) <= 1e-12


class TestPhotonStateContracts:
    def test_json_schema(self):
        state = run_circuit(PerturbedCoin(0.4, 0.7), S1, 2)
        payload = _photon_json(state)
        assert payload["steps"] == 2
        assert payload["success_probability"] == 0.25
        assert set(payload["bins"]) == {"0", "1", "2", "3"}
        h_re, h_im = payload["bins"]["0"]["H"]
        assert complex(h_re, h_im) == complex(state.amplitudes[0, 0])

    def test_rejects_denormalized_state(self):
        amps = np.zeros((2, 2))
        amps[0, 0] = 0.5
        with pytest.raises(InvalidParameter, match="photon state is not normalized"):
            PhotonState(1, amps)

    @pytest.mark.parametrize("steps_applied, bins", [(10**6, 2), (13, 2**13)], ids=["million", "cap-plus-one"])
    def test_rejects_steps_applied_past_the_cap(self, steps_applied, bins):
        # bounded before 2**steps_applied sizes the expected shape: 2**(10**6) has too many digits to print
        amps = np.zeros((2, bins))
        amps[0, 0] = 1.0
        with pytest.raises(StepCountTooLarge, match=f"steps_applied must be in 0..12, got {steps_applied}"):
            PhotonState(steps_applied, amps)

    def test_amplitudes_are_immutable(self):
        state = run_circuit(PerturbedCoin(0.4, 0.7), S0, 2)
        with pytest.raises(ValueError):
            state.amplitudes[0, 0] = 1.0

    @pytest.mark.parametrize("make, steps", [
        (lambda coin: run_circuit(coin, S1, 1), 1),
        (lambda coin: run_circuit(coin, S1, 12), 12),
        (lambda coin: apply_block(run_circuit(coin, S0, 3), coin), 4),
        (lambda coin: prepare_input(coin, S0), 0),
        (lambda coin: ideal_output_state(coin, S1, 12), 12),
    ], ids=["run_circuit-1", "run_circuit-12", "apply_block", "prepare_input", "ideal_output_state"])
    def test_amplitudes_are_c_contiguous_complex(self, make, steps):
        # the states hold the kernels' real polarization-major arrays; the visibility's
        # np.vdot reads one C-ordered complex bin-major copy of them
        state = make(PerturbedCoin(0.4, 0.7))
        amps = state.amplitudes
        assert amps.dtype == np.float64
        assert amps.flags.c_contiguous and not amps.flags.writeable
        assert amps.shape == (2, 2**steps)
        edge = _amplitudes(state)
        assert edge.dtype == np.complex128 and edge.flags.c_contiguous
        assert np.array_equal(edge, amps.T)

    def test_a_later_write_to_the_callers_array_does_not_reach_the_state(self):
        amps = np.array(run_circuit(PerturbedCoin(0.4, 0.7), S1, 5).amplitudes)  # C-ordered float64
        state = PhotonState(5, amps)
        assert amps.flags.writeable  # the state locks its own copy, not the caller's array
        amps[0, 0] = 7.0
        assert state.amplitudes[0, 0] != 7.0


def _complex_block(amps, pair):
    """Reference block on complex128 (..., n, 2) amplitudes, bin-major."""
    out = amps.mT[..., None] * pair.astype(complex)[..., None, :]
    return out.reshape(out.shape[:-3] + (-1, 2))


def _with_imaginary(imag):
    """A state built from a complex copy of the real (0.4, 0.7) amplitudes at M = 2,
    with `imag` added to the imaginary part of one amplitude."""
    amps = run_circuit(PerturbedCoin(0.4, 0.7), S0, 2).amplitudes.astype(complex)
    amps[1, 1] += 1j * imag
    return PhotonState(2, amps)


class TestRealPhoton:
    """The kernels are real and the states hold real amplitudes: their constructors refuse
    complex input and name its dtype, whatever its imaginary parts."""

    @pytest.mark.parametrize("call", [
        apply_block, block_norm_accounting, lambda state, coin: arrival_time_distribution(state),
    ], ids=["apply_block", "block_norm_accounting", "arrival_time_distribution"])
    def test_imaginary_part_raises(self, call):
        # the entry points take a PhotonState, whose constructor refuses complex amplitudes
        with pytest.raises(InvalidParameter, match="photon state must be real, got dtype complex128"):
            call(_with_imaginary(1e-6), PerturbedCoin(0.4, 0.7))

    def test_imaginary_part_raises_in_constructors(self):
        with pytest.raises(InvalidParameter, match="must be real, got dtype complex128"):
            _with_imaginary(1e-6)

    def test_zero_imaginary_parts_are_refused(self):
        with pytest.raises(InvalidParameter, match="must be real, got dtype complex128"):
            _with_imaginary(0.0)
        with pytest.raises(InvalidParameter, match="must be real, got dtype complex64"):
            PhotonState(2, run_circuit(PerturbedCoin(0.4, 0.7), S0, 2).amplitudes.astype(np.complex64))

    def test_blocks_equal_the_complex_kernel_over_grid(self):
        for l, m in probability_grid(0.1).tolist():
            coin = PerturbedCoin(l, m)
            for start in (S0, S1):
                state = prepare_input(coin, start)
                for _ in range(4):
                    expected = _complex_block(state.amplitudes.T.astype(complex), causal_pair(coin))
                    state = apply_block(state, coin)
                    assert np.array_equal(state.amplitudes, expected.T)
                    probs = (expected.real**2 + expected.imag**2).sum(axis=-1)
                    assert np.array_equal(arrival_time_distribution(state).bins, probs)
