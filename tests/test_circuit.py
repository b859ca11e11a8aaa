import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qcoin.constants import TOL, block_delay_ns
from qcoin.encoding import arrival_time_ns, bits_to_index, index_to_bits
from qcoin.errors import EmptyBin, InternalError, InvalidParameter, StepCountTooLarge
from qcoin.circuit import (
    PhotonState,
    _run,
    apply_block,
    arrival_time_distribution,
    block_gate_unitary,
    block_norm_accounting,
    conditional_polarization,
    gate_decomposition_max_deviation,
    prepare_input,
    reconstruct_memory_density,
    run_circuit,
)
from qcoin.markov import (
    CausalState,
    PerturbedCoin,
    StationaryWeights,
    WeightMethod,
    future_distribution,
    stationary_weights,
)
from qcoin.interference import _amplitudes
from qcoin.quantum import IdealOutputState, causal_pair, ideal_output_state, memory_density, von_neumann_entropy

S0, S1 = CausalState.S0, CausalState.S1


def grid(step=0.05):
    ticks = np.round(np.arange(0.0, 1.0 + step / 2, step), 10)
    return [(float(a), float(b)) for a in ticks for b in ticks]


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


class TestNormAccounting:
    def test_both_arms_carry_half_everywhere(self):
        for l, m in grid(0.2):
            coin = PerturbedCoin(l, m)
            for start in (S0, S1):
                state = prepare_input(coin, start)
                for _ in range(4):
                    retained, discarded = block_norm_accounting(state, coin)
                    assert abs(retained - 0.5) <= 1e-12
                    assert abs(discarded - 0.5) <= 1e-12
                    assert abs(retained + discarded - 1.0) <= 1e-12
                    state = apply_block(state, coin)

    def test_arm_split_independent_of_block_coin(self):
        state = run_circuit(PerturbedCoin(0.3, 0.9), S1, 2)
        retained, discarded = block_norm_accounting(state, PerturbedCoin(0.8, 0.1))
        assert retained == pytest.approx(0.5, abs=1e-12)
        assert discarded == pytest.approx(0.5, abs=1e-12)


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
        for l, m in grid(0.25):
            coin = PerturbedCoin(l, m)
            for start in (S0, S1):
                for steps in (1, 2, 3, 4):
                    state = run_circuit(coin, start, steps)
                    ideal = ideal_output_state(coin, start, steps)
                    assert np.abs(state.amplitudes - ideal.amplitudes).max() <= 1e-12

    def test_equals_block_by_block_route_over_grid(self):
        for l, m in grid():
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
        dist, _ = arrival_time_distribution(state)
        assert np.abs(dist.bins - future_distribution(coin, start, steps).bins).max() <= TOL.exact

    def test_step_bounds(self):
        coin = PerturbedCoin(0.4, 0.7)
        with pytest.raises(StepCountTooLarge):
            run_circuit(coin, S0, 0)
        with pytest.raises(StepCountTooLarge):
            run_circuit(coin, S0, 13)


class TestArrivalTimes:
    def test_fair_coin_uniform_and_time_grid(self):
        state = run_circuit(PerturbedCoin(0.5, 0.5), S0, 3)
        dist, times = arrival_time_distribution(state)
        for p in dist.probabilities.values():
            assert p == pytest.approx(0.125, abs=1e-12)
        assert sorted(times.tolist()) == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0]
        assert max(times.tolist()) == 14.0

    def test_deterministic_chain_all_mass_at_zero_ns(self):
        state = run_circuit(PerturbedCoin(1.0, 1.0), S0, 3)
        dist, times = arrival_time_distribution(state)
        assert dist.probabilities["000"] == 1.0
        assert times[bits_to_index("000")] == 0.0

    def test_times_are_indexed_by_bin(self):
        for steps in range(1, 7):
            _, times = arrival_time_distribution(run_circuit(PerturbedCoin(0.4, 0.7), S0, steps))
            assert times.tolist() == [arrival_time_ns(index_to_bits(b, steps)) for b in range(2**steps)]

    def test_matches_markov_enumeration_over_grid(self):
        for l, m in grid(0.2):
            coin = PerturbedCoin(l, m)
            for start in (S0, S1):
                dist, _ = arrival_time_distribution(run_circuit(coin, start, 3))
                enum = future_distribution(coin, start, 3)
                for bits, p in enum.probabilities.items():
                    assert abs(dist.probabilities[bits] - p) <= 1e-12

    def test_csv_rows_shape(self):
        dist, times = arrival_time_distribution(run_circuit(PerturbedCoin(0.4, 0.7), S1, 3))
        assert len(times) == 8
        assert list(dist.probabilities)[0] == "000"
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


class TestReconstructMemoryDensity:
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
        for l, m in grid(0.2):
            if l == 1.0 and m == 1.0:
                continue
            coin = PerturbedCoin(l, m)
            weights = stationary_weights(coin)
            rebuilt = reconstruct_memory_density(coin, weights, 3)
            direct = memory_density(coin, weights)
            assert np.abs(rebuilt.matrix - direct.matrix).max() <= 1e-12


class TestGateDecomposition:
    def test_unitary(self):
        for l, m in grid(0.25):
            u = block_gate_unitary(PerturbedCoin(l, m))
            assert np.abs(u @ u.conj().T - np.eye(4)).max() <= 1e-12

    def test_matches_optical_block_over_grid(self):
        for l, m in grid(0.2):
            assert gate_decomposition_max_deviation(PerturbedCoin(l, m)) <= 1e-12


class TestPhotonStateContracts:
    def test_json_schema(self):
        state = run_circuit(PerturbedCoin(0.4, 0.7), S1, 2)
        payload = state.to_json_dict()
        assert payload["steps"] == 2
        assert payload["success_probability"] == 0.25
        assert set(payload["bins"]) == {"0", "1", "2", "3"}
        h_re, h_im = payload["bins"]["0"]["H"]
        assert complex(h_re, h_im) == complex(state.amplitudes[0, 0])

    def test_rejects_denormalized_state(self):
        amps = np.zeros((2, 2), dtype=complex)
        amps[0, 0] = 0.5
        with pytest.raises(InvalidParameter):
            PhotonState(1, amps, 0.5)

    def test_rejects_bad_success_probability(self):
        amps = np.zeros((2, 1))
        amps[0, 0] = 1.0
        with pytest.raises(InvalidParameter, match="success probability"):
            PhotonState(0, amps, 0.0)
        with pytest.raises(InvalidParameter, match="success probability"):
            PhotonState(0, amps, 1.5)

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

    def test_kernel_output_is_stored_without_a_copy(self):
        pair = causal_pair(PerturbedCoin(0.4, 0.7))
        amps, success = _run(pair, pair[S1.index], 5)
        assert PhotonState(5, amps, success).amplitudes is amps
        assert IdealOutputState(5, amps).amplitudes is amps


def _complex_block(amps, pair):
    """Reference block on complex128 (..., n, 2) amplitudes, bin-major."""
    out = amps.mT[..., None] * pair.astype(complex)[..., None, :]
    return out.reshape(out.shape[:-3] + (-1, 2))


def _with_imaginary(make, imag):
    """A state built by `make` from a complex copy of the real (0.4, 0.7) amplitudes at M = 2,
    with `imag` added to the imaginary part of one amplitude."""
    amps = run_circuit(PerturbedCoin(0.4, 0.7), S0, 2).amplitudes.astype(complex)
    amps[1, 1] += 1j * imag
    return make(amps)


STATE_BUILDERS = [lambda amps: PhotonState(2, amps, 0.25), lambda amps: IdealOutputState(2, amps)]


class TestRealPhoton:
    """The kernels are real and the states hold real amplitudes: their constructors take
    complex input only through a check on its imaginary parts."""

    @pytest.mark.parametrize("call", [
        apply_block, block_norm_accounting, lambda state, coin: arrival_time_distribution(state),
    ], ids=["apply_block", "block_norm_accounting", "arrival_time_distribution"])
    def test_imaginary_part_raises(self, call):
        # the entry points take a PhotonState, whose constructor refuses the residue
        with pytest.raises(InternalError, match="imaginary residue"):
            call(_with_imaginary(STATE_BUILDERS[0], 1e-6), PerturbedCoin(0.4, 0.7))

    def test_imaginary_part_raises_in_constructors(self):
        for make in STATE_BUILDERS:
            with pytest.raises(InternalError, match="imaginary residue"):
                _with_imaginary(make, 1e-6)

    def test_residue_below_tolerance_reads_as_the_real_state(self):
        for make in STATE_BUILDERS:
            real, residue = _with_imaginary(make, 0.0), _with_imaginary(make, TOL.imag_residue / 2)
            assert residue.amplitudes.dtype == np.float64
            assert np.array_equal(real.amplitudes, residue.amplitudes)

    def test_blocks_equal_the_complex_kernel_over_grid(self):
        for l, m in grid(0.1):
            coin = PerturbedCoin(l, m)
            for start in (S0, S1):
                state = prepare_input(coin, start)
                for _ in range(4):
                    expected = _complex_block(state.amplitudes.T.astype(complex), causal_pair(coin))
                    state = apply_block(state, coin)
                    assert np.array_equal(state.amplitudes, expected.T)
                    probs = (expected.real**2 + expected.imag**2).sum(axis=-1)
                    assert np.array_equal(arrival_time_distribution(state)[0].bins, probs)
