import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qcoin import quantum
from qcoin.constants import TOL
from qcoin.encoding import all_bitstrings, bits_to_index
from qcoin.errors import InvalidParameter, NonPhysicalState, StepCountTooLarge
from qcoin.markov import (
    CausalState,
    PerturbedCoin,
    StationaryWeights,
    classical_complexity,
    future_distribution,
    stationary_weights,
    trajectory_probability,
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

S0, S1 = CausalState.S0, CausalState.S1
GRID_TICKS = [round(0.05 * i, 10) for i in range(21)]


def grid(step=0.05):
    ticks = np.round(np.arange(0.0, 1.0 + step / 2, step), 10)
    return [(float(a), float(b)) for a in ticks for b in ticks]


def row_overlap(coin_a, state_a, coin_b, state_b):
    return np.vdot(causal_pair(coin_a)[state_a.index], causal_pair(coin_b)[state_b.index])


def entropy_oracle(matrix) -> float:
    """LAPACK eigenvalue route, independent of the closed-form implementation."""
    vals = np.linalg.eigvalsh(np.asarray(matrix, dtype=complex))
    return float(-sum(v * math.log2(v) for v in vals if v > 0.0))


class TestCausalState:
    def test_amplitudes(self):
        v = causal_pair(PerturbedCoin(0.5, 0.5))[S0.index]
        assert np.allclose(v, [math.sqrt(0.5), math.sqrt(0.5)], atol=1e-15)
        v = causal_pair(PerturbedCoin(0.4, 0.9))[S0.index]
        assert v[0] == pytest.approx(0.63246, abs=1e-5)
        assert v[1] == pytest.approx(0.77460, abs=1e-5)
        v = causal_pair(PerturbedCoin(0.4, 0.9))[S1.index]
        assert np.allclose(v, [math.sqrt(0.1), math.sqrt(0.9)], atol=1e-15)

    def test_orthogonal_limit(self):
        coin = PerturbedCoin(1.0, 1.0)
        assert causal_pair(coin)[S0.index].tolist() == [1.0, 0.0]
        assert causal_pair(coin)[S1.index].tolist() == [0.0, 1.0]

    def test_real_nonnegative_and_normalized_over_grid(self):
        for l, m in grid(0.1):
            for state in (S0, S1):
                amps = causal_pair(PerturbedCoin(l, m))[state.index]
                assert np.all(amps.imag == 0.0)
                assert np.all(amps.real >= 0.0)
                assert abs(np.vdot(amps, amps).real - 1.0) <= 1e-12

    def test_vector_must_be_normalized(self, monkeypatch):
        monkeypatch.setattr(quantum, "transition_matrix", lambda coin: np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(InvalidParameter, match="causal-state vector is not normalized"):
            causal_pair(PerturbedCoin(0.5, 0.5))


class TestCausalOverlap:
    def test_identical_is_one(self):
        coin = PerturbedCoin(0.3, 0.8)
        assert row_overlap(coin, S0, coin, S0) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_limit(self):
        coin = PerturbedCoin(1.0, 1.0)
        assert row_overlap(coin, S0, coin, S1) == 0.0

    def test_fair_coin_states_coincide(self):
        coin = PerturbedCoin(0.5, 0.5)
        assert row_overlap(coin, S0, coin, S1) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_cross_process(self):
        a, b = PerturbedCoin(0.3, 0.6), PerturbedCoin(0.7, 0.2)
        got = row_overlap(a, S0, b, S1)
        expected = math.sqrt(a.stay_heads * (1 - b.stay_tails)) + math.sqrt(
            (1 - a.stay_heads) * b.stay_tails
        )
        assert got == pytest.approx(expected, abs=1e-14)


class TestDensityMatrix2:
    def test_validates_hermiticity_trace_and_psd(self):
        with pytest.raises(InvalidParameter):
            DensityMatrix2(np.array([[0.5, 0.2], [0.3, 0.5]]))
        with pytest.raises(InvalidParameter):
            DensityMatrix2(np.array([[0.7, 0.0], [0.0, 0.7]]))
        with pytest.raises(InvalidParameter):
            DensityMatrix2(np.array([[1.5, 0.0], [0.0, -0.5]]))

    def test_json_dict_schema(self):
        rho = memory_density(PerturbedCoin(0.4, 0.7), stationary_weights(PerturbedCoin(0.4, 0.7)))
        payload = rho.to_json_dict()
        assert set(payload) == {"re", "im"}
        assert (np.array(payload["re"]) + 1j * np.array(payload["im"]) == rho.matrix).all()


class TestMemoryDensity:
    def test_orthogonal_mixture_is_diagonal(self):
        rho = memory_density(PerturbedCoin(1.0, 1.0), StationaryWeights(0.5, 0.5))
        assert np.allclose(rho.matrix, np.diag([0.5, 0.5]), atol=1e-15)

    def test_identical_states_give_pure_projector(self):
        coin = PerturbedCoin(0.5, 0.5)
        rho = memory_density(coin, StationaryWeights(0.25, 0.75))
        v = causal_pair(coin)[S0.index]
        assert np.allclose(rho.matrix, np.outer(v, v.conj()), atol=1e-15)
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_entrywise_against_outer_product_sum(self):
        coin = PerturbedCoin(0.4, 0.7)
        w = stationary_weights(coin)
        rho = memory_density(coin, w)
        s0 = np.array([math.sqrt(0.4), math.sqrt(0.6)])
        s1 = np.array([math.sqrt(0.3), math.sqrt(0.7)])
        direct = w.s0 * np.outer(s0, s0) + w.s1 * np.outer(s1, s1)
        assert np.abs(rho.matrix - direct).max() <= 1e-15


class TestVonNeumannEntropy:
    def test_maximally_mixed_is_one_bit(self):
        assert von_neumann_entropy(np.diag([0.5, 0.5])) == 1.0

    def test_pure_projector_is_zero(self):
        for l in (0.0, 0.3, 1.0):
            v = causal_pair(PerturbedCoin(l, 0.5))[S0.index]
            assert von_neumann_entropy(np.outer(v, v.conj())) == pytest.approx(0.0, abs=1e-12)

    def test_quantum_below_classical_for_example(self):
        coin = PerturbedCoin(0.4, 0.7)
        w = stationary_weights(coin)
        assert von_neumann_entropy(memory_density(coin, w)) < classical_complexity(w)

    def test_agrees_with_eigenvalue_oracle_over_grid(self):
        for l, m in grid():
            if l == 1.0 and m == 1.0:
                continue
            coin = PerturbedCoin(l, m)
            rho = memory_density(coin, stationary_weights(coin))
            assert von_neumann_entropy(rho) == pytest.approx(
                entropy_oracle(rho.matrix), abs=1e-10
            )

    def test_quantum_memory_never_exceeds_classical_over_grid(self):
        # equality only with orthogonal causal states (0,0) or with degenerate
        # stationary weights (absorbing edges), where both entropies vanish
        for l, m in grid():
            if l == 1.0 and m == 1.0:
                continue
            coin = PerturbedCoin(l, m)
            weights = stationary_weights(coin)
            c_mu = classical_complexity(weights)
            c_q = von_neumann_entropy(memory_density(coin, weights))
            assert c_q <= c_mu + 1e-12
            overlap = row_overlap(coin, S0, coin, S1)
            degenerate = weights.s0 in (0.0, 1.0)
            if abs(overlap) <= 1e-12 or degenerate:
                assert abs(c_q - c_mu) <= 1e-9
            else:
                assert c_mu - c_q > 1e-9

    def test_nonphysical_state_raises(self):
        with pytest.raises(NonPhysicalState):
            von_neumann_entropy(np.array([[1.5, 0.0], [0.0, -0.5]]))

    def test_near_degenerate_eigenvalues_clamped(self):
        # eigenvalues exactly (0.5, 0.5); discriminant may round slightly negative
        v = np.array([math.sqrt(0.5), math.sqrt(0.5)])
        rho = 0.5 * np.outer(v, v) + 0.5 * np.outer(v[::-1] * [1, -1], v[::-1] * [1, -1])
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-12)


class TestIdealOutputState:
    def test_deterministic_single_amplitude(self):
        out = ideal_output_state(PerturbedCoin(1.0, 1.0), S0, 3)
        assert out.amplitudes[0, bits_to_index("000")] == 1.0
        assert np.vdot(out.amplitudes, out.amplitudes).real == 1.0
        assert out.amplitudes[1, bits_to_index("000")] == 0.0

    def test_fair_coin_uniform_sixteen_amplitudes(self):
        out = ideal_output_state(PerturbedCoin(0.5, 0.5), S0, 3)
        assert out.amplitudes.shape == (2, 8)
        assert np.allclose(out.amplitudes, 0.25, atol=1e-12)

    def test_amplitude_factorizes(self):
        coin = PerturbedCoin(0.4, 0.7)
        out = ideal_output_state(coin, S1, 3)
        dist = future_distribution(coin, S1, 3)
        for bits, p in dist.probabilities.items():
            final = causal_pair(coin)[int(bits[-1])]
            for b in range(2):
                assert out.amplitudes[b, bits_to_index(bits)] == pytest.approx(
                    math.sqrt(p) * final[b], abs=1e-14
                )

    def test_amplitudes_equal_enumeration_at_twelve_steps(self):
        for coin in (PerturbedCoin(0.4, 0.7), PerturbedCoin(0.0, 1.0), PerturbedCoin(1.0, 0.35)):
            for start in (S0, S1):
                out = ideal_output_state(coin, start, 12)
                finals = causal_pair(coin)
                for bits in all_bitstrings(12):
                    root = math.sqrt(trajectory_probability(coin, start, bits))
                    for b in range(2):
                        assert out.amplitudes[b, bits_to_index(bits)] == root * finals[int(bits[-1])][b]

    def test_squared_marginal_reproduces_future_distribution(self):
        coin = PerturbedCoin(0.4, 0.7)
        marg = ideal_output_state(coin, S1, 3).marginal_distribution()
        dist = future_distribution(coin, S1, 3)
        for bits, p in dist.probabilities.items():
            assert abs(marg.probabilities[bits] - p) <= 1e-12

    def test_norm_one_over_grid(self):
        for l, m in grid(0.25):
            for steps in (1, 2, 3, 4):
                out = ideal_output_state(PerturbedCoin(l, m), S1, steps)
                assert abs(np.vdot(out.amplitudes, out.amplitudes).real - 1.0) <= 1e-9

    def test_step_bounds(self):
        coin = PerturbedCoin(0.4, 0.7)
        with pytest.raises(StepCountTooLarge):
            ideal_output_state(coin, S0, 0)
        with pytest.raises(StepCountTooLarge):
            ideal_output_state(coin, S0, 13)

    def test_json_schema(self):
        out = ideal_output_state(PerturbedCoin(0.4, 0.7), S1, 2)
        payload = out.to_json_dict()
        assert payload["steps"] == 2
        assert set(payload["amplitudes"]) == {"00", "01", "10", "11"}
        re, im = payload["amplitudes"]["11"][1]
        assert complex(re, im) == out.amplitudes[1, bits_to_index("11")]


class TestOutputOverlap:
    def test_identical_is_one(self):
        proc = ProcessSpec(PerturbedCoin(0.3, 0.8))
        assert output_overlap(proc, S1, proc, S1, 3) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_futures_is_zero(self):
        always_heads = ProcessSpec(PerturbedCoin(1.0, 0.5))
        always_flips = ProcessSpec(PerturbedCoin(0.0, 0.5))
        # first emits 000... with memory |0>, second emits 1 first step
        assert output_overlap(always_heads, S0, always_flips, S0, 3) == 0.0

    def test_matches_state_vector_inner_product(self):
        pa = ProcessSpec(PerturbedCoin(0.5, 0.5))
        pb = ProcessSpec(PerturbedCoin(1.0, 0.5))
        got = output_overlap(pa, S0, pb, S0, 3)
        ia = ideal_output_state(pa.coin, S0, 3)
        ib = ideal_output_state(pb.coin, S0, 3)
        direct = float(np.vdot(ia.amplitudes, ib.amplitudes).real)
        assert got == pytest.approx(direct, abs=1e-12)

    def test_symmetric_and_in_unit_interval(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            pa = ProcessSpec(PerturbedCoin(rng.random(), rng.random()))
            pb = ProcessSpec(PerturbedCoin(rng.random(), rng.random()))
            sa = S0 if rng.integers(2) == 0 else S1
            sb = S0 if rng.integers(2) == 0 else S1
            forward = output_overlap(pa, sa, pb, sb, 3)
            backward = output_overlap(pb, sb, pa, sa, 3)
            assert forward == pytest.approx(backward, abs=1e-12)
            assert -1e-12 <= forward <= 1.0 + 1e-12


class TestBhattacharyyaFutures:
    def test_identical_processes(self):
        proc = ProcessSpec(PerturbedCoin(0.4, 0.7))
        assert bhattacharyya_futures(proc, S0, proc, S0, 4) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_deterministic(self):
        heads = ProcessSpec(PerturbedCoin(1.0, 1.0))
        tails = ProcessSpec(PerturbedCoin(0.0, 0.0))
        assert bhattacharyya_futures(heads, S0, tails, S0, 1) == 0.0

    def test_overlap_identity_thousand_draws(self):
        rng = np.random.default_rng(31)
        starts = (S0, S1)
        for _ in range(1000):
            pa = ProcessSpec(PerturbedCoin(rng.random(), rng.random()))
            pb = ProcessSpec(PerturbedCoin(rng.random(), rng.random()))
            sa, sb = starts[rng.integers(2)], starts[rng.integers(2)]
            steps = int(rng.integers(1, 4))
            lhs = output_overlap(pa, sa, pb, sb, steps)
            rhs = bhattacharyya_futures(pa, sa, pb, sb, steps + 1)
            assert abs(lhs - rhs) <= 1e-12

    def test_rejects_zero_steps(self):
        proc = ProcessSpec(PerturbedCoin(0.4, 0.7))
        with pytest.raises(InvalidParameter):
            bhattacharyya_futures(proc, S0, proc, S0, 0)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        coins=st.tuples(*[st.sampled_from(GRID_TICKS)] * 4),
        starts=st.tuples(st.sampled_from([S0, S1]), st.sampled_from([S0, S1])),
    )
    @example(coins=(0.0, 1.0, 1.0, 0.0), starts=(S0, S1))
    @example(coins=(1.0, 1.0, 1.0, 1.0), starts=(S0, S0))
    @example(coins=(0.0, 0.0, 0.5, 0.5), starts=(S1, S0))
    def test_overlap_identity_at_twelve_steps(self, coins, starts):
        la, ma, lb, mb = coins
        pa, pb = ProcessSpec(PerturbedCoin(la, ma)), ProcessSpec(PerturbedCoin(lb, mb))
        sa, sb = starts
        lhs = output_overlap(pa, sa, pb, sb, 12)
        rhs = bhattacharyya_futures(pa, sa, pb, sb, 13)
        assert abs(lhs - rhs) <= TOL.exact


def test_identity_oracle_closed_form():
    """The overlap identity, written out longhand for one asymmetric pair."""
    la, ma, lb, mb = 0.35, 0.8, 0.6, 0.15
    pa, pb = ProcessSpec(PerturbedCoin(la, ma)), ProcessSpec(PerturbedCoin(lb, mb))

    def t_entry(l, m, state, x):
        if state == 0:
            return l if x == "0" else 1.0 - l
        return 1.0 - m if x == "0" else m

    def prob(l, m, start, bits):
        p, s = 1.0, start
        for c in bits:
            p *= t_entry(l, m, s, c)
            s = 0 if c == "0" else 1
        return p

    total = 0.0
    for bits in ("".join(t) for t in itertools.product("01", repeat=4)):
        total += math.sqrt(prob(la, ma, 0, bits) * prob(lb, mb, 1, bits))
    assert output_overlap(pa, S0, pb, S1, 3) == pytest.approx(total, abs=1e-12)
