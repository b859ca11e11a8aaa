import dataclasses
import itertools
import math

import numpy as np
import pytest

from qcoin import interference
from qcoin.circuit import PhotonState, run_circuit
from qcoin.constants import TOL
from qcoin.errors import DimensionMismatch, FitDidNotConverge, InternalError, InvalidParameter
from qcoin.interference import (
    dip_curve_from_visibility,
    dip_model,
    fit_visibility,
    visibility,
    visibility_sweep,
)
from qcoin.markov import CausalState, PerturbedCoin
from qcoin.quantum import IdealOutputState, ProcessSpec, ideal_output_state, output_overlap

S0, S1 = CausalState.S0, CausalState.S1


def eq7_oracle(la, ma, sa, lb, mb, sb, steps=3):
    """Closed-form output overlap, written out independently of the library."""

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

    def state_vec(l, m, which):
        if which == 0:
            return (math.sqrt(l), math.sqrt(1 - l))
        return (math.sqrt(1 - m), math.sqrt(m))

    total = 0.0
    for bits in ("".join(t) for t in itertools.product("01", repeat=steps)):
        last = 0 if bits[-1] == "0" else 1
        va, vb = state_vec(la, ma, last), state_vec(lb, mb, last)
        inner = va[0] * vb[0] + va[1] * vb[1]
        total += math.sqrt(prob(la, ma, sa, bits) * prob(lb, mb, sb, bits)) * inner
    return total


class TestOverlapAndCoincidence:
    def test_identical_states_bunch_perfectly(self):
        psi = run_circuit(PerturbedCoin(0.4, 0.7), S1, 3)
        phi = run_circuit(PerturbedCoin(0.4, 0.7), S1, 3)
        assert visibility(psi, phi) == 1.0
        assert (1.0 - visibility(psi, phi)) / 2.0 == 0.0

    def test_orthogonal_states_are_distinguishable(self):
        psi = run_circuit(PerturbedCoin(1.0, 0.5), S0, 3)
        phi = run_circuit(PerturbedCoin(0.0, 0.5), S0, 3)
        assert visibility(psi, phi) == 0.0
        assert (1.0 - visibility(psi, phi)) / 2.0 == 0.5

    def test_mixed_pair_matches_closed_form(self):
        psi = run_circuit(PerturbedCoin(0.5, 0.5), S0, 3)
        phi = run_circuit(PerturbedCoin(1.0, 0.5), S0, 3)
        expected = eq7_oracle(0.5, 0.5, 0, 1.0, 0.5, 0)
        v = visibility(psi, phi)
        assert math.sqrt(v) == pytest.approx(expected, abs=1e-12)
        assert (1.0 - v) / 2.0 == pytest.approx((1.0 - expected**2) / 2.0, abs=1e-12)

    def test_works_on_ideal_output_states(self):
        psi = ideal_output_state(PerturbedCoin(0.3, 0.8), S1, 3)
        phi = ideal_output_state(PerturbedCoin(0.6, 0.1), S0, 3)
        v = visibility(psi, phi)
        assert 0.0 <= v <= 1.0
        closed = output_overlap(ProcessSpec(PerturbedCoin(0.3, 0.8)), S1,
                                ProcessSpec(PerturbedCoin(0.6, 0.1)), S0, 3)
        assert v == pytest.approx(closed**2, abs=1e-12)

    def test_coincidence_complements_visibility(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            psi = run_circuit(PerturbedCoin(rng.random(), rng.random()), S0, 3)
            phi = run_circuit(PerturbedCoin(rng.random(), rng.random()), S1, 3)
            v = visibility(psi, phi)
            assert 0.0 <= v <= 1.0
            assert abs(visibility(phi, psi) - v) <= 1e-12

    def test_visibility_squares_bhattacharyya_one_step_ahead(self):
        from qcoin.quantum import bhattacharyya_futures

        rng = np.random.default_rng(43)
        starts = (S0, S1)
        for _ in range(1000):
            pa = ProcessSpec(PerturbedCoin(rng.random(), rng.random()))
            pb = ProcessSpec(PerturbedCoin(rng.random(), rng.random()))
            sa, sb = starts[rng.integers(2)], starts[rng.integers(2)]
            psi = run_circuit(pa.coin, sa, 3)
            phi = run_circuit(pb.coin, sb, 3)
            b4 = bhattacharyya_futures(pa, sa, pb, sb, 4)
            assert abs(visibility(psi, phi) - b4**2) <= 1e-12

    def test_dimension_mismatch(self):
        psi = run_circuit(PerturbedCoin(0.4, 0.7), S0, 2)
        phi = run_circuit(PerturbedCoin(0.4, 0.7), S0, 3)
        with pytest.raises(DimensionMismatch):
            visibility(psi, phi)

    def test_zero_norm_state_is_rejected(self):
        # visibility takes state objects, and a zero-norm state cannot be built
        with pytest.raises(InvalidParameter, match="photon state is not normalized"):
            PhotonState(1, np.zeros((2, 2)), 0.5)
        with pytest.raises(InvalidParameter, match="output state is not normalized"):
            IdealOutputState(1, np.zeros((2, 2)))

    def test_excess_over_one_bound_is_the_state_norm_tolerance(self, monkeypatch):
        psi = run_circuit(PerturbedCoin(0.4, 0.7), S1, 3)
        assert visibility(psi, psi) == 1.0
        # identical states give exactly 1, which a bound below 1 must reject
        monkeypatch.setattr(interference, "TOL", dataclasses.replace(TOL, state_norm=-1e-15))
        with pytest.raises(InternalError):
            visibility(psi, psi)

    def test_self_visibility_is_one_over_grid(self):
        ticks = np.round(np.arange(0.0, 1.01, 0.1), 10)
        for l in ticks:
            for m in ticks:
                psi = run_circuit(PerturbedCoin(float(l), float(m)), S0, 3)
                assert visibility(psi, psi) == 1.0


class TestDipCurve:
    def test_full_dip_at_zero_delay(self):
        psi = run_circuit(PerturbedCoin(0.5, 0.5), S0, 3)
        counts = dip_curve_from_visibility(visibility(psi, psi), 1.0, [0.0], 1000.0)
        assert counts[0] == pytest.approx(0.0, abs=1e-9)

    def test_baseline_recovered_far_from_dip(self):
        psi = run_circuit(PerturbedCoin(0.5, 0.5), S0, 3)
        counts = dip_curve_from_visibility(visibility(psi, psi), 2.0, [-10.0, 10.0], 1000.0)
        assert np.all(np.abs(counts - 1000.0) <= 1e-4 * 1000.0)

    def test_formula_value(self):
        counts = dip_model(0.0, 1000.0, 0.96, 1.0)
        assert counts == pytest.approx(40.0, abs=1e-9)

    def test_rejects_bad_envelope(self):
        with pytest.raises(InvalidParameter):
            dip_curve_from_visibility(1.0, 0.0, [0.0], 1000.0)
        with pytest.raises(InvalidParameter):
            dip_curve_from_visibility(1.0, 1.0, [0.0], 0.0)

    def test_rejects_an_envelope_whose_square_underflows(self):
        # sigma^2 rounds to 0, so the curve at zero delay is 0/0
        with pytest.raises(InvalidParameter, match="not finite"):
            dip_curve_from_visibility(1.0, 1e-300, [-1.0, 0.0, 1.0], 1000.0)


class TestFitVisibility:
    def test_perfect_visibility_roundtrip(self):
        delays = np.linspace(-5, 5, 41)
        fit = fit_visibility(zip(delays, dip_model(delays, 1000.0, 1.0, 1.0)))
        assert fit.visibility == pytest.approx(1.0, abs=TOL.fit_roundtrip)

    def test_partial_visibility_roundtrip(self):
        delays = np.linspace(-5, 5, 41)
        fit = fit_visibility(zip(delays, dip_model(delays, 1000.0, 0.96, 1.0)))
        assert fit.visibility == pytest.approx(0.96, abs=TOL.fit_roundtrip)

    def test_noiseless_recovery_over_v_sigma_grid(self):
        for v in np.linspace(0.0, 1.0, 6):
            for sigma in (0.1, 0.7, 2.0, 10.0):
                delays = np.linspace(-5 * sigma, 5 * sigma, 41)
                fit = fit_visibility(zip(delays, dip_model(delays, 2000.0, v, sigma)))
                assert fit.visibility == pytest.approx(float(v), abs=TOL.fit_roundtrip)
                if v > 0.0:
                    assert fit.sigma_ns == pytest.approx(sigma, rel=1e-4)

    def test_recovers_shifted_center(self):
        delays = np.linspace(-5, 5, 41)
        fit = fit_visibility(zip(delays, dip_model(delays, 1000.0, 0.8, 1.0, center_ns=0.7)))
        assert fit.center_ns == pytest.approx(0.7, abs=1e-6)
        assert fit.visibility == pytest.approx(0.8, abs=TOL.fit_roundtrip)

    def test_poisson_calibration_100_trials(self):
        # >= 95 of 100 seeded fits must land within 3 reported sigma of truth
        delays = np.linspace(-5, 5, 41)
        expected = dip_model(delays, 10000.0, 0.96, 1.0)
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            sampled = rng.poisson(expected).astype(float)
            fit = fit_visibility(zip(delays, sampled))
            if abs(fit.visibility - 0.96) <= 3.0 * fit.visibility_err:
                hits += 1
        assert hits >= 95

    def test_requires_five_samples(self):
        with pytest.raises(InvalidParameter):
            fit_visibility([(0.0, 10.0), (1.0, 10.0), (2.0, 10.0), (3.0, 10.0)])

    def test_fit_failure_raises(self):
        rng = np.random.default_rng(0)
        delays = np.linspace(-5, 5, 41)
        counts = rng.random(41) * 1000.0 + 10.0
        with pytest.raises(FitDidNotConverge):
            fit_visibility(zip(delays, counts), max_evals=4)


class TestVisibilitySweep:
    def fixed_fair(self):
        return (PerturbedCoin(0.5, 0.5), S0)

    def test_identity_point_is_exactly_one(self):
        assert visibility_sweep(self.fixed_fair(), [(PerturbedCoin(0.5, 0.5), S0)], 3) == [1.0]

    def test_magenta_series_matches_closed_form(self):
        l_values = [0.00, 0.10, 0.30, 0.50, 0.70, 0.90, 0.99]
        varying = [(PerturbedCoin(l, 0.5), S0) for l in l_values]
        visibilities = visibility_sweep(self.fixed_fair(), varying, 3)
        for l, v in zip(l_values, visibilities):
            expected = eq7_oracle(0.5, 0.5, 0, l, 0.5, 0) ** 2
            assert v == pytest.approx(expected, abs=1e-12)

    def test_turquoise_series_closed_form_is_l_fourth(self):
        # fixed process deterministic heads: overlap = sqrt(l^3) * sqrt(l) = l^2
        fixed = (PerturbedCoin(1.0, 1.0), S0)
        l_values = [0.25, 0.50, 0.70, 0.85, 0.95, 1.0]
        varying = [(PerturbedCoin(l, 0.5), S0) for l in l_values]
        visibilities = visibility_sweep(fixed, varying, 3)
        for l, v in zip(l_values, visibilities):
            assert v == pytest.approx(l**4, abs=1e-12)
            assert v == pytest.approx(eq7_oracle(1.0, 1.0, 0, l, 0.5, 0) ** 2, abs=1e-12)
        assert max(visibilities) == visibilities[-1] == 1.0

    def test_swapping_processes_preserves_visibility(self):
        a = (PerturbedCoin(0.3, 0.8), S1)
        b = (PerturbedCoin(0.7, 0.2), S0)
        forward = visibility_sweep(a, [b], 3)[0]
        backward = visibility_sweep(b, [a], 3)[0]
        assert abs(forward - backward) <= 1e-12

    def test_rejects_empty_varying_list(self):
        with pytest.raises(InvalidParameter):
            visibility_sweep(self.fixed_fair(), [], 3)


def test_visibility_sweep_agrees_with_output_overlap():
    rng = np.random.default_rng(47)
    fixed_coin = PerturbedCoin(rng.random(), rng.random())
    varying = [(PerturbedCoin(rng.random(), rng.random()), S1) for _ in range(10)]
    visibilities = visibility_sweep((fixed_coin, S0), varying, 3)
    for (coin, start), v in zip(varying, visibilities):
        closed = output_overlap(ProcessSpec(fixed_coin), S0, ProcessSpec(coin), start, 3)
        assert v == pytest.approx(closed**2, abs=1e-12)
