"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line when its assertions hold (visible with
pytest -s); the suite-runtime criterion is reported by the session hook in
conftest.py.
"""

import csv
import itertools
import math
import time

import numpy as np
import pytest

from qcoin.circuit import (
    apply_block,
    arrival_time_distribution,
    block_norm_accounting,
    prepare_input,
    reconstruct_memory_density,
    run_circuit,
)
from qcoin.cli import EXIT_OK, main
from qcoin.constants import TOL
from qcoin.interference import dip_model, fit_visibility, visibility
from qcoin.markov import (
    CausalState,
    PerturbedCoin,
    WeightMethod,
    classical_complexity,
    classical_fidelity,
    counts_to_distribution,
    future_distribution,
    sample_trajectories,
    stationary_weights,
)
from qcoin.quantum import (
    ProcessSpec,
    bhattacharyya_futures,
    ideal_output_state,
    memory_density,
    output_overlap,
)

S0, S1 = CausalState.S0, CausalState.S1

# The paper's as-implemented stay-tails sweep, held by the fig5a preset that complexity-sweep runs by default.
IMPLEMENTED_STAY_TAILS_VALUES = (0.101, 0.197, 0.297, 0.391, 0.490, 0.588, 0.685, 0.784, 0.882, 0.994)

GRID_21 = [
    (round(0.05 * i, 10), round(0.05 * j, 10)) for i in range(21) for j in range(21)
]


def _report(n, text):
    print(f"\nPASS  criterion {n}: {text}")


def _read_csv(path):
    payload = [line for line in open(path, encoding="utf-8") if not line.startswith("#")]
    rows = list(csv.reader(payload))
    return rows[0], rows[1:]


def test_criterion_1_circuit_theory_equivalence():
    start_time = time.perf_counter()
    worst_amp = 0.0
    worst_prob = 0.0
    for l, m in GRID_21:
        coin = PerturbedCoin(l, m)
        for start in (S0, S1):
            for steps in (1, 2, 3, 4):
                state = run_circuit(coin, start, steps)
                ideal = ideal_output_state(coin, start, steps)
                worst_amp = max(worst_amp, float(np.abs(state.amplitudes - ideal.amplitudes).max()))
                dist, _ = arrival_time_distribution(state)
                enum = future_distribution(coin, start, steps)
                for bits, p in enum.probabilities.items():
                    worst_prob = max(worst_prob, abs(dist.probabilities[bits] - p))
    elapsed = time.perf_counter() - start_time
    assert worst_amp <= 1e-12
    assert worst_prob <= 1e-12
    assert elapsed < 10.0
    _report(1, f"circuit matches theory on 21x21 grid, M=1..4 "
               f"(amp dev {worst_amp:.1e}, prob dev {worst_prob:.1e}, {elapsed:.1f} s)")


def test_criterion_2_fig4_theory_layer(tmp_path):
    def oracle(l, m, start_idx, bits):
        p, s = 1.0, start_idx
        for c in bits:
            if s == 0:
                p *= l if c == "0" else 1.0 - l
            else:
                p *= 1.0 - m if c == "0" else m
            s = 0 if c == "0" else 1
        return p

    assert main(["futures", "--config", "fig4", "--out", str(tmp_path)]) == EXIT_OK
    columns, rows = _read_csv(tmp_path / "futures.csv")
    assert columns == ["start_state", "m", "bitstring", "probability"]
    by_key = {(r[0], r[1], r[2]): float(r[3]) for r in rows}
    m_values = [i / 10 for i in range(1, 11)]
    assert {r[0] for r in rows} == {"S0", "S1"}
    for m in m_values:
        # the tails-run probability is the cube of the stay-tails probability
        assert by_key[("S1", repr(m), "111")] == m * m * m
        assert by_key[("S1", repr(m), "111")] == pytest.approx(m**3, abs=1e-12)
        for start_name, start_idx in (("S0", 0), ("S1", 1)):
            for bits in ("".join(t) for t in itertools.product("01", repeat=3)):
                got = by_key[(start_name, repr(m), bits)]
                assert got == pytest.approx(oracle(0.4, m, start_idx, bits), abs=1e-15)
    assert by_key[("S1", repr(0.7), "111")] == pytest.approx(0.343, abs=1e-12)
    _report(2, "futures command reproduces the 3-step theory surface incl. P(111|S1) = m^3")


def test_criterion_3_fig5a_theory_layer(tmp_path):
    assert main(["complexity-sweep", "--out", str(tmp_path)]) == EXIT_OK
    _, rows = _read_csv(tmp_path / "complexity.csv")
    assert [float(r[0]) for r in rows] == list(IMPLEMENTED_STAY_TAILS_VALUES)
    for row in rows:
        m, c_mu, c_q = float(row[0]), float(row[1]), float(row[2])
        assert c_q <= c_mu + 1e-12
        coin = PerturbedCoin(0.397, m)
        weights = stationary_weights(coin, WeightMethod.THREE_STEP_MARGINAL)
        # independent oracle: LAPACK eigen-decomposition instead of the closed form
        eigs = np.linalg.eigvalsh(memory_density(coin, weights).matrix)
        oracle = float(-sum(v * math.log2(v) for v in eigs if v > 0.0))
        assert c_q == pytest.approx(oracle, abs=TOL.entropy_oracle)
    symmetric = PerturbedCoin(0.397, 0.397)
    for method in WeightMethod:
        assert classical_complexity(stationary_weights(symmetric, method)) == 1.0
    _report(3, "complexity sweep at implemented parameters: C_q <= C_mu, "
               "C_q matches the eigenvalue oracle, C_mu = 1 bit at l = m")


def test_criterion_4_identity_interference_and_fit_roundtrip():
    for l, m in GRID_21:
        coin = PerturbedCoin(l, m)
        psi = run_circuit(coin, S0, 3)
        phi = run_circuit(coin, S0, 3)
        assert abs(visibility(psi, phi) - 1.0) <= 1e-12
    delays = np.linspace(-5.0, 5.0, 41)
    for target in (0.25, 0.5, 0.96, 1.0):
        fit = fit_visibility(zip(delays, dip_model(delays, 10000.0, target, 1.0)))
        assert fit.visibility == pytest.approx(target, abs=TOL.fit_roundtrip)
    _report(4, "identity-process visibility is 1 across the grid; "
               "noiseless fits recover v within 1e-6 (incl. v = 0.96)")


def test_criterion_5_overlap_identity_thousand_draws():
    start_time = time.perf_counter()
    rng = np.random.default_rng(2718)
    starts = (S0, S1)
    worst = 0.0
    for _ in range(1000):
        proc_a = ProcessSpec(PerturbedCoin(rng.random(), rng.random()))
        proc_b = ProcessSpec(PerturbedCoin(rng.random(), rng.random()))
        start_a, start_b = starts[rng.integers(2)], starts[rng.integers(2)]
        lhs = output_overlap(proc_a, start_a, proc_b, start_b, 3)
        rhs = bhattacharyya_futures(proc_a, start_a, proc_b, start_b, 4)
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - start_time
    assert worst <= 1e-12
    assert elapsed < 5.0
    _report(5, f"3-step output overlap equals 4-step Bhattacharyya on 1000 draws "
               f"(max dev {worst:.1e}, {elapsed:.1f} s)")


def test_criterion_6_post_selection_accounting():
    worst_norm = 0.0
    for l, m in [(0.4, 0.7), (0.0, 0.0), (1.0, 1.0), (0.397, 0.994), (0.5, 0.5), (0.15, 0.85)]:
        coin = PerturbedCoin(l, m)
        for start in (S0, S1):
            state = prepare_input(coin, start)
            for _ in range(3):
                retained, discarded = block_norm_accounting(state, coin)
                worst_norm = max(worst_norm, abs(retained + discarded - 1.0))
                state = apply_block(state, coin)
            assert abs(state.success_probability - 0.125) <= 1e-12
    assert worst_norm <= 1e-12
    _report(6, f"success probability is 1/8 after 3 blocks; both beam-splitter arms "
               f"account for the full norm (max dev {worst_norm:.1e})")


def test_criterion_7_memory_reconstruction():
    worst = 0.0
    for l, m in GRID_21:
        if l == 1.0 and m == 1.0:
            continue  # no unique stationary weights for the reducible chain
        coin = PerturbedCoin(l, m)
        for method in WeightMethod:
            weights = stationary_weights(coin, method)
            rebuilt = reconstruct_memory_density(coin, weights, 3)
            direct = memory_density(coin, weights)
            worst = max(worst, float(np.abs(rebuilt.matrix - direct.matrix).max()))
    assert worst <= 1e-12
    _report(7, f"ensemble reconstruction equals the direct causal-state mixture "
               f"for both weight methods (max dev {worst:.1e})")


def test_criterion_8_shot_noise_fidelity_calibration():
    coin = PerturbedCoin(0.4, 0.7)
    theory = future_distribution(coin, S1, 3)
    n = 10**6
    successes = 0
    for seed in range(100):
        counts = sample_trajectories(coin, S1, 3, n, seed=seed)
        fidelity = classical_fidelity(counts_to_distribution(counts, 3), theory)
        if fidelity >= 0.9999:
            successes += 1
    assert successes >= 99
    _report(8, f"empirical fidelity at n=1e6 reached 0.9999 in {successes}/100 seeded trials")


def test_criterion_9_fig5c_theory_curves(tmp_path):
    def eq7(la, ma, sa, lb, mb, sb):
        def prob(l, m, start, bits):
            p, s = 1.0, start
            for c in bits:
                if s == 0:
                    p *= l if c == "0" else 1.0 - l
                else:
                    p *= 1.0 - m if c == "0" else m
                s = 0 if c == "0" else 1
            return p

        def vec(l, m, which):
            return (math.sqrt(l), math.sqrt(1 - l)) if which == 0 else (math.sqrt(1 - m), math.sqrt(m))

        total = 0.0
        for bits in ("".join(t) for t in itertools.product("01", repeat=3)):
            last = 0 if bits[-1] == "0" else 1
            va, vb = vec(la, ma, last), vec(lb, mb, last)
            total += math.sqrt(prob(la, ma, sa, bits) * prob(lb, mb, sb, bits)) * (
                va[0] * vb[0] + va[1] * vb[1]
            )
        return total

    assert main(["compare-sweep", "--config", "fig5c", "--out", str(tmp_path)]) == EXIT_OK
    _, rows = _read_csv(tmp_path / "compare_sweep.csv")
    fixed = {"magenta": (0.5, 0.5), "turquoise": (1.0, 1.0)}
    seen = set()
    for series, l_text, _, vis_text in rows:
        l, vis = float(l_text), float(vis_text)
        la, ma = fixed[series]
        assert vis == pytest.approx(eq7(la, ma, 0, l, 0.5, 0) ** 2, abs=1e-12)
        seen.add((series, l))
    assert ("magenta", 0.5) in seen and ("turquoise", 1.0) in seen
    magenta_identity = [
        float(v) for s, l, _, v in rows if s == "magenta" and float(l) == 0.5
    ]
    assert magenta_identity == [1.0]
    _report(9, "compare-sweep matches the closed-form overlap point-wise; "
               "v = 1 exactly at the identity point")


def test_criterion_10_runtime_note():
    # asserted by the pytest_sessionfinish hook in conftest.py, which times
    # the whole run and fails the session beyond the 60 s budget
    _report(10, "suite runtime asserted at session finish (see final line)")
