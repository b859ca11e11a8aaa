"""The sweep commands run each sweep as one array pass; every CSV row and JSON payload equals a per-point
loop over the public API, bit for bit (compared as text, so -0.0 and 0.0 differ)."""

import json
import math

from hypothesis import example, given, settings, strategies as st

from oracles import bits_to_index
from qcoin.circuit import run_circuit
from qcoin.cli import cmd_compare_sweep, cmd_complexity_sweep, cmd_futures, command_record
from qcoin.encoding import all_bitstrings
from qcoin.errors import ReducibleChain
from qcoin.interference import visibility
from qcoin.markov import PerturbedCoin, WeightMethod, classical_complexity, future_distribution, stationary_weights
from qcoin.quantum import memory_density, von_neumann_entropy

PROBS = st.integers(0, 20).map(lambda i: round(0.05 * i, 10))  # the 0.05 grid, 0 and 1 included
STARTS = st.lists(st.sampled_from(["S0", "S1"]), min_size=1, max_size=3)
SWEEP = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def assert_same(got, expected):
    assert json.dumps(got) == json.dumps(expected)


@SWEEP
@given(l=PROBS, m_values=st.lists(PROBS, min_size=1, max_size=5), steps=st.integers(1, 8), starts=STARTS)
@example(l=0.3, m_values=[0.45, 0.45, 0.0, 1.0], steps=1, starts=["S1", "S0", "S1"])
@example(l=1.0, m_values=[1.0, 1.0], steps=8, starts=["S0", "S1"])
def test_futures_equal_a_loop_over_future_distribution(l, m_values, steps, starts):
    rec = command_record({"futures": {"l": l, "m_values": m_values, "steps": steps, "start_states": starts}},
                         "futures")
    output = cmd_futures(rec)
    rows, distributions = [], []
    for start in rec["start_states"]:
        for m in rec["m_values"]:
            bins = future_distribution(PerturbedCoin(rec["l"], m), start, steps).bins
            probs = {bits: float(bins[bits_to_index(bits)]) for bits in all_bitstrings(steps)}
            rows += [[start.name, m, bits, p] for bits, p in probs.items()]
            distributions.append({"start": start.name, "l": rec["l"], "m": m,
                                  "distribution": {"steps": steps, **probs}})
    assert_same(output.table[2], rows)
    assert_same(output.payloads, {"futures.json": {"distributions": distributions}})
    assert_same([ys for _, series, *_ in output.plots for _, ys, _ in series],
                [list(d["distribution"].values())[1:] for d in distributions])


@SWEEP
@given(l=PROBS, m_values=st.lists(PROBS, min_size=1, max_size=6), method=st.sampled_from(list(WeightMethod)))
@example(l=1.0, m_values=[1.0], method=WeightMethod.THREE_STEP_MARGINAL)  # all reducible: no kernel runs
@example(l=1.0, m_values=[1.0, 1.0], method=WeightMethod.EXACT_STATIONARY)
@example(l=1.0, m_values=[1.0, 0.5, 0.0, 1.0, 0.5], method=WeightMethod.THREE_STEP_MARGINAL)
@example(l=0.0, m_values=[0.0, 1.0, 0.0], method=WeightMethod.EXACT_STATIONARY)
def test_complexity_sweep_equals_a_loop_over_the_weight_api(l, m_values, method):
    rec = command_record({"complexity-sweep": {"l": l, "m_values": m_values, "weight_method": method.value}},
                         "complexity-sweep")
    output = cmd_complexity_sweep(rec)
    rows, densities, xs, classical, quantum = [], [], [], [], []
    for m in rec["m_values"]:
        coin = PerturbedCoin(rec["l"], m)
        try:
            weights = stationary_weights(coin, method)
        except ReducibleChain as exc:
            rows.append([m, "", "", str(exc)])
            continue
        rho = memory_density(coin, weights)
        rows.append([m, classical_complexity(weights), von_neumann_entropy(rho), ""])
        densities.append({"m": m, "memory_density": {"re": rho.matrix.tolist(), "im": [[0.0, 0.0], [0.0, 0.0]]}})
        xs.append(m)
        classical.append(rows[-1][1])
        quantum.append(rows[-1][2])
    assert_same(output.table[2], rows)
    assert_same(output.payloads, {"memory_densities.json": {
        "l": rec["l"], "weight_method": method.value, "densities": densities}})
    assert_same([series for _, series, *_ in output.plots],
                [[[xs, quantum, "C_q"], [xs, classical, "C_mu"]]] if xs else [])


SERIES = st.fixed_dictionaries({
    "fixed": st.fixed_dictionaries({"l": PROBS, "m": PROBS, "start": st.sampled_from(["S0", "S1"])}),
    "varying": st.fixed_dictionaries({"m": PROBS, "start": st.sampled_from(["S0", "S1"]),
                                      "l_values": st.lists(PROBS, min_size=1, max_size=5)})})


@SWEEP
@given(steps=st.integers(1, 12), series=st.lists(SERIES, min_size=1, max_size=2))
@example(steps=12, series=[{"fixed": {"l": 1.0, "m": 1.0, "start": "S1"},
                            "varying": {"m": 1.0, "start": "S0", "l_values": [1.0, 1.0, 0.0, 0.35]}}])
def test_compare_sweep_equals_a_loop_over_run_circuit_and_visibility(steps, series):
    series = [{"name": f"s{i}", **entry} for i, entry in enumerate(series)]
    rec = command_record({"compare-sweep": {"steps": steps, "series": series}}, "compare-sweep")
    output = cmd_compare_sweep(rec)
    rows, records = [], []
    for entry in rec["series"]:
        (fixed_coin, fixed_start), varying = entry["fixed"], entry["varying"]
        psi = run_circuit(fixed_coin, fixed_start, steps)
        fixed = {"label": f"{entry['name']}-fixed", "l": fixed_coin.stay_heads, "m": fixed_coin.stay_tails,
                 "start": fixed_start.name}
        for l in varying["l_values"]:
            vis = visibility(psi, run_circuit(PerturbedCoin(l, varying["m"]), varying["start"], steps))
            rows.append([entry["name"], l, math.sqrt(vis), vis])
            records.append({"overlap": math.sqrt(vis), "visibility": vis, "coincidence_min": 0.5 * (1.0 - vis),
                            "process_a": fixed, "process_b": {"label": f"{entry['name']} l={l:g}", "l": l,
                                                              "m": varying["m"], "start": varying["start"].name}})
    assert_same(output.table[2], rows)
    assert_same(output.payloads, {"compare_sweep.json": records})
