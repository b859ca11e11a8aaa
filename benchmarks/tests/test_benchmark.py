"""Tests of the benchmark itself (not part of the Tier-1 suite).

    PYTHONPATH=src python3 -m pytest -q benchmarks/tests
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, per_layer_metrics  # noqa: E402
import worker  # noqa: E402
from worker import WINDOW_METRICS  # noqa: E402

INDICES = range(workloads.WARM_UP, 12)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = [workloads.make_op(workload, 5, i) for i in INDICES]
    again = [workloads.make_op(workload, 5, i) for i in INDICES]
    assert first == again
    assert json.dumps([op.inputs for op in first]) == json.dumps([op.inputs for op in again])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_change_parameters_but_not_the_mix(workload):
    a = [workloads.make_op(workload, 1, i) for i in INDICES]
    b = [workloads.make_op(workload, 2, i) for i in INDICES]
    assert [op.kind for op in a] == [op.kind for op in b]
    assert [op.inputs.get("steps") for op in a] == [op.inputs.get("steps") for op in b]
    assert [op.inputs.get("command") for op in a] == [op.inputs.get("command") for op in b]
    assert [op.inputs for op in a] != [op.inputs for op in b]


def test_schedules():
    deep = [workloads.make_op("deep-horizon", 3, i).inputs["steps"] for i in range(10)]
    assert deep == [8, 9, 10, 11, 12] * 2
    figure = [workloads.make_op("figure-presets", 3, i) for i in range(10)]
    assert [op.kind for op in figure] == list(workloads.FIGURE_COMMANDS) * 2
    assert [op.inputs["config"] for op in figure[:5]] == list(workloads.BUNDLED_PRESETS.values())
    assert all(isinstance(op.inputs["config"], dict) for op in figure[5:])


def test_noisy_hom_dips_are_deeper_than_the_noise_and_keep_the_edges():
    # seed 8 op 1477 once drew a dip of visibility 0.0048, which the fit cannot resolve
    ops = [workloads.make_op("figure-presets", 8, i) for i in range(1477, 1477 + 5 * 200, 5)]
    assert {op.kind for op in ops} == {"hom-dip"}
    records = [op.inputs["config"]["hom-dip"] for op in ops]
    assert all(workloads.theory_visibility(r["process_a"], r["process_b"], 3)
               >= workloads.MIN_NOISY_VISIBILITY for r in records)
    probs = {r[p][k] for r in records for p in ("process_a", "process_b") for k in ("l", "m")}
    assert {0.0, 1.0} <= probs


def _run_op(runner, op):
    """The op's outcome and a digest of everything it returned or wrote."""
    with contextlib.redirect_stdout(io.StringIO()):
        result = runner.prepare(op)()
    outcome = runner.check(op, result)
    if op.kind == "library":
        return outcome, hashlib.sha256(b"".join(np.asarray(x).tobytes() for x in result)).hexdigest()
    return outcome, {p.name: workloads.payload_digest(p)
                     for p in sorted(runner.out_dir.iterdir()) if p.suffix in (".csv", ".json")}


def test_traced_and_untraced_ops_agree(tmp_path):
    ops = [workloads.make_op("figure-presets", 4, i) for i in range(10)]
    ops += [workloads.make_op("deep-horizon", 4, i) for i in (0, 1)]
    runner = workloads.Runner(tmp_path)
    plain = [_run_op(runner, op) for op in ops]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [_run_op(runner, op) for op in ops]
    finally:
        tracer.uninstall()
    assert all(outcome.ok for outcome, _ in plain), plain
    assert plain == traced
    metrics, by_steps = tracer.summary(len(ops))
    assert metrics["markov.future_distribution.calls"] > 0
    assert metrics["cli.main.calls"] == 10 / len(ops)
    assert metrics["markov.sample_trajectories.draws"] == 2 * 1_000_000 / len(ops)
    assert any(name == "markov.future_distribution" and steps == 9
               for name, steps, _, _ in by_steps)
    # uninstall restores every binding
    from qcoin import cli, markov, quantum
    assert quantum.future_distribution is markov.future_distribution
    assert not hasattr(cli.main, "__wrapped__")


def test_bundled_round_is_checked_against_recorded_digests(tmp_path):
    runner = workloads.Runner(tmp_path)
    op = workloads.make_op("figure-presets", 1, 0)
    outcome, _ = _run_op(runner, op)
    assert outcome.ok
    runner.references["fig4"]["futures.csv"] = "0" * 64
    outcome, _ = _run_op(runner, op)
    assert not outcome.ok and "futures.csv" in outcome.message


def test_injected_fault_counts_as_failed_op(tmp_path):
    config = json.loads((BENCH.parent / "src/qcoin/presets/oracle.json").read_text())
    config["oracle-check"].update(inject_fault=True, grid_step=0.5, step_counts=[1, 2],
                                  identity_draws=20)
    op = workloads.Op(0, "oracle-check", {"command": "oracle-check", "config": config, "seed": 3})
    outcome, _ = _run_op(workloads.Runner(tmp_path), op)
    assert not outcome.ok
    assert "exit code 3" in outcome.message


def test_window_counts_raising_ops_and_unreadable_outputs_as_failed(tmp_path):
    class Broken(workloads.Runner):
        def prepare(self, op):
            return (lambda: 1 / 0) if op.index % 2 else (lambda: None)

        def check(self, op, result):
            raise KeyError("checks")

    window = worker.run_window(Broken(tmp_path), "deep-horizon", 1, 1e-4)
    assert window["failed"] == list(range(len(window["latencies"])))
    assert len(window["failed"]) >= 2
    first, second = window["failures"][:2]
    assert "KeyError" in first["message"] and "ZeroDivisionError" in second["message"]
    assert second["inputs"] == workloads.make_op("deep-horizon", 1, 1).inputs


def test_calibration_scales_each_op_by_the_kernel_around_it():
    nominal = worker.calibration.NOMINAL_S
    sampler = worker.calibration.Sampler(1.0)
    sampler.samples = [(0.0, nominal), (1.0, 2 * nominal), (2.0, 2 * nominal), (3.0, nominal)]
    # samples before, during and after each op count; others do not
    spans = [(0.5, 0.6, 1.0), (0.5, 2.5, 1.0), (2.2, 2.4, 1.0)]
    assert sampler.calibrate(spans) == pytest.approx([2 / 3, 2 / 3, 2 / 3])
    assert sampler.calibrate([(3.5, 3.6, 1.0)]) == pytest.approx([1.0])


def test_sampler_takes_samples_inside_a_long_call():
    with worker.calibration.Sampler(0.01) as sampler:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 5 and sampler.paused_s > 0


def test_deep_horizon_check_bites():
    op = workloads.make_op("deep-horizon", 1, 0)
    psi, ideal, vis, overlap, bhattacharyya = workloads._library_call(op.inputs)()
    assert workloads._check_library((psi, ideal, vis, overlap, bhattacharyya)).ok
    assert not workloads._check_library((psi, ideal, vis, overlap + 1e-9, bhattacharyya)).ok


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    expected = [list(m) for m in per_layer_metrics() + list(WINDOW_METRICS)]
    assert [[m["name"], m["unit"], m["better"]] for m in spec["per_layer"]] == expected


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "deep-horizon", "--seed", "1", "--seconds", "1"]) != 0
    assert "{" not in capsys.readouterr().out


def _side(runs, seconds=30):
    return {"side": "x", "git_sha": None, "machine": {},
            "settings": {"seconds": seconds, "setup_samples": run.SETUP_SAMPLES},
            "runs": [{"workload": w, "seed": s, "trace": t, "failed_indices": f,
                      "result": {"attempted": n, "failed": len(f), "metrics": {}}}
                     for w, s, t, n, f in runs]}


def test_failures_are_compared_over_ops_both_sides_attempted():
    # the faster change reaches op 1477 of seed 8, which the parent never ran
    parent = _side([("figure-presets", 8, 0, 1400, []), ("figure-presets", 9, 0, 1400, [3])])
    change = _side([("figure-presets", 8, 0, 2000, [1477]), ("figure-presets", 9, 0, 2000, [3]),
                    ("figure-presets", 10, 0, 2000, [5]), ("figure-presets", 9, 1, 2000, [7])])
    assert compare.failures(parent["runs"], change["runs"], "figure-presets") == (1, 1, 2800)
    change["runs"][1]["failed_indices"] = [3, 1399]
    assert compare.failures(parent["runs"], change["runs"], "figure-presets") == (1, 2, 2800)


def test_compare_refuses_files_with_other_settings(tmp_path, capsys):
    paths = []
    for name, seconds in (("parent", 30), ("change", 10)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(_side([], seconds)))
    assert compare.main([str(p) for p in paths]) != 0
    assert "refusing to compare" in capsys.readouterr().err
