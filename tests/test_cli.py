import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qcoin.checks import probability_grid
from qcoin.circuit import _run
from qcoin.cli import (
    COMMANDS,
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_FIT,
    EXIT_OK,
    MIN_GRID_STEP,
    build_parser,
    command_record,
    config_hash,
    load_preset,
    main,
)
from qcoin.constants import ALLOCATION_BUDGET_BYTES, TOL
from qcoin.encoding import index_to_bits
from qcoin.errors import ConfigError, FitDidNotConverge
from qcoin.markov import CausalState, PerturbedCoin, WeightMethod, future_distribution
from qcoin.quantum import _superposition, causal_pair

ROOT = Path(__file__).resolve().parent.parent

# The paper's as-implemented sweep, slightly off the nominal round values;
# the bundled fig5a preset, which complexity-sweep runs by default, holds it.
IMPLEMENTED_STAY_HEADS = 0.397
IMPLEMENTED_STAY_TAILS_VALUES = (0.101, 0.197, 0.297, 0.391, 0.490, 0.588, 0.685, 0.784, 0.882, 0.994)


def read_csv(path):
    """Header comment block and payload rows of an output CSV."""
    header, payload = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            (header if line.startswith("#") else payload).append(line.rstrip("\n"))
    rows = list(csv.reader(payload))
    return header, rows[0], rows[1:]


# two fair-coin processes: the required part of a hom-dip record
PAIR = {"process_a": {"l": 0.5, "m": 0.5}, "process_b": {"l": 0.5, "m": 0.5}}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestFutures:
    def test_default_preset_reproduces_theory_surface(self, tmp_path):
        assert main(["futures", "--out", str(tmp_path)]) == EXIT_OK
        header, columns, rows = read_csv(tmp_path / "futures.csv")
        assert columns == ["start_state", "m", "bitstring", "probability"]
        assert len(rows) == 2 * 10 * 8
        assert any("config_sha256" in line for line in header)
        assert any("tolerances" in line for line in header)
        by_key = {(r[0], r[1], r[2]): float(r[3]) for r in rows}
        m = 0.7
        assert by_key[("S1", repr(m), "111")] == m * m * m
        assert by_key[("S1", repr(m), "111")] == pytest.approx(0.343, abs=1e-12)
        # each (start, m) group sums to 1
        for start in ("S0", "S1"):
            for mv in (0.1, 0.4, 1.0):
                total = sum(v for (s, m_, _), v in by_key.items() if s == start and m_ == repr(mv))
                assert total == pytest.approx(1.0, abs=1e-9)
        assert (tmp_path / "futures_S0.svg").exists()
        assert (tmp_path / "futures_S1.svg").exists()

    def test_single_nonzero_row_for_deterministic_chain(self, tmp_path):
        cfg = write_config(tmp_path, {
            "schema_version": 1,
            "futures": {"l": 1.0, "m_values": [1.0], "steps": 3, "start_states": ["S0"]},
        })
        assert main(["futures", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        _, _, rows = read_csv(tmp_path / "futures.csv")
        nonzero = [r for r in rows if float(r[3]) > 0.0]
        assert len(nonzero) == 1
        assert nonzero[0][2] == "000"

    def test_rerun_payload_is_bitwise_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["futures", "--out", str(out_a)]) == EXIT_OK
        assert main(["futures", "--out", str(out_b)]) == EXIT_OK
        _, cols_a, rows_a = read_csv(out_a / "futures.csv")
        _, cols_b, rows_b = read_csv(out_b / "futures.csv")
        assert (cols_a, rows_a) == (cols_b, rows_b)

    def test_distribution_json_dump(self, tmp_path):
        cfg = write_config(tmp_path, {
            "schema_version": 1,
            "futures": {"l": 0.4, "m_values": [0.7], "steps": 3, "start_states": ["S1"]},
        })
        assert main(["futures", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        payload = json.loads((tmp_path / "futures.json").read_text())
        assert payload["schema_version"] == 1
        (entry,) = payload["distributions"]
        assert entry["start"] == "S1"
        assert entry["distribution"]["steps"] == 3
        assert entry["distribution"]["111"] == pytest.approx(0.343, abs=1e-12)


class TestComplexitySweep:
    def test_paper_params_flag(self, tmp_path, capsys):
        # the flag is gone: the default preset fig5a is the implemented sweep
        assert main(["complexity-sweep", "--out", str(tmp_path), "--paper-params"]) == EXIT_CONFIG
        assert "unrecognized arguments: --paper-params" in capsys.readouterr().err
        assert main(["complexity-sweep", "--out", str(tmp_path)]) == EXIT_OK
        _, columns, rows = read_csv(tmp_path / "complexity.csv")
        assert columns == ["m", "c_mu", "c_q", "error"]
        assert [float(r[0]) for r in rows] == list(IMPLEMENTED_STAY_TAILS_VALUES)
        for r in rows:
            assert r[3] == ""
            assert float(r[2]) <= float(r[1]) + 1e-12

    def test_symmetric_point_has_unit_classical_complexity(self, tmp_path):
        cfg = write_config(tmp_path, {
            "schema_version": 1,
            "complexity-sweep": {"l": 0.4, "m_values": [0.4], "weight_method": "exact"},
        })
        assert main(["complexity-sweep", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        _, _, rows = read_csv(tmp_path / "complexity.csv")
        assert float(rows[0][1]) == 1.0

    def test_reducible_row_surfaces_error(self, tmp_path):
        cfg = write_config(tmp_path, {
            "schema_version": 1,
            "complexity-sweep": {"l": 1.0, "m_values": [0.5, 1.0], "weight_method": "exact"},
        })
        assert main(["complexity-sweep", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        _, _, rows = read_csv(tmp_path / "complexity.csv")
        assert rows[0][3] == ""
        assert rows[1][1] == "" and "stay" in rows[1][3]

    def test_fig5a_preset_matches_flag_values(self):
        preset = load_preset("fig5a")["complexity-sweep"]
        assert preset["l"] == IMPLEMENTED_STAY_HEADS
        assert tuple(preset["m_values"]) == IMPLEMENTED_STAY_TAILS_VALUES

    def test_memory_density_json_dump(self, tmp_path):
        cfg = write_config(tmp_path, {
            "schema_version": 1,
            "complexity-sweep": {"l": 1.0, "m_values": [1.0, 0.5], "weight_method": "exact"},
        })
        assert main(["complexity-sweep", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        payload = json.loads((tmp_path / "memory_densities.json").read_text())
        # the reducible m=1.0 row is skipped; m=0.5 gives the pure |S0> memory
        (entry,) = payload["densities"]
        assert entry["m"] == 0.5
        assert entry["memory_density"]["re"][0][0] == pytest.approx(1.0, abs=1e-12)
        assert entry["memory_density"]["im"] == [[0.0, 0.0], [0.0, 0.0]]


class TestHomDip:
    def test_identical_processes_fit_unity(self, tmp_path):
        assert main(["hom-dip", "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "hom_dip_fit.json").read_text())
        assert report["schema_version"] == 1
        assert report["theory_visibility"] == 1.0
        assert report["fit"]["visibility"] == pytest.approx(1.0, abs=TOL.fit_roundtrip)
        _, columns, rows = read_csv(tmp_path / "hom_dip.csv")
        assert columns == ["delay_ns", "expected_counts"]
        assert len(rows) == 41

    def test_state_dumps_cover_both_routes(self, tmp_path):
        assert main(["hom-dip", "--out", str(tmp_path)]) == EXIT_OK
        payload = json.loads((tmp_path / "hom_dip_states.json").read_text())
        circuit = payload["process_a"]["circuit"]
        superposition = payload["process_a"]["superposition"]
        assert circuit["steps"] == 3
        assert circuit["success_probability"] == 0.125
        assert set(circuit["bins"]) == {str(b) for b in range(8)}
        assert set(superposition["amplitudes"]) == {format(i, "03b") for i in range(8)}
        # fair-coin states: every amplitude is 1/4
        assert circuit["bins"]["5"]["H"][0] == pytest.approx(0.25, abs=1e-12)
        assert superposition["amplitudes"]["101"][0][0] == pytest.approx(0.25, abs=1e-12)

    def test_visibility_override_roundtrip(self, tmp_path):
        cfg = write_config(tmp_path, {
            "schema_version": 1,
            "hom-dip": {
                "process_a": {"l": 0.5, "m": 0.5, "start": "S0"},
                "process_b": {"l": 0.5, "m": 0.5, "start": "S0"},
                "envelope_sigma_ns": 1.0,
                "delays_ns": {"min": -5.0, "max": 5.0, "count": 41},
                "baseline": 1000,
                "visibility_override": 0.96,
            },
        })
        assert main(["hom-dip", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "hom_dip_fit.json").read_text())
        assert report["fit"]["visibility"] == pytest.approx(0.96, abs=TOL.fit_roundtrip)

    def test_fit_error_without_a_covariance_estimate_is_null(self, tmp_path, capsys):
        # a noiseless dip fits exactly, and scipy's covariance comes back all infinite
        cfg = write_config(tmp_path, {"schema_version": 1, "hom-dip": {
            **PAIR, "baseline": 10000, "visibility_override": 0.96}})
        assert main(["hom-dip", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "hom_dip_fit.json").read_text())
        assert report["fit"]["visibility_err"] is None
        assert report["fit"]["visibility"] == pytest.approx(0.96, abs=TOL.fit_roundtrip)
        assert capsys.readouterr().out.rstrip().endswith("+- n/a")

    def test_poisson_sampling_is_seeded_and_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, {
            "schema_version": 1,
            "hom-dip": {
                "process_a": {"l": 0.5, "m": 0.5, "start": "S0"},
                "process_b": {"l": 0.9, "m": 0.5, "start": "S0"},
                "envelope_sigma_ns": 1.0,
                "delays_ns": {"min": -4.0, "max": 4.0, "count": 21},
                "baseline": 5000,
                "poisson_seed": 5,
            },
        })
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["hom-dip", "--config", cfg, "--out", str(out_a)]) == EXIT_OK
        assert main(["hom-dip", "--config", cfg, "--out", str(out_b)]) == EXIT_OK
        _, cols, rows_a = read_csv(out_a / "hom_dip.csv")
        _, _, rows_b = read_csv(out_b / "hom_dip.csv")
        assert cols == ["delay_ns", "expected_counts", "sampled_counts"]
        assert rows_a == rows_b

    def test_fit_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def fail(samples):
            raise FitDidNotConverge("Optimal parameters not found")

        monkeypatch.setattr("qcoin.cli.fit_visibility", fail)
        assert main(["hom-dip", "--out", str(tmp_path)]) == EXIT_FIT
        assert "fit failure: Optimal parameters not found" in capsys.readouterr().err

    def test_orthogonal_outputs_exit_fit_failure(self, tmp_path, capsys):
        # visibility 0: the flat curve leaves the dip's width and centre free,
        # and the fit reports an infinite visibility error
        cfg = write_config(tmp_path, {
            "schema_version": 1,
            "hom-dip": {
                "process_a": {"l": 1.0, "m": 0.0, "start": "S0"},
                "process_b": {"l": 0.0, "m": 1.0, "start": "S0"},
                "steps": 3,
            },
        })
        out = tmp_path / "out"
        assert main(["hom-dip", "--config", cfg, "--out", str(out)]) == EXIT_FIT
        err = capsys.readouterr().err
        assert "fit failure: the dip does not fix the fit" in err
        assert "Traceback" not in err
        assert not (out / "hom_dip_fit.json").exists()


class TestCompareSweep:
    def test_preset_series_values(self, tmp_path):
        assert main(["compare-sweep", "--out", str(tmp_path)]) == EXIT_OK
        _, columns, rows = read_csv(tmp_path / "compare_sweep.csv")
        assert columns == ["series", "l", "overlap", "visibility"]
        values = {(r[0], float(r[1])): float(r[3]) for r in rows}
        assert values[("magenta", 0.5)] == 1.0
        # deterministic fixed process: visibility is l^4
        for l in (0.25, 0.5, 0.7, 0.85, 0.95, 1.0):
            assert values[("turquoise", l)] == pytest.approx(l**4, abs=1e-12)
        assert all(0.0 <= v <= 1.0 for v in values.values())
        assert max(v for (s, _), v in values.items() if s == "turquoise") == values[("turquoise", 1.0)]
        payload = json.loads((tmp_path / "compare_sweep.json").read_text())
        assert len(payload) == len(rows)

    def test_json_records_carry_the_labels_and_match_the_csv(self, tmp_path):
        cfg = write_config(tmp_path, {"schema_version": 1, "compare-sweep": {"steps": 2, "series": [
            {"name": "cyan", "fixed": {"l": 0.3, "m": 0.8, "start": "S1", "label": "not written"},
             "varying": {"m": 0.6, "start": "S1", "l_values": [0.0, 0.123456789, 1.0]}},
            {"fixed": {"l": 0.5, "m": 0.5}, "varying": {"m": 0.5, "l_values": [0.5]}},
        ]}})
        assert main(["compare-sweep", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        _, _, rows = read_csv(tmp_path / "compare_sweep.csv")
        text = (tmp_path / "compare_sweep.json").read_text(encoding="utf-8")
        assert text.endswith("]\n")
        payload = json.loads(text)
        assert len(payload) == len(rows) == 4
        fixed = [("cyan", 0.3, 0.8, "S1")] * 3 + [("series", 0.5, 0.5, "S0")]
        varying = [(0.0, 0.6, "S1"), (0.123456789, 0.6, "S1"), (1.0, 0.6, "S1"), (0.5, 0.5, "S0")]
        for rec, row, (name, la, ma, sa), (l, m, start) in zip(payload, rows, fixed, varying):
            assert list(rec) == ["overlap", "visibility", "coincidence_min", "process_a", "process_b"]
            assert rec["process_a"] == {"label": f"{name}-fixed", "l": la, "m": ma, "start": sa}
            assert rec["process_b"] == {"label": f"{name} l={l:g}", "l": l, "m": m, "start": start}
            v = rec["visibility"]
            assert rec["overlap"] == math.sqrt(v)
            assert rec["coincidence_min"] == 0.5 * (1 - v)
            assert row == [name, repr(l), repr(rec["overlap"]), repr(v)]
        assert payload[1]["process_b"]["label"] == "cyan l=0.123457"
        assert (payload[3]["visibility"], payload[3]["overlap"], payload[3]["coincidence_min"]) == (1.0, 1.0, 0.0)

    def test_rejects_missing_series(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema_version": 1, "compare-sweep": {"steps": 3}})
        assert main(["compare-sweep", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "series" in capsys.readouterr().err


class TestOracleCheck:
    def test_small_grid_passes(self, tmp_path):
        cfg = write_config(tmp_path, {
            "schema_version": 1,
            "oracle-check": {"grid_step": 0.25, "step_counts": [1, 2, 3],
                             "identity_draws": 50, "seed": 7},
        })
        assert main(["oracle-check", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "oracle_report.json").read_text())
        assert report["all_passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert names == {
            "circuit_vs_superposition",
            "overlap_vs_bhattacharyya",
            "transfer_matrix_vs_bin_sum",
            "reconstruction_vs_direct_density",
            "success_probability",
            "quantum_below_classical_complexity",
        }
        for check in report["checks"]:
            assert check["max_abs_deviation"] <= check["tolerance"]

    def test_injected_fault_fails_with_exit_3(self, tmp_path):
        cfg = write_config(tmp_path, {
            "schema_version": 1,
            "oracle-check": {"grid_step": 0.5, "step_counts": [1, 2],
                             "identity_draws": 10, "seed": 7, "inject_fault": True},
        })
        assert main(["oracle-check", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CHECK
        report = json.loads((tmp_path / "oracle_report.json").read_text())
        assert report["all_passed"] is False
        failed = {c["name"]: c for c in report["checks"]}["circuit_vs_superposition"]
        assert failed["passed"] is False
        assert failed["max_abs_deviation"] >= 1e-7
        assert failed["worst_at"] == {"l": 0.0, "m": 0.0, "start": "S0", "steps": 1}


class TestCounts:
    def test_preset_fidelity_close_to_one(self, tmp_path):
        assert main(["counts", "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "counts_report.json").read_text())
        assert report["fidelity"] >= 0.9999
        assert report["n"] == 1_000_000
        _, columns, rows = read_csv(tmp_path / "counts.csv")
        assert columns == ["bitstring", "count", "empirical_probability", "theory_probability"]
        assert sum(int(r[1]) for r in rows) == 1_000_000

    def test_deterministic_process_fidelity_exactly_one(self, tmp_path):
        cfg = write_config(tmp_path, {
            "schema_version": 1,
            "counts": {"process": {"l": 1.0, "m": 1.0, "start": "S0"},
                       "steps": 3, "n": 1000, "seed": 9},
        })
        assert main(["counts", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "counts_report.json").read_text())
        assert report["fidelity"] == 1.0

    def test_seed_override_changes_counts(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        base = {"schema_version": 1,
                "counts": {"process": {"l": 0.4, "m": 0.7, "start": "S1"},
                           "steps": 3, "n": 10000, "seed": 1}}
        cfg = write_config(tmp_path, base)
        assert main(["counts", "--config", cfg, "--out", str(out_a)]) == EXIT_OK
        assert main(["counts", "--config", cfg, "--out", str(out_b), "--seed", "2"]) == EXIT_OK
        _, _, rows_a = read_csv(out_a / "counts.csv")
        _, _, rows_b = read_csv(out_b / "counts.csv")
        assert rows_a != rows_b
        assert json.loads((out_b / "counts_report.json").read_text())["seed"] == 2


class TestConfigHandling:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["futures", "--config", "/no/such/file.json", "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "config" in capsys.readouterr().err

    def test_invalid_probability_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "schema_version": 1,
            "futures": {"l": 1.4, "m_values": [0.5], "steps": 3},
        })
        assert main(["futures", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "probability" in capsys.readouterr().err

    def test_malformed_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["futures", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
        capsys.readouterr()

    def test_wrong_command_record_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"schema_version": 1, "counts": {}})
        assert main(["futures", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_presets_loadable_by_name(self, tmp_path):
        assert main(["futures", "--config", "fig4", "--out", str(tmp_path)]) == EXIT_OK

    def test_unsupported_schema_version_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "schema_version": 99,
            "futures": {"l": 0.4, "m_values": [0.5], "steps": 2},
        })
        assert main(["futures", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "schema_version" in capsys.readouterr().err

    def test_negative_seed_rejected(self, tmp_path, capsys):
        assert main(["counts", "--out", str(tmp_path), "--seed", "-3"]) == EXIT_CONFIG
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["futures", "complexity-sweep", "compare-sweep"])
    def test_seed_rejected_where_nothing_reads_it(self, tmp_path, capsys, command):
        assert main([command, "--out", str(tmp_path), "--seed", "1"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["counts", "--help"]])
    def test_help_and_version_exit_zero(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_OK

    def test_env_var_sets_default_out_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("QCOIN_OUT_DIR", str(target))
        cfg = write_config(tmp_path, {
            "schema_version": 1,
            "futures": {"l": 0.4, "m_values": [0.7], "steps": 2, "start_states": ["S0"]},
        })
        assert main(["futures", "--config", cfg]) == EXIT_OK
        assert (target / "futures.csv").exists()

    def test_config_hash_tracks_effective_config(self, tmp_path):
        cfg_a = write_config(tmp_path, {
            "schema_version": 1,
            "futures": {"l": 0.4, "m_values": [0.7], "steps": 2, "start_states": ["S0"]},
        }, name="a.json")
        cfg_b = write_config(tmp_path, {
            "schema_version": 1,
            "futures": {"l": 0.5, "m_values": [0.7], "steps": 2, "start_states": ["S0"]},
        }, name="b.json")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["futures", "--config", cfg_a, "--out", str(out_a)]) == EXIT_OK
        assert main(["futures", "--config", cfg_b, "--out", str(out_b)]) == EXIT_OK
        header_a, _, _ = read_csv(out_a / "futures.csv")
        header_b, _, _ = read_csv(out_b / "futures.csv")
        hash_a = [line for line in header_a if "config_sha256" in line]
        hash_b = [line for line in header_b if "config_sha256" in line]
        assert hash_a and hash_b and hash_a != hash_b


@pytest.mark.parametrize("command, payload", [
    ("futures", {"schema_version": 1, "futures": {"l": 0.4, "m_values": [0.5], "steps": "abc"}}),
    ("futures", {"schema_version": 1, "futures": {"l": 0.4, "m_values": ["x"], "steps": 2}}),
    ("counts", {"schema_version": 1, "counts": {
        "process": {"l": 0.4, "m": 0.7}, "steps": 2, "n": "many", "seed": 1}}),
    ("oracle-check", {"schema_version": 1, "oracle-check": {"grid_step": "x"}}),
    ("futures", [{"schema_version": 1}]),
    ("compare-sweep", {"schema_version": 1, "compare-sweep": {"series": [
        {"name": "a", "varying": {"m": 0.5, "l_values": [0.5]}}]}}),
    ("compare-sweep", {"schema_version": 1, "compare-sweep": {"series": ["a"]}}),
    ("futures", {"schema_version": 1, "futures": {"l": 0.4, "m_values": [0.5], "steps": True}}),
    ("oracle-check", {"schema_version": 1, "oracle-check": {"step_counts": [1, True]}}),
    ("oracle-check", {"schema_version": 1, "oracle-check": {"identity_draws": 2.9}}),
    ("oracle-check", {"schema_version": 1, "oracle-check": {"inject_fault": "false"}}),
    ("oracle-check", {"schema_version": 1, "oracle-check": {"grid_step": 0.3}}),
    ("oracle-check", {"schema_version": 1, "oracle-check": {"grid_step": 0.35}}),
    ("futures", {"schema_version": 1, "futures": {"l": 0.4, "m_values": [0.5], "start_states": 5}}),
    ("oracle-check", {"schema_version": 1, "oracle-check": {"step_counts": 5}}),
    ("hom-dip", {"schema_version": 1, "hom-dip": {**PAIR, "envelope_sigma_ns": float("nan")}}),
    ("hom-dip", {"schema_version": 1, "hom-dip": {**PAIR, "baseline": float("inf"), "poisson_seed": 1}}),
    ("futures", {"schema_version": 1, "futures": {"l": 10**400, "m_values": [0.5]}}),
    ("hom-dip", {"schema_version": 1, "hom-dip": {
        **PAIR, "envelope_sigma_ns": 1e-300, "delays_ns": {"min": -1.0, "max": 1.0, "count": 5}}}),
    ("hom-dip", {"schema_version": 1, "hom-dip": {**PAIR, "delays_ns": {"min": -5, "max": 5, "count": 10**9}}}),
    ("oracle-check", {"schema_version": 1, "oracle-check": {"grid_step": 1e-5}}),
], ids=["steps", "m_values", "n", "grid_step", "top-level-array", "series-without-fixed",
        "series-string-entry", "steps-bool", "step_counts-bool", "identity_draws-fraction",
        "inject_fault-string", "grid_step-short-of-one", "grid_step-past-one", "start_states-int",
        "step_counts-int", "envelope_sigma-nan", "baseline-inf-sampled", "l-400-digits",
        "envelope_sigma-underflow", "delay_count-past-the-budget", "grid_step-past-the-budget"])
def test_malformed_config_exits_with_config_error(tmp_path, command, payload):
    cfg = write_config(tmp_path, payload)
    proc = subprocess.run(
        [sys.executable, "-m", "qcoin", command, "--config", cfg, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_CONFIG
    assert "config error" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("out", ["file", "file/sub"], ids=["out-is-a-file", "out-below-a-file"])
def test_unusable_out_dir_exits_with_config_error(tmp_path, out):
    (tmp_path / "file").write_text("", encoding="utf-8")
    out = str(tmp_path / out)
    proc = subprocess.run([sys.executable, "-m", "qcoin", "futures", "--out", out],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_CONFIG
    assert f"config error: cannot use {out!r} as the output directory" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command, payload, key", [
    ("futures", {"schema_version": True, "futures": {"l": 0.4, "m_values": [0.5]}},
     "unsupported schema_version True"),
    ("oracle-check", {"schema_version": 1, "oracle-check": {"identity_draws": 0}}, "'oracle-check.identity_draws'"),
    ("oracle-check", {"schema_version": 1, "oracle-check": {"identity_draws": -5}}, "'oracle-check.identity_draws'"),
    ("hom-dip", {"schema_version": 1, "hom-dip": {**PAIR, "fit_max_evals": 0}},
     "unknown config key 'fit_max_evals' in 'hom-dip'"),
    ("futures", {"schema_version": 1, "futures": {"l": 0.4, "m_values": [0.5], "start_states": []}},
     "'futures.start_states'"),
    ("futures", {"schema_version": 1, "futures": {"l": 0.4, "m_values": [0.5], "step": 7}},
     "unknown config key 'step' in 'futures'"),
    ("compare-sweep", {"schema_version": 1, "compare-sweep": {"series": [
        {"name": ["a"], "fixed": {"l": 0.5, "m": 0.5}, "varying": {"m": 0.5, "l_values": [0.5]}}]}},
     "'compare-sweep.series[0].name'"),
    ("futures", {"schema_version": 1, "futures": {"l": "0.5", "m_values": [0.5]}}, "'futures.l'"),
    ("hom-dip", {"schema_version": 1, "hom-dip": {**PAIR, "delays_ns": {"min": -5, "max": 5, "count": 10**9}}},
     "'hom-dip.delays_ns.count' must be an integer >= 5 and <= 2097152"),
    # the delay grid has one form, the {min, max, count} record
    ("hom-dip", {"schema_version": 1, "hom-dip": {**PAIR, "delays_ns": [-1.0, -0.5, 0.0, 0.5, 1.0]}},
     "config key 'hom-dip.delays_ns' must be a record"),
    ("oracle-check", {"schema_version": 1, "oracle-check": {"grid_step": 1e-5}}, "'oracle-check.grid_step'"),
    # step counts past the enumeration cap (futures, counts) or the superposition cap
    ("futures", {"schema_version": 1, "futures": {"l": 0.4, "m_values": [0.5], "steps": 21}},
     "'futures.steps' must be an integer >= 1 and <= 20, got 21"),
    ("counts", {"schema_version": 1, "counts": {"process": {"l": 0.4, "m": 0.7}, "steps": 21, "seed": 1}},
     "'counts.steps' must be an integer >= 1 and <= 20, got 21"),
    ("hom-dip", {"schema_version": 1, "hom-dip": {**PAIR, "steps": 13}},
     "'hom-dip.steps' must be an integer >= 1 and <= 12, got 13"),
    ("compare-sweep", {"schema_version": 1, "compare-sweep": {"steps": 13, "series": [
        {"fixed": {"l": 0.5, "m": 0.5}, "varying": {"m": 0.5, "l_values": [0.5]}}]}},
     "'compare-sweep.steps' must be an integer >= 1 and <= 12, got 13"),
    ("oracle-check", {"schema_version": 1, "oracle-check": {"step_counts": [1, 13]}},
     "'oracle-check.step_counts[1]' must be an integer >= 1 and <= 12, got 13"),
], ids=["schema_version-bool", "identity_draws-zero", "identity_draws-negative", "fit_max_evals-zero",
        "start_states-empty", "unknown-key", "series-name-list", "numeric-string", "delay_count-past-the-budget",
        "delays_ns-list", "grid_step-past-the-budget", "futures-steps-past-the-cap", "counts-steps-past-the-cap",
        "hom-dip-steps-past-the-cap", "compare-sweep-steps-past-the-cap", "step_counts-past-the-cap"])
def test_config_the_schema_rejects_exits_with_config_error(tmp_path, capsys, command, payload, key):
    cfg = write_config(tmp_path, payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ['{"schema_version": 1, "futures": {"l": ' + "1" * 5000 + "}}",
                                  '{"futures": ' + "[" * 100000 + "]" * 100000 + "}"],
                         ids=["integer-past-the-digit-limit", "nesting-past-the-recursion-limit"])
def test_unreadable_json_exits_with_config_error(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    assert main(["futures", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "is not valid JSON" in capsys.readouterr().err


def test_grid_step_bound_admits_the_grid_that_fills_the_budget():
    rec = command_record({"oracle-check": {"grid_step": MIN_GRID_STEP}}, "oracle-check")
    assert len(probability_grid(rec["grid_step"])) * 16 == ALLOCATION_BUDGET_BYTES  # 16 bytes a point
    with pytest.raises(ConfigError, match="'oracle-check.grid_step'"):
        command_record({"oracle-check": {"grid_step": MIN_GRID_STEP * 0.999}}, "oracle-check")


def test_record_defaults_are_filled_in():
    rec = command_record({"futures": {"l": 0.4, "m_values": [1]}}, "futures")
    assert rec == {"l": 0.4, "m_values": [1.0], "steps": 3, "start_states": [CausalState.S0, CausalState.S1]}
    assert type(rec["m_values"][0]) is float
    rec = command_record({"complexity-sweep": {"l": 0, "m_values": [0.5]}}, "complexity-sweep")
    assert rec["weight_method"] is WeightMethod.THREE_STEP_MARGINAL and type(rec["l"]) is float


def test_every_bundled_preset_validates():
    for name, command in COMMANDS.items():
        command_record(load_preset(command.preset), name)


def payload_digest(path):
    """SHA-256 of a file's payload: the CSV rows below the comment header, or
    the JSON document without a top-level ``run`` record."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        payload = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))
    else:
        data = json.loads(text)
        if isinstance(data, dict):
            data.pop("run", None)
        payload = json.dumps(data, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def test_every_bundled_preset_writes_strict_json(tmp_path):
    def reject(constant):
        raise ValueError(f"non-finite JSON number {constant}")

    for name in COMMANDS:
        out = tmp_path / name
        assert main([name, "--out", str(out)]) == EXIT_OK
        for path in out.glob("*.json"):
            text = path.read_text(encoding="utf-8")
            json.loads(text, parse_constant=reject)
            assert text.endswith("\n") and text.count("\n") == 1, f"{name}: {path.name} is not one compact line"
    assert build_parser() is build_parser()  # built once per process


def test_figure_presets_match_the_reference_payload_digests(tmp_path):
    references = json.loads((ROOT / "benchmarks" / "reference_digests.json").read_text(encoding="utf-8"))
    command_of = {command.preset: name for name, command in COMMANDS.items()}
    assert set(references) == {"fig4", "fig5a", "fig5b", "fig5c", "counts"}
    for preset, files in references.items():
        out = tmp_path / preset
        assert main([command_of[preset], "--out", str(out)]) == EXIT_OK
        for name, digest in files.items():
            assert payload_digest(out / name) == digest, f"{preset}: {name}"
        # the config hash is that of the preset as loaded, not of the validated record
        expected = f"# config_sha256: {config_hash(load_preset(preset))}"
        assert expected in (out / next(n for n in files if n.endswith(".csv"))).read_text().splitlines()


# The reference the M = 12 payloads are pinned to: a complex128 (2**M, 2) C-order copy of the
# kernels' real polarization-major amplitudes (the complex state layout of earlier releases),
# written as [re, im] rows and compared by a complex np.vdot, computed on the machine running the test.

def _edge(amps):
    return np.array(amps.T, dtype=complex, order="C")


def _edge_circuit(coin, start, steps):
    pair = causal_pair(coin)
    amps, success = _run(pair, pair[start.index], steps)
    return _edge(amps), success


def _edge_visibility(a, b):
    num = complex(np.vdot(a, b))
    return min((num.real * num.real) / (float(np.vdot(a, a).real) * float(np.vdot(b, b).real)), 1.0)


def _edge_states(coin, start, steps):
    circuit, success = _edge_circuit(coin, start, steps)
    ideal = _edge(_superposition(future_distribution(coin, start, steps).bins, causal_pair(coin)))
    return {
        "circuit": {"steps": steps, "success_probability": success, "bins": {
            str(b): {"H": [row[0].real, row[0].imag], "V": [row[1].real, row[1].imag]}
            for b, row in enumerate(circuit.tolist())}},
        "superposition": {"steps": steps, "amplitudes": {
            index_to_bits(b, steps): [[z.real, z.imag] for z in row] for b, row in enumerate(ideal.tolist())}},
    }


def _assert_same_payload(got, expected):
    """Equal JSON payloads, header keys aside, as canonical text (so -0.0 and 0.0 differ);
    a failure shows the first difference, not a diff of the whole text."""
    got, expected = (json.dumps({k: v for k, v in data.items()
                                 if k not in ("schema_version", "tool_version", "config_sha256")}, sort_keys=True)
                     for data in (got, expected))
    at = next((i for i, (x, y) in enumerate(zip(got, expected)) if x != y), min(len(got), len(expected)))
    same = got == expected
    assert same, f"payloads differ at {at}: {got[at - 60:at + 60]!r} vs {expected[at - 60:at + 60]!r}"


def test_twelve_step_payloads_equal_the_complex_edge(tmp_path):
    a, b = (PerturbedCoin(0.4, 0.7), CausalState.S0), (PerturbedCoin(0.45, 0.65), CausalState.S1)
    pair = {"process_a": {"l": 0.4, "m": 0.7}, "process_b": {"l": 0.45, "m": 0.65, "start": "S1"}, "steps": 12}
    v = _edge_visibility(_edge_circuit(*a, 12)[0], _edge_circuit(*b, 12)[0])
    assert 0.0 < v < 1.0
    runs = {"run": pair, "override": {**pair, "visibility_override": v}}
    for name, record in runs.items():
        cfg = write_config(tmp_path, {"schema_version": 1, "hom-dip": record}, name=f"{name}.json")
        assert main(["hom-dip", "--config", cfg, "--out", str(tmp_path / name)]) == EXIT_OK
    states = json.loads((tmp_path / "run" / "hom_dip_states.json").read_text(encoding="utf-8"))
    _assert_same_payload(states, {"process_a": _edge_states(*a, 12), "process_b": _edge_states(*b, 12)})
    fit, edge_fit = (json.loads((tmp_path / name / "hom_dip_fit.json").read_text(encoding="utf-8")) for name in runs)
    assert fit["theory_visibility"] == v
    # the fit written from the edge's visibility, set through the override
    _assert_same_payload(fit, edge_fit)

    l_values = [0.0, 0.3, 0.45, 0.8, 1.0]
    cfg = write_config(tmp_path, {"schema_version": 1, "compare-sweep": {"steps": 12, "series": [
        {"name": "s", "fixed": {"l": 0.45, "m": 0.65, "start": "S1"}, "varying": {"m": 0.7, "l_values": l_values}}]}})
    assert main(["compare-sweep", "--config", cfg, "--out", str(tmp_path / "sweep")]) == EXIT_OK
    expected = []
    for l in l_values:
        vis = _edge_visibility(_edge_circuit(*b, 12)[0], _edge_circuit(PerturbedCoin(l, 0.7), CausalState.S0, 12)[0])
        expected.append(["s", repr(l), repr(math.sqrt(vis)), repr(vis)])
    _, columns, rows = read_csv(tmp_path / "sweep" / "compare_sweep.csv")
    assert columns == ["series", "l", "overlap", "visibility"]
    assert rows == expected


@pytest.mark.parametrize("argv, preset, folded", [
    (["hom-dip", "--seed", "5"], "fig5b", {"poisson_seed": 5}),
    (["counts", "--seed", "3"], "counts", {"seed": 3}),
], ids=["hom-dip-seed", "counts-seed"])
def test_flags_fold_into_the_hashed_config(tmp_path, argv, preset, folded):
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_OK
    config = load_preset(preset)
    config[argv[0]].update(folded)
    report = next(p for p in sorted(tmp_path.glob("*.json")) if p.name != "compare_sweep.json")
    assert json.loads(report.read_text())["config_sha256"] == config_hash(config)


def test_integral_float_accepted_for_integer_field(tmp_path):
    cfg = write_config(tmp_path, {
        "schema_version": 1,
        "futures": {"l": 0.4, "m_values": [0.5], "steps": 3.0, "start_states": ["S0"]},
    })
    assert main(["futures", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
    _, _, rows = read_csv(tmp_path / "futures.csv")
    assert len(rows) == 8


def loaded_modules(code: str, packages: tuple[str, ...]) -> list[str]:
    """The modules in or under `packages` that a fresh interpreter holds after running `code`."""
    probe = (f"{code}\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules "
             f"if any(m == p or m.startswith(p + '.') for p in {packages!r}))))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_leaves_scipy_unloaded():
    # scipy.optimize is most of the import time; only the visibility fit loads it
    assert loaded_modules("import qcoin, qcoin.cli", ("scipy",)) == []


def test_cli_import_leaves_network_stack_unloaded():
    # xml.sax.saxutils would bring in urllib.request, http.client, email and ssl
    network = ("xml", "urllib.request", "http", "email", "ssl")
    assert loaded_modules("import qcoin, qcoin.cli", network) == []


def test_oracle_check_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique calls np.ma.is_masked, which imports numpy.ma
    code = f"from qcoin.cli import main\nassert main(['oracle-check', '--out', {str(tmp_path)!r}]) == 0"
    assert loaded_modules(code, ("numpy.ma",)) == []


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "qcoin", "--version"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "qcoin" in proc.stdout
