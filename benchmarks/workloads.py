"""The three benchmark workloads: seeded op inputs, the timed call and the
per-op output check.

Every op is built from `(seed, index)` alone, so a run can go on for as many
ops as the window holds and two runs with one seed see the same inputs.
The step count M and the command mix depend on `index` only, never on the
seed; the seed picks process parameters and RNG seeds.

Why these workloads (each layer likely to be optimised does most of its
work in one of them and little in another):

* ``oracle-grid`` runs the bundled ``oracle`` preset of ``qcoin oracle-check``
  with a seeded identity-draw seed: 441 coins x 2 starts x M in 1..4 plus 1000
  overlap draws.  M is small, so per-call Python and constructor overhead in
  checks, circuit, quantum and markov dominate; a large-M kernel barely
  moves it.
* ``deep-horizon`` calls the library directly on one seeded process pair at
  M = 8..12: both circuits, the superposition, the visibility, the M-step
  overlap and the (M+1)-step Bhattacharyya coefficient.  The 2^M
  enumeration dominates; circuit propagation and CLI work are bypassed.
* ``figure-presets`` cycles the five figure commands of the CLI with configs
  in their bundled presets' shape (M = 3, counts n = 1e6).  The compute is
  tiny: config handling, CSV/JSON/SVG writing, the scipy fit and the sampler
  dominate.  Round 0 runs the bundled presets unchanged and is compared
  against payload digests recorded at the seed commit; later rounds draw
  fresh parameters per op so no two ops share an input.  A hom-dip pair is
  drawn again until its dip is deeper than the Poisson noise of its counts
  (`MIN_NOISY_VISIBILITY`): a shallower dip leaves the four-parameter fit
  unidentifiable, so it fails on some noise draws and every run would
  report failed ops.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from qcoin import circuit, cli, interference, quantum
from qcoin.constants import TOL
from qcoin.markov import CausalState, PerturbedCoin

WORKLOADS = ("oracle-grid", "deep-horizon", "figure-presets")

# Stay probabilities come from the 0.05 grid with both edges, so l or m in
# {0, 1}, the reducible chain and orthogonal outputs all occur.
GRID = tuple(round(0.05 * i, 10) for i in range(21))
DEEP_STEPS = (8, 9, 10, 11, 12)
# Smallest theory visibility of a noisy hom-dip op: a dip of about 11 noise
# standard deviations per point at the baseline of 10000 counts.  No pair of
# grid processes at M = 3 has a visibility within 3e-5 of it, so rounding in
# the program cannot move a pair across it.
MIN_NOISY_VISIBILITY = 0.1075
FIGURE_COMMANDS = ("futures", "complexity-sweep", "hom-dip", "compare-sweep", "counts")
BUNDLED_PRESETS = {
    "futures": "fig4",
    "complexity-sweep": "fig5a",
    "hom-dip": "fig5b",
    "compare-sweep": "fig5c",
    "counts": "counts",
}
PAYLOAD_FILES = {
    "futures": ("futures.csv", "futures.json"),
    "complexity-sweep": ("complexity.csv", "memory_densities.json"),
    "hom-dip": ("hom_dip.csv", "hom_dip_fit.json", "hom_dip_states.json"),
    "compare-sweep": ("compare_sweep.csv", "compare_sweep.json"),
    "counts": ("counts.csv", "counts_report.json"),
    "oracle-check": ("oracle_report.json",),
}
REFERENCE_DIGESTS = Path(__file__).with_name("reference_digests.json")
WARM_UP = -1  # op index of the untimed warm-up op


@dataclass(frozen=True)
class Op:
    index: int
    kind: str  # a CLI command, or "library" for a deep-horizon call sequence
    inputs: dict


@dataclass(frozen=True)
class Outcome:
    ok: bool
    max_dev: float | None = None  # largest dual-route deviation the check saw
    message: str = ""


# ---------------------------------------------------------------------------
# op inputs

def make_op(workload: str, seed: int, index: int) -> Op:
    """The op at `index` of a run with `seed`; `WARM_UP` gives the warm-up op."""
    rng = np.random.default_rng([seed, index + 1])
    if workload == "oracle-grid":
        return Op(index, "oracle-check",
                  {"command": "oracle-check", "config": "oracle", "seed": _seed(rng)})
    if workload == "deep-horizon":
        return Op(index, "library", {"steps": DEEP_STEPS[index % len(DEEP_STEPS)],
                                     "a": _process(rng, "a"), "b": _process(rng, "b")})
    if workload == "figure-presets":
        command = FIGURE_COMMANDS[index % len(FIGURE_COMMANDS)]
        if 0 <= index < len(FIGURE_COMMANDS):
            config: Any = BUNDLED_PRESETS[command]
        else:
            config = {"schema_version": 1, command: _FIGURE_RECORDS[command](rng)}
        return Op(index, command, {"command": command, "config": config, "seed": None})
    raise ValueError(f"unknown workload {workload!r}")


def _prob(rng) -> float:
    return GRID[int(rng.integers(len(GRID)))]


def _probs(rng, count: int) -> list[float]:
    return sorted(GRID[int(i)] for i in rng.choice(len(GRID), count, replace=False))


def _seed(rng) -> int:
    return int(rng.integers(2**31))


def _process(rng, label: str) -> dict:
    return {"l": _prob(rng), "m": _prob(rng), "start": ("S0", "S1")[int(rng.integers(2))],
            "label": label}


def _futures(rng) -> dict:
    return {"l": _prob(rng), "m_values": _probs(rng, 10), "steps": 3,
            "start_states": ["S0", "S1"]}


def _complexity(rng) -> dict:
    return {"l": _prob(rng), "m_values": _probs(rng, 10), "weight_method": "three-step"}


def _hom_dip(rng) -> dict:
    while True:
        a, b = _process(rng, "Pi1"), _process(rng, "Pi2")
        if theory_visibility(a, b, 3) >= MIN_NOISY_VISIBILITY:
            break
    return {"process_a": a, "process_b": b, "steps": 3,
            "envelope_sigma_ns": 1.0, "delays_ns": {"min": -5.0, "max": 5.0, "count": 41},
            "baseline": 10000, "poisson_seed": _seed(rng)}


def theory_visibility(a: dict, b: dict, steps: int) -> float:
    psi, phi = (circuit.run_circuit(PerturbedCoin(p["l"], p["m"]), CausalState[p["start"]], steps)
                for p in (a, b))
    return interference.visibility(psi, phi)


def _compare(rng) -> dict:
    def series(name: str, count: int) -> dict:
        fixed = _process(rng, name)
        del fixed["label"]
        return {"name": name, "fixed": fixed,
                "varying": {"m": _prob(rng), "start": ("S0", "S1")[int(rng.integers(2))],
                            "l_values": _probs(rng, count)}}
    return {"steps": 3, "series": [series("magenta", 7), series("turquoise", 6)]}


def _counts(rng) -> dict:
    return {"process": _process(rng, "process"), "steps": 3, "n": 1_000_000, "seed": _seed(rng)}


_FIGURE_RECORDS: dict[str, Callable] = {
    "futures": _futures,
    "complexity-sweep": _complexity,
    "hom-dip": _hom_dip,
    "compare-sweep": _compare,
    "counts": _counts,
}


# ---------------------------------------------------------------------------
# running and checking ops

def payload_digest(path: Path) -> str:
    """SHA-256 of a file's deterministic payload: CSV rows below the comment
    header, or the JSON document without a top-level ``run`` manifest."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        payload = "".join(line for line in text.splitlines(keepends=True)
                          if not line.startswith("#"))
    else:
        data = json.loads(text)
        if isinstance(data, dict):
            data.pop("run", None)
        payload = json.dumps(data, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class Runner:
    """Runs ops inside `workdir`: `prepare` (untimed) returns the call to time,
    `check` (untimed) judges what the call returned."""

    def __init__(self, workdir: Path):
        self.workdir = Path(workdir)
        self.out_dir = self.workdir / "out"
        self.references = json.loads(REFERENCE_DIGESTS.read_text(encoding="utf-8"))

    def prepare(self, op: Op) -> Callable[[], Any]:
        if op.kind == "library":
            return _library_call(op.inputs)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        config = op.inputs["config"]
        if isinstance(config, dict):
            path = self.workdir / "config.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            config = str(path)
        argv = [op.inputs["command"], "--config", config, "--out", str(self.out_dir)]
        if op.inputs["seed"] is not None:
            argv += ["--seed", str(op.inputs["seed"])]
        return lambda: cli.main(argv)

    def check(self, op: Op, result: Any) -> Outcome:
        if op.kind == "library":
            return _check_library(result)
        if result != cli.EXIT_OK:
            return Outcome(False, None, f"exit code {result}")
        command = op.inputs["command"]
        paths = [self.out_dir / name for name in PAYLOAD_FILES[command]]
        missing = [p.name for p in paths if not p.is_file()]
        if missing:
            return Outcome(False, None, f"missing outputs {missing}")
        config = op.inputs["config"]
        if isinstance(config, str) and config in self.references:
            expected = self.references[config]
            changed = [p.name for p in paths if payload_digest(p) != expected[p.name]]
            if changed:
                return Outcome(False, None, f"payload differs from the seed commit: {changed}")
        return _OUTPUT_CHECKS.get(command, lambda out_dir: Outcome(True))(self.out_dir)


def _library_call(inputs: dict) -> Callable[[], tuple]:
    steps = inputs["steps"]
    a, b = (quantum.ProcessSpec(PerturbedCoin(p["l"], p["m"]), p["label"])
            for p in (inputs["a"], inputs["b"]))
    start_a, start_b = CausalState[inputs["a"]["start"]], CausalState[inputs["b"]["start"]]

    def call() -> tuple:
        psi = circuit.run_circuit(a.coin, start_a, steps)
        phi = circuit.run_circuit(b.coin, start_b, steps)
        ideal = quantum.ideal_output_state(a.coin, start_a, steps)
        vis = interference.visibility(psi, phi)
        overlap = quantum.output_overlap(a, start_a, b, start_b, steps)
        bhattacharyya = quantum.bhattacharyya_futures(a, start_a, b, start_b, steps + 1)
        return psi.amplitudes, ideal.amplitudes, vis, overlap, bhattacharyya
    return call


def _check_library(result: tuple) -> Outcome:
    psi, ideal, vis, overlap, bhattacharyya = result
    devs = {
        "circuit_vs_superposition": float(np.abs(psi - ideal).max()),
        "overlap_vs_bhattacharyya": abs(overlap - bhattacharyya),
        "visibility_vs_overlap_squared": abs(vis - overlap * overlap),
    }
    worst = max(devs.values())
    bad = {k: v for k, v in devs.items() if not v <= TOL.exact}
    return Outcome(not bad, worst, f"deviation above {TOL.exact:g}: {bad}" if bad else "")


def _read_json(out_dir: Path, name: str):
    return json.loads((out_dir / name).read_text(encoding="utf-8"))


def _csv_rows(out_dir: Path, name: str) -> list[dict]:
    with open(out_dir / name, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _check_oracle(out_dir: Path) -> Outcome:
    report = _read_json(out_dir, "oracle_report.json")
    worst = max(c["max_abs_deviation"] for c in report["checks"])
    bad = [c["name"] for c in report["checks"] if not c["max_abs_deviation"] <= c["tolerance"]]
    if bad or report["all_passed"] is not True:
        return Outcome(False, worst, f"oracle checks failed: {bad}")
    return Outcome(True, worst)


def _check_futures(out_dir: Path) -> Outcome:
    for entry in _read_json(out_dir, "futures.json")["distributions"]:
        dist = dict(entry["distribution"])
        steps = dist.pop("steps")
        total = sum(dist.values())
        if len(dist) != 2**steps or not abs(total - 1.0) <= TOL.prob_sum:
            return Outcome(False, None, f"distribution at m={entry['m']} sums to {total!r}")
    return Outcome(True)


def _check_complexity(out_dir: Path) -> Outcome:
    for row in _csv_rows(out_dir, "complexity.csv"):
        if not row["error"] and not float(row["c_q"]) <= float(row["c_mu"]) + TOL.prob_sum:
            return Outcome(False, None, f"C_q above C_mu at m={row['m']}")
    return Outcome(True)


def _check_hom_dip(out_dir: Path) -> Outcome:
    """Circuit against superposition, both written side by side by the command."""
    states = _read_json(out_dir, "hom_dip_states.json")
    worst = 0.0
    for process in ("process_a", "process_b"):
        bins = states[process]["circuit"]["bins"]
        superposition = states[process]["superposition"]["amplitudes"]
        steps = states[process]["circuit"]["steps"]
        for bits, amps in superposition.items():
            index = sum(1 << k for k, c in enumerate(bits) if c == "1")
            for pol, (re, im) in zip(("H", "V"), amps):
                c_re, c_im = bins[str(index)][pol]
                worst = max(worst, abs(complex(c_re, c_im) - complex(re, im)))
        if len(superposition) != 2**steps:
            return Outcome(False, worst, f"{process}: {len(superposition)} superposition bins")
    if not worst <= TOL.exact:
        return Outcome(False, worst, f"circuit vs superposition deviation {worst!r}")
    return Outcome(True, worst)


def _check_counts(out_dir: Path) -> Outcome:
    report = _read_json(out_dir, "counts_report.json")
    total = sum(int(row["count"]) for row in _csv_rows(out_dir, "counts.csv"))
    if total != report["n"] or not 0.0 < report["fidelity"] <= 1.0 + TOL.prob_sum:
        return Outcome(False, None, f"{total} counts for n={report['n']}, "
                                    f"fidelity {report['fidelity']!r}")
    return Outcome(True)


_OUTPUT_CHECKS = {
    "oracle-check": _check_oracle,
    "futures": _check_futures,
    "complexity-sweep": _check_complexity,
    "hom-dip": _check_hom_dip,
    "counts": _check_counts,
}
