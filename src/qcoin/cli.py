"""Experiment runner: reproduces the perturbed-coin data products as CSV,
JSON and SVG files.

`COMMANDS` is the one list of subcommands (futures, complexity-sweep,
hom-dip, compare-sweep, oracle-check, counts): each has a runner, a bundled
preset, a help line and the config key that `--seed` sets.  A JSON config
holds a `schema_version` and one record per command.  `SCHEMAS` declares
each record as a field table of (parser, default) pairs, and
`command_record` validates a record against it before anything runs:
unknown keys, missing required keys and out-of-range, non-numeric or
non-finite values are a ConfigError, and the runners read the validated
record with its defaults filled in.  The bundled presets fig4, fig5a, fig5b
and fig5c reproduce the theory layer of those figures with one command.
Each runner returns an `Output`, and `emit` alone writes it: the CSV table,
each JSON document as one compact line with its header first, the SVG plots
and the stdout summary.  The library returns arrays; only this module
writes outcome strings, string-keyed records and JSON.

Exit codes: 0 success, 2 config error, 3 numerical-check failure,
4 fit failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .checks import run_oracle_checks
from .constants import ALLOCATION_BUDGET_BYTES, MAX_ENUMERATION_STEPS, MAX_SUPERPOSITION_STEPS, TOL
from .circuit import run_circuit
from .encoding import all_bitstrings, index_to_bits, lexicographic_bins
from .errors import (
    ConfigError,
    FitDidNotConverge,
    InvalidParameter,
    StepCountTooLarge,
)
from .interference import (
    dip_curve_from_visibility,
    fit_visibility,
    visibility,
    visibility_sweep,
)
from .markov import (REDUCIBLE_CHAIN, CausalState, PerturbedCoin, WeightMethod,
                     classical_complexity, classical_fidelity, counts_to_distribution, future_distribution,
                     sample_trajectories, stationary_weights)
from .quantum import PhotonState, ideal_output_state, memory_density, von_neumann_entropy
from .svgplot import line_plot

SCHEMA_VERSION = 1
OUT_DIR_ENV = "QCOIN_OUT_DIR"
DEFAULT_OUT_DIR = "qcoin-out"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECK = 3
EXIT_FIT = 4


# ---------------------------------------------------------------------------
# config schema: a parser takes (value, key) and returns the validated value,
# or raises a ConfigError that names the key

REQUIRED = object()  # the default of a field the record must give


def _number(lo=-math.inf, hi=math.inf, *, integer=False, above=-math.inf, noun=None):
    """A finite JSON number x with lo <= x <= hi and x > above.  A bool, a
    string, NaN or infinity is rejected; an integer field also takes 3.0.
    """
    bounds = " and ".join(f"{op} {b:.10g}" for op, b in ((">", above), (">=", lo), ("<=", hi)) if math.isfinite(b))
    what = f"{noun or ('an integer' if integer else 'a finite number')} {bounds}".rstrip()

    def parse(value, key):
        number = math.nan  # fails every bound
        if isinstance(value, int) and not isinstance(value, bool):
            number = value if integer or abs(value) <= sys.float_info.max else math.nan
        elif isinstance(value, float) and math.isfinite(value) and (value.is_integer() or not integer):
            number = value
        if not (lo <= number <= hi and number > above):
            raise ConfigError(f"config key {key!r} must be {what}, got {value!r}")
        return int(number) if integer else float(number)
    return parse


def _is(kind: type, what: str):
    def parse(value, key):
        if not isinstance(value, kind):
            raise ConfigError(f"config key {key!r} must be {what}, got {value!r}")
        return value
    return parse


def _choice(options):
    """One of the names in `options`, mapped to its value."""
    def parse(value, key):
        if not isinstance(value, str) or value not in options:
            raise ConfigError(f"config key {key!r} must be one of {', '.join(options)}, got {value!r}")
        return options[value]
    return parse


def _optional(item):
    return lambda value, key: None if value is None else item(value, key)


def _list(item):
    def parse(value, key):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"config key {key!r} must be a nonempty list, got {value!r}")
        return [item(v, f"{key}[{i}]") for i, v in enumerate(value)]
    return parse


def _record(build=dict, /, **fields):
    """A JSON object with exactly these fields, each a (parser, default)
    pair; `build` turns the validated fields into the record's value.
    """
    def parse(value, key):
        if not isinstance(value, dict):
            raise ConfigError(f"config key {key!r} must be a record, got {value!r}")
        for name in value:
            if name not in fields:
                raise ConfigError(f"unknown config key {name!r} in {key!r}")
        out = {}
        for name, (item, default) in fields.items():
            if name not in value and default is REQUIRED:
                raise ConfigError(f"missing config key {name!r} in {key!r}")
            out[name] = item(value.get(name, default), f"{key}.{name}")
        return build(out)
    return parse


def _budgeted(rec: dict, *sizes: tuple[str, int]) -> dict:
    """`rec`, once each (key, count) pair sizes an array of at most ALLOCATION_BUDGET_BYTES of float64."""
    for key, floats in sizes:
        if 8 * floats > ALLOCATION_BUDGET_BYTES:
            raise ConfigError(f"config key {key!r} sizes an array of {8 * floats} bytes of float64, over the "
                              f"allocation budget of {ALLOCATION_BUDGET_BYTES} bytes")
    return rec


def _delays(value, key) -> np.ndarray:
    """The delay grid, a {min, max, count} linspace.  The fit has four free
    parameters, so the grid needs at least five delays.
    """
    grid = DELAY_RANGE(value, key)
    if grid["max"] <= grid["min"]:
        raise ConfigError(f"config key {key!r} needs max > min, got {value!r}")
    return np.linspace(grid["min"], grid["max"], grid["count"])


PROB = _number(0.0, 1.0, noun="a probability")
# step counts up to the cap of the enumeration (futures, counts) or of the superposition
ENUMERATION_STEPS = _number(1, MAX_ENUMERATION_STEPS, integer=True)
SUPERPOSITION_STEPS = _number(1, MAX_SUPERPOSITION_STEPS, integer=True)
SEED = _number(0, integer=True)
START = _choice(CausalState.__members__)
STRING = _is(str, "a string")
# a process: its coin and start state; the label is a name for the reader only
PROCESS = _record(lambda p: (PerturbedCoin(p["l"], p["m"]), p["start"]),
                  l=(PROB, REQUIRED), m=(PROB, REQUIRED), start=(START, "S0"),
                  label=(STRING, ""))
# the longest delay grid and the finest (l, m) grid within the allocation budget
MAX_DELAYS = ALLOCATION_BUDGET_BYTES // 8
MIN_GRID_STEP = 1.0 / (math.isqrt(ALLOCATION_BUDGET_BYTES // 16) - 1)
DELAY_RANGE = _record(min=(_number(), REQUIRED), max=(_number(), REQUIRED),
                      count=(_number(5, MAX_DELAYS, integer=True), REQUIRED))

SCHEMAS = {
    # the (start, m, bin) distributions
    "futures": _record(
        lambda r: _budgeted(r, ("futures.m_values", len(r["start_states"]) * len(r["m_values"]) * 2 ** r["steps"])),
        l=(PROB, REQUIRED), m_values=(_list(PROB), REQUIRED), steps=(ENUMERATION_STEPS, 3),
        start_states=(_list(START), ["S0", "S1"])),
    "complexity-sweep": _record(
        l=(PROB, REQUIRED), m_values=(_list(PROB), REQUIRED),
        weight_method=(_choice({m.value: m for m in WeightMethod}), "three-step")),
    "hom-dip": _record(
        process_a=(PROCESS, REQUIRED), process_b=(PROCESS, REQUIRED), steps=(SUPERPOSITION_STEPS, 3),
        envelope_sigma_ns=(_number(above=0.0), 1.0),
        # numpy's Poisson sampler takes rates up to about 9.2e18
        baseline=(_number(hi=1e18, above=0.0), 10000),
        delays_ns=(_delays, {"min": -5.0, "max": 5.0, "count": 41}),
        poisson_seed=(_optional(SEED), None), visibility_override=(_optional(PROB), None)),
    # each series' batch of states, 2**(steps + 1) amplitudes an l value
    "compare-sweep": _record(
        lambda r: _budgeted(r, *((f"compare-sweep.series[{i}].varying.l_values",
                                  len(s["varying"]["l_values"]) * 2 ** (r["steps"] + 1))
                                 for i, s in enumerate(r["series"]))),
        steps=(SUPERPOSITION_STEPS, 3),
        series=(_list(_record(
            name=(STRING, "series"), fixed=(PROCESS, REQUIRED),
            varying=(_record(m=(PROB, REQUIRED), start=(START, "S0"), l_values=(_list(PROB), REQUIRED)),
                     REQUIRED))), REQUIRED)),
    "oracle-check": _record(
        grid_step=(_number(MIN_GRID_STEP, 0.5), 0.05), step_counts=(_list(SUPERPOSITION_STEPS), [1, 2, 3, 4]),
        identity_draws=(_number(1, integer=True), 1000), seed=(SEED, 7),
        inject_fault=(_is(bool, "true or false"), False)),
    "counts": _record(
        process=(PROCESS, REQUIRED), steps=(ENUMERATION_STEPS, 3), n=(_number(1, integer=True), 1_000_000),
        seed=(SEED, REQUIRED)),
}


def load_preset(name: str) -> dict:
    ref = resources.files("qcoin.presets").joinpath(f"{name}.json")
    try:
        return json.loads(ref.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"unknown preset {name!r}") from None


def load_config(config_arg: str | None, command: str) -> dict:
    if config_arg is None:
        return load_preset(COMMANDS[command].preset)
    path = Path(config_arg)
    if path.is_file():
        try:
            config = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:  # e.g. no read permission
            raise ConfigError(f"config {path} cannot be read: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # also a too-long integer or too-deep nesting
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise ConfigError(f"config {path} must be a JSON object, got {type(config).__name__}")
        return config
    if config_arg in {c.preset for c in COMMANDS.values()}:
        return load_preset(config_arg)
    raise ConfigError(f"config file not found: {config_arg}")


def command_record(config: dict, command: str) -> dict:
    """The `command` record of `config`, validated against its schema, with defaults filled in."""
    for key in config:
        if key != "schema_version" and key not in COMMANDS:
            raise ConfigError(f"unknown top-level config key {key!r}")
    version = config.get("schema_version", SCHEMA_VERSION)
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r} (expected the integer {SCHEMA_VERSION})")
    if command not in config:
        raise ConfigError(f"config has no {command!r} record")
    return SCHEMAS[command](config[command], command)


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# output: each command returns an Output, and `emit` is the one place that writes files and stdout

class Output(NamedTuple):
    """What one command made."""
    payloads: dict  # JSON documents by file name
    table: tuple[str, list[str], list] | None = None  # (CSV file name, columns, rows of numbers and strings)
    plots: Sequence = ()  # (SVG file name, series, title, x label, y label) per plot
    summary: str | None = None  # stdout; None reports the CSV file and its row count
    code: int = EXIT_OK


def _header(digest: str) -> dict:
    """The provenance each output file starts with."""
    return {"schema_version": SCHEMA_VERSION, "tool_version": __version__, "config_sha256": digest}


def _density_json(matrix: np.ndarray) -> dict:
    """One density matrix as "re"; "im" stays, all zeros, so pinned payloads are unchanged."""
    return {"re": matrix.tolist(), "im": np.zeros_like(matrix).tolist()}


def _photon_json(state: PhotonState) -> dict:
    """One photon state: by bin index, its H and V amplitudes as (re, im) pairs."""
    bins = {str(b): {"H": [h, 0.0], "V": [v, 0.0]} for b, (h, v) in enumerate(zip(*state.amplitudes.tolist()))}
    return {"steps": state.steps_applied, "success_probability": state.success_probability, "bins": bins}


def _superposition_json(state: PhotonState) -> dict:
    """One output superposition: by outcome string, in bin order, its two memory amplitudes as (re, im) pairs."""
    amps = {index_to_bits(b, state.steps_applied): [[h, 0.0], [v, 0.0]]
            for b, (h, v) in enumerate(zip(*state.amplitudes.tolist()))}
    return {"steps": state.steps_applied, "amplitudes": amps}


def write_csv(path: Path, command: str, digest: str, columns: list[str], rows: list) -> None:
    """The header as comment lines, then the rows; csv writes each float, numpy's too, by float.__repr__."""
    tolerances = f"exact={TOL.exact:g} prob_sum={TOL.prob_sum:g} state_norm={TOL.state_norm:g}"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# qcoin {command}\n")
        fh.writelines(f"# {key}: {value}\n" for key, value in {**_header(digest), "tolerances": tolerances}.items())
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def write_json(path: Path, payload: dict | list, digest: str) -> None:
    """One compact line in insertion order, so json's C encoder writes it.  An object payload gets the
    header first; a list stays bare (compare_sweep.json, whose pinned digest covers the list alone)."""
    if isinstance(payload, dict):
        payload = {**_header(digest), **payload}
    # a non-finite float raises here rather than reach the file as invalid JSON
    path.write_text(json.dumps(payload, allow_nan=False) + "\n", encoding="utf-8")


def emit(output: Output, command: str, digest: str, out_dir: Path) -> int:
    """Write `output`'s files into `out_dir`, print its summary and return its exit code; a file that
    cannot be written is a ConfigError naming it."""
    try:
        if output.table is not None:
            csv_name, columns, rows = output.table
            write_csv(path := out_dir / csv_name, command, digest, columns, rows)
        for name, payload in output.payloads.items():
            write_json(path := out_dir / name, payload, digest)
        for name, series, title, xlabel, ylabel in output.plots:
            line_plot(path := out_dir / name, series, title=title, xlabel=xlabel, ylabel=ylabel)
    except OSError as exc:  # e.g. a directory in the file's place
        raise ConfigError(f"cannot write the output file {str(path)!r}: {exc.strerror or exc}") from exc
    print(f"wrote {out_dir / csv_name} ({len(rows)} rows)" if output.summary is None else output.summary)
    return output.code


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(OUT_DIR_ENV) or DEFAULT_OUT_DIR
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. an existing file, or a path through one
        raise ConfigError(f"cannot use {out!r} as the output directory: {exc.strerror}") from exc
    return path


# ---------------------------------------------------------------------------
# commands: each takes the validated record and returns its Output

def cmd_futures(rec: dict) -> Output:
    """One `future_distribution` over the grid of (start, m) pairs."""
    stay_heads, m_values, steps, starts = rec["l"], rec["m_values"], rec["steps"], rec["start_states"]
    coins = PerturbedCoin(np.full(len(m_values), stay_heads), np.array(m_values))
    bins = future_distribution(coins, np.array([[s.index] for s in starts]), steps).bins  # (start, m, bin)
    strings, outcomes = all_bitstrings(steps), list(range(2**steps))
    rows, distributions, plots = [], [], []
    for start, per_m in zip(starts, bins[..., lexicographic_bins(steps)].tolist()):  # in bitstring order
        series = []
        for m, probs in zip(m_values, per_m):
            rows += [[start.name, m, bits, p] for bits, p in zip(strings, probs)]
            series.append((outcomes, probs, f"m={m:g}"))
            distributions.append({"start": start.name, "l": stay_heads, "m": m,
                                  "distribution": {"steps": steps, **dict(zip(strings, probs))}})
        plots.append((f"futures_{start.name}.svg", series, f"Future distributions from {start.name} "
                      f"(l={stay_heads:g})", "outcome string index", "probability"))
    return Output({"futures.json": {"distributions": distributions}},
                  ("futures.csv", ["start_state", "m", "bitstring", "probability"], rows), plots)


def cmd_complexity_sweep(rec: dict) -> Output:
    """The weights, density and entropies of the irreducible m values as one grid; the reducible chain
    l = m = 1 gets an error row with the message `stationary_weights` raises for it."""
    stay_heads, method = rec["l"], rec["weight_method"]
    xs = [m for m in rec["m_values"] if not stay_heads == m == 1.0]
    classical = quantum = densities = []
    if xs:  # an all-reducible sweep computes nothing
        coins = PerturbedCoin(np.full(len(xs), stay_heads), np.array(xs))
        weights = stationary_weights(coins, method)
        rho = memory_density(coins, weights)
        classical, quantum = classical_complexity(weights).tolist(), von_neumann_entropy(rho).tolist()
        densities = [{"m": m, "memory_density": _density_json(matrix)} for m, matrix in zip(xs, rho.matrix)]
    results = iter(zip(classical, quantum))
    rows = [[m, "", "", REDUCIBLE_CHAIN] if stay_heads == m == 1.0 else [m, *next(results), ""]
            for m in rec["m_values"]]
    plots = [("complexity.svg", [(xs, quantum, "C_q"), (xs, classical, "C_mu")],
              f"Memory vs stay-tails probability (l={stay_heads:g}, {method.value} weights)", "m", "bits")]
    return Output({"memory_densities.json": {"l": stay_heads, "weight_method": method.value, "densities": densities}},
                  ("complexity.csv", ["m", "c_mu", "c_q", "error"], rows), plots if xs else ())


def cmd_hom_dip(rec: dict) -> Output:
    (coin_a, start_a), (coin_b, start_b) = rec["process_a"], rec["process_b"]
    steps, poisson_seed = rec["steps"], rec["poisson_seed"]
    psi = run_circuit(coin_a, start_a, steps)
    phi = run_circuit(coin_b, start_b, steps)
    v = visibility(psi, phi)
    if rec["visibility_override"] is not None:
        v = rec["visibility_override"]
    delays = rec["delays_ns"]
    counts = dip_curve_from_visibility(v, rec["envelope_sigma_ns"], delays, rec["baseline"])

    sampled = (None if poisson_seed is None
               else np.random.default_rng(poisson_seed).poisson(counts).astype(float))
    fit = fit_visibility(delays, counts if sampled is None else sampled)
    # scipy gives an infinite error when it cannot estimate the covariance
    err = fit.visibility_err if math.isfinite(fit.visibility_err) else None
    if err is None and counts.min() == counts.max():
        raise FitDidNotConverge(f"the dip does not fix the fit: the expected curve is flat (visibility {v!r}), "
                                f"so the fitted visibility has error {fit.visibility_err!r}")

    curves = {"expected": counts} if sampled is None else {"expected": counts, "sampled": sampled}
    series = [(list(delays), list(curve), name) for name, curve in curves.items()]
    payloads = {
        "hom_dip_fit.json": {
            "theory_visibility": v,
            "fit": {**asdict(fit), "visibility_err": err},
            "poisson_seed": poisson_seed,
        },
        # both routes to the interfering states, for side-by-side inspection
        "hom_dip_states.json": {
            name: {"circuit": _photon_json(state),
                   "superposition": _superposition_json(ideal_output_state(coin, start, steps))}
            for name, state, coin, start in (("process_a", psi, coin_a, start_a), ("process_b", phi, coin_b, start_b))
        },
    }
    columns = ["delay_ns"] + [f"{name}_counts" for name in curves]
    return Output(payloads, ("hom_dip.csv", columns, list(zip(delays, *curves.values()))),
                  [("hom_dip.svg", series, "Two-photon coincidence dip", "relative delay (ns)", "coincidences")],
                  f"fit visibility: {fit.visibility:.6f} +- {'n/a' if err is None else f'{err:.6f}'}")


def cmd_compare_sweep(rec: dict) -> Output:
    rows, plot_series, records = [], [], []
    for entry in rec["series"]:
        name, (fixed_coin, fixed_start), varying = entry["name"], entry["fixed"], entry["varying"]
        m, start, l_values = varying["m"], varying["start"], varying["l_values"]
        fixed = {"label": f"{name}-fixed", "l": fixed_coin.stay_heads, "m": fixed_coin.stay_tails,
                 "start": fixed_start.name}
        coins = PerturbedCoin(np.array(l_values), np.full(len(l_values), m))
        visibilities = visibility_sweep(fixed_coin, fixed_start, coins, start, rec["steps"]).tolist()
        for l, vis in zip(l_values, visibilities):
            overlap = math.sqrt(vis)
            rows.append([name, l, overlap, vis])
            records.append({"overlap": overlap, "visibility": vis, "coincidence_min": 0.5 * (1.0 - vis),
                            "process_a": fixed,
                            "process_b": {"label": f"{name} l={l:g}", "l": l, "m": m, "start": start.name}})
        plot_series.append((l_values, visibilities, name))
    return Output({"compare_sweep.json": records},
                  ("compare_sweep.csv", ["series", "l", "overlap", "visibility"], rows),
                  [("compare_sweep.svg", plot_series, "Statistical-future comparison by interference visibility",
                    "l of the varying process", "visibility")])


def cmd_oracle_check(rec: dict) -> Output:
    results = run_oracle_checks(**rec)  # the record's keys are the suite's parameters
    all_passed = all(r.passed for r in results)
    return Output(
        {"oracle_report.json": {
            "all_passed": all_passed,
            "checks": [vars(r) for r in results],  # the fields in order; asdict would deep-copy each worst_at
        }},
        summary="\n".join(f"{'pass' if r.passed else 'FAIL'}  {r.name}: max deviation "
                          f"{r.max_abs_deviation:.3e} (tol {r.tolerance:g})" for r in results),
        code=EXIT_OK if all_passed else EXIT_CHECK)


def cmd_counts(rec: dict) -> Output:
    (coin, start), steps, draws, seed = rec["process"], rec["steps"], rec["n"], rec["seed"]
    counts = sample_trajectories(coin, start, steps, draws, seed)
    empirical = counts_to_distribution(counts, steps)
    theory = future_distribution(coin, start, steps)
    fidelity = classical_fidelity(empirical, theory)

    order = lexicographic_bins(steps)  # the rows in bitstring order
    rows = list(zip(all_bitstrings(steps), *(a[order].tolist() for a in (counts, empirical.bins, theory.bins))))
    return Output(
        {"counts_report.json": {
            "fidelity": fidelity,
            "n": draws,
            "seed": seed,
            "process": {"l": coin.stay_heads, "m": coin.stay_tails, "start": start.name},
            "steps": steps,
        }},
        ("counts.csv", ["bitstring", "count", "empirical_probability", "theory_probability"], rows),
        summary=f"classical fidelity to theory: {fidelity:.6f} ({draws} draws)")


# ---------------------------------------------------------------------------
# entry point

class Command(NamedTuple):
    run: Callable[[dict], Output]
    preset: str  # the bundled config the command runs without --config
    help: str
    seed_key: str | None  # the record key --seed sets; no --seed option without one


COMMANDS = {
    "futures": Command(cmd_futures, "fig4",
                       "exact future distributions over a sweep of stay-tails values", None),
    "complexity-sweep": Command(cmd_complexity_sweep, "fig5a",
                                "classical and quantum memory cost over a parameter sweep", None),
    "hom-dip": Command(cmd_hom_dip, "fig5b",
                       "two-photon coincidence dip, optional Poisson sampling, and visibility fit",
                       "poisson_seed"),
    "compare-sweep": Command(cmd_compare_sweep, "fig5c",
                             "interference visibility between a fixed and varying process", None),
    "oracle-check": Command(cmd_oracle_check, "oracle",
                            "cross-module equivalence suites; nonzero exit on violation", "seed"),
    "counts": Command(cmd_counts, "counts", "finite-count sampling and classical fidelity to theory", "seed"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a config error: exit 2, no traceback
        raise ConfigError(message)


@functools.cache  # one parser per process: building the six subparsers costs about a millisecond
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qcoin",
        description="Quantum-enhanced stochastic simulation of the perturbed coin.",
    )
    parser.add_argument("--version", action="version", version=f"qcoin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", metavar="PATH",
                       help="JSON config file or bundled preset name (default: the command's preset)")
        p.add_argument("--out", metavar="DIR",
                       help=f"output directory (default: ${OUT_DIR_ENV} or ./{DEFAULT_OUT_DIR})")
        if command.seed_key:
            p.add_argument("--seed", type=int, metavar="N",
                           help=f"override the config's {command.seed_key!r}")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = load_config(args.config, args.command)
        record = config.get(args.command)
        # --seed is folded into the config as loaded, so its hash covers the effective run
        if isinstance(record, dict) and getattr(args, "seed", None) is not None:
            record[COMMANDS[args.command].seed_key] = args.seed
        digest = config_hash(config)
        rec = command_record(config, args.command)
        out_dir = _out_dir(args)  # an unusable --out exits 2 before any work is done
        return emit(COMMANDS[args.command].run(rec), args.command, digest, out_dir)
    except (ConfigError, InvalidParameter, StepCountTooLarge) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except FitDidNotConverge as exc:
        sys.stderr.write(f"fit failure: {exc}\n")
        return EXIT_FIT


if __name__ == "__main__":
    sys.exit(main())
