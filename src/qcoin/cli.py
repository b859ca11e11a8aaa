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

Exit codes: 0 success, 2 config error, 3 numerical-check failure,
4 fit failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .checks import run_oracle_checks
from .constants import ALLOCATION_BUDGET_BYTES, MAX_SUPERPOSITION_STEPS, TOL
from .circuit import run_circuit
from .encoding import all_bitstrings, lexicographic_bins
from .errors import (
    ConfigError,
    FitDidNotConverge,
    InvalidParameter,
    ReducibleChain,
    StepCountTooLarge,
)
from .interference import (
    dip_curve_from_visibility,
    fit_visibility,
    visibility,
    visibility_sweep,
)
from .markov import (
    MAX_ENUMERATION_STEPS,
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
from .quantum import ideal_output_state, memory_density, von_neumann_entropy
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
    "futures": _record(
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
    "compare-sweep": _record(
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
# output plumbing

def _float_str(x) -> str:
    return repr(float(x))


def write_csv(path: Path, command: str, digest: str, columns: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# qcoin {command}\n")
        fh.write(f"# schema_version: {SCHEMA_VERSION}\n")
        fh.write(f"# tool_version: {__version__}\n")
        fh.write(f"# config_sha256: {digest}\n")
        fh.write(
            f"# tolerances: exact={TOL.exact:g} prob_sum={TOL.prob_sum:g} "
            f"state_norm={TOL.state_norm:g}\n"
        )
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def write_json(path: Path, payload: dict, digest: str) -> None:
    payload = {"schema_version": SCHEMA_VERSION, "tool_version": __version__,
               "config_sha256": digest, **payload}
    # a non-finite float raises here rather than reach the file as invalid JSON
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8")


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(OUT_DIR_ENV) or DEFAULT_OUT_DIR
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. an existing file, or a path through one
        raise ConfigError(f"cannot use {out!r} as the output directory: {exc.strerror}") from exc
    return path


# ---------------------------------------------------------------------------
# commands: each takes the validated record, the config hash and the output directory

def cmd_futures(rec: dict, digest: str, out_dir: Path) -> int:
    stay_heads, steps = rec["l"], rec["steps"]
    rows, distributions = [], []
    series_by_start: dict[str, list[tuple[list[float], list[float], str]]] = {}
    for start in rec["start_states"]:
        series = []
        for m in rec["m_values"]:
            dist = future_distribution(PerturbedCoin(stay_heads, m), start, steps)
            items = list(dist.probabilities.items())  # in bitstring order
            for bits, p in items:
                rows.append([start.name, _float_str(m), bits, _float_str(p)])
            series.append((list(range(len(items))), [p for _, p in items], f"m={m:g}"))
            distributions.append(
                {"start": start.name, "l": stay_heads, "m": m, "distribution": dist.to_json_dict()}
            )
        series_by_start[start.name] = series
    write_csv(out_dir / "futures.csv", "futures", digest,
              ["start_state", "m", "bitstring", "probability"], rows)
    write_json(out_dir / "futures.json", {"distributions": distributions}, digest)
    for name, series in series_by_start.items():
        line_plot(out_dir / f"futures_{name}.svg", series,
                  title=f"Future distributions from {name} (l={stay_heads:g})",
                  xlabel="outcome string index", ylabel="probability")
    print(f"wrote {out_dir / 'futures.csv'} ({len(rows)} rows)")
    return EXIT_OK


def cmd_complexity_sweep(rec: dict, digest: str, out_dir: Path) -> int:
    stay_heads, method = rec["l"], rec["weight_method"]
    rows, densities = [], []
    xs, classical, quantum = [], [], []
    for m in rec["m_values"]:
        coin = PerturbedCoin(stay_heads, m)
        try:
            weights = stationary_weights(coin, method)
        except ReducibleChain as exc:
            rows.append([_float_str(m), "", "", str(exc)])
            continue
        rho = memory_density(coin, weights)
        c_mu = classical_complexity(weights)
        c_q = von_neumann_entropy(rho)
        rows.append([_float_str(m), _float_str(c_mu), _float_str(c_q), ""])
        densities.append({"m": m, "memory_density": rho.to_json_dict()})
        xs.append(m)
        classical.append(c_mu)
        quantum.append(c_q)
    write_csv(out_dir / "complexity.csv", "complexity-sweep", digest,
              ["m", "c_mu", "c_q", "error"], rows)
    write_json(out_dir / "memory_densities.json",
               {"l": stay_heads, "weight_method": method.value, "densities": densities}, digest)
    if xs:
        line_plot(out_dir / "complexity.svg",
                  [(xs, quantum, "C_q"), (xs, classical, "C_mu")],
                  title=f"Memory vs stay-tails probability (l={stay_heads:g}, {method.value} weights)",
                  xlabel="m", ylabel="bits")
    print(f"wrote {out_dir / 'complexity.csv'} ({len(rows)} rows)")
    return EXIT_OK


def cmd_hom_dip(rec: dict, digest: str, out_dir: Path) -> int:
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
    fit = fit_visibility(zip(delays, counts if sampled is None else sampled))
    # scipy gives an infinite error when it cannot estimate the covariance
    err = fit.visibility_err if math.isfinite(fit.visibility_err) else None
    if err is None and counts.min() == counts.max():
        raise FitDidNotConverge(f"the dip does not fix the fit: the expected curve is flat (visibility {v!r}), "
                                f"so the fitted visibility has error {fit.visibility_err!r}")

    columns = ["delay_ns", "expected_counts"] + (["sampled_counts"] if sampled is not None else [])
    table = [delays, counts] + ([sampled] if sampled is not None else [])
    rows = [[_float_str(x) for x in row] for row in zip(*table)]
    write_csv(out_dir / "hom_dip.csv", "hom-dip", digest, columns, rows)
    write_json(out_dir / "hom_dip_fit.json", {
        "theory_visibility": v,
        "fit": {
            "visibility": fit.visibility,
            "visibility_err": err,
            "baseline": fit.baseline,
            "sigma_ns": fit.sigma_ns,
            "center_ns": fit.center_ns,
        },
        "poisson_seed": poisson_seed,
    }, digest)
    # both routes to the interfering states, for side-by-side inspection
    write_json(out_dir / "hom_dip_states.json", {
        "process_a": {
            "circuit": psi.to_json_dict(),
            "superposition": ideal_output_state(coin_a, start_a, steps).to_json_dict(),
        },
        "process_b": {
            "circuit": phi.to_json_dict(),
            "superposition": ideal_output_state(coin_b, start_b, steps).to_json_dict(),
        },
    }, digest)
    series = [(list(delays), list(counts), "expected")]
    if sampled is not None:
        series.append((list(delays), list(sampled), "sampled"))
    line_plot(out_dir / "hom_dip.svg", series, title="Two-photon coincidence dip",
              xlabel="relative delay (ns)", ylabel="coincidences")
    print(f"fit visibility: {fit.visibility:.6f} +- {'n/a' if err is None else f'{err:.6f}'}")
    return EXIT_OK


def cmd_compare_sweep(rec: dict, digest: str, out_dir: Path) -> int:
    rows, plot_series, records = [], [], []
    for entry in rec["series"]:
        name, (fixed_coin, fixed_start), varying = entry["name"], entry["fixed"], entry["varying"]
        m, start, l_values = varying["m"], varying["start"], varying["l_values"]
        fixed = {"label": f"{name}-fixed", "l": fixed_coin.stay_heads, "m": fixed_coin.stay_tails,
                 "start": fixed_start.name}
        visibilities = visibility_sweep((fixed_coin, fixed_start),
                                        [(PerturbedCoin(l, m), start) for l in l_values], rec["steps"])
        for l, vis in zip(l_values, visibilities):
            overlap = math.sqrt(vis)
            rows.append([name, _float_str(l), _float_str(overlap), _float_str(vis)])
            records.append({"overlap": overlap, "visibility": vis, "coincidence_min": 0.5 * (1.0 - vis),
                            "process_a": fixed,
                            "process_b": {"label": f"{name} l={l:g}", "l": l, "m": m, "start": start.name}})
        plot_series.append((l_values, visibilities, name))
    write_csv(out_dir / "compare_sweep.csv", "compare-sweep", digest,
              ["series", "l", "overlap", "visibility"], rows)
    # A bare list in insertion order, not write_json's headed, key-sorted object: its payload
    # digest is pinned in benchmarks/reference_digests.json and changes only with that file.
    (out_dir / "compare_sweep.json").write_text(json.dumps(records, indent=2, allow_nan=False) + "\n",
                                                encoding="utf-8")
    line_plot(out_dir / "compare_sweep.svg", plot_series,
              title="Statistical-future comparison by interference visibility",
              xlabel="l of the varying process", ylabel="visibility")
    print(f"wrote {out_dir / 'compare_sweep.csv'} ({len(rows)} rows)")
    return EXIT_OK


def cmd_oracle_check(rec: dict, digest: str, out_dir: Path) -> int:
    results = run_oracle_checks(**rec)  # the record's keys are the suite's parameters
    all_passed = all(r.passed for r in results)
    write_json(out_dir / "oracle_report.json", {
        "all_passed": all_passed,
        "checks": [asdict(r) for r in results],  # name, max_abs_deviation, tolerance, passed, worst_at
    }, digest)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{status}  {r.name}: max deviation {r.max_abs_deviation:.3e} (tol {r.tolerance:g})")
    return EXIT_OK if all_passed else EXIT_CHECK


def cmd_counts(rec: dict, digest: str, out_dir: Path) -> int:
    (coin, start), steps, draws, seed = rec["process"], rec["steps"], rec["n"], rec["seed"]
    counts = sample_trajectories(coin, start, steps, draws, seed)
    empirical = counts_to_distribution(counts, steps)
    theory = future_distribution(coin, start, steps)
    fidelity = classical_fidelity(empirical, theory)

    rows = [
        [bits, str(c), _float_str(e), _float_str(t)]
        for bits, c, e, t in zip(all_bitstrings(steps), counts[lexicographic_bins(steps)].tolist(),
                                 empirical.probabilities.values(), theory.probabilities.values())
    ]
    write_csv(out_dir / "counts.csv", "counts", digest,
              ["bitstring", "count", "empirical_probability", "theory_probability"], rows)
    write_json(out_dir / "counts_report.json", {
        "fidelity": fidelity,
        "n": draws,
        "seed": seed,
        "process": {"l": coin.stay_heads, "m": coin.stay_tails, "start": start.name},
        "steps": steps,
    }, digest)
    print(f"classical fidelity to theory: {fidelity:.6f} ({draws} draws)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

class Command(NamedTuple):
    run: Callable[[dict, str, Path], int]
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
        return COMMANDS[args.command].run(rec, digest, _out_dir(args))
    except (ConfigError, InvalidParameter, StepCountTooLarge) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FitDidNotConverge as exc:
        print(f"fit failure: {exc}", file=sys.stderr)
        return EXIT_FIT


if __name__ == "__main__":
    sys.exit(main())
