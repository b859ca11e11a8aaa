"""Experiment runner: reproduces the perturbed-coin data products as CSV,
JSON and SVG files.

Subcommands: futures, complexity-sweep, hom-dip, compare-sweep,
oracle-check, counts.  Each reads a JSON config with one top-level record
per command; bundled presets (fig4, fig5a, fig5b, fig5c) reproduce the
theory layer of the corresponding figures with one command.

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
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .checks import run_oracle_checks
from .constants import TOL
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
    visibility_records_to_json,
    visibility_sweep,
)
from .markov import (
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
from .quantum import ideal_output_state, memory_density, von_neumann_entropy, ProcessSpec
from .svgplot import line_plot

SCHEMA_VERSION = 1
OUT_DIR_ENV = "QCOIN_OUT_DIR"
DEFAULT_OUT_DIR = "qcoin-out"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECK = 3
EXIT_FIT = 4

# As-implemented sweep parameters (slightly off the nominal round values);
# selected by --paper-params.
IMPLEMENTED_STAY_HEADS = 0.397
IMPLEMENTED_STAY_TAILS_VALUES = (0.101, 0.197, 0.297, 0.391, 0.490, 0.588, 0.685, 0.784, 0.882, 0.994)

_PRESET_BY_COMMAND = {
    "futures": "fig4",
    "complexity-sweep": "fig5a",
    "hom-dip": "fig5b",
    "compare-sweep": "fig5c",
    "counts": "counts",
    "oracle-check": "oracle",
}


# ---------------------------------------------------------------------------
# config plumbing

def load_preset(name: str) -> dict:
    ref = resources.files("qcoin.presets").joinpath(f"{name}.json")
    try:
        return json.loads(ref.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"unknown preset {name!r}") from None


def load_config(config_arg: str | None, command: str) -> dict:
    if config_arg is None:
        return load_preset(_PRESET_BY_COMMAND[command])
    path = Path(config_arg)
    if path.is_file():
        try:
            config = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise ConfigError(f"config {path} must be a JSON object, got {type(config).__name__}")
        return config
    if config_arg in {f"fig{n}" for n in ("4", "5a", "5b", "5c")} | set(_PRESET_BY_COMMAND.values()):
        return load_preset(config_arg)
    raise ConfigError(f"config file not found: {config_arg}")


def command_record(config: dict, command: str) -> dict:
    version = config.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    record = config.get(command)
    if not isinstance(record, dict):
        raise ConfigError(f"config has no {command!r} record")
    return record


def _number(value, key: str, kind: type = float):
    """`kind(value)` for a config field.  A bool, a non-integral number for an
    integer field, or a value that does not convert is a ConfigError.
    """
    fractional = kind is int and isinstance(value, float) and not value.is_integer()
    if not isinstance(value, bool) and not fractional:
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    noun = "an integer" if kind is int else "a number"
    raise ConfigError(f"config key {key!r} must be {noun}, got {value!r}")


def _seed(value) -> int:
    seed = _number(value, "seed", int)
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    return seed


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _prob(record: dict, key: str) -> float:
    if key not in record:
        raise ConfigError(f"missing config key {key!r}")
    value = _number(record[key], key)
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"config key {key!r} must be a probability in [0, 1], got {value}")
    return value


def _prob_list(record: dict, key: str) -> list[float]:
    values = record.get(key)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"config key {key!r} must be a nonempty list")
    out = []
    for v in values:
        v = _number(v, key)
        if not 0.0 <= v <= 1.0:
            raise ConfigError(f"values of {key!r} must be probabilities, got {v}")
        out.append(v)
    return out


def _start(name) -> CausalState:
    try:
        return CausalState[str(name)]
    except KeyError:
        raise ConfigError(f"start state must be S0 or S1, got {name!r}") from None


def _coin(record: dict) -> PerturbedCoin:
    try:
        return PerturbedCoin(_prob(record, "l"), _prob(record, "m"))
    except InvalidParameter as exc:
        raise ConfigError(str(exc)) from exc


def _steps(record: dict, default: int = 3) -> int:
    steps = _number(record.get("steps", default), "steps", int)
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    return steps


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
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(OUT_DIR_ENV) or DEFAULT_OUT_DIR
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# commands

def cmd_futures(config: dict, out_dir: Path) -> int:
    record = command_record(config, "futures")
    stay_heads = _prob(record, "l")
    m_values = _prob_list(record, "m_values")
    steps = _steps(record)
    start_names = record.get("start_states", ["S0", "S1"])
    starts = [_start(n) for n in start_names]
    digest = config_hash(config)

    rows = []
    distributions = []
    series_by_start: dict[str, list[tuple[list[float], list[float], str]]] = {}
    for start in starts:
        series = []
        for m in m_values:
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


def cmd_complexity_sweep(config: dict, out_dir: Path, paper_params: bool = False) -> int:
    record = command_record(config, "complexity-sweep")
    if paper_params:
        # fold into the record so the config hash covers the effective sweep
        record["l"] = IMPLEMENTED_STAY_HEADS
        record["m_values"] = list(IMPLEMENTED_STAY_TAILS_VALUES)
    stay_heads = _prob(record, "l")
    m_values = _prob_list(record, "m_values")
    method_name = record.get("weight_method", "three-step")
    try:
        method = WeightMethod(method_name)
    except ValueError:
        raise ConfigError(f"weight_method must be 'exact' or 'three-step', got {method_name!r}") from None
    digest = config_hash(config)

    rows = []
    densities = []
    xs, classical, quantum = [], [], []
    for m in m_values:
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


def cmd_hom_dip(config: dict, out_dir: Path, seed_override: int | None = None) -> int:
    record = command_record(config, "hom-dip")
    proc_a, start_a = _process_record(record, "process_a")
    proc_b, start_b = _process_record(record, "process_b")
    steps = _steps(record)
    sigma = _number(record.get("envelope_sigma_ns", 1.0), "envelope_sigma_ns")
    baseline = _number(record.get("baseline", 10000), "baseline")
    delays = _delay_grid(record.get("delays_ns", {"min": -5.0, "max": 5.0, "count": 41}))
    if seed_override is not None:
        record["poisson_seed"] = seed_override
    poisson_seed = record.get("poisson_seed")
    digest = config_hash(config)

    psi = run_circuit(proc_a.coin, start_a, steps)
    phi = run_circuit(proc_b.coin, start_b, steps)
    v = visibility(psi, phi)
    override = record.get("visibility_override")
    if override is not None:
        v = _number(override, "visibility_override")
        if not 0.0 <= v <= 1.0:
            raise ConfigError(f"visibility_override must be in [0, 1], got {v}")
    try:
        curve = dip_curve_from_visibility(v, sigma, delays, baseline)
    except InvalidParameter as exc:
        raise ConfigError(str(exc)) from exc

    sampled = None
    if poisson_seed is not None:
        poisson_seed = _seed(poisson_seed)
        rng = np.random.default_rng(poisson_seed)
        sampled = rng.poisson(curve.counts).astype(float)
    fit_input = sampled if sampled is not None else curve.counts
    fit = fit_visibility(
        zip(curve.delays_ns, fit_input),
        max_evals=_number(record.get("fit_max_evals", 10000), "fit_max_evals", int),
    )
    if not math.isfinite(fit.visibility_err) and curve.counts.min() == curve.counts.max():
        raise FitDidNotConverge(f"the dip does not fix the fit: the expected curve is flat (visibility {v!r}), "
                                f"so the fitted visibility has error {fit.visibility_err!r}")

    columns = ["delay_ns", "expected_counts"] + (["sampled_counts"] if sampled is not None else [])
    rows = []
    for i, tau in enumerate(curve.delays_ns):
        row = [_float_str(tau), _float_str(curve.counts[i])]
        if sampled is not None:
            row.append(_float_str(sampled[i]))
        rows.append(row)
    write_csv(out_dir / "hom_dip.csv", "hom-dip", digest, columns, rows)
    write_json(out_dir / "hom_dip_fit.json", {
        "theory_visibility": v,
        "fit": {
            "visibility": fit.visibility,
            "visibility_err": fit.visibility_err,
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
            "superposition": ideal_output_state(proc_a.coin, start_a, steps).to_json_dict(),
        },
        "process_b": {
            "circuit": phi.to_json_dict(),
            "superposition": ideal_output_state(proc_b.coin, start_b, steps).to_json_dict(),
        },
    }, digest)
    series = [(list(curve.delays_ns), list(curve.counts), "expected")]
    if sampled is not None:
        series.append((list(curve.delays_ns), list(sampled), "sampled"))
    line_plot(out_dir / "hom_dip.svg", series, title="Two-photon coincidence dip",
              xlabel="relative delay (ns)", ylabel="coincidences")
    print(f"fit visibility: {fit.visibility:.6f} +- {fit.visibility_err:.6f}")
    return EXIT_OK


def cmd_compare_sweep(config: dict, out_dir: Path) -> int:
    record = command_record(config, "compare-sweep")
    steps = _steps(record)
    series_records = record.get("series")
    if not isinstance(series_records, list) or not series_records:
        raise ConfigError("compare-sweep config needs a nonempty 'series' list")
    digest = config_hash(config)

    rows = []
    plot_series = []
    all_records = []
    for entry in series_records:
        if not isinstance(entry, dict):
            raise ConfigError(f"each 'series' entry must be an object, got {entry!r}")
        name = str(entry.get("name", "series"))
        fixed, varying = entry.get("fixed"), entry.get("varying")
        if not isinstance(fixed, dict) or not isinstance(varying, dict):
            raise ConfigError(f"series {name!r} needs 'fixed' and 'varying' records")
        fixed_spec = ProcessSpec(_coin(fixed), label=f"{name}-fixed")
        fixed_start = _start(fixed.get("start", "S0"))
        stay_tails = _prob(varying, "m")
        start = _start(varying.get("start", "S0"))
        l_values = _prob_list(varying, "l_values")
        pairs = [
            (ProcessSpec(PerturbedCoin(l, stay_tails), label=f"{name} l={l:g}"), start)
            for l in l_values
        ]
        records = visibility_sweep((fixed_spec, fixed_start), pairs, steps)
        all_records.extend(records)
        for l, rec in zip(l_values, records):
            rows.append([name, _float_str(l), _float_str(math.sqrt(rec.visibility)), _float_str(rec.visibility)])
        plot_series.append((l_values, [rec.visibility for rec in records], name))
    write_csv(out_dir / "compare_sweep.csv", "compare-sweep", digest,
              ["series", "l", "overlap", "visibility"], rows)
    (out_dir / "compare_sweep.json").write_text(
        visibility_records_to_json(all_records) + "\n", encoding="utf-8")
    line_plot(out_dir / "compare_sweep.svg", plot_series,
              title="Statistical-future comparison by interference visibility",
              xlabel="l of the varying process", ylabel="visibility")
    print(f"wrote {out_dir / 'compare_sweep.csv'} ({len(rows)} rows)")
    return EXIT_OK


def cmd_oracle_check(config: dict, out_dir: Path, seed_override: int | None = None) -> int:
    record = command_record(config, "oracle-check")
    grid_step = _number(record.get("grid_step", 0.05), "grid_step")
    if not 0.0 < grid_step <= 0.5:
        raise ConfigError(f"grid_step must be in (0, 0.5], got {grid_step}")
    step_counts = tuple(_number(s, "step_counts", int) for s in record.get("step_counts", [1, 2, 3, 4]))
    if any(s < 1 for s in step_counts) or not step_counts:
        raise ConfigError("step_counts must be a nonempty list of positive integers")
    draws = _number(record.get("identity_draws", 1000), "identity_draws", int)
    if seed_override is not None:
        record["seed"] = seed_override
    seed = _seed(record.get("seed", 7))
    inject_fault = record.get("inject_fault", False)
    if not isinstance(inject_fault, bool):
        raise ConfigError(f"config key 'inject_fault' must be true or false, got {inject_fault!r}")
    digest = config_hash(config)

    results = run_oracle_checks(
        grid_step=grid_step,
        step_counts=step_counts,
        identity_draws=draws,
        seed=seed,
        inject_fault=inject_fault,
    )
    all_passed = all(r.passed for r in results)
    write_json(out_dir / "oracle_report.json", {
        "all_passed": all_passed,
        "checks": [
            {
                "name": r.name,
                "max_abs_deviation": r.max_abs_deviation,
                "tolerance": r.tolerance,
                "passed": r.passed,
                "worst_at": r.worst_at,
            }
            for r in results
        ],
    }, digest)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{status}  {r.name}: max deviation {r.max_abs_deviation:.3e} (tol {r.tolerance:g})")
    return EXIT_OK if all_passed else EXIT_CHECK


def cmd_counts(config: dict, out_dir: Path, seed_override: int | None = None) -> int:
    record = command_record(config, "counts")
    proc, start = _process_record(record, "process")
    steps = _steps(record)
    draws = _number(record.get("n", 1_000_000), "n", int)
    if draws < 1:
        raise ConfigError(f"n must be >= 1, got {draws}")
    if seed_override is not None:
        record["seed"] = seed_override
    if record.get("seed") is None:
        raise ConfigError("counts requires a seed (config 'seed' or --seed)")
    seed = _seed(record["seed"])
    digest = config_hash(config)

    counts = sample_trajectories(proc.coin, start, steps, draws, seed)
    empirical = counts_to_distribution(counts, steps)
    theory = future_distribution(proc.coin, start, steps)
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
        "process": {"l": proc.coin.stay_heads, "m": proc.coin.stay_tails, "start": start.name},
        "steps": steps,
    }, digest)
    print(f"classical fidelity to theory: {fidelity:.6f} ({draws} draws)")
    return EXIT_OK


def _process_record(record: dict, key: str) -> tuple[ProcessSpec, CausalState]:
    sub = record.get(key)
    if not isinstance(sub, dict):
        raise ConfigError(f"missing process record {key!r}")
    return ProcessSpec(_coin(sub), label=str(sub.get("label", key))), _start(sub.get("start", "S0"))


def _delay_grid(spec) -> np.ndarray:
    if isinstance(spec, list):
        if len(spec) < 2:
            raise ConfigError("delays_ns list needs at least two entries")
        return np.asarray([_number(x, "delays_ns") for x in spec])
    if isinstance(spec, dict):
        try:
            count = _number(spec["count"], "delays_ns.count", int)
            lo, hi = _number(spec["min"], "delays_ns.min"), _number(spec["max"], "delays_ns.max")
        except KeyError as exc:
            raise ConfigError(f"delays_ns record missing key {exc}") from None
        if count < 2 or hi <= lo:
            raise ConfigError("delays_ns needs count >= 2 and max > min")
        return np.linspace(lo, hi, count)
    raise ConfigError("delays_ns must be a list or a {min, max, count} record")


# ---------------------------------------------------------------------------
# entry point

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
    specs = [
        ("futures", "exact future distributions over a sweep of stay-tails values"),
        ("complexity-sweep", "classical and quantum memory cost over a parameter sweep"),
        ("hom-dip", "two-photon coincidence dip, optional Poisson sampling, and visibility fit"),
        ("compare-sweep", "interference visibility between a fixed and varying process"),
        ("oracle-check", "cross-module equivalence suites; nonzero exit on violation"),
        ("counts", "finite-count sampling and classical fidelity to theory"),
    ]
    for name, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH",
                       help="JSON config file or bundled preset name (default: the command's preset)")
        p.add_argument("--out", metavar="DIR",
                       help=f"output directory (default: ${OUT_DIR_ENV} or ./{DEFAULT_OUT_DIR})")
        if name in ("hom-dip", "oracle-check", "counts"):
            p.add_argument("--seed", type=int, metavar="N",
                           help="override the config's random seed")
        if name == "complexity-sweep":
            p.add_argument("--paper-params", action="store_true",
                           help="use the implemented (not nominal) sweep parameters")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = load_config(args.config, args.command)
        out_dir = _out_dir(args)
        if args.command == "futures":
            return cmd_futures(config, out_dir)
        if args.command == "complexity-sweep":
            return cmd_complexity_sweep(config, out_dir, paper_params=args.paper_params)
        if args.command == "hom-dip":
            return cmd_hom_dip(config, out_dir, seed_override=args.seed)
        if args.command == "compare-sweep":
            return cmd_compare_sweep(config, out_dir)
        if args.command == "oracle-check":
            return cmd_oracle_check(config, out_dir, seed_override=args.seed)
        if args.command == "counts":
            return cmd_counts(config, out_dir, seed_override=args.seed)
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, InvalidParameter, StepCountTooLarge) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FitDidNotConverge as exc:
        print(f"fit failure: {exc}", file=sys.stderr)
        return EXIT_FIT


if __name__ == "__main__":
    sys.exit(main())
