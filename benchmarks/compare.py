"""Compare two result files from collect.py: a parent commit against a change.

    python3 benchmarks/compare.py DIR/parent.json DIR/change.json [--claim WORKLOAD:METRIC ...]

One row per workload and end-to-end metric: each side's median and
quartiles over its runs, the change/parent ratio with the parent median as
its base, and a verdict against the metric's bound in BENCHMARK.json:

* ``ok``          the change's median is no worse than the parent's by more than the bound;
* ``REGRESSION``  it is worse by more than the bound;
* ``unresolved``  either side's quartile spread is wider than the bound, and not every
                  change run beats every parent run.

A claimed metric must also pass the pair rule: the change wins at least 9
in 10 of the seed-matched pairs (ties count for neither side) and the
medians differ by more than the parent's own quartile spread.  A gain does
not count when the change fails more ops than the parent on that workload,
counted over the ops both sides attempted: an op is built from (seed,
index) alone, so the untraced runs of one seed share their first ops, and
a faster side that gets further into a seed is not charged for the ops the
other side never reached.  Files collected with different settings (window
length, set-up samples) are refused.  For traced runs
the per-layer self times are listed too, to show where a saving sits.
This is a report: it never fails the test suite.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _runs(path: str) -> tuple[dict, list[dict]]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return data, data["runs"]


def _values(runs, workload: str, metric: str, trace: int) -> dict[int, float]:
    return {r["seed"]: r["result"]["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["result"]["metrics"]}


def failures(parent, change, workload: str) -> tuple[int, int, int]:
    """(parent failures, change failures, ops compared) over the
    (seed, index) positions both sides attempted in untraced runs."""
    def by_seed(runs):
        return {r["seed"]: r for r in runs if r["workload"] == workload and r["trace"] == 0}
    p, c = by_seed(parent), by_seed(change)
    totals = [0, 0, 0]
    for seed in set(p) & set(c):
        shared = min(p[seed]["result"]["attempted"], c[seed]["result"]["attempted"])
        totals[0] += sum(1 for i in p[seed]["failed_indices"] if i < shared)
        totals[1] += sum(1 for i in c[seed]["failed_indices"] if i < shared)
        totals[2] += shared
    return totals[0], totals[1], totals[2]


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, float]:
    """Verdict and the change's relative worsening (negative: improvement)."""
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worse = sign * (cm - pm) / pm
    beats_all = (max(change) < min(parent)) if better == "lower" else (min(change) > max(parent))
    if ((p3 - p1) / pm > bound or (c3 - c1) / cm > bound) and not beats_all:
        return "unresolved", worse
    return ("REGRESSION" if worse > bound else "ok"), worse


def pair_rule(parent: dict[int, float], change: dict[int, float], better: str) -> str:
    seeds = sorted(set(parent) & set(change))
    if not seeds:
        return "no seed-matched pairs"
    wins = sum(1 for s in seeds
               if (change[s] < parent[s] if better == "lower" else change[s] > parent[s]))
    p1, pm, p3 = quartiles(list(parent.values()))
    cm = statistics.median(change.values())
    met = wins >= 0.9 * len(seeds) and abs(cm - pm) > (p3 - p1)
    return (f"{'claim met' if met else 'claim NOT met'}: change wins {wins}/{len(seeds)} pairs; "
            f"|median difference| {abs(cm - pm):.6g} vs parent quartile spread {p3 - p1:.6g}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent_data, parent = _runs(args.parent)
    change_data, change = _runs(args.change)
    if parent_data["settings"] != change_data["settings"]:
        print(f"refusing to compare: parent settings {parent_data['settings']}, "
              f"change settings {change_data['settings']}", file=sys.stderr)
        return 2
    print(f"parent: {parent_data.get('git_sha')}  change: {change_data.get('git_sha')}")
    print(f"machine: {json.dumps(change_data.get('machine'), sort_keys=True)}")
    print(f"settings: {json.dumps(parent_data['settings'], sort_keys=True)}")
    for side, runs in (("parent", parent), ("change", change)):
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        print(f"{side}: {len(runs)} runs, {failed} of {attempted} ops failed")
    more_failures = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        p_failed, c_failed, shared = failures(parent, change, workload)
        more_failures[workload] = c_failed > p_failed
        print(f"{workload}: over the {shared} untraced ops both sides attempted, "
              f"parent failed {p_failed}, change failed {c_failed}")

    header = (f"{'workload':16s} {'metric':12s} {'n':>5s} {'parent median [q1, q3]':>34s} "
              f"{'change median [q1, q3]':>34s} {'change/parent':>14s} {'bound':>6s}  verdict")
    print(header)
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = _values(parent, workload, name, 0)
            c = _values(change, workload, name, 0)
            if not p or not c:
                continue
            pq, cq = quartiles(list(p.values())), quartiles(list(c.values()))
            status, worse = verdict(list(p.values()), list(c.values()), metric["better"],
                                    metric["bound"])
            print(f"{workload:16s} {name:12s} {len(p):>2d}/{len(c):<2d} "
                  f"{pq[1]:12.6g} [{pq[0]:.6g}, {pq[2]:.6g}]".ljust(70)
                  + f"{cq[1]:12.6g} [{cq[0]:.6g}, {cq[2]:.6g}]".ljust(36)
                  + f"{cq[1] / pq[1]:8.4f} of {pq[1]:.4g} {metric['unit']}"
                  + f"  {metric['bound']:.2f}  {status} ({100 * worse:+.1f}% worse)")

    units = {m["name"]: m for m in spec["end_to_end"]}
    for claim in args.claim:
        workload, _, name = claim.partition(":")
        if name not in units:
            print(f"claim {claim}: unknown metric")
            continue
        result = pair_rule(_values(parent, workload, name, 0), _values(change, workload, name, 0),
                           units[name]["better"])
        if more_failures.get(workload):
            result += "; does not count: the change fails more ops than the parent"
        print(f"claim {claim}: {result}")

    for workload in [w["name"] for w in spec["workloads"]]:
        rows = []
        for metric in spec["per_layer"]:
            if not metric["name"].endswith(".self_s"):
                continue
            p = list(_values(parent, workload, metric["name"], 1).values())
            c = list(_values(change, workload, metric["name"], 1).values())
            if p and c and statistics.median(p) > 0:
                rows.append((metric["name"], statistics.median(p), statistics.median(c)))
        if rows:
            print(f"per-layer self time, {workload} (traced runs, medians, s/op):")
            for name, pm, cm in sorted(rows, key=lambda r: -r[1])[:12]:
                print(f"  {name:42s} {pm:12.6g} -> {cm:12.6g}  ({cm / pm:.3f} of {pm:.4g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
