"""qcoin benchmark: one workload, one seed, one closed-loop window.

Run from the repository root:

    python3 benchmarks/run.py --workload deep-horizon --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for why each exists): oracle-grid,
deep-horizon, figure-presets.  The op inputs come from --seed alone.

Set-up is timed SETUP_SAMPLES times, each from the start of a fresh
interpreter to the end of its warm-up op (importing qcoin.cli, generating
inputs, one untimed op); setup_s is the median.  The part after numpy is
imported is calibrated like the op timings (below), the rest (interpreter
start, numpy import) is in plain seconds.  The last of those processes
goes on to the timed window.  BLAS thread pools are pinned to 1.

End-to-end metrics (--trace 0):

    setup_s      median set-up time in seconds, calibrated after numpy import, as above
    ops_per_s    completed ops per calibrated second of timed calls
    op_p50_ms    median op latency in calibrated ms; the report gives the sample count
    op_p90_ms    90th-percentile op latency in calibrated ms; the report gives the
                 samples beyond it (fewer than 10 on oracle-grid, whose ops take seconds)
    peak_rss_mb  peak resident memory of the process that ran the window

Op timings are calibrated (see calibration.py): each op's time is scaled by
how fast the host ran a fixed reference kernel during and around it,
because a shared host's speed can swing by 2x within tens of seconds.
Process CPU time does not remove that swing (CPU time and wall time of
the ops move together), so it is not steal time.  The report also prints
the plain-time figures and the kernel's median time.

With --trace 1 the result carries the per-layer metrics instead, from a
run whose odd ops are traced and even ops untraced (see worker.py).
Every op's output is checked; `failed` counts exceptions, nonzero exit
codes, failed dual-route checks and payloads that differ from the seed
commit.  The report prints the error rate, the failing ops' inputs and the
largest dual-route deviation; neither is a bounded metric, as the first is
normally 0 and the second moves with the seed at rounding level.  The
report comes first; the last line of standard output is the JSON result.
The exit code is nonzero, with no result printed, if the benchmark itself
cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("oracle-grid", "deep-horizon", "figure-presets")
SETUP_SAMPLES = 3
PROCESS_TIMEOUT_S = 170.0
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
# Report line that lists the index of every failed op; compare.py matches
# failures by (workload, seed, index).
FAILED_OPS = "failed op indices: "
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/cal_s"),
    ("op_p50_ms", "cal_ms"),
    ("op_p90_ms", "cal_ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    pass


def _spawn(root: Path, args, workdir: Path, setup_only: bool, deadline: float):
    """Start a worker; return (plain set-up seconds, set-up seconds with the
    worker's calibrated part, its stdout after READY)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **PINNED_ENV, "PYTHONPATH": str(root / "src")}
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 1.0))[0]:
            raise subprocess.TimeoutExpired(cmd, deadline)
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    tag, _, report = ready.partition(" ")
    if tag != "READY" or proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode} before finishing")
    part = json.loads(report)
    return setup, setup - part["wall_s"] + part["calibrated_s"], rest


def _report(args, plain: list[float], setup: list[float], stats: dict) -> None:
    print(f"qcoin benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    attempted, failed = stats["attempted"], stats["failed"]
    print(f"ops: {attempted} attempted, {failed} failed (error_rate {failed / attempted:.4g}); "
          f"largest dual-route deviation {stats['max_dev']:.3e}")
    print(FAILED_OPS + json.dumps(stats["failed_indices"]))
    for f in stats["failures"]:
        print(f"  FAILED op {f['index']} ({f['kind']}): {f['message']}\n"
              f"    inputs: {json.dumps(f['inputs'], sort_keys=True)}")
    print(f"setup samples (s): {', '.join(f'{s:.3f}' for s in setup)}; "
          f"plain: {', '.join(f'{s:.3f}' for s in plain)}")
    raw = stats["raw"]
    print(f"reference kernel median {stats['kernel_ms']:.4f} ms; plain time: "
          f"{raw['ops_per_s']:.6g} ops/s, p50 {raw['op_p50_ms']:.6g} ms, "
          f"p90 {raw['op_p90_ms']:.6g} ms")
    if not args.trace:
        print(f"latency: {stats['samples']} samples, {stats['beyond_p90']} beyond p90")
        return
    layer = {name: metric["value"] for name, metric in stats["per_layer"].items()}
    by_steps, total = stats["by_steps"], stats["traced_op_seconds"]
    print(f"tracing overhead: {layer['trace.ops_per_s_untraced']:.4g} -> "
          f"{layer['trace.ops_per_s_traced']:.4g} ops/cal_s "
          f"({layer['trace.overhead_pct']:.2f} %), untraced even ops against traced odd ops")
    print(f"spans: {stats['trace_file']}")
    rows = sorted(((name[:-len(".self_s")], value) for name, value in layer.items()
                   if name.endswith(".self_s") and value > 0), key=lambda r: -r[1])
    per_op_total = sum(value for _, value in rows)
    print(f"{'function':40s} {'calls/op':>12s} {'self s/op':>12s} {'share':>7s}")
    for name, value in rows:
        print(f"{name:40s} {layer[name + '.calls']:12.6g} {value:12.6g} "
              f"{100.0 * value / per_op_total:6.2f}%")
    print("self time by M over the traced window (M = -1: no step count):")
    for name, steps, calls, busy in sorted(by_steps, key=lambda r: -r[3])[:15]:
        print(f"  {name:40s} M={steps:<3d} calls={calls:<9d} self={busy:.4f} s "
              f"({100.0 * busy / total:.1f}% of op time)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    if not (root / "src" / "qcoin" / "__init__.py").is_file():
        print(f"no qcoin sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + PROCESS_TIMEOUT_S
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        spawns = [_spawn(root, args, work, True, deadline) for _ in range(SETUP_SAMPLES - 1)]
        spawns.append(_spawn(root, args, work, False, deadline))
        out = spawns[-1][2]
        stats = json.loads(out.strip().splitlines()[-1])
    except (BenchError, ValueError, IndexError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    plain, setup = [s[0] for s in spawns], [s[1] for s in spawns]

    if args.trace:
        metrics = stats["per_layer"]
    else:
        values = {**stats, "setup_s": statistics.median(setup)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    _report(args, plain, setup, stats)
    print(json.dumps({"correct": stats["failed"] == 0, "attempted": stats["attempted"],
                      "failed": stats["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
