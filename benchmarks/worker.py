"""One benchmark process: set up, warm up, then run the closed loop.

Started by run.py from the repository root with ``PYTHONPATH=src``.  It
prints ``READY`` and a JSON object once set-up and the warm-up op are done
(run.py times set-up from process start to that line) and, unless
``--setup-only``, one JSON line with the window's statistics.  qcoin's own
console output goes to /dev/null.

Set-up is calibrated like the ops (see calibration.py) from the moment
numpy is imported: qcoin and the benchmark modules that import it are
imported inside ``main``, while the reference kernel is sampled, so the
READY object gives that part of set-up in wall and in calibrated seconds.

The loop is closed and single-threaded: the next op is prepared only after
the previous one is checked.  Only the call into qcoin is timed; the loop
stops once the timed calls add up to ``--seconds``.  Every
``CALIBRATE_EVERY_S`` of wall time the reference kernel of calibration.py
is timed (its time is left out of the op's), and each op's time is also
given in calibrated seconds.  With
``--trace 1`` odd ops run traced and even ops untraced (nothing patched),
so the tracing overhead is the drop in ops/s between two interleaved
halves of one window.  A kernel sample that lands inside a traced op adds
to the self time of the function it interrupts (about 3% of op time).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibration  # numpy only; qcoin is imported in main(), inside the set-up calibration

MAX_LISTED_FAILURES = 10
CALIBRATE_EVERY_S = 0.1

# Per-layer metrics that come from the window rather than from the spans.
WINDOW_METRICS = (
    ("dual_route.max_dev", "1", "lower"),
    ("trace.ops_per_s_untraced", "1/cal_s", "higher"),
    ("trace.ops_per_s_traced", "1/cal_s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)


def run_window(runner, workload: str, seed: int, seconds: float, tracer=None) -> dict:
    import workloads
    latencies, spans, traced, failures, failed = [], [], [], [], []
    worst, busy = 0.0, 0.0
    index = 0
    with calibration.Sampler(CALIBRATE_EVERY_S) as sampler:
        while busy < seconds or (tracer is not None and index < 2):  # a traced run needs both halves
            op = workloads.make_op(workload, seed, index)
            call = runner.prepare(op)
            trace_op = tracer is not None and index % 2 == 1
            if trace_op:
                tracer.op_id = index
                tracer.install()
            paused, t0 = sampler.paused_s, time.perf_counter()
            try:
                result, error = call(), None
            except Exception:  # a failed op is counted and reported, and the loop goes on
                result, error = None, traceback.format_exc(limit=-3)
            t1 = time.perf_counter()
            elapsed = t1 - t0 - (sampler.paused_s - paused)
            if trace_op:
                tracer.uninstall()
            outcome = _judge(runner, op, result, error)
            latencies.append(elapsed)
            spans.append((t0, t1, elapsed))
            traced.append(trace_op)
            busy += elapsed
            if outcome.max_dev is not None:
                worst = max(worst, outcome.max_dev)
            if not outcome.ok:
                failed.append(op.index)
                if len(failures) < MAX_LISTED_FAILURES:
                    failures.append({"index": op.index, "kind": op.kind, "inputs": op.inputs,
                                     "message": outcome.message})
            index += 1
    return {"latencies": latencies, "calibrated": sampler.calibrate(spans), "traced": traced,
            "kernel_s": statistics.median(s for _, s in sampler.samples),
            "failed": failed, "failures": failures, "max_dev": worst}


def _judge(runner, op, result, error: str | None):
    import workloads

    if error is None:
        try:
            return runner.check(op, result)
        except Exception:  # output the check cannot read is a failed op, not a crash
            error = traceback.format_exc(limit=-3)
    return workloads.Outcome(False, None, error.strip().replace("\n", " | "))


def _stats(lat: list[float]) -> dict:
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "samples": len(lat),
        "beyond_p90": sum(1 for x in lat if x > p90),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    protocol = sys.stdout
    sys.stdout = open(os.devnull, "w", encoding="utf-8")
    try:
        return _run(args, protocol)
    finally:
        sys.stdout.close()
        sys.stdout = protocol


def _run(args, protocol) -> int:
    root = Path.cwd().resolve()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with calibration.Sampler(CALIBRATE_EVERY_S) as sampler:
            t0 = time.perf_counter()
            import workloads
            from tracing import Tracer

            qcoin_file = Path(sys.modules["qcoin"].__file__).resolve()
            if root / "src" not in qcoin_file.parents:
                print(f"qcoin imported from {qcoin_file}, not from {root / 'src'}",
                      file=sys.stderr)
                return 2
            runner = workloads.Runner(workdir)
            warm = workloads.make_op(args.workload, args.seed, workloads.WARM_UP)
            outcome = runner.check(warm, runner.prepare(warm)())
            t1 = time.perf_counter()
        if not outcome.ok:
            print(f"warm-up op failed: {outcome.message}; inputs {warm.inputs}", file=sys.stderr)
            return 1
        [calibrated] = sampler.calibrate([(t0, t1, t1 - t0 - sampler.paused_s)])
        print("READY", json.dumps({"wall_s": time.perf_counter() - t0,
                                   "calibrated_s": calibrated}), file=protocol, flush=True)
        if args.setup_only:
            return 0

        tracer = Tracer() if args.trace else None
        window = run_window(runner, args.workload, args.seed, args.seconds, tracer)
        result = {
            "attempted": len(window["latencies"]),
            "failed": len(window["failed"]),
            "failed_indices": window["failed"],
            "failures": window["failures"],
            "max_dev": window["max_dev"],
            "kernel_ms": window["kernel_s"] * 1e3,
            "raw": _stats(window["latencies"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if tracer is None:
            result.update(_stats(window["calibrated"]))
        else:
            result.update(_trace_result(root, args, window, tracer))
        print(json.dumps(result), file=protocol, flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _trace_result(root: Path, args, window: dict, tracer) -> dict:
    from tracing import per_layer_metrics

    split = {flag: [c for c, t in zip(window["calibrated"], window["traced"]) if t == flag]
             for flag in (False, True)}
    untraced, traced = (_stats(split[flag])["ops_per_s"] for flag in (False, True))
    layer, by_steps = tracer.summary(len(split[True]))
    layer.update({
        "dual_route.max_dev": window["max_dev"],
        "trace.ops_per_s_untraced": untraced,
        "trace.ops_per_s_traced": traced,
        "trace.overhead_pct": 100.0 * (untraced - traced) / untraced,
    })
    trace_file = Path(".bench_work", "trace", f"{args.workload}-seed{args.seed}.npz")
    tracer.write(root / trace_file)
    units = {name: unit for name, unit, _ in per_layer_metrics() + list(WINDOW_METRICS)}
    traced_seconds = sum(r for r, t in zip(window["latencies"], window["traced"]) if t)
    return {"per_layer": {name: {"value": layer[name], "unit": unit}
                          for name, unit in units.items()},
            "by_steps": by_steps, "trace_file": str(trace_file),
            "traced_op_seconds": traced_seconds}


if __name__ == "__main__":
    sys.exit(main())
