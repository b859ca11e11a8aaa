"""Span tracing around qcoin's public functions, for the traced run only.

`Tracer.install` swaps each function in `LAYER_FUNCTIONS` for a wrapper in
every ``qcoin`` module that binds it (several modules import by name), and
`uninstall` puts the originals back, so untraced ops run unpatched code.
Spans are kept in flat in-memory arrays (name, start, end, parent span, op
id, step count) and written out once, at the end.  A span without a
``steps`` argument inherits its parent's step count, so self time can be
grouped by M.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYER_FUNCTIONS = {
    "markov": ("future_distribution", "sample_trajectories", "counts_to_distribution",
               "classical_fidelity", "stationary_weights"),
    "quantum": ("ideal_output_state", "output_overlap", "bhattacharyya_futures",
                "memory_density", "von_neumann_entropy"),
    "circuit": ("run_circuit", "apply_block", "arrival_time_distribution",
                "reconstruct_memory_density", "block_norm_accounting"),
    "checks": ("run_oracle_checks",),
    "interference": ("fit_visibility", "visibility", "visibility_sweep"),
    "cli": ("main", "load_config", "write_csv", "write_json"),
    "svgplot": ("line_plot",),
}


def _out_dir_bytes(args, kwargs, steps, result) -> int:
    argv = args[0] if args else kwargs.get("argv")
    if not argv or "--out" not in argv:
        return 0
    out = Path(argv[argv.index("--out") + 1])
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file()) if out.is_dir() else 0


def _draws(args, kwargs, steps, result) -> int:
    return int(args[3] if len(args) > 3 else kwargs["draws"])


# Work counters: (counter name, function, value of one call).
COUNTERS = (
    ("markov.future_distribution.strings", "markov.future_distribution",
     lambda args, kwargs, steps, result: 2**steps),
    ("markov.sample_trajectories.draws", "markov.sample_trajectories", _draws),
    ("quantum.ideal_output_state.amplitudes", "quantum.ideal_output_state",
     lambda args, kwargs, steps, result: result.amplitudes.size),
    ("circuit.run_circuit.amplitudes", "circuit.run_circuit",
     lambda args, kwargs, steps, result: result.amplitudes.size),
    ("cli.main.bytes_written", "cli.main", _out_dir_bytes),
)
FIT_FAILED = "interference.fit_visibility.failed"


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, all per completed op."""
    metrics = []
    for module, names in LAYER_FUNCTIONS.items():
        for name in names:
            metrics.append((f"{module}.{name}.calls", "count/op", "lower"))
            metrics.append((f"{module}.{name}.self_s", "s/op", "lower"))
    metrics += [(name, "bytes/op" if name.endswith("bytes_written") else "count/op", "lower")
                for name, _, _ in COUNTERS]
    metrics.append((FIT_FAILED, "count/op", "lower"))
    metrics += [(f"{module}.errors", "count/op", "lower") for module in LAYER_FUNCTIONS]
    return metrics


def _as_int(value) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        return -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.fid, self.parent, self.op, self.steps = (array("i") for _ in range(4))
        self.start, self.end = array("d"), array("d")
        self.counters = {name: 0 for name, _, _ in COUNTERS}
        self.counters[FIT_FAILED] = 0
        self.counters.update({f"{module}.errors": 0 for module in LAYER_FUNCTIONS})
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def install(self) -> None:
        """Bind the wrappers; the first call builds them."""
        if not self._patches:
            self._patches = self._find_patches()
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _find_patches(self) -> list[tuple[object, str, object, object]]:
        wrappers = {}
        for module_name, names in LAYER_FUNCTIONS.items():
            module = importlib.import_module(f"qcoin.{module_name}")
            for name in names:
                original = getattr(module, name)
                wrappers[id(original)] = (original, self._wrap(f"{module_name}.{name}", original))
        patches = []
        for module_name, module in list(sys.modules.items()):
            if module_name != "qcoin" and not module_name.startswith("qcoin."):
                continue
            for attr, value in vars(module).items():
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    patches.append((module, attr, value, wrappers[id(value)][1]))
        return patches

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        params = list(inspect.signature(fn).parameters)
        steps_pos = params.index("steps") if "steps" in params else None
        counters = [(counter, value) for counter, target, value in COUNTERS if target == name]
        errors = f"{name.split('.')[0]}.errors"
        stack, fids, parents, ops, steps_arr = self._stack, self.fid, self.parent, self.op, self.steps
        starts, ends, totals = self.start, self.end, self.counters
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if steps_pos is None:
                steps = steps_arr[parent] if parent >= 0 else -1
            elif "steps" in kwargs:
                steps = _as_int(kwargs["steps"])
            else:
                steps = _as_int(args[steps_pos]) if len(args) > steps_pos else -1
            idx = len(starts)
            fids.append(fid)
            parents.append(parent)
            ops.append(tracer.op_id)
            steps_arr.append(steps)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    totals[errors] += 1
                if name == "interference.fit_visibility":
                    totals[FIT_FAILED] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            for counter, value in counters:
                totals[counter] += value(args, kwargs, steps, result)
            return result

        return wrapper

    def _arrays(self):
        fid = np.frombuffer(self.fid, dtype=np.intc).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.intc).astype(np.int64)
        steps = np.frombuffer(self.steps, dtype=np.intc).astype(np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return fid, steps, dur - covered

    def summary(self, ops: int) -> tuple[dict, list[tuple[str, int, int, float]]]:
        """Per-layer metrics per completed op, and (function, M, calls, self s)
        rows over the whole traced window."""
        fid, steps, self_time = self._arrays()
        count = len(self.names)
        calls = np.bincount(fid, minlength=count)
        busy = np.bincount(fid, weights=self_time, minlength=count)
        per_op = max(ops, 1)
        metrics = {}
        for i, name in enumerate(self.names):
            metrics[f"{name}.calls"] = float(calls[i]) / per_op
            metrics[f"{name}.self_s"] = float(busy[i]) / per_op
        metrics.update({name: value / per_op for name, value in self.counters.items()})
        by_steps = []
        if len(fid):
            keys, inverse = np.unique(np.stack([fid, steps]), axis=1, return_inverse=True)
            inverse = inverse.reshape(-1)
            key_calls = np.bincount(inverse)
            key_busy = np.bincount(inverse, weights=self_time)
            for k in range(keys.shape[1]):
                by_steps.append((self.names[keys[0, k]], int(keys[1, k]),
                                 int(key_calls[k]), float(key_busy[k])))
        return metrics, by_steps

    def write(self, path: Path) -> None:
        """Write every span to a compressed .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.fid, dtype=np.intc),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            op=np.frombuffer(self.op, dtype=np.intc),
            steps=np.frombuffer(self.steps, dtype=np.intc),
        )
