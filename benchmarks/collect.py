"""Run the benchmark over several seeds and save every result with the
machine it ran on; one line per run names every metric with its unit.

    python3 benchmarks/collect.py --seeds 1-10 --out-dir DIR
    python3 benchmarks/collect.py --seeds 1-10 --side parent=PATH --side change=. --out-dir DIR

Each ``--side NAME=ROOT`` is a checkout (with ``src/``) that this copy of the
benchmark measures, so both sides run identical benchmark code and
settings.  With several sides the order alternates seed by seed.  Each side
is written to ``DIR/NAME.json``; compare two of them with compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import FAILED_OPS, PINNED_ENV, SETUP_SAMPLES, WORKLOADS  # noqa: E402


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def _git_sha(root: Path) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def machine_info() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "pinned_env": PINNED_ENV}


def run_once(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {root}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    failed = [json.loads(line[len(FAILED_OPS):]) for line in lines if line.startswith(FAILED_OPS)]
    return {"workload": workload, "seed": seed, "trace": trace, "wall_s": wall,
            "failed_indices": failed[0], "report": lines[:-1], "result": json.loads(lines[-1])}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--side", action="append", metavar="NAME=ROOT")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    settings = {"seconds": seconds, "setup_samples": SETUP_SAMPLES}
    sides = [tuple(s.split("=", 1)) for s in (args.side or ["change=."])]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, root in sides:
        root = Path(root).resolve()
        path = out_dir / f"{name}.json"
        if path.is_file():  # add to earlier runs of this side, e.g. traced after untraced
            files[name] = json.loads(path.read_text(encoding="utf-8"))
            if files[name]["settings"] != settings:
                print(f"{path} was collected with {files[name]['settings']}, not {settings}",
                      file=sys.stderr)
                return 2
            continue
        files[name] = {"side": name, "git_sha": _git_sha(root), "machine": machine_info(),
                       "settings": settings, "runs": []}
    for turn, seed in enumerate(_seeds(args.seeds)):
        order = sides if turn % 2 == 0 else sides[::-1]
        for workload in WORKLOADS:
            for name, root in order:
                run = run_once(Path(root).resolve(), workload, seed, seconds, args.trace)
                files[name]["runs"].append(run)
                metrics = " ".join(f"{k}={v['value']:.6g} {v['unit']}"
                                   for k, v in run["result"]["metrics"].items())
                print(f"{name} {workload} seed={seed}: {metrics}", flush=True)
                (out_dir / f"{name}.json").write_text(json.dumps(files[name], indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
