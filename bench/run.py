"""macroreal benchmark: one workload per call, its metrics as one JSON line.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run it from the repository root. It makes the workload's inputs from the
seed, times fresh interpreters importing the program (setup_s), runs the
workload in a fresh worker process for --seconds of whole rounds, checks
every output apart from the program, writes a run record under bench/runs/,
and prints {"correct", "attempted", "failed", "metrics"} as the last line.
With --trace 0 the metrics are end to end; with --trace 1 they are the
per-layer counts and self times of one traced round. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
DEADLINE_S = 170.0
CHECK_RESERVE_S = 15.0

SETUP_MODULES = {
    "sweep": ("macroreal.hilbert", "macroreal.instruments", "macroreal.scenario", "macroreal.conditions"),
    "mz_scan": ("macroreal.cli",),
    "overlap": ("macroreal.overlap",),
}
SETUP_SAMPLES = 5
PROBE = (
    "import importlib, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "for name in sys.argv[2:]:\n"
    "    importlib.import_module(name)\n"
    "sys.stdout.write('ready\\n')\n"
    "sys.stdout.flush()\n"
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def setup_times(workload: str, count: int, warm_up: bool) -> list[float]:
    """Seconds from spawning a fresh interpreter until it has imported the program.

    With warm_up, a first probe fills the file and bytecode caches and is
    dropped.
    """
    times = []
    for k in range(count + warm_up):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", PROBE, str(ROOT / "src"), *SETUP_MODULES[workload]],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=60)
        if line != b"ready\n" or proc.returncode != 0:
            raise BenchError(f"import probe failed: {err.decode(errors='replace')[-2000:]}")
        if k or not warm_up:
            times.append(elapsed)
    return times


def run_worker(workload: str, run_dir: Path, seconds: float, trace: int, timeout: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload,
        "--run-dir", str(run_dir),
        "--seconds", repr(seconds),
        "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.decode(errors='replace')[-4000:]}")
    return json.loads((run_dir / "worker.json").read_text())


def check(workload: str, run_dir: Path, arrays: dict, spec: dict, worker: dict) -> list[str]:
    if workload == "sweep":
        with np.load(run_dir / "outputs.npz") as data:
            outputs = {k: data[k] for k in data.files}
        return checks.check_sweep(arrays, spec, outputs)
    if workload == "mz_scan":
        csv_path = run_dir / "mz_scan_0.csv"
        summary_path = Path(f"{csv_path}.summary.json")
        return checks.check_mz_scan(
            spec,
            worker["extra"]["rounds"],
            csv_path.read_text() if csv_path.exists() else None,
            summary_path.read_text() if summary_path.exists() else None,
        )
    with np.load(run_dir / "outputs.npz") as data:
        values = data["values"]
    return checks.check_overlap(spec, values)


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    started = time.perf_counter()
    if not (ROOT / "src" / "macroreal" / "__init__.py").is_file():
        raise BenchError(f"no program source under {ROOT / 'src'}")
    tag = f"{workload}-seed{seed}-trace{trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    run_dir = RUNS / tag
    run_dir.mkdir(parents=True)
    arrays, spec = inputs.make_inputs(workload, seed)
    np.savez(run_dir / "arrays.npz", **arrays)
    (run_dir / "spec.json").write_text(json.dumps(spec))

    # half the import probes run before the worker and half after it, so a
    # slow spell of the host does not cover all of them
    setup = [] if trace else setup_times(workload, SETUP_SAMPLES // 2, True)
    timeout = DEADLINE_S - CHECK_RESERVE_S - (time.perf_counter() - started)
    worker = run_worker(workload, run_dir, seconds, trace, timeout)
    if not trace:
        setup += setup_times(workload, SETUP_SAMPLES - SETUP_SAMPLES // 2, False)
    failures = check(workload, run_dir, arrays, spec, worker)

    round_s = worker["round_s"]
    rounds = len(round_s) + (1 if trace else 0)
    n_items = spec["n_items"]
    per_round = statistics.mean(round_s)
    if trace:
        traced = worker["traced_round_s"]
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in worker["trace_metrics"].items()}
        metrics["trace.overhead_s"] = {"value": traced - per_round, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "items_per_s": {"value": n_items / per_round, "unit": "1/s"},
            "peak_rss_mb": {"value": worker["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    result = {
        "correct": not failures,
        "attempted": rounds * n_items,
        "failed": 0,
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": worker["machine"],
        "result": result,
        "rounds": len(round_s),
        "items_per_round": n_items,
        "round_s": round_s,
        "setup_samples_s": setup,
        "check_failures": failures,
        "wall_s": time.perf_counter() - started,
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1))
    for name in os.listdir(run_dir):
        if name not in ("record.json", "spec.json", "spans.npz"):
            os.unlink(run_dir / name)
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="macroreal benchmark")
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, record = bench(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for failure in record["check_failures"]:
        print(f"bench: check failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
