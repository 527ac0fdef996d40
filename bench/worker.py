"""Program side of one benchmark run: a fresh process that calls macroreal.

Usage (normally started by run.py):

    python3 bench/worker.py --workload sweep --run-dir DIR --seconds 30 --trace 0

It imports the program from ``src/`` next to this directory, loads the inputs
run.py wrote into DIR, runs whole rounds of the workload until ``--seconds``
have passed, and writes the raw outputs and timings back into DIR. With
``--trace 1`` one traced round follows the untraced ones. It checks nothing:
run.py does every check, apart from the program, after this process ended.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import machine
from checks import SUBSETS, SWEEP_COLUMNS
from inputs import sweep_scenario
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
MIN_ROUNDS = {"sweep": 1, "mz_scan": 2, "overlap": 1}



class Program:
    """The macroreal modules, looked up by attribute at every call."""

    def __init__(self):
        for name in ("hilbert", "instruments", "scenario", "conditions", "mach_zehnder", "overlap", "cli"):
            setattr(self, name, importlib.import_module(f"macroreal.{name}"))


# ---------------------------------------------------------------------------
# sweep


def _sweep_build(prog: Program, scenario: tuple):
    rho, evo, pairs = scenario
    init = prog.hilbert.DensityState(rho)
    slots = tuple(
        prog.scenario.Slot(float(k), prog.instruments.projective_family(pair, (1, -1)))
        for k, pair in enumerate(pairs)
    )
    return prog.scenario.Scenario(init, slots, evo)


class Sweep:
    def __init__(self, prog, arrays, spec, run_dir):
        self.prog = prog
        self.arrays = arrays
        self.n = spec["n_items"]
        self.scenarios = [sweep_scenario(arrays, i) for i in range(self.n)]
        self.units = self.n
        self.rows = []

    def round(self, tracer) -> float:
        prog, clock = self.prog, time.perf_counter
        elapsed = 0.0
        rows = np.empty((self.n, len(SWEEP_COLUMNS)))
        for i in range(self.n):
            if tracer is not None:
                tracer.request = i
            t0 = clock()
            sc = _sweep_build(prog, self.scenarios[i])
            bundle = prog.conditions.mr012_check(sc)
            lgi = prog.conditions.lgi_012(sc)
            nic = prog.conditions.nic_012(sc)
            elapsed += clock() - t0
            members = bundle.members
            rows[i] = (
                members["NSIT_(1)2"].residual,
                members["NSIT_0(1)2"].residual,
                members["NSIT_(0)12"].residual,
                members["AoT"].residual,
                bundle.mismatch_tv,
                bundle.mismatch_sup,
                lgi.residual,
                lgi.context["K"],
                lgi.context["C01"],
                lgi.context["C12"],
                lgi.context["C02"],
                nic.residual,
                nic.context["C02"],
                nic.context["C02_with_middle"],
            )
        self.rows.append(rows)
        return elapsed

    def outputs(self) -> dict:
        """Per-round condition values and the sampled scenarios' seven tables."""
        sample = self.arrays["sample"]
        tables = np.full((sample.size, len(SUBSETS), 8), np.nan)
        for s, index in enumerate(sample):
            sc = _sweep_build(self.prog, self.scenarios[index])
            for k, subset in enumerate(SUBSETS):
                values = self.prog.scenario.joint_distribution(sc, subset).values.ravel()
                tables[s, k, : values.size] = values
        return {"rows": np.stack(self.rows), "tables": tables}


# ---------------------------------------------------------------------------
# mz_scan


class MZScan:
    def __init__(self, prog, arrays, spec, run_dir):
        self.prog = prog
        self.argv = spec["argv"]
        self.run_dir = Path(run_dir)
        self.units = 1
        self.rounds = []

    def round(self, tracer) -> float:
        k = len(self.rounds)
        out = self.run_dir / f"mz_scan_{k}.csv"
        if tracer is not None:
            tracer.request = 0  # the one CLI call of the round
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            try:
                code = self.prog.cli.main(self.argv + ["--out", str(out)])
            except SystemExit as exc:
                code = exc.code
            elapsed = time.perf_counter() - t0
        body = out.read_bytes() if out.exists() else b""
        self.rounds.append({"exit_code": code, "sha256": hashlib.sha256(body).hexdigest(), "bytes": len(body)})
        if k > 0:
            # round 0's CSV and summary are kept for the checks; later rounds
            # are compared with it by hash
            out.unlink(missing_ok=True)
            Path(f"{out}.summary.json").unlink(missing_ok=True)
        return elapsed

    def outputs(self) -> dict:
        return {"rounds": self.rounds}


# ---------------------------------------------------------------------------
# overlap


def overlap_call(prog: Program, item: dict) -> float:
    ov = prog.overlap
    kind = item["kind"]
    gamma = complex(*item["gamma"]) if "gamma" in item else None
    if kind == "fock":
        return ov.fock_overlap(item["rule"], gamma).value
    if kind == "ring":
        return ov.ring_overlap(item["d"], gamma).value
    if kind == "cell":
        return ov.cell_overlap(item["side"], gamma).value
    if kind == "delta":
        return ov.coherent_delta_overlap(gamma).value
    if kind == "quadrature":
        return ov.quadrature_overlap_numeric(
            item["case"], item["delta"], item["kappa"], item["sigma"], item["t"]
        ).value
    if kind == "coherent_x":
        return ov.coherent_x_overlap(item["delta_sq"], gamma).value
    raise ValueError(f"unknown overlap item kind {kind!r}")


class Overlap:
    def __init__(self, prog, arrays, spec, run_dir):
        self.prog = prog
        self.items = spec["items"]
        self.units = len(self.items)
        self.values = []

    def round(self, tracer) -> float:
        elapsed = 0.0
        values = np.empty(len(self.items))
        for i, item in enumerate(self.items):
            if tracer is not None:
                tracer.request = i
            t0 = time.perf_counter()
            values[i] = overlap_call(self.prog, item)
            elapsed += time.perf_counter() - t0
        self.values.append(values)
        return elapsed

    def outputs(self) -> dict:
        return {"values": np.stack(self.values)}


RUNNERS = {"sweep": Sweep, "mz_scan": MZScan, "overlap": Overlap}


def run(workload: str, run_dir: Path, seconds: float, trace: bool) -> dict:
    """Whole untraced rounds for `seconds`, then one traced round if asked."""
    prog = Program()
    spec = json.loads((run_dir / "spec.json").read_text())
    with np.load(run_dir / "arrays.npz") as data:
        arrays = {k: data[k] for k in data.files}
    runner = RUNNERS[workload](prog, arrays, spec, run_dir)

    # Whole rounds; stop once another round would overshoot `seconds` by more
    # than stopping now falls short of it.
    round_s = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        round_s.append(runner.round(None))
        now = time.perf_counter()
        if len(round_s) >= MIN_ROUNDS[workload] and now - start + 0.5 * (now - t0) >= seconds:
            break
    result = {"round_s": round_s}
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            result["traced_round_s"] = runner.round(tracer)
        finally:
            tracer.uninstall()
        result["trace_metrics"] = tracer.metrics()
        tracer.dump(run_dir / "spans.npz")
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["machine"] = machine.describe()
    result["outputs"] = runner.outputs()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(RUNNERS), required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    run_dir = Path(args.run_dir)
    result = run(args.workload, run_dir, args.seconds, bool(args.trace))
    outputs = result.pop("outputs")
    np.savez(run_dir / "outputs.npz", **{k: v for k, v in outputs.items() if isinstance(v, np.ndarray)})
    result["extra"] = {k: v for k, v in outputs.items() if not isinstance(v, np.ndarray)}
    (run_dir / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
