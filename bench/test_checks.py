"""The benchmark's own tests: every output check passes on the program's
real output and fails once that output is perturbed.

    python3 -m pytest bench/test_checks.py -q

Each test runs the program on a small input made by the same generators as
the workloads, so the checks are exercised on genuine output first.
"""

import copy
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import worker  # noqa: E402


@pytest.fixture(scope="module")
def program():
    return worker.Program()


def _has(failures, text):
    return any(text in f for f in failures)


# ---------------------------------------------------------------------------
# sweep


@pytest.fixture(scope="module")
def sweep_run(program):
    arrays, spec = inputs.sweep_inputs(np.random.default_rng(5), n_per_dim=10, n_sample=6)
    runner = worker.Sweep(program, arrays, spec, None)
    runner.round(None)
    return arrays, spec, runner.outputs()


def _sweep_failures(sweep_run, edit):
    arrays, spec, outputs = sweep_run
    outputs = {k: v.copy() for k, v in outputs.items()}
    col = {name: i for i, name in enumerate(checks.SWEEP_COLUMNS)}
    edit(arrays, outputs, col)
    return checks.check_sweep(arrays, spec, outputs)


def test_sweep_passes_on_program_output(sweep_run):
    assert _sweep_failures(sweep_run, lambda a, o, c: None) == []


def _generic_sampled(arrays):
    classical = np.concatenate([arrays["classical2"], arrays["classical3"]])
    return int(next(i for i in arrays["sample"] if not classical[i]))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda a, o, c: o["tables"].__setitem__((0, 6, 3), o["tables"][0, 6, 3] + 1e-9), "off the brute-force sum"),
        (lambda a, o, c: o["rows"].__setitem__((0, _generic_sampled(a), c["K"]), o["rows"][0, _generic_sampled(a), c["K"]] + 1e-9), "K off the brute-force value"),
        (lambda a, o, c: o["rows"].__setitem__((0, 5, c["NSIT_0(1)2"]), 1e-9), "classical scenario violates"),
        (lambda a, o, c: o["rows"].__setitem__((0, 1, c["AoT"]), 1e-11), "arrow-of-time residual"),
        (lambda a, o, c: o["rows"].__setitem__((0, 1, c["mismatch_tv"]), 0.0), "twice the marginal mismatch"),
        (lambda a, o, c: o["rows"].__setitem__((0, 2, c["K"]), 1.5 + 1e-8), "Lueders bound"),
        (lambda a, o, c: o["rows"].__setitem__((0, 3, c["nic_residual"]), 4.0 * o["rows"][0, 3, c["NSIT_0(1)2"]] + 1e-9), "four times the sandwich"),
    ],
)
def test_sweep_check_catches(sweep_run, edit, message):
    assert _has(_sweep_failures(sweep_run, edit), message)


# ---------------------------------------------------------------------------
# mz_scan


@pytest.fixture(scope="module")
def mz_run(program, tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("mz")
    spec = inputs.mz_scan_inputs(np.random.default_rng(9), seed=9)
    # a 2 x 2 x 2 lattice keeps the test quick
    argv = list(spec["argv"])
    for flag in ("--r1", "--r2", "--phi"):
        i = argv.index(flag) + 1
        argv[i] = ",".join(argv[i].split(",")[:2])
    argv[argv.index("--random-points") + 1] = "5"
    n_points = 2 * 2 * 2 * 9 + 5
    spec = {"argv": argv, "n_items": n_points, "sample_points": [0, 7, n_points - 1]}
    runner = worker.MZScan(program, {}, spec, run_dir)
    runner.round(None)
    runner.round(None)
    csv_text = (run_dir / "mz_scan_0.csv").read_text()
    summary = (run_dir / "mz_scan_0.csv.summary.json").read_text()
    return spec, runner.outputs()["rounds"], csv_text, summary


def _edit_csv(text, row, column, value):
    lines = text.splitlines(keepends=True)
    cells = lines[row + 1].rstrip("\n").split(",")
    cells[column] = value(cells[column])
    lines[row + 1] = ",".join(cells) + "\n"
    return "".join(lines)


def test_mz_scan_passes_on_program_output(mz_run):
    assert checks.check_mz_scan(*mz_run) == []


def _shift(delta):
    return lambda cell: format(float(cell) + delta, ".12g")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda s, r, c, j: (s, [dict(r[0], exit_code=1)] + r[1:], c, j), "exit codes"),
        (lambda s, r, c, j: (s, [r[0], dict(r[1], sha256="0" * 64)], c, j), "distinct CSV bodies"),
        (lambda s, r, c, j: (s, r, c.rsplit("\n", 2)[0] + "\n", j), "rows for"),
        (lambda s, r, c, j: (s, r, _edit_csv(c, 9, 7, _shift(1e-9)), j), "|analytic - numeric|"),
        (lambda s, r, c, j: (s, r, _edit_csv(_edit_csv(c, 3, 7, _shift(1e-6)), 3, 8, _shift(1e-6)), j), "off the 2x2 algebra"),
        (lambda s, r, c, j: (s, r, c, j.replace('"convention": "crossed-p0"', '"convention": "straight-p0"')), "convention"),
        (lambda s, r, c, j: (s, r, c, j.replace('"ok": true', '"ok": false')), "mismatches"),
    ],
)
def test_mz_scan_check_catches(mz_run, edit, message):
    spec, rounds, csv_text, summary = mz_run
    assert _has(checks.check_mz_scan(*edit(spec, copy.deepcopy(rounds), csv_text, summary)), message)


# ---------------------------------------------------------------------------
# overlap


@pytest.fixture(scope="module")
def overlap_run(program):
    items = [
        {"kind": "fock", "rule": rule, "gamma": [1.2, 1.6]} for rule in ("m", "2m", "2m^2")
    ] + [
        {"kind": "ring", "d": 6.0, "where": "border", "gamma": [0.0, 6.0]},
        {"kind": "ring", "d": 6.0, "where": "mid", "gamma": [-9.0, 0.0]},
        {"kind": "cell", "side": 2.0, "gamma": [0.6, -0.8]},
        {"kind": "delta", "gamma": [0.0, 1.0]},
        {"kind": "quadrature", "case": "PX", "delta": 1.0, "kappa": 1.0, "sigma": 1.0, "t": 2.5},
        {"kind": "coherent_x", "delta_sq": 0.2, "gamma": [0.8, 0.6]},
    ]
    spec = {"items": items, "n_items": len(items), "fock_oracle_sample": [0, 2]}
    runner = worker.Overlap(program, {}, spec, None)
    runner.round(None)
    return spec, runner.outputs()["values"]


def test_overlap_passes_on_program_output(overlap_run):
    assert checks.check_overlap(*overlap_run) == []


def _bump(index, delta):
    def edit(values):
        values[0, index] += delta
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_bump(6, 3e-3), "delta readout"),
        (lambda v: v.__setitem__((0, 5), checks.IDEAL_DELTA - 3e-3), "below the delta limit"),
        (_bump(8, 1e-5), "sharp position"),
        (_bump(7, 2e-3), "off the moments"),
        (_bump(3, -1e-3), "off the exact annuli"),
        (lambda v: v.__setitem__((0, 4), v[0, 3] - 1e-6), "mid-ring not above"),
        (lambda v: v.__setitem__((0, 4), 0.9985), "0.999 plateau"),
        (lambda v: v.__setitem__((0, 1), v[0, 0] - 1e-9), "below its refinement"),
        (_bump(2, 1e-4), "off the dephased Husimi"),
        (lambda v: v.__setitem__((0, 0), 1.0 + 1e-6), "outside [0, 1]"),
    ],
)
def test_overlap_check_catches(overlap_run, edit, message):
    spec, values = overlap_run
    values = values.copy()
    edit(values)
    assert _has(checks.check_overlap(spec, values), message)


def test_oracles_against_closed_forms():
    # an all-ones kernel dephases nothing, so the overlap is 1
    assert abs(checks.dephased_husimi_overlap(1.5 + 0.5j, np.ones((30, 30))) - 1.0) < 1e-10
    assert abs(checks.x_readout_overlap(1.0) - math.sqrt(2.0 * math.sqrt(1.5) / 2.5)) < 1e-15
    # PP is identically 1: a momentum readout never disturbs a later one
    assert checks.quadrature_moments("PP", 1.0, 2.0, 1.5, 3.0) == 1.0
