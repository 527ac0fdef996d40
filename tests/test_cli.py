import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import macroreal
from macroreal import cli, hilbert
from macroreal.cli import MZ_FIELDS, _table, main, parse_complex_list, parse_range, write_rows
from macroreal.conditions import mr012_check, nic_012
from macroreal.hilbert import DensityState
from macroreal.instruments import _UNDERFLOW_EXPONENT, projective_family
from macroreal.mach_zehnder import CONDITION_NAMES, LatticeReport, MZParams, verify_lattice
from macroreal.scenario import Scenario, Slot, load_scenario, save_scenario


def data_file(name):
    return str(resources.files("macroreal") / "data" / name)


def test_parse_range_forms():
    assert parse_range("0:1:0.5") == [0.0, 0.5, 1.0]
    assert parse_range("1,2,3") == [1.0, 2.0, 3.0]
    assert parse_range("2.5") == [2.5]
    assert parse_range("1,,2,") == [1.0, 2.0]
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_range("0:bad")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_range("1:0:0.5")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_range(",")
    for spec in ("nan", "1,inf", "0:inf:1"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_range(spec)


def test_parse_complex_list():
    assert parse_complex_list("0.3i") == [0.3j]
    assert parse_complex_list("0.2,0.1+0.1i") == [0.2 + 0j, 0.1 + 0.1j]
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_complex_list("xyz")


@pytest.mark.parametrize(
    "argv",
    [
        ["mz-scan", "--r1", ",", "--r2", "0.5", "--phi", "0", "--state", "mix", "--q", "0.5"],
        ["overlap", "fock", "--g", "m", "--gamma", ","],
        ["overlap", "ring", "--d", ","],
        ["overlap", "quadrature", "--case", "XX", "--t", ","],
    ],
)
def test_empty_list_value_exits_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot parse range ','" in captured.err


# --tol belongs to mz-scan and nsit-check, --seed to mz-scan alone
@pytest.mark.parametrize(
    "argv",
    [
        ["mz-scan", "--r1", "0:bad"],
        ["overlap", "ring", "--d", "6", "--tol", "1e-3"],
        ["overlap", "quadrature", "--case", "XX", "--tol", "1e-3"],
        ["overlap", "fock", "--g", "m", "--seed", "1"],
        ["overlap", "fock", "--g", "m", "--gamma", "inf"],
        ["overlap", "coherent", "--seed", "1"],
        ["nsit-check", data_file("mz_phi0.json"), "--seed", "1"],
        # thresholds are finite, --tol also >= 0; coherences are finite
        ["mz-scan", "--tol", "nan"],
        ["mz-scan", "--tol", "-1"],
        ["mz-scan", "--guard", "nan"],
        ["mz-scan", "--c", "nan"],
        ["mz-scan", "--c", "nanj"],
        ["mz-scan", "--c", "1e400"],
        ["nsit-check", data_file("mz_phi0.json"), "--tol", "inf"],
    ],
)
def test_usage_error_exits_two(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_nsit_check_flags_bundled_violation(capsys):
    code = main(["nsit-check", data_file("mz_phi0.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "NSIT_(1)2" in out and "VIOLATED" in out


def test_nsit_check_bundled_clean_scenario(capsys):
    code = main(["nsit-check", data_file("mz_phi_half_pi.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "MR_012" in out
    assert "VIOLATED" not in out


def test_nsit_check_two_slot_notice(tmp_path, capsys):
    fam = projective_family(
        [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)],
        [1, -1],
    )
    sc = Scenario(
        DensityState(np.eye(2) / 2.0),
        (Slot(0.0, fam), Slot(1.0, fam)),
        (np.eye(2, dtype=complex),),
    )
    path = tmp_path / "two_slot.json"
    save_scenario(sc, path)
    code = main(["nsit-check", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "bundle skipped" in captured.err
    assert "NSIT_(0)1" in captured.out


def test_nsit_check_runs_nic_without_a_dichotomic_middle_slot(tmp_path, capsys):
    # qutrit: +-1 readouts at slots 0 and 2, a three-outcome readout at slot 1
    plus = np.diag([1.0, 0.0, 0.0]).astype(complex)
    outer = projective_family([plus, np.eye(3) - plus], [1, -1])
    middle = projective_family([np.diag(np.eye(3)[k]).astype(complex) for k in range(3)], [-1, 0, 1])
    dft = np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3)
    sc = Scenario(
        DensityState(np.eye(3, dtype=complex) / 3.0),
        (Slot(0.0, outer), Slot(1.0, middle), Slot(2.0, outer)),
        (dft, dft),
    )
    path = tmp_path / "qutrit.json"
    save_scenario(sc, path)
    code = main(["nsit-check", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    nic = [line for line in captured.out.splitlines() if line.startswith("NIC_0(1)2")]
    assert len(nic) == 1
    assert f"residual={nic_012(sc).residual:.6e}" in nic[0] and "VIOLATED" in nic[0]
    assert "LGI_012" not in captured.out
    assert "LGI_012 skipped" in captured.err and "NIC_0(1)2 skipped" not in captured.err


def _nan_at(*keys):
    """The packaged mz_phi0 scenario with NaN at data[k0][k1]...; none gives a loadable scenario."""

    def edit(data):
        for k in keys[:-1]:
            data = data[k]
        data[keys[-1]] = math.nan

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(None, id="schema"),
        pytest.param(_nan_at("slots", 1, "instrument", "ops", 0, "re", 0, 0), id="nan_op"),
        pytest.param(_nan_at("slots", 1, "instrument", "weights", 0), id="nan_weight"),
        pytest.param(_nan_at("slots", 1, "time"), id="nan_time"),
    ],
)
def test_nsit_check_rejects_bad_schema(edit, tmp_path, capsys):
    path = tmp_path / "bad.json"
    if edit is None:
        path.write_text('{"initial": "nope"}')
    else:
        data = json.loads(Path(data_file("mz_phi0.json")).read_text())
        edit(data)
        path.write_text(json.dumps(data))
    code = main(["nsit-check", str(path)])
    assert code == 2
    assert "cannot load" in capsys.readouterr().err


def test_nsit_check_env_tolerance(monkeypatch, capsys):
    monkeypatch.setenv("MACROREAL_DEFAULT_TOL", "1.5")
    code = main(["nsit-check", data_file("mz_phi0.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "threshold=1.5e+00" in out


def test_non_numeric_env_tolerance_exits_two(monkeypatch, capsys):
    monkeypatch.setenv("MACROREAL_DEFAULT_TOL", "abc")
    code = main(["nsit-check", data_file("mz_phi0.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "nsit-check: MACROREAL_DEFAULT_TOL='abc' is not a number\n"
    for raw in ("nan", "-1", "inf"):
        monkeypatch.setenv("MACROREAL_DEFAULT_TOL", raw)
        code = main(["nsit-check", data_file("mz_phi0.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"nsit-check: MACROREAL_DEFAULT_TOL={raw!r} is not a finite number >= 0\n"
        )


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_nsit_check_out_bodies(tmp_path, fmt):
    out = tmp_path / f"reports.{fmt}"
    code = main(["nsit-check", data_file("mz_phi0.json"), "--format", fmt, "--out", str(out)])
    assert code == 1
    names = [
        "NSIT_(0)1", "AoT_0(1)", "NSIT_(0)2", "AoT_0(2)", "NSIT_(1)2",
        "AoT_1(2)", "NSIT_0(1)2", "NSIT_(0)12", "LGI_012", "NIC_0(1)2",
    ]
    violated = {"NSIT_(1)2": 0.2, "NSIT_0(1)2": 0.35, "NIC_0(1)2": 1.0}
    if fmt == "csv":
        lines = out.read_text().splitlines()
        assert lines[0] == "name,residual,threshold,holds"
        rows = [
            {"name": name, "residual": float(residual), "holds": {"true": True, "false": False}[holds]}
            for name, residual, _, holds in (line.split(",") for line in lines[1:])
        ]
    else:
        body = json.loads(out.read_text())
        assert sorted(body) == ["mr012", "reports"]
        rows = body["reports"]
        assert body["mr012"]["holds"] is False
        assert abs(body["mr012"]["mismatch_tv"] - 0.5) <= 1e-12
    assert [row["name"] for row in rows] == names
    # the sandwich and leading rows are the bundle's members, not a second computation
    members = mr012_check(load_scenario(data_file("mz_phi0.json"))).members
    for name in ("NSIT_0(1)2", "NSIT_(0)12"):
        (row,) = [row for row in rows if row["name"] == name]
        report = members[name].to_dict()
        if fmt == "csv":
            residual = float(f"{report['residual']:.12g}")
            report = {"name": name, "residual": residual, "holds": report["holds"]}
        assert row == report
    assert {row["name"] for row in rows if not row["holds"]} == set(violated)
    for row in rows:
        if row["name"] in violated:
            assert abs(row["residual"] - violated[row["name"]]) <= 1e-12


def test_mz_scan_small_lattice(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = main(
        [
            "mz-scan",
            "--r1", "0:1:0.5",
            "--r2", "0:1:0.5",
            "--phi", "0:3:1.5",
            "--state", "mix",
            "--q", "0,0.5",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("r1,r2,phi,q")
    # 3 r1 x 3 r2 x 3 phi x 2 states x 7 conditions rows
    assert len(lines) == 1 + 3 * 3 * 3 * 2 * 7
    summary = json.loads((tmp_path / "scan.csv.summary.json").read_text())
    assert summary["ok"] is True
    assert summary["n_mismatches"] == 0
    assert "0 mismatches" in capsys.readouterr().out


def test_mz_scan_sup_state_flags_leading_condition(tmp_path):
    out = tmp_path / "sup.csv"
    code = main(
        [
            "mz-scan",
            "--r1", "0.5",
            "--r2", "0.25",
            "--phi", "0:3:1.5",
            "--state", "sup",
            "--q", "0.5",
            "--c", "0.3i",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = [line for line in out.read_text().splitlines() if "NSIT_(0)12" in line]
    assert rows
    assert all(",false,false," in row for row in rows)


def test_mz_scan_random_points_deterministic(tmp_path):
    args = [
        "mz-scan",
        "--r1", "0.3",
        "--r2", "0.6",
        "--phi", "1.0",
        "--state", "mix",
        "--q", "0.4",
        "--random-points", "5",
        "--seed", "7",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 1 + (1 + 5) * 7


def run_scan(tmp_path, argv):
    out = tmp_path / "scan.csv"
    code = main(argv + ["--out", str(out)])
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    summary = json.loads((tmp_path / "scan.csv.summary.json").read_text())
    return code, rows, summary


def test_mz_scan_guard_band_rows_are_not_compared(tmp_path):
    code, rows, summary = run_scan(
        tmp_path,
        [
            "mz-scan",
            "--r1", "0:1:0.25",
            "--phi", "0:6.2832:0.7854",
            "--guard", "0.05",
            "--tol", "1e-3",
        ],
    )
    assert code == 0
    in_band = [row for row in rows if 1e-3 < float(row["analytic_residual"]) < 0.05]
    assert len(in_band) == 42
    assert all(row["compared"] == "false" and row["agree"] == "" for row in in_band)
    assert sum(row["compared"] == "true" for row in rows) == len(rows) - 42
    assert summary["n_skipped_guard"] == 42
    assert summary["n_comparisons"] == len(rows) - 42


# At --tol 0.2 --guard 0.3 four disagreeing rows sit inside the guard band
# (NSIT_(1)2 and MR_012 at r1 = 0.3, analytic 0.261 and 0.279, numeric 0.170
# and 0.182) and must not count as mismatches.
@pytest.mark.parametrize(
    "band, n_mismatches, n_skipped_disagreeing",
    [([], 1, 0), (["--tol", "0.2", "--guard", "0.3"], 2, 4)],
)
def test_mz_scan_mismatches_are_the_disagreeing_compared_rows(
    tmp_path, band, n_mismatches, n_skipped_disagreeing
):
    code, rows, summary = run_scan(
        tmp_path,
        [
            "mz-scan",
            "--convention", "straight-p1",
            "--r1", "0.3,0.6",
            "--phi", "0.9",
            "--state", "sup",
            "--q", "0.5",
            "--c", "0.3+0.2i",
        ]
        + band,
    )
    assert code == 1
    differ = [row for row in rows if row["analytic_holds"] != row["numeric_holds"]]
    disagree = [row for row in differ if row["compared"] == "true"]
    assert len(disagree) == summary["n_mismatches"] == n_mismatches
    assert len(differ) - len(disagree) == n_skipped_disagreeing
    assert all(row["agree"] == "false" for row in disagree)

    def cells(m):
        p = m["params"]
        values = [p["r1"], p["r2"], p["phi"], p["q"], *p["c"]]
        values += [m["analytic"], m["numeric"]]
        return [format(v, ".12g") for v in values] + [m["condition"]]

    fields = ["r1", "r2", "phi", "q", "c_re", "c_im"]
    fields += ["analytic_residual", "numeric_residual", "condition"]
    assert [cells(m) for m in summary["mismatches"]] == [
        [row[name] for name in fields] for row in disagree
    ]


def test_mz_scan_cells_are_the_report_values(tmp_path, monkeypatch):
    original, reports = cli.verify_lattice, []

    def verify_lattice(*args, **kwargs):
        reports.append(original(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "verify_lattice", verify_lattice)
    argv = [
        "mz-scan",
        "--r1", "0:1:0.5",
        "--phi", "0:6.2832:1.5708",
        "--q", "0.3,0.5",
        "--c", "0,0.3i,0.2+0.35i",
        "--guard", "0.05",
        "--tol", "1e-3",
        "--random-points", "4",
        "--seed", "3",
    ]
    csv_path, json_path = tmp_path / "scan.csv", tmp_path / "scan.json"
    assert main(argv + ["--out", str(csv_path)]) == 0
    assert main(argv + ["--format", "json", "--out", str(json_path)]) == 0
    report = reports[0]
    with open(csv_path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    records = json.loads(json_path.read_text())
    assert header == MZ_FIELDS
    assert len(rows) == len(records) == report.n_points * len(CONDITION_NAMES)
    compared = report.compared.ravel()
    assert compared.any() and not compared.all()
    assert {p.c is None for p in report.points} == {True, False}
    assert [p.c is not None for p in report.points] == report.has_c.tolist()
    # a coherence of 0 writes 0,0 and a mixture two empty cells
    assert {tuple(row[4:6]) for row in rows} >= {("0", "0"), ("", "")}
    assert {(r["c_re"], r["c_im"]) for r in records} >= {(0.0, 0.0), (None, None)}

    def expected(i, k):
        p = report.points[i]
        c = (None, None) if p.c is None else (p.c.real, p.c.imag)
        row = [p.r1, p.r2, p.phi, p.q, *c, CONDITION_NAMES[k]]
        row += [float(report.analytic[i, k]), float(report.numeric[i, k])]
        row += [bool(report.analytic_holds[i, k]), bool(report.numeric_holds[i, k])]
        row += [bool(report.compared[i, k])]
        row += [bool(report.agree[i, k]) if report.compared[i, k] else None]
        return row

    def cell(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        return v if isinstance(v, str) else format(v, ".12g")

    for j, (row, record) in enumerate(zip(rows, records)):
        i, k = divmod(j, len(CONDITION_NAMES))
        want = expected(i, k)
        assert row == [cell(v) for v in want]
        assert [record[name] for name in MZ_FIELDS] == want
        if report.points[i].c is None:
            assert row[4] == row[5] == ""
        assert all(row[m] in ("true", "false") for m in (9, 10, 11))
        assert (row[12] == "") == (row[11] == "false")

    # a lattice without an admissible state is a usage error, as before
    assert main(["mz-scan", "--state", "sup", "--c", "0.9", "--out", str(csv_path)]) == 2


# '%.12g' % x is what _format_cell writes for a float, so the mz-scan row
# template keeps the cell contract
@pytest.mark.parametrize(
    "x",
    [
        math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1 + 0.2,
        np.float64(2.0 / 3.0),
        0.9999999999996,  # the 12th digit rounds up through every 9
        1.23456789012500001,
    ],
)
def test_percent_g_is_the_float_cell(x):
    assert "%.12g" % float(x) == format(float(x), ".12g") == cli._format_cell(x)


def _scalar_random_params(rng):
    # mz-scan's random points as they were drawn before: one uniform call a value
    r1, r2 = rng.uniform(0.0, 1.0, size=2)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    q = rng.uniform(0.0, 1.0)
    if rng.uniform() < 0.5:
        return MZParams(float(r1), float(r2), float(phi), float(q), None)
    radius = rng.uniform(0.0, math.sqrt(q * (1.0 - q)))
    angle = rng.uniform(0.0, 2.0 * math.pi)
    c = radius * complex(math.cos(angle), math.sin(angle))
    return MZParams(float(r1), float(r2), float(phi), float(q), c)


@pytest.mark.parametrize("seed", range(10))
def test_random_points_are_the_scalar_draws(seed):
    rng = np.random.default_rng(seed)
    expected = [_scalar_random_params(rng) for _ in range(300)]
    points = cli._random_points(np.random.default_rng(seed), 300)
    assert points == expected
    assert {p.c is None for p in points} == {True, False}


def _mz_csv(report):
    return "".join(cli._mz_csv(report, MZ_FIELDS))


def _records_csv(report):
    """The CSV that _table writes from the report's records, cell by cell."""
    return "".join(_table(cli._mz_records(report))(MZ_FIELDS, "csv"))


def test_mz_csv_spells_non_finite_residuals_as_the_cell_contract():
    states = [{"q": 0.5, "c": None}, {"q": 0.5, "c": 0.3j}]
    base = verify_lattice([0.3], [0.9, 2.0], states, convention="crossed-p0")
    analytic, numeric = base.analytic.copy(), base.numeric.copy()
    analytic[0, 1], numeric[2, 3], numeric[3, 0] = math.nan, math.inf, -math.inf
    report = LatticeReport(
        base.convention, {}, base.settings, base.has_c, analytic, numeric,
        base.threshold, base.guard, 0.0,
    )
    body = _mz_csv(report)
    assert body == _records_csv(report)
    assert "nan," in body and ",inf," in body and "-inf," in body
    assert _mz_csv(base) == _records_csv(base)


def test_mz_bodies_of_an_empty_report():
    report = verify_lattice([], convention="crossed-p0")
    assert _mz_csv(report) == ",".join(MZ_FIELDS) + "\n"
    assert "".join(_table(cli._mz_records(report))(MZ_FIELDS, "json")) == "[]\n"


def test_mz_csv_spans_several_blocks(monkeypatch):
    monkeypatch.setattr(cli, "MZ_BLOCK", 3)
    states = [{"q": 0.5, "c": None}, {"q": 0.3, "c": 0.2 + 0.35j}]
    report = verify_lattice([0.0, 0.4, 1.0], [0.5, 2.0], states, convention="crossed-p0")
    assert report.n_points == 3 * 3 * 2 * 2
    assert _mz_csv(report) == _records_csv(report)


def _written(tmp_path, rows, fields, fmt):
    out = tmp_path / f"table.{fmt}"
    write_rows(_table(rows), fields, argparse.Namespace(format=fmt, out=str(out)))
    return out.read_bytes().decode()


def _unquoted_cell(v):
    """The cell contract without CSV quoting, for csv.writer to quote."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".12g")
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return v


def test_csv_cells_are_quoted_as_the_csv_module_quotes_them(tmp_path):
    fields = ["f0", "f1", "f2", "f3", "f4"]
    rows = [
        ("a,b", 'say "hi"', "two\nlines", "", None),
        (True, False, np.float64(0.1), np.int64(-3), 1.5),
        ('"', ",", "\n", 'x,"y"\nz', 2),
        ("plain", "NSIT_(0)1", np.float64(-0.0), np.int64(0), 1e-17),
    ]
    cells = [[_unquoted_cell(v) for v in row] for row in rows]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows(cells)
    body = _written(tmp_path, rows, fields, "csv")
    assert body == buf.getvalue()
    assert list(csv.reader(io.StringIO(body, newline=""))) == [fields, *cells]


def test_csv_quotes_a_carriage_return(tmp_path):
    # csv.writer quotes a lone \r only from Python 3.13 on, so the form is pinned
    body = _written(tmp_path, [("a\rb", 'x"\r', "c")], ["p", "q", "r"], "csv")
    assert body == 'p,q,r\n"a\rb","x""\r",c\n'


@pytest.mark.parametrize("fmt, body", [("csv", "a,b\n"), ("json", "[]\n")])
def test_empty_table_writes_only_the_header(tmp_path, fmt, body):
    assert _written(tmp_path, [], ["a", "b"], fmt) == body


def _fresh_python(code):
    src = str(Path(macroreal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env).returncode


_SCIPY_LOADED = "any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"


@pytest.mark.parametrize(
    "modules",
    [
        "macroreal",
        "macroreal.cli",
        # the modules the benchmark's sweep workload runs
        "macroreal.hilbert, macroreal.instruments, macroreal.scenario, macroreal.conditions",
    ],
    ids=["package", "cli", "sweep"],
)
def test_importing_macroreal_leaves_scipy_unloaded(modules):
    assert _fresh_python(f"import sys, {modules}; sys.exit({_SCIPY_LOADED})") == 0


# each function that imports scipy on first call, which a fresh interpreter
# reaches with scipy unloaded; points past |b| = 38 take coherent_columns to
# its log-domain branch
_COLD_CALLS = """
import numpy as np
from macroreal.hilbert import coherent_state
from macroreal.instruments import coherent_columns, ring_family
from macroreal.overlap import coherent_x_overlap
far = np.array([38.0, 27.0 - 27.0j, -38.5j])
values = {
    "state": coherent_state(2.0).amplitudes,
    "rings": ring_family(2.0, 40, 10.0).envelopes,
    "columns": coherent_columns(np.concatenate([[0.5 + 0.5j], far]), 30),
    "x_overlap": coherent_x_overlap(0.5).value,
}
"""


def test_scipy_users_give_the_same_values_from_a_cold_start(tmp_path):
    out = tmp_path / "cold.npz"
    assert _fresh_python(f"{_COLD_CALLS}\nnp.savez({str(out)!r}, **values)") == 0
    cold = np.load(out)
    scope = {}
    exec(_COLD_CALLS, scope)
    assert np.all(0.5 * np.abs(scope["far"]) ** 2 > _UNDERFLOW_EXPONENT)
    for name, value in scope["values"].items():
        assert np.array_equal(cold[name], value), name


@pytest.mark.parametrize(
    "argv",
    [
        ["mz-scan", "--r1", "1.5"],
        ["mz-scan", "--q", "2"],
        ["mz-scan", "--random-points", "-5"],
        ["overlap", "ring", "--d", "0"],
        ["overlap", "fock", "--g", "xyz"],
        ["overlap", "coherent", "--delta-sq", "0"],
        ["overlap", "fock", "--g", "m", "--gamma", "1", "--dim", "2"],
        ["overlap", "quadrature", "--case", "XX", "--grid", "1"],
        ["overlap", "coherent", "--gamma", "1", "--grid", "0"],
        ["overlap", "fock", "--g", "m", "--gamma", "0.5", "--grid", "-0.5"],
        ["overlap", "quadrature", "--case", "XX", "--t", "1", "--delta", "0"],
        ["overlap", "quadrature", "--case", "XX", "--t", "1", "--delta", "-1"],
        ["overlap", "quadrature", "--case", "XX", "--t", "1", "--sigma", "0"],
        ["overlap", "quadrature", "--case", "XX", "--t", "1", "--mass", "0"],
        ["overlap", "quadrature", "--case", "XX", "--t", "1", "--mass", "inf"],
        ["overlap", "quadrature", "--case", "PP", "--t", "1", "--kappa", "0"],
        ["overlap", "quadrature", "--case", "PP", "--delta", "0"],
        ["overlap", "quadrature", "--case", "XX", "--t", "1", "--delta", "0.1", "--grid", "256"],
        # a Fock cutoff below 1
        ["overlap", "fock", "--g", "m", "--gamma", "1", "--dim", "0"],
        ["overlap", "ring", "--d", "6", "--dim", "0"],
        ["overlap", "coherent", "--gamma", "1", "--dim", "0"],
        ["overlap", "fock", "--g", "m", "--gamma", "1", "--dim", "-3"],
        # a non-finite lattice step, or one longer than the lattice side
        ["overlap", "fock", "--g", "m", "--gamma", "1", "--grid", "inf"],
        ["overlap", "coherent", "--gamma", "1", "--grid", "nan"],
        ["overlap", "fock", "--g", "m", "--gamma", "1", "--grid", "100"],
        ["overlap", "ring", "--d", "1", "--grid", "1e9"],
        # rings whose envelopes would exceed physical memory, refused before allocating
        ["overlap", "ring", "--d", "1e-9"],
    ],
)
def test_bad_option_values_exit_two(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    command = " ".join(argv[:2]) if argv[0] == "overlap" else argv[0]
    message = captured.err.splitlines()
    assert len(message) == 1 and message[0].startswith(f"{command}: ")
    assert "Traceback" not in captured.err


def test_coherent_projectors_over_physical_memory_exit_two(monkeypatch, capsys):
    # the projectors of |1> on the default lattice, 2,401 points, need about
    # 2.5 MB: with 1 MB of memory they are refused before a column is built
    monkeypatch.setattr(hilbert, "PHYSICAL_MEMORY_BYTES", 1_000_000)
    assert main(["overlap", "coherent", "--gamma", "1"]) == 2
    captured = capsys.readouterr()
    message = captured.err.splitlines()
    assert captured.out == "" and len(message) == 1
    assert message[0].startswith("overlap coherent: coherent projectors on 2,401 lattice points need ")


def test_overlap_quadrature_stdout(capsys):
    argv = ["overlap", "quadrature", "--case", "XX", "--t", "0:2:1"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    header, *rows = first.splitlines()
    assert header == "t,analytic,numeric,abs_diff"
    assert len(rows) == 3
    assert float(rows[0].split(",")[1]) == 1.0
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--jobs", "2"])
    assert exc.value.code == 2


def test_overlap_quadrature_grid_is_an_integer(capsys):
    argv = ["overlap", "quadrature", "--case", "XX", "--t", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--grid", "2.5"])
    assert exc.value.code == 2
    capsys.readouterr()
    # a 64-point grid holds momenta to 3.6 branch widths, where it read 1.7e-7
    # from the closed form; it is refused, and 128 points read roundoff
    assert main(argv + ["--grid", "64"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "momentum range" in captured.err
    assert main(argv + ["--grid", "128"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert float(row.split(",")[3]) < 1e-14


def test_overlap_coherent_sharp_mode(capsys):
    assert main(["overlap", "coherent", "--delta-sq", "1.0"]) == 0
    out = capsys.readouterr().out
    header, row = out.splitlines()
    assert header == "delta_sq,value,exact,abs_diff"
    assert abs(float(row.split(",")[1]) - 0.98984640) < 1e-6


@pytest.mark.parametrize(
    "argv, option",
    [
        (["overlap", "coherent", "--delta-sq", "0.5", "--gamma", "0,1,2"], "--gamma"),
        (["overlap", "coherent", "--delta-sq", "0.5", "--dim", "20"], "--dim"),
        (["overlap", "ring", "--d", "2", "--gamma-mode", "border", "--gamma", "7"], "--gamma"),
        (["overlap", "ring", "--d", "2", "--gamma-mode", "center", "--gamma", "7"], "--gamma"),
        (["overlap", "ring", "--d", "2,3", "--gamma-mode", "fixed", "--gamma", "1,2"], "--gamma"),
        (["overlap", "quadrature", "--case", "XX", "--t", "1", "--kappa", "5"], "--kappa"),
        (["overlap", "quadrature", "--case", "PP", "--t", "1", "--delta", "2"], "--delta"),
        # unseeded random points would not repeat; a seed without them is unused
        (["mz-scan", "--r1", "0.5", "--r2", "0.5", "--phi", "0", "--state", "mix", "--q", "0.5",
          "--random-points", "2"], "--seed"),
        (["mz-scan", "--r1", "0.5", "--r2", "0.5", "--phi", "0", "--state", "mix", "--q", "0.5",
          "--seed", "7"], "--seed"),
    ],
)
def test_an_option_the_mode_would_ignore_exits_two(argv, option, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (message,) = captured.err.splitlines()
    command = " ".join(argv[:2]) if argv[0] == "overlap" else argv[0]
    assert message.startswith(f"{command}: ") and option in message


def test_overlap_ring_fixed_mode_needs_gamma(capsys):
    code = main(["overlap", "ring", "--d", "1.0", "--gamma-mode", "fixed"])
    assert code == 2
    assert "needs --gamma" in capsys.readouterr().err


def test_overlap_fock_rows_json(tmp_path):
    out = tmp_path / "fock.json"
    code = main(
        [
            "overlap", "fock",
            "--g", "2m^2",
            "--gamma", "1:2:1",
            "--format", "json",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = json.loads(out.read_text())
    assert [row["gamma"] for row in rows] == [1.0, 2.0]
    assert all(0.0 <= row["value"] <= 1.0 + 1e-9 for row in rows)
