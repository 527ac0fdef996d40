"""Command line front end for the macrorealism laboratory.

Three commands: `mz-scan` sweeps the two-path interferometer lattice and
cross-checks closed forms against the numeric pipeline, `nsit-check` runs
every condition on a scenario file, and `overlap` produces invasiveness
sweep data for the quadrature, coherent, ring and Fock readout studies.

Outputs are CSV (the plot-data contract: header row, '.' decimal, cells as
_format_cell writes them) or JSON; identical invocations produce
byte-identical bodies.
Exit codes: 0 clean, 1 a checker found violations, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from macroreal.conditions import (
    aot_check,
    lgi_012,
    mr012_check,
    nic_012,
    nsit_two_time,
)
from macroreal.mach_zehnder import (
    CONDITION_NAMES,
    CONVENTIONS,
    MZParams,
    verify_lattice,
)
from macroreal.overlap import (
    QUADRATURE_CASES,
    coherent_delta_overlap,
    coherent_x_overlap,
    fock_overlap,
    quadrature_overlap_analytic,
    quadrature_overlap_numeric,
    ring_overlap,
)
from macroreal.scenario import load_scenario

DEFAULT_TOL_ENV = "MACROREAL_DEFAULT_TOL"

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# Argument parsing helpers


def parse_range(spec: str) -> list[float]:
    """Parse 'start:stop:step' (inclusive), 'a,b,c' or a single number; all finite."""
    try:
        if ":" in spec:
            lo_s, hi_s, step_s = spec.split(":")
            lo, hi, step = float(lo_s), float(hi_s), float(step_s)
            if not all(map(math.isfinite, (lo, hi, step))) or step <= 0.0 or hi < lo:
                raise ValueError
            return [float(v) for v in np.arange(lo, hi + step / 2.0, step)]
        values = [float(v) for v in spec.split(",") if v.strip()]
        if not values or not all(map(math.isfinite, values)):
            raise ValueError
        return values
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse range {spec!r}; expected finite start:stop:step, a comma list or a number"
        )


def parse_complex_list(spec: str) -> list[complex]:
    """Parse a comma list of finite complex values; accepts both 0.3i and 0.3j."""
    try:
        values = [complex(v.replace("i", "j")) for v in spec.split(",") if v.strip()]
        if not values or not np.isfinite(values).all():
            raise ValueError
        return values
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse complex list {spec!r}; expected a comma list of finite values"
        )


def _finite_float(spec: str) -> float:
    """argparse type of --guard: a finite float."""
    try:
        value = float(spec)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {spec!r}")
    return value


def _tolerance(spec: str) -> float:
    """argparse type of --tol: a finite float >= 0."""
    value = _finite_float(spec)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"expected a number >= 0, got {spec!r}")
    return value


_QUOTED = frozenset(',"\n\r')


def _format_cell(value) -> str:
    """The CSV cell contract: floats as %.12g, true/false, an empty cell for None,
    and a string holding , " \\n or \\r wrapped in double quotes, inner quotes doubled."""
    # floats first: they fill most cells of every sweep
    if type(value) is float or isinstance(value, np.floating):
        return format(float(value), ".12g")
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    text = str(value)
    if _QUOTED.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _json_text(obj) -> str:
    """The JSON body format: indent 2, sorted keys, numpy values through _json_default, a final newline."""
    return json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n"


def _table(rows):
    """write_rows' body of row tuples (read once): a CSV line per row, every
    value through _format_cell, or the JSON list of row objects."""

    def body(fieldnames, fmt):
        if fmt == "csv":
            return ["".join(",".join(map(_format_cell, row)) + "\n" for row in [fieldnames, *rows])]
        records = [dict(zip(fieldnames, row)) for row in rows]
        return [_json_text(records)]

    return body


def write_rows(body, fieldnames: list[str], args: argparse.Namespace) -> None:
    """Write a table to --out or stdout as CSV or JSON.

    body(fieldnames, format) returns the text, header included, as an
    iterable of chunks; each chunk is written as it comes.
    """
    chunks = body(fieldnames, args.format)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# mz-scan

MZ_FIELDS = [
    "r1",
    "r2",
    "phi",
    "q",
    "c_re",
    "c_im",
    "condition",
    "analytic_residual",
    "numeric_residual",
    "analytic_holds",
    "numeric_holds",
    "compared",
    "agree",
]


def _state_list(args: argparse.Namespace) -> list[dict]:
    qs = args.q or [0.0, 0.3, 0.5]
    cs = args.c or [0.45, 0.3j, 0.2 + 0.35j]
    states = []
    if args.state in ("mix", "both"):
        states.extend({"q": float(q), "c": None} for q in qs)
    if args.state in ("sup", "both"):
        for c in cs:
            for q in qs:
                if abs(c) ** 2 <= q * (1.0 - q) + 1e-12:
                    states.append({"q": float(q), "c": complex(c)})
    if not states:
        raise ValueError("no admissible state; every |c|^2 exceeds q(1-q)")
    return states


def _random_points(rng: np.random.Generator, n: int) -> list[MZParams]:
    """n random settings from one block of uniform draws.

    A point takes r1, r2, phi, q and a coin, then for a superposition (coin
    >= 0.5) the radius and angle of c, each as Generator.uniform computes it,
    low + (high - low) * u; with low = 0 that is high * u, bit for bit.
    """
    u = iter(rng.random(7 * n).tolist())
    tau = 2.0 * math.pi
    points = []
    for _ in range(n):
        r1, r2, phi, q, coin = next(u), next(u), tau * next(u), next(u), next(u)
        c = None
        if coin >= 0.5:
            radius, angle = math.sqrt(q * (1.0 - q)) * next(u), tau * next(u)
            c = radius * complex(math.cos(angle), math.sin(angle))
        points.append(MZParams(r1, r2, phi, q, c))
    return points


MZ_BLOCK = 1024  # points formatted and written at a time


def _mz_records(report):
    """The mz-scan rows as tuples of Python values in MZ_FIELDS order, one per
    (point, condition), point-major and made as they are read; a mixture's
    c_re and c_im are None, and so is agree where the verdicts are not compared."""
    k = len(CONDITION_NAMES)
    r1, r2, phi, q, c = (a.tolist() for a in report.settings)
    heads = [
        (*p, z.real, z.imag) if has_c else (*p, None, None)
        for *p, z, has_c in zip(r1, r2, phi, q, c, report.has_c.tolist())
    ]
    cells = zip(*(
        a.ravel().tolist()
        for a in (report.analytic, report.numeric, report.analytic_holds,
                  report.numeric_holds, report.compared, report.agree)
    ))
    return (
        (*heads[j // k], CONDITION_NAMES[j % k], a, n, a_holds, n_holds, compared,
         agree if compared else None)
        for j, (a, n, a_holds, n_holds, compared, agree) in enumerate(cells)
    )


def _mz_csv(report, fields):
    """The mz-scan CSV body, one block of points at a time.

    A point's parameter cells are formatted once, into a prefix of its seven
    condition rows (a mixture's c_re and c_im are empty), and every row is one
    %-template; '%.12g' % x is format(x, '.12g'), the _format_cell contract.
    The verdict cells are one of 16 strings, looked up by (analytic_holds,
    numeric_holds, compared, agree).
    """
    yield ",".join(map(_format_cell, fields)) + "\n"
    names = [_format_cell(name) + "," for name in CONDITION_NAMES]
    flags = (False, True)
    tails = [
        ",".join(map(_format_cell, (a, n, c, g if c else None)))
        for a in flags for n in flags for c in flags for g in flags
    ]
    codes = 8 * report.analytic_holds + 4 * report.numeric_holds + 2 * report.compared + report.agree
    for i in range(0, report.n_points, MZ_BLOCK):
        block = slice(i, i + MZ_BLOCK)
        r1, r2, phi, q, c = (a[block] for a in report.settings)
        params = np.stack([r1, r2, phi, q, c.real, c.imag], axis=1).tolist()
        prefixes = [
            "%.12g,%.12g,%.12g,%.12g,%.12g,%.12g," % tuple(p) if has_c
            else "%.12g,%.12g,%.12g,%.12g,,," % tuple(p[:4])
            for p, has_c in zip(params, report.has_c[block].tolist())
        ]
        rows = zip(
            [prefix + name for prefix in prefixes for name in names],
            report.analytic[block].ravel().tolist(),
            report.numeric[block].ravel().tolist(),
            map(tails.__getitem__, codes[block].ravel().tolist()),
        )
        yield "".join(map("%s%.12g,%.12g,%s\n".__mod__, rows))


def cmd_mz_scan(args: argparse.Namespace) -> int:
    if args.random_points < 0:
        raise ValueError(f"--random-points must be non-negative, got {args.random_points}")
    # an unseeded draw would break byte-identical bodies; a seed without draws is unused
    if args.random_points and args.seed is None:
        raise ValueError("--random-points needs --seed, so that the points repeat")
    if not args.random_points and args.seed is not None:
        raise ValueError("--seed is used only with --random-points")
    states = _state_list(args)
    extra = _random_points(np.random.default_rng(args.seed), args.random_points)
    report = verify_lattice(
        args.r1,
        args.phi,
        states,
        r2_values=args.r2,
        extra_points=extra,
        threshold=args.tol,
        guard=args.guard,
        convention=None if args.convention == "auto" else args.convention,
    )
    if args.format == "csv":
        write_rows(lambda fields, _: _mz_csv(report, fields), MZ_FIELDS, args)
    else:
        write_rows(_table(_mz_records(report)), MZ_FIELDS, args)
    summary = report.to_dict()
    if args.out:
        with open(args.out + ".summary.json", "w") as fh:
            fh.write(_json_text(summary))
        print(
            f"mz-scan: {len(report.mismatches)} mismatches over {report.n_points} "
            f"points ({report.n_comparisons} comparisons, "
            f"{report.n_skipped_guard} guard-skipped); convention {report.convention}"
        )
    else:
        _note(
            f"mz-scan: {len(report.mismatches)} mismatches over {report.n_points} points"
        )
    return EXIT_OK if report.ok else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# nsit-check

REPORT_FIELDS = ["name", "residual", "threshold", "holds"]


def cmd_nsit_check(args: argparse.Namespace) -> int:
    path = args.scenario
    try:
        scenario = load_scenario(path)
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        _note(f"nsit-check: cannot load scenario {path!r}: {exc}")
        return EXIT_USAGE

    bundle = mr012_check(scenario, threshold=args.tol) if scenario.n_slots == 3 else None
    reports = []
    for i in range(scenario.n_slots):
        for j in range(i + 1, scenario.n_slots):
            reports.append(nsit_two_time(scenario, i, j, threshold=args.tol))
            reports.append(aot_check(scenario, i, j, threshold=args.tol))

    if bundle is not None:
        reports.extend(bundle.members[name] for name in ("NSIT_0(1)2", "NSIT_(0)12"))
        # LGI_012 needs +-1 outcomes at all three slots, NIC_0(1)2 only at 0 and 2
        for name, check in (("LGI_012", lgi_012), ("NIC_0(1)2", nic_012)):
            try:
                reports.append(check(scenario, threshold=args.tol))
            except ValueError as exc:
                _note(f"nsit-check: {name} skipped: {exc}")
    else:
        _note(
            f"nsit-check: scenario has {scenario.n_slots} slots, "
            "three-slot bundle skipped"
        )

    for rep in reports:
        verdict = "holds" if rep.holds else "VIOLATED"
        print(
            f"{rep.name:<12} residual={rep.residual:.6e} "
            f"threshold={rep.threshold:.1e} {verdict}"
        )
    violated = any(not rep.holds for rep in reports)
    if bundle is not None:
        verdict = "holds" if bundle.holds else "VIOLATED"
        print(
            f"{'MR_012':<12} mismatch_tv={bundle.mismatch_tv:.6e} "
            f"threshold={bundle.mismatch_threshold:.1e} {verdict}"
        )
        violated = violated or not bundle.holds

    if args.out:
        rows = [rep.to_dict() for rep in reports]
        if args.format == "csv":
            cells = [[row[name] for name in REPORT_FIELDS] for row in rows]
            write_rows(_table(cells), REPORT_FIELDS, args)
        else:
            body = {"reports": rows}
            if bundle is not None:
                body["mr012"] = bundle.to_dict()
            write_rows(lambda *_: [_json_text(body)], REPORT_FIELDS, args)
    return EXIT_VIOLATION if violated else EXIT_OK


# ---------------------------------------------------------------------------
# overlap sweeps


def _overlap_quadrature(args: argparse.Namespace) -> int:
    kwargs = {"sigma": args.sigma, "mass": args.mass}
    # a width the case does not read would still move the grid span: refused
    for name, quadrature in (("delta", "X"), ("kappa", "P")):
        value = getattr(args, name)
        if value is not None and quadrature not in args.case:
            raise ValueError(f"--{name} is not used with --case {args.case}")
        kwargs[name] = 1.0 if value is None else value

    def point(t):
        analytic = quadrature_overlap_analytic(args.case, t=t, **kwargs)
        numeric = quadrature_overlap_numeric(args.case, t=t, n=args.grid, **kwargs).value
        return t, analytic, numeric, abs(analytic - numeric)

    rows = [point(t) for t in args.t]
    write_rows(_table(rows), ["t", "analytic", "numeric", "abs_diff"], args)
    worst = max(abs_diff for *_, abs_diff in rows)
    _note(f"overlap quadrature {args.case}: max |analytic - numeric| = {worst:.3e}")
    return EXIT_OK


def _overlap_coherent(args: argparse.Namespace) -> int:
    if args.delta_sq:
        if args.gamma and len(args.gamma) > 1:
            raise ValueError(f"--delta-sq takes one --gamma, got {len(args.gamma)}")
        if args.dim is not None:
            raise ValueError("--dim is not used with --delta-sq")
        gamma = complex(args.gamma[0]) if args.gamma else 0.0

        def point(delta_sq):
            res = coherent_x_overlap(delta_sq, gamma, step=args.grid)
            exact = res.meta["exact"]
            return delta_sq, res.value, exact, abs(res.value - exact)

        rows = [point(delta_sq) for delta_sq in args.delta_sq]
        write_rows(_table(rows), ["delta_sq", "value", "exact", "abs_diff"], args)
        return EXIT_OK

    gammas = args.gamma or [float(v) for v in np.arange(0.0, 2.01, 0.5)]
    ideal = 2.0 * math.sqrt(2.0) / 3.0

    def point(gamma):
        res = coherent_delta_overlap(gamma, dim=args.dim, step=args.grid)
        return gamma, res.value, ideal, abs(res.value - ideal)

    rows = [point(gamma) for gamma in gammas]
    write_rows(_table(rows), ["gamma", "value", "ideal", "abs_diff"], args)
    return EXIT_OK


def _overlap_ring(args: argparse.Namespace) -> int:
    mode = args.gamma_mode
    fixed = args.gamma
    if mode == "fixed" and not fixed:
        raise ValueError("--gamma-mode fixed needs --gamma")
    if mode == "fixed" and len(fixed) > 1:
        raise ValueError(f"--gamma-mode fixed takes one --gamma, got {len(fixed)}")
    if mode != "fixed" and fixed:
        raise ValueError(f"--gamma is used only with --gamma-mode fixed, not {mode}")

    def point(d):
        if mode == "border":
            gamma = d
        elif mode == "center":
            gamma = 1.5 * d
        else:
            gamma = float(fixed[0])
        res = ring_overlap(d, gamma, dim=args.dim, step=args.grid)
        return d, gamma, res.value, res.meta["raw_defect"]

    rows = [point(d) for d in args.d]
    write_rows(_table(rows), ["d", "gamma", "value", "raw_defect"], args)
    return EXIT_OK


def _overlap_fock(args: argparse.Namespace) -> int:
    gammas = args.gamma
    if gammas is None:
        gammas = [float(v) for v in np.arange(0.5, 6.01, 0.25)]

    def point(gamma):
        res = fock_overlap(args.g, gamma, dim=args.dim, step=args.grid)
        return gamma, res.value, res.meta["n_bins"]

    rows = [point(gamma) for gamma in gammas]
    write_rows(_table(rows), ["gamma", "value", "n_bins"], args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly


def _common_options() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output file (default: stdout)")
    common.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="row output format"
    )
    return common


def _add_tol(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tol",
        type=_tolerance,
        default=None,
        help=f"condition threshold (default: ${DEFAULT_TOL_ENV} or 1e-9)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macroreal",
        description="Macrorealism condition checks and invasiveness sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_options()

    mz = sub.add_parser(
        "mz-scan",
        parents=[common],
        help="sweep the interferometer lattice, closed forms vs numerics",
    )
    mz.set_defaults(run=cmd_mz_scan)
    _add_tol(mz)
    mz.add_argument("--seed", type=int, default=None, help="seed for --random-points")
    mz.add_argument("--r1", type=parse_range, help="first reflectivity sweep")
    mz.add_argument("--r2", type=parse_range, help="second reflectivity sweep")
    mz.add_argument("--phi", type=parse_range, help="phase sweep (radians)")
    mz.add_argument(
        "--state", choices=("mix", "sup", "both"), default="both",
        help="initial state family",
    )
    mz.add_argument("--q", type=parse_range, help="upper-path populations")
    mz.add_argument("--c", type=parse_complex_list, help="coherences, e.g. 0.3i,0.2")
    mz.add_argument("--guard", type=_finite_float, default=1e-6, help="verdict guard band")
    mz.add_argument(
        "--convention", choices=("auto",) + CONVENTIONS, default="auto",
        help="interferometer layout convention",
    )
    mz.add_argument(
        "--random-points", type=int, default=0,
        help="extra random parameter points (seeded)",
    )

    ns = sub.add_parser(
        "nsit-check", parents=[common], help="evaluate all conditions on a scenario file"
    )
    ns.add_argument("scenario", help="path to a scenario JSON descriptor")
    ns.set_defaults(run=cmd_nsit_check)
    _add_tol(ns)

    ov = sub.add_parser("overlap", help="invasiveness overlap sweeps")
    ovsub = ov.add_subparsers(dest="family", required=True)

    quad = ovsub.add_parser(
        "quadrature", parents=[common], help="smeared quadrature pair, analytic vs grid"
    )
    quad.set_defaults(run=_overlap_quadrature)
    quad.add_argument("--case", choices=QUADRATURE_CASES, required=True)
    quad.add_argument("--delta", type=float, help="position smearing width (default 1)")
    quad.add_argument("--kappa", type=float, help="momentum smearing width (default 1)")
    quad.add_argument("--sigma", type=float, default=1.0, help="initial packet width")
    quad.add_argument("--mass", type=float, default=1.0)
    quad.add_argument("--t", type=parse_range, default=[0.0], help="evolution times")
    quad.add_argument(
        "--grid", type=int, default=4096, help="position grid points (default 4096)"
    )

    coh = ovsub.add_parser(
        "coherent", parents=[common], help="phase-space point readout invasiveness"
    )
    coh.set_defaults(run=_overlap_coherent)
    coh.add_argument("--gamma", type=parse_range, help="coherent amplitudes")
    coh.add_argument(
        "--delta-sq", type=parse_range, dest="delta_sq",
        help="sharp position readout variances (switches mode)",
    )
    coh.add_argument("--dim", type=int, default=None, help="Fock cutoff override")
    coh.add_argument("--grid", type=float, default=0.25, help="lattice step (default 0.25)")

    ring = ovsub.add_parser(
        "ring", parents=[common], help="radial ring binning invasiveness"
    )
    ring.set_defaults(run=_overlap_ring)
    ring.add_argument("--d", type=parse_range, required=True, help="ring widths")
    ring.add_argument(
        "--gamma-mode", choices=("border", "center", "fixed"), default="border",
        dest="gamma_mode", help="probe at gamma=d, gamma=3d/2 or a fixed --gamma",
    )
    ring.add_argument("--gamma", type=parse_range, help="fixed probe amplitude")
    ring.add_argument("--dim", type=int, default=None, help="Fock cutoff override")
    ring.add_argument("--grid", type=float, default=0.25, help="lattice step (default 0.25)")

    fock = ovsub.add_parser(
        "fock", parents=[common], help="Fock bin coarse-graining invasiveness"
    )
    fock.set_defaults(run=_overlap_fock)
    fock.add_argument("--g", required=True, help="bin border rule, e.g. 2m^2")
    fock.add_argument(
        "--gamma", type=parse_range, default=None, help="coherent amplitude sweep"
    )
    fock.add_argument("--dim", type=int, default=None, help="Fock cutoff override")
    fock.add_argument("--grid", type=float, default=0.25, help="lattice step (default 0.25)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "tol" in args and args.tol is None:
            raw = os.environ.get(DEFAULT_TOL_ENV, "1e-9")
            try:
                args.tol = float(raw)
            except ValueError:
                raise ValueError(f"{DEFAULT_TOL_ENV}={raw!r} is not a number") from None
            if not 0.0 <= args.tol < math.inf:
                raise ValueError(f"{DEFAULT_TOL_ENV}={raw!r} is not a finite number >= 0")
        return args.run(args)
    except ValueError as exc:
        _note(f"{args.command} {getattr(args, 'family', '')}".rstrip() + f": {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
