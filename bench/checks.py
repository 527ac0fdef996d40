"""Output checks, computed apart from the program with numpy and scipy alone.

Each ``check_<workload>`` returns a list of failure messages; an empty list
means every output of every round passed. The oracles here re-derive the
program's numbers by other routes (explicit sums over outcome sequences, 2x2
beamsplitter algebra, dephased Husimi functions on the benchmark's own
lattice, Gaussian moment propagation) or test properties the method must
have. None of them compares with a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math

import numpy as np
from scipy.special import gammaincc, gammaln

from inputs import sweep_scenario

SUBSETS = ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))
# the worker's per-scenario output row, in this order
SWEEP_COLUMNS = (
    "NSIT_(1)2",
    "NSIT_0(1)2",
    "NSIT_(0)12",
    "AoT",
    "mismatch_tv",
    "mismatch_sup",
    "lgi_residual",
    "K",
    "C01",
    "C12",
    "C02",
    "nic_residual",
    "nic_C02",
    "nic_C02_with_middle",
)
IDEAL_DELTA = 2.0 * math.sqrt(2.0) / 3.0
LUEDERS_BOUND = 1.5


def _fail(failures: list, ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


# ---------------------------------------------------------------------------
# three-slot sequential measurements by brute force


def brute_force_table(rho, evolutions, projectors, subset) -> np.ndarray:
    """P(outcomes on `subset`) summed over explicit outcome sequences.

    projectors[k][a] is the Lueders projector for outcome index a at slot k;
    slots outside `subset` apply no update at all.
    """
    table = np.zeros((2,) * len(subset))
    for outcome in itertools.product((0, 1), repeat=len(subset)):
        state = np.array(rho, dtype=complex)
        for k in range(3):
            if k > 0:
                u = evolutions[k - 1]
                state = u @ state @ u.conj().T
            if k in subset:
                p = projectors[k][outcome[subset.index(k)]]
                state = p @ state @ p.conj().T
        table[outcome] = np.trace(state).real
    return table


def _marginal(tables: dict, full: tuple, keep: tuple) -> np.ndarray:
    axes = tuple(i for i, s in enumerate(full) if s not in keep)
    return tables[full].sum(axis=axes) if axes else tables[full]


def conditions_from_tables(tables: dict) -> dict:
    """Every sweep and interferometer condition from the seven tables.

    Outcome index 0 carries the label +1 and index 1 the label -1.
    """
    labels = np.array([1.0, -1.0])

    def sup(a, b):
        return float(np.max(np.abs(a - b)))

    def corr(t):
        return float(labels @ t @ labels)

    full = (0, 1, 2)
    res = {
        "NSIT_(0)1": sup(tables[(1,)], _marginal(tables, (0, 1), (1,))),
        "NSIT_(1)2": sup(tables[(2,)], _marginal(tables, (1, 2), (2,))),
        "NSIT_0(1)2": sup(tables[(0, 2)], _marginal(tables, full, (0, 2))),
        "NSIT_(0)12": sup(tables[(1, 2)], _marginal(tables, full, (1, 2))),
        "AoT": max(
            sup(tables[(i,)], _marginal(tables, (i, j), (i,)))
            for i, j in ((0, 1), (0, 2), (1, 2))
        ),
    }
    res["mismatch_tv"] = max(
        0.5 * float(np.sum(np.abs(tables[s] - _marginal(tables, full, s)))) for s in SUBSETS[:-1]
    )
    res["mismatch_sup"] = max(sup(tables[s], _marginal(tables, full, s)) for s in SUBSETS[:-1])
    res["C01"] = corr(tables[(0, 1)])
    res["C12"] = corr(tables[(1, 2)])
    res["C02"] = corr(tables[(0, 2)])
    res["K"] = res["C01"] + res["C12"] - res["C02"]
    res["LGI_012"] = max(0.0, res["K"] - 1.0)
    res["nic_C02_with_middle"] = corr(_marginal(tables, full, (0, 2)))
    res["NIC"] = abs(res["C02"] - res["nic_C02_with_middle"])
    res["MR_012"] = max(res["NSIT_(1)2"], res["NSIT_0(1)2"], res["NSIT_(0)12"], res["AoT"])
    return res


SWEEP_ORACLE_COLUMNS = {
    "NSIT_(1)2": "NSIT_(1)2",
    "NSIT_0(1)2": "NSIT_0(1)2",
    "NSIT_(0)12": "NSIT_(0)12",
    "AoT": "AoT",
    "mismatch_tv": "mismatch_tv",
    "mismatch_sup": "mismatch_sup",
    "lgi_residual": "LGI_012",
    "K": "K",
    "C01": "C01",
    "C12": "C12",
    "C02": "C02",
    "nic_residual": "NIC",
    "nic_C02": "C02",
    "nic_C02_with_middle": "nic_C02_with_middle",
}


def check_sweep(arrays: dict, spec: dict, outputs: dict) -> list[str]:
    """rows: (rounds, scenarios, SWEEP_COLUMNS); tables: sampled scenarios' tables."""
    failures = []
    rows = np.asarray(outputs["rows"])
    col = {name: rows[:, :, i] for i, name in enumerate(SWEEP_COLUMNS)}
    n = spec["n_items"]
    _fail(failures, rows.shape[1] == n, f"sweep: {rows.shape[1]} result rows for {n} scenarios")
    _fail(failures, bool(np.all(np.isfinite(rows))), "sweep: non-finite condition value")

    for s, index in enumerate(arrays["sample"]):
        rho, evo, pairs = sweep_scenario(arrays, int(index))
        tables = {sub: brute_force_table(rho, evo, pairs, sub) for sub in SUBSETS}
        for k, sub in enumerate(SUBSETS):
            got = outputs["tables"][s, k, : 2 ** len(sub)]
            gap = float(np.max(np.abs(got - tables[sub].ravel())))
            _fail(failures, gap <= 1e-12, f"sweep: scenario {index} table {sub} off the brute-force sum by {gap:.2e}")
        oracle = conditions_from_tables(tables)
        for name, key in SWEEP_ORACLE_COLUMNS.items():
            gap = float(np.max(np.abs(col[name][:, index] - oracle[key])))
            _fail(failures, gap <= 1e-12, f"sweep: scenario {index} {name} off the brute-force value by {gap:.2e}")

    classical = np.concatenate([arrays["classical2"], arrays["classical3"]])
    residuals = ("NSIT_(1)2", "NSIT_0(1)2", "NSIT_(0)12", "AoT", "mismatch_tv", "lgi_residual", "nic_residual")
    worst = max(float(np.max(col[name][:, classical])) for name in residuals)
    _fail(failures, worst <= 1e-10, f"sweep: a classical scenario violates a condition by {worst:.2e}")
    worst = float(np.max(col["AoT"]))
    _fail(failures, worst <= 1e-12, f"sweep: arrow-of-time residual {worst:.2e} above 1e-12")
    nsit = np.maximum(np.maximum(col["NSIT_(1)2"], col["NSIT_0(1)2"]), col["NSIT_(0)12"])
    worst = float(np.max(nsit - 2.0 * col["mismatch_tv"]))
    _fail(failures, worst <= 1e-14, f"sweep: NSIT exceeds twice the marginal mismatch by {worst:.2e}")
    qubit = np.arange(n) < arrays["rho2"].shape[0]
    worst = float(np.max(col["K"][:, qubit]))
    _fail(failures, worst <= LUEDERS_BOUND + 1e-9, f"sweep: qubit K = {worst!r} above the Lueders bound")
    worst = float(np.max(col["nic_residual"] - 4.0 * col["NSIT_0(1)2"]))
    _fail(failures, worst <= 1e-12, f"sweep: NIC exceeds four times the sandwich residual by {worst:.2e}")
    return failures


# ---------------------------------------------------------------------------
# interferometer


def beamsplitter(r: float) -> np.ndarray:
    t = 1.0 - r
    return np.array([[math.sqrt(t), 1j * math.sqrt(r)], [1j * math.sqrt(r), math.sqrt(t)]])


def mz_conditions(r1, r2, phi, q, c) -> dict:
    """The seven lattice conditions for the crossed layout, phase on path 0.

    Path 0 reads +1 and path 1 reads -1. After the second beamsplitter the
    paths cross (a swap), and the phase plate sits on path 0 before it.
    """
    rho = np.array([[q, c], [np.conj(c), 1.0 - q]], dtype=complex)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    plate = np.diag([np.exp(1j * phi), 1.0])
    evolutions = (beamsplitter(r1), swap @ beamsplitter(r2) @ plate)
    paths = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    tables = {s: brute_force_table(rho, evolutions, (paths,) * 3, s) for s in SUBSETS}
    return conditions_from_tables(tables)


MZ_FIELDS = [
    "r1", "r2", "phi", "q", "c_re", "c_im", "condition", "analytic_residual",
    "numeric_residual", "analytic_holds", "numeric_holds", "compared", "agree",
]
MZ_CONDITIONS = ("NSIT_(0)1", "NSIT_(1)2", "NSIT_0(1)2", "NSIT_(0)12", "LGI_012", "AoT", "MR_012")


def check_mz_scan(spec: dict, rounds: list, csv_text: str | None, summary_text: str | None) -> list[str]:
    failures = []
    codes = [r["exit_code"] for r in rounds]
    _fail(failures, all(code == 0 for code in codes), f"mz_scan: exit codes {codes}")
    hashes = {r["sha256"] for r in rounds}
    _fail(failures, len(rounds) >= 2 and len(hashes) == 1, f"mz_scan: {len(hashes)} distinct CSV bodies over {len(rounds)} calls")
    if csv_text is None or summary_text is None:
        return failures + ["mz_scan: CSV or summary missing"]
    reader = csv.reader(io.StringIO(csv_text))
    header = next(reader, [])
    _fail(failures, header == MZ_FIELDS, f"mz_scan: header {header}")
    rows = list(reader)
    n_points = spec["n_items"]
    _fail(failures, len(rows) == 7 * n_points, f"mz_scan: {len(rows)} rows for {n_points} points x 7")
    if len(rows) != 7 * n_points or header != MZ_FIELDS:
        return failures
    names = [row[6] for row in rows]
    _fail(failures, names == list(MZ_CONDITIONS) * n_points, "mz_scan: conditions out of order")
    a = np.array([float(row[7]) for row in rows])
    n = np.array([float(row[8]) for row in rows])
    # %.12g keeps twelve significant digits: allow the rounding of both cells
    slack = 1e-12 + 5e-12 * (np.abs(a) + np.abs(n))
    worst = float(np.max(np.abs(a - n) - slack))
    _fail(failures, worst <= 0.0, f"mz_scan: a row has |analytic - numeric| {worst:.2e} beyond 1e-12")
    _fail(failures, all(row[12] in ("true", "") for row in rows), "mz_scan: a compared verdict disagrees")
    summary = json.loads(summary_text)
    _fail(failures, summary.get("n_points") == n_points, f"mz_scan: summary counts {summary.get('n_points')} points")
    _fail(failures, summary.get("ok") is True and summary.get("n_mismatches") == 0, "mz_scan: summary reports mismatches")
    err = summary.get("max_formula_error", math.inf)
    _fail(failures, err <= 1e-12, f"mz_scan: max formula error {err!r} above 1e-12")
    _fail(failures, summary.get("convention") == "crossed-p0", f"mz_scan: convention {summary.get('convention')!r}")
    for p in spec["sample_points"]:
        block = rows[7 * p : 7 * p + 7]
        r1, r2, phi, q = (float(v) for v in block[0][:4])
        c = 0j if block[0][4] == "" else complex(float(block[0][4]), float(block[0][5]))
        oracle = mz_conditions(r1, r2, phi, q, c)
        for row in block:
            gap = abs(float(row[8]) - oracle[row[6]])
            _fail(failures, gap <= 1e-9, f"mz_scan: point {p} {row[6]} off the 2x2 algebra by {gap:.2e}")
    return failures


# ---------------------------------------------------------------------------
# coarse-grained overlaps


def _fock_dim(modulus: float) -> int:
    return int(math.ceil(modulus * modulus + 8.0 * modulus + 20.0))


def coherent_amplitudes(gamma: complex, dim: int) -> np.ndarray:
    """Normalized truncated <n|gamma>."""
    n = np.arange(dim)
    r = abs(gamma)
    if r == 0.0:
        amps = np.zeros(dim, dtype=complex)
        amps[0] = 1.0
        return amps
    amps = np.exp(-0.5 * r * r + n * math.log(r) - 0.5 * gammaln(n + 1.0) + 1j * n * np.angle(gamma))
    return amps / np.linalg.norm(amps)


def dephased_husimi_overlap(gamma: complex, kernel: np.ndarray, step: float = 0.2, margin: float = 6.0) -> float:
    """Bhattacharyya overlap of the Husimi functions of |gamma> and its dephasing.

    The dephased state is rho_nm * kernel_nm. Both Husimi functions are taken
    on a square lattice of the given step, centred at 0 and reaching `margin`
    beyond |gamma|.
    """
    dim = kernel.shape[0]
    psi = coherent_amplitudes(gamma, dim)
    axis = np.arange(-(abs(gamma) + margin), abs(gamma) + margin + step / 2.0, step)
    points = (axis[:, None] + 1j * axis[None, :]).ravel()
    n = np.arange(dim)[None, :]
    total = 0.0
    for lo in range(0, points.size, 4096):
        beta = points[lo : lo + 4096, None]
        r = np.abs(beta)
        log_r = np.log(np.where(r > 0.0, r, 1.0))
        # conj(<n|beta>) <n|psi>, one row per lattice point
        amp = np.exp(-0.5 * r * r + n * log_r - 0.5 * gammaln(n + 1.0) - 1j * n * np.angle(beta))
        amp[:, 1:] *= r > 0.0
        amp *= psi
        q0 = np.abs(amp.sum(axis=1)) ** 2
        q1 = np.einsum("mi,mi->m", amp @ kernel, amp.conj()).real
        total += float(np.sum(np.sqrt(np.clip(q0, 0.0, None) * np.clip(q1, 0.0, None))))
    return step * step / math.pi * total


def parse_rule(rule: str) -> tuple[float, int]:
    """'2m^2' -> (2.0, 2): border g(m) = coef * m**power."""
    head, _, power = rule.partition("^")
    coef = head[:-1] or "1"
    return float(coef), int(power or 1)


def fock_borders(rule: str, dim: int) -> set:
    coef, power = parse_rule(rule)
    return {coef * m**power for m in range(1, dim + 1) if coef * m**power < dim}


def fock_kernel(rule: str, dim: int) -> np.ndarray:
    """1 where levels n and m share a bin of the rule, else 0."""
    borders = np.array(sorted(fock_borders(rule, dim)))
    label = np.searchsorted(borders, np.arange(dim), side="right")
    return (label[:, None] == label[None, :]).astype(float)


def ring_kernel(d: float, dim: int) -> np.ndarray:
    """Exact dephasing kernel of annuli [m d, (m+1) d) on Fock levels.

    The annulus effect is diagonal: pi^-1 int |a><a| d^2a over it has weight
    Q(n+1, lo^2) - Q(n+1, hi^2) on level n, Q the regularized upper gamma.
    """
    n = np.arange(dim)
    edges = d * np.arange(int(math.ceil(math.sqrt(4.0 * dim) / d)) + 2)
    tail = gammaincc(n[None, :] + 1.0, edges[:, None] ** 2)
    effect = np.clip(tail[:-1] - tail[1:], 0.0, None)
    effect[-1] += tail[-1]
    amp = np.sqrt(effect)
    return amp.T @ amp


def x_readout_overlap(delta_sq: float) -> float:
    """Width-delta position readout on a coherent state, by Gaussian moments.

    Dephasing in x adds 1/(2 delta^2) to the momentum variance; the Husimi
    momentum variances are then 1 and 1 + 1/(2 delta^2), positions unchanged.
    """
    s0, s1 = 1.0, 1.0 + 1.0 / (2.0 * delta_sq)
    return math.sqrt(2.0 * math.sqrt(s0 * s1) / (s0 + s1))


def quadrature_moments(case: str, delta: float, kappa: float, sigma: float, t: float) -> float:
    """Overlap of a smeared quadrature pair on a free Gaussian packet (mass 1).

    The packet has position variance sigma^2/2 and momentum variance
    1/(2 sigma^2). A first X readout of width delta adds 1/(2 delta^2) to the
    momentum variance, a first P readout of width kappa adds 1/(2 kappa^2) to
    the position variance; free flight for t adds t^2 var_p to var_x; the
    final readout adds its own width^2/2.
    """
    var_x, var_p = sigma**2 / 2.0, 1.0 / (2.0 * sigma**2)
    kick_x = 1.0 / (2.0 * kappa**2) if case[0] == "P" else 0.0
    kick_p = 1.0 / (2.0 * delta**2) if case[0] == "X" else 0.0
    if case[1] == "X":
        s0 = var_x + t * t * var_p + delta**2 / 2.0
        s1 = var_x + kick_x + t * t * (var_p + kick_p) + delta**2 / 2.0
    else:
        s0 = var_p + kappa**2 / 2.0
        s1 = var_p + kick_p + kappa**2 / 2.0
    return math.sqrt(2.0 * math.sqrt(s0 * s1) / (s0 + s1))


def check_overlap(spec: dict, values: np.ndarray) -> list[str]:
    """values: (rounds, items) overlaps in the order of spec['items']."""
    failures = []
    items = spec["items"]
    values = np.asarray(values)
    _fail(failures, values.shape[1] == len(items), f"overlap: {values.shape[1]} values for {len(items)} items")
    if values.shape[1] != len(items):
        return failures
    ok = np.isfinite(values) & (values >= 0.0) & (values <= 1.0 + 1e-9)
    _fail(failures, bool(ok.all()), "overlap: a value lies outside [0, 1]")

    def gamma(item):
        return complex(*item["gamma"])

    for i, item in enumerate(items):
        v = values[:, i]
        kind = item["kind"]
        if kind == "delta":
            gap = float(np.max(np.abs(v - IDEAL_DELTA)))
            _fail(failures, gap <= 2e-3, f"overlap: delta readout at {gamma(item):.3f} off 2sqrt2/3 by {gap:.2e}")
        elif kind == "cell":
            _fail(failures, bool(np.all(v >= IDEAL_DELTA - 2e-3)), f"overlap: cell side {item['side']} below the delta limit")
        elif kind == "coherent_x":
            gap = float(np.max(np.abs(v - x_readout_overlap(item["delta_sq"]))))
            _fail(failures, gap <= 1e-6, f"overlap: sharp position delta^2={item['delta_sq']:.4g} off the closed form by {gap:.2e}")
        elif kind == "quadrature":
            ref = quadrature_moments(item["case"], item["delta"], item["kappa"], item["sigma"], item["t"])
            gap = float(np.max(np.abs(v - ref)))
            _fail(failures, gap <= 1e-3, f"overlap: quadrature {item['case']} t={item['t']:.3f} off the moments by {gap:.2e}")
        elif kind == "ring":
            g = gamma(item)
            ref = dephased_husimi_overlap(g, ring_kernel(item["d"], _fock_dim(abs(g)) + 10), step=0.25)
            gap = float(np.max(np.abs(v - ref)))
            _fail(failures, gap <= 2e-4, f"overlap: ring d={item['d']} at |gamma|={abs(g):g} off the exact annuli by {gap:.2e}")

    rings = {(it["d"], it["where"]): i for i, it in enumerate(items) if it["kind"] == "ring"}
    for d in sorted({d for d, _ in rings}):
        mid, border = values[:, rings[(d, "mid")]], values[:, rings[(d, "border")]]
        _fail(failures, bool(np.all(mid > border)), f"overlap: ring d={d} mid-ring not above the border")
        if d >= 6.0:
            _fail(failures, bool(np.all(mid >= 0.999)), f"overlap: ring d={d} mid-ring below the 0.999 plateau")

    fock = [(i, it) for i, it in enumerate(items) if it["kind"] == "fock"]
    rules = sorted({it["rule"] for _, it in fock})
    top = _fock_dim(max(abs(gamma(it)) for _, it in fock))
    borders = {rule: fock_borders(rule, top) for rule in rules}
    pairs = [(f, c) for f in rules for c in rules if c != f and borders[c] <= borders[f]]
    by_gamma = {}
    for i, it in fock:
        by_gamma.setdefault(tuple(it["gamma"]), {})[it["rule"]] = i
    for g, index in by_gamma.items():
        for fine, coarse in pairs:
            if fine in index and coarse in index:
                worst = float(np.max(values[:, index[fine]] - values[:, index[coarse]]))
                _fail(failures, worst <= 1e-12, f"overlap: {coarse} below its refinement {fine} at |gamma|={abs(complex(*g)):g} by {worst:.2e}")
    for i in spec["fock_oracle_sample"]:
        it = items[i]
        g = gamma(it)
        ref = dephased_husimi_overlap(g, fock_kernel(it["rule"], _fock_dim(abs(g)) + 10))
        gap = float(np.max(np.abs(values[:, i] - ref)))
        _fail(failures, gap <= 1e-5, f"overlap: Fock {it['rule']} at |gamma|={abs(g):g} off the dephased Husimi by {gap:.2e}")
    return failures
