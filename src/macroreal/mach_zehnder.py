"""Two-path interferometer scenarios with closed-form condition residuals.

The interferometer is modeled as a qubit: basis state 0 is the path giving
outcome +1, basis state 1 the path giving outcome -1. Slot 0 measures before
the first beamsplitter, slot 1 between the beamsplitters, slot 2 at the end.

Four unitary conventions are provided because the relative phase placement
and the post-beamsplitter path relabeling differ between optical layouts.
The default 'crossed-p0' convention (mirror crossing after the second
beamsplitter, phase plate on path 0) is the one whose closed forms below are
exact; verify_lattice can recalibrate the choice automatically.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time as _time

import numpy as np

from macroreal.conditions import (
    DEFAULT_THRESHOLD,
    lgi_values,
    mr012_residuals,
    nsit_residual,
)
from macroreal.hilbert import DensityState
from macroreal.instruments import projective_family
from macroreal.scenario import Scenario, ScenarioBatch, Slot

CONDITION_NAMES = (
    "NSIT_(0)1",
    "NSIT_(1)2",
    "NSIT_0(1)2",
    "NSIT_(0)12",
    "LGI_012",
    "AoT",
    "MR_012",
)


@dataclasses.dataclass(frozen=True)
class MZParams:
    """Interferometer setting: reflectivities, phase and initial qubit state.

    c is the off-diagonal element of the initial density matrix; None means
    the incoherent mixture diag(q, 1-q).
    """

    r1: float
    r2: float
    phi: float
    q: float = 0.5
    c: complex | None = None

    def __post_init__(self):
        for name in ("r1", "r2", "q"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi}")
        if self.c is not None:
            limit = self.q * (1.0 - self.q)
            # "not <=" also rejects a NaN or infinite c
            if not abs(self.c) ** 2 <= limit + 1e-12:
                raise ValueError(
                    f"|c|^2 = {abs(self.c) ** 2:.3g} is not within q(1-q) = {limit:.3g}"
                )

    @property
    def coherence(self) -> complex:
        return 0j if self.c is None else complex(self.c)

    def describe(self) -> dict:
        c = None if self.c is None else [complex(self.c).real, complex(self.c).imag]
        return {"r1": self.r1, "r2": self.r2, "phi": self.phi, "q": self.q, "c": c}


def _state_matrices(q, c) -> np.ndarray:
    """Initial density matrices [[q, c], [c*, 1 - q]], stacked over array inputs."""
    q = np.asarray(q, dtype=float)
    c = np.asarray(c, dtype=complex)
    m = np.empty(q.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = q
    m[..., 0, 1] = c
    m[..., 1, 0] = c.conj()
    m[..., 1, 1] = 1.0 - q
    return m


def initial_state(params: MZParams) -> DensityState:
    return DensityState(_state_matrices(params.q, params.coherence))


def beamsplitter(r) -> np.ndarray:
    """Lossless beamsplitter of reflectivity r, i-phase on the cross terms.

    An array of reflectivities gives the (..., 2, 2) stack of beamsplitters.
    """
    r = np.asarray(r, dtype=float)
    t = np.sqrt(1.0 - r).astype(complex)
    x = 1j * np.sqrt(r)
    return np.stack([np.stack([t, x], axis=-1), np.stack([x, t], axis=-1)], axis=-2)


def _unitaries(r1, r2, phi, convention: str):
    u01 = beamsplitter(r1)
    # the second beamsplitter after a phase plate on one arm: that arm's column
    # of the beamsplitter times exp(i phi)
    u12 = beamsplitter(r2)
    arm = 0 if convention.endswith("p0") else 1
    u12[..., arm] *= np.exp(1j * np.asarray(phi, dtype=float))[..., None]
    if convention.startswith("crossed"):
        # the crossed layout relabels the two output paths: the rows swap
        u12 = u12[..., ::-1, :]
    elif not convention.startswith("straight"):
        raise ValueError(f"unknown convention {convention!r}")
    return u01, u12


def mz_unitaries(params: MZParams, convention: str = "crossed-p0"):
    """(U01, U12) for the chosen layout convention."""
    return _unitaries(params.r1, params.r2, params.phi, convention)


CONVENTIONS = ("crossed-p0", "crossed-p1", "straight-p0", "straight-p1")


def which_path_family():
    """Projective path readout, outcome +1 for path 0 and -1 for path 1."""
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    return projective_family([p0, p1], [1, -1], label="which_path")


# Every interferometer scenario reads the path with the same family at t = 0, 1, 2.
WHICH_PATH = which_path_family()
MZ_SLOTS = tuple(Slot(float(k), WHICH_PATH) for k in range(3))


def mz_scenario(params: MZParams) -> Scenario:
    """The three-slot scenario of one setting in the 'crossed-p0' convention."""
    return Scenario(initial_state(params), MZ_SLOTS, mz_unitaries(params))


def _setting_arrays(points):
    """(r1, r2, phi, q, c) of a list of settings as five (N,) arrays."""
    return tuple(
        np.array([getattr(p, name) for p in points])
        for name in ("r1", "r2", "phi", "q", "coherence")
    )


def _batch(settings, convention: str) -> ScenarioBatch:
    r1, r2, phi, q, c = settings
    return ScenarioBatch(_state_matrices(q, c), MZ_SLOTS, _unitaries(r1, r2, phi, convention))


def mz_batch(points, convention: str = "crossed-p0") -> ScenarioBatch:
    """The scenarios of many settings as one batch, in the order given."""
    return _batch(_setting_arrays(points), convention)


# ---------------------------------------------------------------------------
# Closed forms (exact for the 'crossed-p0' convention)


def _lgi_k(r1, r2, phi):
    """Left side of the three-time Leggett-Garg inequality, state independent."""
    alpha = np.sqrt(r1 * r2 * (1.0 - r1) * (1.0 - r2))
    return 1.0 - 4.0 * (r1 + alpha * np.cos(phi) - r1 * r2)


def _closed_forms(r1, r2, phi, q, c) -> np.ndarray:
    """Closed-form residuals of (N,) setting arrays; column k holds CONDITION_NAMES[k]."""
    root1 = np.sqrt(r1 * (1.0 - r1))
    root2 = np.sqrt(r2 * (1.0 - r2))
    cos = np.cos(phi)
    nsit01 = 2.0 * root1 * np.abs(c.imag)
    nsit12 = 2.0 * root2 * np.abs(
        (c.imag * (1.0 - 2.0 * r1) + root1 * (1.0 - 2.0 * q)) * cos + c.real * np.sin(phi)
    )
    sandwich = 2.0 * (root1 * root2) * np.abs(cos) * np.maximum(q, 1.0 - q)
    leading = nsit01 * np.maximum(r2, 1.0 - r2)
    lgi = np.maximum(0.0, _lgi_k(r1, r2, phi) - 1.0)
    mr012 = np.maximum.reduce([nsit12, sandwich, leading])
    return np.stack([nsit01, nsit12, sandwich, leading, lgi, np.zeros_like(lgi), mr012], axis=1)


def lgi_k_value(params: MZParams) -> float:
    """Left side of the three-time Leggett-Garg inequality at one setting."""
    return float(_lgi_k(params.r1, params.r2, params.phi))


def analytic_residuals(params: MZParams) -> dict:
    """Closed-form residuals at one setting: the one-point case of the batch closed forms."""
    return dict(zip(CONDITION_NAMES, _closed_forms(*_setting_arrays([params]))[0].tolist()))


def batch_numeric_residuals(points, convention: str = "crossed-p0") -> dict:
    """numeric_residuals of many settings at once: condition name -> (N,) array.

    All seven conditions are read off the batch's seven experiment tables (one
    per nonempty slot subset, all from one kernel pass for the whole batch) by
    the functions of conditions.py. Each pairwise table is its own experiment,
    not a marginal of the full joint.
    """
    return _table_residuals(mz_batch(points, convention).tables)


def _table_residuals(t) -> dict:
    members = mr012_residuals(t)
    lgi = lgi_values(t)
    return {
        "NSIT_(0)1": nsit_residual(t, 0, 1),
        **members,
        "LGI_012": lgi["residual"],
        # member max keeps the bundle verdict on the same sup-norm scale as
        # the closed forms; the TV mismatch stays inside mr012_check.
        "MR_012": np.maximum.reduce(list(members.values())),
        "_K": lgi["K"],
    }


def numeric_residuals(params: MZParams, convention: str = "crossed-p0") -> dict:
    """Same conditions evaluated through the full scenario pipeline.

    This is the one-setting case of batch_numeric_residuals.
    """
    return {
        name: float(v[0]) for name, v in batch_numeric_residuals([params], convention).items()
    }


def _residual_arrays(settings, convention: str):
    """Closed-form and pipeline residuals of (r1, r2, phi, q, c) arrays, as two (N, 7) arrays.

    Column k holds condition CONDITION_NAMES[k]. Both sides run as one batch.
    """
    numeric = _table_residuals(_batch(settings, convention).tables)
    return _closed_forms(*settings), np.stack([numeric[name] for name in CONDITION_NAMES], axis=1)


def _point(settings, has_c, i) -> MZParams:
    """Setting i of the (r1, r2, phi, q, c) arrays; has_c[i] False is a mixture."""
    r1, r2, phi, q, c = (a[i].item() for a in settings)
    return MZParams(r1, r2, phi, q, c if has_c[i] else None)


@dataclasses.dataclass
class LatticeReport:
    """Result of sweeping the closed forms against the numeric pipeline.

    settings holds the (r1, r2, phi, q, c) arrays of the points and has_c
    marks those given a coherence (a c of 0 included); points builds them as
    MZParams on first read. analytic and numeric are (n_points, 7) residual
    arrays, one row per point and one column per CONDITION_NAMES entry. A
    condition holds at residual <= threshold; a verdict is compared unless the
    closed-form residual sits inside the guard band threshold < a < guard.
    """

    convention: str
    calibration: dict
    settings: tuple
    has_c: np.ndarray
    analytic: np.ndarray
    numeric: np.ndarray
    threshold: float
    guard: float
    elapsed_s: float

    def __post_init__(self):
        a, n, t = self.analytic, self.numeric, self.threshold
        self.analytic_holds = a <= t
        self.numeric_holds = n <= t
        self.compared = ~((t < a) & (a < self.guard))
        self.agree = self.analytic_holds == self.numeric_holds
        self.n_comparisons = int(self.compared.sum())
        self.n_skipped_guard = self.compared.size - self.n_comparisons
        self.max_formula_error = float(np.abs(a - n).max(initial=0.0))
        self.mismatches = [
            {
                "params": _point(self.settings, self.has_c, i).describe(),
                "condition": CONDITION_NAMES[k],
                "analytic": float(a[i, k]),
                "numeric": float(n[i, k]),
            }
            for i, k in zip(*np.nonzero(self.compared & ~self.agree))
        ]

    @functools.cached_property
    def points(self) -> list:
        return [_point(self.settings, self.has_c, i) for i in range(self.n_points)]

    @property
    def n_points(self) -> int:
        return len(self.has_c)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "convention": self.convention,
            "calibration": self.calibration,
            "n_points": self.n_points,
            "n_comparisons": self.n_comparisons,
            "n_skipped_guard": self.n_skipped_guard,
            "n_mismatches": len(self.mismatches),
            "mismatches": self.mismatches[:50],
            "max_formula_error": self.max_formula_error,
            "threshold": self.threshold,
            "guard": self.guard,
            "elapsed_s": self.elapsed_s,
            "ok": self.ok,
        }


def default_state_grid():
    """Mixtures and superpositions exercising every condition branch."""
    states = []
    for q in (0.0, 0.3, 0.5):
        states.append({"q": q, "c": None})
    for q, c in (
        (0.5, 0.45),
        (0.5, 0.3j),
        (0.3, 0.2 + 0.35j),
        (0.5, -0.2 - 0.2j),
    ):
        states.append({"q": q, "c": c})
    return states


def verify_lattice(
    r_values=None,
    phi_values=None,
    states=None,
    *,
    r2_values=None,
    extra_points=(),
    threshold: float = DEFAULT_THRESHOLD,
    guard: float = 1e-6,
    convention: str | None = None,
) -> LatticeReport:
    """Check closed-form verdicts against the numeric pipeline on a lattice.

    Every (r1, r2, phi, state) combination, followed by the MZParams in
    extra_points, is evaluated both ways, the numeric side as one batch;
    LatticeReport compares the verdicts. r2_values defaults to r_values. With
    convention=None the layout is calibrated first on a few probe points. The
    lattice is built as (r1, r2, phi, q, c) arrays from its axes and states,
    which are checked one by one through MZParams.
    """
    t0 = _time.perf_counter()
    if r_values is None:
        r_values = np.linspace(0.0, 1.0, 11)
    if r2_values is None:
        r2_values = r_values
    if phi_values is None:
        phi_values = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
    if states is None:
        states = default_state_grid()

    calibration = {}
    if convention is None:
        convention, calibration = calibrate_convention()

    axes = [[float(v) for v in values] for values in (r_values, r2_values, phi_values)]
    if all(axes) and states:
        # every axis value and state is in some point: each goes through MZParams once
        r1s, r2s, phis = axes
        for r1 in r1s:
            MZParams(r1, 0.0, 0.0)
        for r2 in r2s:
            MZParams(0.0, r2, 0.0)
        for phi in phis:
            MZParams(0.0, 0.0, phi)
        for st in states:
            MZParams(0.0, 0.0, 0.0, st["q"], st["c"])
    *grid, k = (a.ravel() for a in np.meshgrid(*axes, np.arange(len(states)), indexing="ij"))
    grid.append(np.array([st["q"] for st in states], dtype=float)[k])
    grid.append(np.array([0j if st["c"] is None else st["c"] for st in states], dtype=complex)[k])
    has_c = np.array([st["c"] is not None for st in states], dtype=bool)[k]
    has_c = np.concatenate([has_c, np.array([p.c is not None for p in extra_points], dtype=bool)])
    settings = tuple(map(np.concatenate, zip(grid, _setting_arrays(extra_points))))
    analytic, numeric = _residual_arrays(settings, convention)
    return LatticeReport(
        convention=convention,
        calibration=calibration,
        settings=settings,
        has_c=has_c,
        analytic=analytic,
        numeric=numeric,
        threshold=threshold,
        guard=guard,
        elapsed_s=_time.perf_counter() - t0,
    )


def calibrate_convention():
    """Pick the layout convention whose closed forms match numerically.

    Evaluates a handful of probe settings under every convention and returns
    the one with the smallest worst-case formula error, with the error table
    for the report.
    """
    probe_points = [
        MZParams(0.3, 0.6, 0.7, 0.4, 0.2 + 0.3j),
        MZParams(0.25, 0.75, math.pi, 0.5, None),
        MZParams(0.5, 0.5, 1.1, 0.5, 0.45),
        MZParams(0.7, 0.2, 2.0, 0.2, 0.1 - 0.3j),
    ]
    settings = _setting_arrays(probe_points)
    errors = {}
    for conv in CONVENTIONS:
        analytic, numeric = _residual_arrays(settings, conv)
        errors[conv] = float(np.abs(analytic - numeric).max(initial=0.0))
    best = min(errors, key=errors.get)
    return best, {"errors": errors, "chosen": best}


def lgi_max_search(n_grid: int = 41) -> dict:
    """Locate the largest three-time Leggett-Garg value over all settings.

    Coarse grid over (r1, r2, phi) on the closed form, Nelder-Mead refinement,
    and a numeric cross-check of the winner through the scenario pipeline.
    The state does not enter: the correlators are state independent.
    """
    # imported here: every command loads this module, and only this search needs it
    from scipy import optimize

    rs = np.linspace(0.0, 1.0, n_grid)
    phis = np.linspace(0.0, 2.0 * math.pi, 2 * n_grid, endpoint=False)
    # cos(phi) = -1 maximizes K whenever alpha > 0; scanning phi anyway
    # keeps the search honest about the phase dependence.
    k = _lgi_k(rs[:, None, None], rs[None, :, None], phis)
    # argmax keeps the first maximum in (r1, r2, phi) order
    i, j, m = np.unravel_index(np.argmax(k), k.shape)
    k_grid = float(k[i, j, m])
    r1, r2, phi = float(rs[i]), float(rs[j]), float(phis[m])
    grid_params = {"r1": r1, "r2": r2, "phi": phi}

    def neg_k(v):
        r1c = min(max(v[0], 0.0), 1.0)
        r2c = min(max(v[1], 0.0), 1.0)
        return -lgi_k_value(MZParams(r1c, r2c, v[2]))

    opt = optimize.minimize(
        neg_k, [r1, r2, phi], method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-12}
    )
    r1, r2, phi = float(min(max(opt.x[0], 0.0), 1.0)), float(
        min(max(opt.x[1], 0.0), 1.0)
    ), float(opt.x[2])
    params = MZParams(r1, r2, phi)
    return {
        "grid_K": k_grid,
        "grid_params": grid_params,
        "K": lgi_k_value(params),
        "K_numeric": numeric_residuals(params)["_K"],
        "params": {"r1": r1, "r2": r2, "phi": phi},
    }


def two_time_counterexample_search() -> dict:
    """Find settings where all two-time NSIT conditions hold but the bundle fails.

    Scans balanced-reflectivity superposition states: the two-time residuals
    vanish when c is real and phi = 0, while the sandwich condition keeps a
    finite residual proportional to the interference visibility. Real
    coherences run from 0.05 below 0.5 in steps of 0.05.
    """
    points = [MZParams(0.5, 0.5, 0.0, 0.5, float(cre)) for cre in np.arange(0.05, 0.5, 0.05)]
    analytic = _closed_forms(*_setting_arrays(points))
    nsit02 = nsit_residual(mz_batch(points).tables, 0, 2)
    two_time = np.maximum.reduce([analytic[:, 0], analytic[:, 1], nsit02])
    best = None
    for params, tt, score in zip(points, two_time.tolist(), analytic[:, 2].tolist()):
        if tt < 1e-12 and (best is None or score > best["sandwich"]):
            best = {"params": params.describe(), "two_time_max": tt, "sandwich": score}
    return best
