"""Macrorealism conditions on scenarios and on instrument pairs.

Statistical side: no-signaling-in-time (NSIT) residuals, arrow-of-time (AoT)
residuals, the three-time Leggett-Garg inequality and the no-invasive
correlation (NIC) condition, plus a bundle check that compares all seven
experiments of a three-slot scenario against the marginals of the full joint.
Each is written once, as a function of a table dict (Scenario.tables or
ScenarioBatch.tables) that returns one value per scenario; the report
functions read item 0 of a scenario's tables.

Operator side: an instrument-level NSIT residual that bounds the statistical
one uniformly over states, and commutator diagnostics that separate operator
commutation from statistical non-invasiveness.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from macroreal.hilbert import operator_norm, unitary_from_hamiltonian
from macroreal.instruments import KrausFamily, not_projectors
from macroreal.scenario import Scenario

DEFAULT_THRESHOLD = 1e-9

PAIRS = ((0, 1), (0, 2), (1, 2))
FULL = (0, 1, 2)
MISMATCH = ((0,), (1,), (2,), *PAIRS)
# name -> (keep, of) of every comparison of tables[keep] with the marginal of
# tables[of]: the six mismatch subsets against the full joint, then NSIT_(1)2
# and AoT_i(j). Column c of bundle_distances is the c-th comparison.
COMPARISONS = {
    **{"P" + "".join(map(str, keep)): (keep, FULL) for keep in MISMATCH},
    "NSIT_(1)2": ((2,), (1, 2)),
    **{f"AoT_{i}({j})": ((i,), (i, j)) for i, j in PAIRS},
}
_COLUMN = {name: c for c, name in enumerate(COMPARISONS)}
_AOT = [_COLUMN[f"AoT_{i}({j})"] for i, j in PAIRS]


# ---------------------------------------------------------------------------
# Conditions as functions of a table dict; each returns an (N,) array.


def _marginal(tables, of: tuple, keep: tuple) -> np.ndarray:
    """Marginal on the slots keep of the experiment that measures the slots of."""
    return tables[of].sum(axis=tuple(1 + a for a, s in enumerate(of) if s not in keep))


def _sup(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a - b).max(axis=tuple(range(1, a.ndim)))


def _signaling(tables, of: tuple, keep: tuple) -> np.ndarray:
    """Largest shift of the keep-slot statistics when the slots of are measured too."""
    return _sup(tables[keep], _marginal(tables, of, keep))


def nsit_residual(tables, i: int, j: int) -> np.ndarray:
    """NSIT_(i)j: measuring slot i must not shift the statistics at slot j."""
    return _signaling(tables, (i, j), (j,))


def aot_residual(tables, i: int, j: int) -> np.ndarray:
    """AoT_i(j): measuring slot j must not rewrite the statistics at slot i."""
    return _signaling(tables, (i, j), (i,))


def bundle_distances(tables) -> tuple[np.ndarray, np.ndarray]:
    """Sup and total variation of every comparison of COMPARISONS, two (N, 10) arrays.

    Column c compares tables[keep] with the marginal of tables[of] for the
    c-th (keep, of); all ten differences are reduced from one concatenated
    array, one segment per comparison.
    """
    gaps = [tables[keep] - _marginal(tables, of, keep) for keep, of in COMPARISONS.values()]
    # each item's size is read off the shape: reshape(N, -1) cannot infer it at N = 0
    gaps = [g.reshape(len(g), math.prod(g.shape[1:])) for g in gaps]
    starts = np.cumsum([0] + [g.shape[1] for g in gaps[:-1]])
    gaps = np.abs(np.concatenate(gaps, axis=1))
    return np.maximum.reduceat(gaps, starts, axis=1), 0.5 * np.add.reduceat(gaps, starts, axis=1)


def correlator(tables, i: int, j: int, of: tuple | None = None) -> np.ndarray:
    """<q_i q_j> for numeric outcome labels, in the experiment measuring the
    slots of (by default just i and j)."""
    values = tables[(i, j)] if of is None else _marginal(tables, of, (i, j))
    oi = np.asarray(tables.slots[i].instrument.outcomes, dtype=float)
    oj = np.asarray(tables.slots[j].instrument.outcomes, dtype=float)
    return (oi[:, None] * values * oj).sum(-1).sum(-1)


def lgi_values(tables) -> dict:
    """C01 + C12 - C02 <= 1: each correlator from its own two-slot experiment,
    K the left side and residual the amount by which K exceeds 1."""
    c01, c12, c02 = correlator(tables, 0, 1), correlator(tables, 1, 2), correlator(tables, 0, 2)
    k = c01 + c12 - c02
    return {"residual": np.maximum(k - 1.0, 0.0), "K": k, "C01": c01, "C12": c12, "C02": c02}


def nic_values(tables) -> dict:
    """NIC_0(1)2: C02 with and without the middle measurement, and their distance."""
    bare = correlator(tables, 0, 2)
    probed = correlator(tables, 0, 2, of=FULL)
    return {"residual": np.abs(bare - probed), "C02": bare, "C02_with_middle": probed}


def _members(sup: np.ndarray) -> dict:
    """The bundle's named conditions from the sup columns of bundle_distances:
    NSIT_0(1)2 is the mismatch of P02, NSIT_(0)12 that of P12, and AoT the
    worst AoT_i(j)."""
    return {
        "NSIT_(1)2": sup[:, _COLUMN["NSIT_(1)2"]],
        "NSIT_0(1)2": sup[:, _COLUMN["P02"]],
        "NSIT_(0)12": sup[:, _COLUMN["P12"]],
        "AoT": sup[:, _AOT].max(axis=1),
    }


def mr012_residuals(tables) -> dict:
    """NSIT_(1)2, NSIT_0(1)2, NSIT_(0)12 and AoT: the members mr012_check
    reports, read off one bundle_distances pass."""
    return _members(bundle_distances(tables)[0])


# ---------------------------------------------------------------------------
# Reports on one scenario


@dataclasses.dataclass(frozen=True)
class ConditionReport:
    """Outcome of a single condition test."""

    name: str
    residual: float
    threshold: float
    context: dict = dataclasses.field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.residual <= self.threshold

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": float(self.residual),
            "threshold": float(self.threshold),
            "holds": bool(self.holds),
            "context": _json_safe(self.context),
        }


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def _report(name: str, values, threshold: float) -> ConditionReport:
    """Report on item 0 of an (N,) residual array, or of a values dict with a residual."""
    if not isinstance(values, dict):
        return ConditionReport(name, float(values[0]), threshold)
    context = {key: float(v[0]) for key, v in values.items() if key != "residual"}
    return ConditionReport(name, float(values["residual"][0]), threshold, context)


def _check_pair(scenario: Scenario, i: int, j: int) -> None:
    if not 0 <= i < j < scenario.n_slots:
        raise ValueError(f"need slot indices i < j, got ({i}, {j})")


def nsit_two_time(
    scenario: Scenario, i: int, j: int, threshold: float = DEFAULT_THRESHOLD
) -> ConditionReport:
    """NSIT_(i)j: measuring slot i must not shift the statistics at slot j."""
    _check_pair(scenario, i, j)
    return _report(f"NSIT_({i}){j}", nsit_residual(scenario.tables, i, j), threshold)


def nsit_sandwich(scenario: Scenario, threshold: float = DEFAULT_THRESHOLD) -> ConditionReport:
    """NSIT_0(1)2 on a three-slot scenario: the middle slot must be ignorable."""
    return mr012_check(scenario, threshold).members["NSIT_0(1)2"]


def nsit_leading(scenario: Scenario, threshold: float = DEFAULT_THRESHOLD) -> ConditionReport:
    """NSIT_(0)12 on a three-slot scenario: the first slot must be ignorable."""
    return mr012_check(scenario, threshold).members["NSIT_(0)12"]


def aot_check(
    scenario: Scenario, i: int, j: int, threshold: float = DEFAULT_THRESHOLD
) -> ConditionReport:
    """AoT_i(j): a later measurement must not rewrite earlier statistics.

    Quantum instruments satisfy this identically (trace preservation), so the
    residual doubles as a sanity check on the numerics.
    """
    _check_pair(scenario, i, j)
    return _report(f"AoT_{i}({j})", aot_residual(scenario.tables, i, j), threshold)


def lgi_012(scenario: Scenario, threshold: float = DEFAULT_THRESHOLD) -> ConditionReport:
    """Three-time Leggett-Garg inequality C01 + C12 - C02 <= 1.

    Each correlator comes from its own two-slot experiment; outcomes must be
    labeled +-1. The residual is the amount by which the bound is exceeded.
    """
    _require_three_slots(scenario)
    _require_dichotomic(scenario)
    return _report("LGI_012", lgi_values(scenario.tables), threshold)


def nic_012(scenario: Scenario, threshold: float = DEFAULT_THRESHOLD) -> ConditionReport:
    """NIC_0(1)2: the outer correlator must not care about the middle slot."""
    _require_three_slots(scenario)
    _require_dichotomic(scenario, slots=(0, 2))
    return _report("NIC_0(1)2", nic_values(scenario.tables), threshold)


@dataclasses.dataclass(frozen=True)
class MR012Report:
    """Bundle verdict for three-slot macrorealism.

    members holds the named condition reports; the marginal mismatch compares
    each of the six partial experiments against the corresponding marginal of
    the full three-slot joint (total variation and sup norm).
    """

    members: dict
    mismatch_tv: float
    mismatch_sup: float
    mismatch_threshold: float
    mismatch_detail: dict

    @property
    def holds(self) -> bool:
        if self.mismatch_tv > self.mismatch_threshold:
            return False
        return all(r.holds for r in self.members.values())

    @property
    def worst_residual(self) -> float:
        return max([r.residual for r in self.members.values()] + [self.mismatch_tv])

    def to_dict(self) -> dict:
        return {
            "members": {k: v.to_dict() for k, v in self.members.items()},
            "mismatch_tv": float(self.mismatch_tv),
            "mismatch_sup": float(self.mismatch_sup),
            "mismatch_threshold": float(self.mismatch_threshold),
            "mismatch_detail": _json_safe(self.mismatch_detail),
            "holds": bool(self.holds),
        }


def mr012_check(
    scenario: Scenario,
    threshold: float = DEFAULT_THRESHOLD,
    mismatch_threshold: float | None = None,
) -> MR012Report:
    """Full three-slot macrorealism bundle.

    Reads all seven experiments (each nonempty subset of the three slots) and
    evaluates the named conditions NSIT_(1)2, NSIT_0(1)2, NSIT_(0)12 and AoT,
    plus the marginal mismatch of the six partial experiments against the
    full joint.
    """
    _require_three_slots(scenario)
    if mismatch_threshold is None:
        mismatch_threshold = threshold
    sup, tv = bundle_distances(scenario.tables)
    n = len(MISMATCH)
    detail = {
        name: {"sup": float(sup[0, c]), "tv": float(tv[0, c])}
        for c, name in enumerate(list(COMPARISONS)[:n])
    }
    members = {name: _report(name, values, threshold) for name, values in _members(sup).items()}
    return MR012Report(
        members=members,
        mismatch_tv=float(tv[0, :n].max()),
        mismatch_sup=float(sup[0, :n].max()),
        mismatch_threshold=mismatch_threshold,
        mismatch_detail=detail,
    )


def _require_three_slots(scenario: Scenario) -> None:
    if scenario.n_slots != 3:
        raise ValueError(f"this condition needs a 3-slot scenario, got {scenario.n_slots}")


def _require_dichotomic(scenario: Scenario, slots=None) -> None:
    for k in slots if slots is not None else range(scenario.n_slots):
        out = scenario.slots[k].instrument.outcomes
        if out.shape != (2,) or set(out.astype(float).tolist()) != {1.0, -1.0}:
            raise ValueError(f"slot {k} must have outcomes +1 and -1")


# ---------------------------------------------------------------------------
# Operator-level criteria


def nsit_operator_residual(
    first: KrausFamily, second: KrausFamily, between: np.ndarray | None = None
) -> float:
    """State-independent NSIT residual of `first` acting before `second`.

    For every outcome b of the later instrument the effective POVM element
    with and without the earlier nonselective measurement is compared:

        M_b = sum_a w_a A_a' E_b A_a  -  B_b' (sum_a w_a A_a' A_a) B_b

    with E_b = B_b' B_b conjugated through the interslot unitary when given;
    the first sum is the channel of first.adjoint(), the dual map.
    Returns the largest spectral norm over b; it upper-bounds the statistical
    NSIT residual for every input state. Both families must be complete
    within 1e-6.
    """
    if first.dim != second.dim:
        raise ValueError("instrument dimensions differ")
    for fam, role in ((first, "first"), (second, "second")):
        if fam.completeness_defect > 1e-6:
            raise ValueError(
                f"{role} family completeness defect {fam.completeness_defect:.3g} exceeds 1e-06"
            )
    bb = second.dense_ops()
    if between is not None:
        bb = bb @ between
    bh = bb.conj().swapaxes(-1, -2)
    return operator_norm(first.adjoint().channel(bh @ bb) - bh @ first.completeness_operator() @ bb)


def commutator_tests(first: KrausFamily, second: KrausFamily) -> dict:
    """Commutator diagnostics for an instrument pair.

    pairwise: largest spectral norm of [A_a, B_b] over all outcome pairs.
    sandwich: largest norm of sum_a w_a A_a' [E_b, A_a] with E_b = B_b' B_b,
    the combination that actually enters the operator NSIT residual; it is
    read as Phi*(E_b) - S E_b with S = sum_a w_a A_a' A_a.
    """
    bb = second.dense_ops()
    pairwise = max(operator_norm(a @ bb - bb @ a) for a in first.dense_ops())
    e = bb.conj().swapaxes(-1, -2) @ bb
    sandwich = operator_norm(first.adjoint().channel(e) - first.completeness_operator() @ e)
    return {"pairwise": pairwise, "sandwich": sandwich}


def projective_necessity_check(first: KrausFamily, second: KrausFamily) -> dict:
    """For projective pairs, non-invasiveness should mean exact commutation.

    Checks residual < tol = 1e-10 against pairwise commutation < 100 tol and
    reports whether the two verdicts agree. Raises if either family is not
    projective.
    """
    tol = 1e-10
    for fam, role in ((first, "first"), (second, "second")):
        bad = np.flatnonzero(not_projectors(fam.dense_ops()))
        if bad.size:
            raise ValueError(f"{role} family element {bad[0]} is not a projector")
    residual = nsit_operator_residual(first, second)
    comm = commutator_tests(first, second)
    non_invasive = residual < tol
    commuting = comm["pairwise"] < 100.0 * tol
    return {
        "residual": residual,
        "pairwise_commutator": comm["pairwise"],
        "sandwich_commutator": comm["sandwich"],
        "non_invasive": non_invasive,
        "commuting": commuting,
        "equivalent": non_invasive == commuting,
        "tol": tol,
        "commutator_tol": 100.0 * tol,
    }


def classical_operator(
    candidate: KrausFamily, references, between: np.ndarray | None = None
) -> float:
    """Worst operator NSIT residual of a candidate against reference readouts.

    Both orders are tested for every reference: the candidate disturbing the
    reference and the reference disturbing the candidate.
    """
    refs = list(references)
    if not refs:
        raise ValueError("need at least one reference family")
    return max(
        nsit_operator_residual(x, y, between)
        for ref in refs
        for x, y in ((candidate, ref), (ref, candidate))
    )


def classical_hamiltonian(
    candidate: KrausFamily,
    references,
    hamiltonian: np.ndarray,
    times,
) -> float:
    """classical_operator maximized over evolution intervals exp(-i H t)."""
    refs, times = list(references), list(times)
    if not times:
        raise ValueError("need at least one evolution time")
    return max(
        classical_operator(candidate, refs, unitary_from_hamiltonian(hamiltonian, float(t)))
        for t in times
    )
