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
import functools
import math

import numpy as np

from macroreal.hilbert import operator_norm, unitary_from_hamiltonian
from macroreal.instruments import KrausFamily, not_projectors
from macroreal.scenario import Scenario, table_key

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
_BUNDLE = tuple(COMPARISONS.values())
_COLUMN = {name: c for c, name in enumerate(COMPARISONS)}
_AOT = [_COLUMN[f"AoT_{i}({j})"] for i, j in PAIRS]


# ---------------------------------------------------------------------------
# Conditions as functions of a Tables; each returns an (N,) array.
#
# Every condition is read off the flat (N, prod(1 + n_k)) view of tables.every
# through index arrays compiled once per table shape: a gather, one segment
# sum and a per-segment reduction, with no product over the item axis, so a
# batch item reads exactly its one-scenario value.


def _flat(tables) -> np.ndarray:
    every = tables.every
    # each item's size is read off the shape: reshape(N, -1) cannot infer it at N = 0
    return every.reshape(len(every), math.prod(every.shape[1:]))


def _entries(shape: tuple, measured: tuple) -> np.ndarray:
    """Indices into the flat full table of shape (1 + n_0, 1 + n_1, ...) of
    the entries of tables[measured], as an (n_a, n_b, ...) array."""
    measured = table_key(len(shape), measured)
    strides = np.cumprod((1, *shape[:0:-1]))[::-1]
    index = np.zeros((), dtype=np.intp)
    for k in measured:
        index = np.add.outer(index, strides[k] * np.arange(1, shape[k]))
    return index


def _frozen(*arrays) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _starts(sizes) -> np.ndarray:
    return np.cumsum(sizes) - sizes


@functools.lru_cache(maxsize=128)
def _comparison_map(shape: tuple, comparisons: tuple) -> tuple:
    """Index arrays of the (keep, of) comparisons over the flat full table.

    keep lists the entries of each tables[keep] in turn, and summands the
    entries of tables[of] that their marginals sum, those of keep entry e from
    starts[e] on; comparison c covers the keep entries from bounds[c] on.
    """
    keep, summands = [], []
    for kept, of in comparisons:
        keep.append(_entries(shape, kept).ravel())
        grid = _entries(shape, of)
        if not set(kept) <= set(of):
            raise ValueError(f"slots {kept} are not all measured in the experiment {of}")
        axes = [of.index(s) for s in kept] + [a for a, s in enumerate(of) if s not in kept]
        summands.append(grid.transpose(axes).reshape(keep[-1].size, -1))
    lengths = np.concatenate([np.full(len(group), group.shape[1]) for group in summands])
    return _frozen(
        np.concatenate(keep),
        np.concatenate([group.ravel() for group in summands]),
        _starts(lengths),
        _starts([k.size for k in keep]),
    )


def _gaps(tables, comparisons: tuple) -> tuple[np.ndarray, np.ndarray]:
    """|tables[keep] - marginal of tables[of]| of every comparison, entry by
    entry in one (N, entries) array, and the column where each comparison starts."""
    flat = _flat(tables)
    keep, summands, starts, bounds = _comparison_map(tables.every.shape[1:], comparisons)
    return np.abs(flat[:, keep] - np.add.reduceat(flat[:, summands], starts, axis=1)), bounds


def _signaling(tables, of: tuple, keep: tuple) -> np.ndarray:
    """Largest shift of the keep-slot statistics when the slots of are measured too."""
    return _gaps(tables, ((keep, of),))[0].max(axis=1)


def nsit_residual(tables, i: int, j: int) -> np.ndarray:
    """NSIT_(i)j: measuring slot i must not shift the statistics at slot j."""
    return _signaling(tables, (i, j), (j,))


def aot_residual(tables, i: int, j: int) -> np.ndarray:
    """AoT_i(j): measuring slot j must not rewrite the statistics at slot i."""
    return _signaling(tables, (i, j), (i,))


def bundle_distances(tables) -> tuple[np.ndarray, np.ndarray]:
    """Sup and total variation of every comparison of COMPARISONS, two (N, 10) arrays.

    Column c compares tables[keep] with the marginal of tables[of] for the
    c-th (keep, of); all ten are reduced from one gap array, one segment per
    comparison.
    """
    gaps, bounds = _gaps(tables, _BUNDLE)
    return np.maximum.reduceat(gaps, bounds, axis=1), 0.5 * np.add.reduceat(gaps, bounds, axis=1)


@functools.lru_cache(maxsize=128)
def _correlator_map(shape: tuple, pairs: tuple, labels: tuple) -> tuple:
    """Index, coefficient and start arrays of the (i, j, of) correlators.

    Correlator c sums entry index[e] of the flat full table times coef[e] =
    q_i q_j over the entries of tables[of] from starts[c] on; labels[k] are
    the outcome labels of slot k, None where no pair reads them.
    """
    index, coef = [], []
    for i, j, of in pairs:
        table_key(len(shape), (i, j))
        if not {i, j} <= set(of):
            raise ValueError(f"slots {(i, j)} are not all measured in the experiment {of}")
        grid, q = _entries(shape, of), np.ones(())
        for s in of:
            q = np.multiply.outer(q, labels[s] if s in (i, j) else np.ones(shape[s] - 1))
        index.append(grid.ravel())
        coef.append(q.ravel())
    return _frozen(np.concatenate(index), np.concatenate(coef), _starts([x.size for x in index]))


def _correlators(tables, pairs: tuple) -> np.ndarray:
    """<q_i q_j> in the experiment measuring the slots of, for each (i, j, of)
    of pairs: an (N, len(pairs)) array."""
    used = {k for i, j, _ in pairs for k in (i, j)}
    labels = tuple(
        tuple(np.asarray(s.instrument.outcomes, dtype=float).tolist()) if k in used else None
        for k, s in enumerate(tables.slots)
    )
    index, coef, starts = _correlator_map(tables.every.shape[1:], pairs, labels)
    return np.add.reduceat(_flat(tables)[:, index] * coef, starts, axis=1)


def correlator(tables, i: int, j: int, of: tuple | None = None) -> np.ndarray:
    """<q_i q_j> for numeric outcome labels, in the experiment measuring the
    slots of (by default just i and j)."""
    return _correlators(tables, ((i, j, (i, j) if of is None else of),))[:, 0]


def lgi_values(tables) -> dict:
    """C01 + C12 - C02 <= 1: each correlator from its own two-slot experiment,
    K the left side and residual the amount by which K exceeds 1."""
    c01, c12, c02 = _correlators(tables, ((0, 1, (0, 1)), (1, 2, (1, 2)), (0, 2, (0, 2)))).T
    k = c01 + c12 - c02
    return {"residual": np.maximum(k - 1.0, 0.0), "K": k, "C01": c01, "C12": c12, "C02": c02}


def nic_values(tables) -> dict:
    """NIC_0(1)2: C02 with and without the middle measurement, and their distance."""
    bare, probed = _correlators(tables, ((0, 2, (0, 2)), (0, 2, FULL))).T
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
            "context": dict(self.context),
        }


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
    labeled +-1, repeated labels allowed. The residual is the amount by
    which the bound is exceeded.
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
    the full three-slot joint (total variation and sup norm), and
    mismatch_detail maps each comparison name to its {"sup", "tv"} dict.
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
            "mismatch_detail": {name: dict(d) for name, d in self.mismatch_detail.items()},
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
    sups, tvs = sup[0, : len(MISMATCH)].tolist(), tv[0, : len(MISMATCH)].tolist()
    detail = {name: {"sup": s, "tv": t} for name, s, t in zip(COMPARISONS, sups, tvs)}
    members = {name: _report(name, values, threshold) for name, values in _members(sup).items()}
    return MR012Report(
        members=members,
        mismatch_tv=max(tvs),
        mismatch_sup=max(sups),
        mismatch_threshold=mismatch_threshold,
        mismatch_detail=detail,
    )


def _require_three_slots(scenario: Scenario) -> None:
    if scenario.n_slots != 3:
        raise ValueError(f"this condition needs a 3-slot scenario, got {scenario.n_slots}")


def _require_dichotomic(scenario: Scenario, slots=None) -> None:
    """Raise unless every outcome of the slots is labelled +1 or -1.

    Labels may repeat, as for the N level projectors of a dichotomic observable.
    """
    for k in slots if slots is not None else range(scenario.n_slots):
        out = scenario.slots[k].instrument.outcomes
        if out.ndim != 1 or not set(out.tolist()) <= {1, -1}:
            raise ValueError(f"slot {k} must have outcomes labelled +1 or -1")


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
