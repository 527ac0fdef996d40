"""Sequential measurement scenarios and their joint outcome tables.

A scenario is an initial state, an ordered list of measurement slots and the
unitaries that propagate the system between neighboring slots. Any subset of
slots can be measured; unmeasured slots contribute no update at all, which is
what the no-signaling-in-time conditions probe.
"""

from __future__ import annotations

import dataclasses
import functools
import json

import numpy as np

from macroreal.hilbert import (
    DensityState,
    as_operator,
    as_operator_stack,
    check_density_stack,
    require_bytes,
    unitary_error,
)
from macroreal.instruments import KrausFamily


@dataclasses.dataclass(frozen=True)
class Slot:
    """One measurement opportunity: a time label and the instrument used there."""

    time: float
    instrument: KrausFamily


@dataclasses.dataclass(frozen=True)
class Scenario:
    initial: DensityState
    slots: tuple[Slot, ...]
    evolutions: tuple[np.ndarray, ...]

    def __post_init__(self):
        slots = tuple(self.slots)
        evos = tuple(as_operator(u) for u in self.evolutions)
        _check_layout(self.initial.dim, slots, [u[None] for u in evos])
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "evolutions", evos)

    @property
    def n_slots(self) -> int:
        return len(self.slots)

    @property
    def dim(self) -> int:
        return self.initial.dim

    @functools.cached_property
    def tables(self) -> Tables:
        """Experiment tables as a one-scenario batch: tables[measured][0]."""
        return Tables(self.initial.matrix[None], [u[None] for u in self.evolutions], self.slots)


@dataclasses.dataclass(frozen=True)
class ScenarioBatch:
    """N scenarios that share their slots and differ in state and evolutions.

    initial is an (N, d, d) stack of density matrices and evolutions[k] the
    (N, d, d) stack of unitaries from slot k to slot k + 1. Every matrix gets
    the checks and tolerances that DensityState and Scenario apply to one.
    """

    initial: np.ndarray
    slots: tuple[Slot, ...]
    evolutions: tuple[np.ndarray, ...]

    def __post_init__(self):
        initial = as_operator_stack(self.initial)
        check_density_stack(initial)
        slots = tuple(self.slots)
        evos = tuple(as_operator_stack(u) for u in self.evolutions)
        for k, u in enumerate(evos):
            if u.shape[0] != initial.shape[0]:
                raise ValueError(
                    f"evolution {k} stacks {u.shape[0]} matrices for {initial.shape[0]} states"
                )
        _check_layout(initial.shape[1], slots, evos)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "evolutions", evos)

    @property
    def n_slots(self) -> int:
        return len(self.slots)

    @functools.cached_property
    def tables(self) -> Tables:
        return Tables(self.initial, self.evolutions, self.slots)


class Tables(dict):
    """The experiment tables of N scenarios with shared slots.

    every is the read-only (N, 1 + n_0, 1 + n_1, ...) array of one kernel pass
    over every slot, weighted and run when first read: index 0 leaves a slot
    unmeasured and 1 + a reads its outcome a, so the table of any experiment
    is a slice of it. The key is the sorted tuple of measured slots, the value
    the read-only (N, n_a, n_b, ...) contiguous copy of that slice, made when
    the key is first looked up. Every table read off one scenario thus comes
    from the same pass, whatever is read first. A key that is not a sorted
    tuple of distinct slots raises (table_key).
    """

    def __init__(self, initial: np.ndarray, evolutions, slots: tuple):
        super().__init__()
        self.initial = initial
        self.evolutions = evolutions
        self.slots = slots

    @functools.cached_property
    def every(self) -> np.ndarray:
        every = _tables(self.initial, self.evolutions, self.slots)
        weights = [s.instrument.weights for s in self.slots]
        if any((w != 1.0).any() for w in weights):
            # index 0 leaves a slot unmeasured and has weight 1, 1 + a is outcome a
            wgrid = np.ones(())
            for w in weights:
                wgrid = np.multiply.outer(wgrid, np.append(1.0, w))
            every = np.multiply(every, wgrid, order="C")
        else:
            every = np.ascontiguousarray(every)
        every.flags.writeable = False
        return every

    def __missing__(self, measured):
        key = table_key(len(self.slots), measured)
        pick = tuple(slice(1, None) if k in key else 0 for k in range(len(self.slots)))
        shape = [self.slots[k].instrument.n_outcomes for k in key] or [1]
        # a contiguous copy: joint_distribution hands it out, and a sum over a
        # strided view of every can round differently from the same sum over a
        # C-ordered table (marginalize); the conditions read every itself
        table = self.every[(slice(None), *pick)].reshape(len(self.every), *shape).copy()
        table.flags.writeable = False
        self[key] = table
        return table


def table_key(n_slots: int, measured: tuple) -> tuple[int, ...]:
    """measured itself when it is a valid table key: a sorted tuple of distinct
    slots. Raises ValueError for a slot out of range or repeated, KeyError
    naming the sorted key for one out of order."""
    key = _measured_slots(n_slots, measured)
    if key != tuple(measured):
        raise KeyError(f"tables are keyed by the sorted tuple of measured slots, {key}")
    return key


def _check_layout(dim: int, slots: tuple, evolutions) -> None:
    """Slot and evolution checks of a scenario; evolutions are (N, d, d) stacks."""
    if len(slots) < 1:
        raise ValueError("a scenario needs at least one slot")
    if len(evolutions) != len(slots) - 1:
        raise ValueError(
            f"need {len(slots) - 1} evolutions for {len(slots)} slots, got {len(evolutions)}"
        )
    for k, s in enumerate(slots):
        if s.instrument.dim != dim:
            raise ValueError(f"slot {k} instrument dimension mismatch")
    for k, u in enumerate(evolutions):
        if u.shape[1:] != (dim, dim):
            raise ValueError(f"evolution {k} dimension mismatch")
        bad = unitary_error(u) > 1e-10
        if bad.any():
            where = "" if u.shape[0] == 1 else f" (batch item {int(bad.argmax())})"
            raise ValueError(f"evolution {k}{where} is not unitary within 1e-10")
    times = [s.time for s in slots]
    if not np.isfinite(times).all():
        raise ValueError(f"slot times must be finite, got {times}")
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("slot times must be strictly increasing")


def scenario_from_hamiltonian(initial: DensityState, slots, hamiltonian) -> Scenario:
    """Build a scenario whose between-slot unitaries come from one Hamiltonian."""
    from macroreal.hilbert import unitary_from_hamiltonian

    slots = tuple(slots)
    evos = []
    for s0, s1 in zip(slots, slots[1:]):
        evos.append(unitary_from_hamiltonian(hamiltonian, s1.time - s0.time))
    return Scenario(initial, slots, tuple(evos))


@dataclasses.dataclass(frozen=True)
class ProbabilityTable:
    """Joint distribution over the outcomes of the measured slots.

    values[i0, i1, ...] is the probability (density times outcome weights)
    of the outcome combination indexed along each measured slot's axis.
    """

    slots: tuple[int, ...]
    outcomes: tuple[np.ndarray, ...]
    weights: tuple[np.ndarray, ...]
    values: np.ndarray

    @property
    def mass(self) -> float:
        return float(self.values.sum())

    def validate(self) -> None:
        """Raise on a value below -1e-12 or a mass more than 1e-9 from 1."""
        if np.any(self.values < -1e-12):
            raise ValueError("negative probability in table")
        if abs(self.mass - 1.0) > 1e-9:
            raise ValueError(f"table mass {self.mass!r} differs from 1")


def _measured_slots(n_slots: int, measured) -> tuple[int, ...]:
    if measured is None:
        measured = tuple(range(n_slots))
    measured = tuple(sorted(measured))
    if any(m < 0 or m >= n_slots for m in measured):
        raise ValueError(f"measured slots {measured} out of range")
    if len(set(measured)) != len(measured):
        raise ValueError("measured slots must be distinct")
    return measured


def _peak_bytes(n: int, d: int, slots) -> int:
    """Bytes that the table pass holds at its peak, N = n.

    One term per step in d x d complex matrices, b the branches after the
    slots before the last and o the outcomes of the one before it (its K_a'
    stay). Growing holds both stacks, the conjugate transposes and K_a' (the
    evolution before a growth holds less); reading m outcomes the stack,
    operators, effects, U' and F (1 + m) read matrices (F = N behind an
    evolution, else 1), then two products of min(d, m) effects or the complex
    probabilities; weighting the complex probabilities, weight grid and
    weighted tables (the contiguous copy of unweighted tables holds no more:
    the complex probabilities and 8 N b (1 + m) bytes).
    """
    *prefix, last = slots
    m, f = last.instrument.n_outcomes, n if prefix else 1
    b, o, grow = 1, 0, 0
    for slot in prefix:
        o = slot.instrument.n_outcomes
        b *= 1 + o
        grow = max(grow, 2 * b * n + o)
    entries = b * (1 + m)
    read = 16 * (b * n + 2 * m + o + f * (2 + m)) * d * d + max(32 * f * min(d, m) * d * d, 16 * n * entries)
    return max(16 * grow * d * d, read, 24 * n * entries + 8 * entries)


def _tables(initial: np.ndarray, evolutions, slots) -> np.ndarray:
    """Unweighted tables of every experiment on a subset of the slots.

    Returns the (N, 1 + n_0, 1 + n_1, ...) array over the slots: index 0
    leaves that slot unmeasured and 1 + i reads its outcome i, so the table of
    a subset is the view with index 0 on the other slots. Branches are one
    (B, N, d, d) stack, newest outcome slowest. At each slot before the last
    every branch is carried on unmeasured and under each Kraus operator K_a,
    shared by all items: rho K_a' in products whose rows run over (branch,
    item, row), a conjugating transpose, and (rho K_a')' K_a' = K_a rho' K_a'.
    A branch may be carried as its conjugate transpose: every map of the pass
    commutes with ' and a table keeps only Re tr(E rho), E Hermitian. An
    evolution is two products per item over all its branches. The last slot
    is read in the Heisenberg picture, tr(rho E) for E in [I, U' K_i' K_i U]
    in one product per item. Shared factors meet N only in the rows and
    per-item products have fixed shapes, so a batch item's tables are bit for
    bit its one-scenario tables. Up to d = 12 the BLAS thread count does not
    move them either (checked for 1 and 2).
    """
    n, d = initial.shape[0], initial.shape[-1]
    require_bytes(_peak_bytes(n, d, slots), "outcome tables")
    *prefix, last = slots
    branches = initial[None].copy()
    for k, slot in enumerate(prefix):
        b = len(branches)
        if k > 0:  # U times each item's (d, b d) view, then times U' as its (d b, d) view
            u = evolutions[k - 1]
            branches[...] = (
                (u @ branches.transpose(1, 2, 0, 3).reshape(n, d, b * d)).reshape(n, d * b, d)
                @ u.conj().swapaxes(-1, -2)
            ).reshape(n, d, b, d).transpose(2, 0, 1, 3)
        # rho K_a' into grown[1 + a], then (rho K_a')' K_a' in its place
        kh = slot.instrument.dense_ops().conj().swapaxes(-1, -2)
        grown = np.empty((1 + len(kh), b, n, d, d), dtype=complex)
        grown[0] = branches
        rk = np.matmul(branches.reshape(-1, d), kh, out=grown[1:].reshape(len(kh), -1, d))
        np.matmul(np.conj(rk.reshape(-1, d, d).swapaxes(1, 2), order="C").reshape(rk.shape), kh, out=rk)
        branches = grown.reshape((1 + len(kh)) * b, n, d, d)
    ops = last.instrument.dense_ops()
    # E_a = K_a' K_a side by side; row 1 + a of read is the transpose of U' E_a U
    effects = (ops.conj().swapaxes(-1, -2) @ ops).transpose(1, 0, 2).reshape(d, -1)
    u = evolutions[-1] if prefix else np.eye(d)[None]
    uh = u.conj().swapaxes(-1, -2).reshape(-1, d)
    read = np.empty((len(u), 1 + len(ops), d, d), dtype=complex)
    read[:, 0] = np.eye(d)
    for lo in range(0, len(ops), d):
        w = min(d, len(ops) - lo)
        read[:, 1 + lo : 1 + lo + w] = (
            (uh @ effects[:, lo * d : (lo + w) * d]).reshape(-1, w * d, d) @ u
        ).reshape(len(u), d, w, d).transpose(0, 2, 3, 1)
    rows = read.reshape(len(u), 1 + len(ops), d * d).swapaxes(1, 2)
    probs = branches.reshape(len(branches), n, d * d).swapaxes(0, 1) @ rows
    dims = [1 + slot.instrument.n_outcomes for slot in slots]
    # the branch axis runs over the prefix slots newest first
    return probs.real.reshape(n, *dims[-2::-1], dims[-1]).transpose(0, *range(len(prefix), 0, -1), -1)


def joint_distribution(scenario: Scenario, measured=None) -> ProbabilityTable:
    """Run the scenario measuring only the listed slots (all slots by default).

    The values are the read-only item 0 of scenario.tables[measured].
    """
    measured = _measured_slots(scenario.n_slots, measured)
    values = scenario.tables[measured][0]
    fams = [scenario.slots[k].instrument for k in measured]
    return ProbabilityTable(
        slots=measured,
        outcomes=tuple(np.asarray(f.outcomes) for f in fams),
        weights=tuple(np.asarray(f.weights) for f in fams),
        values=values,
    )


def marginalize(table: ProbabilityTable, keep) -> ProbabilityTable:
    """Sum out every measured slot not in keep."""
    keep = tuple(sorted(keep))
    for s in keep:
        if s not in table.slots:
            raise ValueError(f"slot {s} is not part of this table")
    drop_axes = tuple(i for i, s in enumerate(table.slots) if s not in keep)
    values = table.values.sum(axis=drop_axes) if drop_axes else table.values
    sel = [i for i, s in enumerate(table.slots) if s in keep]
    return ProbabilityTable(
        slots=keep,
        outcomes=tuple(table.outcomes[i] for i in sel),
        weights=tuple(table.weights[i] for i in sel),
        values=values,
    )


def scenario_to_json(scenario: Scenario) -> dict:
    return {
        "initial": {
            "re": scenario.initial.matrix.real.tolist(),
            "im": scenario.initial.matrix.imag.tolist(),
        },
        "slots": [
            {"time": s.time, "instrument": s.instrument.to_json()} for s in scenario.slots
        ],
        "evolutions": [
            {"re": u.real.tolist(), "im": u.imag.tolist()} for u in scenario.evolutions
        ],
    }


def scenario_from_json(data: dict) -> Scenario:
    init = DensityState(
        np.asarray(data["initial"]["re"], dtype=float)
        + 1j * np.asarray(data["initial"]["im"], dtype=float)
    )
    slots = tuple(
        Slot(time=float(s["time"]), instrument=KrausFamily.from_json(s["instrument"]))
        for s in data["slots"]
    )
    evos = tuple(
        np.asarray(u["re"], dtype=float) + 1j * np.asarray(u["im"], dtype=float)
        for u in data["evolutions"]
    )
    return Scenario(init, slots, evos)


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_json(json.load(fh))


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_json(scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")
