"""Sequential measurement scenarios and their joint outcome tables.

A scenario is an initial state, an ordered list of measurement slots and the
unitaries that propagate the system between neighboring slots. Any subset of
slots can be measured; unmeasured slots contribute no update at all, which is
what the no-signaling-in-time conditions probe.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import os

import numpy as np

from macroreal.hilbert import (
    DensityState,
    as_operator,
    as_operator_stack,
    check_density_stack,
    unitary_error,
)
from macroreal.instruments import KrausFamily

PHYSICAL_MEMORY_BYTES = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


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

    The key is the sorted tuple of measured slots, the value the read-only
    (N, n_a, n_b, ...) array of their outcome tables. A missing table is
    computed by one kernel pass that also yields every experiment measuring a
    subset of its slots; the pass stores each of those not stored yet, so a
    reader that asks for its largest experiment first pays one pass, and
    every condition read off one scenario shares the same arrays. A table
    stored by a larger experiment's pass and one computed by its own pass
    agree to roundoff, not bit for bit, so stored values can depend on the
    order of the requests; the three-slot bundle conditions always read the
    full joint first.
    """

    def __init__(self, initial: np.ndarray, evolutions, slots: tuple):
        super().__init__()
        self.initial = initial
        self.evolutions = evolutions
        self.slots = slots

    def __missing__(self, measured):
        key = _measured_slots(len(self.slots), measured)
        if key != measured:
            raise KeyError(f"tables are keyed by the sorted tuple of measured slots, {key}")
        every = _tables(self.initial, self.evolutions, self.slots, key)
        weights = [self.slots[k].instrument.weights for k in key]
        if any((w != 1.0).any() for w in weights):
            # index 0 leaves a slot unmeasured and has weight 1, 1 + a is outcome a
            wgrid = np.ones(())
            for w in weights:
                wgrid = np.multiply.outer(wgrid, np.append(1.0, w))
            every = every * wgrid
        n = self.initial.shape[0]
        for r in range(len(key) + 1):
            for sub in itertools.combinations(key, r):
                if sub not in self:
                    pick = tuple(slice(1, None) if k in sub else 0 for k in key)
                    shape = [self.slots[k].instrument.n_outcomes for k in sub] or [1]
                    # a contiguous copy: sums over a strided view take about twice as long
                    table = every[(slice(None), *pick)].reshape(n, *shape).copy()
                    table.flags.writeable = False
                    self[sub] = table
        return self[key]


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


def _peak_bytes(n: int, d: int, slots, measured) -> int:
    """Bytes that the table pass for measured holds at its peak, N = n.

    B is the number of branches before the last measured slot and e the
    effect stack of 1 + n_last matrices, one per item once an evolution
    conjugates it. The pass peaks in one of three steps. Growing or evolving
    the branch stack holds the old stack and a product beside the new one
    (2 B matrices per item) and the slot's operators. Reading the last slot
    holds the stack, its operators, their effects, e and the complex
    probabilities. Weighting, skipped when every weight is 1, holds the
    complex probabilities, their weight grid and the weighted real tables.
    """
    *prefix, last = measured
    n_last = slots[last].instrument.n_outcomes
    n_prefix = max((slots[k].instrument.n_outcomes for k in prefix), default=0)
    b = math.prod(1 + slots[k].instrument.n_outcomes for k in prefix)
    e = (n if last > 0 else 1) * (1 + n_last)
    entries = b * (1 + n_last)
    grow = 2 * n * b * d * d + (2 * n_prefix + n) * d * d
    read = n * b * d * d + (2 * n_last + e + 2 * n) * d * d + n * entries
    return max(16 * grow, 16 * read, 24 * n * entries + 16 * entries)


def _tables(initial: np.ndarray, evolutions, slots, measured) -> np.ndarray:
    """Unweighted tables of every experiment on a subset of the measured slots.

    Returns the (N, 1 + n_a, 1 + n_b, ...) array over the measured slots a,
    b, ...: index 0 leaves that slot unmeasured and 1 + i reads its outcome
    i, so the table of a subset is the view with index 0 on the other slots.
    Branches are one (N, branch, d, d) stack of conditional density
    matrices. At each measured slot before the last, every branch is carried
    on unmeasured and under each Kraus operator. The last measured slot is
    read in the Heisenberg picture: its effects K_i' K_i are conjugated once
    by the evolution into it, and every probability is one product of the
    branch stack with [I, U' K_i' K_i U], whose identity row gives the
    experiments that leave the slot unmeasured. Evolutions after that slot
    leave every trace unchanged and are skipped. With nothing measured the
    array is (N,).
    """
    n, d = initial.shape[0], initial.shape[-1]
    if not measured:
        return np.trace(initial, axis1=1, axis2=2).real
    peak = _peak_bytes(n, d, slots, measured)
    if peak > PHYSICAL_MEMORY_BYTES:
        raise ValueError(
            f"outcome tables need {peak:,} bytes at their peak, more than the "
            f"{PHYSICAL_MEMORY_BYTES:,} bytes of physical memory"
        )
    *prefix, last = measured
    branches = initial[:, None].copy()
    for k in range(last):
        if k > 0:
            u = evolutions[k - 1][:, None]
            np.matmul(u @ branches, u.conj().swapaxes(-1, -2), out=branches)
        if k in prefix:
            ops = slots[k].instrument.dense_ops()
            grown = np.empty((n, branches.shape[1], 1 + ops.shape[0], d, d), dtype=complex)
            grown[:, :, 0] = branches
            # K_i rho_b K_i' at index [b, 1 + i]
            np.matmul(ops @ branches[:, :, None], ops.conj().swapaxes(-1, -2), out=grown[:, :, 1:])
            branches = grown.reshape(n, grown.shape[1] * grown.shape[2], d, d)
    ops = slots[last].instrument.dense_ops()
    # tr(E rho) = sum_ij rho_ij conj(E_ij) for Hermitian E, so row 1 + i of
    # flat holds conj(U' E_i U) = U^T conj(E_i) conj(U), with conj(K'K) = K^T conj(K)
    effects = ops.swapaxes(-1, -2) @ ops.conj()
    flat = np.empty((n if last > 0 else 1, 1 + len(effects), d, d), dtype=complex)
    flat[:, 0] = np.eye(d)
    if last > 0:
        u = evolutions[last - 1]
        ut, uc = u.swapaxes(-1, -2), u.conj()
        for i, e in enumerate(effects):
            np.matmul(ut @ e, uc, out=flat[:, 1 + i])
    else:
        flat[0, 1:] = effects
    flat = flat.reshape(flat.shape[0], flat.shape[1], d * d).swapaxes(-1, -2)
    probs = branches.reshape(n, branches.shape[1], d * d) @ flat
    return probs.real.reshape(n, *(1 + slots[k].instrument.n_outcomes for k in measured))


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
