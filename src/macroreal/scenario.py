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
    (N, n_a, n_b, ...) array of their outcome tables. Each table is computed
    on its first lookup and kept, so every condition read off one scenario
    shares it.
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
        values = _tables(self.initial, self.evolutions, self.slots, key)
        values.flags.writeable = False
        self[key] = values
        return values


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
        bad = np.flatnonzero(unitary_error(u) > 1e-10)
        if bad.size:
            where = "" if u.shape[0] == 1 else f" (batch item {int(bad[0])})"
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


def _tables(initial: np.ndarray, evolutions, slots, measured) -> np.ndarray:
    """Outcome tables of N scenarios with shared slots, shape (N, n_a, n_b, ...).

    Branches are propagated as an (N, branch, d, d) stack of conditional
    density matrices, one per outcome combination so far; unmeasured slots
    apply no map. With nothing measured each table is the single value (1,).
    """
    n, d = initial.shape[0], initial.shape[-1]
    fams = [slots[k].instrument for k in measured]
    shape = [f.n_outcomes for f in fams]
    # The last measure step holds the most branches; its product and the
    # intermediate before it are the peak of the whole run.
    peak = 2 * n * math.prod(shape) * d * d * 16
    if peak > PHYSICAL_MEMORY_BYTES:
        raise ValueError(
            f"outcome tables need {peak:,} bytes at their peak, more than the "
            f"{PHYSICAL_MEMORY_BYTES:,} bytes of physical memory"
        )
    branches = initial[:, None]
    for k in range(len(slots)):
        if k > 0:
            u = evolutions[k - 1][:, None]
            branches = u @ branches @ u.conj().swapaxes(-1, -2)
        if k in measured:
            ops = slots[k].instrument.dense_ops()
            # (branch, outcome) order: K_a rho_b K_a^dagger at index [b, a]
            branches = ops @ branches[:, :, None] @ ops.conj().transpose(0, 2, 1)
            branches = branches.reshape(n, -1, d, d)
    traces = np.trace(branches, axis1=2, axis2=3).real
    values = traces.reshape(n, *(shape or [1]))
    if fams:
        wgrid = np.ones(())
        for f in fams:
            wgrid = np.multiply.outer(wgrid, f.weights)
        values = values * wgrid
    return values


def batch_joint_distribution(batch: ScenarioBatch, measured=None) -> np.ndarray:
    """Outcome tables of every scenario in the batch, measuring the listed slots.

    Returns the read-only (N, ...) array batch.tables[measured], whose item i
    is joint_distribution(...).values of scenario i.
    """
    return batch.tables[_measured_slots(batch.n_slots, measured)]


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
