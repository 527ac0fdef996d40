import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from helpers import (
    assert_tables_are_slices_of_one_pass,
    haar_unitary,
    kraus_operator,
    random_density,
    random_dichotomic_family,
    random_full_projective_family,
)
from macroreal.conditions import correlator
from macroreal.hilbert import DensityState, coherent_state
from macroreal.instruments import (
    ComplexLattice,
    Grid1D,
    coherent_projector_family,
    gaussian_x_family,
    projective_family,
)
from macroreal.scenario import (
    ProbabilityTable,
    Scenario,
    ScenarioBatch,
    Slot,
    Tables,
    _peak_bytes,
    joint_distribution,
    marginalize,
    scenario_from_hamiltonian,
    scenario_from_json,
    scenario_to_json,
)


def brute_force_joint(scenario, measured):
    """Oracle: explicit sum over outcome sequences with plain matrix products."""
    measured = tuple(sorted(measured))
    fams = [scenario.slots[k].instrument for k in measured]
    shape = tuple(f.n_outcomes for f in fams)
    values = np.zeros(shape)
    for combo in itertools.product(*[range(s) for s in shape]):
        rho = scenario.initial.matrix.copy()
        pick = dict(zip(measured, combo))
        weight = 1.0
        for k in range(scenario.n_slots):
            if k > 0:
                u = scenario.evolutions[k - 1]
                rho = u @ rho @ u.conj().T
            if k in pick:
                a = kraus_operator(fams[measured.index(k)], pick[k])
                rho = a @ rho @ a.conj().T
                weight *= fams[measured.index(k)].weights[pick[k]]
        values[combo] = np.trace(rho).real * weight
    return values


def sz_family():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    return projective_family([p0, np.eye(2) - p0], [1, -1])


def trivial_scenario():
    fam = sz_family()
    init = DensityState(np.diag([0.7, 0.3]).astype(complex))
    eye = np.eye(2, dtype=complex)
    return Scenario(init, (Slot(0.0, fam), Slot(1.0, fam), Slot(2.0, fam)), (eye, eye))


def test_static_scenario_joint():
    sc = trivial_scenario()
    t = joint_distribution(sc)
    t.validate()
    assert t.values.shape == (2, 2, 2)
    assert abs(t.values[0, 0, 0] - 0.7) < 1e-14
    assert abs(t.values[1, 1, 1] - 0.3) < 1e-14
    assert correlator(sc.tables, 0, 2, of=(0, 1, 2))[0] == pytest.approx(1.0)
    assert correlator(sc.tables, 0, 1)[0] == pytest.approx(1.0)
    assert t.values.sum(axis=(0, 2)) @ [1.0, -1.0] == pytest.approx(0.4)
    assert sc.tables[(0, 2)] is sc.tables[(0, 2)]
    with pytest.raises(KeyError, match="sorted tuple"):
        sc.tables[(2, 0)]


def test_validation_errors():
    fam = sz_family()
    init = DensityState(np.eye(2) / 2)
    with pytest.raises(ValueError):
        Scenario(init, (Slot(0.0, fam), Slot(1.0, fam)), (np.diag([1.0, 2.0]),))
    with pytest.raises(ValueError):
        Scenario(
            init,
            (Slot(1.0, fam), Slot(0.5, fam)),
            (np.eye(2, dtype=complex),),
        )
    with pytest.raises(ValueError):
        Scenario(init, (Slot(0.0, fam), Slot(1.0, fam)), ())


def test_joint_matches_brute_force_qutrit():
    rng = np.random.default_rng(11)
    dim = 3
    init = random_density(rng, dim)
    fams = [random_full_projective_family(rng, dim) for _ in range(3)]
    sc = Scenario(
        init,
        tuple(Slot(float(k), fams[k]) for k in range(3)),
        (haar_unitary(rng, dim), haar_unitary(rng, dim)),
    )
    for measured in [(0, 1, 2), (0, 2), (1,), (2,), (0, 1)]:
        fast = joint_distribution(sc, measured)
        slow = brute_force_joint(sc, measured)
        assert np.max(np.abs(fast.values - slow)) < 1e-13
        fast.validate()


def test_batch_rows_are_the_single_scenario_tables():
    rng = np.random.default_rng(12)
    dim, n = 3, 6
    slots = tuple(Slot(float(k), random_full_projective_family(rng, dim)) for k in range(3))
    states = [random_density(rng, dim) for _ in range(n)]
    evos = [(haar_unitary(rng, dim), haar_unitary(rng, dim)) for _ in range(n)]
    batch = ScenarioBatch(
        np.stack([st.matrix for st in states]),
        slots,
        tuple(np.stack([e[k] for e in evos]) for k in range(2)),
    )
    for measured in [(), (0,), (1, 2), (0, 2), (0, 1, 2)]:
        stacked = batch.tables[measured]
        for i in range(n):
            single = joint_distribution(Scenario(states[i], slots, evos[i]), measured)
            assert stacked[i].shape == single.values.shape
            assert np.max(np.abs(stacked[i] - single.values)) <= 1e-15


def test_batch_validation_names_the_bad_item():
    fam = sz_family()
    slots = (Slot(0.0, fam), Slot(1.0, fam))
    good = np.stack([np.eye(2) / 2] * 4).astype(complex)
    eye = np.stack([np.eye(2)] * 4).astype(complex)
    ScenarioBatch(good, slots, (eye,))
    cases = []
    bad = good.copy()
    bad[2, 0, 1] = 0.1
    cases.append(((bad, slots, (eye,)), "density matrix 2 is not Hermitian"))
    bad = good.copy()
    bad[1] = np.diag([1.5, -0.5])
    cases.append(((bad, slots, (eye,)), "density matrix 1 has negative eigenvalue"))
    bad = good.copy()
    bad[3] = np.diag([0.5, 0.6])
    cases.append(((bad, slots, (eye,)), "density matrix 3 trace"))
    u = eye.copy()
    u[2] = np.diag([1.0, 1.0 + 2e-10])
    cases.append(((good, slots, (u,)), "evolution 0 (batch item 2) is not unitary"))
    cases.append(((good, slots, (eye[:3],)), "evolution 0 stacks 3 matrices for 4 states"))
    cases.append(((good, slots, ()), "need 1 evolutions"))
    cases.append(((good, slots[::-1], (eye,)), "strictly increasing"))
    for args, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            ScenarioBatch(*args)


def test_table_size_estimate_raises_before_allocating():
    # four 625-outcome slots at dim 30: growing the stack to 626^3 branches of
    # 30 x 30 matrices holds two stacks of that size (the old one, its conjugate
    # transposes and the new one) and the slot's 625 K_a', more than the read of
    # the last slot or the weighting
    fam = coherent_projector_family(ComplexLattice.square(3.0, 0.25), 30)
    assert fam.n_outcomes == 625
    sc = Scenario(
        coherent_state(0.5, 30).density(),
        tuple(Slot(float(k), fam) for k in range(4)),
        (np.eye(30),) * 3,
    )
    branches = 626**3
    peak = 16 * (2 * branches + 625) * 30**2
    assert peak > 10**12
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"{peak:,} bytes"):
            joint_distribution(sc)
        _, allocated = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert allocated < 10_000_000


def test_table_size_estimate_is_the_traced_peak():
    # each case names the term of _peak_bytes that peaks there, and each term
    # peaks in at least one: the growth of the branch stack, the read's
    # products or its complex probabilities, and the weighting of the tables
    rng = np.random.default_rng(16)
    cells = coherent_projector_family(ComplexLattice.square(3.0, 0.25), 30)
    grid = gaussian_x_family(0.8, 12, Grid1D(-9.0, 9.0, 301))
    coarse = gaussian_x_family(0.8, 12, Grid1D(-9.0, 9.0, 41))
    fine = gaussian_x_family(0.8, 6, Grid1D(-9.0, 9.0, 301))
    qubit = random_dichotomic_family(rng, 2)
    cases = [
        ([cells], 1, "products"),
        ([cells], 4, "products"),
        ([grid], 40, "probabilities"),
        ([grid] * 2, 4, "probabilities"),
        ([coarse, grid], 40, "probabilities"),
        ([qubit] * 3, 3000, "probabilities"),
        ([coarse] * 2, 4, "products"),
        ([coarse] * 3, 4, "growth"),
        ([fine] * 2, 4, "weighting"),
    ]
    assert {step for *_, step in cases} == {"growth", "products", "probabilities", "weighting"}
    for fams, n, step in cases:
        dim = fams[0].dim
        batch = _random_batch(rng, dim, fams, n)[0]
        estimate = _peak_bytes(n, dim, batch.slots)
        assert _peak_step(n, dim, batch.slots) == step, (n, len(fams), step)
        tracemalloc.start()
        try:
            batch.tables[()]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.98 * estimate < peak < 1.02 * estimate, (n, len(fams), peak, estimate)


def _peak_step(n, d, slots):
    """Which term of _peak_bytes is the largest, its terms written out once more."""
    *prefix, last = slots
    m, f = last.instrument.n_outcomes, n if prefix else 1
    b, o, grow = 1, 0, 0
    for slot in prefix:
        o = slot.instrument.n_outcomes
        b *= 1 + o
        grow = max(grow, 2 * b * n + o)
    entries = b * (1 + m)
    held = 16 * (b * n + 2 * m + o + f * (2 + m)) * d * d
    terms = {
        "growth": 16 * grow * d * d,
        "products": held + 32 * f * min(d, m) * d * d,
        "probabilities": held + 16 * n * entries,
        "weighting": 24 * n * entries + 8 * entries,
    }
    assert max(terms.values()) == _peak_bytes(n, d, slots)
    return max(terms, key=terms.get)


def _random_batch(rng, dim, fams, n):
    states = [random_density(rng, dim) for _ in range(n)]
    evos = [tuple(haar_unitary(rng, dim) for _ in fams[1:]) for _ in range(n)]
    slots = tuple(Slot(float(k), f) for k, f in enumerate(fams))
    batch = ScenarioBatch(
        np.stack([st.matrix for st in states]),
        slots,
        tuple(np.stack([e[k] for e in evos]) for k in range(len(fams) - 1)),
    )
    return batch, [Scenario(states[i], slots, evos[i]) for i in range(n)]


def test_one_pass_yields_every_subset_table(passes):
    rng = np.random.default_rng(15)
    fams = [random_dichotomic_family(rng, 3) for _ in range(4)]
    (sc,) = _random_batch(rng, 3, fams, 1)[1]
    sc.tables[(0, 1, 2, 3)]
    for r in range(1, 5):
        for measured in itertools.combinations(range(4), r):
            gap = np.max(np.abs(sc.tables[measured][0] - brute_force_joint(sc, measured)))
            assert gap < 1e-13, measured
    assert passes == [4]
    assert_tables_are_slices_of_one_pass(sc.tables)

    # a continuous readout: the weights of a grid of outcomes are not 1
    dim = 6
    fam = gaussian_x_family(0.8, dim, Grid1D(-6.0, 6.0, 41))
    assert np.all(fam.weights != 1.0)
    (sc,) = _random_batch(rng, dim, [fam, fam], 1)[1]
    for measured in [(0,), (1,), (0, 1)]:
        assert np.max(np.abs(sc.tables[measured][0] - brute_force_joint(sc, measured))) < 1e-13
    assert_tables_are_slices_of_one_pass(sc.tables)

    # last measured slot 0 on a batch: its effects are shared by every item
    fams = [random_full_projective_family(rng, 3) for _ in range(3)]
    batch, singles = _random_batch(rng, 3, fams, 5)
    for measured in [(), (0,), (0, 1, 2)]:
        stacked = batch.tables[measured]
        assert stacked.shape == (5, *([3] * len(measured) or [1]))
        for sc in singles:
            sc.tables[measured]
    # a table read before the full joint comes from the same one pass
    sc = singles[0]
    for measured in [(0,), (1,), (0, 2)]:
        fresh = Scenario(sc.initial, sc.slots, sc.evolutions)
        assert np.array_equal(fresh.tables[measured], sc.tables[measured])
        assert np.array_equal(fresh.tables.every, sc.tables.every)
    for i, sc in enumerate(singles):
        for measured in [(), (0,)]:
            assert np.max(np.abs(batch.tables[measured][i] - brute_force_joint(sc, measured))) < 1e-13
        for measured, values in batch.tables.items():
            assert np.array_equal(values[i], sc.tables[measured][0]), measured
        assert np.array_equal(batch.tables.every[i], sc.tables.every[0])
    assert_tables_are_slices_of_one_pass(batch.tables)


def test_batch_items_are_their_one_scenario_tables_bit_for_bit():
    # the dimensions the workloads read (qubits and qutrits in the sweep and the
    # interferometer, 12 for grid readouts), three dichotomic slots and every
    # slot subset: an item's tables do not depend on N
    rng = np.random.default_rng(17)
    subsets = [m for r in range(4) for m in itertools.combinations(range(3), r)]
    for dim in (2, 3, 12):
        slots = tuple(Slot(float(k), random_dichotomic_family(rng, dim)) for k in range(3))
        states = np.stack([random_density(rng, dim).matrix for _ in range(3000)])
        evos = tuple(np.stack([haar_unitary(rng, dim) for _ in range(3000)]) for _ in range(2))
        batches = [ScenarioBatch(states[:n], slots, tuple(u[:n] for u in evos)) for n in (1, 2, 7, 3000)]
        *heads, full = (Tables(b.initial, b.evolutions, slots) for b in batches)
        ones = [Scenario(DensityState(states[i]), slots, tuple(u[i] for u in evos)) for i in (0, 1, 6, 2999)]
        for measured in subsets:
            for head in heads:
                n = len(head.initial)
                assert np.array_equal(head[measured], full[measured][:n]), (dim, n, measured)
            for i, one in zip((0, 1, 6, 2999), ones):
                assert np.array_equal(one.tables[measured][0], full[measured][i]), (dim, i, measured)


def test_a_state_hermitian_to_1e_11_reads_like_the_oracle():
    # the pass carries branches as their conjugate transposes, which is exact
    # for any state the checks accept, not only for an exactly Hermitian one
    rng = np.random.default_rng(18)
    dim = 3
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    skew = x - x.conj().T
    init = DensityState(random_density(rng, dim).matrix + 0.5e-11 * skew / np.abs(skew).max())
    assert np.abs(init.matrix - init.matrix.conj().T).max() > 0.99e-11
    fams = [random_full_projective_family(rng, dim), random_dichotomic_family(rng, dim)]
    slots = (Slot(0.0, fams[0]), Slot(1.0, fams[1]), Slot(2.0, fams[0]))
    evos = (haar_unitary(rng, dim), haar_unitary(rng, dim))
    for r in range(1, 4):
        for measured in itertools.combinations(range(3), r):
            sc = Scenario(init, slots, evos)
            gap = np.max(np.abs(sc.tables[measured][0] - brute_force_joint(sc, measured)))
            assert gap < 1e-13, measured


def test_marginalize_consistency():
    rng = np.random.default_rng(12)
    init = random_density(rng, 2)
    fams = [random_full_projective_family(rng, 2) for _ in range(3)]
    sc = Scenario(
        init,
        tuple(Slot(float(k), fams[k]) for k in range(3)),
        (haar_unitary(rng, 2), haar_unitary(rng, 2)),
    )
    full = joint_distribution(sc)
    m02 = marginalize(full, (0, 2))
    assert m02.slots == (0, 2)
    assert abs(m02.mass - 1.0) < 1e-12
    # marginalizing the later slot away must reproduce the earlier pair run
    m01 = marginalize(full, (0, 1))
    direct01 = joint_distribution(sc, (0, 1))
    assert np.max(np.abs(m01.values - direct01.values)) < 1e-13
    with pytest.raises(ValueError):
        marginalize(m02, (1,))


def test_continuous_slot_mass():
    dim = 14
    fam = gaussian_x_family(0.8, dim)
    rng = np.random.default_rng(13)
    init = random_density(rng, dim)
    sc = Scenario(
        init,
        (Slot(0.0, fam), Slot(1.0, fam)),
        (haar_unitary(rng, dim),),
    )
    t = joint_distribution(sc)
    assert abs(t.mass - 1.0) < 1e-6
    assert t.values.min() > -1e-12


def test_scenario_from_hamiltonian_and_json_round_trip():
    rng = np.random.default_rng(14)
    dim = 2
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = z + z.conj().T
    fam = sz_family()
    init = random_density(rng, dim)
    sc = scenario_from_hamiltonian(
        init, (Slot(0.0, fam), Slot(0.7, fam), Slot(1.9, fam)), h
    )
    clone = scenario_from_json(scenario_to_json(sc))
    t1 = joint_distribution(sc)
    t2 = joint_distribution(clone)
    assert np.max(np.abs(t1.values - t2.values)) < 1e-14


def test_probability_table_validation():
    bad = ProbabilityTable(
        slots=(0,),
        outcomes=(np.array([1, -1]),),
        weights=(np.ones(2),),
        values=np.array([0.6, 0.6]),
    )
    with pytest.raises(ValueError):
        bad.validate()
