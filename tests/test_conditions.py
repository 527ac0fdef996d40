import itertools
import json
import math
from importlib import resources

import numpy as np
import pytest

from helpers import (
    assert_tables_are_slices_of_one_pass,
    haar_unitary,
    random_density,
    random_dichotomic_family,
    random_full_projective_family,
    random_scenario,
)
from macroreal.cli import main
from macroreal.conditions import (
    FULL,
    MISMATCH,
    PAIRS,
    ConditionReport,
    aot_check,
    _signaling,
    aot_residual,
    bundle_distances,
    classical_hamiltonian,
    classical_operator,
    commutator_tests,
    correlator,
    lgi_012,
    lgi_values,
    mr012_check,
    mr012_residuals,
    nic_012,
    nic_values,
    nsit_leading,
    nsit_operator_residual,
    nsit_residual,
    nsit_sandwich,
    nsit_two_time,
    projective_necessity_check,
)
from macroreal.hilbert import (
    DensityState,
    coherent_state,
    default_fock_dim,
    number_operator,
    operator_norm,
    unitary_from_hamiltonian,
)
from macroreal.instruments import (
    ComplexLattice,
    Grid1D,
    KrausFamily,
    coherent_projector_family,
    fock_bin_family,
    gaussian_p_family,
    gaussian_x_family,
    identity_family,
    projective_family,
    ring_family,
    single_kraus_family,
    symmetrize_completeness,
)
from macroreal.mach_zehnder import MZParams, batch_numeric_residuals, mz_batch, verify_lattice
from macroreal.scenario import Scenario, ScenarioBatch, Slot, joint_distribution, load_scenario, save_scenario
from test_scenario import brute_force_joint

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1j], [1j, 0.0]])
SZ = np.diag([1.0, -1.0]).astype(complex)


def splitter(r):
    t = 1.0 - r
    return np.array(
        [[math.sqrt(t), 1j * math.sqrt(r)], [1j * math.sqrt(r), math.sqrt(t)]]
    )


def path_family():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    return projective_family([p0, np.eye(2) - p0], [1, -1])


def interferometer_scenario(r1, r2, phi, q, c):
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    u01 = splitter(r1)
    u12 = swap @ splitter(r2) @ np.diag([np.exp(1j * phi), 1.0])
    init = DensityState(np.array([[q, c], [np.conj(c), 1.0 - q]], dtype=complex))
    fam = path_family()
    return Scenario(init, (Slot(0.0, fam), Slot(1.0, fam), Slot(2.0, fam)), (u01, u12))


def test_condition_report_holds():
    r = ConditionReport("X", residual=1e-12, threshold=1e-9)
    assert r.holds
    assert not ConditionReport("X", residual=1e-3, threshold=1e-9).holds
    d = r.to_dict()
    assert d["holds"] is True


def test_nsit_two_time_imaginary_coherence():
    # first-slot dephasing shifts later statistics by 2 sqrt(r t) |Im c|
    sc = interferometer_scenario(0.5, 0.5, 0.0, 0.5, 0.3j)
    rep = nsit_two_time(sc, 0, 1)
    assert rep.name == "NSIT_(0)1"
    assert abs(rep.residual - 0.3) < 1e-12
    assert not rep.holds


def test_nsit_sandwich_trivial_middle():
    fam = path_family()
    init = DensityState(np.array([[0.5, 0.45], [0.45, 0.5]], dtype=complex))
    sc = Scenario(
        init,
        (Slot(0.0, fam), Slot(1.0, identity_family(2)), Slot(2.0, fam)),
        (splitter(0.3), splitter(0.7)),
    )
    assert nsit_sandwich(sc).residual < 1e-14


def test_aot_is_automatic():
    rng = np.random.default_rng(21)
    for _ in range(5):
        sc = random_scenario(rng, dim=3)
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            assert aot_check(sc, i, j).residual < 1e-13


def test_lgi_at_known_maximum():
    sc = interferometer_scenario(0.25, 0.75, math.pi, 0.5, 0.0)
    rep = lgi_012(sc)
    assert abs(rep.context["K"] - 1.5) < 1e-12
    assert abs(rep.residual - 0.5) < 1e-12


def test_lgi_requires_dichotomic():
    rng = np.random.default_rng(22)
    sc = random_scenario(rng, dim=3, dichotomic=False)
    with pytest.raises(ValueError):
        lgi_012(sc)


def _dichotomic_qutrit_readouts(rng):
    """A qutrit observable with eigenvalues (1, 1, -1) in a random basis, as
    the von Neumann readout of its three level projectors labelled (1, 1, -1)
    and as the Lueders readout of its two eigenprojectors."""
    u = haar_unitary(rng, 3)
    levels = [np.outer(u[:, k], u[:, k].conj()) for k in range(3)]
    von_neumann = projective_family(levels, [1, 1, -1])
    lueders = projective_family([levels[0] + levels[1], levels[2]], [1, -1])
    return von_neumann, lueders


def test_repeated_plus_minus_labels_read_the_hand_correlators():
    rng = np.random.default_rng(31)
    for _ in range(5):
        fams = [_dichotomic_qutrit_readouts(rng)[0] for _ in range(3)]
        sc = Scenario(
            random_density(rng, 3),
            tuple(Slot(float(k), fams[k]) for k in range(3)),
            (haar_unitary(rng, 3), haar_unitary(rng, 3)),
        )
        q = np.array([1.0, 1.0, -1.0])
        tables = sc.tables
        hand = {
            "C01": q @ tables[(0, 1)][0] @ q,
            "C12": q @ tables[(1, 2)][0] @ q,
            "C02": q @ tables[(0, 2)][0] @ q,
            "C02_with_middle": q @ tables[(0, 1, 2)][0].sum(axis=1) @ q,
        }
        lgi, nic = lgi_012(sc).context, nic_012(sc).context
        for name in ("C01", "C12", "C02"):
            assert abs(lgi[name] - hand[name]) <= 1e-15, name
        assert abs(nic["C02"] - hand["C02"]) <= 1e-15
        assert abs(nic["C02_with_middle"] - hand["C02_with_middle"]) <= 1e-15
        assert abs(lgi["K"] - (hand["C01"] + hand["C12"] - hand["C02"])) <= 1e-15


def test_lueders_readouts_of_a_dichotomic_qutrit_keep_the_lueders_bound():
    rng = np.random.default_rng(32)
    for _ in range(200):
        fam = _dichotomic_qutrit_readouts(rng)[1]
        sc = Scenario(
            random_density(rng, 3, rank=1),
            tuple(Slot(float(k), fam) for k in range(3)),
            (haar_unitary(rng, 3), haar_unitary(rng, 3)),
        )
        assert lgi_012(sc).context["K"] <= 1.5 + 1e-12


def test_nic_bounded_by_sandwich():
    rng = np.random.default_rng(23)
    for _ in range(40):
        sc = random_scenario(rng, dim=2)
        nic = nic_012(sc).residual
        sand = nsit_sandwich(sc).residual
        assert nic <= 4.0 * sand + 1e-12


def test_mr_bundle_on_classical_scenario():
    rng = np.random.default_rng(24)
    for dim in (2, 3):
        sc = random_scenario(rng, dim=dim, kind="classical")
        rep = mr012_check(sc)
        assert rep.holds
        assert rep.worst_residual < 1e-13
        assert rep.mismatch_tv < 1e-13


def test_mr_bundle_flags_interference():
    sc = interferometer_scenario(0.5, 0.5, 0.0, 0.5, 0.45)
    rep = mr012_check(sc, mismatch_threshold=1e-3)
    assert not rep.holds
    assert rep.members["NSIT_0(1)2"].residual > 0.2
    d = rep.to_dict()
    assert d["holds"] is False


def _nsit_check_reports(scenario):
    """The condition reports and the bundle that nsit-check builds for a three-slot scenario."""
    bundle = mr012_check(scenario)
    reports = [check(scenario, i, j) for i, j in PAIRS for check in (nsit_two_time, aot_check)]
    reports += [bundle.members[name] for name in ("NSIT_0(1)2", "NSIT_(0)12")]
    for check in (lgi_012, nic_012):
        try:
            reports.append(check(scenario))
        except ValueError:  # outcomes not labelled +-1, as nsit-check skips them
            pass
    return reports, bundle


@pytest.mark.parametrize("name", ["mz_phi0", "mz_phi_half_pi", "random_qutrit"])
def test_report_dicts_are_plain_json(name):
    if name == "random_qutrit":
        scenario = random_scenario(np.random.default_rng(41), dim=3)
    else:
        scenario = load_scenario(resources.files("macroreal") / "data" / f"{name}.json")
    reports, bundle = _nsit_check_reports(scenario)
    assert len(reports) >= 8
    # json.dumps without a default= raises on any numpy value
    for d in [*(r.to_dict() for r in reports), bundle.to_dict()]:
        assert json.loads(json.dumps(d)) == d


def test_report_dicts_are_copies():
    scenario = random_scenario(np.random.default_rng(43), dim=3)
    lgi = lgi_012(scenario)
    bundle = mr012_check(scenario)
    context, detail = dict(lgi.context), {k: dict(v) for k, v in bundle.mismatch_detail.items()}
    assert context and detail
    for d in (lgi.to_dict(), bundle.to_dict()["members"]["AoT"]):
        d["context"]["K"] = -1.0
        d["context"].clear()
    out = bundle.to_dict()
    out["mismatch_detail"]["P0"]["sup"] = -1.0
    out["mismatch_detail"].clear()
    assert lgi.context == context and bundle.members["AoT"].context == {}
    assert bundle.mismatch_detail == detail


def marginal(tables, of, keep):
    """numpy's sum of tables[of] over the slots not in keep."""
    return tables[of].sum(axis=tuple(1 + a for a, s in enumerate(of) if s not in keep))


def signaling(tables, of, keep):
    return np.abs(tables[keep] - marginal(tables, of, keep)).max(axis=tuple(range(1, len(keep) + 1)))


def reference_bundle(tables):
    """The bundle one comparison at a time, from numpy sums over tables[...]:
    a sup and a TV reduction per mismatch subset, one signaling call per
    member. Values are (N,) arrays."""
    members = {
        "NSIT_(1)2": signaling(tables, (1, 2), (2,)),
        "NSIT_0(1)2": signaling(tables, FULL, (0, 2)),
        "NSIT_(0)12": signaling(tables, FULL, (1, 2)),
        "AoT": np.maximum.reduce([signaling(tables, (i, j), (i,)) for i, j in PAIRS]),
    }
    sup = {s: signaling(tables, FULL, s) for s in MISMATCH}
    tv = {
        s: 0.5 * np.abs(tables[s] - marginal(tables, FULL, s)).sum(axis=tuple(range(1, len(s) + 1)))
        for s in MISMATCH
    }
    return members, sup, tv


def roundoff(tables, *experiments):
    """k 2^-53 for k the entries of the largest of the experiments: the bound
    on how far two summation orders of a marginal may move a comparison."""
    return max(tables[of][0].size for of in experiments) * 2.0**-53


def member_roundoff(tables):
    return {
        "NSIT_(1)2": roundoff(tables, (1, 2)),
        "NSIT_0(1)2": roundoff(tables, FULL),
        "NSIT_(0)12": roundoff(tables, FULL),
        "AoT": roundoff(tables, *PAIRS),
    }


def assert_bundle_is_the_reference(sc):
    rep = mr012_check(sc)
    members, sup, tv = reference_bundle(sc.tables)
    bound = member_roundoff(sc.tables)
    assert rep.members.keys() == members.keys()
    for name, values in members.items():
        assert abs(rep.members[name].residual - values[0]) <= bound[name], name
    k = roundoff(sc.tables, FULL)
    for s in MISMATCH:
        detail = rep.mismatch_detail["P" + "".join(map(str, s))]
        assert abs(detail["sup"] - sup[s][0]) <= k
        assert abs(detail["tv"] - tv[s][0]) <= 2.2e-16
    assert abs(rep.mismatch_sup - max(v[0] for v in sup.values())) <= k
    assert abs(rep.mismatch_tv - max(v[0] for v in tv.values())) <= 2.2e-16


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("dichotomic", [True, False])
def test_bundle_distances_equal_the_per_comparison_form(dim, dichotomic):
    rng = np.random.default_rng(60 + dim + 10 * dichotomic)
    for _ in range(40):
        assert_bundle_is_the_reference(random_scenario(rng, dim, dichotomic=dichotomic))


def test_bundle_distances_with_uneven_and_weighted_slots():
    rng = np.random.default_rng(61)
    dim = 3
    init = random_density(rng, dim)
    evos = (haar_unitary(rng, dim), haar_unitary(rng, dim))
    # 2, 3 and 2 outcomes: segments of unequal length in every experiment size
    fams = [random_dichotomic_family(rng, dim), random_full_projective_family(rng, dim)]
    fams.append(random_dichotomic_family(rng, dim))
    sc = Scenario(init, tuple(Slot(float(k), f) for k, f in enumerate(fams)), evos)
    assert_bundle_is_the_reference(sc)

    # a grid readout in the middle: outcome weights 0.5, so the tables carry
    # the weight grid; its twin folds sqrt(w) into unit-weight operators
    grid = gaussian_x_family(1.0, dim, Grid1D(-6.0, 6.0, 25))
    assert np.all(grid.weights == 0.5)
    twin = KrausFamily(
        label="folded",
        outcomes=grid.outcomes,
        weights=np.ones(grid.n_outcomes),
        kind="dense",
        ops=grid.dense_ops() * np.sqrt(grid.weights)[:, None, None],
    )
    weighted, folded = (
        Scenario(init, (Slot(0.0, fams[0]), Slot(1.0, f), Slot(2.0, fams[2])), evos)
        for f in (grid, twin)
    )
    assert_bundle_is_the_reference(weighted)
    for measured in [(1,), (0, 1), (1, 2), FULL]:
        gap = np.abs(weighted.tables[measured] - folded.tables[measured]).max()
        assert gap < 1e-15, measured


def brute_force_tables(sc):
    """Every nonempty experiment of sc from tests/test_scenario.py's oracle, as (1, ...) arrays."""
    n = sc.n_slots
    return {
        m: brute_force_joint(sc, m)[None]
        for r in range(1, n + 1)
        for m in itertools.combinations(range(n), r)
    }


def reference_correlator(tables, slots, i, j, of):
    values = marginal(tables, of, (i, j))[0]
    oi, oj = (np.asarray(slots[k].instrument.outcomes, dtype=float) for k in (i, j))
    return float(oi @ values @ oj)


def index_map_cases():
    rng = np.random.default_rng(62)

    def evolve(dim, n):
        return tuple(haar_unitary(rng, dim) for _ in range(n - 1))

    four = [random_dichotomic_family(rng, 2) for _ in range(4)]
    yield Scenario(random_density(rng, 2), tuple(Slot(float(k), f) for k, f in enumerate(four)), evolve(2, 4))
    # 2, 3 and 2 outcomes, then a 25-outcome grid readout with weights 0.5 in the middle
    uneven = [random_dichotomic_family(rng, 3), random_full_projective_family(rng, 3)]
    uneven.append(random_dichotomic_family(rng, 3))
    yield Scenario(random_density(rng, 3), tuple(Slot(float(k), f) for k, f in enumerate(uneven)), evolve(3, 3))
    uneven[1] = gaussian_x_family(1.0, 3, Grid1D(-6.0, 6.0, 25))
    yield Scenario(random_density(rng, 3), tuple(Slot(float(k), f) for k, f in enumerate(uneven)), evolve(3, 3))


def test_index_maps_read_the_brute_force_tables():
    # every pair on its own experiment and every experiment against the full
    # joint, on four dichotomic slots, on 2, 3 and 2 outcomes and on a
    # weighted 25-outcome grid slot
    for sc in index_map_cases():
        n = sc.n_slots
        bf, every = brute_force_tables(sc), tuple(range(n))
        assert [s.instrument.n_outcomes for s in sc.slots] in ([2] * 4, [2, 3, 2], [2, 25, 2])
        for i, j in itertools.combinations(range(n), 2):
            assert abs(nsit_residual(sc.tables, i, j)[0] - signaling(bf, (i, j), (j,))[0]) <= 1e-14
            assert abs(aot_residual(sc.tables, i, j)[0] - signaling(bf, (i, j), (i,))[0]) <= 1e-14
            for of in ((i, j), every):
                expected = reference_correlator(bf, sc.slots, i, j, of)
                got = correlator(sc.tables, i, j, None if of == (i, j) else of)[0]
                assert abs(got - expected) <= 1e-14, (i, j, of)
        for r in range(1, n):
            for keep in itertools.combinations(range(n), r):
                gap = _signaling(sc.tables, every, keep)[0] - signaling(bf, every, keep)[0]
                assert abs(gap) <= 1e-14, keep


def test_index_maps_refuse_what_a_table_lookup_refuses():
    sc = random_scenario(np.random.default_rng(63))
    for call, error in [
        (lambda: nsit_residual(sc.tables, 2, 1), KeyError),
        (lambda: aot_residual(sc.tables, 1, 1), ValueError),
        (lambda: nsit_residual(sc.tables, 0, 3), ValueError),
        (lambda: correlator(sc.tables, 1, 0), KeyError),
        (lambda: correlator(sc.tables, 0, 2, of=(2, 1, 0)), KeyError),
        (lambda: correlator(sc.tables, 0, 2, of=(0, 1)), ValueError),
        (lambda: _signaling(sc.tables, (1, 2), (0,)), ValueError),
    ]:
        with pytest.raises(error):
            call()


@pytest.mark.parametrize("dim", [2, 3])
def test_bundle_distances_of_a_batch_are_the_single_scenario_columns(dim):
    # every sup and TV column, not only the members the reports read
    rng = np.random.default_rng(64 + dim)
    drawn = [random_scenario(rng, dim, dichotomic=False) for _ in range(50)]
    scenarios = [Scenario(sc.initial, drawn[0].slots, sc.evolutions) for sc in drawn]
    batch = ScenarioBatch(
        np.stack([sc.initial.matrix for sc in scenarios]),
        drawn[0].slots,
        tuple(np.stack([sc.evolutions[k] for sc in scenarios]) for k in range(2)),
    )
    sup, tv = bundle_distances(batch.tables)
    for n, sc in enumerate(scenarios):
        one_sup, one_tv = bundle_distances(sc.tables)
        assert sup[n].tobytes() == one_sup[0].tobytes() and tv[n].tobytes() == one_tv[0].tobytes(), n


def test_lattice_residuals_are_the_per_comparison_form():
    rep = verify_lattice()
    numeric = batch_numeric_residuals(rep.points, rep.convention)
    tables = mz_batch(rep.points, rep.convention).tables
    members, bound = reference_bundle(tables)[0], member_roundoff(tables)
    for name, values in members.items():
        assert np.abs(numeric[name] - values).max() <= bound[name], name
    mr = np.abs(numeric["MR_012"] - np.maximum.reduce(list(members.values()))).max()
    assert mr <= roundoff(tables, FULL)


def test_mr_bundle_needs_three_slots():
    fam = path_family()
    init = DensityState(np.eye(2) / 2)
    sc = Scenario(init, (Slot(0.0, fam), Slot(1.0, fam)), (np.eye(2, dtype=complex),))
    with pytest.raises(ValueError):
        mr012_check(sc)


def sz_projectors():
    return projective_family(
        [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)],
        [1, -1],
    )


def sx_projectors():
    plus = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    return projective_family([plus, np.eye(2) - plus], [1, -1])


def test_operator_residual_anticommuting_projectors():
    r = nsit_operator_residual(sz_projectors(), sx_projectors())
    assert abs(r - 0.5) < 1e-12


def test_operator_residual_commuting_is_zero():
    r = nsit_operator_residual(sz_projectors(), sz_projectors())
    assert r < 1e-14


def test_operator_residual_bounds_statistical_residual():
    rng = np.random.default_rng(25)
    first, second = sz_projectors(), sx_projectors()
    bound = nsit_operator_residual(first, second)
    for _ in range(25):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = z @ z.conj().T
        rho = DensityState(m / np.trace(m).real)
        sc = Scenario(
            rho,
            (Slot(0.0, first), Slot(1.0, second)),
            (np.eye(2, dtype=complex),),
        )
        assert nsit_two_time(sc, 0, 1).residual <= bound + 1e-12


@pytest.mark.parametrize("gamma", [1.0, 3.0])
def test_fock_diagonal_readouts_are_classical_under_number_hamiltonians(gamma):
    # Fock bins and exact rings commute with H = n and H = n^2 / 2, so their
    # NSIT residual is zero for every state and time
    dim = default_fock_dim(gamma) + 10
    n = number_operator(dim)
    initial = coherent_state(gamma, dim).density()
    for fam in (fock_bin_family("2m^2", dim), ring_family(1.5, dim, 12.0)):
        for h in (n, 0.5 * n @ n):
            for t in (0.3, math.pi / 2.0, math.pi, 2.0):
                u = unitary_from_hamiltonian(h, t)
                sc = Scenario(initial, (Slot(0.0, fam), Slot(t, fam)), (u,))
                assert nsit_two_time(sc, 0, 1).residual <= 1e-14
                assert nsit_operator_residual(fam, fam, u) <= 1e-14


def test_operator_residual_rejects_incomplete():
    ops = np.zeros((1, 2, 2), dtype=complex)
    ops[0, 0, 0] = 1.0
    partial = KrausFamily(
        label="partial", outcomes=np.array([0]), weights=np.ones(1), kind="dense", ops=ops
    )
    with pytest.raises(ValueError):
        nsit_operator_residual(partial, sz_projectors())


def test_unitary_kraus_commutator_triple():
    # the instructive pair: maximally noncommuting Kraus operators whose
    # instruments are nevertheless mutually non-invasive
    a = single_kraus_family(SX, "sx")
    b = single_kraus_family(SY, "sy")
    comm = commutator_tests(a, b)
    assert abs(comm["pairwise"] - 2.0) < 1e-12
    assert comm["sandwich"] < 1e-14
    assert nsit_operator_residual(a, b) < 1e-14


def test_nsit_operator_residual_matches_einsum_form():
    def random_kraus(rng, dim, n):
        # n blocks of an isometry, rescaled so that sum_a w_a A_a' A_a = I
        w = rng.uniform(0.5, 2.0, n)
        v = haar_unitary(rng, n * dim)[:, :dim].reshape(n, dim, dim)
        return KrausFamily("kraus", np.arange(n), w, ops=v / np.sqrt(w)[:, None, None])

    def einsum_forms(first, second, between):
        """The residual and the sandwich norm summed over first's outcomes."""
        w, a, s_first = first.weights, first.dense_ops(), first.completeness_operator()
        residual = sandwich = 0.0
        for b in second.dense_ops():
            bb = b @ between
            e = bb.conj().T @ bb
            with_first = np.einsum("a,aji,jk,akl->il", w, a.conj(), e, a, optimize=True)
            residual = max(residual, operator_norm(with_first - bb.conj().T @ s_first @ bb))
            e = b.conj().T @ b
            acc = np.einsum("a,aji,ajk->ik", w, a.conj(), e @ a - a @ e, optimize=True)
            sandwich = max(sandwich, operator_norm(acc))
        return residual, sandwich

    rng = np.random.default_rng(21)
    cases = [
        (random_kraus(rng, dim, 3), random_kraus(rng, dim, 2), haar_unitary(rng, dim))
        for dim in range(2, 7)
    ]
    # a diagonal family with a basis, a Fock-diagonal one and a complete rank-one one
    lattice = ComplexLattice.square(5.0, 0.5)
    cases += [
        (first, random_kraus(rng, 8, 2), haar_unitary(rng, 8))
        for first in (
            gaussian_x_family(0.8, 8),
            fock_bin_family("2m", 8),
            symmetrize_completeness(coherent_projector_family(lattice, 8)),
        )
    ]
    for first, second, between in cases:
        residual, sandwich = einsum_forms(first, second, between)
        assert residual > 1e-3
        assert abs(nsit_operator_residual(first, second, between) - residual) < 1e-14
        assert abs(commutator_tests(first, second)["sandwich"] - sandwich) < 1e-14


def isometry_family(rng, dim):
    """A complete random Kraus family: the two blocks of a Haar isometry."""
    ops = haar_unitary(rng, 2 * dim)[:, :dim].reshape(2, dim, dim)
    return KrausFamily("isometry", np.arange(2), np.ones(2), ops=ops)


def test_operator_criteria_of_a_rank_one_first_family_equal_its_dense_copy():
    # the dual map of a rank-one family is its adjoint's channel, never densified
    first = symmetrize_completeness(coherent_projector_family(ComplexLattice.square(5.0, 0.5), 8))
    dense = KrausFamily("dense_copy", first.outcomes, first.weights, ops=first.dense_ops())
    rng = np.random.default_rng(22)
    for second in (gaussian_x_family(0.8, 8), fock_bin_family("2m", 8), isometry_family(rng, 8)):
        for between in (None, haar_unitary(rng, 8)):
            residual = nsit_operator_residual(first, second, between)
            assert residual > 1e-3
            assert abs(residual - nsit_operator_residual(dense, second, between)) < 1e-12
        rank_one, copy = commutator_tests(first, second), commutator_tests(dense, second)
        for key in ("pairwise", "sandwich"):
            assert abs(rank_one[key] - copy[key]) < 1e-12, key


def test_projective_necessity_both_ways():
    rep = projective_necessity_check(sz_projectors(), sz_projectors())
    assert rep["non_invasive"] and rep["commuting"] and rep["equivalent"]
    rep2 = projective_necessity_check(sz_projectors(), sx_projectors())
    assert not rep2["non_invasive"] and not rep2["commuting"]
    assert rep2["equivalent"]
    with pytest.raises(ValueError, match="^first family element 0 is not a projector$"):
        projective_necessity_check(single_kraus_family(SX), sz_projectors())
    with pytest.raises(ValueError, match="^second family element 0 is not a projector$"):
        projective_necessity_check(sz_projectors(), single_kraus_family(SX))


def test_classical_operator_coarse_quadratures_decrease():
    dim = 40
    r25 = classical_operator(
        gaussian_x_family(5.0, dim), [gaussian_p_family(5.0, dim)]
    )
    r100 = classical_operator(
        gaussian_x_family(10.0, dim), [gaussian_p_family(10.0, dim)]
    )
    assert 1e-3 < r25 < 0.1
    assert r100 < r25
    assert r100 < 5e-3


def test_classical_hamiltonian_sees_rotation():
    dim = 24
    fam = gaussian_x_family(4.0, dim)
    h = number_operator(dim)
    quiet = classical_hamiltonian(fam, [fam], h, [0.0])
    rotated = classical_hamiltonian(fam, [fam], h, [0.0, math.pi / 2.0])
    assert quiet < 1e-10
    assert rotated > 10.0 * max(quiet, 1e-12)
    with pytest.raises(ValueError, match="^need at least one evolution time$"):
        classical_hamiltonian(fam, [fam], h, [])
    # a generator of references serves every time, not only the first
    assert classical_hamiltonian(fam, (f for f in [fam]), h, [0.0, math.pi / 2.0]) == rotated


def test_each_experiment_table_is_computed_once(passes, capsys, tmp_path):
    assert main(["nsit-check", str(resources.files("macroreal") / "data" / "mz_phi0.json")]) == 1
    capsys.readouterr()
    assert passes == [3]

    passes.clear()
    sc = random_scenario(np.random.default_rng(31))
    bundle = mr012_check(sc).to_dict()
    lgi_012(sc)
    nic_012(sc)
    assert passes == [3]
    # the conditions read the pass itself and slice no table out of it
    assert not sc.tables
    for r in range(4):
        for measured in itertools.combinations(range(3), r):
            sc.tables[measured]
    assert len(sc.tables) == 8
    assert_tables_are_slices_of_one_pass(sc.tables)
    with pytest.raises(ValueError):
        sc.tables.every[0, 0, 0, 0] = 0.5
    with pytest.raises(ValueError):
        sc.tables[(0,)][0, 0] = 0.5
    with pytest.raises(ValueError):
        joint_distribution(sc).values[0, 0, 0] = 0.5
    assert mr012_check(sc).to_dict() == bundle
    assert passes == [3]

    # each bundle condition alone
    rng = np.random.default_rng(33)
    for check in (lgi_012, nic_012, nsit_sandwich, nsit_leading):
        passes.clear()
        check(random_scenario(rng))
        assert passes == [3], check.__name__

    # four slots: no bundle, and the pairs read off one pass
    passes.clear()
    sc = random_scenario(rng)
    four = Scenario(
        sc.initial,
        (*sc.slots, Slot(3.0, sc.slots[0].instrument)),
        (*sc.evolutions, haar_unitary(rng, 2)),
    )
    path = tmp_path / "four_slot.json"
    save_scenario(four, path)
    main(["nsit-check", str(path)])
    captured = capsys.readouterr()
    assert "bundle skipped" in captured.err
    assert len(captured.out.splitlines()) == 12
    assert passes == [4]

    passes.clear()
    rng = np.random.default_rng(32)
    points = [MZParams(rng.random(), rng.random(), 2.0 * math.pi * rng.random()) for _ in range(5)]
    for batch in (points[:1], points):
        batch_numeric_residuals(batch)
    assert passes == [3] * 2

    # whichever key is read first: one pass, and each table read is its slice
    # of the pass, equal bit for bit to the pass of a fresh copy
    batch = mz_batch(points)
    for fresh in (
        lambda: random_scenario(np.random.default_rng(34)),
        lambda: Scenario(four.initial, four.slots, four.evolutions),
        lambda: ScenarioBatch(batch.initial, batch.slots, batch.evolutions),
    ):
        reference = fresh().tables.every
        n_slots = reference.ndim - 1
        for r in range(n_slots + 1):
            for first in itertools.combinations(range(n_slots), r):
                passes.clear()
                tables = fresh().tables
                tables[first]
                assert passes == [n_slots] and list(tables) == [first]
                assert reference.tobytes() == tables.every.tobytes(), first
                assert_tables_are_slices_of_one_pass(tables)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("dichotomic", [True, False])
def test_table_functions_on_a_batch_equal_the_single_scenario_reports(dim, dichotomic):
    rng = np.random.default_rng(40 + dim + 10 * dichotomic)
    drawn = [random_scenario(rng, dim, dichotomic=dichotomic) for _ in range(50)]
    slots = drawn[0].slots
    scenarios = [Scenario(sc.initial, slots, sc.evolutions) for sc in drawn]
    batch = ScenarioBatch(
        np.stack([sc.initial.matrix for sc in scenarios]),
        slots,
        tuple(np.stack([sc.evolutions[k] for sc in scenarios]) for k in range(2)),
    )
    t = batch.tables
    for n, sc in enumerate(scenarios):
        for i, j in PAIRS:
            assert nsit_residual(t, i, j)[n] == nsit_two_time(sc, i, j).residual
            assert aot_residual(t, i, j)[n] == aot_check(sc, i, j).residual
            assert correlator(t, i, j)[n] == correlator(sc.tables, i, j)[0]
        residuals = mr012_residuals(t)
        assert residuals["NSIT_0(1)2"][n] == nsit_sandwich(sc).residual
        assert residuals["NSIT_(0)12"][n] == nsit_leading(sc).residual
        members = mr012_check(sc).members
        assert {k: v[n] for k, v in residuals.items()} == {
            k: r.residual for k, r in members.items()
        }
        for values, report in ((lgi_values, lgi_012), (nic_values, nic_012)):
            single = {k: v[0] for k, v in values(sc.tables).items()}
            assert {k: v[n] for k, v in values(t).items()} == single
            if dichotomic:
                rep = report(sc)
                assert single == {"residual": rep.residual, **rep.context}
