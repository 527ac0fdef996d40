import math
import tracemalloc

import numpy as np
import pytest

from helpers import born_probabilities, kraus_operator, random_scenario, ring_labels, single_slot_table, traced_peak
from macroreal import hilbert, instruments
from macroreal.hilbert import coherent_amplitudes, coherent_state, operator_norm
from macroreal.instruments import (
    ComplexLattice,
    Grid1D,
    KrausFamily,
    cell_labels,
    coherent_coarse_family,
    coherent_columns,
    coherent_projector_family,
    fock_bin_family,
    gaussian_p_family,
    gaussian_x_family,
    identity_family,
    parse_bin_border,
    projective_family,
    ring_family,
    single_kraus_family,
    symmetrize_completeness,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def random_rho(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def test_grid1d_basics():
    g = Grid1D(-2.0, 2.0, 5)
    assert np.allclose(g.points, [-2, -1, 0, 1, 2])
    assert g.step == 1.0
    with pytest.raises(ValueError):
        Grid1D(1.0, 0.0, 5)


def test_complex_lattice_square():
    lat = ComplexLattice.square(1.0, 0.5)
    assert lat.re_axis.size == 5 and lat.im_axis.size == 5
    assert lat.points.size == 25
    assert np.allclose(lat.weights, 0.25)
    assert complex(0, 0) in set(lat.points.tolist())


def test_projective_family_validation():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    fam = projective_family([p0, np.eye(2) - p0], [1, -1])
    assert fam.completeness_defect < 1e-14
    with pytest.raises(ValueError, match="^projectors 0 and 1 overlap$"):
        projective_family([p0, p0], [1, -1])  # overlapping, wrong sum
    with pytest.raises(ValueError, match="^projectors do not sum to the identity$"):
        projective_family([p0], [1])  # incomplete
    with pytest.raises(ValueError, match="^element 1 is not an orthogonal projector$"):
        projective_family([p0, 2 * (np.eye(2) - p0)], [1, -1])  # not idempotent
    skew = np.array([[1.0, 1.0], [0.0, 0.0]])  # idempotent, not Hermitian
    with pytest.raises(ValueError, match="^element 0 is not an orthogonal projector$"):
        projective_family([skew, np.eye(2) - skew], [1, -1])
    # (1 + eps) p0 misses idempotence by about eps against atol 1e-10
    fam = projective_family([(1 + 1e-11) * p0, np.eye(2) - p0], [1, -1])
    assert fam.completeness_defect < 1e-10
    with pytest.raises(ValueError, match="^element 0 is not an orthogonal projector$"):
        projective_family([(1 + 1e-9) * p0, np.eye(2) - p0], [1, -1])

    # three outcomes; when several checks fail, the first of element, overlap
    # and sum names the fault
    e0, e1, e2 = (np.diag(row).astype(complex) for row in np.eye(3))
    assert projective_family([e0, e1, e2], [0, 1, 2]).n_outcomes == 3
    with pytest.raises(ValueError, match="^element 2 is not an orthogonal projector$"):
        projective_family([e0, e0, 2 * e2], [0, 1, 2])  # 0 and 1 overlap, sum is wrong
    with pytest.raises(ValueError, match="^projectors 1 and 2 overlap$"):
        projective_family([e0, e1 + e2, e2], [0, 1, 2])  # sum is wrong
    with pytest.raises(ValueError, match="^projectors do not sum to the identity$"):
        projective_family([e0, e1, np.zeros((3, 3))], [0, 1, 2])


def test_completeness_defect_is_computed_on_first_read():
    dense = random_scenario(np.random.default_rng(9), dim=3).slots[0].instrument
    assert "completeness_defect" not in vars(dense)
    weights = np.array([0.5, 2.0, 1.25])
    share = np.random.default_rng(7).dirichlet(np.ones(3), size=30).T
    fams = [
        dense,
        gaussian_x_family(1.0, 12),  # diagonal in the position eigenbasis
        fock_bin_family("2m^2", 10),  # diagonal in the Fock basis
        fock_bin_family("m", 40),
        ring_family(0.5, 10, 8.0),  # Fock-diagonal with roundoff defects
        ring_family(2.0, 60, 20.0),
        ring_family(6.0, 260, 40.0),
        # Fock-diagonal with weights 0.5, 2 and 1.25, effects summing to 1.1
        KrausFamily(
            label="weighted",
            outcomes=np.arange(3),
            weights=weights,
            kind="diagonal",
            envelopes=np.sqrt(1.1 * share / weights[:, None]),
        ),
        coherent_projector_family(ComplexLattice.square(2.0, 0.5), 8),  # rank one
    ]
    assert all(fam.completeness_defect > 0.0 for fam in fams[4:8])  # the rings and the weighted family
    for fam in fams:
        expected = operator_norm(fam.completeness_operator() - np.eye(fam.dim))
        assert fam.completeness_defect == expected
        assert fam.describe()["completeness_defect"] == expected


def test_dense_completeness_operator_matches_einsum_form():
    def einsum_form(fam):
        return np.einsum("a,aji,ajk->ik", fam.weights, fam.ops.conj(), fam.ops)

    sweep = random_scenario(np.random.default_rng(8), dim=3).slots[0].instrument
    smeared = gaussian_x_family(0.8, 8)
    weighted = KrausFamily(
        label="dense_copy",
        outcomes=smeared.outcomes,
        weights=smeared.weights,
        kind="dense",
        ops=smeared.dense_ops(),
    )
    lat = ComplexLattice.square(6.0, 0.25)
    labels, n_rings = ring_labels(lat.points, 2.0, 6.0 * math.sqrt(2.0) + 1.0)
    ring = coherent_coarse_family(labels, n_rings, lat, 24)
    for fam in (sweep, weighted, ring):
        assert np.max(np.abs(fam.completeness_operator() - einsum_form(fam))) < 1e-14


def test_dense_channel_and_density_match_einsum_form():
    def channel_form(fam, rho):
        return np.einsum("a,aij,jk,alk->il", fam.weights, fam.ops, rho, fam.ops.conj())

    rng = np.random.default_rng(12)
    sweep = random_scenario(rng, dim=3).slots[0].instrument
    smeared = gaussian_x_family(0.8, 8)
    weighted = KrausFamily(
        label="dense_copy",
        outcomes=smeared.outcomes,
        weights=smeared.weights,
        kind="dense",
        ops=smeared.dense_ops(),
    )
    lat = ComplexLattice.square(4.0, 0.25)
    labels, n_cells = cell_labels(lat.points, 2.0, 4.5)
    cells = coherent_coarse_family(labels, n_cells, lat, 12)
    for fam in (sweep, weighted, cells):
        rho = random_rho(rng, fam.dim)
        assert np.max(np.abs(fam.channel(rho) - channel_form(fam, rho))) < 1e-14
        assert np.max(np.abs(single_slot_table(fam, rho) - born_probabilities(fam, rho))) < 1e-14


def test_identity_and_single_kraus():
    fam = identity_family(3)
    rho = np.eye(3, dtype=complex) / 3
    assert np.allclose(fam.channel(rho), rho)
    sk = single_kraus_family(SX)
    assert sk.completeness_defect < 1e-14


def test_probability_density_consistency_across_kinds():
    rng = np.random.default_rng(3)
    dim = 8
    rho = random_rho(rng, dim)
    fam = gaussian_x_family(0.8, dim)
    dense = KrausFamily(
        label="dense_copy",
        outcomes=fam.outcomes,
        weights=fam.weights,
        kind="dense",
        ops=fam.dense_ops(),
    )
    assert np.max(np.abs(single_slot_table(fam, rho) - single_slot_table(dense, rho))) < 1e-12
    assert np.max(np.abs(fam.channel(rho) - dense.channel(rho))) < 1e-12
    assert abs(single_slot_table(fam, rho).sum() - 1.0) < 1e-8


def test_rank1_consistency_with_dense():
    rng = np.random.default_rng(4)
    dim = 10
    rho = random_rho(rng, dim)
    lat = ComplexLattice.square(4.0, 0.5)
    fam = coherent_projector_family(lat, dim)
    dense = KrausFamily(
        label="dense_copy",
        outcomes=fam.outcomes,
        weights=fam.weights,
        kind="dense",
        ops=fam.dense_ops(),
    )
    assert np.max(np.abs(single_slot_table(fam, rho) - single_slot_table(dense, rho))) < 1e-12
    assert np.max(np.abs(fam.channel(rho) - dense.channel(rho))) < 1e-12
    assert abs(fam.completeness_defect - dense.completeness_defect) < 1e-12


FAMILY_KINDS = {
    # weights other than 1 throughout, and non-Hermitian dense operators
    "dense": lambda rng: KrausFamily(
        "random_dense",
        np.arange(3),
        rng.uniform(0.5, 2.0, 3),
        ops=rng.standard_normal((3, 8, 8)) + 1j * rng.standard_normal((3, 8, 8)),
    ),
    "fock_diagonal": lambda rng: ring_family(1.0, 8, 4.0),
    "basis_diagonal": lambda rng: gaussian_x_family(0.8, 8),
    "rank1": lambda rng: coherent_projector_family(ComplexLattice.square(3.0, 0.5), 8),
}


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_family_kinds_against_explicit_operators(kind):
    rng = np.random.default_rng(30)
    fam = FAMILY_KINDS[kind](rng)
    ops = np.stack([kraus_operator(fam, i) for i in range(fam.n_outcomes)])
    assert fam.fock_diagonal == (kind == "fock_diagonal")
    assert np.max(np.abs(fam.dense_ops() - ops)) < 1e-15
    stack = rng.standard_normal((4, 8, 8)) + 1j * rng.standard_normal((4, 8, 8))
    stack += stack.conj().swapaxes(1, 2)  # the channel's inputs are Hermitian
    channel, dual = fam.channel(stack), fam.adjoint().channel(stack)
    assert channel.shape == dual.shape == stack.shape
    for e, out, dual_out in zip(stack, channel, dual):
        assert np.max(np.abs(out - fam.channel(e))) < 1e-14
        explicit = sum(w * a.conj().T @ e @ a for w, a in zip(fam.weights, ops))
        assert np.max(np.abs(dual_out - explicit)) < 1e-13


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_channel_of_a_non_hermitian_matrix_and_of_a_state_vector(kind):
    rng = np.random.default_rng(31)
    fam = FAMILY_KINDS[kind](rng)
    ops = np.stack([kraus_operator(fam, i) for i in range(fam.n_outcomes)])
    e = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    explicit = sum(w * a @ e @ a.conj().T for w, a in zip(fam.weights, ops))
    dual = sum(w * a.conj().T @ e @ a for w, a in zip(fam.weights, ops))
    assert np.max(np.abs(fam.channel(e) - explicit)) < 1e-13
    assert np.max(np.abs(fam.adjoint().channel(e) - dual)) < 1e-13
    # a state vector psi reads as |psi><psi|; the random dense operators give
    # entries near 10, so the bound is taken relative to the largest
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi /= np.linalg.norm(psi)
    for f in (fam, fam.adjoint()):
        expected = f.channel(np.outer(psi, psi.conj()))
        assert np.max(np.abs(f.channel(psi) - expected)) <= 1e-15 * max(1.0, np.abs(expected).max())


def test_coherent_coarse_raw_defect_is_the_unsymmetrized_defect(monkeypatch):
    # the raw defect comes from the eigenvalues of S that the symmetrization
    # computes; the family it symmetrizes is caught on its way in
    seen = []

    def spy(family):
        seen.append(family)
        return symmetrize_completeness(family)

    monkeypatch.setattr(instruments, "symmetrize_completeness", spy)
    lat = ComplexLattice.square(6.0, 0.25)
    for side in (1.0, 2.0):
        labels, n_cells = cell_labels(lat.points, side, 6.5)
        fam = coherent_coarse_family(labels, n_cells, lat, 24)
        assert fam.meta["symmetrized"] and seen[-1].meta.get("symmetrized") is None
        assert abs(fam.meta["raw_defect"] - seen[-1].completeness_defect) <= 1e-15


def test_gaussian_x_family_completeness_example():
    fam = gaussian_x_family(1.0, 40, Grid1D(-12.0, 12.0, 481))
    assert fam.completeness_defect < 1e-6
    with pytest.raises(ValueError):
        gaussian_x_family(1.0, 40, Grid1D(-3.0, 3.0, 61))  # grid far too narrow


def test_gaussian_p_family_defaults_complete():
    fam = gaussian_p_family(2.0, 24)
    assert fam.completeness_defect < 1e-9


def test_gaussian_channel_preserves_trace_and_dephases():
    rng = np.random.default_rng(5)
    dim = 12
    rho = random_rho(rng, dim)
    fam = gaussian_x_family(0.5, dim)
    out = fam.channel(rho)
    assert abs(np.trace(out).real - 1.0) < 1e-9
    # smearing in x suppresses far off-diagonal elements in the x eigenbasis
    v = fam.basis
    rin = v.conj().T @ rho @ v
    rout = v.conj().T @ out @ v
    far = np.triu_indices(dim, k=6)
    assert np.max(np.abs(rout[far])) < np.max(np.abs(rin[far]))


def test_coherent_projector_family_defects_by_dim():
    lat = ComplexLattice.square(6.0, 0.25)
    assert coherent_projector_family(lat, 12).completeness_defect < 1e-6
    assert coherent_projector_family(lat, 20).completeness_defect < 1e-3
    with pytest.raises(ValueError):
        coherent_projector_family(lat, 20, defect_ceiling=1e-6)


def test_husimi_of_vacuum_through_family_density():
    lat = ComplexLattice.square(6.0, 0.25)
    dim = 40
    fam = coherent_projector_family(lat, dim)
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    density = single_slot_table(fam, rho) / fam.weights
    expected = np.exp(-np.abs(lat.points) ** 2) / math.pi
    assert np.max(np.abs(density - expected)) < 1e-6


def test_coherent_columns_match_overlap():
    pts = np.array([0.3 + 0.4j, -1.2j, 0.0])
    cols = coherent_columns(pts, 50)
    from macroreal.hilbert import coherent_overlap

    gram = cols.conj().T @ cols
    for i in range(3):
        for j in range(3):
            assert abs(gram[i, j] - coherent_overlap(pts[i], pts[j])) < 1e-12


def test_coherent_columns_equal_coherent_amplitudes():
    # the origin, a point on the negative real axis (theta = pi), and points
    # out to radius 16, where level 259 carries most of the weight
    pts = np.array([0.0, -1.7, -16.0 + 0.0j, 0.3 + 0.4j, -2.5j, 11.0 - 11.0j, 16.0j])
    dim = 260
    cols = coherent_columns(pts, dim)
    assert cols.shape == (dim, pts.size)
    for a, point in enumerate(pts):
        assert np.max(np.abs(cols[:, a] - coherent_amplitudes(point, dim))) < 1e-12


def test_coherent_columns_on_both_sides_of_the_underflow_radius():
    # e^{-|b|^2/2} leaves the normal doubles near |b| = 37.4, where the
    # recurrence hands over to the log-domain form: three points just inside
    # that radius, three past |b| = 38
    pts = np.array([37.0, 37.4j, -26.4 - 26.4j, 38.5, -40.0j, 30.0 + 30.0j])
    dim = 2400  # holds the Poisson peak of |b|^2 = 1,800 with 14 widths to spare
    cols = coherent_columns(pts, dim)
    for a, point in enumerate(pts):
        assert np.max(np.abs(cols[:, a] - coherent_amplitudes(point, dim))) < 1e-12
        assert abs(np.linalg.norm(cols[:, a]) - 1.0) < 1e-12


def test_ring_family_is_an_exact_diagonal_partition():
    for d, dim, max_radius in ((0.5, 29, 9.0), (2.0, 53, 12.0), (8.0, 260, 25.0)):
        fam = ring_family(d, dim, max_radius)
        assert fam.kind == "diagonal" and fam.basis is None
        assert fam.n_outcomes == ring_labels(np.zeros(1), d, max_radius)[1]
        assert fam.completeness_defect <= 1e-14
    # vacuum: pi^-1 int_{|a| < d} e^{-|a|^2} d^2a = 1 - e^{-d^2} in the first ring
    fam = ring_family(1.5, 10, 6.0)
    assert abs(fam.envelopes[0, 0] ** 2 - (1.0 - math.exp(-2.25))) < 1e-15
    with pytest.raises(ValueError, match="ring width must be positive"):
        ring_family(0.0, 10, 6.0)


def test_ring_family_size_estimate_is_its_traced_peak_and_a_ceiling(monkeypatch):
    # count rings at dim levels peak at 8 count (4 dim + 3) bytes, within 10%
    ring_family(1.0, 10, 5.0)  # scipy.special is imported before tracing
    for d, dim, max_radius in ((0.5, 21, 10.0), (0.02, 100, 20.0), (1.0, 260, 30.0), (0.001, 5, 30.0)):
        estimate = 8 * ring_labels(np.zeros(1), d, max_radius)[1] * (4 * dim + 3)
        tracemalloc.start()
        try:
            ring_family(d, dim, max_radius)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.9 * estimate < peak < 1.1 * estimate, (d, dim, peak, estimate)
    # a family over the ceiling is refused before any array is built
    estimate = 8 * 21 * (4 * 21 + 3)
    monkeypatch.setattr(hilbert, "PHYSICAL_MEMORY_BYTES", estimate)
    assert ring_family(0.5, 21, 10.0).n_outcomes == 21
    monkeypatch.setattr(hilbert, "PHYSICAL_MEMORY_BYTES", estimate - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"21 ring envelopes need {estimate:,} bytes"):
            ring_family(0.5, 21, 10.0)
        _, allocated = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert allocated < 10_000


def test_coarse_family_size_estimates_bound_their_traced_peaks(monkeypatch):
    # coherent projectors on n points at dim d peak at n (16 k d + d + 80)
    # bytes within 10%, k = 2 stacks, or 4 when the defect is read; coarse
    # cells at n (16 (3 d + 3)) + 49 m d^2 bytes for m cells, at least the
    # traced peak and at most 2.5 times it: the point blocks and singular
    # vectors of the SVD groups stay below the three column stacks counted,
    # and the columns are released before the ops are copied
    for radius, step, dim in ((6.0, 0.25, 29), (6.0, 0.125, 20), (7.0, 0.25, 45)):
        lattice = ComplexLattice.square(radius, step)
        n = lattice.size
        assert n == lattice.points.size
        for stacks, ceiling in ((2, None), (4, 2.0)):
            estimate = n * (16 * stacks * dim + dim + 80)
            peak = traced_peak(lambda: coherent_projector_family(lattice, dim, defect_ceiling=ceiling))
            assert 0.9 * estimate < peak < 1.1 * estimate, (n, dim, stacks, peak / estimate)
        for side in (0.75, 1.0, 2.0, 4.0):
            labels, m = cell_labels(lattice.points, side, radius + 2.0 * step)
            labels = np.where(labels < 0, 0, labels)
            estimate = 16 * n * (3 * dim + 3) + 49 * m * dim * dim
            peak = traced_peak(lambda: coherent_coarse_family(labels, m, lattice, dim))
            assert peak <= estimate < 2.5 * peak, (n, dim, side, estimate / peak)

    # the side-0.75 cells of cell_overlap at |gamma| = 1: 324 cells at dim 29,
    # refused before any column is built
    lattice = ComplexLattice.square(6.0, 0.25)
    labels, m = cell_labels(lattice.points, 0.75, 6.5)
    assert m == 324
    estimate = 16 * lattice.size * (3 * 29 + 3) + 49 * m * 29 * 29
    monkeypatch.setattr(hilbert, "PHYSICAL_MEMORY_BYTES", estimate - 1)
    with pytest.raises(ValueError, match=f"324 coarse cells on 2,401 lattice points need {estimate:,} bytes"):
        coherent_coarse_family(np.where(labels < 0, 0, labels), m, lattice, 29)
    estimate = lattice.size * (16 * 2 * 29 + 29 + 80)
    monkeypatch.setattr(hilbert, "PHYSICAL_MEMORY_BYTES", estimate - 1)
    allocated = traced_peak(lambda: pytest.raises(ValueError, coherent_projector_family, lattice, 29))
    assert allocated < 10_000
    monkeypatch.setattr(hilbert, "PHYSICAL_MEMORY_BYTES", estimate)
    assert coherent_projector_family(lattice, 29).n_outcomes == 2401


def test_parse_bin_border():
    assert parse_bin_border("m")(3) == 3
    assert parse_bin_border("2m^2")(3) == 18
    assert parse_bin_border("100*m**2")(2) == 400
    assert parse_bin_border("10m^2")(1) == 10
    with pytest.raises(ValueError):
        parse_bin_border("m+n")


def test_fock_bin_family_structure():
    fam = fock_bin_family("2m^2", 20)
    # borders 0, 2, 8, 18, 32 -> bins {0,1}, {2..7}, {8..17}, {18,19}
    assert fam.n_outcomes == 4
    assert fam.completeness_defect < 1e-14
    rho = np.full((20, 20), 0.05, dtype=complex)
    out = fam.channel(rho)
    assert abs(out[0, 1] - rho[0, 1]) < 1e-14  # same bin, coherence kept
    assert abs(out[0, 2]) < 1e-14  # across bins, coherence erased
    again = fam.channel(out)
    assert np.max(np.abs(again - out)) < 1e-14


def test_fock_bin_family_unit_bins():
    fam = fock_bin_family("m", 6)
    assert fam.n_outcomes == 6
    rho = np.full((6, 6), 1.0 / 6.0, dtype=complex)
    out = fam.channel(rho)
    assert np.allclose(out, np.diag(np.full(6, 1.0 / 6.0)))


def test_fock_bin_family_borders_finer_than_levels():
    # borders 0, 0.5, 1, ... put one level in every other bin; the empty bins
    # are dropped and no level is lost
    fam = fock_bin_family("0.5m", 20)
    assert fam.n_outcomes == 20
    assert fam.outcomes.tolist() == list(range(0, 40, 2))
    assert fam.completeness_defect < 1e-14
    assert np.array_equal(fam.envelopes, fock_bin_family("m", 20).envelopes)
    # bounded borders never pass the top level
    with pytest.raises(ValueError, match="bin borders do not pass dim 10"):
        fock_bin_family(lambda m: 5 - 1 / m, 10)


def test_symmetrize_dense_and_kind_preservation():
    rng = np.random.default_rng(6)
    dim = 6
    # perturb a projective family so it is only approximately complete
    u = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    ops = np.stack([np.outer(u[:, k], u[:, k].conj()) for k in range(dim)])
    ops = ops * (1.0 + 0.01 * rng.standard_normal(dim)[:, None, None])
    fam = KrausFamily(
        label="wobbly", outcomes=np.arange(dim), weights=np.ones(dim), kind="dense", ops=ops
    )
    assert fam.completeness_defect > 1e-4
    fixed = symmetrize_completeness(fam)
    assert fixed.completeness_defect < 1e-12
    assert fixed.kind == "dense"

    gx = gaussian_x_family(0.7, 10)
    gx_fixed = symmetrize_completeness(gx)
    assert gx_fixed.kind == "diagonal"
    assert gx_fixed.completeness_defect < 1e-12

    lat = ComplexLattice.square(5.0, 0.5)
    cf = coherent_projector_family(lat, 8)
    cf_fixed = symmetrize_completeness(cf)
    assert cf_fixed.kind == "rank1"
    assert cf_fixed.completeness_defect < 1e-10
    rho = random_rho(rng, 8)
    dense_fixed = symmetrize_completeness(
        KrausFamily(
            label="dense_copy",
            outcomes=cf.outcomes,
            weights=cf.weights,
            kind="dense",
            ops=cf.dense_ops(),
        )
    )
    assert np.max(np.abs(cf_fixed.channel(rho) - dense_fixed.channel(rho))) < 1e-10


def test_symmetrize_rejects_singular():
    ops = np.zeros((2, 3, 3), dtype=complex)
    ops[0, 0, 0] = 1.0
    ops[1, 1, 1] = 1.0  # level 2 never touched
    fam = KrausFamily(
        label="partial", outcomes=np.array([0, 1]), weights=np.ones(2), kind="dense", ops=ops
    )
    with pytest.raises(ValueError):
        symmetrize_completeness(fam)


def test_ring_and_cell_labels_partition():
    lat = ComplexLattice.square(4.0, 0.5)
    pts = lat.points
    labels, n_rings = ring_labels(pts, 1.5, 4.0 * math.sqrt(2.0) + 1.0)
    assert np.all((labels >= 0) & (labels < n_rings))
    assert np.all(labels == np.floor(np.abs(pts) / 1.5))
    clabels, n_cells = cell_labels(pts, 0.5, 4.2)
    assert np.all((clabels >= 0) & (clabels < n_cells))
    # cells 0.5 wide from -4.25 (n = 17 per axis) hold one lattice point each
    assert n_cells == 17 * 17 and np.unique(clabels).size == pts.size
    assert np.all(clabels == 17 * np.floor((pts.real + 4.25) / 0.5) + np.floor((pts.imag + 4.25) / 0.5))


def test_cell_labels_use_half_open_cells():
    pts = np.array([-1.0, -0.5 + 0.25j, 0.999 - 1j, 1.0, 1j, -1.0001])
    labels, n_cells = cell_labels(pts, 1.0, 1.0)
    # edges -1, 0, 1: the lower edge belongs to its cell, the upper one not
    assert n_cells == 4
    assert labels.tolist() == [1, 1, 2, -1, -1, -1]
    with pytest.raises(ValueError, match="cell side must be positive"):
        cell_labels(pts, 0.0, 1.0)


def test_coherent_coarse_family_is_complete_after_correction():
    lat = ComplexLattice.square(6.0, 0.25)
    dim = 24
    labels, n_rings = ring_labels(lat.points, 2.0, 6.0 * math.sqrt(2.0) + 1.0)
    fam = coherent_coarse_family(labels, n_rings, lat, dim)
    assert fam.completeness_defect < 1e-10
    assert fam.meta["raw_defect"] < 0.05
    rho = coherent_state(1.0, dim).density().matrix
    p = single_slot_table(fam, rho)
    assert abs(p.sum() - 1.0) < 1e-9
    # |gamma|=1 sits inside the first ring; heterodyne smearing leaks a bit
    # of weight over the border at radius 2 but the first ring dominates
    assert p[0] > 0.8


def test_coherent_coarse_family_matches_full_lattice_moments():
    # brute force: each cell's moment pi^-1 sum_j w_j f(a_j) |a_j><a_j| over
    # the whole lattice with the indicator f of the cell, written B B' with
    # B = cols sqrt(w f / pi); its PSD root is U s U' from the SVD B = U s V',
    # which keeps roundoff at eps (eigh of B B' leaves ~sqrt(eps) in the
    # null space of a cell holding fewer points than dim)
    lat = ComplexLattice.square(3.0, 0.5)
    dim = 8
    cols = coherent_columns(lat.points, dim)
    for side in (1.0, 0.75):
        labels, n_cells = cell_labels(lat.points, side, 4.0)
        roots = []
        for cell in range(n_cells):
            indicator = (labels == cell).astype(float)
            u, s, _ = np.linalg.svd(cols * np.sqrt(lat.weights * indicator / math.pi))
            roots.append((u[:, : s.size] * s) @ u[:, : s.size].conj().T)
        reference = symmetrize_completeness(
            KrausFamily(
                label="brute_force",
                outcomes=np.arange(n_cells),
                weights=np.ones(n_cells),
                kind="dense",
                ops=np.stack(roots),
            )
        )
        fam = coherent_coarse_family(labels, n_cells, lat, dim)
        assert np.array_equal(fam.outcomes, np.arange(n_cells))
        assert np.max(np.abs(fam.ops - reference.ops)) < 1e-12


def test_coarse_family_rejects_non_partition():
    lat = ComplexLattice.square(3.0, 0.5)
    # rings of width 1 up to radius 2 leave the lattice corners unlabelled
    labels, n_rings = ring_labels(lat.points, 1.0, 2.0)
    assert np.any(labels == -1)
    with pytest.raises(ValueError, match=r"needs a label in range\(3\)"):
        coherent_coarse_family(labels, n_rings, lat, 6)
    with pytest.raises(ValueError, match="needs a label"):
        coherent_coarse_family(np.full(lat.points.size, 3), n_rings, lat, 6)


def test_describe_is_json_safe():
    import json

    fam = gaussian_x_family(1.0, 8)
    json.dumps(fam.describe())
    lat = ComplexLattice.square(2.0, 0.5)
    json.dumps(coherent_projector_family(lat, 6).describe())


def test_family_json_round_trip():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    fam = projective_family([p0, np.eye(2) - p0], [1, -1])
    clone = KrausFamily.from_json(fam.to_json())
    assert np.allclose(clone.dense_ops(), fam.dense_ops())
    assert np.allclose(clone.outcomes, fam.outcomes)
