import math
import tracemalloc

import numpy as np
import pytest
from helpers import per_row_coherent_x_overlap

from macroreal import hilbert, overlap
from macroreal.hilbert import coherent_state, default_fock_dim, frame_diagonal
from macroreal.instruments import (
    ComplexLattice,
    Grid1D,
    KrausFamily,
    cell_labels,
    coherent_coarse_family,
    coherent_columns,
    coherent_projector_family,
    fock_bin_family,
    ring_labels,
    ring_family,
)
from macroreal.overlap import (
    HUSIMI_BLOCK,
    QUADRATURE_CASES,
    OutcomeDistribution,
    bhattacharyya,
    branch_husimi,
    cell_overlap,
    coherent_delta_overlap,
    coherent_x_exact,
    coherent_x_overlap,
    fock_overlap,
    husimi,
    quadrature_overlap_analytic,
    quadrature_overlap_numeric,
    ring_overlap,
)
from macroreal.scenario import Scenario, Slot

IDEAL_DELTA = 2.0 * math.sqrt(2.0) / 3.0


def gaussian_distribution(mean, var, grid):
    xs = grid.points
    vals = np.exp(-((xs - mean) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
    return OutcomeDistribution(xs, grid.weights, vals)


def _fock_diagonal_family(name, dim):
    """A Fock-diagonal family that is not a partition into runs of levels."""
    if name == "weighted":
        # three overlapping outcomes with weights 0.5, 2 and 1.25 whose
        # effects sum to the identity
        weights = np.array([0.5, 2.0, 1.25])
        share = np.random.default_rng(7).dirichlet(np.ones(3), size=dim).T
        envelopes = np.sqrt(share / weights[:, None])
    else:
        # 0/1 envelopes whose two bins interleave: even and odd levels
        weights = np.ones(2)
        envelopes = (np.arange(dim) % 2 == np.arange(2)[:, None]).astype(float)
    return KrausFamily(
        label=name, outcomes=np.arange(weights.size), weights=weights, kind="diagonal", envelopes=envelopes
    )


def test_bhattacharyya_identical_and_disjoint():
    grid = Grid1D(-10.0, 10.0, 2001)
    p = gaussian_distribution(0.0, 1.0, grid)
    assert abs(bhattacharyya(p, p) - 1.0) < 1e-8
    left = gaussian_distribution(-6.0, 0.01, grid)
    right = gaussian_distribution(6.0, 0.01, grid)
    assert bhattacharyya(left, right) < 1e-8


def test_bhattacharyya_shifted_gaussians():
    # equal-variance Gaussians overlap at exp(-dmu^2 / (8 v))
    grid = Grid1D(-12.0, 14.0, 4001)
    p = gaussian_distribution(0.0, 1.0, grid)
    q = gaussian_distribution(2.0, 1.0, grid)
    assert abs(bhattacharyya(p, q) - math.exp(-0.5)) < 1e-4


def test_bhattacharyya_rejects_mismatched_grids():
    p = gaussian_distribution(0.0, 1.0, Grid1D(-5.0, 5.0, 101))
    q = gaussian_distribution(0.0, 1.0, Grid1D(-5.0, 5.0, 201))
    with pytest.raises(ValueError):
        bhattacharyya(p, q)


def test_outcome_distribution_validate():
    grid = Grid1D(-8.0, 8.0, 1601)
    gaussian_distribution(0.0, 1.0, grid).validate()
    bad = OutcomeDistribution(grid.points, grid.weights, np.zeros(grid.n))
    with pytest.raises(ValueError):
        bad.validate()


def test_husimi_vacuum_closed_form():
    lattice = ComplexLattice.square(5.0, 0.25)
    rho = np.zeros((20, 20), dtype=complex)
    rho[0, 0] = 1.0
    dist = husimi(rho, lattice)
    expected = np.exp(-np.abs(lattice.points) ** 2) / math.pi
    assert np.max(np.abs(dist.values - expected)) < 1e-8
    assert abs(dist.mass - 1.0) < 1e-4


def test_husimi_blocks_and_pure_state_match_einsum_form():
    lattice = ComplexLattice.square(6.0, 0.25)
    assert lattice.points.size > HUSIMI_BLOCK
    dim = 30
    cols = coherent_columns(lattice.points, dim)
    psi = coherent_state(1.0 + 0.5j, dim).amplitudes
    dephased = fock_bin_family("2m", dim).channel(np.outer(psi, psi.conj()))
    for state, rho in ((psi, np.outer(psi, psi.conj())), (dephased, dephased)):
        einsum_form = np.einsum("im,ij,jm->m", cols.conj(), rho, cols, optimize=True).real / math.pi
        assert np.max(np.abs(husimi(state, lattice).values - einsum_form)) < 1e-15


@pytest.mark.parametrize(
    "name",
    ["fock_bins(m)", "fock_bins(100m^2)", "rings(d=2)", "weighted"],
)
def test_branch_readout_equals_the_readout_of_the_channel(name):
    gamma = 2.5 - 1.5j
    dim = default_fock_dim(gamma)
    lattice = ComplexLattice.square(abs(gamma) + 5.0, 0.25)
    assert lattice.points.size > HUSIMI_BLOCK
    if name == "fock_bins(m)":
        fam = fock_bin_family("m", dim)
    elif name == "fock_bins(100m^2)":
        fam = fock_bin_family("100m^2", dim)
    elif name == "rings(d=2)":
        fam = ring_family(2.0, dim, 12.0)
    else:
        fam = _fock_diagonal_family(name, dim)
        assert fam.completeness_defect < 1e-14
    psi = coherent_state(gamma, dim).amplitudes
    branches = branch_husimi(psi, fam, lattice)
    mixed = husimi(fam.channel(np.outer(psi, psi.conj())), lattice)
    assert np.max(np.abs(branches.values - mixed.values)) < 1e-14


@pytest.mark.parametrize(
    "lattice",
    [
        ComplexLattice.square(5.0, 0.25),  # 1,681 points, below one block
        ComplexLattice(-7.875, 7.875, -7.875, 7.875, 0.25),  # 4,096 points, two blocks
        ComplexLattice.square(6.0, 0.25),  # 2,401 points, one block and a remainder
    ],
)
def test_blocked_reads_equal_the_full_stack_reads(lattice):
    # each HUSIMI_BLOCK block of columns is built on its own; the recurrence is
    # elementwise per point, so every block is its slice of the full stack and
    # each read of the blocks gives the bits of the same read of those slices
    gamma = 2.0 - 1.0j
    dim = default_fock_dim(gamma)
    pts = lattice.points
    cols = coherent_columns(pts, dim)
    blocks = [slice(lo, lo + HUSIMI_BLOCK) for lo in range(0, pts.size, HUSIMI_BLOCK)]
    assert all(np.array_equal(coherent_columns(pts[b], dim), cols[:, b]) for b in blocks)

    def sliced(read):
        return np.concatenate([read(cols[:, b]) for b in blocks]) / math.pi

    psi = coherent_state(gamma, dim).amplitudes
    blocked = husimi(psi, lattice).values
    assert np.array_equal(blocked, sliced(overlap._state_read(psi)))
    # a threaded BLAS splits one product over the whole stack among its threads
    # by the column count and may sum a point at the split in another order;
    # |psi| = 1 and |<n|beta>| <= 1 bound the gap
    full = np.abs(psi.conj() @ cols) ** 2 / math.pi
    assert np.max(np.abs(blocked - full)) <= 2.0 * dim * np.finfo(float).eps / math.pi
    dephased = fock_bin_family("2m", dim).channel(np.outer(psi, psi.conj()))
    assert np.array_equal(husimi(dephased, lattice).values, sliced(overlap._state_read(dephased)))
    for fam in (*(fock_bin_family(rule, dim) for rule in ("m", "2m^2", "100m^2")), ring_family(2.0, dim, 12.0)):
        invaded = sliced(lambda block: overlap._pair_read(psi, fam)(block)[1])
        assert np.array_equal(branch_husimi(psi, fam, lattice).values, invaded)


def _first_block(gamma, dim):
    lattice = ComplexLattice.square(abs(gamma) + 5.0, 0.25)
    return coherent_columns(lattice.points[:HUSIMI_BLOCK], dim)


def _assert_pair_read_is_the_dense_branch_read(psi, fam, block):
    # the dense-envelope branch product, the reads' route before the runs of
    # levels and the stacked untouched row
    amps = (fam.envelopes * psi.conj()) @ block
    invaded = fam.weights @ (amps.real**2 + amps.imag**2)
    reference = np.abs(psi.conj() @ block) ** 2
    pair = overlap._pair_read(psi, fam)(block)
    assert pair.shape == (2, block.shape[1])
    assert np.max(np.abs(pair[0] - reference)) <= 1e-13
    assert np.max(np.abs(pair[1] - invaded)) <= 1e-13


@pytest.mark.parametrize("modulus", [0.5, 1.25, 2.0, 2.75, 3.5, 4.25, 5.0, 6.0])
def test_fock_bin_runs_read_the_dense_branch_product(modulus):
    gamma = modulus * np.exp(0.7j * modulus)
    dim = default_fock_dim(gamma)
    block = _first_block(gamma, dim)
    psi = coherent_state(gamma, dim).amplitudes
    for rule in ("m", "2m", "m^2", "2m^2", "10m^2", "100m^2"):
        fam = fock_bin_family(rule, dim)
        assert overlap._level_runs(fam) is not None, rule
        _assert_pair_read_is_the_dense_branch_read(psi, fam, block)


@pytest.mark.parametrize("name", ["rings(d=2)", "weighted", "interleaved"])
def test_other_fock_diagonal_reads_are_the_dense_branch_product(name):
    gamma = 2.5 - 1.5j
    dim = default_fock_dim(gamma)
    fam = ring_family(2.0, dim, 12.0) if name == "rings(d=2)" else _fock_diagonal_family(name, dim)
    assert overlap._level_runs(fam) is None
    _assert_pair_read_is_the_dense_branch_read(coherent_state(gamma, dim).amplitudes, fam, _first_block(gamma, dim))


@pytest.mark.parametrize("kind", ["cells", "points"])
def test_channel_pair_read_is_the_frame_diagonal_of_the_channel(kind):
    gamma = 1.0 + 0.5j
    dim = default_fock_dim(gamma)
    lattice = ComplexLattice.square(abs(gamma) + 5.0, 0.5)
    if kind == "cells":
        labels, n_cells = cell_labels(lattice.points, 1.0, lattice.re_hi + 1.0)
        fam = coherent_coarse_family(labels, n_cells, lattice, dim)
    else:
        fam = coherent_projector_family(lattice, dim)
    psi = coherent_state(gamma, dim).amplitudes
    block = _first_block(gamma, dim)
    pair = overlap._pair_read(psi, fam)(block)
    assert np.max(np.abs(pair[0] - np.abs(psi.conj() @ block) ** 2)) <= 1e-13
    assert np.max(np.abs(pair[1] - frame_diagonal(block, fam.channel(psi)))) <= 1e-13


@pytest.mark.parametrize(
    "read",
    [lambda step: ring_overlap(4.0, 6.0, step=step), lambda step: fock_overlap("m", 6.0, step=step)],
    ids=["ring", "fock"],
)
def test_fock_diagonal_overlap_memory_does_not_scale_with_the_lattice(read):
    # halving the step quadruples the lattice, to 31,329 points; the traced
    # peak stays near one dim x HUSIMI_BLOCK block, far below the column stack
    peaks = []
    for step in (0.25, 0.125):
        tracemalloc.start()
        try:
            read(step)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    stack = default_fock_dim(6.0) * ComplexLattice.square(11.0, 0.125).points.size * 16
    assert peaks[1] < stack / 4, (peaks, stack)
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_block_readout_holds_one_block_at_a_time():
    # eight blocks of 2,048 points at dim 100: each block is released before
    # the next is built, so the traced peak stays near one block's bytes
    lattice = ComplexLattice(-7.9375, 7.9375, -7.9375, 7.9375, 0.125)
    assert lattice.points.size == 8 * HUSIMI_BLOCK
    dim = 100
    psi = coherent_state(2.0, dim).amplitudes
    tracemalloc.start()
    try:
        overlap._block_readout(overlap._state_read(psi), lattice, dim)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = 16 * dim * HUSIMI_BLOCK
    assert peak < 1.5 * block, peak / block


def test_cell_overlap_refuses_cells_over_physical_memory(monkeypatch):
    # the side-0.75 cells at |gamma| = 1 are estimated at about 16.8 MB
    monkeypatch.setattr(hilbert, "PHYSICAL_MEMORY_BYTES", 1_000_000)
    with pytest.raises(ValueError, match="^324 coarse cells on 2,401 lattice points need "):
        cell_overlap(0.75, 1.0)


def test_branch_readout_refuses_families_off_the_fock_basis():
    lattice = ComplexLattice.square(2.0, 0.5)
    fam = coherent_projector_family(lattice, 10)
    psi = coherent_state(0.5, 10).amplitudes
    with pytest.raises(ValueError):
        branch_husimi(psi, fam, lattice)


def test_coherent_delta_overlap_near_ideal():
    res = coherent_delta_overlap(1.0)
    assert abs(res.value - IDEAL_DELTA) < 2e-3
    # frozen regression at default dim and lattice
    assert abs(res.value - 0.9428090627) < 1e-7
    assert res.meta["reference_mass"] == pytest.approx(1.0, abs=1e-4)


def test_coherent_delta_overlap_displacement_covariance():
    v0 = coherent_delta_overlap(0.0).value
    v1 = coherent_delta_overlap(1.0).value
    assert abs(v0 - v1) < 2e-3


def test_coherent_delta_overlap_refinement_stable():
    assert abs(coherent_delta_overlap(1.0, step=0.125).value - coherent_delta_overlap(1.0).value) < 5e-4


def test_coherent_x_exact_frozen_values():
    assert coherent_x_exact(1.0) == pytest.approx(0.9898464008, abs=1e-9)
    assert coherent_x_exact(0.03) == pytest.approx(0.6710737721, abs=1e-9)
    assert coherent_x_exact(1e-4) == pytest.approx(0.1681540639, abs=1e-9)
    with pytest.raises(ValueError):
        coherent_x_exact(0.0)


def test_coherent_x_numeric_matches_exact():
    for delta_sq in (1.0, 0.03):
        res = coherent_x_overlap(delta_sq)
        assert abs(res.value - res.meta["exact"]) < 1e-6


def test_coherent_x_numeric_wide_readout_matches_exact():
    res = coherent_x_overlap(1e4)
    assert abs(res.value - res.meta["exact"]) < 1e-6


def test_coherent_x_numeric_translation_covariant():
    res = coherent_x_overlap(0.25, gamma=1.5 + 0.5j)
    assert abs(res.value - coherent_x_exact(0.25)) < 1e-6


@pytest.mark.parametrize("delta_sq", [0.03, 0.2, 0.65, 1.0])
def test_coherent_x_lag_sums_match_the_per_row_route(delta_sq):
    for gamma in (0.0, 1.0, 1.5 + 0.5j):
        res = coherent_x_overlap(delta_sq, gamma)
        value, reference_mass, invaded_mass = per_row_coherent_x_overlap(delta_sq, gamma)
        assert abs(res.value - value) <= 1e-13
        assert abs(res.meta["reference_mass"] - reference_mass) <= 1e-13
        assert abs(res.meta["invaded_mass"] - invaded_mass) <= 1e-13


def test_quadrature_analytic_endpoints():
    assert quadrature_overlap_analytic("XX", t=0.0) == pytest.approx(1.0)
    # the long-time limit of the XX case lands on the 8/9 variance ratio
    assert quadrature_overlap_analytic("XX", t=1e8) ** 4 == pytest.approx(
        8.0 / 9.0, abs=1e-6
    )
    assert quadrature_overlap_analytic("PX", t=1e8) == pytest.approx(1.0, abs=1e-6)
    assert quadrature_overlap_analytic("XP", t=0.0) == pytest.approx(
        quadrature_overlap_analytic("XP", t=7.0)
    )
    for t in (0.0, 1.0, 5.0):
        assert quadrature_overlap_analytic("PP", t=t) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        quadrature_overlap_analytic("XY")


@pytest.mark.parametrize(
    "case,kwargs",
    [
        ("XX", {"delta": 1.0, "sigma": 2.0, "t": 1.0}),
        ("PX", {"kappa": 2.0, "sigma": 1.0, "t": 0.0}),
        ("XP", {"delta": 2.0, "kappa": 1.0, "sigma": 1.0, "t": 5.0}),
        ("PP", {"kappa": 2.0, "sigma": 2.0, "t": 1.0}),
        ("XX", {"delta": 1.0, "sigma": 2.0, "t": 1.0, "n": 4095}),
        ("XP", {"sigma": 2.0, "t": 5.0}),
        ("PP", {"kappa": 2.0, "sigma": 2.0, "t": 5.0}),
        ("PP", {"kappa": 0.1}),
        ("XP", {"kappa": 0.1}),
        ("PX", {"kappa": 0.1}),
        ("XX", {"delta": 0.1, "n": 256}),
    ],
)
def test_quadrature_numeric_matches_analytic(case, kwargs):
    res = quadrature_overlap_numeric(case, **kwargs)
    assert abs(res.value - res.meta["analytic"]) < 1e-6
    assert abs(res.meta["invaded_mass"] - 1.0) < 1e-12
    assert abs(res.meta["reference_mass"] - 1.0) < 1e-12


@pytest.mark.parametrize(
    "kwargs",
    [
        {"delta": 0.0},
        {"delta": -1.0},
        {"kappa": 0.0},
        {"sigma": float("nan")},
        {"mass": float("inf")},
        {"t": float("inf")},
    ],
)
def test_quadrature_rejects_bad_parameters(kwargs):
    for route in (quadrature_overlap_analytic, quadrature_overlap_numeric):
        with pytest.raises(ValueError):
            route("XX", **kwargs)


@pytest.mark.parametrize("case,kwargs", [("PX", {"delta": 0.1}), ("XX", {"delta": 0.1, "t": 1.0})])
def test_quadrature_numeric_rejects_an_unresolved_x_readout(case, kwargs):
    with pytest.raises(ValueError, match="below 1.5 position steps"):
        quadrature_overlap_numeric(case, n=256, **kwargs)


def test_quadrature_numeric_x_readout_at_the_resolution_cut():
    # PX at t = 0 on 256 points: half-span 14 and position step 28 / 256 for every delta <= 1
    dx = 28.0 / 256
    with pytest.raises(ValueError, match="below 1.5 position steps"):
        quadrature_overlap_numeric("PX", delta=0.999 * 1.5 * dx, n=256)
    for delta, tol in ((1.5 * dx, 1e-10), (2.0 * dx, 1e-12)):
        res = quadrature_overlap_numeric("PX", delta=delta, n=256)
        assert abs(res.value - res.meta["analytic"]) < tol, delta


@pytest.mark.parametrize(
    "case, kwargs, refused, kept",
    [
        # XX at t = 1: half-span 20 and branch momentum width sqrt(2), so the
        # range pi n / 40 reaches 6 sqrt(2) between 108 and 109 points
        ("XX", {"t": 1.0}, 108, 109),
        # XP: the P readout adds kappa^2 = 1, width sqrt(3)
        ("XP", {"t": 1.0}, 132, 133),
        # PP: the packet alone, width 1 / sigma = 2, half-span 8 + 9 + 6 = 23
        ("PP", {"sigma": 0.5, "t": 1.0}, 175, 176),
    ],
)
def test_quadrature_numeric_momentum_range_cut(case, kwargs, refused, kept):
    with pytest.raises(ValueError, match="momentum range"):
        quadrature_overlap_numeric(case, n=refused, **kwargs)
    res = quadrature_overlap_numeric(case, n=kept, **kwargs)
    assert abs(res.value - res.meta["analytic"]) < 1e-14


def test_quadrature_numeric_commuting_xx_keeps_only_the_packet_rule():
    # at t = 0 the X branches never reach the momentum axis: delta = 0.1 is
    # accepted on 256 points, while the packet still needs pi / dx >= 6 / sigma
    res = quadrature_overlap_numeric("XX", delta=0.1, n=256)
    assert abs(res.value - 1.0) < 1e-14
    with pytest.raises(ValueError, match="momentum range"):
        quadrature_overlap_numeric("XX", n=53)
    assert abs(quadrature_overlap_numeric("XX", n=54).value - 1.0) < 1e-14


def test_quadrature_numeric_xp_time_independent():
    values = [quadrature_overlap_numeric("XP", t=t).value for t in (0.0, 1.0, 10.0)]
    assert max(values) - min(values) < 1e-4


def full_circle_smear(v, kernel):
    """The full-circle readout sum_i kernel[(j - i) mod n] v[i], every lag once."""
    return np.convolve(np.concatenate((v[1:], v)), kernel, "valid")


@pytest.mark.parametrize("n", [8, 9])
@pytest.mark.parametrize("width", [0.4, 0.5, 1.0])
def test_circular_smear_band_against_the_full_circle(n, width):
    # exp(-lag^2 / width^2) >= 2^-60 up to lag 6.45 width: at width 1.0 the
    # band covers the circle, and on 8 points reads the lag 4 = -4 once; at
    # 0.5 it stops at lag 3, at 0.4 at lag 2
    v = np.random.default_rng(27).uniform(0.0, 1.0, n)
    kernel = np.exp(-((n * np.fft.fftfreq(n)) ** 2) / width**2)
    expected = full_circle_smear(v, kernel)
    if width == 1.0:
        assert np.array_equal(overlap._circular_smear(v, kernel), expected)
    else:
        # the cut terms, plus roundoff from the band's other summation order
        bound = 2.0**-60 * v.sum() + 2.0 * np.finfo(float).eps * expected.max()
        assert np.max(np.abs(overlap._circular_smear(v, kernel) - expected)) <= bound


def test_quadrature_band_cut_against_the_full_circle(monkeypatch):
    covered, compared = [], 0
    for case in QUADRATURE_CASES:
        for t in (0.0, 1.0, 4.75):
            for n in (54, 256, 4096):
                try:
                    banded = quadrature_overlap_numeric(case, t=t, n=n)
                except ValueError:  # a grid the engine refuses
                    continue
                kernels = []

                def oracle(v, kernel):
                    kernels.append(kernel)
                    return full_circle_smear(v, kernel)

                with monkeypatch.context() as m:
                    m.setattr(overlap, "_circular_smear", oracle)
                    full = quadrature_overlap_numeric(case, t=t, n=n)
                pairs = [(banded.value, full.value)] + [
                    (banded.meta[key], full.meta[key]) for key in ("invaded_mass", "reference_mass")
                ]
                assert max(abs(a - b) for a, b in pairs) <= 1e-15, (case, t, n)
                if all(k.min() >= 2.0**-60 * k[0] for k in kernels):
                    assert all(a == b for a, b in pairs), (case, t, n)
                    covered.append((case, t, n))
                compared += 1
    # PP at t = 0 on 54 points reads momentum lags that cover the circle
    assert compared == 26 and covered == [("PP", 0.0, 54)]


def test_quadrature_memory_does_not_scale_with_the_outcome_grid():
    # delta = 0.25 gives the first X readout 241 outcomes against 97 at
    # delta = 1; the branches are read QUAD_BLOCK outcomes at a time
    peaks = []
    for delta in (1.0, 0.25):
        tracemalloc.start()
        try:
            quadrature_overlap_numeric("XX", delta=delta, t=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] < 1.25 * peaks[0], peaks


def test_fock_overlap_vacuum_inside_first_bin():
    res = fock_overlap("2m^2", 0.0)
    assert abs(res.value - 1.0) < 1e-6


def test_fock_overlap_coarser_bins_less_invasive_at_gamma_two():
    fine = fock_overlap("2m^2", 2.0).value
    mid = fock_overlap("10m^2", 2.0).value
    coarse = fock_overlap("100m^2", 2.0).value
    assert coarse >= mid >= fine
    assert coarse > 0.999


def test_fock_overlap_full_number_readout_regression():
    res = fock_overlap("m", 2.0)
    assert abs(res.value - 0.551524) < 5e-4


def test_fock_overlap_borders_finer_than_levels():
    # on integer levels "0.1m" bins exactly like "m"; no level is truncated
    assert fock_overlap("0.1m", 2.0).value == fock_overlap("m", 2.0).value


def test_ring_overlap_small_width_regression():
    res = ring_overlap(0.5, 1.0)
    assert abs(res.value - 0.996658) < 1e-3
    assert res.meta["raw_defect"] <= 1e-14


@pytest.mark.parametrize("d,gamma", [(0.5, 1.0), (2.0, 2.0), (2.0, 3.0)])
def test_exact_rings_agree_with_the_lattice_ring_route(d, gamma):
    # ring_overlap's lattice and ring count, read out with the exact annuli
    # and with the lattice moment route they replace
    dim = default_fock_dim(gamma)
    radius = gamma + 5.0
    lattice = ComplexLattice.square(radius, 0.25)
    max_radius = math.hypot(radius, radius) + 0.5
    psi = coherent_state(gamma, dim).amplitudes
    labels, n_rings = ring_labels(lattice.points, d, max_radius)
    rho = np.outer(psi, psi.conj())
    rings = ring_family(d, dim, max_radius)
    # ring_overlap reads the exact annuli through their branches, in one
    # product with the untouched row
    reference, invaded = overlap._block_readout(overlap._pair_read(psi, rings), lattice, dim)
    exact = bhattacharyya(reference, invaded)
    exact_mixed, lattice_route = (
        bhattacharyya(husimi(psi, lattice), husimi(fam.channel(rho), lattice))
        for fam in (rings, coherent_coarse_family(labels, n_rings, lattice, dim))
    )
    assert exact == ring_overlap(d, gamma).value
    assert abs(exact - exact_mixed) <= 1e-14
    assert abs(exact - lattice_route) < 1e-4


def test_cell_overlap_shrinks_to_delta_value():
    values = [cell_overlap(s, 1.0).value for s in (1.0, 0.5, 0.25)]
    assert values[0] > values[1] > values[2]
    assert abs(values[2] - IDEAL_DELTA) < 2e-3
    assert all(v > IDEAL_DELTA - 2e-3 for v in values)


def test_cell_overlap_meta_records_side():
    res = cell_overlap(1.0, 0.5)
    assert res.meta["side"] == 1.0
    assert 0.0 <= res.value <= 1.0 + 1e-9


def _readout_family(kind, arg, lattice, dim):
    """The family the Fock-engine overlap of this kind reads on its lattice."""
    radius = lattice.re_hi
    if kind == "fock":
        return fock_bin_family(arg, dim)
    if kind == "ring":
        return ring_family(arg, dim, math.hypot(radius, radius) + 2.0 * lattice.step)
    if kind == "cell":
        labels, n_cells = cell_labels(lattice.points, arg, radius + 2.0 * lattice.step)
        return coherent_coarse_family(labels, n_cells, lattice, dim)
    return coherent_projector_family(lattice, dim)


@pytest.mark.parametrize(
    "kind,arg,gamma,step",
    [
        ("fock", "m", 1.0, 0.25),
        ("fock", "m", 2.0, 0.25),
        ("fock", "2m^2", 1.5, 0.25),
        ("ring", 2.0, 1.0, 0.25),
        ("cell", 1.0, 0.5, 0.25),
        ("delta", None, 0.5, 0.5),
    ],
)
def test_overlap_is_the_bhattacharyya_coefficient_of_the_nsit_tables(kind, arg, gamma, step):
    # two slots on |gamma>: the readout, then coherent projectors on the
    # overlap's own lattice, with the identity between; the tables carry the
    # lattice weights, so BC = sum sqrt(P_1 sum_a P_01) needs no quadrature;
    # roundoff leaves far entries slightly negative, clipped as bhattacharyya does
    if kind == "delta":
        res = coherent_delta_overlap(gamma, step=step)
    else:
        res = {"fock": fock_overlap, "ring": ring_overlap, "cell": cell_overlap}[kind](
            arg, gamma, step=step
        )
    dim = default_fock_dim(gamma)
    lattice = ComplexLattice.square(abs(gamma) + 5.0, step)
    sc = Scenario(
        coherent_state(gamma, dim).density(),
        (
            Slot(0.0, _readout_family(kind, arg, lattice, dim)),
            Slot(1.0, coherent_projector_family(lattice, dim)),
        ),
        (np.eye(dim),),
    )
    invaded = np.clip(sc.tables[(0, 1)][0].sum(axis=0), 0.0, None)
    reference = np.clip(sc.tables[(1,)][0], 0.0, None)
    bc = np.sqrt(reference * invaded).sum()
    tv = 0.5 * np.abs(reference - invaded).sum()
    assert abs(bc - res.value) <= 1e-12
    # Fuchs-van de Graaf bounds on the total variation of the NSIT_(0)1 pair
    assert 1.0 - bc <= tv <= math.sqrt(1.0 - bc**2)
