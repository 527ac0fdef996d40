"""Shared generators for randomized scenario sweeps, and reference routes."""

import dataclasses
import math
import tracemalloc

import numpy as np
import scipy.fft

from macroreal.hilbert import DensityState
from macroreal.instruments import ComplexLattice, projective_family
from macroreal.overlap import HUSIMI_BLOCK, OutcomeDistribution, _coherent_wavefunction, bhattacharyya
from macroreal.scenario import Scenario, ScenarioBatch, Slot


def haar_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def kraus_operator(family, i):
    """A_i of a family, built from its own fields with plain matrix products."""
    if family.kind == "dense":
        return family.ops[i]
    if family.kind == "diagonal":
        v = np.eye(family.envelopes.shape[1]) if family.basis is None else family.basis
        return v @ np.diag(family.envelopes[i]) @ v.conj().T
    return family.scale[i] * np.outer(family.left[:, i], family.right[:, i].conj())


def born_probabilities(family, rho):
    """Outcome probabilities w_a tr(A_a' A_a rho), from kraus_operator one outcome at a time."""
    ops = [kraus_operator(family, a) for a in range(family.n_outcomes)]
    return np.array([w * np.trace(op.conj().T @ op @ rho).real for w, op in zip(family.weights, ops)])


def single_slot_table(family, rho):
    """The table pass's outcome probabilities of one slot reading family on rho."""
    return Scenario(DensityState(rho), (Slot(0.0, family),), ()).tables[(0,)][0]


def ring_labels(points, d, max_radius):
    """(labels, count): ring m of each point, m d <= |a| < (m + 1) d, for the
    ceil(max_radius / d) + 1 rings, and -1 past the last ring's outer edge."""
    count = math.ceil(max_radius / d) + 1
    edges = d * np.arange(count + 1)
    k = np.searchsorted(edges, np.hypot(points.real, points.imag), side="right") - 1
    return np.where(k < count, k, -1), count


def traced_peak(build):
    """The tracemalloc peak, in bytes, of the call build()."""
    tracemalloc.start()
    try:
        build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def assert_tables_are_slices_of_one_pass(tables):
    """Every table read so far is the read-only slice of tables.every with
    index 0 on the unmeasured slots, bit for bit."""
    assert not tables.every.flags.writeable
    for key, values in tables.items():
        pick = tuple(slice(1, None) if k in key else 0 for k in range(len(tables.slots)))
        part = tables.every[(slice(None), *pick)]
        assert values.tobytes() == np.ascontiguousarray(part).tobytes(), key
        assert values.size == part.size and not values.flags.writeable, key


def weight_grid_tables(batch):
    """tables.every of a batch by the weight-grid route: the tables of twin
    families with unit weights, times the outer product of (1, w) over the
    slots (index 0 leaves a slot unmeasured and has weight 1)."""
    twins = tuple(
        dataclasses.replace(s, instrument=dataclasses.replace(s.instrument, weights=np.ones(s.instrument.n_outcomes)))
        for s in batch.slots
    )
    grid = np.ones(())
    for s in batch.slots:
        grid = np.multiply.outer(grid, np.append(1.0, s.instrument.weights))
    return ScenarioBatch(batch.initial, twins, batch.evolutions).tables.every * grid


def random_density(rng, dim, rank=None):
    if rank is None:
        rank = dim
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return DensityState(m / np.trace(m).real)


def random_dichotomic_family(rng, dim):
    """Random orthonormal basis split into a +1 group and a -1 group."""
    u = haar_unitary(rng, dim)
    cut = int(rng.integers(1, dim))
    p_plus = u[:, :cut] @ u[:, :cut].conj().T
    p_minus = np.eye(dim) - p_plus
    return projective_family([p_plus, p_minus], [1, -1])


def random_full_projective_family(rng, dim):
    """Rank-1 projective readout in a random basis, outcomes 0..dim-1."""
    u = haar_unitary(rng, dim)
    projs = [np.outer(u[:, k], u[:, k].conj()) for k in range(dim)]
    return projective_family(projs, list(range(dim)))


def diagonal_projective_family(dim, dichotomic=True):
    if dichotomic:
        p_plus = np.diag([1.0] + [0.0] * (dim - 1)).astype(complex)
        return projective_family([p_plus, np.eye(dim) - p_plus], [1, -1])
    projs = [np.diag([1.0 if i == k else 0.0 for i in range(dim)]) for k in range(dim)]
    return projective_family(projs, list(range(dim)))


def random_scenario(rng, dim=2, kind="generic", dichotomic=True):
    """Three-slot scenario for sweep tests.

    kind 'generic' draws Haar unitaries and random bases; kind 'classical'
    keeps everything diagonal in one basis (permutations with phases), which
    makes every condition hold exactly.
    """
    if kind == "generic":
        init = random_density(rng, dim)
        evols = (haar_unitary(rng, dim), haar_unitary(rng, dim))
        fams = [
            random_dichotomic_family(rng, dim)
            if dichotomic
            else random_full_projective_family(rng, dim)
            for _ in range(3)
        ]
    elif kind == "classical":
        probs = rng.random(dim)
        probs /= probs.sum()
        init = DensityState(np.diag(probs).astype(complex))
        evols = tuple(_random_permutation_phase(rng, dim) for _ in range(2))
        fams = [diagonal_projective_family(dim, dichotomic) for _ in range(3)]
    else:
        raise ValueError(f"unknown scenario kind {kind!r}")
    slots = tuple(Slot(float(k), fams[k]) for k in range(3))
    return Scenario(init, slots, evols)


def _random_permutation_phase(rng, dim):
    perm = rng.permutation(dim)
    phases = np.exp(2j * np.pi * rng.random(dim))
    u = np.zeros((dim, dim), dtype=complex)
    u[perm, np.arange(dim)] = phases
    return u


def per_row_coherent_x_overlap(delta_sq, gamma=0.0, step=0.25):
    """(value, reference mass, invaded mass) of coherent_x_overlap, one lattice row at a time.

    The route the overlap took before its row autocorrelations: on the same
    lattice, position grid and kernel row, each row of the lattice applies the
    Toeplitz kernel to its (x, Im beta) array by a circulant FFT product.
    """
    delta = math.sqrt(delta_sq)
    g = complex(gamma)
    lattice = ComplexLattice.square(6.0, step, center=g)
    x_halfspan = abs(g) * math.sqrt(2.0) + 9.0
    dx = min(delta / 2.0, 0.05)
    n = int(math.ceil(2.0 * x_halfspan / dx)) + 1
    xs = np.linspace(-x_halfspan, x_halfspan, n)
    dx = xs[1] - xs[0]
    da = dx / 2.0
    pad = 6.0 * delta
    agrid = np.arange(-x_halfspan - pad, x_halfspan + pad + da / 2.0, da)
    ga0 = np.exp(-((xs[0] - agrid) ** 2) / (2.0 * delta_sq))
    near = np.flatnonzero(ga0)
    first = np.zeros(n)
    for lo in range(0, near.size, HUSIMI_BLOCK):
        block = near[lo : lo + HUSIMI_BLOCK]
        gax = np.exp(-((xs[:, None] - agrid[block][None, :]) ** 2) / (2.0 * delta_sq))
        first += gax @ ga0[block]
    first *= (math.pi * delta_sq) ** -0.5 * da
    length = scipy.fft.next_fast_len(2 * n - 1)
    embedded = np.zeros(length)
    embedded[:n] = first
    embedded[length - n + 1 :] = first[:0:-1]
    kernel_hat = scipy.fft.fft(embedded)[:, None]

    psi = _coherent_wavefunction(xs, g)
    re, im = lattice.re_axis, lattice.im_axis
    q0 = np.zeros((re.size, im.size))
    q1 = np.zeros((re.size, im.size))
    chirp = np.exp(-1j * math.sqrt(2.0) * np.outer(xs, im))
    for i, br in enumerate(re):
        envelope = math.pi**-0.25 * np.exp(-0.5 * (xs - math.sqrt(2.0) * br) ** 2) * psi * dx
        w = envelope[:, None] * chirp * np.exp(1j * br * im)
        q0[i] = np.abs(w.sum(axis=0)) ** 2 / math.pi
        kw = scipy.fft.ifft(kernel_hat * scipy.fft.fft(w, length, axis=0), axis=0)[:n]
        q1[i] = np.einsum("xb,xb->b", w.conj(), kw).real / math.pi
    p_ref = OutcomeDistribution(lattice.points, lattice.weights, q0.ravel())
    p_inv = OutcomeDistribution(lattice.points, lattice.weights, np.clip(q1.ravel(), 0.0, None))
    return bhattacharyya(p_ref, p_inv), p_ref.mass, p_inv.mass


def coherent_column_oracle(points, dim):
    """<k|b> = e^{-|b|^2 / 2} b^k / sqrt(k!) for every point b, from powers and factorials."""
    k = np.arange(dim)[:, None]
    root_factorials = np.sqrt([float(math.factorial(i)) for i in range(dim)])[:, None]
    return np.exp(-0.5 * np.abs(points) ** 2) * points**k / root_factorials


def full_lattice_reads(psi, family, points):
    """(reference, invaded): the Husimi densities pi^{-1} |<b|psi>|^2 and
    pi^{-1} sum_a w_a |<b|A_a psi>|^2 at every point b, with the columns of
    every point built and A_a from kraus_operator."""
    cols = coherent_column_oracle(points, psi.size)
    reference = np.abs(cols.conj().T @ psi) ** 2 / math.pi
    branches = np.array([kraus_operator(family, a) @ psi for a in range(family.n_outcomes)])
    invaded = family.weights @ np.abs(branches.conj() @ cols) ** 2 / math.pi
    return reference, invaded


def full_lattice_density_read(rho, points):
    """pi^{-1} Re <b| rho |b> at every point b, with the columns of every point built."""
    cols = coherent_column_oracle(points, rho.shape[0])
    return np.einsum("ib,ij,jb->b", cols.conj(), rho, cols).real / math.pi


def all_outcome_intensities(case, delta=1.0, kappa=1.0, sigma=1.0, t=0.0, mass=1.0, n=4096):
    """(invaded, reference) intensities of quadrature_overlap_numeric before its final smear.

    The same grids: position step dx = 2 h / n with xs = (j - n / 2) dx, the
    FFT momenta, and the first readout's outcomes a_step * (-m, ..., m); but
    every outcome's branch is built, evolved and summed on its own.
    """
    first, second = case
    drift = abs(t / mass) * 3.0 * (1.0 / sigma + (1.0 / delta if first == "X" else kappa))
    halfspan = 8.0 * max(sigma, 1.0, 1.0 / kappa) + drift + 6.0 * max(delta, kappa)
    dx = 2.0 * halfspan / n
    xs = (np.arange(n) - n / 2) * dx
    ps = 2.0 * math.pi * np.fft.fftfreq(n, d=dx)
    psi0 = (math.pi * sigma**2) ** -0.25 * np.exp(-(xs**2) / (2.0 * sigma**2))
    width = delta if first == "X" else kappa
    a_step = width / 4.0
    m = round((6.0 * (sigma if first == "X" else 1.0 / sigma) + 6.0 * width) / a_step)
    phase = np.exp(-1j * ps**2 * t / (2.0 * mass))
    ref_k = np.fft.fft(psi0) * phase
    summed = np.zeros(n)
    for a in a_step * np.arange(-m, m + 1):
        env = (math.pi * width**2) ** -0.25 * np.exp(-((a - (xs if first == "X" else ps)) ** 2) / (2.0 * width**2))
        branch_k = np.fft.fft(env * psi0) * phase if first == "X" else ref_k * env
        summed += np.abs(np.fft.ifft(branch_k) if second == "X" else branch_k) ** 2
    if second == "X":
        return a_step * dx * summed, dx * np.abs(np.fft.ifft(ref_k)) ** 2
    return a_step * dx / n * summed, dx / n * np.abs(ref_k) ** 2
