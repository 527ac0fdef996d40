"""Shared generators for randomized scenario sweeps."""

import numpy as np

from macroreal.hilbert import DensityState
from macroreal.instruments import projective_family
from macroreal.scenario import Scenario, Slot


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


def assert_tables_are_slices_of_one_pass(tables):
    """Every table read so far is the read-only slice of tables.every with
    index 0 on the unmeasured slots, bit for bit."""
    assert not tables.every.flags.writeable
    for key, values in tables.items():
        pick = tuple(slice(1, None) if k in key else 0 for k in range(len(tables.slots)))
        part = tables.every[(slice(None), *pick)]
        assert values.tobytes() == np.ascontiguousarray(part).tobytes(), key
        assert values.size == part.size and not values.flags.writeable, key


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
