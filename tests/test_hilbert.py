import math

import numpy as np
import pytest

from macroreal.hilbert import (
    DensityState,
    StateVector,
    basis_state,
    coherent_amplitudes,
    coherent_overlap,
    coherent_state,
    coherent_truncation_loss,
    default_fock_dim,
    fock_projector,
    frame_diagonal,
    is_hermitian,
    is_positive_semidefinite,
    is_unitary,
    norm_exceeds,
    number_operator,
    operator_norm,
    quadrature_operators,
    unitary_from_hamiltonian,
)


def test_state_vector_validates_norm():
    StateVector(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        StateVector(np.array([np.nan, 0.0]))


def test_density_state_checks():
    DensityState(np.eye(2) / 2)
    with pytest.raises(ValueError):
        DensityState(np.array([[0.5, 0.1], [0.3, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityState(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityState(np.eye(2))  # trace 2


def test_pure_density_from_state():
    psi = StateVector(np.array([1.0, 1.0]) / math.sqrt(2))
    rho = psi.density()
    assert abs(rho.purity() - 1.0) < 1e-12
    assert np.allclose(rho.matrix, 0.5 * np.ones((2, 2)))


def test_predicates():
    h = np.array([[1.0, 2.0 + 1j], [2.0 - 1j, -3.0]])
    assert is_hermitian(h)
    assert not is_unitary(h)
    assert is_unitary(np.diag([1j, -1j]))
    assert is_positive_semidefinite(np.diag([0.0, 2.0]))
    assert not is_positive_semidefinite(np.diag([-0.1, 1.0]))


def test_coherent_truncation_loss_matches_direct_sum():
    gamma = 1.7
    dim = 12
    lam = abs(gamma) ** 2
    k = np.arange(dim)
    direct = 1.0 - np.exp(-lam) * np.sum(lam**k / np.array([math.factorial(i) for i in k]))
    assert abs(coherent_truncation_loss(gamma, dim) - direct) < 1e-13


def test_default_dim_keeps_loss_tiny():
    for gamma in (0.5, 1.0, 3.0, 6.0, 4.0 + 3.0j):
        dim = default_fock_dim(gamma)
        assert coherent_truncation_loss(gamma, dim) < 1e-12


def test_coherent_state_norm_and_loss_guard():
    psi = coherent_state(2.0)
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        coherent_state(2.0, dim=10)  # loss ~8e-3 exceeds the default ceiling
    lossy = coherent_state(2.0, dim=10, loss_ceiling=1.0)
    assert abs(np.linalg.norm(lossy.amplitudes) - 1.0) < 1e-12


def test_coherent_overlap_against_amplitudes():
    a, b = 0.8 + 0.3j, -0.4 + 1.1j
    dim = 60
    va = coherent_amplitudes(a, dim)
    vb = coherent_amplitudes(b, dim)
    assert abs(np.vdot(va, vb) - coherent_overlap(a, b)) < 1e-12


def test_coherent_amplitudes_at_zero():
    v = coherent_amplitudes(0.0, 5)
    assert v[0] == 1.0
    assert np.all(v[1:] == 0.0)


def test_quadrature_commutator_on_interior_block():
    dim = 25
    x, p = quadrature_operators(dim)
    comm = x @ p - p @ x
    interior = comm[: dim - 1, : dim - 1]
    assert np.max(np.abs(interior - 1j * np.eye(dim - 1))) < 1e-12
    # the corner element carries the truncation artifact
    assert abs(comm[dim - 1, dim - 1] - 1j * (1 - dim)) < 1e-10


def test_number_operator_from_quadratures():
    dim = 15
    x, p = quadrature_operators(dim)
    n = number_operator(dim)
    h = 0.5 * (x @ x + p @ p) - 0.5 * np.eye(dim)
    assert np.max(np.abs(h[: dim - 1, : dim - 1] - n[: dim - 1, : dim - 1])) < 1e-12


def test_unitary_from_hamiltonian_group_property():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = z + z.conj().T
    u1 = unitary_from_hamiltonian(h, 0.3)
    u2 = unitary_from_hamiltonian(h, 1.1)
    u12 = unitary_from_hamiltonian(h, 1.4)
    assert is_unitary(u1)
    assert operator_norm(u1 @ u2 - u12) < 1e-12
    with pytest.raises(ValueError):
        unitary_from_hamiltonian(z, 1.0)


def test_basis_and_projector():
    e2 = basis_state(2, 4)
    assert e2.amplitudes[2] == 1.0
    p = fock_projector(2, 4)
    assert np.allclose(p @ e2.amplitudes, e2.amplitudes)
    with pytest.raises(ValueError):
        fock_projector(4, 4)


def test_operator_norm_matches_numpy_spectral_norm():
    rng = np.random.default_rng(11)
    for d in (2, 3, 8, 30):
        for _ in range(20):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            assert operator_norm(a) == np.linalg.norm(a, 2)


def test_operator_norm_and_frame_diagonal_take_stacks():
    rng = np.random.default_rng(12)
    stack = rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6))
    assert operator_norm(stack) == max(operator_norm(a) for a in stack)
    frame = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    diagonals = frame_diagonal(frame, stack)
    assert diagonals.shape == (5, 9)
    for a, diagonal in zip(stack, diagonals):
        assert np.max(np.abs(diagonal - frame_diagonal(frame, a))) < 1e-14


def test_norm_exceeds_agrees_with_operator_norm():
    rng = np.random.default_rng(12)
    atol = 1e-10
    for d in (2, 3, 4, 8):
        m = rng.standard_normal((200, d, d)) + 1j * rng.standard_normal((200, d, d))
        # spectral norms spread over [0.5, 2] atol, so both sides of atol occur
        m *= (atol * rng.uniform(0.5, 2.0, 200) / [operator_norm(x) for x in m])[:, None, None]
        want = np.array([operator_norm(x) > atol for x in m])
        assert want.any() and not want.all()
        # some pass only through the SVD: Frobenius norm above atol, spectral below
        assert np.any(~want & (np.linalg.norm(m, axis=(1, 2)) > atol))
        assert np.array_equal(norm_exceeds(m, atol), want)
        assert [bool(norm_exceeds(x, atol)) for x in m] == want.tolist()
    # Frobenius norm 1.2 atol fails the cheap bound, spectral norm 0.6 atol passes
    assert not norm_exceeds(0.6 * atol * np.eye(4), atol)
    assert norm_exceeds(1.2 * atol * np.eye(4), atol)
