"""Finite-dimensional Hilbert space helpers.

States live on a truncated Fock space (or any finite dimension), operators are
plain complex ndarrays. Everything downstream builds on the validators and
constructors collected here.
"""

from __future__ import annotations

import dataclasses
import math
import os

import numpy as np

DEFAULT_ATOL = 1e-10
PHYSICAL_MEMORY_BYTES = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def require_bytes(nbytes: int, what: str) -> None:
    """Raise ValueError, before anything is allocated, when what needs more than physical memory."""
    if nbytes > PHYSICAL_MEMORY_BYTES:
        raise ValueError(
            f"{what} need {nbytes:,} bytes at their peak, more than the "
            f"{PHYSICAL_MEMORY_BYTES:,} bytes of physical memory"
        )


def as_operator(m) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("matrix contains non-finite entries")
    return a


def is_hermitian(m) -> bool:
    a = as_operator(m)
    return bool(np.max(np.abs(a - a.conj().T)) <= DEFAULT_ATOL)


def as_operator_stack(m) -> np.ndarray:
    """Coerce to an (N, d, d) complex matrix stack, rejecting non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected an (N, d, d) matrix stack, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix stack contains non-finite entries")
    return a


def unitary_error(m) -> np.ndarray:
    """Largest entry of |U'U - I| for each matrix of a (..., d, d) stack."""
    d = m.shape[-1]
    return np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(d)).max(axis=(-2, -1))


def is_unitary(m) -> bool:
    return bool(unitary_error(as_operator(m)) <= DEFAULT_ATOL)


def check_density_stack(m: np.ndarray) -> None:
    """Raise unless every matrix of an (N, d, d) stack is a density matrix.

    Hermitian within DEFAULT_ATOL, no eigenvalue below -DEFAULT_ATOL and trace
    within 1e-9 of 1. For N > 1 the message names the first bad index.
    """

    def where(bad):
        return "" if m.shape[0] == 1 else f" {int(bad.argmax())}"

    mh = m.conj().swapaxes(-1, -2)
    bad = np.abs(m - mh).max(axis=(1, 2)) > DEFAULT_ATOL
    if bad.any():
        raise ValueError(f"density matrix{where(bad)} is not Hermitian within tolerance")
    w = np.linalg.eigvalsh((m + mh) / 2)[:, 0]
    bad = w < -DEFAULT_ATOL
    if bad.any():
        raise ValueError(f"density matrix{where(bad)} has negative eigenvalue {w[bad.argmax()]:g}")
    tr = np.trace(m, axis1=1, axis2=2).real
    bad = np.abs(tr - 1.0) > 1e-9
    if bad.any():
        raise ValueError(f"density matrix{where(bad)} trace {tr[bad.argmax()]!r} is not 1")


def is_positive_semidefinite(m) -> bool:
    a = as_operator(m)
    if not is_hermitian(a):
        return False
    w = np.linalg.eigvalsh(a)
    return bool(w.min() >= -DEFAULT_ATOL)


@dataclasses.dataclass(frozen=True)
class StateVector:
    """Normalized pure state. Amplitudes are validated, not renormalized."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("amplitudes must be a non-empty 1-d array")
        if not np.all(np.isfinite(a.view(float))):
            raise ValueError("amplitudes contain non-finite entries")
        n = np.linalg.norm(a)
        if abs(n - 1.0) > 1e-8:
            raise ValueError(f"state norm {n!r} is not 1 within 1e-08")
        object.__setattr__(self, "amplitudes", a)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> "DensityState":
        return DensityState(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclasses.dataclass(frozen=True)
class DensityState:
    """Density matrix with Hermiticity, positivity and unit-trace checks."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_operator(self.matrix)
        check_density_stack(m[None])
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def basis_state(k: int, dim: int) -> StateVector:
    if not 0 <= k < dim:
        raise ValueError(f"basis index {k} out of range for dim {dim}")
    a = np.zeros(dim, dtype=complex)
    a[k] = 1.0
    return StateVector(a)


def fock_projector(k: int, dim: int) -> np.ndarray:
    """Projector |k><k| on a dim-dimensional Fock cutoff."""
    p = np.zeros((dim, dim), dtype=complex)
    if not 0 <= k < dim:
        raise ValueError(f"Fock index {k} out of range for dim {dim}")
    p[k, k] = 1.0
    return p


def default_fock_dim(gamma) -> int:
    """Truncation dimension that keeps the Poisson tail of |gamma> below 1e-12."""
    g = abs(complex(gamma))
    return int(math.ceil(g * g + 8.0 * g + 20.0))


def coherent_truncation_loss(gamma, dim: int) -> float:
    """Weight of |gamma> beyond Fock level dim-1, the Poisson tail P(N >= dim).

    That tail is the lower regularized incomplete gamma P(dim, |gamma|^2).
    """
    # imported here: importing the package loads numpy only, scipy on first call
    from scipy import special

    g2 = abs(complex(gamma)) ** 2
    return float(special.gammainc(dim, g2))


def coherent_state(gamma, dim: int | None = None, *, loss_ceiling: float = 1e-10) -> StateVector:
    """Truncated coherent state |gamma>, renormalized on the cutoff space.

    Raises if the truncation loss exceeds loss_ceiling; pass a larger ceiling
    to allow lossy truncations on purpose.
    """
    g = complex(gamma)
    if dim is None:
        dim = default_fock_dim(g)
    loss = coherent_truncation_loss(g, dim)
    if loss > loss_ceiling:
        raise ValueError(
            f"truncation loss {loss:.3g} at dim {dim} exceeds ceiling {loss_ceiling:.3g}"
        )
    amps = coherent_amplitudes(g, dim)
    amps = amps / np.linalg.norm(amps)
    return StateVector(amps)


def coherent_amplitudes(gamma, dim: int) -> np.ndarray:
    """Raw truncated amplitudes e^{-|g|^2/2} g^k / sqrt(k!), not renormalized.

    Computed in the log domain so large |gamma| and large dim do not overflow.
    """
    g = complex(gamma)
    k = np.arange(dim)
    if g == 0:
        amps = np.zeros(dim, dtype=complex)
        amps[0] = 1.0
        return amps
    # imported here: importing the package loads numpy only, scipy on first call
    from scipy import special

    r = abs(g)
    phase = g / r
    logmod = -0.5 * r * r + k * math.log(r) - 0.5 * special.gammaln(k + 1.0)
    return np.exp(logmod) * phase**k


def coherent_overlap(alpha, beta) -> complex:
    """Exact <alpha|beta> for ideal (untruncated) coherent states."""
    a, b = complex(alpha), complex(beta)
    return complex(np.exp(-0.5 * (abs(a) ** 2 + abs(b) ** 2) + np.conj(a) * b))


def quadrature_operators(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Position and momentum matrices X, P on the Fock cutoff, [X, P] ~ i.

    The commutator only equals i on the sub-block away from the cutoff edge.
    """
    n = np.arange(1, dim)
    a = np.zeros((dim, dim), dtype=complex)
    a[n - 1, n] = np.sqrt(n)
    x = (a + a.conj().T) / math.sqrt(2.0)
    p = (a - a.conj().T) / (1j * math.sqrt(2.0))
    return x, p


def number_operator(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim).astype(complex))


def unitary_from_hamiltonian(h, t: float) -> np.ndarray:
    """exp(-i H t) through an eigendecomposition of the (validated) Hermitian H."""
    hm = as_operator(h)
    if not is_hermitian(hm):
        raise ValueError("Hamiltonian is not Hermitian within tolerance")
    w, v = np.linalg.eigh(hm)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def frame_diagonal(frame: np.ndarray, x: np.ndarray | None = None) -> np.ndarray:
    """Real diagonal of F' x F for a (d, n) frame F, or of F' F when x is None.

    Entry a is Re <f_a| x |f_a> for the column f_a, so no (n, n) matrix is
    formed. A (..., d, d) stack x gives one (..., n) diagonal per matrix. The
    sum runs over the interleaved real and imaginary parts of F and x F, so
    no conjugate copy of the frame is made.
    """
    frame = np.ascontiguousarray(frame, dtype=complex)
    image = frame if x is None else x @ frame
    sums = np.einsum("...ia,...ia->...a", frame.view(float), np.ascontiguousarray(image).view(float))
    return sums[..., 0::2] + sums[..., 1::2]


def operator_norm(m) -> float:
    """Spectral norm (largest singular value) of a matrix, or the largest over a (..., d, d) stack."""
    return float(np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False).max())


def norm_exceeds(m, atol: float) -> np.ndarray:
    """operator_norm(m) > atol for a matrix, or per matrix of a (..., d, d) stack.

    The Frobenius norm bounds the spectral norm from above, so the SVD runs
    only where it exceeds atol. The bound is taken 1e-12 relative below atol
    so that rank-one ties, where the two norms agree, go to the SVD.
    """
    m = np.asarray(m, dtype=complex)
    out = np.asarray(np.sqrt((np.abs(m) ** 2).sum(axis=(-2, -1))) > atol * (1.0 - 1e-12))
    if out.any():
        out[out] = np.linalg.svd(m[out], compute_uv=False).max(axis=-1) > atol
    return out
