"""Measurement instruments as weighted Kraus families.

A family holds one Kraus operator per outcome plus a quadrature weight for
that outcome (1 for discrete outcomes, the cell measure for discretized
continuous outcomes). Three representations, which no other module tells
apart, keep large families affordable:

  dense     explicit (n, d, d) stack
  diagonal  A_a = V diag(env_a) V' with real envelopes env_a
  rank1     A_a = scale_a |left_a><right_a|

The probability density of outcome a on state rho is w_a tr(A_a' A_a rho),
the non-selective channel is rho -> sum_a w_a A_a rho A_a', and the channel
of adjoint(), the family of the A_a', is the dual map E -> sum_a w_a A_a' E A_a.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import re as _re

import numpy as np

from macroreal.hilbert import (
    DEFAULT_ATOL,
    as_operator,
    as_operator_stack,
    frame_diagonal,
    norm_exceeds,
    operator_norm,
    quadrature_operators,
    require_bytes,
)


@dataclasses.dataclass(frozen=True)
class Grid1D:
    """Uniform 1-d outcome grid, endpoints included."""

    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if not (self.hi > self.lo and self.n >= 2):
            raise ValueError("grid needs hi > lo and at least 2 points")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)

    @property
    def weights(self) -> np.ndarray:
        return np.full(self.n, self.step)

    def describe(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "n": self.n}


@dataclasses.dataclass(frozen=True)
class ComplexLattice:
    """Uniform square lattice in the complex plane with cell weight step^2."""

    re_lo: float
    re_hi: float
    im_lo: float
    im_hi: float
    step: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.re_lo, self.re_hi, self.im_lo, self.im_hi, self.step))):
            raise ValueError(f"lattice bounds and step must be finite, got {self.describe()}")
        if not self.step > 0:
            raise ValueError(f"lattice step must be positive, got {self.step}")
        side = min(self.re_hi - self.re_lo, self.im_hi - self.im_lo)
        if self.step > side:
            raise ValueError(f"lattice step {self.step:g} exceeds the side {side:g}; an axis needs two points")

    @classmethod
    def square(cls, radius: float, step: float, center: complex = 0j) -> "ComplexLattice":
        c = complex(center)
        return cls(
            c.real - radius, c.real + radius, c.imag - radius, c.imag + radius, step
        )

    @property
    def re_axis(self) -> np.ndarray:
        n = int(round((self.re_hi - self.re_lo) / self.step)) + 1
        return self.re_lo + self.step * np.arange(n)

    @property
    def im_axis(self) -> np.ndarray:
        n = int(round((self.im_hi - self.im_lo) / self.step)) + 1
        return self.im_lo + self.step * np.arange(n)

    @property
    def points(self) -> np.ndarray:
        re = self.re_axis
        im = self.im_axis
        return (re[:, None] + 1j * im[None, :]).ravel()

    @property
    def size(self) -> int:
        """The number of points, counted without building them."""
        return self.re_axis.size * self.im_axis.size

    @property
    def weights(self) -> np.ndarray:
        return np.full(self.size, self.step**2)

    def describe(self) -> dict:
        return {
            "re_lo": self.re_lo,
            "re_hi": self.re_hi,
            "im_lo": self.im_lo,
            "im_hi": self.im_hi,
            "step": self.step,
        }


@dataclasses.dataclass
class KrausFamily:
    """Weighted Kraus family over a discrete or discretized outcome set."""

    label: str
    outcomes: np.ndarray
    weights: np.ndarray
    kind: str = "dense"
    ops: np.ndarray | None = None
    basis: np.ndarray | None = None  # diagonal kind; None means identity basis
    envelopes: np.ndarray | None = None  # (n, d) real, diagonal kind
    left: np.ndarray | None = None  # (d, n), rank1 kind
    right: np.ndarray | None = None
    scale: np.ndarray | None = None
    meta: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        self.outcomes = np.asarray(self.outcomes)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (self.outcomes.shape[0],):
            raise ValueError("weights must match outcomes one to one")
        if not np.all((self.weights > 0) & np.isfinite(self.weights)):
            raise ValueError("outcome weights must be finite and positive")
        if self.kind == "dense":  # as_operator_stack refuses non-finite entries
            self.ops = as_operator_stack(self.ops)
            if self.ops.shape[0] != self.n_outcomes:
                raise ValueError("dense family needs one (d, d) operator per outcome")
            arrays = ()
        elif self.kind == "diagonal":
            self.envelopes = np.asarray(self.envelopes, dtype=float)
            if self.envelopes.ndim != 2 or self.envelopes.shape[0] != self.n_outcomes:
                raise ValueError("diagonal family needs (n, d) envelopes")
            if self.basis is not None:
                self.basis = as_operator(self.basis)
            arrays = (self.envelopes,)
        elif self.kind == "rank1":
            self.left = np.asarray(self.left, dtype=complex)
            self.right = np.asarray(self.right, dtype=complex)
            self.scale = np.asarray(self.scale, dtype=float)
            if self.left.shape != self.right.shape or self.left.ndim != 2:
                raise ValueError("rank1 family needs matching (d, n) column stacks")
            if self.scale.shape != (self.n_outcomes,):
                raise ValueError("rank1 scale must match outcomes")
            arrays = (self.left, self.right, self.scale)
        else:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if not all(np.isfinite(a).all() for a in arrays):
            raise ValueError(f"{self.kind} family holds non-finite entries")

    @functools.cached_property
    def completeness_defect(self) -> float:
        """Spectral norm of S - I, computed when first read; the largest |S_nn - 1| when S is Fock-diagonal."""
        if self.fock_diagonal:
            return float(np.abs(self.weights @ self.envelopes**2 - 1.0).max())
        return operator_norm(self.completeness_operator() - np.eye(self.dim))

    @property
    def n_outcomes(self) -> int:
        return self.outcomes.shape[0]

    @property
    def dim(self) -> int:
        if self.kind == "dense":
            return self.ops.shape[1]
        if self.kind == "diagonal":
            return self.envelopes.shape[1]
        return self.left.shape[0]

    @property
    def fock_diagonal(self) -> bool:
        """Whether every A_a is diagonal in the Fock basis: the diagonal kind without a basis."""
        return self.kind == "diagonal" and self.basis is None

    def dense_ops(self) -> np.ndarray:
        """The (n, d, d) stack of the Kraus operators A_a."""
        if self.kind == "dense":
            return self.ops
        if self.kind == "rank1":
            return self.scale[:, None, None] * (self.left.T[:, :, None] * self.right.T.conj()[:, None, :])
        if self.basis is None:
            return self.envelopes[:, :, None] * np.eye(self.dim, dtype=complex)
        return (self.basis * self.envelopes[:, None, :]) @ self.basis.conj().T

    def adjoint(self) -> "KrausFamily":
        """The family of the A_a', whose channel is the dual map Phi*(E) = sum_a w_a A_a' E A_a."""
        if self.kind == "diagonal":  # real envelopes make every A_a Hermitian
            return self
        if self.kind == "rank1":
            return dataclasses.replace(self, left=self.right, right=self.left)
        return dataclasses.replace(self, ops=self.ops.conj().swapaxes(1, 2))

    def completeness_operator(self) -> np.ndarray:
        """S = sum_a w_a A_a' A_a, which should be the identity."""
        if self.kind == "dense":
            b = (self.ops * np.sqrt(self.weights)[:, None, None]).reshape(-1, self.dim)
            return b.conj().T @ b
        if self.kind == "diagonal":
            diag = self.weights @ self.envelopes**2
            if self.basis is None:
                return np.diag(diag).astype(complex)
            return (self.basis * diag) @ self.basis.conj().T
        coef = self.weights * self.scale**2 * frame_diagonal(self.left)
        return (self.right * coef) @ self.right.conj().T

    def channel(self, rho: np.ndarray) -> np.ndarray:
        """Non-selective update sum_a w_a A_a rho A_a' of a matrix, an (m, d, d) stack, or a state vector psi for |psi><psi|."""
        if rho.ndim == 1 and self.kind == "dense":  # from the (n, d) branch vectors A_a psi: O(n d^2), not O(n d^3)
            branches = self.ops @ rho
            return (branches.T * self.weights) @ branches.conj()
        if rho.ndim == 1 and self.kind == "rank1":  # <right_a| psi><psi |right_a> = |right_a' psi|^2: O(d n)
            amps = np.einsum("ia,i->a", self.right, rho.conj())  # conjugated, which |.|^2 does not see
            coef = self.weights * self.scale**2 * (amps.real**2 + amps.imag**2)
            return (self.left * coef) @ self.left.conj().T
        if rho.ndim == 1:
            rho = np.outer(rho, rho.conj())
        if rho.ndim == 3 and self.kind != "diagonal":  # one matrix at a time holds n d^2 or d n
            return np.stack([self.channel(r) for r in rho])
        if self.kind == "dense":
            branches = self.weights[:, None, None] * (self.ops @ rho)
            return (branches @ self.ops.conj().swapaxes(1, 2)).sum(axis=0)
        if self.kind == "diagonal":
            kernel = np.einsum("a,ai,aj->ij", self.weights, self.envelopes, self.envelopes)
            if self.basis is None:
                return rho * kernel
            v = self.basis
            return v @ ((v.conj().T @ rho @ v) * kernel) @ v.conj().T
        # the complex diagonal <right_a| rho |right_a>: frame_diagonal keeps only its real part
        coef = self.weights * self.scale**2 * np.einsum("ia,ia->a", self.right.conj(), rho @ self.right)
        return (self.left * coef) @ self.left.conj().T

    def describe(self) -> dict:
        """JSON-safe descriptor: label, outcome grid and parameters, no matrices."""
        out = self.outcomes
        if np.iscomplexobj(out):
            summary = {
                "n": int(out.size),
                "re_range": [float(out.real.min()), float(out.real.max())],
                "im_range": [float(out.imag.min()), float(out.imag.max())],
            }
        else:
            summary = {
                "n": int(out.size),
                "min": float(np.min(out)),
                "max": float(np.max(out)),
            }
        return {
            "label": self.label,
            "kind": self.kind,
            "dim": self.dim,
            "outcomes": summary,
            "completeness_defect": float(self.completeness_defect),
            "params": dict(self.meta),
        }

    def to_json(self) -> dict:
        """Full serialization including operators (intended for small families)."""
        return {
            "label": self.label,
            "outcomes": _array_to_json(self.outcomes),
            "weights": [float(w) for w in self.weights],
            "ops": [_array_to_json(a) for a in self.dense_ops()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "KrausFamily":
        return cls(
            label=data["label"],
            outcomes=_array_from_json(data["outcomes"]),
            weights=np.asarray(data["weights"], dtype=float),
            kind="dense",
            ops=np.stack([_array_from_json(a) for a in data["ops"]]),
        )


def _array_to_json(a: np.ndarray):
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return {"re": a.real.tolist(), "im": a.imag.tolist()}
    return a.tolist()


def _array_from_json(data):
    if isinstance(data, dict):
        return np.asarray(data["re"], dtype=float) + 1j * np.asarray(
            data["im"], dtype=float
        )
    return np.asarray(data)


def identity_family(dim: int) -> KrausFamily:
    """Trivial one-outcome family that leaves every state untouched."""
    return single_kraus_family(np.eye(dim), label="identity")


def not_projectors(ops: np.ndarray) -> np.ndarray:
    """Mask of the (n, d, d) stack elements that are not orthogonal projectors."""
    herm = ops - ops.conj().swapaxes(-1, -2)
    return norm_exceeds(ops @ ops - ops, DEFAULT_ATOL) | norm_exceeds(herm, DEFAULT_ATOL)


def projective_family(projectors, outcomes, label: str = "projective") -> KrausFamily:
    """Lueders instrument from a complete orthogonal projector list."""
    fam = KrausFamily(label=label, outcomes=outcomes, weights=np.ones(len(outcomes)), kind="dense", ops=projectors)
    ops = fam.ops
    n, d = ops.shape[:2]
    k = np.arange(n)
    i, j = np.nonzero(k[:, None] < k)  # pairs i < j in row-major order
    # one norm test over the stack [P_a^2 - P_a; P_a - P_a'; P_i P_j; sum_a P_a - I]
    herm, total = ops - ops.conj().swapaxes(1, 2), ops.sum(axis=0, keepdims=True) - np.eye(d)
    bad = norm_exceeds(np.concatenate([ops @ ops - ops, herm, ops[i] @ ops[j], total]), DEFAULT_ATOL)
    element, overlap = bad[:n] | bad[n : 2 * n], bad[2 * n : -1]
    if element.any():
        raise ValueError(f"element {element.argmax()} is not an orthogonal projector")
    if overlap.any():
        k = overlap.argmax()
        raise ValueError(f"projectors {i[k]} and {j[k]} overlap")
    if bad[-1]:
        raise ValueError("projectors do not sum to the identity")
    return fam


def single_kraus_family(op, label: str = "single") -> KrausFamily:
    """One-outcome family from a single (typically unitary) Kraus operator."""
    return KrausFamily(
        label=label,
        outcomes=np.array([0]),
        weights=np.array([1.0]),
        kind="dense",
        ops=as_operator(op)[None, :, :],
    )


def gaussian_x_family(delta: float, dim: int, grid: Grid1D | None = None) -> KrausFamily:
    """Gaussian-smeared position readout of width delta on the Fock cutoff.

    Kraus operators are (pi delta^2)^{-1/4} exp(-(X - a)^2 / (2 delta^2)),
    diagonal in the truncated position eigenbasis; outcome weights are the
    grid step so that completeness is a Riemann sum of the Gaussian integral.
    A completeness defect above 1e-3 raises.
    """
    x, _ = quadrature_operators(dim)
    return _smeared_quadrature_family(x, delta, dim, grid, f"gaussian_x(delta={delta:g})")


def gaussian_p_family(kappa: float, dim: int, grid: Grid1D | None = None) -> KrausFamily:
    """Gaussian-smeared momentum readout, the momentum twin of gaussian_x_family."""
    _, p = quadrature_operators(dim)
    return _smeared_quadrature_family(p, kappa, dim, grid, f"gaussian_p(kappa={kappa:g})")


def _smeared_quadrature_family(obs, width, dim, grid, label):
    if width <= 0:
        raise ValueError("smearing width must be positive")
    w, v = np.linalg.eigh(obs)
    if grid is None:
        span = float(np.max(np.abs(w))) + 6.0 * max(width, 1.0)
        step = width / 8.0
        n = int(math.ceil(2 * span / step)) + 1
        grid = Grid1D(-span, span, n)
    a = grid.points
    envs = (math.pi * width**2) ** (-0.25) * np.exp(
        -((w[None, :] - a[:, None]) ** 2) / (2.0 * width**2)
    )
    fam = KrausFamily(
        label=label,
        outcomes=a,
        weights=grid.weights,
        kind="diagonal",
        basis=v,
        envelopes=envs,
        meta={"width": float(width), "grid": grid.describe(), "dim": dim},
    )
    if fam.completeness_defect > 1e-3:
        raise ValueError(
            f"{label}: completeness defect {fam.completeness_defect:.3g} exceeds "
            "0.001; widen the outcome grid"
        )
    return fam


_BIN_RE = _re.compile(r"^\s*(\d+(?:\.\d+)?)?\s*\*?\s*m(?:\s*(?:\^|\*\*)\s*(\d+))?\s*$")


def parse_bin_border(spec: str):
    """Parse a border rule like 'm', '2m^2' or '100*m**2' into a callable."""
    m = _BIN_RE.match(spec)
    if m is None:
        raise ValueError(f"cannot parse bin border {spec!r}; expected forms like '2m^2'")
    coef = float(m.group(1)) if m.group(1) else 1.0
    power = int(m.group(2)) if m.group(2) else 1
    return lambda k: coef * k**power


def fock_bin_family(border, dim: int) -> KrausFamily:
    """Projective binning of Fock levels with bin m covering [g(m), g(m+1)).

    border may be a callable g(m) or a string such as '2m^2'. Bin 0 starts at
    0; g(1), g(2), ... must increase strictly and pass dim within 1000 (dim + 1)
    steps. Bins holding no level are dropped.
    """
    if isinstance(border, str):
        g, label = parse_bin_border(border), f"fock_bins({border})"
    else:
        g, label = border, "fock_bins"
    edges = [0.0]
    m = 1
    while edges[-1] < dim:
        e = float(g(m))
        if e <= edges[-1]:
            raise ValueError("bin borders must be strictly increasing")
        edges.append(e)
        m += 1
        if m > 1000 * (dim + 1):
            raise ValueError(f"bin borders do not pass dim {dim} within {m - 1} steps")
    bins = np.searchsorted(edges, np.arange(dim), side="right") - 1
    outcomes = np.unique(bins)
    return KrausFamily(
        label=label,
        outcomes=outcomes,
        weights=np.ones(outcomes.size),
        kind="diagonal",
        basis=None,
        envelopes=(bins == outcomes[:, None]).astype(float),
        meta={"dim": dim, "edges": [float(e) for e in edges]},
    )


def coherent_projector_family(lattice: ComplexLattice, dim: int) -> KrausFamily:
    """Discretized coherent-state readout with Kraus pi^{-1/2} |a><a|.

    The bra side keeps the raw truncated coherent amplitudes so that the POVM
    element is exactly the truncated heterodyne effect pi^{-1} |a><a|; the ket
    side is renormalized so the post-measurement state is a unit vector.
    Completeness holds only where the lattice covers the Fock levels kept by
    the cutoff (level n sits at radius ~ sqrt(n)); completeness_defect reads
    how far it falls short.
    """
    n = lattice.size
    # two (dim, n) complex stacks, the columns and the kets, the finite-entry
    # mask of one and five complex n-vectors
    require_bytes(n * (32 * dim + dim + 80), f"coherent projectors on {n:,} lattice points")
    pts = lattice.points
    cols = coherent_columns(pts, dim)
    norms = np.sqrt(frame_diagonal(cols))
    kets = cols / np.where(norms > 0, norms, 1.0)
    return KrausFamily(
        label="coherent_projectors",
        outcomes=pts,
        weights=lattice.weights,
        kind="rank1",
        left=kets,
        right=cols,
        scale=np.full(pts.size, math.pi**-0.5),
        meta={"lattice": lattice.describe(), "dim": dim},
    )


_UNDERFLOW_EXPONENT = 700.0  # exp(-x) is a normal double for x below about 708


def coherent_columns(points: np.ndarray, dim: int) -> np.ndarray:
    """Stack of raw truncated coherent amplitudes, one column per lattice point.

    Entry (k, a) is e^{-|b|^2/2} b^k / sqrt(k!) for b = points[a], built row
    by row with the multiply-recurrence C_k = C_{k-1} b / sqrt(k) from
    C_0 = e^{-|b|^2/2}. Rounding accumulates along k, yet at dim 260 and
    |b| <= 24 every entry stays within 1e-13 of its column's peak value. A
    point with |b|^2 / 2 above 700, where C_0 would underflow, takes the
    log-domain form exp(-|b|^2 / 2 + k log|b| - log(k!) / 2 + i k arg b).
    """
    pts = np.asarray(points, dtype=complex).ravel()
    half_r2 = 0.5 * np.abs(pts) ** 2
    cols = np.empty((dim, pts.size), dtype=complex)
    cols[0] = np.exp(-half_r2)
    for k in range(1, dim):
        np.multiply(cols[k - 1], pts * (1.0 / math.sqrt(k)), out=cols[k])
    far = np.flatnonzero(half_r2 > _UNDERFLOW_EXPONENT)
    if far.size:
        # imported here: importing the package loads numpy only, scipy on first call
        from scipy.special import gammaln

        k = np.arange(dim)[:, None]
        b = pts[far]
        logmod = -half_r2[far] + k * np.log(np.abs(b)) - 0.5 * gammaln(k + 1.0)
        cols[:, far] = np.exp(logmod + 1j * k * np.angle(b))
    return cols


def coherent_coarse_family(
    labels,
    n_outcomes: int,
    lattice: ComplexLattice,
    dim: int,
    *,
    label: str = "coherent_coarse",
) -> KrausFamily:
    """Coarse-grained phase-space readout from one outcome label per lattice point.

    The POVM element for outcome a is the moment operator
    pi^{-1} sum_{j: labels_j = a} w_j |alpha_j><alpha_j|, so each point enters
    one moment; the Kraus operator is its positive square root, and a final
    completeness correction K -> K S^{-1/2} absorbs the lattice discretization
    error.
    """
    pts = lattice.points
    labels = np.asarray(labels)
    if labels.shape != pts.shape or np.any((labels < 0) | (labels >= n_outcomes)):
        raise ValueError(f"every lattice point needs a label in range({n_outcomes})")
    require_coarse_bytes(n_outcomes, pts.size, dim)
    # the root of the moment B_a B_a', one column sqrt(w_j / pi) |alpha_j> of B_a
    # per point, is U s U' from the SVD B_a = U s V': exact to roundoff, where
    # eigh of B_a B_a' leaves ~sqrt(eps) in the null space of a small cell
    counts = np.bincount(labels, minlength=n_outcomes)
    starts = np.cumsum(counts) - counts
    cols = (coherent_columns(pts, dim) * np.sqrt(lattice.weights / math.pi))[:, np.argsort(labels, kind="stable")]
    ops = np.zeros((n_outcomes, dim, dim), dtype=complex)
    for c in np.unique(counts[counts > 0]):  # one batched SVD per point count
        group = np.flatnonzero(counts == c)
        block = cols[:, starts[group, None] + np.arange(c)].swapaxes(0, 1)
        u, s = np.linalg.svd(block, full_matrices=False)[:2]
        ops[group] = (u * s[:, None, :]) @ u.conj().swapaxes(1, 2)
    # the completeness correction peaks on its own copies of the ops, so the
    # columns and the last group's arrays are released before it runs
    del cols, block, u, s
    fam = KrausFamily(
        label=label,
        outcomes=np.arange(n_outcomes),
        weights=np.ones(n_outcomes),
        kind="dense",
        ops=ops,
        meta={"lattice": lattice.describe(), "dim": dim},
    )
    return symmetrize_completeness(fam)


def require_coarse_bytes(n_outcomes: int, n_points: int, dim: int) -> None:
    """Raise ValueError when coherent_coarse_family of these sizes would exceed physical memory.

    Its peak holds three (dim, n_points) complex stacks at most while the
    roots are taken: the scaled columns and their sorted copy, then the
    sorted columns, a group's point block and its left singular vectors;
    and three (n_outcomes, dim, dim) ones once the columns are released, the
    ops and the two copies completeness_operator makes in
    symmetrize_completeness, and the ops' finite-entry mask.
    """
    require_bytes(
        16 * n_points * (3 * dim + 3) + 49 * n_outcomes * dim * dim,
        f"{n_outcomes:,} coarse cells on {n_points:,} lattice points",
    )


def ring_family(d: float, dim: int, max_radius: float) -> KrausFamily:
    """Exact radial binning into ceil(max_radius / d) + 1 annuli m d <= |a| < (m + 1) d.

    The annulus effect pi^{-1} int_{lo <= |a| < hi} |a><a| d^2a is diagonal in
    the Fock basis, with weight Q(n+1, lo^2) - Q(n+1, hi^2) on level n, where
    Q is the regularized upper incomplete gamma function (Kofler and Brukner,
    PRL 99, 180403). The outer ring takes the remaining tail Q(n+1, lo^2), so
    the effects sum to Q(n+1, 0) = 1 and no lattice or correction is needed.
    """
    # imported here: importing the package loads numpy only, scipy on first call
    from scipy.special import gammaincc

    if d <= 0:
        raise ValueError("ring width must be positive")
    count = int(math.ceil(max_radius / d)) + 1
    # four (count, dim) arrays at once: tail, its differences, the effects and
    # their square roots; three of count: the arguments, outcomes and weights
    require_bytes(8 * count * (4 * dim + 3), f"{count:,} ring envelopes")
    tail = gammaincc(np.arange(dim) + 1.0, (d * np.arange(count)[:, None]) ** 2)
    effects = np.concatenate([tail[:-1] - tail[1:], tail[-1:]])
    return KrausFamily(
        label=f"rings(d={d:g})",
        outcomes=np.arange(count),
        weights=np.ones(count),
        kind="diagonal",
        envelopes=np.sqrt(np.clip(effects, 0.0, None)),
        meta={"d": float(d), "dim": dim},
    )


def cell_labels(points, side: float, extent: float) -> tuple[np.ndarray, int]:
    """Square-cell label of each point, for cells of the given side covering [-extent, extent]^2.

    Cell i n + j holds lo + i side <= Re a < lo + (i + 1) side, the same in Im a
    with j, for n cells per axis from lo = -n side / 2. Returns (labels, n^2),
    with -1 for a point outside every cell.
    """
    n = cells_per_axis(side, extent)
    edges = -0.5 * n * side + side * np.arange(n + 1)
    i = _interval_labels(points.real, edges)
    j = _interval_labels(points.imag, edges)
    return np.where((i >= 0) & (j >= 0), i * n + j, -1), n * n


def cells_per_axis(side: float, extent: float) -> int:
    """Cells of the given side along each axis of the cell_labels partition of [-extent, extent]^2."""
    if side <= 0:
        raise ValueError("cell side must be positive")
    return int(math.ceil(2 * extent / side))


def _interval_labels(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Index k with edges[k] <= x < edges[k + 1] for each value, -1 outside."""
    k = np.searchsorted(edges, x, side="right") - 1
    return np.where(k < edges.size - 1, k, -1)


def symmetrize_completeness(family: KrausFamily) -> KrausFamily:
    """Restore exact completeness by the polar correction K -> K S^{-1/2}.

    The result's meta["raw_defect"] is the input's completeness defect, read
    as max |lambda - 1| over the eigenvalues of S. Raises when the smallest
    eigenvalue of S is at most 1e-12 of the largest.
    """
    s = family.completeness_operator()
    w, v = np.linalg.eigh(s)
    if w.min() <= 1e-12 * w.max():
        raise ValueError("completeness operator is numerically singular; the family cannot be symmetrized")
    inv_sqrt = (v * w**-0.5) @ v.conj().T
    meta = dict(family.meta, symmetrized=True, raw_defect=float(np.abs(w - 1.0).max()))
    if family.kind == "diagonal":
        diag = np.diag(s).real if family.basis is None else frame_diagonal(family.basis, s)
        return dataclasses.replace(family, envelopes=family.envelopes * diag**-0.5, meta=meta)
    if family.kind == "rank1":
        return dataclasses.replace(family, right=inv_sqrt @ family.right, meta=meta)
    return dataclasses.replace(family, ops=family.ops @ inv_sqrt, meta=meta)
