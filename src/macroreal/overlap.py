"""Bhattacharyya invasiveness overlaps for coarse-grained readouts.

The common pattern: prepare a state, optionally apply a nonselective
intermediate measurement, then read out with a fixed final instrument. The
Bhattacharyya coefficient between the invaded and untouched readout
distributions is 1 exactly when the intermediate measurement left the
readout statistics alone.

Two engines are provided. The Fock-basis engine works on truncated
oscillator spaces with Husimi readouts; the 1-d grid engine works directly
on position wavefunctions with smeared quadrature readouts and fast-Fourier
free evolution.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from macroreal.hilbert import coherent_state, default_fock_dim, frame_diagonal
from macroreal.instruments import (
    ComplexLattice,
    KrausFamily,
    cell_labels,
    coherent_coarse_family,
    coherent_columns,
    coherent_projector_family,
    fock_bin_family,
    ring_family,
)


@dataclasses.dataclass(frozen=True)
class OutcomeDistribution:
    """Discretized outcome density with quadrature weights."""

    outcomes: np.ndarray
    weights: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        o = np.asarray(self.outcomes)
        w = np.asarray(self.weights, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if not (o.shape[0] == w.shape[0] == v.shape[0]):
            raise ValueError("outcomes, weights and values must align")
        object.__setattr__(self, "outcomes", o)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "values", v)

    @property
    def mass(self) -> float:
        return float(np.dot(self.weights, self.values))

    def validate(self) -> None:
        """Raise on a value below -1e-12 or a mass more than 1e-6 from 1."""
        if np.any(self.values < -1e-12):
            raise ValueError("negative density value")
        if abs(self.mass - 1.0) > 1e-6:
            raise ValueError(f"distribution mass {self.mass!r} differs from 1")


@dataclasses.dataclass(frozen=True)
class OverlapResult:
    value: float
    meta: dict = dataclasses.field(default_factory=dict)


def bhattacharyya(p: OutcomeDistribution, q: OutcomeDistribution) -> float:
    """Overlap sum w sqrt(p q) of two distributions on the same outcome grid.

    The grids are compared only when the two hold different outcome or weight arrays.
    """
    if p.outcomes is not q.outcomes or p.weights is not q.weights:
        if p.outcomes.shape != q.outcomes.shape or not np.allclose(p.outcomes, q.outcomes):
            raise ValueError("distributions live on different outcome grids")
        if not np.allclose(p.weights, q.weights):
            raise ValueError("distributions carry different quadrature weights")
    pv = np.clip(p.values, 0.0, None)
    qv = np.clip(q.values, 0.0, None)
    return float(np.dot(p.weights, np.sqrt(pv * qv)))


HUSIMI_BLOCK = 2048  # lattice points per readout block; bounds the (rows x block) temporaries and built columns
QUAD_BLOCK = 8  # first-readout outcomes per grid-engine block; bounds the (block x n) branch arrays


def _block_readout(read, lattice: ComplexLattice, dim: int) -> list:
    """Readout densities pi^{-1} read(block) over HUSIMI_BLOCK lattice points at a time.

    read returns one density row per block, or a (k, block) stack of k rows,
    and the list holds one distribution per row. Each block, the
    coherent_columns of its points, is built once and released before the
    next is built, so one block is held at a time.
    """
    pts, weights = lattice.points, lattice.weights
    parts = []
    for lo in range(0, pts.size, HUSIMI_BLOCK):
        block = coherent_columns(pts[lo : lo + HUSIMI_BLOCK], dim)
        parts.append(np.atleast_2d(read(block)))
        del block
    return [OutcomeDistribution(pts, weights, v / math.pi) for v in np.hstack(parts)]


def _state_read(state: np.ndarray):
    """Block read <beta| rho |beta> of a density matrix, or |<beta|psi>|^2 of a state vector."""
    if state.ndim == 2:
        return lambda block: frame_diagonal(block, state)
    return lambda block: np.abs(state.conj() @ block) ** 2


def _level_runs(family: KrausFamily) -> np.ndarray | None:
    """First levels of the bins of a Fock-bin partition, or None for any other family.

    A partition is Fock-diagonal with unit weights and 0/1 envelopes that put
    each level in one bin, the levels of each bin in one contiguous run.
    """
    if not family.fock_diagonal or np.any(family.weights != 1.0):
        return None
    env = family.envelopes
    owner = env.argmax(axis=0)
    if not np.array_equal(env, owner == np.arange(env.shape[0])[:, None]):
        return None
    starts = np.flatnonzero(np.diff(owner, prepend=-1))
    return starts if starts.size == np.unique(owner).size else None


def _pair_read(psi: np.ndarray, family: KrausFamily):
    """Block read of the stack (|<beta|psi>|^2, invaded readout) of psi and the nonselective family.

    Each block is read once for both rows. A Fock-bin partition sums psi*
    times the columns over each bin's run of levels, a_b = psi*[b] . C[b], at
    O(d) per point: the invaded readout is sum_b |a_b|^2, the untouched one
    |sum_b a_b|^2. Any other family diagonal in the Fock basis stacks psi* on
    top of its branch rows e_a * psi*, and any other family on top of the
    density matrix family.channel(psi), read as Re <beta| rho |beta>; either
    stack is one product with the block.
    """
    conj = psi.conj()
    starts = _level_runs(family)
    if starts is not None:
        runs = list(zip(starts, [*starts[1:], psi.size]))

        def read(block):
            amps = np.empty((len(runs), block.shape[1]), dtype=complex)
            for out, (lo, hi) in zip(amps, runs):
                np.dot(conj[lo:hi], block[lo:hi], out=out)
            total = amps.sum(axis=0)
            return np.stack([total.real**2 + total.imag**2, (amps.real**2 + amps.imag**2).sum(axis=0)])

        return read
    if family.fock_diagonal:
        stack = np.vstack([conj, family.envelopes * conj])

        def read(block):
            amps = stack @ block
            power = amps.real**2 + amps.imag**2
            return np.stack([power[0], family.weights @ power[1:]])

        return read
    stack = np.vstack([conj, family.channel(psi)])

    def read(block):
        prod = stack @ block
        return np.stack([prod[0].real**2 + prod[0].imag**2, frame_diagonal(block, image=prod[1:])])

    return read


def husimi(state: np.ndarray, lattice: ComplexLattice) -> OutcomeDistribution:
    """Husimi readout density pi^{-1} <beta| rho |beta> on the lattice.

    state is a density matrix rho, or a state vector psi for rho = |psi><psi|,
    which reads |<beta|psi>|^2 at O(d) per point instead of O(d^2).
    """
    return _block_readout(_state_read(state), lattice, state.shape[0])[0]


def branch_husimi(psi: np.ndarray, family: KrausFamily, lattice: ComplexLattice) -> OutcomeDistribution:
    """Husimi readout of the pure state psi after the nonselective family.

    family is diagonal in the Fock basis, A_a = diag(e_a), so the invaded
    readout is the branch sum pi^{-1} sum_a w_a |<beta| A_a psi>|^2, that is
    sum_a w_a |(e_a * conj(psi)) C|^2 / pi for the coherent_columns C. That
    costs O(n_a d) per point, O(d) for a Fock-bin partition, against O(d^2)
    for the density matrix family.channel(|psi><psi|), which is never built.
    """
    if not family.fock_diagonal:
        raise ValueError("branch readout needs a family diagonal in the Fock basis")
    return _block_readout(_pair_read(psi, family), lattice, psi.size)[1]


def _readout_overlap(gamma, dim: int | None, step: float, readout) -> tuple[OverlapResult, KrausFamily]:
    """Overlap of the Husimi readouts of |gamma> before and after a readout family.

    The readout lattice is the square [-R, R]^2 with R = |gamma| + 5, and dim
    defaults to default_fock_dim(gamma). readout(lattice, R, dim) returns the
    family. Both readouts are taken from one read of each column block
    (_pair_read): a Fock-bin partition through its runs of levels, any other
    family diagonal in the Fock basis (rings) through its branches, any other
    family through the density matrix family.channel(psi) of the state vector
    psi.
    """
    g = complex(gamma)
    if dim is None:
        dim = default_fock_dim(g)
    if dim < 1:
        raise ValueError(f"the Fock cutoff must be at least 1, got {dim}")
    radius = abs(g) + 5.0
    lattice = ComplexLattice.square(radius, step)
    family = readout(lattice, radius, dim)
    psi = coherent_state(g, dim).amplitudes
    reference, invaded = _block_readout(_pair_read(psi, family), lattice, dim)
    meta = {
        "reference_mass": reference.mass,
        "invaded_mass": invaded.mass,
        "lattice": lattice.describe(),
        "gamma": [g.real, g.imag],
        "dim": dim,
    }
    return OverlapResult(value=bhattacharyya(reference, invaded), meta=meta), family


def coherent_delta_overlap(gamma, *, dim: int | None = None, step: float = 0.25) -> OverlapResult:
    """Invasiveness of the discretized coherent-projector readout on |gamma>.

    For an ideal delta-like phase-space readout the overlap is 2 sqrt(2) / 3
    independent of gamma; the discretization reproduces that value as the
    lattice resolves the state.
    """

    def readout(lattice, radius, dim):
        return coherent_projector_family(lattice, dim)

    result, _ = _readout_overlap(gamma, dim, step, readout)
    result.meta["ideal"] = 2.0 * math.sqrt(2.0) / 3.0
    return result


def ring_overlap(d: float, gamma, *, dim: int | None = None, step: float = 0.25) -> OverlapResult:
    """Invasiveness of radial binning with annuli of width d on |gamma>.

    The readout stays nearly non-invasive when the state sits well inside one
    ring and dips when |gamma| crosses a ring border.
    """

    def readout(lattice, radius, dim):
        return ring_family(d, dim, math.hypot(radius, radius) + 2.0 * step)

    result, fam = _readout_overlap(gamma, dim, step, readout)
    result.meta.update({"d": float(d), "raw_defect": fam.completeness_defect})
    return result


def cell_overlap(side: float, gamma, *, dim: int | None = None, step: float = 0.25) -> OverlapResult:
    """Invasiveness of a square-cell phase-space partition of the given side.

    As the side shrinks the partition resolves points, and the overlap
    approaches the delta-readout value 2 sqrt(2) / 3 from above.
    """

    def readout(lattice, radius, dim):
        labels, n_cells = cell_labels(lattice.points, side, radius + 2.0 * step)
        return coherent_coarse_family(labels, n_cells, lattice, dim, label=f"cells(side={side:g})")

    result, _ = _readout_overlap(gamma, dim, step, readout)
    result.meta["side"] = float(side)
    return result


def fock_overlap(border, gamma, *, dim: int | None = None, step: float = 0.25) -> OverlapResult:
    """Invasiveness of Fock-level binning with borders g(m) on |gamma>.

    border is a callable or a rule string such as '2m^2'. The nonselective
    measurement erases number coherences between different bins, which the
    Husimi readout sees as a loss of phase localization.
    """

    def readout(lattice, radius, dim):
        return fock_bin_family(border, dim)

    result, fam = _readout_overlap(gamma, dim, step, readout)
    result.meta["n_bins"] = int(fam.n_outcomes)
    return result


# ---------------------------------------------------------------------------
# Sharp position readout on a coherent state (grid engine)


def coherent_x_exact(delta_sq: float) -> float:
    """Closed-form overlap for a width-delta position readout on a coherent state.

    Derived by Gaussian integration of the invaded Husimi function; the value
    does not depend on which coherent state is probed.
    """
    if delta_sq <= 0:
        raise ValueError("delta_sq must be positive")
    s = 2.0 * delta_sq
    return (s / (s + 1.0)) ** 0.25 * math.sqrt(2.0 * (s + 1.0) / (2.0 * s + 1.0))


def coherent_x_overlap(delta_sq: float, gamma=0.0, *, step: float = 0.25) -> OverlapResult:
    """Numerical Husimi-route overlap for a sharp position readout.

    Implements the instrument as a literal outcome sum of Gaussian Kraus
    envelopes on a position grid, computes the invaded Husimi distribution
    through a Toeplitz dephasing kernel and compares with the untouched one.
    The readout lattice is the square of half-side 6 around gamma, the
    position grid spans |x| <= sqrt(2) |gamma| + 9. The closed form is
    attached in the metadata for cross-checking.
    """
    # imported here: importing the package loads numpy only, scipy on first call
    import scipy.fft

    if delta_sq <= 0:
        raise ValueError("delta_sq must be positive")
    delta = math.sqrt(delta_sq)
    g = complex(gamma)
    lattice = ComplexLattice.square(6.0, step, center=g)
    x_halfspan = abs(g) * math.sqrt(2.0) + 9.0
    dx = min(delta / 2.0, 0.05)
    n = int(math.ceil(2.0 * x_halfspan / dx)) + 1
    xs = np.linspace(-x_halfspan, x_halfspan, n)
    dx = xs[1] - xs[0]

    # Outcome grid at half the position step keeps the kernel exactly Toeplitz.
    da = dx / 2.0
    pad = 6.0 * delta
    agrid = np.arange(-x_halfspan - pad, x_halfspan + pad + da / 2.0, da)

    # Dephasing kernel k(x - x') = sum_a w g_a(x) g_a(x') along the first row;
    # only outcomes whose envelope at xs[0] is nonzero in floating point add to
    # it, read in HUSIMI_BLOCK blocks so the (n x block) temporary stays bounded.
    ga0 = np.exp(-((xs[0] - agrid) ** 2) / (2.0 * delta_sq))
    near = np.flatnonzero(ga0)
    first = np.zeros(n)
    for lo in range(0, near.size, HUSIMI_BLOCK):
        block = near[lo : lo + HUSIMI_BLOCK]
        gax = np.exp(-((xs[:, None] - agrid[block][None, :]) ** 2) / (2.0 * delta_sq))
        first += gax @ ga0[block]
    first *= (math.pi * delta_sq) ** -0.5 * da

    psi = _coherent_wavefunction(xs, g)
    pts, weights = lattice.points, lattice.weights
    re, im = lattice.re_axis, lattice.im_axis
    # <x|beta>* psi(x) dx = e_r(x) e^{-i omega x} up to a phase of beta, with the
    # row envelope e_r(x) for Re beta = re[r] and omega = sqrt2 Im beta
    rows = math.pi**-0.25 * np.exp(-0.5 * (xs - math.sqrt(2.0) * re[:, None]) ** 2) * psi * dx
    omega = math.sqrt(2.0) * im
    # q0 = |sum_x e_r(x) e^{-i omega x}|^2 / pi
    amps = np.einsum("rx,bx->rb", rows, np.exp(-1j * np.outer(omega, xs)))
    q0 = (amps.real**2 + amps.imag**2) / math.pi
    # The invaded double sum sum_{x,x'} w(x)* k(x' - x) w(x') over w = e_r e^{-i omega x},
    # regrouped by the lag tau = x' - x, is sum_tau k(tau) R_r(tau) e^{-i omega tau dx}
    # with the row autocorrelation R_r(tau) = sum_l e_r(l + tau) e_r(l)*. Since
    # R_r(-tau) = R_r(tau)* and k is even, its real part sums tau >= 0 with
    # weight 1 at tau = 0 and 2 beyond. R_r is ifft(|fft(e_r, L)|^2) at a fast
    # length L >= 2n - 1, where no lag wraps around.
    length = scipy.fft.next_fast_len(2 * n - 1)
    spectra = scipy.fft.fft(rows, length, axis=1)
    autocorr = scipy.fft.ifft(spectra.real**2 + spectra.imag**2, axis=1)[:, :n]
    first[1:] *= 2.0  # c_tau k(tau)
    weighted = autocorr * first
    phases = np.outer(omega, dx * np.arange(n))
    # Re(R e^{-i phi}) = Re R cos(phi) + Im R sin(phi); einsum sums in its own
    # loops, not BLAS, so no thread count moves a bit
    q1 = np.einsum("rt,bt->rb", weighted.real, np.cos(phases))
    q1 += np.einsum("rt,bt->rb", weighted.imag, np.sin(phases))
    q1 /= math.pi
    p_ref = OutcomeDistribution(pts, weights, q0.ravel())
    p_inv = OutcomeDistribution(pts, weights, np.clip(q1.ravel(), 0.0, None))
    value = bhattacharyya(p_ref, p_inv)
    return OverlapResult(
        value=value,
        meta={
            "delta_sq": float(delta_sq),
            "gamma": [g.real, g.imag],
            "exact": coherent_x_exact(delta_sq),
            "reference_mass": p_ref.mass,
            "invaded_mass": p_inv.mass,
            "lattice": lattice.describe(),
            "x_grid": {"halfspan": x_halfspan, "n": int(n)},
        },
    )


def _coherent_wavefunction(xs: np.ndarray, gamma: complex) -> np.ndarray:
    """<x|gamma> for unit-oscillator coherent states."""
    re, im = gamma.real, gamma.imag
    return (
        math.pi**-0.25
        * np.exp(-0.5 * (xs - math.sqrt(2.0) * re) ** 2)
        * np.exp(1j * math.sqrt(2.0) * im * xs - 1j * re * im)
    )


# ---------------------------------------------------------------------------
# Smeared quadrature sequences on a Gaussian wave packet (grid engine)

QUADRATURE_CASES = ("XX", "PX", "XP", "PP")


def _quadrature_case(case: str, delta, kappa, sigma, t, mass) -> str:
    """Upper-cased case; raises unless widths and mass are finite and positive and t finite."""
    case = case.upper()
    if case not in QUADRATURE_CASES:
        raise ValueError(f"case must be one of {QUADRATURE_CASES}")
    for name, value in (("delta", delta), ("kappa", kappa), ("sigma", sigma), ("mass", mass)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    return case


def quadrature_overlap_analytic(
    case: str,
    delta: float = 1.0,
    kappa: float = 1.0,
    sigma: float = 1.0,
    t: float = 0.0,
    mass: float = 1.0,
) -> float:
    """Moment-propagation overlap for smeared quadrature pairs.

    case names first and second readout: X uses width delta, P uses width
    kappa. The packet starts Gaussian with position variance sigma^2 / 2 and
    evolves freely for time t between the measurements. All distributions
    stay centered Gaussians, so the overlap depends only on the variances.
    """
    case = _quadrature_case(case, delta, kappa, sigma, t, mass)
    var_x = sigma**2 / 2.0
    var_p = 1.0 / (2.0 * sigma**2)
    ratio = t / mass
    if case == "XX":
        s0 = var_x + ratio**2 * var_p + delta**2 / 2.0
        s1 = var_x + ratio**2 * (var_p + 1.0 / (2.0 * delta**2)) + delta**2 / 2.0
    elif case == "PX":
        s0 = var_x + ratio**2 * var_p + delta**2 / 2.0
        s1 = var_x + 1.0 / (2.0 * kappa**2) + ratio**2 * var_p + delta**2 / 2.0
    elif case == "XP":
        s0 = var_p + kappa**2 / 2.0
        s1 = var_p + 1.0 / (2.0 * delta**2) + kappa**2 / 2.0
    else:
        s0 = var_p + kappa**2 / 2.0
        s1 = s0
    return math.sqrt(2.0 * math.sqrt(s0 * s1) / (s0 + s1))


def _circular_smear(v: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """sum_i kernel[(j - i) mod n] v[i] for every j, summed directly over the kernel's band.

    kernel holds the lags 0, 1, ..., then the negative ones, in fftfreq order,
    and falls off with |lag|. Its band is the lags where it is at least 2^-60
    of kernel[0], wrapped circularly and at most the whole circle, each lag
    once. Convolving v wrapped by `left` and `right` samples with the band in
    "valid" mode gives sum_k band[k] v[(j + right - k) mod n].
    """
    n = v.size
    reach = int(np.count_nonzero(kernel[: n // 2 + 1] >= 2.0**-60 * kernel[0])) - 1
    if 2 * reach + 1 < n:  # lags -reach..reach
        band, left, right = kernel[np.arange(-reach, reach + 1)], reach, reach
    else:  # the whole circle: lags 0..n-1
        band, left, right = kernel, n - 1, 0
    return np.convolve(np.concatenate((v[n - left :], v, v[:right])), band, "valid")


def quadrature_overlap_numeric(
    case: str,
    delta: float = 1.0,
    kappa: float = 1.0,
    sigma: float = 1.0,
    t: float = 0.0,
    mass: float = 1.0,
    *,
    n: int = 4096,
) -> OverlapResult:
    """Grid-engine overlap for smeared quadrature pairs.

    The first instrument is applied branch by branch on its outcome grid,
    QUAD_BLOCK outcomes at a time, and each branch evolves freely via FFT. The
    final smeared readout acts on the summed intensity v as one circular
    convolution with the sampled Gaussian kernel k, normalised to unit mass on
    the axis, on the engine's own periodic axis: the positions xs for an X
    readout, the FFT momenta in fftfreq order for a P readout. The convolution
    is summed directly, so every term is nonnegative and no FFT roundoff
    reaches the square root of the Bhattacharyya sum. It sums only the
    kernel's band, the lags where k is at least 2^-60 of its peak k_0, wrapped
    circularly and at most the whole circle; each dropped term is below
    2^-60 k_0 v_i, so the cut moves a readout value by less than
    2^-60 k_0 sum_i v_i. The half-span grows as 1/kappa so the momentum step
    resolves a narrow P readout. ValueError refuses a grid of step
    dx = 2 * halfspan / n with an X readout below 1.5 dx (its sampled kernel
    falls short of the variance delta^2 / 2), or with momenta pi / dx short of
    6 w for exp(-p^2 / w^2) the widest momentum intensity held, past which it
    aliases: w^2 = 1 / sigma^2, plus 1 / delta^2 for a first X readout's
    branches, plus kappa^2 for the P readout of XP. Two X readouts at t = 0
    never leave the position axis, so no X term applies to them. No Gaussian
    shortcuts are taken, so this route checks the moment propagation
    independently.
    """
    case = _quadrature_case(case, delta, kappa, sigma, t, mass)
    if n < 2:
        raise ValueError(f"position grid needs at least 2 points, got {n}")
    drift = abs(t / mass) * 3.0 * (1.0 / sigma + (1.0 / delta if case[0] == "X" else kappa))
    # A P readout of width kappa leaves branches about 1/kappa wide in position,
    # and its kernel needs a momentum step pi / halfspan finer than kappa.
    halfspan = 8.0 * max(sigma, 1.0, 1.0 / kappa) + drift + 6.0 * max(delta, kappa)
    xs, dx = np.linspace(-halfspan, halfspan, n, endpoint=False, retstep=True)
    commuting = case == "XX" and t == 0.0
    if "X" in case and delta < 1.5 * dx and not commuting:
        raise ValueError(
            f"X readout width delta = {delta:g} is below 1.5 position steps of {dx:.3g}; "
            "use more grid points"
        )
    width = math.sqrt(sigma**-2 + (case[0] == "X" and not commuting) * delta**-2 + (case == "XP") * kappa**2)
    if math.pi / dx < 6.0 * width:
        raise ValueError(
            f"momentum range pi / dx = {math.pi / dx:.3g} is below 6 widths {width:.3g}; use more grid points"
        )
    ps = 2.0 * math.pi * np.fft.fftfreq(n, d=dx)
    psi0 = (math.pi * sigma**2) ** -0.25 * np.exp(-(xs**2) / (2.0 * sigma**2))

    first, second = case[0], case[1]
    width1 = delta if first == "X" else kappa
    # Outcome grid for the first instrument covers the packet in the measured
    # quadrature; in momentum the packet width is 1/sigma.
    spread1 = 6.0 * (sigma if first == "X" else 1.0 / sigma) + 6.0 * width1
    a_step = width1 / 4.0
    agrid = np.arange(-spread1, spread1 + a_step / 2.0, a_step)

    # Branches and reference after the free flight, as FFT coefficients; a
    # momentum filter commutes with the free-flight phase. The branches are
    # built, evolved and read QUAD_BLOCK outcomes at a time, with the envelope
    # arithmetic in place, and only their summed intensity is kept.
    phase = np.exp(-1j * ps**2 * t / (2.0 * mass))
    ref_k = np.fft.fft(psi0) * phase
    summed = np.zeros(n)
    for lo in range(0, agrid.size, QUAD_BLOCK):
        env = np.subtract.outer(agrid[lo : lo + QUAD_BLOCK], xs if first == "X" else ps)
        np.square(env, out=env)
        env /= -2.0 * width1**2
        np.exp(env, out=env)
        env *= (math.pi * width1**2) ** -0.25
        if first == "X":
            env *= psi0
            branches_k = np.fft.fft(env, axis=1)
            branches_k *= phase
        else:
            branches_k = ref_k * env
        amp = np.abs(np.fft.ifft(branches_k, axis=1) if second == "X" else branches_k)
        np.square(amp, out=amp)
        summed += amp.sum(axis=0)

    # Intensities as probabilities per axis sample; by Parseval a momentum
    # sample carries |fft|^2 dx / n.
    if second == "X":
        intensity = a_step * dx * summed
        ref_intensity = dx * np.abs(np.fft.ifft(ref_k)) ** 2
        axis, daxis = xs, dx
    else:
        intensity = a_step * dx / n * summed
        ref_intensity = dx / n * np.abs(ref_k) ** 2
        axis, daxis = ps, ps[1]

    # Circular kernel indexed by the lag (j - i) mod n: lags 0, daxis, ...,
    # then the negative ones, in fftfreq order.
    width2 = delta if second == "X" else kappa
    lags = n * daxis * np.fft.fftfreq(n)
    kernel = np.exp(-(lags**2) / width2**2)
    kernel /= kernel.sum() * daxis
    inv, refd = (
        OutcomeDistribution(axis, np.full(n, daxis), _circular_smear(v, kernel)) for v in (intensity, ref_intensity)
    )
    value = bhattacharyya(refd, inv)
    return OverlapResult(
        value=value,
        meta={
            "case": case,
            "delta": delta,
            "kappa": kappa,
            "sigma": sigma,
            "t": t,
            "mass": mass,
            "invaded_mass": inv.mass,
            "reference_mass": refd.mass,
            "analytic": quadrature_overlap_analytic(case, delta, kappa, sigma, t, mass),
        },
    )
