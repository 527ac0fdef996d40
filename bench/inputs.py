"""Seeded workload inputs, made on the benchmark side with numpy alone.

Every workload draws from its own stream of ``numpy.random.default_rng``
keyed by (seed, workload). The seed moves values, never the amount of work:
dimensions, lattice sizes and item counts are the same for every seed, so
throughput and the traced call counts compare across seeds.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("sweep", "mz_scan", "overlap")

SWEEP_PER_DIM = 500  # qubit and qutrit halves of one round
SWEEP_ORACLE_SAMPLE = 24  # scenarios whose seven tables are brute-forced

MZ_R_INTERIOR = 3  # seeded reflectivities besides the endpoints 0 and 1
MZ_PHASES = 12
MZ_Q = (0.0, 0.3, 0.5)
MZ_C_MODULI = (0.45, 0.3, math.hypot(0.2, 0.35))
MZ_RANDOM_POINTS = 300

FOCK_RULES = ("m", "2m", "m^2", "2m^2", "10m^2", "100m^2")
FOCK_MODULI = (0.5, 1.25, 2.0, 2.75, 3.5, 4.25, 5.0, 6.0)
RING_WIDTHS = (2.0, 4.0, 6.0, 8.0)
CELL_SIDES = (2.0, 1.0, 0.75)
DELTA_MODULI = (0.0, 1.0, 2.0)
QUADRATURE_CASES = ("XX", "PX", "XP", "PP")


def make_inputs(workload: str, seed: int) -> tuple[dict, dict]:
    """(arrays, spec) for one workload: numpy arrays plus a JSON-safe spec."""
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    if workload == "sweep":
        return sweep_inputs(rng)
    if workload == "mz_scan":
        return {}, mz_scan_inputs(rng, seed)
    if workload == "overlap":
        return {}, overlap_inputs(rng)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# sweep: three-slot dichotomic projective scenarios


def haar_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _permutation_phase(rng, dim):
    u = np.zeros((dim, dim), dtype=complex)
    u[rng.permutation(dim), np.arange(dim)] = np.exp(2j * np.pi * rng.random(dim))
    return u


def sweep_inputs(rng, n_per_dim: int = SWEEP_PER_DIM, n_sample: int = SWEEP_ORACLE_SAMPLE):
    """Initial states, two unitaries and three (P+, P-) pairs per scenario.

    Every fifth scenario is classical: a diagonal state, permutation-with-phase
    unitaries and the fixed readout diag(1, 0, ...), so every condition holds.
    """
    arrays = {}
    for dim in (2, 3):
        rho = np.empty((n_per_dim, dim, dim), dtype=complex)
        evo = np.empty((n_per_dim, 2, dim, dim), dtype=complex)
        proj = np.empty((n_per_dim, 3, 2, dim, dim), dtype=complex)
        classical = np.zeros(n_per_dim, dtype=bool)
        for i in range(n_per_dim):
            if i % 5 == 0:
                classical[i] = True
                p = rng.random(dim)
                rho[i] = np.diag(p / p.sum())
                evo[i] = [_permutation_phase(rng, dim) for _ in range(2)]
                plus = np.zeros((dim, dim), dtype=complex)
                plus[0, 0] = 1.0
                proj[i] = [(plus, np.eye(dim) - plus)] * 3
                continue
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m = g @ g.conj().T
            rho[i] = m / np.trace(m).real
            evo[i] = [haar_unitary(rng, dim), haar_unitary(rng, dim)]
            for k in range(3):
                u = haar_unitary(rng, dim)
                cut = int(rng.integers(1, dim))
                proj[i, k, 0] = u[:, :cut] @ u[:, :cut].conj().T
                proj[i, k, 1] = u[:, cut:] @ u[:, cut:].conj().T
        arrays[f"rho{dim}"] = rho
        arrays[f"evo{dim}"] = evo
        arrays[f"proj{dim}"] = proj
        arrays[f"classical{dim}"] = classical
    arrays["sample"] = np.sort(rng.choice(2 * n_per_dim, size=n_sample, replace=False))
    return arrays, {"n_items": 2 * n_per_dim}


def sweep_scenario(arrays: dict, index: int):
    """(rho, (U01, U12), [(P+, P-)] * 3) of scenario `index` in round order."""
    n2 = arrays["rho2"].shape[0]
    dim, i = (2, index) if index < n2 else (3, index - n2)
    return (
        arrays[f"rho{dim}"][i],
        tuple(arrays[f"evo{dim}"][i]),
        [tuple(pair) for pair in arrays[f"proj{dim}"][i]],
    )


# ---------------------------------------------------------------------------
# mz_scan: the interferometer lattice through the command line


def mz_scan_inputs(rng, seed: int) -> dict:
    """Arguments of one `macroreal mz-scan` call and the point count it implies.

    Reflectivities keep the endpoints 0 and 1 plus seeded interior values, the
    phases are an evenly spaced comb with a seeded offset, and the coherences
    have fixed moduli with seeded phases, so which states are admissible, and
    hence the point count, does not depend on the seed.
    """

    def reflectivities():
        return sorted([0.0, 1.0] + [float(v) for v in rng.uniform(0.02, 0.98, MZ_R_INTERIOR)])

    r1 = reflectivities()
    r2 = reflectivities()
    offset = float(rng.uniform(0.0, 2.0 * math.pi / MZ_PHASES))
    phis = [offset + 2.0 * math.pi * k / MZ_PHASES for k in range(MZ_PHASES)]
    cs = [m * complex(math.cos(a), math.sin(a)) for m, a in zip(MZ_C_MODULI, rng.uniform(0, 2 * math.pi, 3))]
    states = len(MZ_Q) + sum(
        1 for c in cs for q in MZ_Q if abs(c) ** 2 <= q * (1.0 - q) + 1e-12
    )
    argv = [
        "mz-scan",
        "--r1", ",".join(repr(v) for v in r1),
        "--r2", ",".join(repr(v) for v in r2),
        "--phi", ",".join(repr(v) for v in phis),
        "--q", ",".join(repr(v) for v in MZ_Q),
        "--c", ",".join(repr(c) for c in cs),
        "--random-points", str(MZ_RANDOM_POINTS),
        "--seed", str(seed),
    ]
    n_points = len(r1) * len(r2) * len(phis) * states + MZ_RANDOM_POINTS
    sample = [int(v) for v in np.sort(rng.choice(n_points, size=24, replace=False))]
    return {"argv": argv, "n_items": n_points, "sample_points": sample}


# ---------------------------------------------------------------------------
# overlap: coarse-grained readouts on coherent states


def _polar(modulus: float, rng) -> list[float]:
    a = float(rng.uniform(0.0, 2.0 * math.pi))
    return [modulus * math.cos(a), modulus * math.sin(a)]


def overlap_inputs(rng) -> dict:
    """Overlap items: Fock rules, rings, cells, delta readouts and grid engine.

    Moduli, widths and sides are fixed, so Fock dimensions and lattice sizes
    are the same for every seed; the seed picks the phase of each amplitude
    and the grid-engine parameters.
    """
    items = []
    for modulus in FOCK_MODULI:
        gamma = _polar(modulus, rng)
        items.extend({"kind": "fock", "rule": rule, "gamma": gamma} for rule in FOCK_RULES)
    for d in RING_WIDTHS:
        items.append({"kind": "ring", "d": d, "where": "border", "gamma": _polar(d, rng)})
        items.append({"kind": "ring", "d": d, "where": "mid", "gamma": _polar(1.5 * d, rng)})
    for side in CELL_SIDES:
        items.append({"kind": "cell", "side": side, "gamma": _polar(1.0, rng)})
    for modulus in DELTA_MODULI:
        items.append({"kind": "delta", "gamma": _polar(modulus, rng)})
    for case in QUADRATURE_CASES:
        for lo, hi in ((0.0, 1.0), (3.0, 5.0)):
            items.append(
                {
                    "kind": "quadrature",
                    "case": case,
                    "delta": 1.0,
                    "kappa": 1.0,
                    "sigma": 1.0,
                    "t": float(rng.uniform(lo, hi)),
                }
            )
    items.append(
        {
            "kind": "coherent_x",
            "delta_sq": float(10.0 ** rng.uniform(math.log10(0.03), 0.0)),
            "gamma": _polar(1.0, rng),
        }
    )
    fock = [i for i, it in enumerate(items) if it["kind"] == "fock"]
    sample = [int(v) for v in np.sort(rng.choice(fock, size=6, replace=False))]
    return {"items": items, "n_items": len(items), "fock_oracle_sample": sample}
