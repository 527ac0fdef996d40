import math

import numpy as np
import pytest

from macroreal.conditions import bundle_distances
from macroreal.mach_zehnder import (
    CONDITION_NAMES,
    CONVENTIONS,
    MZParams,
    analytic_residuals,
    batch_numeric_residuals,
    beamsplitter,
    calibrate_convention,
    initial_state,
    lgi_k_value,
    lgi_max_search,
    mz_batch,
    mz_scenario,
    mz_unitaries,
    numeric_residuals,
    two_time_counterexample_search,
    verify_lattice,
    which_path_family,
)


def random_params(rng):
    q = rng.random()
    r = math.sqrt(q * (1.0 - q)) * math.sqrt(rng.random())
    theta = 2.0 * math.pi * rng.random()
    c = r * np.exp(1j * theta)
    if rng.random() < 0.3:
        c = None
        q = rng.random()
    return MZParams(rng.random(), rng.random(), 2.0 * math.pi * rng.random(), q, c)


def test_params_validation():
    MZParams(0.5, 0.5, 0.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        MZParams(1.2, 0.5, 0.0)
    with pytest.raises(ValueError):
        MZParams(0.5, 0.5, 0.0, 0.9, 0.5)  # |c|^2 > q(1-q)
    with pytest.raises(ValueError):
        MZParams(0.5, 0.5, 0.0, -0.1)
    # a NaN phase or coherence would slip past the range and |c|^2 tests
    for phi, c in (
        (math.nan, None),
        (math.inf, 0.1),
        (0.0, math.nan),
        (0.0, complex(0.0, math.nan)),
        (0.0, math.inf),
    ):
        with pytest.raises(ValueError):
            MZParams(0.5, 0.5, phi, 0.5, c)


def test_initial_state_forms():
    mixed = initial_state(MZParams(0.5, 0.5, 0.0, 0.3, None))
    assert np.allclose(mixed.matrix, np.diag([0.3, 0.7]))
    sup = initial_state(MZParams(0.5, 0.5, 0.0, 0.5, 0.3j))
    assert sup.matrix[0, 1] == 0.3j
    assert sup.matrix[1, 0] == -0.3j


def test_beamsplitter_unitarity_and_extremes():
    for r in (0.0, 0.3, 1.0):
        b = beamsplitter(r)
        assert np.max(np.abs(b.conj().T @ b - np.eye(2))) < 1e-14
    assert np.allclose(beamsplitter(0.0), np.eye(2))


def test_unitaries_are_unitary_in_all_conventions():
    p = MZParams(0.3, 0.8, 1.1)
    for conv in CONVENTIONS:
        u01, u12 = mz_unitaries(p, conv)
        for u in (u01, u12):
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-14


def test_which_path_outcomes():
    fam = which_path_family()
    assert list(fam.outcomes) == [1, -1]


def test_closed_forms_match_pipeline_on_random_settings():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(200):
        p = random_params(rng)
        ana = analytic_residuals(p)
        num = numeric_residuals(p)
        for name in CONDITION_NAMES:
            worst = max(worst, abs(ana[name] - num[name]))
    assert worst < 1e-12


def test_batched_residuals_equal_the_single_point_path():
    rng = np.random.default_rng(41)
    points = [random_params(rng) for _ in range(200)]
    for conv in CONVENTIONS:
        batched = batch_numeric_residuals(points, conv)
        for i, p in enumerate(points):
            single = numeric_residuals(p, conv)
            for name in CONDITION_NAMES + ("_K",):
                assert abs(batched[name][i] - single[name]) <= 1e-15, (conv, i, name)


def test_lattice_items_are_their_one_scenario_tables_bit_for_bit():
    # the argument-free mz-scan lattice as one batch against a sample of its
    # items, one scenario at a time; one read fills every table
    points = verify_lattice().points
    batch = mz_batch(points)
    batch.tables[(0, 1, 2)]
    for i in np.random.default_rng(44).choice(len(points), 40, replace=False):
        sc = mz_scenario(points[i])
        sc.tables[(0, 1, 2)]
        assert sc.tables.keys() == batch.tables.keys()
        for measured, values in batch.tables.items():
            assert np.array_equal(values[i], sc.tables[measured][0]), (points[i], measured)


def test_verify_lattice_rows_keep_lattice_order():
    rs = [0.2, 0.7]
    r2s = [0.1, 0.5, 0.9]
    phis = [0.0, 1.5]
    states = [{"q": 0.5, "c": None}, {"q": 0.5, "c": 0.3j}]
    extra = [MZParams(0.35, 0.45, 2.5, 0.4, 0.1 - 0.2j)]
    report = verify_lattice(
        rs, phis, states, r2_values=r2s, extra_points=extra, convention="crossed-p0"
    )
    points = [
        MZParams(r1, r2, phi, st["q"], st["c"])
        for r1 in rs
        for r2 in r2s
        for phi in phis
        for st in states
    ] + extra
    assert report.n_points == len(points) == 2 * 3 * 2 * 2 + 1
    assert report.points == points
    assert report.numeric.shape == report.analytic.shape == (len(points), len(CONDITION_NAMES))
    for num_row, ana_row, p in zip(report.numeric, report.analytic, points):
        num = numeric_residuals(p)
        ana = analytic_residuals(p)
        assert num_row.tolist() == [num[name] for name in CONDITION_NAMES]
        assert ana_row.tolist() == [ana[name] for name in CONDITION_NAMES]


def test_an_empty_batch_has_empty_tables():
    residuals = batch_numeric_residuals([])
    for name in CONDITION_NAMES:
        assert isinstance(residuals[name], np.ndarray) and residuals[name].shape == (0,), name
    assert mz_batch([]).tables[(0, 1, 2)].shape == (0, 2, 2, 2)
    sup, tv = bundle_distances(mz_batch([]).tables)
    assert sup.shape == tv.shape == (0, 10)
    report = verify_lattice([], convention="crossed-p0")
    assert report.n_points == 0 and report.points == [] and report.ok
    assert report.analytic.shape == report.numeric.shape == (0, len(CONDITION_NAMES))


@pytest.mark.parametrize(
    "r1, phi, state",
    [
        (1.5, 0.0, {"q": 0.5, "c": None}),
        (-0.1, 0.0, {"q": 0.5, "c": 0.1}),
        (0.5, 0.0, {"q": 2.0, "c": None}),
        (0.5, math.nan, {"q": 0.5, "c": None}),
        (0.5, 0.0, {"q": 0.9, "c": 0.5}),
        (0.5, 0.0, {"q": 0.5, "c": complex(0.0, math.nan)}),
    ],
)
def test_verify_lattice_rejects_a_setting_as_mzparams_does(r1, phi, state):
    with pytest.raises(ValueError) as expected:
        MZParams(r1, 0.5, phi, state["q"], state["c"])
    good = {"q": 0.5, "c": 0.3j}
    # the bad setting is the third point, after two admissible ones
    with pytest.raises(ValueError) as raised:
        verify_lattice([0.2, r1], [phi], [good, state], r2_values=[0.5], convention="crossed-p0")
    assert str(raised.value) == str(expected.value)
    assert "\n" not in str(raised.value)


def test_lattice_report_keeps_coherences_of_zero():
    states = [{"q": 0.5, "c": None}, {"q": 0.5, "c": 0}, {"q": 0.3, "c": 0.2 + 0.35j}]
    extra = [MZParams(0.35, 0.45, 2.5, 0.4, 0j), MZParams(0.1, 0.2, 0.3, 0.4)]
    report = verify_lattice([0.25], [1.0], states, extra_points=extra, convention="crossed-p0")
    assert report.has_c.tolist() == [False, True, True, True, False]
    assert [p.describe()["c"] for p in report.points] == [
        None, [0.0, 0.0], [0.2, 0.35], [0.0, 0.0], None
    ]
    r1, r2, phi, q, c = report.settings
    assert r1.tolist() == [0.25, 0.25, 0.25, 0.35, 0.1]
    assert q.tolist() == [0.5, 0.5, 0.3, 0.4, 0.4]
    assert c.tolist() == [0j, 0j, 0.2 + 0.35j, 0j, 0j]


def test_lgi_value_at_special_points():
    assert abs(lgi_k_value(MZParams(0.25, 0.75, math.pi)) - 1.5) < 1e-15
    # no second splitter: correlators collapse to the classical bound
    assert lgi_k_value(MZParams(0.5, 0.0, 0.0)) <= 1.0 + 1e-15


def test_calibration_picks_the_crossed_layout():
    best, info = calibrate_convention()
    assert best == "crossed-p0"
    assert info["errors"]["crossed-p0"] < 1e-12
    for conv in CONVENTIONS:
        if conv != "crossed-p0":
            assert info["errors"][conv] > 1e-3


def test_verify_lattice_small():
    report = verify_lattice(
        r_values=np.linspace(0.1, 0.9, 3),
        phi_values=np.linspace(0.0, 2.0 * math.pi, 4, endpoint=False),
        states=[{"q": 0.4, "c": None}, {"q": 0.5, "c": 0.3j}],
        convention="crossed-p0",
    )
    assert report.ok
    assert report.n_points == 3 * 3 * 4 * 2
    assert report.max_formula_error < 1e-12
    d = report.to_dict()
    assert d["ok"] is True


def test_verify_lattice_flags_wrong_convention():
    report = verify_lattice(
        r_values=np.array([0.3, 0.6]),
        phi_values=np.array([0.9]),
        states=[{"q": 0.5, "c": 0.3 + 0.2j}],
        convention="straight-p1",
    )
    assert not report.ok


def test_lgi_max_search_hits_lueders_bound():
    res = lgi_max_search(n_grid=21)
    assert abs(res["K"] - 1.5) < 1e-6
    assert abs(res["K_numeric"] - res["K"]) < 1e-9
    assert abs(res["params"]["r1"] - 0.25) < 1e-3
    assert abs(res["params"]["r2"] - 0.75) < 1e-3


@pytest.mark.parametrize("n_grid", [9, 21])
def test_lgi_grid_matches_a_scalar_triple_loop(n_grid):
    # the coarse grid of lgi_max_search written point by point in math, keeping
    # the first strict maximum in (r1, r2, phi) order
    rs = np.linspace(0.0, 1.0, n_grid).tolist()
    phis = np.linspace(0.0, 2.0 * math.pi, 2 * n_grid, endpoint=False).tolist()
    best_k, best = -math.inf, None
    for r1 in rs:
        for r2 in rs:
            for phi in phis:
                alpha = math.sqrt(r1 * r2 * (1.0 - r1) * (1.0 - r2))
                k = 1.0 - 4.0 * (r1 + alpha * math.cos(phi) - r1 * r2)
                if k > best_k:
                    best_k, best = k, {"r1": r1, "r2": r2, "phi": phi}
    res = lgi_max_search(n_grid)
    assert res["grid_params"] == best
    assert abs(res["grid_K"] - best_k) <= 1e-15


def test_counterexample_search_finds_two_time_blind_spot():
    found = two_time_counterexample_search()
    assert found is not None
    assert found["two_time_max"] < 1e-12
    assert found["sandwich"] > 0.1
    p = found["params"]
    sc = mz_scenario(MZParams(p["r1"], p["r2"], p["phi"], p["q"], complex(*p["c"])))
    from macroreal.conditions import nsit_sandwich, nsit_two_time

    assert nsit_two_time(sc, 0, 1).residual < 1e-12
    assert nsit_two_time(sc, 1, 2).residual < 1e-12
    assert nsit_two_time(sc, 0, 2).residual < 1e-12
    assert nsit_sandwich(sc).residual > 0.1


def test_verify_lattice_checks_r2_and_only_a_nonempty_lattice():
    with pytest.raises(ValueError) as expected:
        MZParams(0.5, 1.5, 0.0)
    states = [{"q": 0.5, "c": None}]
    with pytest.raises(ValueError) as raised:
        verify_lattice([0.5], [0.0], states, r2_values=[0.5, 1.5], convention="crossed-p0")
    assert str(raised.value) == str(expected.value)
    # beside an empty axis no setting is built, so none is checked
    report = verify_lattice([], [math.nan], [{"q": 2.0, "c": None}], convention="crossed-p0")
    assert report.n_points == 0
