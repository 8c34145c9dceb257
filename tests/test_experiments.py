import json
import math
import os

import numpy as np
import pytest

from mfg_forecast.carleman import min_c
from mfg_forecast.grid import Field
from mfg_forecast.objective import StatePair
from mfg_forecast.experiments import CASES, KernelComparison, NoiseSpec, \
    RunReport, add_noise, compact_bump, recovery_errors, relative_cost_curve, \
    resolve_config, run_test, smooth_transition
import mfg_forecast.experiments as experiments

from h2_reference import h2_norm_discrete


def test_noise_level_zero_returns_data_exactly():
    data = np.linspace(-1, 1, 21)
    out = add_noise(data, NoiseSpec(0.0, 5))
    assert np.array_equal(out, data)


def test_noise_bounded_by_level_times_norm():
    data = np.zeros(21)
    data[0] = 1.0  # unit vector
    out = add_noise(data, NoiseSpec(0.03, 5))
    assert np.abs(out - data).max() <= 0.03


def test_noise_deterministic_per_seed():
    data = np.linspace(0, 1, 11)
    a = add_noise(data, NoiseSpec(0.03, 7))
    b = add_noise(data, NoiseSpec(0.03, 7))
    c = add_noise(data, NoiseSpec(0.03, 8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_noise_level_validation():
    for level in (-0.1, math.nan):
        with pytest.raises(ValueError, match="noise level"):
            NoiseSpec(level, 0)


def test_smooth_transition_endpoints_and_monotone():
    assert smooth_transition(-1.0) == pytest.approx(-0.5, abs=1e-15)
    assert smooth_transition(1.0) == pytest.approx(0.5, abs=1e-15)
    assert smooth_transition(0.0) == pytest.approx(0.0, abs=1e-15)
    xs = np.linspace(-1, 1, 41)
    vals = [smooth_transition(x) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_compact_bump_support_and_mass():
    assert compact_bump(0.4) == 0.0
    assert compact_bump(-0.4) == 0.0
    assert compact_bump(0.0) == pytest.approx(5.57 * math.exp(-1.0), rel=1e-12)
    assert compact_bump(0.9, center=0.5) == 0.0
    xs = np.linspace(-1, 1, 2001)
    mass = np.trapezoid([compact_bump(x) for x in xs], xs)
    assert mass == pytest.approx(1.0, abs=0.02)


def test_decentered_bump_vanishes_outside_window():
    cfg = resolve_config("T3_1", {"noise": 0.0})
    _, spec, _ = experiments._build_problem("T3_1", cfg)
    xs = spec.grid.x_nodes()
    outside = np.abs(xs - 0.5) >= 0.4
    assert np.all(spec.m0[outside] == 0.0)
    assert spec.m0[~outside].max() > 1.0


def test_resolve_config_defaults_and_overrides():
    cfg = resolve_config("T1_1", {})
    assert cfg["lam"] == 2.0 and cfg["c"] == 3.0 and cfg["alpha"] == 1e-5
    assert cfg["noise"] == 0.03 and cfg["seed"] == CASES["T1_1"].seed
    cfg2 = resolve_config("T1_1", {"noise": 0.0, "lam": 3.0})
    assert cfg2["noise"] == 0.0 and cfg2["lam"] == 3.0
    with pytest.raises(ValueError, match="unknown"):
        resolve_config("T1_1", {"lamda": 3.0})
    with pytest.raises(ValueError, match="test id"):
        resolve_config("T9_9", {})


def test_extended_horizon_raises_shift_constant():
    cfg = resolve_config("T1_1_extended", {})
    assert cfg["t_max"] == 2.0
    assert cfg["c"] == pytest.approx(min_c(2.0))
    # an explicit override is honored, and rejected here if invalid
    cfg2 = resolve_config("T1_1_extended", {"c": 4.0})
    assert cfg2["c"] == 4.0
    with pytest.raises(ValueError, match="floor"):
        resolve_config("T1_1_extended", {"c": 3.0})


def test_relative_cost_ignores_weight_parameters(t11_case):
    # same state, same spec: the curve involves neither lam nor alpha,
    # so it must be bitwise identical whatever they are
    state = StatePair(t11_case.u_true, t11_case.m_true)
    t1, f1 = relative_cost_curve(state, t11_case.spec)
    t2, f2 = relative_cost_curve(state, t11_case.spec)
    assert np.array_equal(f1, f2)
    assert len(f1) == t11_case.spec.grid.nt
    assert np.all(f1 >= 0)


def test_relative_cost_of_truth_is_recorded_scale(t11_case):
    state = StatePair(t11_case.u_true, t11_case.m_true)
    _, f = relative_cost_curve(state, t11_case.spec)
    # dominated by the flux-divergence stencil mismatch at the two
    # boundary columns; stays order-one at the working resolution
    assert f.max() < 2.0


def test_extended_truth_does_not_blow_up():
    # Only the recovered minimizer degrades past t=1; the manufactured
    # ground truth satisfies the system at its recorded scale throughout.
    from mfg_forecast.grid import make_grid
    from mfg_forecast.model import build_manufactured_case
    g = make_grid(-1, 1, 2, 0.1, 0.1, 0.6)
    case = build_manufactured_case(experiments._u_t11, experiments._m0_t11,
                                   1.0, g)
    state = StatePair(case.u_true, case.m_true)
    t, f = relative_cost_curve(state, case.spec)
    assert f[t > 1.0].max() < 3.0
    assert f.max() < 3.0


def test_relative_cost_rejects_zero_data(t11_case):
    grid = t11_case.spec.grid
    from mfg_forecast.model import make_problem_spec
    spec0 = make_problem_spec(grid, np.zeros(grid.nx), np.zeros(grid.nx), 1.0)
    zero = StatePair(Field(grid, np.zeros((grid.nx, grid.nt))),
                     Field(grid, np.zeros((grid.nx, grid.nt))))
    with pytest.raises(ValueError, match="undefined"):
        relative_cost_curve(zero, spec0)


def test_recovery_errors_zero_for_truth(t11_case):
    pred = StatePair(t11_case.u_true, t11_case.m_true)
    err = recovery_errors(pred, t11_case)
    assert err.u_h10 == 0.0 and err.m_h10 == 0.0
    assert np.all(err.u_rel_l2 == 0.0) and np.all(err.m_rel_l2 == 0.0)


def test_recovery_errors_constant_offset_closed_form(t11_case):
    grid = t11_case.spec.grid
    eps = 0.01
    pred = StatePair(Field(grid, t11_case.u_true.values + eps),
                     t11_case.m_true)
    err = recovery_errors(pred, t11_case)
    gamma_t = grid.dt * (grid.n_t_gamma() - 1)
    assert err.u_h10 == pytest.approx(eps * math.sqrt(2 * gamma_t), rel=1e-10)
    assert err.m_h10 == 0.0


def test_run_test_returns_report_with_truth(tmp_path):
    rep = run_test("T1_2", tol=1e-2, max_iters=500)
    assert isinstance(rep, RunReport)
    assert rep.truth is not None
    assert rep.errors is not None
    assert len(rep.rel_cost) == 11
    rep.export(tmp_path)
    expected = {"config.json", "summary.json", "u_pred.csv", "m_pred.csv",
                "rel_cost.csv", "trace.csv", "u_true.csv", "m_true.csv",
                "source_f.csv", "error_curves.csv"}
    assert expected <= set(os.listdir(tmp_path))
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["test_id"] == "T1_2"
    assert "errors" in summary
    # read off the returned state's j3; the term-by-term norm agrees
    expected = math.hypot(h2_norm_discrete(rep.predicted.u),
                          h2_norm_discrete(rep.predicted.m))
    assert summary["state_h2_norm"] == pytest.approx(expected, rel=1e-12)


def test_run_test_realistic_has_no_truth(tmp_path):
    rep = run_test("T2_2", tol=1e-2, max_iters=500)
    assert rep.truth is None and rep.errors is None
    rep.export(tmp_path)
    files = set(os.listdir(tmp_path))
    assert "u_true.csv" not in files and "error_curves.csv" not in files


def test_kernel_compare_runs_both_signs(tmp_path):
    cmp = run_test("kernel_compare", tol=1e-2, max_iters=500)
    assert isinstance(cmp, KernelComparison)
    assert cmp.plus.config["kernel"] == 1.0
    assert cmp.minus.config["kernel"] == -1.0
    # identical noisy data on both sides: same seed, same clean data
    assert np.array_equal(
        cmp.plus.predicted.u.values[:, 0], cmp.minus.predicted.u.values[:, 0])
    cmp.export(tmp_path)
    assert (tmp_path / "kernel_plus" / "u_pred.csv").exists()
    assert (tmp_path / "comparison.csv").exists()


def test_run_reports_are_reproducible():
    a = run_test("T1_2", tol=1e-2, max_iters=500)
    b = run_test("T1_2", tol=1e-2, max_iters=500)
    assert np.array_equal(a.predicted.u.values, b.predicted.u.values)
    assert np.array_equal(a.rel_cost, b.rel_cost)
    assert a.summary_dict() == b.summary_dict()


def test_pinned_slices_equal_noisy_data_mass(t11_case):
    rep = run_test("T1_1", tol=1e-2, max_iters=500)
    grid = rep.predicted.grid
    # the optimizer never touches the pinned plane: its mass is the data mass
    m0 = rep.predicted.m.values[:, 0]
    cfg = rep.config
    clean = t11_case.spec.m0
    noisy = add_noise(clean, NoiseSpec(cfg["noise"], cfg["seed"] + 1))
    assert np.array_equal(m0, noisy)
