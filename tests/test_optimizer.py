import dataclasses
import math

import numpy as np
import pytest

from mfg_forecast.carleman import ConvexParams
from mfg_forecast.grid import make_grid
from mfg_forecast import model
from mfg_forecast.model import make_problem_spec
from mfg_forecast.objective import Objective
from mfg_forecast.optimizer import BUDGET, CONVERGED, STALLED, OptimizerConfig, \
    make_start, minimize
import mfg_forecast.optimizer as optimizer
import mfg_forecast.experiments as experiments


@pytest.fixture()
def grid():
    return make_grid(-1, 1, 1, 0.1, 0.1, 0.6)


@pytest.fixture()
def params():
    return ConvexParams(lam=2, c=3, a=1.1, d=1, alpha=1e-5, gamma=0.6, t_max=1)


def test_config_validation():
    for tol in (0.0, 1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="tol"):
            OptimizerConfig(tol=tol)
    with pytest.raises(ValueError, match="max_iters"):
        OptimizerConfig(max_iters=0)


def test_make_start_constant_extension(grid):
    u0 = grid.x_nodes() ** 2
    m0 = np.full(grid.nx, 0.5)
    spec = make_problem_spec(grid, u0, m0, 1.0)
    start = make_start(spec)
    for j in range(grid.nt):
        assert np.array_equal(start.u.values[:, j], u0)
        assert np.array_equal(start.m.values[:, j], m0)


def test_stationary_start_converges_immediately(grid, params):
    # zero data with zero source: the start state is a stationary point
    spec = make_problem_spec(grid, np.zeros(grid.nx), np.zeros(grid.nx), 1.0)
    result = minimize(spec, params, OptimizerConfig())
    assert result.status == CONVERGED
    assert len(result.trace.rows) == 1


def test_gd_monotone_descent_and_feasibility(grid, params):
    # every accepted L-BFGS step lowers J, and the pinned t=0 column keeps
    # the given data exactly
    cfg = experiments.resolve_config("T1_2", {})
    _, spec, _ = experiments._build_problem("T1_2", cfg)
    config = OptimizerConfig(tol=1e-30, max_iters=40)
    result = minimize(spec, params, config)
    totals = [row.total for row in result.trace.rows]
    assert len(totals) == 41  # 40 steps, plus the row of the returned state
    assert all(b < a for a, b in zip(totals, totals[1:]))
    assert np.array_equal(result.state.u.values[:, 0], spec.u0)
    assert np.array_equal(result.state.m.values[:, 0], spec.m0)


def test_lbfgs_converges_on_manufactured_test(params):
    cfg = experiments.resolve_config("T1_1", {})
    _, spec, _ = experiments._build_problem("T1_1", cfg)
    result = minimize(spec, params, OptimizerConfig())
    assert result.status == CONVERGED
    assert result.trace.rows[-1].foo_ratio < 1e-5
    assert np.array_equal(result.state.u.values[:, 0], spec.u0)


def test_minimize_deterministic(params):
    cfg = experiments.resolve_config("T1_2", {})
    _, spec, _ = experiments._build_problem("T1_2", cfg)
    config = OptimizerConfig(max_iters=60, tol=1e-30)
    r1 = minimize(spec, params, config)
    r2 = minimize(spec, params, config)
    assert r1.trace.rows == r2.trace.rows
    assert np.array_equal(r1.state.u.values, r2.state.u.values)
    totals = [row.total for row in r1.trace.rows]
    assert all(b < a for a, b in zip(totals, totals[1:]))  # monotone descent


def test_inconsistent_gradient_surfaces_as_stall(grid, params, monkeypatch):
    spec = make_problem_spec(grid, grid.x_nodes() ** 2 - 1.0,
                             np.full(grid.nx, 0.5), 1.0)

    original = Objective.value_and_gradient_arrays

    def wrong_gradient(self, ev):
        bd, gu, gm = original(self, ev)
        return bd, -gu, -gm  # ascent direction disguised as the gradient

    monkeypatch.setattr(Objective, "value_and_gradient_arrays", wrong_gradient)
    result = minimize(spec, params, OptimizerConfig(max_iters=5))
    assert result.status == STALLED
    assert "backtrack" in result.message


def test_trace_csv_layout(tmp_path, params):
    cfg = experiments.resolve_config("T1_2", {})
    _, spec, _ = experiments._build_problem("T1_2", cfg)
    result = minimize(spec, params, OptimizerConfig(max_iters=5, tol=1e-30))
    path = tmp_path / "trace.csv"
    result.trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,j1,j2,j3,total,grad_norm,foo_ratio,step,evaluations"
    assert len(lines) == 1 + len(result.trace.rows)
    evaluations = [int(line.split(",")[-1]) for line in lines[1:]]
    assert evaluations[0] == 0  # the start state took no step
    assert all(e >= 1 for e in evaluations[1:])
    summary = result.trace.summary_dict()
    assert summary["iterations"] == len(result.trace.rows)


def _rho_checked(two_loop, ascent_at=None):
    """Wrap the two-loop recursion to assert that each stored 1/(y^T s)
    stays with its pair; call number ``ascent_at`` returns an ascent
    direction, which makes the optimizer clear its history."""
    calls = []

    def checked(g, s_hist, y_hist, rhos, h0):
        assert rhos == [1.0 / float(y @ s) for s, y in zip(s_hist, y_hist)]
        calls.append(len(s_hist))
        p = two_loop(g, s_hist, y_hist, rhos, h0)
        return -p if len(calls) == ascent_at else p

    checked.calls = calls
    return checked


def test_lbfgs_run_bit_identical_without_evaluation_reuse(params, monkeypatch):
    # The gradient at each accepted trial and the line quartic take the
    # evaluations the iteration already holds; handing them fresh
    # evaluations at copies of the same states must change nothing.
    cfg = experiments.resolve_config("T1_2", {})
    _, spec, _ = experiments._build_problem("T1_2", cfg)
    config = OptimizerConfig()
    with monkeypatch.context() as mp:
        mp.setattr(optimizer, "_two_loop_direction",
                   _rho_checked(optimizer._two_loop_direction))
        reused = minimize(spec, params, config)
    gradient, quartic = Objective.value_and_gradient_arrays, Objective.line_quartic

    def fresh(ev):
        return Objective(spec, params).value_arrays(ev.u.copy(), ev.m.copy())

    monkeypatch.setattr(Objective, "value_and_gradient_arrays",
                        lambda self, ev: gradient(self, fresh(ev)))
    monkeypatch.setattr(Objective, "line_quartic", lambda self, at_z, at_unit, pu, pm:
                        quartic(self, fresh(at_z), fresh(at_unit), pu, pm))
    recomputed = minimize(spec, params, config)
    assert len(reused.trace.rows) == 338
    assert reused.status == recomputed.status == CONVERGED
    assert reused.trace.rows == recomputed.trace.rows
    assert np.array_equal(reused.state.u.values, recomputed.state.u.values)
    assert np.array_equal(reused.state.m.values, recomputed.state.m.values)


def test_lbfgs_run_evaluates_each_state_once(params, monkeypatch):
    # one residual evaluation per direct trial plus one at the start; the
    # gradients make none, and each line quartic one, at z - p
    cfg = experiments.resolve_config("T2_1", {})
    _, spec, _ = experiments._build_problem("T2_1", cfg)
    calls = {"value": 0, "residuals": 0, "quartic": 0}
    value_arrays, residuals = Objective.value_arrays, model.residuals
    line_quartic = Objective.line_quartic

    def counted(name, function):
        def wrapped(*args):
            calls[name] += 1
            return function(*args)
        return wrapped

    monkeypatch.setattr(Objective, "value_arrays", counted("value", value_arrays))
    monkeypatch.setattr(model, "residuals", counted("residuals", residuals))
    monkeypatch.setattr(Objective, "line_quartic", counted("quartic", line_quartic))
    result = minimize(spec, params, OptimizerConfig(max_iters=400))
    assert calls["value"] == sum(r.evaluations for r in result.trace.rows) + 1
    assert calls["quartic"] > 0
    assert calls["residuals"] == calls["value"] + calls["quartic"]


def test_lbfgs_run_unchanged_by_stacked_values(params, monkeypatch):
    # A stacked evaluation after every value call, as the finite-difference
    # oracle makes between its value and gradient calls, leaves the run as
    # it is.
    cfg = experiments.resolve_config("T1_2", {})
    _, spec, _ = experiments._build_problem("T1_2", cfg)
    config = OptimizerConfig()
    plain = minimize(spec, params, config)
    value_arrays = Objective.value_arrays

    def with_stack(self, u, m):
        breakdown = value_arrays(self, u, m)
        stacked = value_arrays(self, np.stack([u, 0.5 * u]), np.stack([m, 0.5 * m]))
        assert stacked.total[0] == pytest.approx(breakdown.total, rel=1e-13)
        return breakdown

    monkeypatch.setattr(Objective, "value_arrays", with_stack)
    interleaved = minimize(spec, params, config)
    assert interleaved.status == plain.status == CONVERGED
    assert interleaved.trace.rows == plain.trace.rows
    assert np.array_equal(interleaved.state.u.values, plain.state.u.values)
    assert np.array_equal(interleaved.state.m.values, plain.state.m.values)


def test_lbfgs_clears_rho_with_its_history(params, monkeypatch):
    cfg = experiments.resolve_config("T1_2", {})
    _, spec, _ = experiments._build_problem("T1_2", cfg)
    checked = _rho_checked(optimizer._two_loop_direction, ascent_at=20)
    monkeypatch.setattr(optimizer, "_two_loop_direction", checked)
    monkeypatch.setattr(optimizer, "LBFGS_MEMORY", 5)
    minimize(spec, params, OptimizerConfig(max_iters=40))
    assert len(checked.calls) > 21
    assert checked.calls[19] == 5  # full, evicting history before the clear
    assert checked.calls[20] == 1  # cleared, then one new pair stored


def _two_loop_recomputing_rho(g, s_hist, y_hist, h0):
    """The two-loop recursion with every rho rebuilt from its (s, y) pair."""
    q = -g.copy()
    if not s_hist:
        return h0 * q
    alphas = []
    rhos = [1.0 / float(y @ s) for s, y in zip(s_hist, y_hist)]
    for i in range(len(s_hist) - 1, -1, -1):
        a = rhos[i] * float(s_hist[i] @ q)
        alphas.append(a)
        q -= a * y_hist[i]
    alphas.reverse()
    q = h0 * q
    for i in range(len(s_hist)):
        b = rhos[i] * float(y_hist[i] @ q)
        q += (alphas[i] - b) * s_hist[i]
    return q


def test_two_loop_with_stored_rho_matches_recomputed_rho():
    rng = np.random.default_rng(17)
    n, memory = 40, 4
    h0 = rng.uniform(0.1, 10.0, n)
    s_hist, y_hist, rhos = [], [], []
    seen = set()
    for step in range(14):
        if step == 9:  # a non-descent direction clears the whole history
            s_hist.clear()
            y_hist.clear()
            rhos.clear()
        s = rng.standard_normal(n)
        y = s * rng.uniform(0.5, 2.0, n) + 0.1 * rng.standard_normal(n)
        g = rng.standard_normal(n)
        expected = _two_loop_recomputing_rho(g, s_hist, y_hist, h0)
        got = optimizer._two_loop_direction(g, s_hist, y_hist, rhos, h0)
        assert np.array_equal(got, expected)
        seen.add(len(s_hist))
        s_hist.append(s)
        y_hist.append(y)
        rhos.append(1.0 / float(y @ s))
        if len(s_hist) > memory:
            s_hist.pop(0)
            y_hist.pop(0)
            rhos.pop(0)
    # empty, partly filled and full (evicting) histories were all compared
    assert seen == set(range(memory + 1))


def test_budget_exit_row_describes_returned_state(params):
    # every exit has one row per state, the returned one included
    cfg = experiments.resolve_config("T1_2", {})
    _, spec, _ = experiments._build_problem("T1_2", cfg)
    result = minimize(spec, params, OptimizerConfig(tol=1e-30, max_iters=30))
    assert result.status == BUDGET
    assert len(result.trace.rows) == 31
    last = result.trace.rows[-1]
    assert last.iteration == 30
    returned = Objective(spec, params).value_arrays(result.state.u.values,
                                                    result.state.m.values)
    assert last.total == returned.total
    assert (last.j1, last.j2, last.j3) == (returned.j1, returned.j2, returned.j3)


def _counted_run(spec, params, config, monkeypatch):
    """minimize with its value_arrays calls counted."""
    calls = []
    value_arrays = Objective.value_arrays

    def counted(self, u, m):
        calls.append(1)
        return value_arrays(self, u, m)

    with monkeypatch.context() as mp:
        mp.setattr(Objective, "value_arrays", counted)
        result = minimize(spec, params, config)
    return result, len(calls)


def test_line_quartic_skips_trials_without_moving_the_run(params, monkeypatch):
    # T2_1 backtracks within its first 400 iterations.  Skipping the trials the
    # quartic rejects must leave every step, row and state as they are when
    # each trial is evaluated directly, and only save evaluations.
    cfg = experiments.resolve_config("T2_1", {})
    _, spec, _ = experiments._build_problem("T2_1", cfg)
    config = OptimizerConfig(max_iters=400)
    default, default_calls = _counted_run(spec, params, config, monkeypatch)
    monkeypatch.setattr(optimizer, "_quartic_rejects", lambda *args: False)
    direct, direct_calls = _counted_run(spec, params, config, monkeypatch)

    def without_evaluations(rows):
        return [dataclasses.replace(r, evaluations=0) for r in rows]

    assert len(default.trace.rows) == 401
    assert without_evaluations(default.trace.rows) == \
        without_evaluations(direct.trace.rows)
    assert np.array_equal(default.state.u.values, direct.state.u.values)
    assert np.array_equal(default.state.m.values, direct.state.m.values)
    # the evaluations column counts every direct evaluation; the start
    # state's is the one more
    assert sum(r.evaluations for r in default.trace.rows) + 1 == default_calls
    assert sum(r.evaluations for r in direct.trace.rows) + 1 == direct_calls
    assert max(r.evaluations for r in direct.trace.rows) >= 3
    assert default_calls < direct_calls
