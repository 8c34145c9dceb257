import dataclasses
import itertools
import math
from collections import deque

import numpy as np
import pytest

from mfg_forecast.carleman import ConvexParams
from mfg_forecast.grid import make_grid
from mfg_forecast import model
from mfg_forecast.model import make_problem_spec
from mfg_forecast.objective import Objective, _reach
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
        assert np.array_equal(start[0, :, j], u0)
        assert np.array_equal(start[1, :, j], m0)


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
    assert np.array_equal(result.state[0, :, 0], spec.u0)
    assert np.array_equal(result.state[1, :, 0], spec.m0)


def test_lbfgs_converges_on_manufactured_test(params):
    cfg = experiments.resolve_config("T1_1", {})
    _, spec, _ = experiments._build_problem("T1_1", cfg)
    result = minimize(spec, params, OptimizerConfig())
    assert result.status == CONVERGED
    assert result.trace.rows[-1].foo_ratio < 1e-5
    assert np.array_equal(result.state[0, :, 0], spec.u0)


def test_minimize_deterministic(params):
    cfg = experiments.resolve_config("T1_2", {})
    _, spec, _ = experiments._build_problem("T1_2", cfg)
    config = OptimizerConfig(max_iters=60, tol=1e-30)
    r1 = minimize(spec, params, config)
    r2 = minimize(spec, params, config)
    assert r1.trace.rows == r2.trace.rows
    assert np.array_equal(r1.state, r2.state)
    totals = [row.total for row in r1.trace.rows]
    assert all(b < a for a, b in zip(totals, totals[1:]))  # monotone descent


def test_inconsistent_gradient_surfaces_as_stall(grid, params, monkeypatch):
    spec = make_problem_spec(grid, grid.x_nodes() ** 2 - 1.0,
                             np.full(grid.nx, 0.5), 1.0)

    original = Objective.value_and_gradient_arrays

    def wrong_gradient(self, ev):
        return -original(self, ev)  # ascent direction disguised as the gradient

    monkeypatch.setattr(Objective, "value_and_gradient_arrays", wrong_gradient)
    result = minimize(spec, params, OptimizerConfig(max_iters=5))
    assert result.status == STALLED
    assert "backtrack" in result.message


def test_line_search_refuses_a_step_that_does_not_lower_j(grid, params,
                                                         monkeypatch):
    # With totals rounded to 8 digits, a short enough ascent step ties J(z)
    # exactly, and once its Armijo threshold is below half an ulp of J the
    # threshold test alone passes the tie, a step that makes no progress.
    spec = make_problem_spec(grid, grid.x_nodes() ** 2 - 1.0,
                             np.full(grid.nx, 0.5), 1.0)
    value, gradient = Objective.value_arrays, Objective.value_and_gradient_arrays

    def rounded_value(self, z):
        ev = value(self, z)
        return dataclasses.replace(ev, total=float(f"{ev.total:.8g}"))

    def wrong_gradient(self, ev):
        return -gradient(self, ev)

    monkeypatch.setattr(Objective, "value_arrays", rounded_value)
    monkeypatch.setattr(Objective, "value_and_gradient_arrays", wrong_gradient)
    result = minimize(spec, params, OptimizerConfig(max_iters=5))
    assert result.status == STALLED
    assert len(result.trace.rows) == 1  # no step was accepted


def test_trace_csv_layout(tmp_path):
    # the run's export writes the trace through grid.write_table_csv
    report = experiments.run_test("T1_2", max_iters=5, tol=1e-30)
    report.export(tmp_path)
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "iter,j1,j2,j3,total,grad_norm,foo_ratio,step,evaluations"
    assert len(lines) == 1 + len(report.trace.rows) == 1 + 6
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(6))
    evaluations = [int(line.split(",")[-1]) for line in lines[1:]]
    assert evaluations[0] == 0  # the start state took no step
    assert all(e >= 1 for e in evaluations[1:])
    assert [float(v) for v in lines[-1].split(",")[1:-1]] == \
        list(report.trace.rows[-1][1:-1])  # 17 digits read back exactly
    summary = report.trace.summary_dict()
    assert summary["iterations"] == len(report.trace.rows)
    assert summary["preconditioner_builds"] == 1  # steps stay long on T1_2


def _rho_checked(two_loop, ascent_at=None):
    """Wrap the two-loop recursion to assert that each stored 1/(y^T s)
    stays with its pair; call number ``ascent_at`` returns an ascent
    direction, which makes the optimizer clear its history."""
    calls = []

    def checked(g, pairs, h0):
        assert all(rho == 1.0 / float(np.vdot(y, s)) for s, y, rho in pairs)
        calls.append(len(pairs))
        p = two_loop(g, pairs, h0)
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
        return Objective(spec, params).value_arrays(ev.z.copy())

    monkeypatch.setattr(Objective, "value_and_gradient_arrays",
                        lambda self, ev: gradient(self, fresh(ev)))
    monkeypatch.setattr(Objective, "line_quartic", lambda self, at_z, at_unit, p:
                        quartic(self, fresh(at_z), fresh(at_unit), p))
    recomputed = minimize(spec, params, config)
    # T1_2's path under the time-slice Gauss-Newton preconditioner and a
    # 5-pair history: 23 steps (337 under the former diagonal and 10 pairs)
    assert len(reused.trace.rows) == 24
    assert reused.status == recomputed.status == CONVERGED
    assert reused.trace.rows == recomputed.trace.rows
    assert np.array_equal(reused.state, recomputed.state)


def test_lbfgs_run_evaluates_each_state_once(params, monkeypatch):
    # one residual evaluation per direct trial plus one at the start; the
    # gradients make none, each line quartic one, at z - p, and each build
    # of the preconditioner one for its coloured Jacobian: 12 colour groups
    # of two states, all in one stacked call at 21x11
    _reach()  # probed once per process, before the calls are counted
    cfg = experiments.resolve_config("T2_1", {})
    _, spec, _ = experiments._build_problem("T2_1", cfg)
    calls = {"value": 0, "residuals": 0, "quartic": 0, "builds": 0}
    value_arrays, residuals = Objective.value_arrays, model.residuals
    line_quartic, hessian_diag = Objective.line_quartic, Objective.hessian_diag

    def counted(name, function):
        def wrapped(*args):
            calls[name] += 1
            return function(*args)
        return wrapped

    monkeypatch.setattr(Objective, "value_arrays", counted("value", value_arrays))
    monkeypatch.setattr(model, "residuals", counted("residuals", residuals))
    monkeypatch.setattr(Objective, "line_quartic", counted("quartic", line_quartic))
    monkeypatch.setattr(Objective, "hessian_diag", counted("builds", hessian_diag))
    result = minimize(spec, params, OptimizerConfig(max_iters=400))
    assert calls["value"] == sum(r.evaluations for r in result.trace.rows) + 1
    assert calls["quartic"] > 0
    assert calls["builds"] == result.trace.preconditioner_builds > 1
    assert calls["residuals"] == \
        calls["value"] + calls["quartic"] + calls["builds"]


def test_lbfgs_run_unchanged_by_stacked_values(params, monkeypatch):
    # A stacked evaluation after every value call, as the finite-difference
    # oracle makes between its value and gradient calls, leaves the run as
    # it is.
    cfg = experiments.resolve_config("T1_2", {})
    _, spec, _ = experiments._build_problem("T1_2", cfg)
    config = OptimizerConfig()
    plain = minimize(spec, params, config)
    value_arrays = Objective.value_arrays

    def with_stack(self, z):
        breakdown = value_arrays(self, z)
        stacked = value_arrays(self, np.stack([z, 0.5 * z], axis=1))
        assert stacked.total[0] == pytest.approx(breakdown.total, rel=1e-13)
        return breakdown

    monkeypatch.setattr(Objective, "value_arrays", with_stack)
    interleaved = minimize(spec, params, config)
    assert interleaved.status == plain.status == CONVERGED
    assert interleaved.trace.rows == plain.trace.rows
    assert np.array_equal(interleaved.state, plain.state)


def test_lbfgs_clears_rho_with_its_history(params, monkeypatch):
    # T3_1 runs past 40 steps (T1_2 converges in 23)
    cfg = experiments.resolve_config("T3_1", {})
    _, spec, _ = experiments._build_problem("T3_1", cfg)
    checked = _rho_checked(optimizer._two_loop_direction, ascent_at=20)
    monkeypatch.setattr(optimizer, "_two_loop_direction", checked)
    monkeypatch.setattr(optimizer, "LBFGS_MEMORY", 5)
    minimize(spec, params, OptimizerConfig(max_iters=40))
    assert len(checked.calls) > 21
    assert checked.calls[19] == 5  # full, evicting history before the clear
    assert checked.calls[20] == 1  # cleared, then one new pair stored


def _two_loop_recomputing_rho(g, s_hist, y_hist, h0):
    """The two-loop recursion over parallel lists, with every rho rebuilt
    from its (s, y) pair."""
    q = -g.copy()
    if not s_hist:
        return h0(q)
    alphas = []
    rhos = [1.0 / float(y @ s) for s, y in zip(s_hist, y_hist)]
    for i in range(len(s_hist) - 1, -1, -1):
        a = rhos[i] * float(s_hist[i] @ q)
        alphas.append(a)
        q -= a * y_hist[i]
    alphas.reverse()
    q = h0(q)
    for i in range(len(s_hist)):
        b = rhos[i] * float(y_hist[i] @ q)
        q += (alphas[i] - b) * s_hist[i]
    return q


def test_two_loop_over_the_bounded_history_matches_the_reference():
    # The optimizer's history is a deque of (s, y, 1/(y^T s)) triples bounded
    # at LBFGS_MEMORY; the reference walks the newest LBFGS_MEMORY pairs
    # stored since the last clear, from parallel lists, rebuilding each rho.
    rng = np.random.default_rng(17)
    n, memory = 40, optimizer.LBFGS_MEMORY
    scale = rng.uniform(0.1, 10.0, n)

    def h0(v):  # a diagonal initial inverse Hessian
        return scale * v

    pairs = deque(maxlen=memory)
    s_all, y_all = [], []  # every pair since the last clear, oldest first
    seen = set()
    for step in range(2 * memory + 8):
        if step == memory + 5:  # a non-descent direction clears the history
            pairs.clear()
            s_all.clear()
            y_all.clear()
        s = rng.standard_normal(n)
        y = s * rng.uniform(0.5, 2.0, n) + 0.1 * rng.standard_normal(n)
        g = rng.standard_normal(n)
        expected = _two_loop_recomputing_rho(g, s_all[-memory:], y_all[-memory:],
                                             h0)
        got = optimizer._two_loop_direction(g, pairs, h0)
        assert np.array_equal(got, expected)
        seen.add(len(pairs))
        pairs.append((s, y, 1.0 / float(y @ s)))
        s_all.append(s)
        y_all.append(y)
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
    returned = Objective(spec, params).value_arrays(result.state)
    assert last.total == returned.total
    assert (last.j1, last.j2, last.j3) == (returned.j1, returned.j2, returned.j3)


def _counted_run(spec, params, config, monkeypatch):
    """minimize with its value_arrays calls counted."""
    calls = []
    value_arrays = Objective.value_arrays

    def counted(self, z):
        calls.append(1)
        return value_arrays(self, z)

    with monkeypatch.context() as mp:
        mp.setattr(Objective, "value_arrays", counted)
        result = minimize(spec, params, config)
    return result, len(calls)


def test_line_quartic_skips_trials_without_moving_the_run(params, monkeypatch):
    # T2_1 backtracks within its first 150 iterations, and needs 183 to
    # converge.  Skipping the trials the quartic rejects must leave every
    # step, row and state as they are when each trial is evaluated directly,
    # and only save evaluations.
    cfg = experiments.resolve_config("T2_1", {})
    _, spec, _ = experiments._build_problem("T2_1", cfg)
    config = OptimizerConfig(max_iters=150)
    default, default_calls = _counted_run(spec, params, config, monkeypatch)
    monkeypatch.setattr(optimizer, "_quartic_rejects", lambda *args: False)
    direct, direct_calls = _counted_run(spec, params, config, monkeypatch)

    def without_evaluations(rows):
        return [r._replace(evaluations=0) for r in rows]

    assert default.status == direct.status == BUDGET
    assert len(default.trace.rows) == 151
    assert without_evaluations(default.trace.rows) == \
        without_evaluations(direct.trace.rows)
    assert np.array_equal(default.state, direct.state)
    # the evaluations column counts every direct evaluation; the start
    # state's is the one more
    assert sum(r.evaluations for r in default.trace.rows) + 1 == default_calls
    assert sum(r.evaluations for r in direct.trace.rows) + 1 == direct_calls
    assert max(r.evaluations for r in direct.trace.rows) >= 3
    assert default_calls < direct_calls


def _run_with_builds(spec, params, config, monkeypatch):
    """minimize, with the trace rows at which it built the preconditioner:
    each build's state is found by its J, which falls at every step."""
    totals = []
    hessian_diag = Objective.hessian_diag

    def recorded(self, z):
        totals.append(self.value_arrays(z).total)
        return hessian_diag(self, z)

    with monkeypatch.context() as mp:
        mp.setattr(Objective, "hessian_diag", recorded)
        result = minimize(spec, params, config)
    rows = [row.total for row in result.trace.rows]
    assert len(totals) == result.trace.preconditioner_builds
    return result, [rows.index(total) for total in totals]


def _short_steps(rows):
    """Per trace row, whether the step that reached it was shorter than
    SHORT_STEP; row 0 took no step."""
    return [i > 0 and row.step < optimizer.SHORT_STEP for i, row in enumerate(rows)]


def test_preconditioner_built_once_when_steps_stay_long(params, monkeypatch):
    # T1_2 takes no run of SHORT_RUN short steps, so it builds H0 once, at
    # the start, and its path is that of H0 from the start state alone
    cfg = experiments.resolve_config("T1_2", {})
    _, spec, _ = experiments._build_problem("T1_2", cfg)
    result, builds = _run_with_builds(spec, params, OptimizerConfig(), monkeypatch)
    assert builds == [0]
    assert result.status == CONVERGED
    assert len(result.trace.rows) == 24
    monkeypatch.setattr(optimizer, "SHORT_RUN", 10**9)  # never rebuilds
    fixed = minimize(spec, params, OptimizerConfig())
    assert result.trace.rows == fixed.trace.rows
    assert np.array_equal(result.state, fixed.state)


def test_preconditioner_rebuilt_right_after_each_short_run(params, monkeypatch):
    # on T2_1 every rebuild, and only a rebuild, follows exactly SHORT_RUN
    # accepted steps in a row shorter than SHORT_STEP, at the state they
    # reached; the returned state's row takes no direction, so no rebuild.
    # The curvature pairs outlive each rebuild.
    cfg = experiments.resolve_config("T2_1", {})
    _, spec, _ = experiments._build_problem("T2_1", cfg)
    checked = _rho_checked(optimizer._two_loop_direction)
    monkeypatch.setattr(optimizer, "_two_loop_direction", checked)
    result, builds = _run_with_builds(spec, params, OptimizerConfig(), monkeypatch)
    assert result.status == CONVERGED
    short, n = _short_steps(result.trace.rows), optimizer.SHORT_RUN
    expected = [r for r in range(n, len(short) - 1)
                if all(short[r - n + 1:r + 1]) and not short[r - n]]
    assert builds == [0] + expected
    assert len(builds) > 3
    # one direction per step: the history it walked right after each rebuild
    assert [checked.calls[r] for r in builds[1:]] == \
        [optimizer.LBFGS_MEMORY] * (len(builds) - 1)


def test_long_stall_rebuilds_once_per_short_run(monkeypatch):
    # T1_1_extended's steps stay short for thousands of iterations: the
    # rebuild fires once per maximal run of short steps, not once per step
    cfg = experiments.resolve_config("T1_1_extended", {})
    _, spec, _ = experiments._build_problem("T1_1_extended", cfg)
    result, builds = _run_with_builds(spec, experiments.convex_params(cfg),
                                      OptimizerConfig(max_iters=3000), monkeypatch)
    assert result.status == BUDGET
    runs = [len(list(run)) for short, run
            in itertools.groupby(_short_steps(result.trace.rows)) if short]
    assert max(runs) > 100 * optimizer.SHORT_RUN
    assert 1 < len(builds) <= 1 + sum(n >= optimizer.SHORT_RUN for n in runs)
