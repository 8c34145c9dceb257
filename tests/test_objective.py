import numpy as np
import pytest

from mfg_forecast import calculus, model, objective
from mfg_forecast.carleman import ConvexParams, sample_neumann_field
from mfg_forecast.grid import Field, constant_field, make_grid
from mfg_forecast.model import make_problem_spec
from mfg_forecast.objective import Objective, StatePair, convexity_probe, \
    gradient_fd_check
from mfg_forecast.optimizer import OptimizerConfig, make_start, minimize
import mfg_forecast.optimizer as optimizer

from h2_reference import h2_norm_discrete


@pytest.fixture()
def grid():
    return make_grid(-1, 1, 1, 0.1, 0.1, 0.6)


@pytest.fixture()
def params():
    return ConvexParams(lam=2, c=3, a=1.1, d=1, alpha=1e-5, gamma=0.6, t_max=1)


@pytest.fixture()
def zero_spec(grid):
    return make_problem_spec(grid, np.zeros(grid.nx), np.zeros(grid.nx), 1.0)


@pytest.fixture()
def data_spec(grid):
    """Nonzero initial data, so the start state is not stationary."""
    return make_problem_spec(grid, grid.x_nodes() ** 2 - 1.0,
                             np.full(grid.nx, 0.5), 1.0)


def _random_state(grid, rng, amplitude=1.0):
    u = Field(grid, sample_neumann_field(grid, rng, amplitude=amplitude))
    m = Field(grid, sample_neumann_field(grid, rng, amplitude=amplitude))
    return StatePair(u, m)


def _value(state, params, spec):
    return Objective(spec, params).value_arrays(state.u.values, state.m.values)


def _gradient(state, params, spec):
    obj = Objective(spec, params)
    _, gu, gm = obj.value_and_gradient_arrays(
        obj.value_arrays(state.u.values, state.m.values))
    return gu, gm


def test_zero_state_zero_objective(grid, params, zero_spec):
    state = StatePair(constant_field(grid, 0.0), constant_field(grid, 0.0))
    bd = _value(state, params, zero_spec)
    assert bd.j1 == bd.j2 == bd.j3 == bd.total == 0.0


def test_breakdown_parts_nonnegative_and_sum(grid, params, zero_spec):
    rng = np.random.default_rng(0)
    bd = _value(_random_state(grid, rng), params, zero_spec)
    assert bd.j1 >= 0 and bd.j2 >= 0 and bd.j3 >= 0
    assert bd.total == bd.j1 + bd.j2 + bd.j3


def test_doubling_d_doubles_only_j2(grid, zero_spec):
    rng = np.random.default_rng(1)
    state = _random_state(grid, rng)
    p1 = ConvexParams(lam=2, c=3, a=1.1, d=1, alpha=1e-5, gamma=0.6, t_max=1)
    p2 = ConvexParams(lam=2, c=3, a=1.1, d=2, alpha=1e-5, gamma=0.6, t_max=1)
    b1 = _value(state, p1, zero_spec)
    b2 = _value(state, p2, zero_spec)
    assert b2.j2 == pytest.approx(2 * b1.j2, rel=1e-12)
    assert b2.j1 == b1.j1 and b2.j3 == b1.j3


def test_objective_at_manufactured_truth(t11_case, params):
    state = StatePair(t11_case.u_true, t11_case.m_true)
    bd = _value(state, params, t11_case.spec)
    assert bd.j1 < 1e-20  # residual is machine-zero by construction
    assert bd.j2 > 0
    expected_j3 = params.alpha * (
        h2_norm_discrete(t11_case.u_true) ** 2 +
        h2_norm_discrete(t11_case.m_true) ** 2)
    assert bd.j3 == pytest.approx(expected_j3, rel=1e-12)


def test_gradient_matches_finite_differences(grid, params, t11_case):
    report = gradient_fd_check(t11_case.spec, params, n_states=3,
                               n_directions=12, seed=42)
    assert report["max_rel_error"] < 1e-6


def test_gradient_fd_check_without_work_raises(params, t11_case):
    for states, directions in ((0, 12), (3, 0)):
        with pytest.raises(ValueError, match="n_states >= 1"):
            gradient_fd_check(t11_case.spec, params, n_states=states,
                              n_directions=directions)


def test_gradient_masked_entries_zero(grid, params, data_spec, monkeypatch):
    # The objective's gradient is nonzero on the pinned t=0 column; the
    # gradient L-BFGS steps along is zero there and equal to it elsewhere,
    # so minimize never moves the pinned data.
    start = make_start(data_spec)
    full_u, full_m = _gradient(start, params, data_spec)
    assert np.abs(full_u[:, 0]).max() > 0.0
    assert np.abs(full_m[:, 0]).max() > 0.0
    seen = []
    two_loop = optimizer._two_loop_direction

    def recording(g, *history):
        seen.append(g.reshape(2, grid.nx, grid.nt).copy())
        return two_loop(g, *history)

    monkeypatch.setattr(optimizer, "_two_loop_direction", recording)
    result = minimize(data_spec, params, OptimizerConfig(tol=1e-30, max_iters=30))
    assert len(seen) == 30
    for g in seen:
        assert not g[:, :, 0].any()
    assert np.array_equal(seen[0][0, :, 1:], full_u[:, 1:])
    assert np.array_equal(seen[0][1, :, 1:], full_m[:, 1:])
    assert np.array_equal(result.state.u.values[:, 0], data_spec.u0)
    assert np.array_equal(result.state.m.values[:, 0], data_spec.m0)
    assert not np.array_equal(result.state.u.values, start.u.values)


def test_objective_constant_along_masked_directions(grid, params, zero_spec):
    # changing only the pinned plane and re-pinning it, as minimize does
    # after every step, returns the same objective
    rng = np.random.default_rng(4)
    u = sample_neumann_field(grid, rng)
    m = sample_neumann_field(grid, rng)
    u[:, 0] = zero_spec.u0
    m[:, 0] = zero_spec.m0
    b0 = Objective(zero_spec, params).value_arrays(u, m)
    u[:, 0] += rng.standard_normal(grid.nx)
    u[:, 0] = zero_spec.u0
    b1 = Objective(zero_spec, params).value_arrays(u, m)
    assert b0.total == b1.total


def test_regularizer_gradient_against_norm_oracle(grid, params, zero_spec,
                                                  residuals_off):
    # isolate j3 (zero weight profile) and compare the gradient with central
    # differences of the reference H2 norm
    rng = np.random.default_rng(5)
    state = _random_state(grid, rng)
    gu, _ = _gradient(state, params, zero_spec)
    h = 1e-6
    for _ in range(8):
        du = rng.standard_normal((grid.nx, grid.nt))
        du[:, 0] = 0.0
        du /= np.linalg.norm(du)
        analytic = float(np.sum(gu * du))

        def j3_u(vals):
            return params.alpha * h2_norm_discrete(Field(grid, vals)) ** 2

        fd = (j3_u(state.u.values + h * du) - j3_u(state.u.values - h * du)) / (2 * h)
        assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-12)


def test_eval_and_gradient_deterministic(grid, params, t11_case):
    rng = np.random.default_rng(6)
    state = _random_state(grid, rng)
    b1 = _value(state, params, t11_case.spec)
    b2 = _value(state, params, t11_case.spec)
    assert b1 == b2
    obj = Objective(t11_case.spec, params)
    ev = obj.value_arrays(state.u.values, state.m.values)
    b3, gu1, gm1 = obj.value_and_gradient_arrays(ev)
    b4, gu2, gm2 = obj.value_and_gradient_arrays(ev)
    assert b3 == b4 == b1
    assert np.array_equal(gu1, gu2)
    assert np.array_equal(gm1, gm2)
    assert np.array_equal(gu1, _gradient(state, params, t11_case.spec)[0])


def test_convexity_probe_identical_states(grid, params, zero_spec):
    rng = np.random.default_rng(7)
    s = _random_state(grid, rng)
    probe = convexity_probe(s, s, params, zero_spec)
    assert probe.gap == 0.0
    assert probe.floor == 0.0


def test_convexity_probe_quadratic_identity(grid, params, zero_spec,
                                            residuals_off):
    # with the residual terms switched off the objective is the quadratic
    # alpha*|.|^2, whose Bregman gap is exactly alpha*|delta|^2 = 2*floor
    rng = np.random.default_rng(8)
    base = _random_state(grid, rng)
    ramp = (grid.t_nodes() / grid.t_max)[None, :]
    du = sample_neumann_field(grid, rng) * ramp
    dm = sample_neumann_field(grid, rng) * ramp
    other = StatePair(Field(grid, base.u.values + du),
                      Field(grid, base.m.values + dm))
    probe = convexity_probe(base, other, params, zero_spec)
    assert probe.gap == pytest.approx(2 * probe.floor, rel=1e-10)


def test_convexity_probe_rejects_differing_pinned_data(grid, params, zero_spec):
    rng = np.random.default_rng(9)
    s1 = _random_state(grid, rng)
    s2 = _random_state(grid, rng)
    with pytest.raises(ValueError, match="pinned"):
        convexity_probe(s1, s2, params, zero_spec)


def _first_row_ratio(spec, params):
    result = minimize(spec, params, OptimizerConfig(max_iters=1, tol=1e-30))
    return result.trace.rows[0].foo_ratio


def test_first_order_optimality_ratios(grid, params, data_spec):
    # trace row 0 reads |gradient off the pinned column| / |full gradient|
    # at the start state
    full_u, full_m = _gradient(make_start(data_spec), params, data_spec)
    expected = (np.sqrt(np.sum(full_u[:, 1:]**2) + np.sum(full_m[:, 1:]**2)) /
                np.sqrt(np.sum(full_u**2) + np.sum(full_m**2)))
    assert 0 < expected < 1.0
    assert _first_row_ratio(data_spec, params) == pytest.approx(expected, rel=1e-12)


def test_same_gradients_give_unit_ratio(grid, params, data_spec, monkeypatch):
    # numerator and denominator are the same norm: when the start gradient
    # already vanishes on the pinned plane, row 0 reads exactly one
    exact = Objective.value_and_gradient_arrays

    def zero_on_pinned(self, ev):
        breakdown, gu, gm = exact(self, ev)
        gu[:, 0] = 0.0
        gm[:, 0] = 0.0
        return breakdown, gu, gm

    monkeypatch.setattr(Objective, "value_and_gradient_arrays", zero_on_pinned)
    assert _first_row_ratio(data_spec, params) == pytest.approx(1.0, rel=1e-12)


def test_t_max_mismatch_rejected(grid, zero_spec):
    params = ConvexParams(lam=2, c=4, a=1.1, d=1, alpha=1e-5, gamma=0.6, t_max=2)
    with pytest.raises(ValueError, match="t_max"):
        Objective(zero_spec, params)


def test_non_finite_intermediate_identifies_term(grid, params, zero_spec):
    # values large enough that the squared residual overflows: the
    # offending term must be named in the rejection
    obj = Objective(zero_spec, params)
    huge = np.full((grid.nx, grid.nt), 1e200)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="j1"):
        obj.value_arrays(huge, np.zeros((grid.nx, grid.nt)))


@pytest.fixture()
def fine_grid():
    """A non-square 41x21 grid, so the x and t Gram factors differ in size."""
    return make_grid(-1, 1, 1, 0.05, 0.05, 0.6)


def test_h2_gram_form_matches_norm_oracle(fine_grid, params):
    spec = make_problem_spec(fine_grid, np.zeros(fine_grid.nx),
                             np.zeros(fine_grid.nx), 1.0)
    obj = Objective(spec, params)
    rng = np.random.default_rng(13)
    for amplitude in (1e-3, 1.0, 1e3):
        f = sample_neumann_field(fine_grid, rng, amplitude=amplitude)
        f += amplitude * rng.standard_normal(f.shape)  # rough, not only smooth
        expected = h2_norm_discrete(Field(fine_grid, f)) ** 2
        assert obj._h2_quadratic(f) == pytest.approx(expected, rel=1e-12)


def test_hessian_diag_regularizer_matches_four_term_formula(fine_grid, params,
                                                           residuals_off):
    # a zero weight profile leaves only the regularizer block in both diagonals
    spec = make_problem_spec(fine_grid, np.zeros(fine_grid.nx),
                             np.full(fine_grid.nx, 0.5), 1.0)
    obj = Objective(spec, params)
    assert not obj.w1.any() and not obj.w2.any()
    rng = np.random.default_rng(14)
    state = _random_state(fine_grid, rng)
    diag_u, diag_m = obj.hessian_diag(state.u.values, state.m.values)
    dtm, dxm, dxxm = calculus.diff_matrices(fine_grid)
    wq = np.outer(calculus.weights_x(fine_grid), calculus.weights_t(fine_grid))
    expected = 2.0 * params.alpha * (wq + wq @ dtm**2 + (dxm**2).T @ wq +
                                     (dxxm**2).T @ wq)
    np.testing.assert_allclose(diag_u, expected, rtol=1e-12, atol=0)
    np.testing.assert_allclose(diag_m, expected, rtol=1e-12, atol=0)


def test_fd_oracle_reports_a_planted_gradient_error(params, t11_case, monkeypatch):
    # The five-point rule is exact on the quartic J, so a clean gradient
    # reads far below the 1e-6 gate and a 1e-5 relative error in gu reads
    # above it.
    clean = gradient_fd_check(t11_case.spec, params, n_states=3, n_directions=12,
                              seed=7)
    assert clean["max_rel_error"] < 1e-8
    exact = Objective.value_and_gradient_arrays
    grid = t11_case.spec.grid
    pattern = np.random.default_rng(16).choice([-1.0, 1.0], (grid.nx, grid.nt))

    def planted(self, ev):
        breakdown, gu, gm = exact(self, ev)
        return breakdown, gu * (1.0 + 1e-5 * pattern), gm

    monkeypatch.setattr(Objective, "value_and_gradient_arrays", planted)
    report = gradient_fd_check(t11_case.spec, params, n_states=3, n_directions=12,
                               seed=7)
    assert report["max_rel_error"] > 1e-6


@pytest.mark.parametrize("planted_state", [0, 1])
def test_fd_oracle_fails_on_a_nan_reading(params, t11_case, monkeypatch,
                                          planted_state):
    # a NaN reading must not be dropped by the running maximum, whether it
    # comes before or after finite readings
    exact = Objective.value_and_gradient_arrays
    calls = []

    def planted(self, ev):
        breakdown, gu, gm = exact(self, ev)
        if len(calls) == planted_state:
            gu = gu.copy()
            gu[5, 5] = np.nan
        calls.append(1)
        return breakdown, gu, gm

    monkeypatch.setattr(Objective, "value_and_gradient_arrays", planted)
    report = gradient_fd_check(t11_case.spec, params, n_states=2, n_directions=6,
                               seed=7)
    assert len(calls) == 2
    assert np.isnan(report["max_rel_error"])


# -- stacks of states -----------------------------------------------------


def _stack(grid, seed, shape=(2, 3)):
    """Random states stacked on leading axes: u and m of shape (*shape, nx, nt)."""
    rng = np.random.default_rng(seed)
    states = [_random_state(grid, rng) for _ in range(int(np.prod(shape)))]
    u = np.array([s.u.values for s in states]).reshape(*shape, grid.nx, grid.nt)
    m = np.array([s.m.values for s in states]).reshape(*shape, grid.nx, grid.nt)
    return u, m


@pytest.fixture()
def negative_kernel_spec(grid):
    return make_problem_spec(grid, np.zeros(grid.nx), np.full(grid.nx, 0.5), -1.0)


@pytest.mark.parametrize("kernel", ["constant", "negative"])
def test_stacked_evaluation_matches_per_state(grid, params, t11_case,
                                              negative_kernel_spec, kernel):
    spec = t11_case.spec if kernel == "constant" else negative_kernel_spec
    u, m = _stack(grid, 29)
    obj = Objective(spec, params)
    stacked = model.residuals(u, m, spec, obj.stencils)
    breakdown = obj.value_arrays(u, m)
    assert breakdown.total.shape == (2, 3)
    for index in np.ndindex(2, 3):
        single = model.residuals(u[index], m[index], spec, obj.stencils)
        for got, expected in zip(stacked, single):
            assert got[index].shape == expected.shape
            np.testing.assert_allclose(got[index], expected, rtol=1e-13,
                                       atol=1e-13 * np.abs(expected).max())
        expected = obj.value_arrays(u[index], m[index])
        for part in ("j1", "j2", "j3", "total"):
            assert getattr(breakdown, part)[index] == pytest.approx(
                getattr(expected, part), rel=1e-13)


def test_stacked_evaluation_names_overflowing_term(grid, params, zero_spec):
    u, m = _stack(grid, 30)
    u[1, 2] = 1e200  # one state of the stack overflows its squared residual
    obj = Objective(zero_spec, params)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="j1"):
        obj.value_arrays(u, m)


def test_gradient_fd_check_covers_several_chunks(fine_grid, params, monkeypatch):
    # 41x21 nodes give chunks of 4 directions, so 10 directions take three
    # stacked calls per state, the last one short
    spec = make_problem_spec(fine_grid, np.zeros(fine_grid.nx),
                             np.full(fine_grid.nx, 0.5), 1.0)
    chunk = objective.FD_STACK_NODES // (4 * fine_grid.nx * fine_grid.nt)
    assert chunk == 4
    shapes = []
    value_arrays = Objective.value_arrays

    def recorded(self, u, m):
        shapes.append(u.shape)
        return value_arrays(self, u, m)

    monkeypatch.setattr(Objective, "value_arrays", recorded)
    report = gradient_fd_check(spec, params, n_states=2, n_directions=10, seed=5)
    stack = (fine_grid.nx, fine_grid.nt)
    # each state's own evaluation, for its gradient, then its stacks
    assert shapes == [stack, (4, 4, *stack), (4, 4, *stack), (4, 2, *stack)] * 2
    assert report["max_rel_error"] < 1e-8


# -- the objective is a pure evaluator ---------------------------------------


def _two_states(grid, seed):
    rng = np.random.default_rng(seed)
    a, b = _random_state(grid, rng), _random_state(grid, rng)
    return (a.u.values, a.m.values), (b.u.values, b.m.values)


def test_objective_keeps_no_state(grid, params, t11_case):
    # no call may change an attribute: what one evaluation gives the next
    # call is passed to it
    (u, m), (ub, mb) = _two_states(grid, 20)
    pu, pm = ub - u, mb - m
    obj = Objective(t11_case.spec, params)
    before = {name: (value, value.copy() if isinstance(value, np.ndarray) else None)
              for name, value in vars(obj).items()}
    ev = obj.value_arrays(u, m)
    obj.value_and_gradient_arrays(ev)
    obj.value_arrays(np.stack([u, ub]), np.stack([m, mb]))
    obj.line_quartic(ev, obj.value_arrays(u + pu, m + pm), pu, pm)
    obj.value_and_gradient_arrays(obj.value_arrays(ub, mb))
    obj.hessian_diag(u, m)
    assert vars(obj).keys() == before.keys()
    for name, value in vars(obj).items():
        kept, contents = before[name]
        assert value is kept, name
        if contents is not None:
            assert np.array_equal(value, contents), name


def test_gradient_from_evaluation_matches_fresh_objective(grid, params, t11_case):
    # an evaluation handed on after other calls gives, bit for bit, the
    # gradient a fresh Objective gives at equal copies of the state
    spec = t11_case.spec
    (u, m), (ub, mb) = _two_states(grid, 21)
    obj = Objective(spec, params)
    ev = obj.value_arrays(u, m)
    obj.value_and_gradient_arrays(obj.value_arrays(ub, mb))
    obj.value_arrays(np.stack([ub, u]), np.stack([mb, m]))
    breakdown, gu, gm = obj.value_and_gradient_arrays(ev)
    fresh = Objective(spec, params)
    fresh_bd, fresh_gu, fresh_gm = fresh.value_and_gradient_arrays(
        fresh.value_arrays(u.copy(), m.copy()))
    assert breakdown == fresh_bd
    assert np.array_equal(gu, fresh_gu) and np.array_equal(gm, fresh_gm)


# -- the objective along a line is an exact quartic ---------------------------


def _line_case(grid, seed):
    """A random state z and a random direction p that is zero on column 0."""
    rng = np.random.default_rng(seed)
    z = _random_state(grid, rng)
    pu = sample_neumann_field(grid, rng)
    pm = sample_neumann_field(grid, rng)
    pu[:, 0] = 0.0
    pm[:, 0] = 0.0
    return z.u.values, z.m.values, pu, pm


@pytest.fixture()
def negative_kernel_fine_spec(fine_grid):
    return make_problem_spec(fine_grid, np.zeros(fine_grid.nx),
                             np.full(fine_grid.nx, 0.5), -1.0)


@pytest.mark.parametrize("case", ["T1_1", "kernel -1 41x21"])
def test_line_quartic_reproduces_objective_along_line(params, t11_case,
                                                      negative_kernel_fine_spec,
                                                      case):
    spec = t11_case.spec if case == "T1_1" else negative_kernel_fine_spec
    for seed in (25, 26, 27):
        u, m, pu, pm = _line_case(spec.grid, seed)
        obj = Objective(spec, params)
        at_z = obj.value_arrays(u, m)
        j0 = at_z.total
        quartic = obj.line_quartic(at_z, obj.value_arrays(u + pu, m + pm), pu, pm)
        assert quartic.is_finite()
        for xi in (1.0, 0.5, 0.125, 2.0**-10):
            direct = obj.value_arrays(u + xi * pu, m + xi * pm).total - j0
            assert abs(quartic.phi(xi) - direct) <= 1e-10 * j0
            assert abs(direct) <= quartic.size(xi)
