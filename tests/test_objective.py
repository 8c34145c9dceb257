import numpy as np
import pytest

from mfg_forecast import calculus, model, objective
from mfg_forecast.carleman import ConvexParams, sample_neumann_field
from mfg_forecast.grid import Field, make_grid
from mfg_forecast.model import make_problem_spec
from mfg_forecast.objective import Objective, gradient_fd_check
from mfg_forecast.optimizer import OptimizerConfig, make_start, minimize
import mfg_forecast.optimizer as optimizer

from convexity_reference import convexity_probe, h2_quadratic
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
    """A random smooth state z = (u, m), (2, nx, nt)."""
    return np.stack([sample_neumann_field(grid, rng, amplitude=amplitude)
                     for _ in range(2)])


def _value(state, params, spec):
    return Objective(spec, params).value_arrays(state)


def _gradient(state, params, spec):
    """The gradient at ``state``, (2, nx, nt): unpacks as (gu, gm)."""
    obj = Objective(spec, params)
    return obj.value_and_gradient_arrays(obj.value_arrays(state))


def test_zero_state_zero_objective(grid, params, zero_spec):
    bd = Objective(zero_spec, params).value_arrays(np.zeros((2, grid.nx, grid.nt)))
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
    state = np.stack((t11_case.u_true.values, t11_case.m_true.values))
    bd = _value(state, params, t11_case.spec)
    assert bd.j1 < 1e-20  # residual is machine-zero by construction
    assert bd.j2 > 0
    expected_j3 = params.alpha * (
        h2_norm_discrete(t11_case.u_true) ** 2 +
        h2_norm_discrete(t11_case.m_true) ** 2)
    assert bd.j3 == pytest.approx(expected_j3, rel=1e-12)


def test_gradient_matches_finite_differences(grid, params, t11_case):
    report = gradient_fd_check(t11_case.spec, params, seed=42)
    assert report["max_rel_error"] < 1e-6
    assert (report["n_states"], report["n_directions"]) == (10, 50)


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
        assert g.shape == (2, grid.nx, grid.nt)
        seen.append(g.copy())
        return two_loop(g, *history)

    monkeypatch.setattr(optimizer, "_two_loop_direction", recording)
    result = minimize(data_spec, params, OptimizerConfig(tol=1e-30, max_iters=30))
    assert len(seen) == 30
    for g in seen:
        assert not g[:, :, 0].any()
    assert np.array_equal(seen[0][0, :, 1:], full_u[:, 1:])
    assert np.array_equal(seen[0][1, :, 1:], full_m[:, 1:])
    assert np.array_equal(result.state[0, :, 0], data_spec.u0)
    assert np.array_equal(result.state[1, :, 0], data_spec.m0)
    assert not np.array_equal(result.state[0], start[0])


def test_objective_constant_along_masked_directions(grid, params, zero_spec):
    # changing only the pinned plane and re-pinning it, as minimize does
    # after every step, returns the same objective
    rng = np.random.default_rng(4)
    z = np.stack([sample_neumann_field(grid, rng) for _ in range(2)])
    z[:, :, 0] = (zero_spec.u0, zero_spec.m0)
    b0 = Objective(zero_spec, params).value_arrays(z)
    z[0, :, 0] += rng.standard_normal(grid.nx)
    z[0, :, 0] = zero_spec.u0
    b1 = Objective(zero_spec, params).value_arrays(z)
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

        fd = (j3_u(state[0] + h * du) - j3_u(state[0] - h * du)) / (2 * h)
        assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-12)


def test_eval_and_gradient_deterministic(grid, params, t11_case):
    rng = np.random.default_rng(6)
    state = _random_state(grid, rng)
    b1 = _value(state, params, t11_case.spec)
    b2 = _value(state, params, t11_case.spec)
    assert b1 == b2
    obj = Objective(t11_case.spec, params)
    ev = obj.value_arrays(state)
    g1 = obj.value_and_gradient_arrays(ev)
    g2 = obj.value_and_gradient_arrays(ev)
    assert ev == b1
    assert g1.shape == (2, grid.nx, grid.nt)
    assert np.array_equal(g1, g2)
    assert np.array_equal(g1, _gradient(state, params, t11_case.spec))


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
    other = base + np.stack((du, dm))
    probe = convexity_probe(base, other, params, zero_spec)
    assert probe.gap == pytest.approx(2 * probe.floor, rel=1e-10)


def test_convexity_probe_rejects_differing_pinned_data(grid, params, zero_spec):
    rng = np.random.default_rng(9)
    s1 = _random_state(grid, rng)
    s2 = _random_state(grid, rng)
    with pytest.raises(ValueError, match="pinned"):
        convexity_probe(s1, s2, params, zero_spec)


def test_convexity_probe_rejects_states_off_the_grid(grid, params, zero_spec):
    s = _random_state(grid, np.random.default_rng(9))
    for other in (s[:, :-1], s[0], s[:, :, :, None]):
        with pytest.raises(ValueError, match="share a grid"):
            convexity_probe(s, other, params, zero_spec)
        with pytest.raises(ValueError, match="share a grid"):
            convexity_probe(other, s, params, zero_spec)


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
        g = exact(self, ev)
        g[:, :, 0] = 0.0
        return g

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
    huge = np.zeros((2, grid.nx, grid.nt))
    huge[0] = 1e200
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="j1"):
        obj.value_arrays(huge)


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
        z = np.stack([sample_neumann_field(fine_grid, rng, amplitude=amplitude)
                      for _ in range(2)])
        z += amplitude * rng.standard_normal(z.shape)  # rough, not only smooth
        expected = sum(h2_norm_discrete(Field(fine_grid, f)) ** 2 for f in z)
        assert h2_quadratic(obj, z) == pytest.approx(expected, rel=1e-12)


def test_hessian_diag_regularizer_matches_four_term_formula(fine_grid, params,
                                                           residuals_off):
    # a zero weight profile leaves only the regularizer's time-slice blocks
    # 2 alpha H in the band: on the diagonal the four terms' squares, off it
    # the products of the Dx and Dxx columns of two nodes of one field
    spec = make_problem_spec(fine_grid, np.zeros(fine_grid.nx),
                             np.full(fine_grid.nx, 0.5), 1.0)
    obj = Objective(spec, params)
    assert not obj.w1.any() and not obj.w2.any()
    rng = np.random.default_rng(14)
    state = _random_state(fine_grid, rng)
    nx, nt = fine_grid.nx, fine_grid.nt
    band = obj.gauss_newton_band(state).T.reshape(nt - 1, nx, 2, -1)  # [j-1, i, f, d]
    dtm, dxm, dxxm = calculus.diff_matrices(fine_grid)
    wq = np.outer(calculus.weights_x(fine_grid), calculus.weights_t(fine_grid))
    expected = 2.0 * params.alpha * (wq + wq @ dtm**2 + (dxm**2).T @ wq +
                                     (dxxm**2).T @ wq)
    for f in range(2):
        np.testing.assert_allclose(band[:, :, f, 0], expected[:, 1:].T,
                                   rtol=1e-12, atol=0)
    for di in range(1, band.shape[3] // 2 + 1):
        pair = dxm[:, di:] * dxm[:, :nx - di] + dxxm[:, di:] * dxxm[:, :nx - di]
        expected = 2.0 * params.alpha * (pair.T @ wq)  # [i, j]: nodes i, i + di
        for f in range(2):
            np.testing.assert_allclose(band[:, :nx - di, f, 2 * di],
                                       expected[:, 1:].T, rtol=1e-12, atol=0)
            assert not band[:, nx - di:, f, 2 * di].any()
    assert not band[..., 1::2].any()  # u and m are not coupled by H


def test_fd_oracle_reports_a_planted_gradient_error(params, t11_case, monkeypatch):
    # The five-point rule is exact on the quartic J, so a clean gradient
    # reads far below the 1e-6 gate and a 1e-5 relative error in gu reads
    # above it.
    clean = gradient_fd_check(t11_case.spec, params, seed=7)
    assert clean["max_rel_error"] < 1e-8
    exact = Objective.value_and_gradient_arrays
    grid = t11_case.spec.grid
    pattern = np.random.default_rng(16).choice([-1.0, 1.0], (grid.nx, grid.nt))

    def planted(self, ev):
        g = exact(self, ev)
        g[0] *= 1.0 + 1e-5 * pattern
        return g

    monkeypatch.setattr(Objective, "value_and_gradient_arrays", planted)
    report = gradient_fd_check(t11_case.spec, params, seed=7)
    assert report["max_rel_error"] > 1e-6


@pytest.mark.parametrize("planted_state", [0, 1])
def test_fd_oracle_fails_on_a_nan_reading(params, t11_case, monkeypatch,
                                          planted_state):
    # a NaN reading must not be dropped by the running maximum, whether it
    # comes before or after finite readings
    exact = Objective.value_and_gradient_arrays
    calls = []

    def planted(self, ev):
        g = exact(self, ev)
        if len(calls) == planted_state:
            g[0, 5, 5] = np.nan
        calls.append(1)
        return g

    monkeypatch.setattr(Objective, "value_and_gradient_arrays", planted)
    report = gradient_fd_check(t11_case.spec, params, seed=7)
    assert len(calls) == objective.FD_STATES
    assert np.isnan(report["max_rel_error"])


# -- stacks of states -----------------------------------------------------


def _stack(grid, seed, shape=(2, 3)):
    """Random states stacked on the axes after the field axis: z of shape
    (2, *shape, nx, nt)."""
    rng = np.random.default_rng(seed)
    states = [_random_state(grid, rng) for _ in range(int(np.prod(shape)))]
    z = np.stack(states, axis=1)
    return z.reshape(2, *shape, grid.nx, grid.nt)


@pytest.fixture()
def negative_kernel_spec(grid):
    return make_problem_spec(grid, np.zeros(grid.nx), np.full(grid.nx, 0.5), -1.0)


@pytest.mark.parametrize("kernel", ["constant", "negative"])
def test_stacked_evaluation_matches_per_state(grid, params, t11_case,
                                              negative_kernel_spec, kernel):
    spec = t11_case.spec if kernel == "constant" else negative_kernel_spec
    z = _stack(grid, 29)
    obj = Objective(spec, params)
    stacked = model.residuals(z[0], z[1], spec, obj.stencils)
    breakdown = obj.value_arrays(z)
    assert breakdown.total.shape == (2, 3)
    for index in np.ndindex(2, 3):
        one = z[(slice(None), *index)]
        single = model.residuals(one[0], one[1], spec, obj.stencils)
        for got, expected in zip(stacked, single):
            assert got[index].shape == expected.shape
            np.testing.assert_allclose(got[index], expected, rtol=1e-13,
                                       atol=1e-13 * np.abs(expected).max())
        expected = obj.value_arrays(one)
        for part in ("j1", "j2", "j3", "total"):
            assert getattr(breakdown, part)[index] == pytest.approx(
                getattr(expected, part), rel=1e-13)


def test_stacked_evaluation_names_overflowing_term(grid, params, zero_spec):
    z = _stack(grid, 30)
    z[0, 1, 2] = 1e200  # one state of the stack overflows its squared residual
    obj = Objective(zero_spec, params)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="j1"):
        obj.value_arrays(z)


def test_gradient_fd_check_covers_several_chunks(fine_grid, params, monkeypatch):
    # 41x21 nodes give chunks of a few directions, so 10 directions take
    # several stacked calls per state, the last one short when the chunk
    # does not divide 10; the check is cut to 2 states of 10 directions,
    # which its module constants set
    spec = make_problem_spec(fine_grid, np.zeros(fine_grid.nx),
                             np.full(fine_grid.nx, 0.5), 1.0)
    chunk = objective.FD_STACK_NODES // (4 * fine_grid.nx * fine_grid.nt)
    assert 1 < chunk < 10
    shapes = []
    value_arrays = Objective.value_arrays

    def recorded(self, z):
        shapes.append(z.shape)
        return value_arrays(self, z)

    monkeypatch.setattr(Objective, "value_arrays", recorded)
    monkeypatch.setattr(objective, "FD_STATES", 2)
    monkeypatch.setattr(objective, "FD_DIRECTIONS", 10)
    report = gradient_fd_check(spec, params, seed=5)
    stack = (fine_grid.nx, fine_grid.nt)
    # each state's own evaluation, for its gradient, then its stacks
    stacks = [(2, 4, min(chunk, 10 - start), *stack) for start in range(0, 10, chunk)]
    assert shapes == [(2, *stack), *stacks] * 2
    assert (report["n_states"], report["n_directions"]) == (2, 10)
    assert report["max_rel_error"] < 1e-8


def test_gradient_fd_check_independent_of_chunk_size(params, t11_case, monkeypatch):
    # the stack size bounds memory only: one direction per stacked call
    # reads the same report, bit for bit
    report = gradient_fd_check(t11_case.spec, params, seed=7)
    grid = t11_case.spec.grid
    monkeypatch.setattr(objective, "FD_STACK_NODES", 4 * grid.nx * grid.nt)
    assert gradient_fd_check(t11_case.spec, params, seed=7) == report


# -- the objective is a pure evaluator ---------------------------------------


def _two_states(grid, seed):
    rng = np.random.default_rng(seed)
    return _random_state(grid, rng), _random_state(grid, rng)


def test_objective_keeps_no_state(grid, params, t11_case):
    # no call may change an attribute: what one evaluation gives the next
    # call is passed to it
    z, zb = _two_states(grid, 20)
    p = zb - z
    obj = Objective(t11_case.spec, params)
    before = {name: (value, value.copy() if isinstance(value, np.ndarray) else None)
              for name, value in vars(obj).items()}
    ev = obj.value_arrays(z)
    obj.value_and_gradient_arrays(ev)
    obj.value_arrays(np.stack([z, zb], axis=1))
    obj.line_quartic(ev, obj.value_arrays(z + p), p)
    obj.value_and_gradient_arrays(obj.value_arrays(zb))
    obj.hessian_diag(z)
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
    z, zb = _two_states(grid, 21)
    obj = Objective(spec, params)
    ev = obj.value_arrays(z)
    obj.value_and_gradient_arrays(obj.value_arrays(zb))
    obj.value_arrays(np.stack([zb, z], axis=1))
    g = obj.value_and_gradient_arrays(ev)
    fresh = Objective(spec, params)
    fresh_ev = fresh.value_arrays(z.copy())
    fresh_g = fresh.value_and_gradient_arrays(fresh_ev)
    assert ev == fresh_ev
    assert np.array_equal(g, fresh_g)


# -- the objective along a line is an exact quartic ---------------------------


def _line_case(grid, seed):
    """A random state z and a random direction p that is zero on column 0."""
    rng = np.random.default_rng(seed)
    z = _random_state(grid, rng)
    p = np.stack([sample_neumann_field(grid, rng) for _ in range(2)])
    p[:, :, 0] = 0.0
    return z, p


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
        z, p = _line_case(spec.grid, seed)
        obj = Objective(spec, params)
        at_z = obj.value_arrays(z)
        j0 = at_z.total
        quartic = obj.line_quartic(at_z, obj.value_arrays(z + p), p)
        assert quartic.is_finite()
        for xi in (1.0, 0.5, 0.125, 2.0**-10):
            direct = obj.value_arrays(z + xi * p).total - j0
            assert abs(quartic.phi(xi) - direct) <= 1e-10 * j0
            assert abs(direct) <= quartic.size(xi)
