import numpy as np
import pytest

from mfg_forecast import calculus
from mfg_forecast.carleman import ConvexParams, sample_neumann_field
from mfg_forecast.grid import Field, constant_field, make_grid
from mfg_forecast.model import KernelSpec, make_problem_spec
from mfg_forecast.objective import Objective, StatePair, convexity_probe, \
    eval_objective, first_order_optimality, gradient_fd_check, \
    objective_gradient


@pytest.fixture()
def grid():
    return make_grid(-1, 1, 1, 0.1, 0.1, 0.6)


@pytest.fixture()
def params():
    return ConvexParams(lam=2, c=3, a=1.1, d=1, alpha=1e-5, gamma=0.6, t_max=1)


@pytest.fixture()
def zero_spec(grid):
    return make_problem_spec(grid, np.zeros(grid.nx), np.zeros(grid.nx),
                             KernelSpec(constant=1.0))


def _random_state(grid, rng, amplitude=1.0):
    u = Field(grid, sample_neumann_field(grid, rng, amplitude=amplitude))
    m = Field(grid, sample_neumann_field(grid, rng, amplitude=amplitude))
    return StatePair(u, m)


def test_zero_state_zero_objective(grid, params, zero_spec):
    state = StatePair(constant_field(grid, 0.0), constant_field(grid, 0.0))
    bd = eval_objective(state, params, zero_spec)
    assert bd.j1 == bd.j2 == bd.j3 == bd.total == 0.0


def test_breakdown_parts_nonnegative_and_sum(grid, params, zero_spec):
    rng = np.random.default_rng(0)
    bd = eval_objective(_random_state(grid, rng), params, zero_spec)
    assert bd.j1 >= 0 and bd.j2 >= 0 and bd.j3 >= 0
    assert bd.total == bd.j1 + bd.j2 + bd.j3


def test_doubling_d_doubles_only_j2(grid, zero_spec):
    rng = np.random.default_rng(1)
    state = _random_state(grid, rng)
    p1 = ConvexParams(lam=2, c=3, a=1.1, d=1, alpha=1e-5, gamma=0.6, t_max=1)
    p2 = ConvexParams(lam=2, c=3, a=1.1, d=2, alpha=1e-5, gamma=0.6, t_max=1)
    b1 = eval_objective(state, p1, zero_spec)
    b2 = eval_objective(state, p2, zero_spec)
    assert b2.j2 == pytest.approx(2 * b1.j2, rel=1e-12)
    assert b2.j1 == b1.j1 and b2.j3 == b1.j3


def test_objective_at_manufactured_truth(t11_case, params):
    state = StatePair(t11_case.u_true, t11_case.m_true)
    bd = eval_objective(state, params, t11_case.spec)
    assert bd.j1 < 1e-20  # residual is machine-zero by construction
    assert bd.j2 > 0
    expected_j3 = params.alpha * (
        calculus.h2_norm_discrete(t11_case.u_true) ** 2 +
        calculus.h2_norm_discrete(t11_case.m_true) ** 2)
    assert bd.j3 == pytest.approx(expected_j3, rel=1e-12)


def test_gradient_matches_finite_differences(grid, params, t11_case):
    report = gradient_fd_check(t11_case.spec, params, n_states=3,
                               n_directions=12, seed=42)
    assert report["max_rel_error"] < 1e-6


def test_gradient_fd_with_tabulated_kernel(grid, params):
    # the table path has its own adjoint; verify it the same way
    rng = np.random.default_rng(12)
    table = rng.uniform(-1.0, 1.0, (grid.nx, grid.nx))
    spec = make_problem_spec(grid, np.zeros(grid.nx), np.full(grid.nx, 0.5),
                             KernelSpec(table=table))
    report = gradient_fd_check(spec, params, n_states=2, n_directions=8, seed=3)
    assert report["max_rel_error"] < 1e-6


def test_gradient_masked_entries_zero(grid, params, zero_spec):
    rng = np.random.default_rng(3)
    state = _random_state(grid, rng)
    g = objective_gradient(state, params, zero_spec)
    assert np.all(g.u.values[:, 0] == 0.0)
    assert np.all(g.m.values[:, 0] == 0.0)
    full = objective_gradient(state, params, zero_spec, masked=False)
    assert np.abs(full.u.values[:, 0]).max() > 0.0


def test_objective_constant_along_masked_directions(grid, params, zero_spec):
    # changing only the pinned plane and re-projecting returns the same
    # state, so the objective cannot move along masked directions
    from mfg_forecast.optimizer import project
    rng = np.random.default_rng(4)
    state = _random_state(grid, rng)
    state = project(state, zero_spec)
    u2 = state.u.values.copy()
    u2[:, 0] += rng.standard_normal(grid.nx)
    corrupted = StatePair(Field(grid, u2), state.m)
    restored = project(corrupted, zero_spec)
    b0 = eval_objective(state, params, zero_spec)
    b1 = eval_objective(restored, params, zero_spec)
    assert b0.total == b1.total


def test_regularizer_gradient_against_norm_oracle(grid, params, zero_spec):
    # isolate j3 (residual_weight=0) and compare the gradient with central
    # differences of the calculus-module quadratic form
    rng = np.random.default_rng(5)
    state = _random_state(grid, rng)
    g = objective_gradient(state, params, zero_spec, residual_weight=0.0)
    h = 1e-6
    for _ in range(8):
        du = rng.standard_normal((grid.nx, grid.nt))
        du[:, 0] = 0.0
        du /= np.linalg.norm(du)
        analytic = float(np.sum(g.u.values * du))

        def j3_u(vals):
            return params.alpha * calculus.h2_norm_discrete(Field(grid, vals)) ** 2

        fd = (j3_u(state.u.values + h * du) - j3_u(state.u.values - h * du)) / (2 * h)
        assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-12)


def test_eval_and_gradient_deterministic(grid, params, t11_case):
    rng = np.random.default_rng(6)
    state = _random_state(grid, rng)
    b1 = eval_objective(state, params, t11_case.spec)
    b2 = eval_objective(state, params, t11_case.spec)
    assert b1 == b2
    g1 = objective_gradient(state, params, t11_case.spec)
    g2 = objective_gradient(state, params, t11_case.spec)
    assert np.array_equal(g1.u.values, g2.u.values)
    assert np.array_equal(g1.m.values, g2.m.values)


def test_convexity_probe_identical_states(grid, params, zero_spec):
    rng = np.random.default_rng(7)
    s = _random_state(grid, rng)
    probe = convexity_probe(s, s, params, zero_spec)
    assert probe.gap == 0.0
    assert probe.floor == 0.0


def test_convexity_probe_quadratic_identity(grid, params, zero_spec):
    # with the residual terms switched off the objective is the quadratic
    # alpha*|.|^2, whose Bregman gap is exactly alpha*|delta|^2 = 2*floor
    rng = np.random.default_rng(8)
    base = _random_state(grid, rng)
    ramp = (grid.t_nodes() / grid.t_max)[None, :]
    du = sample_neumann_field(grid, rng) * ramp
    dm = sample_neumann_field(grid, rng) * ramp
    other = StatePair(Field(grid, base.u.values + du),
                      Field(grid, base.m.values + dm))
    probe = convexity_probe(base, other, params, zero_spec, residual_weight=0.0)
    assert probe.gap == pytest.approx(2 * probe.floor, rel=1e-10)


def test_convexity_probe_rejects_differing_pinned_data(grid, params, zero_spec):
    rng = np.random.default_rng(9)
    s1 = _random_state(grid, rng)
    s2 = _random_state(grid, rng)
    with pytest.raises(ValueError, match="pinned"):
        convexity_probe(s1, s2, params, zero_spec)


def test_first_order_optimality_ratios(grid, params, zero_spec):
    rng = np.random.default_rng(10)
    state = _random_state(grid, rng)
    g_full = objective_gradient(state, params, zero_spec, masked=False)
    g_masked = objective_gradient(state, params, zero_spec, masked=True)
    ratio = first_order_optimality(g_masked, g_full)
    assert 0 < ratio <= 1.0
    half = StatePair(Field(grid, 0.5 * g_masked.u.values),
                     Field(grid, 0.5 * g_masked.m.values))
    assert first_order_optimality(half, g_full) == pytest.approx(0.5 * ratio, rel=1e-12)
    zero = StatePair(constant_field(grid, 0.0), constant_field(grid, 0.0))
    assert first_order_optimality(zero, g_full) == 0.0
    with pytest.raises(ValueError, match="zero"):
        first_order_optimality(g_masked, zero)


def test_same_gradients_give_unit_ratio(grid, params, zero_spec):
    rng = np.random.default_rng(11)
    state = _random_state(grid, rng)
    g = objective_gradient(state, params, zero_spec, masked=True)
    assert first_order_optimality(g, g) == pytest.approx(1.0, rel=1e-12)


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
                             np.zeros(fine_grid.nx), KernelSpec(constant=1.0))
    obj = Objective(spec, params)
    rng = np.random.default_rng(13)
    for amplitude in (1e-3, 1.0, 1e3):
        f = sample_neumann_field(fine_grid, rng, amplitude=amplitude)
        f += amplitude * rng.standard_normal(f.shape)  # rough, not only smooth
        expected = calculus.h2_norm_discrete(Field(fine_grid, f)) ** 2
        assert obj._h2_quadratic(f) == pytest.approx(expected, rel=1e-12)


def test_hessian_diag_regularizer_matches_four_term_formula(fine_grid, params):
    # residual_weight=0 leaves only the regularizer block in both diagonals
    spec = make_problem_spec(fine_grid, np.zeros(fine_grid.nx),
                             np.full(fine_grid.nx, 0.5), KernelSpec(constant=1.0))
    obj = Objective(spec, params, residual_weight=0.0)
    rng = np.random.default_rng(14)
    state = _random_state(fine_grid, rng)
    diag_u, diag_m = obj.hessian_diag(state.u.values, state.m.values)
    dtm, dxm, dxxm = calculus.diff_matrices(fine_grid)
    wq = np.outer(calculus.weights_x(fine_grid), calculus.weights_t(fine_grid))
    expected = 2.0 * params.alpha * (wq + wq @ dtm**2 + (dxm**2).T @ wq +
                                     (dxxm**2).T @ wq)
    np.testing.assert_allclose(diag_u, expected, rtol=1e-12, atol=0)
    np.testing.assert_allclose(diag_m, expected, rtol=1e-12, atol=0)


def test_gradient_fd_tabulated_kernel_on_fine_grid(fine_grid, params):
    rng = np.random.default_rng(15)
    table = rng.uniform(-1.0, 1.0, (fine_grid.nx, fine_grid.nx))
    spec = make_problem_spec(fine_grid, np.zeros(fine_grid.nx),
                             np.full(fine_grid.nx, 0.5), KernelSpec(table=table))
    report = gradient_fd_check(spec, params, n_states=2, n_directions=8, seed=4)
    assert report["max_rel_error"] < 1e-6


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

    def planted(self, u, m, masked=True):
        breakdown, gu, gm = exact(self, u, m, masked)
        return breakdown, gu * (1.0 + 1e-5 * pattern), gm

    monkeypatch.setattr(Objective, "value_and_gradient_arrays", planted)
    report = gradient_fd_check(t11_case.spec, params, n_states=3, n_directions=12,
                               seed=7)
    assert report["max_rel_error"] > 1e-6
