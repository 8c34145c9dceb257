import json
import math

import numpy as np
import pytest

from mfg_forecast import calculus
from mfg_forecast.grid import Field, field_from_function, make_grid
from mfg_forecast.model import ProblemSpec, build_manufactured_case, \
    apply_interaction, make_problem_spec, manufactured_source, residuals, \
    solve_fokker_planck, write_case
import mfg_forecast.experiments as experiments
import mfg_forecast.model as model

from mass_reference import integrate_x


@pytest.fixture()
def grid():
    return make_grid(-1, 1, 1, 0.1, 0.1, 0.6)


def _interaction_at(kernel, grid, m, j):
    """The kernel integral at time node j, as a vector over x-nodes."""
    full = np.broadcast_to(apply_interaction(kernel, grid, m.values),
                           (grid.nx, grid.nt))
    return full[:, j]


def constant_field(grid, value):
    return Field(grid, np.full((grid.nx, grid.nt), value))


def _const_spec(grid, kernel_value=1.0, m0=0.5):
    return make_problem_spec(grid, np.zeros(grid.nx), np.full(grid.nx, m0),
                             kernel_value)


def test_problem_spec_rejects_non_finite_kernel(grid):
    for kernel in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="kernel must be finite"):
            _const_spec(grid, kernel_value=kernel)


def test_interaction_term_constant_density(grid):
    m = constant_field(grid, 0.5)
    out = _interaction_at(1.0, grid, m, 0)
    assert np.allclose(out, 1.0, atol=1e-14)
    out_neg = _interaction_at(-1.0, grid, m, 0)
    assert np.allclose(out_neg, -1.0, atol=1e-14)


def test_interaction_term_gaussian_bump_unit_mass(grid):
    m0 = np.array([experiments.compact_bump(x) for x in grid.x_nodes()])
    m = Field(grid, np.tile(m0[:, None], (1, grid.nt)))
    out = _interaction_at(1.0, grid, m, 0)
    assert np.allclose(out, out[0])  # x-independent for constant kernels
    assert out[0] == pytest.approx(1.0, abs=0.02)


def _residuals(u, m, spec):
    """R = (R1, R2) of two Fields, from model.residuals."""
    return residuals((u.values, m.values), spec, calculus.stencil_products(spec.grid))[0]


def test_hjb_residual_zero_state_zero_source(grid):
    spec = _const_spec(grid, m0=0.0)
    u = constant_field(grid, 0.0)
    m = constant_field(grid, 0.0)
    assert np.all(_residuals(u, m, spec)[0] == 0.0)


def test_hjb_residual_kernel_term_only(grid):
    spec = _const_spec(grid, m0=0.5)
    u = constant_field(grid, 0.0)
    m = constant_field(grid, 0.5)
    assert np.allclose(_residuals(u, m, spec)[0], 1.0, atol=1e-12)


def test_fp_residual_constant_state(grid):
    spec = _const_spec(grid)
    res = _residuals(constant_field(grid, 3.0), constant_field(grid, 0.5), spec)[1]
    assert np.allclose(res, 0.0, atol=1e-12)


def test_fp_residual_heat_oracle(grid):
    # u = 0 reduces the residual to m_t - m_xx; compare against the
    # analytic value for m = cos(pi x) e^{-t} on interior nodes.
    spec = _const_spec(grid)
    u = constant_field(grid, 0.0)
    m = field_from_function(grid, lambda x, t: math.cos(math.pi * x) * math.exp(-t))
    res = _residuals(u, m, spec)[1]
    xs, ts = grid.x_nodes(), grid.t_nodes()
    analytic = (math.pi**2 - 1.0) * np.outer(np.cos(math.pi * xs), np.exp(-ts))
    err = np.abs(res - analytic)[1:-1, 1:-1]
    # stencil truncation: pi^4 dx^2 / 12 from m_xx, dt^2/6 from m_t
    bound = math.pi**4 / 12 * grid.dx**2 * 1.05 + grid.dt**2 / 6
    assert err.max() < bound


@pytest.mark.parametrize("step", [0.1, 0.05])
def test_residuals_drift_oracle(step):
    # u = cos(pi x)(1 + t) has u_x != 0 inside and u_x = 0 at both ends; with
    # m = 1/2 constant, K = 1 and f = 0 the working form gives
    #   R1 = u_t + u_xx + u_x^2/2 + K * int m = cos - pi^2 cos (1+t)
    #        + pi^2 sin^2 (1+t)^2 / 2 + 1,
    #   R2 = m_t - m_xx + (m u_x)_x = -(pi^2/2) cos (1+t).
    # u is linear in t, so the time stencils are exact; the rest is the
    # stencils' dx^2 truncation.  A flipped sign of u_x^2/2 moves R1 by
    # u_x^2 (up to 4 pi^2), one of the drift moves R2 by 2 (m u_x)_x (up
    # to 2 pi^2), far outside the bounds.
    grid = make_grid(-1, 1, 1, step, step, 0.6)
    spec = _const_spec(grid, kernel_value=1.0, m0=0.5)
    u = field_from_function(grid, lambda x, t: math.cos(math.pi * x) * (1.0 + t))
    r1, r2 = _residuals(u, constant_field(grid, 0.5), spec)
    x, t = np.meshgrid(grid.x_nodes(), grid.t_nodes(), indexing="ij")
    cos, sin, s = np.cos(math.pi * x), np.sin(math.pi * x), 1.0 + t
    exact1 = cos - math.pi**2 * cos * s + 0.5 * math.pi**2 * sin**2 * s**2 + 1.0
    exact2 = -0.5 * math.pi**2 * cos * s
    inner = slice(1, -1)  # d_dx is zero on the boundary rows by reflection
    err1 = np.abs(r1 - exact1)[inner].max()
    err2 = np.abs(r2 - exact2)[inner].max()
    # u_xx: pi^4 dx^2 (1+t) / 12; u_x^2/2: pi^4 dx^2 (1+t)^2 / 6 at most;
    # m * Dx(Dx u) spans 2 dx: (1/2) pi^4 (2 dx)^2 (1+t) / 12
    assert err1 < math.pi**4 * step**2 * (2.0 / 12 + 4.0 / 6)
    assert err2 < 0.5 * math.pi**4 * (2 * step)**2 * 2.0 / 12


@pytest.mark.parametrize("kernel", [0.0, 1.0])
@pytest.mark.parametrize("step", [pytest.param(0.1, id="21x11"),
                                  pytest.param(0.05, id="41x21"),
                                  pytest.param(0.0125, id="161x81")])
def test_residuals_broadcast_a_single_field_over_a_stack(step, kernel):
    # one state array, a stack of states, u stacked next to one m, m stacked
    # next to one u, and two stacks as a pair: each state's R1, R2 (both
    # planes of R) and u_x are bit for bit those of a one-state call, on
    # the working grid (one dense product per stencil) and on 161x81
    # (blocked products); and the one-state array and pair agree
    grid = make_grid(-1, 1, 1, step, step, 0.6)
    rng = np.random.default_rng(43)
    f = Field(grid, rng.standard_normal((grid.nx, grid.nt)))
    spec = make_problem_spec(grid, np.zeros(grid.nx), np.zeros(grid.nx), kernel, f)
    stencils = calculus.stencil_products(grid)
    stack = rng.standard_normal((2, 3, grid.nx, grid.nt))
    single = rng.standard_normal((2, grid.nx, grid.nt))
    one = residuals(single, spec, stencils)
    for got, expected in zip(one, residuals(tuple(single), spec, stencils)):
        assert np.array_equal(got, expected)
    calls = [(stack, stack), (tuple(stack), stack),
             ((stack[0], single[1]), np.stack((stack[0], np.broadcast_to(
                 single[1], stack[0].shape)))),
             ((single[0], stack[1]), np.stack((np.broadcast_to(
                 single[0], stack[1].shape), stack[1])))]
    for z, states in calls:
        r, ux = residuals(z, spec, stencils)
        assert r.shape == stack.shape
        ux = np.broadcast_to(ux, stack[0].shape)
        for s in range(stack.shape[1]):
            expected_r, expected_ux = residuals(states[:, s].copy(), spec, stencils)
            assert np.array_equal(r[:, s], expected_r)
            assert np.array_equal(ux[s], expected_ux)


def test_fp_residual_shape_mismatch(grid):
    # fields off the spec grid are refused by the stencil products
    other = make_grid(-1, 1, 1, 0.2, 0.1, 0.6)
    spec = _const_spec(grid)
    with pytest.raises(ValueError):
        _residuals(constant_field(other, 0.0), constant_field(grid, 0.0), spec)


def test_fokker_planck_constant_steady_state(grid):
    m = solve_fokker_planck(constant_field(grid, 0.0), np.full(grid.nx, 0.5))
    assert np.allclose(m.values, 0.5, atol=1e-13)


def test_fokker_planck_conserves_mass_for_any_drift(grid):
    rng = np.random.default_rng(8)
    from mfg_forecast.carleman import sample_neumann_field
    u = Field(grid, sample_neumann_field(grid, rng))
    m0 = np.abs(rng.uniform(0.2, 1.0, grid.nx))
    m = solve_fokker_planck(u, m0)
    mass0 = integrate_x(grid, m0)
    masses = [integrate_x(grid, m.values[:, j]) for j in range(grid.nt)]
    assert max(abs(v - mass0) for v in masses) < 1e-10 * grid.nt


def test_fokker_planck_self_convergence_first_order_in_dt():
    # Fixed dx, halved dt: successive differences should shrink ~2x.
    u_fn = experiments._u_t11
    m0_fn = experiments._m0_t11
    finals = []
    for dt in (0.04, 0.02, 0.01):
        g = make_grid(-1, 1, 1, 0.1, dt, 0.6)
        u = field_from_function(g, u_fn)
        m0 = np.array([m0_fn(x) for x in g.x_nodes()])
        m = solve_fokker_planck(u, m0)
        finals.append(m.values[:, -1])
    e1 = np.linalg.norm(finals[0] - finals[1])
    e2 = np.linalg.norm(finals[1] - finals[2])
    rate = math.log2(e1 / e2)
    assert 0.7 <= rate <= 1.3


def test_manufactured_source_closed_form(grid):
    # u = 0, K = 1, m = 0.5: the interaction term is 1, so f = -2.
    f = manufactured_source(constant_field(grid, 0.0), constant_field(grid, 0.5),
                            1.0)[0]
    assert np.allclose(f.values, -2.0, atol=1e-12)


def test_manufactured_source_cancels_hjb_residual(grid):
    # the default kernel 1 and a negative kernel
    from mfg_forecast.carleman import sample_neumann_field
    for kernel in (1.0, -0.7):
        rng = np.random.default_rng(1)
        u = Field(grid, sample_neumann_field(grid, rng))
        m = Field(grid, 0.5 + 0.1 * np.abs(sample_neumann_field(grid, rng)))
        f = manufactured_source(u, m, kernel)[0]
        spec = ProblemSpec(grid, kernel, f, u.values[:, 0], m.values[:, 0])
        assert np.abs(_residuals(u, m, spec)[0]).max() < 1e-12

        case = build_manufactured_case(experiments._u_t12, lambda x: 0.5,
                                       kernel, grid)
        res = _residuals(case.u_true, case.m_true, case.spec)[0]
        assert np.abs(res).max() < 1e-12
        assert case.hjb_residual_norm < 1e-12


@pytest.mark.parametrize("step", [pytest.param(0.1, id="21x11"),
                                  pytest.param(0.0125, id="161x81")])
def test_build_case_takes_source_and_norms_from_one_residual_call(step, monkeypatch):
    # f and both recorded norms come from one residual call, and the norms
    # equal those of the residuals at the case's own spec (source included)
    grid = make_grid(-1, 1, 1, step, step, 0.6)
    calls, residuals_fn = [], model.residuals
    monkeypatch.setattr(model, "residuals",
                        lambda *args: calls.append(args) or residuals_fn(*args))
    case = build_manufactured_case(experiments._u_t11, experiments._m0_t11, 1.0, grid)
    assert len(calls) == 1
    r = _residuals(case.u_true, case.m_true, case.spec)
    assert case.hjb_residual_norm == calculus.l2_norm_qt(Field(grid, r[0]))
    assert case.fp_residual_norm == calculus.l2_norm_qt(Field(grid, r[1]))


def test_manufactured_source_rejects_vanishing_density(grid):
    m = constant_field(grid, 1e-9)
    with pytest.raises(ValueError, match="dens"):
        manufactured_source(constant_field(grid, 0.0), m, 1.0)


def test_build_case_t11(t11_case):
    assert t11_case.hjb_residual_norm < 1e-12
    assert t11_case.fp_residual_norm < 8.0 * (0.1 + 0.1**2)
    assert t11_case.m_true.values.min() > 1e-8
    assert t11_case.spec.m0[0] == pytest.approx(0.28, abs=1e-12)


def test_build_case_t12(grid):
    case = build_manufactured_case(experiments._u_t12, lambda x: 0.5,
                                   1.0, grid, label="T1_2")
    assert case.hjb_residual_norm < 1e-12
    assert np.allclose(case.spec.m0, 0.5)


def test_build_case_rejects_non_neumann_choice(grid):
    with pytest.raises(ValueError, match="boundary"):
        build_manufactured_case(lambda x, t: x * t, lambda x: 0.5,
                                1.0, grid)


def test_case_export_import_roundtrip(tmp_path, t11_case):
    write_case(t11_case, tmp_path)
    grid = t11_case.spec.grid
    for name, field in (("u_true.csv", t11_case.u_true),
                        ("m_true.csv", t11_case.m_true),
                        ("source_f.csv", t11_case.spec.f_field)):
        values = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)[:, 2]
        assert np.array_equal(values.reshape(grid.nt, grid.nx).T, field.values), name
    sidecar = json.loads((tmp_path / "case.json").read_text())
    assert sidecar["hjb_residual_norm"] == t11_case.hjb_residual_norm
    assert sidecar["fp_residual_norm"] == t11_case.fp_residual_norm
    assert sidecar["label"] == "T1_1"
    assert sidecar["kernel"] == {"kind": "constant", "value": 1.0}
    assert sidecar["grid"] == {"x_min": -1.0, "x_max": 1.0, "t_max": 1.0,
                               "dx": 0.1, "dt": 0.1, "gamma": 0.6}
