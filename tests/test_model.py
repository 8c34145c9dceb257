import json
import math

import numpy as np
import pytest

from mfg_forecast import calculus
from mfg_forecast.grid import Field, constant_field, field_from_function, \
    make_grid, read_field_csv, time_slice
from mfg_forecast.model import ProblemSpec, build_manufactured_case, \
    apply_interaction, hjb_residual, make_problem_spec, manufactured_source, \
    residuals, solve_fokker_planck, write_case
import mfg_forecast.experiments as experiments


@pytest.fixture()
def grid():
    return make_grid(-1, 1, 1, 0.1, 0.1, 0.6)


def _interaction_at(kernel, grid, m, j):
    """The kernel integral at time node j, as a vector over x-nodes."""
    full = np.broadcast_to(apply_interaction(kernel, grid, m.values),
                           (grid.nx, grid.nt))
    return full[:, j]


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


def test_hjb_residual_zero_state_zero_source(grid):
    spec = _const_spec(grid, m0=0.0)
    u = constant_field(grid, 0.0)
    m = constant_field(grid, 0.0)
    assert np.all(hjb_residual(u, m, spec).values == 0.0)


def test_hjb_residual_kernel_term_only(grid):
    spec = _const_spec(grid, m0=0.5)
    u = constant_field(grid, 0.0)
    m = constant_field(grid, 0.5)
    res = hjb_residual(u, m, spec)
    assert np.allclose(res.values, 1.0, atol=1e-12)


def _fp_residual(u, m, spec):
    return residuals(u.values, m.values, spec, calculus.diff_matrices(spec.grid))[1]


def test_fp_residual_constant_state(grid):
    spec = _const_spec(grid)
    res = _fp_residual(constant_field(grid, 3.0), constant_field(grid, 0.5), spec)
    assert np.allclose(res, 0.0, atol=1e-12)


def test_fp_residual_heat_oracle(grid):
    # u = 0 reduces the residual to m_t - m_xx; compare against the
    # analytic value for m = cos(pi x) e^{-t} on interior nodes.
    spec = _const_spec(grid)
    u = constant_field(grid, 0.0)
    m = field_from_function(grid, lambda x, t: math.cos(math.pi * x) * math.exp(-t))
    res = _fp_residual(u, m, spec)
    xs, ts = grid.x_nodes(), grid.t_nodes()
    analytic = (math.pi**2 - 1.0) * np.outer(np.cos(math.pi * xs), np.exp(-ts))
    err = np.abs(res - analytic)[1:-1, 1:-1]
    # stencil truncation: pi^4 dx^2 / 12 from m_xx, dt^2/6 from m_t
    bound = math.pi**4 / 12 * grid.dx**2 * 1.05 + grid.dt**2 / 6
    assert err.max() < bound


def test_fp_residual_shape_mismatch(grid):
    # fields off the spec grid are refused, by the Field wrapper's grid
    # check and by the stencil products of the residuals themselves
    other = make_grid(-1, 1, 1, 0.2, 0.1, 0.6)
    spec = _const_spec(grid)
    with pytest.raises(ValueError, match="spec grid"):
        hjb_residual(constant_field(other, 0.0), constant_field(grid, 0.0), spec)
    with pytest.raises(ValueError):
        _fp_residual(constant_field(other, 0.0), constant_field(grid, 0.0), spec)


def test_fokker_planck_constant_steady_state(grid):
    spec = _const_spec(grid)
    m = solve_fokker_planck(constant_field(grid, 0.0), np.full(grid.nx, 0.5), spec)
    assert np.allclose(m.values, 0.5, atol=1e-13)


def test_fokker_planck_conserves_mass_for_any_drift(grid):
    rng = np.random.default_rng(8)
    spec = _const_spec(grid)
    from mfg_forecast.carleman import sample_neumann_field
    u = Field(grid, sample_neumann_field(grid, rng))
    m0 = np.abs(rng.uniform(0.2, 1.0, grid.nx))
    m = solve_fokker_planck(u, m0, spec)
    mass0 = calculus.integrate_x(grid, m0)
    masses = [calculus.integrate_x(grid, m.values[:, j]) for j in range(grid.nt)]
    assert max(abs(v - mass0) for v in masses) < 1e-10 * grid.nt


def test_fokker_planck_self_convergence_first_order_in_dt():
    # Fixed dx, halved dt: successive differences should shrink ~2x.
    u_fn = experiments._u_t11
    m0_fn = experiments._m0_t11
    finals = []
    for dt in (0.04, 0.02, 0.01):
        g = make_grid(-1, 1, 1, 0.1, dt, 0.6)
        spec = _const_spec(g)
        u = field_from_function(g, u_fn)
        m0 = np.array([m0_fn(x) for x in g.x_nodes()])
        m = solve_fokker_planck(u, m0, spec)
        finals.append(m.values[:, -1])
    e1 = np.linalg.norm(finals[0] - finals[1])
    e2 = np.linalg.norm(finals[1] - finals[2])
    rate = math.log2(e1 / e2)
    assert 0.7 <= rate <= 1.3


def test_manufactured_source_closed_form(grid):
    # u = 0, K = 1, m = 0.5: the interaction term is 1, so f = -2.
    f = manufactured_source(constant_field(grid, 0.0), constant_field(grid, 0.5),
                            1.0)
    assert np.allclose(f.values, -2.0, atol=1e-12)


def test_manufactured_source_cancels_hjb_residual(grid):
    # the default (kernel 1, r = -1) and a negative kernel with a
    # coefficient r varying in x and t
    from mfg_forecast.carleman import sample_neumann_field
    varying_r = field_from_function(
        grid, lambda x, t: -1.0 - 0.3 * math.cos(math.pi * x) * (1.0 + t))
    cases = ((1.0, None), (-0.7, varying_r))
    for kernel, r_field in cases:
        rng = np.random.default_rng(1)
        u = Field(grid, sample_neumann_field(grid, rng))
        m = Field(grid, 0.5 + 0.1 * np.abs(sample_neumann_field(grid, rng)))
        f = manufactured_source(u, m, kernel, r_field=r_field)
        r_spec = constant_field(grid, -1.0) if r_field is None else r_field
        spec = ProblemSpec(grid, r_spec, kernel, f, time_slice(u, 0),
                           time_slice(m, 0))
        res = hjb_residual(u, m, spec)
        assert np.abs(res.values).max() < 1e-12

        case = build_manufactured_case(experiments._u_t12, lambda x: 0.5,
                                       kernel, grid, r_field=r_field)
        res = hjb_residual(case.u_true, case.m_true, case.spec)
        assert np.abs(res.values).max() < 1e-12
        assert case.hjb_residual_norm < 1e-12


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
    for name, field in (("u_true.csv", t11_case.u_true),
                        ("m_true.csv", t11_case.m_true),
                        ("source_f.csv", t11_case.f_field),
                        ("coefficient_r.csv", t11_case.spec.r_field)):
        assert np.array_equal(read_field_csv(tmp_path / name).values,
                              field.values), name
    sidecar = json.loads((tmp_path / "case.json").read_text())
    assert sidecar["hjb_residual_norm"] == t11_case.hjb_residual_norm
    assert sidecar["fp_residual_norm"] == t11_case.fp_residual_norm
    assert sidecar["label"] == "T1_1"
    assert sidecar["kernel"] == {"kind": "constant", "value": 1.0}
    assert sidecar["grid"] == {"x_min": -1.0, "x_max": 1.0, "t_max": 1.0,
                               "dx": 0.1, "dt": 0.1, "gamma": 0.6}
