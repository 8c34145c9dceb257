"""The blocked stencil products on the run path against their dense
formulas: bit for bit on the working grid, where every blocked product is
the one dense product with the same operand, and to rounding on the
161x81 refinement grid, where the products take several blocks.  The
row-wise field sampler and the once-factored Fokker-Planck march against
their per-node and per-step forms, bit for bit on both grids.  The
residuals' adjoint against the transpose of their dense Jacobian."""

import numpy as np
import pytest

from mfg_forecast import calculus, experiments, model
from mfg_forecast.calculus import h10_norm_gamma
from mfg_forecast.carleman import ConvexParams, sample_neumann_field
from mfg_forecast.grid import Field, field_from_function, make_grid
from mfg_forecast.model import build_manufactured_case, make_problem_spec, \
    manufactured_source, solve_fokker_planck
from mfg_forecast.objective import Objective

from dense_reference import field_from_function_per_node, h10_norm_gamma_dense, \
    hessian_diag_dense, residual_jacobian_dense, solve_fokker_planck_banded, \
    solve_fokker_planck_dense

# (step, relative tolerance): 21x11 must match exactly, 161x81 to rounding
GRIDS = [pytest.param(0.1, 0.0, id="21x11"), pytest.param(0.0125, 1e-13, id="161x81")]
STEPS = [pytest.param(0.1, id="21x11"), pytest.param(0.0125, id="161x81")]
# the manufactured cases' u and m0: T1_1's and T1_2's
CASES = [pytest.param(experiments._u_t11, experiments._m0_t11, id="T1_1"),
         pytest.param(experiments._u_t12, lambda x: 0.5, id="T1_2")]


def _grid(step):
    return make_grid(-1, 1, 1, step, step, 0.6)


def _assert_matches(actual, expected, rtol):
    if rtol == 0.0:
        assert np.array_equal(actual, expected)
    else:
        np.testing.assert_allclose(actual, expected, rtol=rtol, atol=0)


@pytest.mark.parametrize("step,rtol", GRIDS)
def test_hessian_diag_matches_dense_formula(step, rtol):
    grid = _grid(step)
    case = build_manufactured_case(experiments._u_t11, experiments._m0_t11,
                                   1.0, grid)
    params = ConvexParams(lam=2, c=3, a=1.1, d=1, alpha=1e-5, gamma=0.6, t_max=1)
    obj = Objective(case.spec, params)
    rng = np.random.default_rng(31)
    z = np.stack([sample_neumann_field(grid, rng) for _ in range(2)])
    _assert_matches(obj.hessian_diag(z), hessian_diag_dense(obj, z), rtol)


@pytest.mark.parametrize("dt", [pytest.param(0.1, id="21x11"),
                                pytest.param(0.05, id="21x21")])
def test_residual_adjoint_is_the_dense_jacobian_transpose(dt):
    # every term in play: a nonzero kernel and source, random states and
    # multipliers, the pinned t = 0 column included
    grid = make_grid(-1, 1, 1, 0.1, dt, 0.6)
    rng = np.random.default_rng(33)
    f = Field(grid, rng.standard_normal((grid.nx, grid.nt)))
    spec = make_problem_spec(grid, np.zeros(grid.nx), np.zeros(grid.nx), 0.7, f)
    stencils = calculus.stencil_products(grid)
    for _ in range(3):
        z = rng.standard_normal((2, grid.nx, grid.nt))
        g1, g2 = rng.standard_normal((2, grid.nx, grid.nt))
        expected = residual_jacobian_dense(z, spec).T @ np.concatenate(
            (g1.ravel(), g2.ravel()))
        actual = np.stack(model.residual_adjoint(
            g1, g2, stencils.d_dx(z[0]), z[1], spec, stencils))
        err = np.abs(actual.ravel() - expected).max()
        assert err <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("step,rtol", GRIDS)
def test_fokker_planck_march_matches_dense_drift(step, rtol):
    grid = _grid(step)
    u = field_from_function(grid, experiments._u_t11)
    m0 = np.array([experiments._m0_t11(x) for x in grid.x_nodes()])
    _assert_matches(solve_fokker_planck(u, m0).values,
                    solve_fokker_planck_dense(u, m0), rtol)


@pytest.mark.parametrize("step,rtol", GRIDS)
def test_h10_norm_gamma_matches_dense_formula(step, rtol):
    grid = _grid(step)
    rng = np.random.default_rng(32)
    field = Field(grid, sample_neumann_field(grid, rng) +
                  0.1 * rng.standard_normal((grid.nx, grid.nt)))
    _assert_matches(h10_norm_gamma(field), h10_norm_gamma_dense(field), rtol)


@pytest.mark.parametrize("u_fn,m0_fn", CASES)
@pytest.mark.parametrize("step", STEPS)
def test_field_sampler_matches_per_node_loop(step, u_fn, m0_fn):
    grid = _grid(step)
    assert np.array_equal(field_from_function(grid, u_fn).values,
                          field_from_function_per_node(grid, u_fn).values)


@pytest.mark.parametrize("u_fn,m0_fn", CASES)
@pytest.mark.parametrize("step", STEPS)
def test_fokker_planck_march_matches_solve_banded(step, u_fn, m0_fn):
    grid = _grid(step)
    u = field_from_function(grid, u_fn)
    m0 = np.array([m0_fn(x) for x in grid.x_nodes()])
    m = solve_fokker_planck(u, m0)
    reference = Field(grid, solve_fokker_planck_banded(u, m0))
    assert np.array_equal(m.values, reference.values)
    # and so is every product taken of it (a product's rounding can
    # depend on the memory layout of its operand)
    assert np.array_equal(manufactured_source(u, m, 1.0).values,
                          manufactured_source(u, reference, 1.0).values)
