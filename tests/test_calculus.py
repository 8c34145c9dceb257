import math

import numpy as np
import pytest

from mfg_forecast import calculus
from mfg_forecast.calculus import h10_norm_gamma, integrate_x, l2_norm_qt
from mfg_forecast.grid import Field, field_from_function, make_grid

from h2_reference import h2_norm_discrete


@pytest.fixture()
def grid():
    return make_grid(-1, 1, 1, 0.1, 0.1, 0.6)


# The stencil matrices applied to a field's nodal values.

def _dt(f):
    return f.values @ calculus.time_diff_matrix(f.grid.nt, f.grid.dt).T


def _dx(f):
    return calculus.space_diff_matrix(f.grid.nx, f.grid.dx) @ f.values


def _dxx(f):
    return calculus.space_diff2_matrix(f.grid.nx, f.grid.dx) @ f.values


def test_stencil_config_fixed_order():
    # every stencil is second order: halving both steps quarters the error
    # of d/dt, d/dx and d2/dx2 on a smooth field that satisfies the
    # Neumann condition the spatial stencils build in
    def fn(x, t):
        return math.cos(math.pi * x) * math.exp(t)

    exact = {_dt: lambda x, t: fn(x, t),
             _dx: lambda x, t: -math.pi * math.sin(math.pi * x) * math.exp(t),
             _dxx: lambda x, t: -math.pi**2 * fn(x, t)}
    for op, exact_fn in exact.items():
        errors = []
        for step in (0.1, 0.05):
            g = make_grid(-1, 1, 1, step, step, 0.6)
            err = op(field_from_function(g, fn)) - \
                field_from_function(g, exact_fn).values
            errors.append(np.abs(err).max())
        rate = math.log2(errors[0] / errors[1])
        assert 1.8 <= rate <= 2.2, (op.__name__, rate)


def test_d_dt_exact_for_affine(grid):
    f = field_from_function(grid, lambda x, t: t)
    df = _dt(f)
    assert np.allclose(df, 1.0, atol=1e-12)


def test_d_dt_exact_for_quadratic_at_interior(grid):
    f = field_from_function(grid, lambda x, t: t * t)
    df = _dt(f)
    j = 5  # t = 0.5
    assert df[0, j] == pytest.approx(1.0, abs=1e-12)
    # one-sided second-order rows are exact for quadratics too
    assert df[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert df[0, -1] == pytest.approx(2.0, abs=1e-12)


def test_d_dt_second_order_on_sine(grid):
    f = field_from_function(grid, lambda x, t: math.sin(t))
    df = _dt(f)
    ts = grid.t_nodes()
    err = np.abs(df[0, 1:-1] - np.cos(ts[1:-1]))
    assert err.max() < grid.dt**2  # |error| <= dt^2/6 for sin


def test_d_dt_needs_three_nodes():
    g = make_grid(-1, 1, 1, 0.1, 0.5, 0.6)
    f = field_from_function(g, lambda x, t: t)
    with pytest.raises(ValueError):
        calculus.time_diff_matrix(2, 0.5)
    assert _dt(f) is not None  # 3 nodes is enough


def test_space_derivatives_kill_constants(grid):
    f = field_from_function(grid, lambda x, t: 4.2)
    assert np.allclose(_dx(f), 0.0, atol=1e-12)
    assert np.allclose(_dxx(f), 0.0, atol=1e-12)


def test_d_dx_zero_on_boundary_matches_neumann(grid):
    # (x^2-1)^2 has zero slope at both endpoints; the reflected stencil
    # reproduces that exactly on the boundary rows.
    f = field_from_function(grid, lambda x, t: (x * x - 1) ** 2)
    df = _dx(f)
    assert np.all(df[0, :] == 0.0)
    assert np.all(df[-1, :] == 0.0)
    xs = grid.x_nodes()[1:-1]
    analytic = 4 * xs * (xs**2 - 1)
    assert np.abs(df[1:-1, 0] - analytic).max() < 4 * grid.dx**2


def test_d2_dx2_second_order_on_cosine(grid):
    f = field_from_function(grid, lambda x, t: math.cos(2 * math.pi * x))
    d2 = _dxx(f)
    xs = grid.x_nodes()[1:-1]
    analytic = -4 * math.pi**2 * np.cos(2 * math.pi * xs)
    err = np.abs(d2[1:-1, 0] - analytic)
    # |error| <= f''''_max * dx^2 / 12 = 16 pi^4 dx^2 / 12
    assert err.max() < 16 * math.pi**4 / 12 * grid.dx**2 * 1.01


def test_operators_are_linear(grid):
    rng = np.random.default_rng(11)
    f = Field(grid, rng.standard_normal((grid.nx, grid.nt)))
    g = Field(grid, rng.standard_normal((grid.nx, grid.nt)))
    for op in (_dt, _dx, _dxx):
        combo = Field(grid, 2.0 * f.values - 3.0 * g.values)
        lhs = op(combo)
        rhs = 2.0 * op(f) - 3.0 * op(g)
        assert np.allclose(lhs, rhs, atol=1e-10, rtol=1e-12)


def test_halving_steps_quarters_interior_error():
    coarse = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)
    fine = make_grid(-1, 1, 1, 0.05, 0.05, 0.6)

    def worst_interior_errors(g):
        ft = field_from_function(g, lambda x, t: math.sin(t))
        fx = field_from_function(g, lambda x, t: math.sin(2 * x))
        ts = g.t_nodes()[1:-1]
        xs = g.x_nodes()[1:-1]
        e_t = np.abs(_dt(ft)[0, 1:-1] - np.cos(ts)).max()
        e_xx = np.abs(_dxx(fx)[1:-1, 0] + 4 * np.sin(2 * xs)).max()
        return e_t, e_xx

    for ec, ef in zip(worst_interior_errors(coarse), worst_interior_errors(fine)):
        assert 3.5 <= ec / ef <= 4.5


def test_summation_by_parts_sanity(grid):
    f = field_from_function(grid, lambda x, t: math.cos(math.pi * x))
    g = field_from_function(grid, lambda x, t: math.cos(2 * math.pi * x))
    integrand = (f.values * _dx(g) + g.values * _dx(f))[:, 0]
    # fg is equal at both endpoints, so the boundary term vanishes.
    assert abs(integrate_x(grid, integrand)) < 5 * grid.dx**2


def test_integrate_x_constant_half(grid):
    assert integrate_x(grid, np.full(grid.nx, 0.5)) == pytest.approx(1.0, abs=1e-14)


def test_integrate_x_odd_function(grid):
    assert integrate_x(grid, grid.x_nodes()) == pytest.approx(0.0, abs=1e-14)


def test_integrate_x_bump_density_near_unit_mass(grid):
    xs = grid.x_nodes()
    vals = np.where(np.abs(xs) < 1, np.exp(1.0 / np.minimum(xs**2 - 1, -1e-12)), 0.0) + 0.28
    mass = integrate_x(grid, vals)
    assert mass == pytest.approx(1.0, abs=0.05)


def test_integrate_x_length_mismatch(grid):
    with pytest.raises(ValueError):
        integrate_x(grid, np.zeros(grid.nx + 1))


def test_h10_gamma_zero_field(grid):
    assert h10_norm_gamma(field_from_function(grid, lambda x, t: 0.0)) == 0.0


def test_h10_gamma_constant_field_closed_form(grid):
    f = field_from_function(grid, lambda x, t: 1.0)
    assert h10_norm_gamma(f) == pytest.approx(math.sqrt(2 * 0.6), abs=1e-12)


def test_h10_gamma_neumann_mode_against_analytic(grid):
    # integral of (pi^2 sin^2 + cos^2) over [-1,1] x [0, 0.6]
    f = field_from_function(grid, lambda x, t: math.cos(math.pi * x))
    analytic = math.sqrt(0.6 * (math.pi**2 + 1.0))
    assert h10_norm_gamma(f) == pytest.approx(analytic, rel=0.02)


def test_h10_gamma_monotone_in_gamma(grid):
    import dataclasses
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((grid.nx, grid.nt))
    norms = []
    for gamma in (0.3, 0.5, 0.6, 0.9):
        g2 = dataclasses.replace(grid, gamma=gamma)
        norms.append(h10_norm_gamma(Field(g2, vals)))
    assert all(a <= b + 1e-14 for a, b in zip(norms, norms[1:]))


def test_h2_discrete_zero_and_constant(grid):
    assert h2_norm_discrete(field_from_function(grid, lambda x, t: 0.0)) == 0.0
    f = field_from_function(grid, lambda x, t: 1.0)
    # derivative terms vanish exactly; only the L2 part survives
    assert h2_norm_discrete(f) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_h2_discrete_against_analytic_oracle(grid):
    # f = cos(pi x) * t: squared terms integrate to
    # 1/3 + 1 + pi^2/3 + pi^4/3 over [-1,1] x [0,1]
    f = field_from_function(grid, lambda x, t: math.cos(math.pi * x) * t)
    analytic = math.sqrt(1.0 / 3.0 + 1.0 + math.pi**2 / 3.0 + math.pi**4 / 3.0)
    assert h2_norm_discrete(f) == pytest.approx(analytic, rel=0.03)


def test_l2_norm_qt_constant(grid):
    f = field_from_function(grid, lambda x, t: 2.0)
    assert l2_norm_qt(f) == pytest.approx(math.sqrt(4.0 * 2.0), abs=1e-12)
