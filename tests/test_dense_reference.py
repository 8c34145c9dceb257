"""The blocked stencil products on the run path against their dense
formulas: bit for bit on the working grid, where every blocked product is
the one dense product with the same operand, and to rounding on the
161x81 refinement grid, where the products take several blocks.  The
row-wise field sampler and the once-factored Fokker-Planck march against
their per-node and per-step forms, bit for bit on both grids.  The
residuals' adjoint and the coloured Jacobian against their dense
Jacobian, and the preconditioner's band against the time-slice blocks of
the Gauss-Newton matrix formed from it."""

import dataclasses

import numpy as np
import pytest
from scipy import sparse

from mfg_forecast import calculus, experiments, model, objective
from mfg_forecast.calculus import h10_norm_gamma
from mfg_forecast.carleman import ConvexParams, sample_neumann_field
from mfg_forecast.grid import Field, field_from_function, make_grid
from mfg_forecast.model import build_manufactured_case, make_problem_spec, \
    manufactured_source, solve_fokker_planck
from mfg_forecast.objective import FAR_SLOTS, SLOT_DK, SLOT_DL, Objective, _reach

from dense_reference import field_from_function_per_node, free_columns, \
    h2_matrix, h10_norm_gamma_dense, residual_jacobian_dense, \
    solve_fokker_planck_banded, solve_fokker_planck_dense, time_slice_band

# (step, relative tolerance): 21x11 must match exactly, 161x81 to rounding
GRIDS = [pytest.param(0.1, 0.0, id="21x11"), pytest.param(0.0125, 1e-13, id="161x81")]
STEPS = [pytest.param(0.1, id="21x11"), pytest.param(0.0125, id="161x81")]
# the manufactured cases' u and m0: T1_1's and T1_2's
CASES = [pytest.param(experiments._u_t11, experiments._m0_t11, id="T1_1"),
         pytest.param(experiments._u_t12, lambda x: 0.5, id="T1_2")]
PARAMS = ConvexParams(lam=2, c=3, a=1.1, d=1, alpha=1e-5, gamma=0.6, t_max=1)


def _grid(step):
    return make_grid(-1, 1, 1, step, step, 0.6)


def _assert_matches(actual, expected, rtol):
    if rtol == 0.0:
        assert np.array_equal(actual, expected)
    else:
        np.testing.assert_allclose(actual, expected, rtol=rtol, atol=0)


def _kernel_free_case(grid, seed):
    """A spec with K = 0 and a random source, so that every term of the
    kernel-free Jacobian is in play, and a random state on it."""
    rng = np.random.default_rng(seed)
    f = Field(grid, rng.standard_normal((grid.nx, grid.nt)))
    spec = make_problem_spec(grid, np.zeros(grid.nx), np.zeros(grid.nx), 0.0, f)
    return spec, rng.standard_normal((2, grid.nx, grid.nt))


@pytest.mark.parametrize("dx,dt", [pytest.param(0.1, 0.1, id="21x11"),
                                   pytest.param(0.1, 0.05, id="21x21"),
                                   pytest.param(0.05, 0.05, id="41x21")])
def test_jacobian_is_the_dense_jacobian(dx, dt):
    grid = make_grid(-1, 1, 1, dx, dt, 0.6)
    spec, z = _kernel_free_case(grid, 34)
    jac = Objective(spec, PARAMS).jacobian(Objective(spec, PARAMS).value_arrays(z))
    assert isinstance(jac, sparse.csc_matrix)
    columns = free_columns(grid)
    assert jac.shape == (z.size, columns.size)
    worst = scale = 0.0
    for start in range(0, columns.size, 256):  # dense blocks of columns
        expected = residual_jacobian_dense(z, spec, columns[start:start + 256])
        worst = max(worst, np.abs(jac[:, start:start + 256].toarray() - expected).max())
        scale = max(scale, np.abs(expected).max())
    assert worst <= 1e-14 * scale


@pytest.mark.parametrize("nx,nt", [pytest.param(nx, nt, id=f"{nx}x{nt}")
                                   for nx in range(3, 13)
                                   for nt in (3, 4, 5, 6, 7, 8, 11)])
def test_jacobian_is_the_dense_jacobian_on_small_grids(nx, nt):
    # grids narrower than a colour's period in x, and as short as three
    # times, where the one-sided time rows reach two steps: every column
    # equals its own unit-vector difference
    grid = make_grid(-1, 1, 1, 2 / (nx - 1), 1 / (nt - 1), 0.9)
    spec, z = _kernel_free_case(grid, 36)
    obj = Objective(spec, PARAMS)
    jac = obj.jacobian(obj.value_arrays(z)).toarray()
    assert np.array_equal(jac, residual_jacobian_dense(z, spec, free_columns(grid)))


def _colour_groups_of_a_build(obj, z, monkeypatch):
    """The perturbation E of each colour group, as a boolean (2, nx, nt)
    mask, read off the states z + E and z - E that one preconditioner build
    at z hands to ``model.residuals``; and, per call, the fields its groups
    perturb."""
    _reach()  # probed once per process, before the calls are recorded
    groups, calls, residuals = [], [], model.residuals

    def recorded(u, m, spec, stencils):
        n = u.shape[0] // 2
        e = 0.5 * (np.stack((u[:n], m[:n])) - np.stack((u[n:], m[n:])))
        assert np.all((np.abs(e) < 1e-9) | (np.abs(e - 1.0) < 1e-9))
        groups.extend(np.swapaxes(e > 0.5, 0, 1))
        calls.append(set(np.flatnonzero((e > 0.5).any(axis=(1, 2, 3)))))
        return residuals(u, m, spec, stencils)

    with monkeypatch.context() as mp:
        mp.setattr(model, "residuals", recorded)
        obj.hessian_diag(z)
    return groups, calls


@pytest.mark.parametrize("step,calls", [pytest.param(0.1, 2, id="21x11"),
                                        pytest.param(0.05, 4, id="41x21"),
                                        pytest.param(0.0125, 12, id="161x81")])
def test_colour_groups_partition_the_free_nodes(step, calls, monkeypatch):
    # 12 groups, (f, (i + 2 j) mod 6), each perturbing one field; together
    # they cover every free node of each field once and no pinned node.
    # The groups of one field go to each stacked call: all six at 21x11,
    # 4 + 2 at 41x21, one group per call at 161x81.
    grid = _grid(step)
    spec, z = _kernel_free_case(grid, 37)
    groups, fields = _colour_groups_of_a_build(Objective(spec, PARAMS), z,
                                               monkeypatch)
    assert len(fields) == calls
    assert all(len(f) == 1 for f in fields)
    assert len(groups) == 12
    assert all(e[0].any() != e[1].any() for e in groups)  # one field each
    cover = np.sum(groups, axis=0)
    assert not cover[:, :, 0].any()
    assert np.all(cover[:, :, 1:] == 1)


def test_band_independent_of_the_stacking(monkeypatch):
    # 1, 2, 4 and 6 colour groups per stacked call at 21x11 (two states
    # of 21x11 nodes each): 12, 6, 4 and 2 calls give the same band, bit
    # for bit
    grid = _grid(0.1)
    spec, z = _kernel_free_case(grid, 41)
    obj = Objective(spec, PARAMS)
    bands = []
    for per_call, calls in ((1, 12), (2, 6), (4, 4), (6, 2)):
        monkeypatch.setattr(objective, "FD_STACK_NODES",
                            per_call * 2 * grid.nx * grid.nt)
        bands.append(obj.gauss_newton_band(z))
        assert len(_colour_groups_of_a_build(obj, z, monkeypatch)[1]) == calls
    assert all(np.array_equal(band, bands[-1]) for band in bands)


@pytest.mark.parametrize("nx,nt", [pytest.param(21, 11, id="21x11"),
                                   pytest.param(21, 21, id="21x21"),
                                   pytest.param(8, 3, id="8x3")])
def test_colour_groups_share_no_row(nx, nt, monkeypatch):
    # no two columns of one group have a nonzero in the same row of the
    # dense kernel-free Jacobian, so J E gives each of them apart
    grid = make_grid(-1, 1, 1, 2 / (nx - 1), 1 / (nt - 1), 0.9)
    spec, z = _kernel_free_case(grid, 38)
    nonzero = residual_jacobian_dense(z, spec) != 0.0
    groups, _ = _colour_groups_of_a_build(Objective(spec, PARAMS), z, monkeypatch)
    for e in groups:
        assert nonzero[:, e.ravel()].sum(axis=1).max() == 1


def test_reach_is_the_dense_jacobian_pattern_at_interior_nodes():
    # at a node whose slots' rows are all interior rows of d_dx and d_dt
    # (three steps from each edge), the slots where a column of the dense
    # Jacobian is nonzero are the probed reach, but for the two-step time
    # slots, which only the one-sided rows reach and which open with the
    # one-step ones
    grid = make_grid(-1, 1, 1, 0.2, 0.1, 0.6)
    spec, z = _kernel_free_case(grid, 39)
    nx, nt = grid.nx, grid.nt
    jac = residual_jacobian_dense(z, spec).reshape(2, nx, nt, 2, nx, nt)
    reach, near = _reach(), np.abs(SLOT_DL) < 2
    assert np.array_equal(reach[:, :, FAR_SLOTS],
                          reach[:, :, FAR_SLOTS - np.sign(SLOT_DL[FAR_SLOTS])])
    for i in range(3, nx - 3):
        for j in range(3, nt - 3):
            pattern = jac[:, i + SLOT_DK, j + SLOT_DL, :, i, j].T != 0.0  # [f, k, s]
            assert np.array_equal(pattern[:, :, near], reach[:, :, near])
            assert not pattern[:, :, ~near].any()


@pytest.mark.parametrize("nx,nt", [pytest.param(21, 11, id="21x11"),
                                   pytest.param(7, 3, id="7x3"),
                                   pytest.param(4, 6, id="4x6")])
def test_dense_jacobian_nonzeros_lie_in_open_slots(nx, nt):
    # every nonzero of the dense Jacobian, boundary and pinned nodes
    # included, is at a slot its field reaches in its residual; a two-step
    # time slot only at the one-sided rows of t = 0 and t_max
    grid = make_grid(-1, 1, 1, 2 / (nx - 1), 1 / (nt - 1), 0.9)
    spec, z = _kernel_free_case(grid, 40)
    jac = residual_jacobian_dense(z, spec)
    k, i, j, f, ci, cj = np.unravel_index(np.flatnonzero(jac),
                                          (2, nx, nt, 2, nx, nt))
    match = (i - ci == SLOT_DK[:, None]) & (j - cj == SLOT_DL[:, None])
    assert match.any(axis=0).all()
    slot = match.argmax(axis=0)
    assert _reach()[f, k, slot].all()
    far = np.isin(slot, FAR_SLOTS)
    assert np.all((j[far] == 0) | (j[far] == nt - 1))


@pytest.mark.parametrize("step", STEPS)
def test_jacobian_gives_the_gradient(step):
    # with K = 0, 2 J0^T W r + 2 alpha H z is the objective's gradient on the
    # free nodes
    grid = _grid(step)
    spec, z = _kernel_free_case(grid, 35)
    obj = Objective(spec, PARAMS)
    ev = obj.value_arrays(z)
    g = obj.value_and_gradient_arrays(ev).ravel()[free_columns(grid)]
    wr = np.stack((obj.w1 * ev.r1, obj.w2 * ev.r2)).ravel()
    from_jacobian = (2.0 * (obj.jacobian(ev).T @ wr) +
                     2.0 * obj.alpha * ev.h.ravel()[free_columns(grid)])
    assert np.abs(from_jacobian - g).max() <= 1e-13 * np.abs(g).max()


@pytest.mark.parametrize("dx,dt", [pytest.param(0.1, 0.1, id="21x11"),
                                   pytest.param(0.1, 0.05, id="21x21"),
                                   pytest.param(0.05, 0.05, id="41x21"),
                                   pytest.param(0.0125, 0.0125, id="161x81")])
def test_hessian_diag_matches_dense_formula(dx, dt):
    # the band is the time-slice blocks of 2 (J0^T W J0 + alpha H), the
    # kernel left out of J0, with J0 the dense unit-vector Jacobian (on the
    # refinement grid the coloured one, which the test above checks) and H
    # the sum of its four terms; each entry to 1e-12 of the bound
    # sqrt(M_cc M_rr) that a positive definite M sets on it
    grid = make_grid(-1, 1, 1, dx, dt, 0.6)
    case = build_manufactured_case(experiments._u_t11, experiments._m0_t11,
                                   1.0, grid)
    obj = Objective(case.spec, PARAMS)
    rng = np.random.default_rng(31)
    z = np.stack([sample_neumann_field(grid, rng) for _ in range(2)])
    columns = free_columns(grid)
    if grid.nx * grid.nt < 1000:
        spec0 = dataclasses.replace(case.spec, kernel=0.0)
        jac = sparse.csc_matrix(residual_jacobian_dense(z, spec0, columns))
    else:
        jac = obj.jacobian(obj.value_arrays(z))
    w = sparse.diags(np.stack((obj.w1, obj.w2)).ravel())
    h = sparse.kron(sparse.identity(2), h2_matrix(grid)).tocsr()[columns][:, columns]
    expected = time_slice_band(2.0 * (jac.T @ w @ jac + PARAMS.alpha * h), grid)
    band = obj.gauss_newton_band(z)
    diag = expected[0]
    for d in range(band.shape[0]):
        bound = np.sqrt(diag[:diag.size - d] * diag[d:])
        assert np.all(np.abs(band[d, :diag.size - d] - expected[d, :diag.size - d])
                      <= 1e-12 * bound)
        assert not band[d, diag.size - d:].any()  # LAPACK's unused corner
    # and the factor inverts it: a backward error of a few rounding units
    v = rng.standard_normal(z.shape)
    x = obj.hessian_diag(z).solve(v)
    assert not x[:, :, 0].any()
    full = sparse.diags([expected[d, :diag.size - d] for d in range(band.shape[0])],
                        -np.arange(band.shape[0]))
    full = full + sparse.tril(full, -1).T
    xf = x.ravel()[columns]
    residual = np.abs(full @ xf - v.ravel()[columns]).max()
    assert residual <= 1e-13 * abs(full).sum(axis=1).max() * np.abs(xf).max()


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
