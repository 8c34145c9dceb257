"""The package's earlier forms of its stencil products, manufactured-field
sampler and Fokker-Planck solve: the tests' references for the blocked
forms in ``Objective.hessian_diag``, ``model.solve_fokker_planck`` and
``calculus.h10_norm_gamma``, for the row-wise ``grid.field_from_function``
and for the once-factored tridiagonal march.  And the residuals' Jacobian
as a dense matrix, the reference for ``model.residual_adjoint``."""

import math

import numpy as np
from scipy.linalg import solve_banded

from mfg_forecast import calculus, model
from mfg_forecast.grid import Field


def hessian_diag_dense(obj, z):
    """``Objective.hessian_diag`` with each stencil square applied densely."""
    dtm, dxm, dxxm = calculus.diff_matrices(obj.spec.grid)
    dt2, dx2, dxx2 = dtm**2, dxm**2, dxxm**2
    u, m = z
    ux_sq = (dxm @ u) ** 2
    du = 2.0 * (obj.w1 @ dt2) + 2.0 * (dxx2.T @ obj.w1)
    du += 2.0 * (dx2.T @ (obj.w1 * ux_sq))
    du += 2.0 * (dx2.T @ (m**2 * (dx2.T @ obj.w2)))
    dm = 2.0 * (obj.w2 @ dt2) + 2.0 * (dxx2.T @ obj.w2)
    dm += 2.0 * ux_sq * (dx2.T @ obj.w2)
    dm += 2.0 * obj.spec.kernel**2 * (obj.wx_col**2 * obj.w1.sum(axis=0))
    dm += 2.0 * obj.w1 * obj.spec.f_field.values**2
    ct, bx = obj.stencils.gram_t.matrix, obj.stencils.gram_x.matrix
    reg = 2.0 * obj.alpha * (obj.wx_col * np.diag(ct) +
                             np.diag(bx)[:, None] * obj.wt_row)
    return np.stack((du, dm)) + reg


def residual_jacobian_dense(z, spec):
    """The Jacobian of ``model.residuals`` at the state z, (2 n, 2 n) for n
    nodes per field: rows R1 then R2, columns u then m, each field in C
    order.  Column k is (r(z + e_k) - r(z - e_k))/2, which is exact because
    both residuals are quadratic; the 4 n unit-step states go to
    ``model.residuals`` as one stack, interaction kernel included."""
    steps = np.eye(z.size).reshape(z.size, *z.shape)
    points = np.concatenate((z + steps, z - steps)).swapaxes(0, 1)
    r1, r2, _ = model.residuals(points[0], points[1], spec,
                                calculus.stencil_products(spec.grid))
    r = np.stack((r1, r2), axis=1).reshape(2 * z.size, z.size)
    return (0.5 * (r[:z.size] - r[z.size:])).T


def field_from_function_per_node(grid, g) -> Field:
    """``grid.field_from_function`` as one call and one finiteness check
    per node."""
    xs = grid.x_nodes()
    ts = grid.t_nodes()
    vals = np.empty((grid.nx, grid.nt))
    for i, x in enumerate(xs):
        for j, t in enumerate(ts):
            v = float(g(x, t))
            if not np.isfinite(v):
                raise ValueError(
                    f"function returned non-finite value {v} at node "
                    f"(x={x}, t={t}) [i={i}, j={j}]")
            vals[i, j] = v
    return Field(grid, vals)


def _march_solve_banded(grid, ux: np.ndarray, m0: np.ndarray) -> np.ndarray:
    """The Fokker-Planck march for a given u_x, with one
    ``scipy.linalg.solve_banded`` call per step."""
    nx, nt, dt, dx = grid.nx, grid.nt, grid.dt, grid.dx
    dxxm = calculus.space_diff2_matrix(nx, dx)
    ab = np.zeros((3, nx))
    ab[1, :] = 1.0 - dt * np.diag(dxxm)
    ab[0, 1:] = -dt * np.diag(dxxm, 1)
    ab[2, :-1] = -dt * np.diag(dxxm, -1)
    m = np.empty((nx, nt))
    m[:, 0] = m0
    for j in range(nt - 1):
        flux = m[:, j] * ux[:, j]
        div = np.empty(nx)
        div[1:-1] = (flux[2:] - flux[:-2]) / (2 * dx)
        div[0] = (flux[1] - flux[0]) / dx
        div[-1] = (flux[-1] - flux[-2]) / dx
        m[:, j + 1] = solve_banded((1, 1), ab, m[:, j] - dt * div)
    return m


def solve_fokker_planck_dense(u: Field, m0: np.ndarray) -> np.ndarray:
    """The Fokker-Planck march with u_x taken as the dense product Dx @ u."""
    grid = u.grid
    ux = calculus.space_diff_matrix(grid.nx, grid.dx) @ u.values
    return _march_solve_banded(grid, ux, m0)


def solve_fokker_planck_banded(u: Field, m0: np.ndarray) -> np.ndarray:
    """The Fokker-Planck march with the blocked d/dx of
    ``model.solve_fokker_planck`` and a ``solve_banded`` call per step, so
    that only the tridiagonal solve differs from the model's."""
    ux = calculus.stencil_products(u.grid).d_dx(u.values)
    return _march_solve_banded(u.grid, ux, m0)


def h10_norm_gamma_dense(field: Field) -> float:
    """``calculus.h10_norm_gamma`` with d/dx applied as Dx @ f."""
    grid = field.grid
    ng = grid.n_t_gamma()
    fx = calculus.space_diff_matrix(grid.nx, grid.dx) @ field.values[:, :ng]
    dens = fx**2 + field.values[:, :ng] ** 2
    wt = calculus._trapezoid_weights(ng, grid.dt)
    return math.sqrt(float(calculus.weights_x(grid) @ dens @ wt))
