"""The package's earlier forms of its stencil products, manufactured-field
sampler and Fokker-Planck solve: the tests' references for the blocked
forms in ``model.solve_fokker_planck`` and ``calculus.h10_norm_gamma``,
for the row-wise ``grid.field_from_function`` and for the once-factored
tridiagonal march.  The residuals' Jacobian as a dense matrix, the
reference for ``model.residual_adjoint`` and for the coloured
``Objective.jacobian``; the H2 Gram matrix from its four terms; and the
time-slice band of a matrix over the free nodes, the reference layout of
``Objective.gauss_newton_band``."""

import math

import numpy as np
from scipy import sparse
from scipy.linalg import solve_banded

from mfg_forecast import calculus, model
from mfg_forecast.grid import Field
from mfg_forecast.objective import BAND_KD


def free_columns(grid) -> np.ndarray:
    """The flat C-order indices of the free nodes of z (t > 0), in the
    preconditioner's order: by time, then x, with u and m interleaved."""
    z = np.arange(2 * grid.nx * grid.nt).reshape(2, grid.nx, grid.nt)
    return z[:, :, 1:].transpose(2, 1, 0).ravel()


def h2_matrix(grid) -> sparse.csr_matrix:
    """H of one field, |f|_H2^2 = f^T H f over its C-order nodes, as the sum
    of its four terms: the trapezoid-weighted squares of f, Dt f, Dx f and
    Dxx f."""
    dtm, dxm, dxxm = calculus.diff_matrices(grid)
    wq = sparse.diags(np.outer(calculus.weights_x(grid),
                               calculus.weights_t(grid)).ravel())
    eye_x, eye_t = sparse.identity(grid.nx), sparse.identity(grid.nt)
    h = wq.copy()
    for op in (sparse.kron(eye_x, dtm), sparse.kron(dxm, eye_t),
               sparse.kron(dxxm, eye_t)):
        h = h + op.T @ wq @ op
    return h.tocsr()


def time_slice_band(matrix, grid) -> np.ndarray:
    """The block diagonal, in time, of a symmetric matrix over the free
    nodes in the preconditioner's order, as the LAPACK lower band
    ab[d, c] = M[c + d, c] with the entries that couple two times zeroed."""
    m = sparse.csc_matrix(matrix)
    n, block = m.shape[0], 2 * grid.nx
    ab = np.zeros((BAND_KD + 1, n))
    for d in range(BAND_KD + 1):
        c = np.arange(n - d)
        same_time = c // block == (c + d) // block
        ab[d, c[same_time]] = m.diagonal(-d)[same_time]
    return ab


def residual_jacobian_dense(z, spec, columns=None):
    """The Jacobian of ``model.residuals`` at the state z, (2 n, 2 n) for n
    nodes per field: rows R1 then R2, columns u then m, each field in C
    order; only the flat indices ``columns``, when given.  Column k is
    (r(z + e_k) - r(z - e_k))/2, which is exact because both residuals are
    quadratic; the unit-step states go to ``model.residuals`` as stacks of
    at most 128 columns, interaction kernel included."""
    columns = np.arange(z.size) if columns is None else np.asarray(columns)
    stencils = calculus.stencil_products(spec.grid)
    out = np.empty((z.size, columns.size))
    for start in range(0, columns.size, 128):
        chunk = columns[start:start + 128]
        steps = np.zeros((chunk.size, z.size))
        steps[np.arange(chunk.size), chunk] = 1.0
        steps = steps.reshape(chunk.size, *z.shape)
        points = np.concatenate((z + steps, z - steps)).swapaxes(0, 1)
        r = model.residuals(points, spec, stencils)[0]
        r = r.swapaxes(0, 1).reshape(2 * chunk.size, z.size)
        out[:, start:start + chunk.size] = (0.5 * (r[:chunk.size] - r[chunk.size:])).T
    return out


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
