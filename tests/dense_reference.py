"""The package's last stencil applications written as dense (nx, nx)
products: the tests' references for the blocked forms in
``Objective.hessian_diag``, ``model.solve_fokker_planck`` and
``calculus.h10_norm_gamma``."""

import math

import numpy as np
from scipy.linalg import solve_banded

from mfg_forecast import calculus
from mfg_forecast.grid import Field


def hessian_diag_dense(obj, z):
    """``Objective.hessian_diag`` with each stencil square applied densely."""
    dtm, dxm, dxxm = calculus.diff_matrices(obj.grid)
    dt2, dx2, dxx2 = dtm**2, dxm**2, dxxm**2
    u, m = z
    ux_sq = (dxm @ u) ** 2
    du = 2.0 * (obj.w1 @ dt2) + 2.0 * (dxx2.T @ obj.w1)
    du += 2.0 * (dx2.T @ (obj.w1 * ux_sq))
    du += 2.0 * (dx2.T @ (m**2 * (dx2.T @ obj.w2)))
    dm = 2.0 * (obj.w2 @ dt2) + 2.0 * (dxx2.T @ obj.w2)
    dm += 2.0 * ux_sq * (dx2.T @ obj.w2)
    dm += 2.0 * obj.kernel**2 * (obj.wx_col**2 * obj.w1.sum(axis=0))
    dm += 2.0 * obj.w1 * obj.f**2
    ct, bx = obj.stencils.gram_t.matrix, obj.stencils.gram_x.matrix
    reg = 2.0 * obj.alpha * (obj.wx_col * np.diag(ct) +
                             np.diag(bx)[:, None] * obj.wt_row)
    return np.stack((du, dm)) + reg


def solve_fokker_planck_dense(u: Field, m0: np.ndarray) -> np.ndarray:
    """The Fokker-Planck march of ``model.solve_fokker_planck`` with u_x
    taken as the dense product Dx @ u."""
    grid = u.grid
    nx, nt, dt, dx = grid.nx, grid.nt, grid.dt, grid.dx
    dxxm = calculus.space_diff2_matrix(nx, dx)
    ux = calculus.space_diff_matrix(nx, dx) @ u.values
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


def h10_norm_gamma_dense(field: Field) -> float:
    """``calculus.h10_norm_gamma`` with d/dx applied as Dx @ f."""
    grid = field.grid
    ng = grid.n_t_gamma()
    fx = calculus.space_diff_matrix(grid.nx, grid.dx) @ field.values[:, :ng]
    dens = fx**2 + field.values[:, :ng] ** 2
    wt = calculus._trapezoid_weights(ng, grid.dt)
    return math.sqrt(float(calculus.weights_x(grid) @ dens @ wt))
