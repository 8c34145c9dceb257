"""Both sides of the Carleman estimates for one field (or pair) at a time:
the tests' independent reference for the checkers' quadratic forms.

Each term is formed from the nodal values with the package's stencils and
trapezoid weights, one sample at a time, as the estimates state them.
"""

import math

import numpy as np

from mfg_forecast import calculus
from mfg_forecast.carleman import log_cwf, sample_neumann_field


def sequential_draws(grid, seed, count):
    rng = np.random.default_rng(seed)
    return [sample_neumann_field(grid, rng) for _ in range(count)]


def _qt(grid, dens, wsq):
    return float(calculus.weights_x(grid) @ dens @ (calculus.weights_t(grid) * wsq))


def _wsq(grid, lam, c):
    logw = log_cwf(grid.t_nodes(), lam, c, grid.t_max)
    return np.exp(2.0 * (logw - logw[0]))


def carleman_terms(u, lam, c, grid):
    """(LHS, bracket) of the standard estimate LHS >= C1 * bracket."""
    dtm, dxm, dxxm = calculus.diff_matrices(grid)
    wx = calculus.weights_x(grid)
    wsq = _wsq(grid, lam, c)
    end_factor = math.exp(2.0 * (c**lam - log_cwf(0.0, lam, c, grid.t_max)))
    init_factor = lam * (grid.t_max + c) ** lam
    ut, ux, uxx = u @ dtm.T, dxm @ u, dxxm @ u
    lhs = _qt(grid, (ut + uxx) ** 2, wsq)
    s = math.sqrt(lam) * _qt(grid, ux**2, wsq)
    s += lam**2 * c**lam * _qt(grid, u**2, wsq)
    s -= end_factor * float(wx @ (ux[:, -1] ** 2 + u[:, -1] ** 2))
    s -= init_factor * float(wx @ (u[:, 0] ** 2))
    return lhs, s


def quasi_terms(u, v, g, lam, c, grid):
    """(LHS, explicit, rescue) of LHS >= explicit - C2 * rescue."""
    dtm, dxm, dxxm = calculus.diff_matrices(grid)
    wx = calculus.weights_x(grid)
    wsq = _wsq(grid, lam, c)
    factor = lam * (grid.t_max + c) ** lam
    ut, ux, uxx = u @ dtm.T, dxm @ u, dxxm @ u
    vx, vxx = dxm @ v, dxxm @ v
    lhs = _qt(grid, (ut - uxx + g.values * vxx) ** 2, wsq)
    explicit = lam * c ** (lam - 1.0) * _qt(grid, ux**2, wsq)
    explicit += 0.25 * lam**2 * c ** (2.0 * lam - 2.0) * _qt(grid, u**2, wsq)
    d_term = factor * _qt(grid, vx**2, wsq)
    d_term += factor * float(wx @ (u[:, 0] ** 2))
    return lhs, explicit, d_term
