"""Discrete differential operators, quadrature, and lattice norms.

All stencils are second order in the interior.  Time derivatives switch to
one-sided second-order differences at t=0 and t=t_max so residuals are
defined on the full cylinder.  Spatial operators build in the zero-Neumann
boundary condition by ghost-node reflection: the ghost value mirrors the
first interior value, which forces d_dx = 0 on the boundary and turns the
second derivative there into 2*(f[1]-f[0])/dx^2.

Quadrature is the trapezoid rule on both axes, consistent with the
second-order stencils.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from mfg_forecast.grid import Field, Grid


@lru_cache(maxsize=None)
def time_diff_matrix(nt: int, dt: float) -> np.ndarray:
    """d/dt as an (nt, nt) matrix acting on time slices."""
    if nt < 3:
        raise ValueError(f"time derivative needs at least 3 nodes, got {nt}")
    d = np.zeros((nt, nt))
    for j in range(1, nt - 1):
        d[j, j - 1] = -1.0 / (2 * dt)
        d[j, j + 1] = 1.0 / (2 * dt)
    d[0, 0], d[0, 1], d[0, 2] = -3.0 / (2 * dt), 4.0 / (2 * dt), -1.0 / (2 * dt)
    d[-1, -1], d[-1, -2], d[-1, -3] = 3.0 / (2 * dt), -4.0 / (2 * dt), 1.0 / (2 * dt)
    d.setflags(write=False)
    return d


@lru_cache(maxsize=None)
def space_diff_matrix(nx: int, dx: float) -> np.ndarray:
    """d/dx with ghost reflection: boundary rows are identically zero."""
    if nx < 3:
        raise ValueError(f"space derivative needs at least 3 nodes, got {nx}")
    d = np.zeros((nx, nx))
    for i in range(1, nx - 1):
        d[i, i - 1] = -1.0 / (2 * dx)
        d[i, i + 1] = 1.0 / (2 * dx)
    d.setflags(write=False)
    return d


@lru_cache(maxsize=None)
def space_diff2_matrix(nx: int, dx: float) -> np.ndarray:
    """d^2/dx^2 with ghost reflection at both boundaries."""
    if nx < 3:
        raise ValueError(f"second space derivative needs at least 3 nodes, got {nx}")
    d = np.zeros((nx, nx))
    s = 1.0 / dx**2
    for i in range(1, nx - 1):
        d[i, i - 1] = s
        d[i, i] = -2.0 * s
        d[i, i + 1] = s
    d[0, 0], d[0, 1] = -2.0 * s, 2.0 * s
    d[-1, -1], d[-1, -2] = -2.0 * s, 2.0 * s
    d.setflags(write=False)
    return d


def diff_matrices(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Dt, Dx, Dxx) for a grid; cached and shared."""
    return (time_diff_matrix(grid.nt, grid.dt),
            space_diff_matrix(grid.nx, grid.dx),
            space_diff2_matrix(grid.nx, grid.dx))


@lru_cache(maxsize=None)
def _trapezoid_weights(n: int, step: float) -> np.ndarray:
    w = np.full(n, step)
    w[0] = w[-1] = step / 2
    w.setflags(write=False)
    return w


def weights_x(grid: Grid) -> np.ndarray:
    return _trapezoid_weights(grid.nx, grid.dx)


def weights_t(grid: Grid) -> np.ndarray:
    return _trapezoid_weights(grid.nt, grid.dt)


def weights_t_gamma(grid: Grid) -> np.ndarray:
    """Trapezoid weights on the time nodes with t_j <= gamma * t_max."""
    return _trapezoid_weights(grid.n_t_gamma(), grid.dt)


def integrate_x(grid: Grid, values: np.ndarray) -> float:
    """Trapezoid integral of nodal values over [x_min, x_max]."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.nx,):
        raise ValueError(f"expected {grid.nx} nodal values, got shape {values.shape}")
    return float(weights_x(grid) @ values)


def integrate_qt(grid: Grid, values: np.ndarray) -> float:
    """Trapezoid integral of an (nx, nt) array over the full cylinder."""
    return float(weights_x(grid) @ values @ weights_t(grid))


def l2_norm_qt(field: Field) -> float:
    """L2 norm over the full cylinder."""
    return math.sqrt(integrate_qt(field.grid, field.values**2))


def h10_norm_gamma(field: Field) -> float:
    """H^{1,0} norm over the early-time sub-cylinder [0, gamma*t_max].

    sqrt of the integral of (d_dx f)^2 + f^2, time range truncated to the
    last node at or below gamma*t_max.
    """
    grid = field.grid
    ng = grid.n_t_gamma()
    fx = space_diff_matrix(grid.nx, grid.dx) @ field.values[:, :ng]
    dens = fx**2 + field.values[:, :ng] ** 2
    return math.sqrt(float(weights_x(grid) @ dens @ weights_t_gamma(grid)))
