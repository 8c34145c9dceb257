"""Discrete differential operators, quadrature, and lattice norms.

All stencils are second order in the interior.  Time derivatives switch to
one-sided second-order differences at t=0 and t=t_max so residuals are
defined on the full cylinder.  Spatial operators build in the zero-Neumann
boundary condition by ghost-node reflection: the ghost value mirrors the
first interior value, which forces d_dx = 0 on the boundary and turns the
second derivative there into 2*(f[1]-f[0])/dx^2.

Quadrature is the trapezoid rule on both axes, consistent with the
second-order stencils.

The stencils are banded, so on a refined grid a dense product with one
wastes almost all of its work.  ``stencil_products`` applies each of them,
and the two Gram factors of the discrete H2 form, by blocks of at most
``BLOCK`` rows, each multiplying only the columns its rows touch; a matrix
that fits in one block keeps its single dense product.  ``inner`` sums
long vectors in fixed-order chunks, so inner products, and every solve
built on them, do not depend on the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from mfg_forecast.grid import Field, Grid

# Rows (columns, for f @ A) per block of a stencil product.
BLOCK = 32
# Entries per partial sum of ``inner``: short enough that BLAS sums each
# partial on one thread.
DOT_CHUNK = 8192


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


class BlockedProduct:
    """f -> A @ f (``side="left"``) or f -> f @ A (``side="right"``) for a
    fixed banded matrix A, over the last two axes of f.

    A is applied by blocks of at most ``BLOCK`` rows (columns, on the
    right), and each block multiplies only the span of columns (rows) that
    its nonzero entries touch, so a product costs O(bandwidth) per entry
    instead of O(n).  A block whose entries are all zero writes zeros.  A
    matrix that fits in one block is applied as the one product A @ f
    (f @ A), with A itself as the operand.
    """

    def __init__(self, matrix: np.ndarray, side: str):
        self.matrix = matrix
        self.left = side == "left"
        a = matrix if self.left else matrix.T  # blocks are rows of a
        self.blocks = []  # (output slice, input slice or None, sub-matrix)
        if a.shape[0] <= BLOCK:
            return
        for start in range(0, a.shape[0], BLOCK):
            rows = slice(start, start + BLOCK)
            touched = np.flatnonzero(a[rows].any(axis=0))
            if touched.size == 0:
                self.blocks.append((rows, None, None))
                continue
            span = slice(int(touched[0]), int(touched[-1]) + 1)
            sub = a[rows, span] if self.left else a[rows, span].T
            self.blocks.append((rows, span, np.ascontiguousarray(sub)))

    def __call__(self, f: np.ndarray) -> np.ndarray:
        if not self.blocks:
            return self.matrix @ f if self.left else f @ self.matrix
        if self.left:
            out = np.empty(f.shape[:-2] + (self.matrix.shape[0], f.shape[-1]))
            for rows, span, sub in self.blocks:
                if sub is None:
                    out[..., rows, :] = 0.0
                else:
                    np.matmul(sub, f[..., span, :], out=out[..., rows, :])
        else:
            out = np.empty(f.shape[:-1] + (self.matrix.shape[1],))
            for cols, span, sub in self.blocks:
                if sub is None:
                    out[..., cols] = 0.0
                else:
                    np.matmul(f[..., span], sub, out=out[..., cols])
        return out


@dataclass(frozen=True)
class StencilProducts:
    """The stencil products of the residuals, their adjoints and the H2
    Gram form on one grid (``stencil_products``).  ``gram_t`` and
    ``gram_x`` apply the factors ct and bx of the objective's separable H2
    form (see the ``objective`` module).
    """

    d_dt: BlockedProduct  # f @ Dt^T
    d_dt_adjoint: BlockedProduct  # f @ Dt
    d_dx: BlockedProduct  # Dx @ f
    d_dx_adjoint: BlockedProduct  # Dx^T @ f
    d2_dx2: BlockedProduct  # Dxx @ f
    d2_dx2_adjoint: BlockedProduct  # Dxx^T @ f
    gram_t: BlockedProduct  # f @ ct
    gram_x: BlockedProduct  # bx @ f


@lru_cache(maxsize=None)
def stencil_products(grid: Grid) -> StencilProducts:
    """The blocked stencil and Gram products for a grid; cached and shared."""
    dtm, dxm, dxxm = diff_matrices(grid)
    wx_col = weights_x(grid)[:, None]
    wt = weights_t(grid)
    ct = np.diag(wt) + dtm.T @ (wt[:, None] * dtm)
    bx = dxm.T @ (wx_col * dxm) + dxxm.T @ (wx_col * dxxm)
    for gram in (ct, bx):
        gram.setflags(write=False)
    return StencilProducts(
        BlockedProduct(dtm.T, "right"), BlockedProduct(dtm, "right"),
        BlockedProduct(dxm, "left"), BlockedProduct(dxm.T, "left"),
        BlockedProduct(dxxm, "left"), BlockedProduct(dxxm.T, "left"),
        BlockedProduct(ct, "right"), BlockedProduct(bx, "left"))


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """<a, b> over all entries, the same for every BLAS thread count.

    Up to ``DOT_CHUNK`` entries this is ``np.vdot`` itself; a longer pair
    is summed as consecutive chunks of ``DOT_CHUNK`` entries, in order.
    """
    if a.size <= DOT_CHUNK:
        return float(np.vdot(a, b))
    a, b = a.ravel(), b.ravel()
    total = 0.0
    for start in range(0, a.size, DOT_CHUNK):
        stop = start + DOT_CHUNK
        total += float(np.vdot(a[start:stop], b[start:stop]))
    return total


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
    fx = stencil_products(grid).d_dx(field.values[:, :ng])
    dens = fx**2 + field.values[:, :ng] ** 2
    return math.sqrt(float(weights_x(grid) @ dens @ _trapezoid_weights(ng, grid.dt)))
