"""The coupled mean-field-games system on the lattice.

Defines the problem container, the two residual operators (the HJB-side
equation for the value function u and the Fokker-Planck equation for the
density m), a forward Fokker-Planck solver, and the manufactured-solution
builder used for ground-truth verification.

The residuals of the 1-D working form:

    hjb residual:  u_t + u_xx + (u_x)^2/2 + K * int m(y,t) dy + f*m
    fp residual:   m_t - m_xx + d/dx( m * u_x )

``residuals`` is the one place these two are stated.  The objective (its
value, and the coloured Jacobian of its preconditioner), the
relative-cost diagnostic, the manufactured-case builder and the
manufactured source (-R1/m with f = 0) all call it.  The only other code
that knows their terms is here too: ``residual_adjoint``, the adjoint the
objective's gradient applies.

The whole coupled system is never time-marched: the u-equation is unstable
forward in time, which is exactly why the convexification route exists.
The forward solver here integrates only the Fokker-Planck half for a
*given* u, which is a stable parabolic problem.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from mfg_forecast import calculus
from mfg_forecast.grid import Field, Grid, field_from_function, write_field_csv, \
    write_json

# Below this floor the manufactured-source division amplifies noise
# beyond usefulness.
POSITIVITY_FLOOR = 1e-8


@dataclass(frozen=True)
class ProblemSpec:
    """One forecasting instance: kernel, source, initial data.

    ``kernel`` is the constant interaction kernel K(x, y) = K.  The initial
    data may be noisy: m0 may dip below zero.
    """

    grid: Grid
    kernel: float
    f_field: Field
    u0: np.ndarray
    m0: np.ndarray

    def __post_init__(self):
        if not math.isfinite(self.kernel):
            raise ValueError(f"kernel must be finite, got {self.kernel}")
        u0 = np.array(self.u0, dtype=float)
        m0 = np.array(self.m0, dtype=float)
        for name, vec in (("u0", u0), ("m0", m0)):
            if vec.shape != (self.grid.nx,):
                raise ValueError(f"{name} must have length nx={self.grid.nx}")
            if not np.isfinite(vec).all():
                raise ValueError(f"{name} contains non-finite entries")
        if self.f_field.grid != self.grid:
            raise ValueError("f_field must live on the spec grid")
        u0.setflags(write=False)
        m0.setflags(write=False)
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "m0", m0)


def make_problem_spec(grid: Grid, u0, m0, kernel: float,
                      f_field: Field | None = None) -> ProblemSpec:
    """Convenience constructor; f defaults to zero."""
    if f_field is None:
        f_field = Field(grid, np.zeros((grid.nx, grid.nt)))
    return ProblemSpec(grid, kernel, f_field, u0, m0)


def apply_interaction(kernel: float, grid: Grid, m_values: np.ndarray) -> np.ndarray:
    """int K m(y, t_j) dy for all nodes, trapezoid in y.

    ``m_values`` is one (nx, nt) field or a stack of them, (..., nx, nt).
    Returns the (..., 1, nt) rows of the kernel constant times the total
    mass at each time, which broadcast against ``m_values``.
    """
    wx = calculus.weights_x(grid)
    return kernel * (wx @ m_values)[..., None, :]


def residuals(u: np.ndarray, m: np.ndarray, spec: ProblemSpec, stencils):
    """The two system residuals (R1, R2) and u_x at every node.

    ``u`` and ``m`` are (nx, nt) fields or stacks of them, (..., nx, nt);
    the results have their shape.  ``stencils`` is
    ``calculus.stencil_products`` of the spec grid, passed in so callers
    that hold it pay nothing extra.
    """
    ux = stencils.d_dx(u)
    r1 = stencils.d_dt(u)  # summed in place, in a + b + c order: fewer temporaries
    r1 += stencils.d2_dx2(u)
    r1 += 0.5 * ux * ux
    r1 += apply_interaction(spec.kernel, spec.grid, m)
    r1 += spec.f_field.values * m
    r2 = stencils.d_dt(m)
    r2 -= stencils.d2_dx2(m)
    r2 += stencils.d_dx(m * ux)
    return r1, r2, ux


def residual_adjoint(g1: np.ndarray, g2: np.ndarray, ux: np.ndarray,
                     m: np.ndarray, spec: ProblemSpec, stencils):
    """J^T (g1, g2) as (gu, gm) fields: the adjoint, in the plain nodal
    inner product, of the residuals' Jacobian J at the state (u, m) whose
    residuals gave ``ux``, applied to one (nx, nt) multiplier per residual.
    """
    s = stencils
    # R1: adjoints of d_dt, d2_dx2, the gradient square, the interaction
    # integral, and the f*m coupling.
    gu = (s.d_dt_adjoint(g1) + s.d2_dx2_adjoint(g1) + s.d_dx_adjoint(ux * g1))
    wx = calculus.weights_x(spec.grid)
    gm = spec.kernel * np.outer(wx, g1.sum(axis=0)) + spec.f_field.values * g1
    # R2: adjoints of d_dt, d2_dx2 and the flux-form divergence, in both
    # arguments.
    dxt_g2 = s.d_dx_adjoint(g2)
    gu += s.d_dx_adjoint(m * dxt_g2)
    gm += s.d_dt_adjoint(g2) - s.d2_dx2_adjoint(g2) + ux * dxt_g2
    return gu, gm


def solve_fokker_planck(u: Field, m0: np.ndarray) -> Field:
    """March the density equation forward from m0 for a given u.

    Semi-implicit scheme: diffusion is backward-in-time (I - dt*Dxx is
    factored once, then solved per step), the drift divergence explicit,
    from u_x at the current level: central in the interior and one-sided
    at the boundary nodes.  With the reflection stencil for diffusion this
    conserves the trapezoid mass of m exactly, since the drift flux
    vanishes on the boundary.  The density lives on u's grid.
    """
    grid = u.grid
    m0 = np.asarray(m0, dtype=float)
    if m0.shape != (grid.nx,):
        raise ValueError(f"m0 must have length nx={grid.nx}")
    if not np.isfinite(m0).all() or not np.isfinite(u.values).all():
        raise ValueError("non-finite input to the Fokker-Planck solver")

    nx, nt, dt, dx = grid.nx, grid.nt, grid.dt, grid.dx
    ux = calculus.stencil_products(grid).d_dx(u.values).T

    # LAPACK's tridiagonal LU of I - dt*Dxx, once; each step's ?gttrs solve
    # does the arithmetic of the ?gtsv that scipy's solve_banded calls
    band = -dt * calculus.space_diff2_matrix(nx, dx)
    *lu, info = dgttrf(np.diag(band, -1), 1.0 + np.diag(band), np.diag(band, 1))
    if info:
        raise np.linalg.LinAlgError("singular matrix")

    m = np.empty((nt, nx))  # one time level per row
    m[0] = m0
    div = np.empty(nx)
    for j in range(nt - 1):
        flux = m[j] * ux[j]
        div[1:-1] = (flux[2:] - flux[:-2]) / (2 * dx)
        div[0] = (flux[1] - flux[0]) / dx
        div[-1] = (flux[-1] - flux[-2]) / dx
        m[j + 1] = dgttrs(*lu, m[j] - dt * div, overwrite_b=True)[0]
    return Field(grid, m.T)  # a C-order copy: products of it round as before


def manufactured_source(u: Field, m: Field, kernel: float) -> Field:
    """Source f making the hjb residual vanish identically at the nodes.

        f = -(1/m) * [ u_t + u_xx + (u_x)^2/2 + int K m dy ],

    that is -R1/m for the source-free problem.  Requires m strictly
    positive (min above 1e-8).
    """
    grid = u.grid
    if m.grid != grid:
        raise ValueError("u and m must share a grid")
    mmin = float(m.values.min())
    if mmin <= POSITIVITY_FLOOR:
        raise ValueError(
            f"density touches {mmin:.3e} (floor {POSITIVITY_FLOOR:.0e}); "
            "source construction would divide by a vanishing density")
    source_free = make_problem_spec(grid, u.values[:, 0], m.values[:, 0], kernel)
    r1 = residuals(u.values, m.values, source_free, calculus.stencil_products(grid))[0]
    return Field(grid, -r1 / m.values)


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact (u, m, f) triple with recorded residual norms.

    ``hjb_residual_norm`` is machine-zero by construction.
    ``fp_residual_norm`` records the mismatch between the marching scheme
    (backward time difference, conservative drift divergence) and the
    residual stencils (central time difference, reflected divergence); it
    is reported rather than hidden, and recovery tolerances account for it.
    """

    u_true: Field
    m_true: Field
    spec: ProblemSpec  # its f_field is the manufactured source
    hjb_residual_norm: float
    fp_residual_norm: float
    label: str = ""


def _neumann_violation(u_fn: Callable[[float, float], float], grid: Grid) -> float:
    """Max |u_x| at the two spatial boundaries, from the continuous function."""
    eps = 1e-6
    worst = 0.0
    for x in (grid.x_min, grid.x_max):
        for t in grid.t_nodes():
            worst = max(worst, abs(u_fn(x + eps, t) - u_fn(x - eps, t)) / (2 * eps))
    return worst


def build_manufactured_case(u_fn: Callable[[float, float], float],
                            m0_fn: Callable[[float], float],
                            kernel: float, grid: Grid,
                            label: str = "") -> ManufacturedCase:
    """Construct an exact solution: pick u, march m forward, back out f.

    Rejects a u that violates the zero-flux boundary condition (checked on
    the continuous function, tolerance 1e-8); ``manufactured_source``
    rejects a marched density that loses positivity.
    """
    violation = _neumann_violation(u_fn, grid)
    if violation > 1e-8:
        raise ValueError(
            f"chosen u has boundary slope {violation:.3e}; zero-flux "
            "boundary conditions require u_x = 0 at the spatial endpoints")
    u_true = field_from_function(grid, u_fn)
    m0 = np.array([m0_fn(x) for x in grid.x_nodes()], dtype=float)
    m_true = solve_fokker_planck(u_true, m0)
    spec = ProblemSpec(grid, kernel, manufactured_source(u_true, m_true, kernel),
                       u_true.values[:, 0], m_true.values[:, 0])
    r1, r2, _ = residuals(u_true.values, m_true.values, spec,
                          calculus.stencil_products(grid))
    return ManufacturedCase(u_true, m_true, spec,
                            calculus.l2_norm_qt(Field(grid, r1)),
                            calculus.l2_norm_qt(Field(grid, r2)), label)


def write_case(case: ManufacturedCase, outdir) -> None:
    """Export the constituent fields as CSV plus a JSON sidecar."""
    os.makedirs(outdir, exist_ok=True)
    write_field_csv(case.u_true, os.path.join(outdir, "u_true.csv"))
    write_field_csv(case.m_true, os.path.join(outdir, "m_true.csv"))
    write_field_csv(case.spec.f_field, os.path.join(outdir, "source_f.csv"))
    grid = case.spec.grid
    sidecar = {
        "label": case.label,
        "kernel": {"kind": "constant", "value": case.spec.kernel},
        "hjb_residual_norm": case.hjb_residual_norm,
        "fp_residual_norm": case.fp_residual_norm,
        "grid": {"x_min": grid.x_min, "x_max": grid.x_max, "t_max": grid.t_max,
                 "dx": grid.dx, "dt": grid.dt, "gamma": grid.gamma},
    }
    write_json(os.path.join(outdir, "case.json"), sidecar)

