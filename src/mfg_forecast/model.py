"""The coupled mean-field-games system on the lattice.

Defines the problem container, the two residual operators (the HJB-side
equation for the value function u and the Fokker-Planck equation for the
density m), a forward Fokker-Planck solver, and the manufactured-solution
builder used for ground-truth verification.

Sign conventions, with r = -1 recovering the 1-D working form:

    hjb residual:  u_t + u_xx - r*(u_x)^2/2 + K * int m(y,t) dy + f*m
    fp residual:   m_t - m_xx - d/dx( r * m * u_x )

``residuals`` is the one place these two are stated.  The objective, the
relative-cost diagnostic, the Field wrapper ``hjb_residual``, the
manufactured-case builder and the manufactured source (-R1/m with f = 0)
all call it.

The whole coupled system is never time-marched: the u-equation is unstable
forward in time, which is exactly why the convexification route exists.
The forward solver here integrates only the Fokker-Planck half for a
*given* u, which is a stable parabolic problem.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import solve_banded

from mfg_forecast import calculus
from mfg_forecast.grid import Field, Grid, field_from_function, time_slice, \
    write_field_csv

# Below this floor the manufactured-source division amplifies noise
# beyond usefulness.
POSITIVITY_FLOOR = 1e-8


@dataclass(frozen=True)
class ProblemSpec:
    """One forecasting instance: coefficients, kernel, source, initial data.

    ``kernel`` is the constant interaction kernel K(x, y) = K.  The initial
    data may be noisy: m0 may dip below zero.
    """

    grid: Grid
    r_field: Field
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
        if self.r_field.grid != self.grid or self.f_field.grid != self.grid:
            raise ValueError("r_field and f_field must live on the spec grid")
        u0.setflags(write=False)
        m0.setflags(write=False)
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "m0", m0)


def make_problem_spec(grid: Grid, u0, m0, kernel: float,
                      f_field: Field | None = None,
                      r_field: Field | None = None) -> ProblemSpec:
    """Convenience constructor; f defaults to zero and r to the constant -1."""
    if f_field is None:
        f_field = Field(grid, np.zeros((grid.nx, grid.nt)))
    if r_field is None:
        r_field = Field(grid, np.full((grid.nx, grid.nt), -1.0))
    return ProblemSpec(grid, r_field, kernel, f_field, np.asarray(u0, float),
                       np.asarray(m0, float))


def apply_interaction(kernel: float, grid: Grid, m_values: np.ndarray) -> np.ndarray:
    """int K m(y, t_j) dy for all nodes, trapezoid in y.

    ``m_values`` is one (nx, nt) field or a stack of them, (..., nx, nt).
    Returns the (..., 1, nt) rows of the kernel constant times the total
    mass at each time, which broadcast against ``m_values``.
    """
    wx = calculus.weights_x(grid)
    return kernel * (wx @ m_values)[..., None, :]


def interaction_adjoint(kernel: float, grid: Grid, g_values: np.ndarray) -> np.ndarray:
    """Adjoint of apply_interaction in the plain nodal inner product."""
    wx = calculus.weights_x(grid)
    return kernel * np.outer(wx, g_values.sum(axis=0))


def residuals(u: np.ndarray, m: np.ndarray, spec: ProblemSpec, stencils):
    """The two system residuals (R1, R2) and u_x at every node.

    ``u`` and ``m`` are (nx, nt) fields or stacks of them, (..., nx, nt);
    the results have their shape.  ``stencils`` is the (Dt, Dx, Dxx) triple
    of ``calculus.diff_matrices`` for the spec grid, passed in so callers
    that hold it pay nothing extra.
    """
    dtm, dxm, dxxm = stencils
    r = spec.r_field.values
    ux = dxm @ u
    r1 = u @ dtm.T + dxxm @ u - 0.5 * r * ux * ux
    r1 += apply_interaction(spec.kernel, spec.grid, m)
    r1 += spec.f_field.values * m
    flux = r * m * ux
    r2 = m @ dtm.T - dxxm @ m - dxm @ flux
    return r1, r2, ux


def _field_residuals(u: Field, m: Field, spec: ProblemSpec):
    if u.grid != spec.grid or m.grid != spec.grid:
        raise ValueError("fields must live on the spec grid")
    return residuals(u.values, m.values, spec, calculus.diff_matrices(spec.grid))


def hjb_residual(u: Field, m: Field, spec: ProblemSpec) -> Field:
    """Pointwise residual of the value-function equation."""
    return Field(spec.grid, _field_residuals(u, m, spec)[0])


def solve_fokker_planck(u: Field, m0: np.ndarray, spec: ProblemSpec) -> Field:
    """March the density equation forward from m0 for a given u.

    Semi-implicit scheme: diffusion is backward-in-time (one tridiagonal
    solve per step), the drift divergence is explicit using u_x from the
    current level.  The drift divergence is central in the interior and
    one-sided at the boundary nodes; combined with the reflection stencil
    for diffusion this conserves the trapezoid mass of m exactly, since
    the drift flux vanishes on the boundary.
    """
    grid = spec.grid
    m0 = np.asarray(m0, dtype=float)
    if m0.shape != (grid.nx,):
        raise ValueError(f"m0 must have length nx={grid.nx}")
    if not np.isfinite(m0).all() or not np.isfinite(u.values).all():
        raise ValueError("non-finite input to the Fokker-Planck solver")
    if u.grid != grid:
        raise ValueError("u must live on the spec grid")

    nx, nt, dt, dx = grid.nx, grid.nt, grid.dt, grid.dx
    dxxm = calculus.space_diff2_matrix(nx, dx)
    ux = calculus.space_diff_matrix(nx, dx) @ u.values
    r = spec.r_field.values

    # Banded form of I - dt*Dxx for scipy.linalg.solve_banded.
    ab = np.zeros((3, nx))
    ab[1, :] = 1.0 - dt * np.diag(dxxm)
    ab[0, 1:] = -dt * np.diag(dxxm, 1)
    ab[2, :-1] = -dt * np.diag(dxxm, -1)

    m = np.empty((nx, nt))
    m[:, 0] = m0
    for j in range(nt - 1):
        flux = r[:, j] * m[:, j] * ux[:, j]
        div = np.empty(nx)
        div[1:-1] = (flux[2:] - flux[:-2]) / (2 * dx)
        div[0] = (flux[1] - flux[0]) / dx
        div[-1] = (flux[-1] - flux[-2]) / dx
        m[:, j + 1] = solve_banded((1, 1), ab, m[:, j] + dt * div)
    return Field(grid, m)


def manufactured_source(u: Field, m: Field, kernel: float,
                        r_field: Field | None = None) -> Field:
    """Source f making the hjb residual vanish identically at the nodes.

        f = -(1/m) * [ u_t + u_xx - r*(u_x)^2/2 + int K m dy ],

    that is -R1/m for the source-free problem.  Requires m strictly
    positive (min above 1e-8).  With the default r = -1 this is the
    working-form construction f = -(1/m)[u_t + u_xx + u_x^2/2 + int K m dy].
    """
    grid = u.grid
    if m.grid != grid:
        raise ValueError("u and m must share a grid")
    mmin = float(m.values.min())
    if mmin <= POSITIVITY_FLOOR:
        raise ValueError(
            f"density touches {mmin:.3e} (floor {POSITIVITY_FLOOR:.0e}); "
            "source construction would divide by a vanishing density")
    source_free = make_problem_spec(grid, time_slice(u, 0), time_slice(m, 0),
                                    kernel, r_field=r_field)
    return Field(grid, -hjb_residual(u, m, source_free).values / m.values)


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
    f_field: Field
    spec: ProblemSpec
    hjb_residual_norm: float
    fp_residual_norm: float
    label: str = ""


def _neumann_violation(u_fn: Callable[[float, float], float], grid: Grid) -> float:
    """Max |u_x| at the two spatial boundaries, from the continuous function."""
    eps = 1e-6
    worst = 0.0
    for x in (grid.x_min, grid.x_max):
        for t in grid.t_nodes():
            slope = (u_fn(x + eps, t) - u_fn(x - eps, t)) / (2 * eps)
            worst = max(worst, abs(slope))
    return worst


def build_manufactured_case(u_fn: Callable[[float, float], float],
                            m0_fn: Callable[[float], float],
                            kernel: float, grid: Grid,
                            label: str = "",
                            r_field: Field | None = None) -> ManufacturedCase:
    """Construct an exact solution: pick u, march m forward, back out f.

    Rejects a u that violates the zero-flux boundary condition (checked on
    the continuous function, tolerance 1e-8) and a marched density that
    loses positivity.
    """
    violation = _neumann_violation(u_fn, grid)
    if violation > 1e-8:
        raise ValueError(
            f"chosen u has boundary slope {violation:.3e}; zero-flux "
            "boundary conditions require u_x = 0 at the spatial endpoints")
    u_true = field_from_function(grid, u_fn)
    m0 = np.array([m0_fn(x) for x in grid.x_nodes()], dtype=float)
    base_spec = make_problem_spec(grid, time_slice(u_true, 0), m0, kernel,
                                  r_field=r_field)
    m_true = solve_fokker_planck(u_true, m0, base_spec)
    mmin = float(m_true.values.min())
    if mmin <= POSITIVITY_FLOOR:
        raise ValueError(
            f"marched density reaches {mmin:.3e}; the source construction "
            "needs a strictly positive density")
    f_field = manufactured_source(u_true, m_true, kernel,
                                  r_field=base_spec.r_field)
    spec = ProblemSpec(grid, base_spec.r_field, kernel, f_field,
                       time_slice(u_true, 0), time_slice(m_true, 0))
    r1, r2, _ = _field_residuals(u_true, m_true, spec)
    return ManufacturedCase(u_true, m_true, f_field, spec,
                            calculus.l2_norm_qt(Field(grid, r1)),
                            calculus.l2_norm_qt(Field(grid, r2)), label)


def write_case(case: ManufacturedCase, outdir) -> None:
    """Export the constituent fields as CSV plus a JSON sidecar."""
    os.makedirs(outdir, exist_ok=True)
    write_field_csv(case.u_true, os.path.join(outdir, "u_true.csv"))
    write_field_csv(case.m_true, os.path.join(outdir, "m_true.csv"))
    write_field_csv(case.f_field, os.path.join(outdir, "source_f.csv"))
    write_field_csv(case.spec.r_field, os.path.join(outdir, "coefficient_r.csv"))
    grid = case.spec.grid
    sidecar = {
        "label": case.label,
        "kernel": {"kind": "constant", "value": case.spec.kernel},
        "hjb_residual_norm": case.hjb_residual_norm,
        "fp_residual_norm": case.fp_residual_norm,
        "grid": {"x_min": grid.x_min, "x_max": grid.x_max, "t_max": grid.t_max,
                 "dx": grid.dx, "dt": grid.dt, "gamma": grid.gamma},
    }
    with open(os.path.join(outdir, "case.json"), "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")

