"""The weighted least-squares objective and its exact discrete gradient.

The scalar being minimized is

    J(u, m) = balance * int [ R1^2 + q*d*R2^2 ] * cwf^2
              + alpha * ( |u|_H2^2 + |m|_H2^2 )

with R1, R2 the two system residuals (stated once, in
``model.residuals``), cwf the time-decaying exponential
weight, balance = exp(-2*a*c^lam), and |f|_H2^2 the discrete H2 norm: the
summed squared L2 norms of f, d_dt f, d_dx f and d2_dx2 f over the
cylinder, with the calculus module's stencils and trapezoid weights.  The
gradient differentiates this discrete expression exactly (reverse
accumulation through every stencil), so the optimizer's descent directions
are consistent with the objective to machine precision; finite differences
are kept only as a verification oracle.

The trapezoid weight is separable, wq = outer(wx, wt), so the discrete H2
norm is a Gram form |f|^2 = <f, H f> with

    H f = wx[:, None] * (f @ ct) + (bx @ f) * wt[None, :],
    ct  = diag(wt) + Dt^T diag(wt) Dt                  (nt x nt),
    bx  = Dx^T diag(wx) Dx + Dxx^T diag(wx) Dxx        (nx x nx).

Both factors are symmetric and built once per ``Objective``.  One H f per
field serves all three uses: alpha*<f, H f> is the regularizer's value,
2*alpha*H f its gradient, and 2*alpha*diag(H) its block of the
preconditioner diagonal.

The t=0 plane (column 0 of both fields) holds the given initial data.  The
gradient here is the full one, column 0 included; the optimizer zeroes that
column before it steps, so the pinned data never move.

``value_arrays`` returns an evaluation: the breakdown of J together with
the state and the intermediates R1, R2, u_x, H u and H m.  The gradient and
the line quartic take evaluations, so a caller that already holds the
evaluation at a point hands it over instead of having it recomputed.

Both residuals are quadratic in (u, m), so along a line
R(z + xi p) = R(z) + xi a + xi^2 b exactly, with a = (R(z+p) - R(z-p))/2
and b = (R(z+p) + R(z-p))/2 - R(z), and J(z + xi p) is a quartic in xi.
``line_quartic`` builds its coefficients from the evaluations at z and at
the unit trial z + p, with H p = H(z+p) - H z, and one residual call at
z - p.

``model.residuals`` and ``value_arrays`` also take stacks of states,
(..., nx, nt), and reduce each term per state; the finite-difference oracle
evaluates the line points of many directions in one such call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from mfg_forecast import calculus, model
from mfg_forecast.carleman import ConvexParams, sample_neumann_field
from mfg_forecast.grid import Field, Grid
from mfg_forecast.model import ProblemSpec

# Nodes per field in one stacked evaluation of the finite-difference oracle
# (four line points times a chunk of directions); bounds its memory.
FD_STACK_NODES = 16384

_PER_STATE = "...ij,...ij->..."  # einsum of <a, b> for each state of a stack


@dataclass(frozen=True)
class StatePair:
    """A candidate (u, m) pair sharing one grid."""

    u: Field
    m: Field

    def __post_init__(self):
        if self.u.grid != self.m.grid:
            raise ValueError("u and m must share a grid")

    @property
    def grid(self) -> Grid:
        return self.u.grid


@dataclass(frozen=True)
class LineQuartic:
    """phi(xi) = J(z + xi p) - J(z) = c1 xi + c2 xi^2 + c3 xi^3 + c4 xi^4.

    Stack the square roots of the weighted residuals and of the regularizer
    into vectors: J(z + xi p) = |v0 + xi v1 + xi^2 v2|^2, with v0 from R(z)
    and z, v1 from a and p, v2 from b.  ``norms`` holds |v0|, |v1|, |v2|, so
    ``size(xi)`` = (|v0| + xi |v1| + xi^2 |v2|)^2 bounds, by Cauchy-Schwarz,
    every term that enters phi(xi) or a direct evaluation of J(z + xi p);
    the rounding error of both scales with it.
    """

    coefficients: tuple[float, float, float, float]
    norms: tuple[float, float, float]

    def phi(self, xi: float) -> float:
        c1, c2, c3, c4 = self.coefficients
        return xi * (c1 + xi * (c2 + xi * (c3 + xi * c4)))

    def size(self, xi: float) -> float:
        n0, n1, n2 = self.norms
        return (n0 + xi * (n1 + xi * n2)) ** 2

    def is_finite(self) -> bool:
        return all(math.isfinite(v) for v in self.coefficients + self.norms)


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """J at one evaluated state: its three nonnegative parts and their sum,
    with the state and the intermediates the gradient and the line quartic
    take.

    The parts are floats for one state and, for a stack of states, arrays
    over its stack axes.  ``u`` and ``m`` are the evaluated arrays
    themselves, not copies.  The arrays are neither compared nor shown, so
    two breakdowns are equal when their parts are.
    """

    j1: float
    j2: float
    j3: float
    total: float
    u: np.ndarray = dataclass_field(compare=False, repr=False)
    m: np.ndarray = dataclass_field(compare=False, repr=False)
    r1: np.ndarray = dataclass_field(compare=False, repr=False)
    r2: np.ndarray = dataclass_field(compare=False, repr=False)
    ux: np.ndarray = dataclass_field(compare=False, repr=False)
    hu: np.ndarray = dataclass_field(compare=False, repr=False)  # H u
    hm: np.ndarray = dataclass_field(compare=False, repr=False)  # H m


class Objective:
    """Evaluator bound to one problem and one parameter set.

    Precomputes stencil matrices and combined quadrature-times-weight
    arrays; evaluations are then a handful of small dense products.  No
    call changes the evaluator: what one evaluation gives the next call is
    passed to it as an ``ObjectiveBreakdown``.
    """

    def __init__(self, spec: ProblemSpec, params: ConvexParams):
        grid = spec.grid
        if abs(params.t_max - grid.t_max) > 1e-12:
            raise ValueError(
                f"params.t_max={params.t_max} does not match grid t_max={grid.t_max}")
        self.spec = spec
        self.params = params
        self.grid = grid
        self.stencils = calculus.diff_matrices(grid)
        self.dtm, self.dxm, self.dxxm = self.stencils
        wx, wt = calculus.weights_x(grid), calculus.weights_t(grid)
        wq = np.outer(wx, wt)
        profile = params.weight_profile(grid.t_nodes())
        self.w1 = wq * profile[None, :]
        self.w2 = self.w1 * (params.q * params.d)
        self.r = spec.r_field.values
        self.f = spec.f_field.values
        self.alpha = params.alpha
        self.kernel = spec.kernel
        # Gram factors of the H2 form (see the module docstring).
        self.wx_col = wx[:, None]
        self.wt_row = wt[None, :]
        self.ct = np.diag(wt) + self.dtm.T @ (wt[:, None] * self.dtm)
        self.bx = (self.dxm.T @ (self.wx_col * self.dxm) +
                   self.dxxm.T @ (self.wx_col * self.dxxm))

    # -- pieces ---------------------------------------------------------

    def _h2_apply(self, f: np.ndarray) -> np.ndarray:
        """H f, so that |f|_H2^2 = <f, H f> and its gradient is 2 H f."""
        out = self.wx_col * (f @ self.ct)
        out += (self.bx @ f) * self.wt_row
        return out

    def _h2_quadratic(self, f: np.ndarray) -> float:
        return float(np.vdot(f, self._h2_apply(f)))

    # -- public evaluations ---------------------------------------------

    def value_arrays(self, u: np.ndarray, m: np.ndarray) -> ObjectiveBreakdown:
        """J and its parts at (u, m), with the intermediates it computed.

        ``u`` and ``m`` may be stacks of states, (..., nx, nt); each part is
        then an array over the stack axes.  The gradient and the line
        quartic take the evaluation of one state; its caller keeps ``u``
        and ``m`` unchanged while the evaluation is in use.
        """
        r1, r2, ux = model.residuals(u, m, self.spec, self.stencils)
        hu, hm = self._h2_apply(u), self._h2_apply(m)
        stacked = u.ndim > 2
        if stacked:  # one inner product per state, over the last two axes
            j1 = np.einsum(_PER_STATE, self.w1 * r1, r1)
            j2 = np.einsum(_PER_STATE, self.w2 * r2, r2)
            j3 = self.alpha * (np.einsum(_PER_STATE, u, hu) +
                               np.einsum(_PER_STATE, m, hm))
        else:
            j1 = float(np.vdot(self.w1 * r1, r1))
            j2 = float(np.vdot(self.w2 * r2, r2))
            j3 = self.alpha * (float(np.vdot(u, hu)) + float(np.vdot(m, hm)))
        for name, v in (("j1", j1), ("j2", j2), ("j3", j3)):
            if not (np.isfinite(v).all() if stacked else math.isfinite(v)):
                raise ValueError(f"objective term {name} is non-finite")
        return ObjectiveBreakdown(j1, j2, j3, j1 + j2 + j3, u, m, r1, r2, ux, hu, hm)

    def hessian_diag(self, u: np.ndarray, m: np.ndarray):
        """Gauss-Newton diagonal of the Hessian at (u, m).

        Keeps only the residual-Jacobian and regularizer contributions,
        which is what a diagonal preconditioner needs: the entries span the
        weight profile's full dynamic range (seven orders at the working
        parameters) and equilibrating them is what makes the quasi-Newton
        path converge in the ill-conditioned tail.
        """
        dt2, dx2, dxx2 = self.dtm**2, self.dxm**2, self.dxxm**2
        ux = self.dxm @ u
        r_ux_sq = (self.r * ux) ** 2
        du = 2.0 * (self.w1 @ dt2) + 2.0 * (dxx2.T @ self.w1)
        du += 2.0 * (dx2.T @ (self.w1 * r_ux_sq))
        du += 2.0 * (dx2.T @ ((self.r * m) ** 2 * (dx2.T @ self.w2)))
        dm = 2.0 * (self.w2 @ dt2) + 2.0 * (dxx2.T @ self.w2)
        dm += 2.0 * r_ux_sq * (dx2.T @ self.w2)
        wx_sq = self.wx_col**2
        dm += 2.0 * self.kernel**2 * (wx_sq * self.w1.sum(axis=0))
        dm += 2.0 * self.w1 * self.f**2
        reg = 2.0 * self.alpha * (self.wx_col * np.diag(self.ct) +
                                  np.diag(self.bx)[:, None] * self.wt_row)
        return du + reg, dm + reg

    def value_and_gradient_arrays(self, ev: ObjectiveBreakdown):
        """The breakdown ``ev`` of one state (from ``value_arrays``) and the
        exact partials of J for every node value there."""
        g1 = self.w1 * ev.r1
        g1 *= 2.0  # dJ/dr1 = 2*w1*r1, doubled in place to spare an array
        g2 = self.w2 * ev.r2
        g2 *= 2.0
        # Value-equation residual: adjoints of d_dt, d2_dx2, the gradient
        # square, the interaction integral, and the f*m coupling.
        gu = g1 @ self.dtm + self.dxxm.T @ g1 - self.dxm.T @ (self.r * ev.ux * g1)
        gm = model.interaction_adjoint(self.kernel, self.grid, g1) + self.f * g1
        # Density-equation residual: adjoints of d_dt, d2_dx2 and the
        # flux-form divergence, in both arguments.
        dxt_g2 = self.dxm.T @ g2
        gu -= self.dxm.T @ (self.r * ev.m * dxt_g2)
        gm += g2 @ self.dtm - self.dxxm.T @ g2 - (self.r * ev.ux) * dxt_g2
        two_alpha = 2.0 * self.alpha
        gu += two_alpha * ev.hu
        gm += two_alpha * ev.hm
        if not (np.isfinite(gu).all() and np.isfinite(gm).all()):
            raise ValueError("objective gradient is non-finite")
        return ev, gu, gm

    def line_quartic(self, at_z: ObjectiveBreakdown, at_unit: ObjectiveBreakdown,
                     pu: np.ndarray, pm: np.ndarray) -> LineQuartic:
        """J(z + xi p) - J(z) as a quartic in xi, p = (pu, pm).

        ``at_z`` and ``at_unit`` are the evaluations at z and at the unit
        trial z + p; the residuals are evaluated once more, at z - p.  The
        coefficients may be non-finite when z - p overflows.
        """
        d01 = d02 = d11 = d12 = d22 = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            r1m, r2m, _ = model.residuals(at_z.u - pu, at_z.m - pm, self.spec,
                                          self.stencils)
            for w, r0, rp, rm in ((self.w1, at_z.r1, at_unit.r1, r1m),
                                  (self.w2, at_z.r2, at_unit.r2, r2m)):
                a = 0.5 * (rp - rm)
                b = 0.5 * (rp + rm) - r0
                wa, wb = w * a, w * b
                d01 += float(np.vdot(wa, r0))
                d02 += float(np.vdot(wb, r0))
                d11 += float(np.vdot(wa, a))
                d12 += float(np.vdot(wa, b))
                d22 += float(np.vdot(wb, b))
            # the regularizer is quadratic: H p = H(z+p) - H z
            d01 += self.alpha * (float(np.vdot(pu, at_z.hu)) +
                                 float(np.vdot(pm, at_z.hm)))
            d11 += self.alpha * (float(np.vdot(pu, at_unit.hu - at_z.hu)) +
                                 float(np.vdot(pm, at_unit.hm - at_z.hm)))
        return LineQuartic((2.0 * d01, d11 + 2.0 * d02, 2.0 * d12, d22),
                           (math.sqrt(at_z.total), math.sqrt(abs(d11)),
                            math.sqrt(abs(d22))))


@dataclass(frozen=True)
class ConvexityGap:
    """Bregman gap between two states and its theoretical floor."""

    gap: float
    floor: float


def convexity_probe(state1: StatePair, state2: StatePair, params: ConvexParams,
                    spec: ProblemSpec) -> ConvexityGap:
    """J(s2) - J(s1) - <J'(s1), s2 - s1>, with floor (alpha/2)*|s2 - s1|^2.

    Both states must share the grid and carry identical pinned t=0 data;
    the strong-convexity comparison is only defined for such pairs.
    """
    if state1.grid != state2.grid:
        raise ValueError("states must share a grid")
    if not (np.array_equal(state1.u.values[:, 0], state2.u.values[:, 0]) and
            np.array_equal(state1.m.values[:, 0], state2.m.values[:, 0])):
        raise ValueError("states must carry identical pinned initial data")
    obj = Objective(spec, params)
    u1, m1 = state1.u.values, state1.m.values
    u2, m2 = state2.u.values, state2.m.values
    b1, gu, gm = obj.value_and_gradient_arrays(obj.value_arrays(u1, m1))
    b2 = obj.value_arrays(u2, m2)
    inner = float(np.sum(gu * (u2 - u1)) + np.sum(gm * (m2 - m1)))
    gap = b2.total - b1.total - inner
    floor = 0.5 * params.alpha * (obj._h2_quadratic(u2 - u1) +
                                  obj._h2_quadratic(m2 - m1))
    return ConvexityGap(gap, floor)


def gradient_fd_check(spec: ProblemSpec, params: ConvexParams,
                      n_states: int = 10, n_directions: int = 50,
                      seed: int = 7) -> dict:
    """Compare the analytic gradient against five-point finite differences.

    Random smooth states, random unit directions supported off the pinned
    plane, step h = 1e-2*(1 + max|state|).  The residuals are quadratic in
    (u, m), so J is a quartic polynomial along any line and the five-point
    derivative (8(J(h) - J(-h)) - (J(2h) - J(-2h))) / (12h) carries no
    truncation error; the large step keeps round-off small.  The four line
    points of a chunk of directions are evaluated as one stack of states of
    at most ``FD_STACK_NODES`` nodes per field (one direction at least).
    Returns the worst relative disagreement over all (state, direction)
    pairs, NaN when any reading is NaN, so a reading that could not be made
    fails the gate; with no pair to check it raises ValueError rather than
    report a vacuous pass.
    """
    if n_states < 1 or n_directions < 1:
        raise ValueError(f"gradient check needs n_states >= 1 and n_directions "
                         f">= 1, got {n_states} and {n_directions}")
    rng = np.random.default_rng(seed)
    grid = spec.grid
    obj = Objective(spec, params)
    chunk = max(1, FD_STACK_NODES // (4 * grid.nx * grid.nt))
    worst = 0.0
    for _ in range(n_states):
        u = sample_neumann_field(grid, rng)
        m = sample_neumann_field(grid, rng)
        _, gu, gm = obj.value_and_gradient_arrays(obj.value_arrays(u, m))
        h = 1e-2 * (1.0 + max(np.abs(u).max(), np.abs(m).max()))
        steps = np.array([h, -h, 2 * h, -2 * h])[:, None, None, None]
        for start in range(0, n_directions, chunk):
            # (du, dm) of each direction in turn: the same stream as one
            # draw per field and direction, and per-field sums, so every
            # direction and analytic derivative is that of one at a time
            d = rng.standard_normal((min(chunk, n_directions - start), 2,
                                     grid.nx, grid.nt))
            d[..., 0] = 0.0
            du, dm = d[:, 0], d[:, 1]
            scale = np.sqrt(np.sum(du**2, axis=(1, 2)) + np.sum(dm**2, axis=(1, 2)))
            d /= scale[:, None, None, None]
            analytic = np.sum(gu * du, axis=(1, 2)) + np.sum(gm * dm, axis=(1, 2))
            j = obj.value_arrays(u + steps * du, m + steps * dm).total
            fd = (8.0 * (j[0] - j[1]) - (j[2] - j[3])) / (12 * h)
            rel = np.abs(analytic - fd) / (np.abs(analytic) + 1e-12)
            worst = np.maximum(worst, rel.max())  # max() would drop a NaN
    return {"max_rel_error": float(worst), "n_states": n_states,
            "n_directions": n_directions, "seed": seed,
            "step_rule": "five-point, 1e-2*(1+max|state|)"}
