"""The weighted least-squares objective and its exact discrete gradient.

The state is one array z of shape (2, nx, nt): z[0] = u, z[1] = m.  The
scalar being minimized is

    J(z) = balance * int [ R1^2 + q*d*R2^2 ] * cwf^2
           + alpha * ( |u|_H2^2 + |m|_H2^2 )

with R1, R2 the two system residuals (stated once, in
``model.residuals``), cwf the time-decaying exponential
weight, balance = exp(-2*a*c^lam), and |f|_H2^2 the discrete H2 norm: the
summed squared L2 norms of f, d_dt f, d_dx f and d2_dx2 f over the
cylinder, with the calculus module's stencils and trapezoid weights.  The
gradient, 2*w*R through ``model.residual_adjoint`` plus 2*alpha*H z,
differentiates this discrete expression exactly, so the optimizer's descent
directions are consistent with the objective to machine precision; finite
differences are kept only as a verification oracle.

The trapezoid weight is separable, wq = outer(wx, wt), so the discrete H2
norm is a Gram form |f|^2 = <f, H f> with

    H f = wx[:, None] * (f @ ct) + (bx @ f) * wt[None, :],
    ct  = diag(wt) + Dt^T diag(wt) Dt                  (nt x nt),
    bx  = Dx^T diag(wx) Dx + Dxx^T diag(wx) Dxx        (nx x nx).

Both factors are symmetric and banded, and are built once per grid with
the stencil products (``calculus.stencil_products``).  One H f per field
serves all three uses: alpha*<f, H f> is the regularizer's value,
2*alpha*H f its gradient, and 2*alpha*diag(H) its block of the
preconditioner diagonal.  Each field is applied and reduced on its own
(one product and one inner product per field), which fixes the order of
every floating-point sum.

The t=0 plane (z[:, :, 0]) holds the given initial data.  The gradient
here is the full one, column 0 included; the optimizer zeroes that column
before it steps, so the pinned data never move.

``value_arrays`` returns an evaluation: the breakdown of J together with
the state and the intermediates R1, R2, u_x and H z.  The gradient and
the line quartic take evaluations, so a caller that already holds the
evaluation at a point hands it over instead of having it recomputed.

Both residuals are quadratic in (u, m), so along a line
R(z + xi p) = R(z) + xi a + xi^2 b exactly, with a = (R(z+p) - R(z-p))/2
and b = (R(z+p) + R(z-p))/2 - R(z), and J(z + xi p) is a quartic in xi.
``line_quartic`` builds its coefficients from the evaluations at z and at
the unit trial z + p, with H p = H(z+p) - H z, and one residual call at
z - p.

``model.residuals`` and ``value_arrays`` also take stacks of states, with
the field axis first, (2, ..., nx, nt), and reduce each term per state;
the finite-difference oracle evaluates the line points of many directions
in one such call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from mfg_forecast import calculus, model
from mfg_forecast.carleman import ConvexParams, sample_neumann_field
from mfg_forecast.model import ProblemSpec

# Nodes per field in one stacked evaluation of the finite-difference oracle
# (four line points times a chunk of directions); bounds its memory.  Its
# stack-sized temporaries (64 KiB at most) are small enough that freeing
# them does not trim the C heap for the next chunk to fault in again: at
# 16384 a 21x11 check took thousands of minor page faults, here fewer
# than ten.
FD_STACK_NODES = 8192
FD_STATES = 10  # random states of the finite-difference oracle
FD_DIRECTIONS = 50  # random unit directions at each state

_PER_STATE = "...ij,...ij->..."  # einsum of <a, b> for each state of a stack


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
    over its stack axes.  ``z`` is the evaluated array itself, not a copy.
    The arrays are neither compared nor shown, so two breakdowns are equal
    when their parts are.
    """

    j1: float
    j2: float
    j3: float
    total: float
    z: np.ndarray = dataclass_field(compare=False, repr=False)
    r1: np.ndarray = dataclass_field(compare=False, repr=False)
    r2: np.ndarray = dataclass_field(compare=False, repr=False)
    ux: np.ndarray = dataclass_field(compare=False, repr=False)
    h: np.ndarray = dataclass_field(compare=False, repr=False)  # H z, per field


class Objective:
    """Evaluator bound to one problem and one parameter set.

    Precomputes combined quadrature-times-weight arrays and takes the
    grid's blocked stencil products; evaluations are then a handful of
    banded products and inner products.  No call changes the evaluator:
    what one evaluation gives the next call is passed to it as an
    ``ObjectiveBreakdown``.
    """

    def __init__(self, spec: ProblemSpec, params: ConvexParams):
        grid = spec.grid
        if abs(params.t_max - grid.t_max) > 1e-12:
            raise ValueError(
                f"params.t_max={params.t_max} does not match grid t_max={grid.t_max}")
        self.spec = spec
        self.stencils = calculus.stencil_products(grid)
        wx, wt = calculus.weights_x(grid), calculus.weights_t(grid)
        wq = np.outer(wx, wt)
        profile = params.weight_profile(grid.t_nodes())
        self.w1 = wq * profile[None, :]
        self.w2 = self.w1 * (params.q * params.d)
        self.alpha = params.alpha
        self.wx_col = wx[:, None]
        self.wt_row = wt[None, :]

    # -- pieces ---------------------------------------------------------

    def _h2_apply(self, z: np.ndarray) -> np.ndarray:
        """H f for each field f of z, so that |f|_H2^2 = <f, H f> and its
        gradient is 2 H f."""
        h = np.empty_like(z)
        for f, hf in zip(z, h):
            np.multiply(self.wx_col, self.stencils.gram_t(f), out=hf)
            t = self.stencils.gram_x(f)  # scaled and added in place
            t *= self.wt_row
            hf += t
            del t  # freed before the next field's products
        return h

    # -- public evaluations ---------------------------------------------

    def value_arrays(self, z: np.ndarray) -> ObjectiveBreakdown:
        """J and its parts at z, with the intermediates it computed.

        ``z`` may be a stack of states, (2, ..., nx, nt); each part is then
        an array over the stack axes.  The gradient and the line quartic
        take the evaluation of one state; its caller keeps ``z`` unchanged
        while the evaluation is in use.
        """
        u, m = z
        r1, r2, ux = model.residuals(u, m, self.spec, self.stencils)
        h = self._h2_apply(z)
        stacked = z.ndim > 3
        if stacked:  # one inner product per state, over the last two axes
            j1 = np.einsum(_PER_STATE, self.w1 * r1, r1)
            j2 = np.einsum(_PER_STATE, self.w2 * r2, r2)
            j3 = self.alpha * (np.einsum(_PER_STATE, u, h[0]) +
                               np.einsum(_PER_STATE, m, h[1]))
        else:
            j1 = calculus.inner(self.w1 * r1, r1)
            j2 = calculus.inner(self.w2 * r2, r2)
            j3 = self.alpha * (calculus.inner(u, h[0]) + calculus.inner(m, h[1]))
        for name, v in (("j1", j1), ("j2", j2), ("j3", j3)):
            if not (np.isfinite(v).all() if stacked else math.isfinite(v)):
                raise ValueError(f"objective term {name} is non-finite")
        return ObjectiveBreakdown(j1, j2, j3, j1 + j2 + j3, z, r1, r2, ux, h)

    def hessian_diag(self, z: np.ndarray) -> np.ndarray:
        """The preconditioner's diagonal curvature estimate at z, shaped
        like z: ``model.residual_diagonal`` plus the regularizer's exact
        diagonal 2*alpha*diag(H).

        The residual part squares each term on its own and drops the cross
        terms, so the sum is not the Gauss-Newton diagonal.  Its entries
        span the weight profile's full dynamic range (seven orders at the
        working parameters), and equilibrating them is what makes the
        quasi-Newton path converge in the ill-conditioned tail.
        """
        du, dm = model.residual_diagonal(z[0], z[1], self.w1, self.w2,
                                         self.spec, self.stencils)
        ct, bx = self.stencils.gram_t.matrix, self.stencils.gram_x.matrix
        reg = 2.0 * self.alpha * (self.wx_col * np.diag(ct) +
                                  np.diag(bx)[:, None] * self.wt_row)
        return np.stack((du, dm)) + reg

    def value_and_gradient_arrays(self, ev: ObjectiveBreakdown) -> np.ndarray:
        """The exact partials of J, one per node value, at the state that
        ``ev`` evaluated (from ``value_arrays``); shaped like z."""
        g1 = self.w1 * ev.r1
        g1 *= 2.0  # dJ/dr1 = 2*w1*r1, doubled in place to spare an array
        g2 = self.w2 * ev.r2
        g2 *= 2.0
        g = np.stack(model.residual_adjoint(g1, g2, ev.ux, ev.z[1], self.spec,
                                            self.stencils))
        g += (2.0 * self.alpha) * ev.h
        if not np.isfinite(g).all():
            raise ValueError("objective gradient is non-finite")
        return g

    def line_quartic(self, at_z: ObjectiveBreakdown, at_unit: ObjectiveBreakdown,
                     p: np.ndarray) -> LineQuartic:
        """J(z + xi p) - J(z) as a quartic in xi, for a direction p shaped
        like z.

        ``at_z`` and ``at_unit`` are the evaluations at z and at the unit
        trial z + p; the residuals are evaluated once more, at z - p.  The
        coefficients may be non-finite when z - p overflows.
        """
        d01 = d02 = d11 = d12 = d22 = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            u, m = at_z.z - p
            r1m, r2m, _ = model.residuals(u, m, self.spec, self.stencils)
            for w, r0, rp, rm in ((self.w1, at_z.r1, at_unit.r1, r1m),
                                  (self.w2, at_z.r2, at_unit.r2, r2m)):
                a = 0.5 * (rp - rm)
                b = 0.5 * (rp + rm) - r0
                wa, wb = w * a, w * b
                d01 += calculus.inner(wa, r0)
                d02 += calculus.inner(wb, r0)
                d11 += calculus.inner(wa, a)
                d12 += calculus.inner(wa, b)
                d22 += calculus.inner(wb, b)
            # the regularizer is quadratic: H p = H(z+p) - H z
            hp = at_unit.h - at_z.h
            d01 += self.alpha * (calculus.inner(p[0], at_z.h[0]) +
                                 calculus.inner(p[1], at_z.h[1]))
            d11 += self.alpha * (calculus.inner(p[0], hp[0]) +
                                 calculus.inner(p[1], hp[1]))
        return LineQuartic((2.0 * d01, d11 + 2.0 * d02, 2.0 * d12, d22),
                           (math.sqrt(at_z.total), math.sqrt(abs(d11)),
                            math.sqrt(abs(d22))))


def gradient_fd_check(spec: ProblemSpec, params: ConvexParams, seed: int = 7) -> dict:
    """Compare the analytic gradient against five-point finite differences.

    Random smooth states, random unit directions supported off the pinned
    plane, step h = 1e-2*(1 + max|state|).  The residuals are quadratic in
    (u, m), so J is a quartic polynomial along any line and the five-point
    derivative (8(J(h) - J(-h)) - (J(2h) - J(-2h))) / (12h) carries no
    truncation error; the large step keeps round-off small.  The four line
    points of a chunk of directions are evaluated as one stack of states of
    at most ``FD_STACK_NODES`` nodes per field (one direction at least).
    Returns the worst relative disagreement over all ``FD_STATES`` x
    ``FD_DIRECTIONS`` (state, direction) pairs, NaN when any reading is NaN,
    so a reading that could not be made fails the gate.
    """
    rng = np.random.default_rng(seed)
    grid = spec.grid
    obj = Objective(spec, params)
    chunk = max(1, FD_STACK_NODES // (4 * grid.nx * grid.nt))
    worst = 0.0
    for _ in range(FD_STATES):
        z = np.stack([sample_neumann_field(grid, rng) for _ in range(2)])
        g = obj.value_and_gradient_arrays(obj.value_arrays(z))
        h = 1e-2 * (1.0 + np.abs(z).max())
        steps = np.array([h, -h, 2 * h, -2 * h])[:, None, None, None]
        for start in range(0, FD_DIRECTIONS, chunk):
            # drawn direction by direction, (u, m) each, then viewed field
            # first; sums per field, so every direction and analytic
            # derivative is that of one at a time
            d = rng.standard_normal((min(chunk, FD_DIRECTIONS - start), 2,
                                     grid.nx, grid.nt)).swapaxes(0, 1)
            d[..., 0] = 0.0
            scale = np.sqrt(np.sum(d[0]**2, axis=(1, 2)) + np.sum(d[1]**2, axis=(1, 2)))
            d /= scale[:, None, None]
            analytic = (np.sum(g[0] * d[0], axis=(1, 2)) +
                        np.sum(g[1] * d[1], axis=(1, 2)))
            # the four line points of each direction: (2, 4, chunk, nx, nt)
            j = obj.value_arrays(z[:, None, None] + steps * d[:, None]).total
            fd = (8.0 * (j[0] - j[1]) - (j[2] - j[3])) / (12 * h)
            rel = np.abs(analytic - fd) / (np.abs(analytic) + 1e-12)
            worst = np.maximum(worst, rel.max())  # max() would drop a NaN
    return {"max_rel_error": float(worst), "n_states": FD_STATES,
            "n_directions": FD_DIRECTIONS, "seed": seed,
            "step_rule": "five-point, 1e-2*(1+max|state|)"}
