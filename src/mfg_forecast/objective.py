"""The weighted least-squares objective and its exact discrete gradient.

The scalar being minimized is

    J(u, m) = balance * int [ R1^2 + q*d*R2^2 ] * cwf^2
              + alpha * ( |u|_H2^2 + |m|_H2^2 )

with R1, R2 the two system residuals, cwf the time-decaying exponential
weight, balance = exp(-2*a*c^lam), and the discrete-H2 regularizer from
the calculus module.  The gradient differentiates this discrete expression
exactly (reverse accumulation through every stencil), so the optimizer's
descent directions are consistent with the objective to machine precision;
finite differences are kept only as a verification oracle.

The trapezoid weight is separable, wq = outer(wx, wt), so the discrete H2
norm is a Gram form |f|^2 = <f, H f> with

    H f = wx[:, None] * (f @ ct) + (bx @ f) * wt[None, :],
    ct  = diag(wt) + Dt^T diag(wt) Dt                  (nt x nt),
    bx  = Dx^T diag(wx) Dx + Dxx^T diag(wx) Dxx        (nx x nx).

Both factors are symmetric and built once per ``Objective``.  One H f per
field serves all three uses: alpha*<f, H f> is the regularizer's value,
2*alpha*H f its gradient, and 2*alpha*diag(H) its block of the
preconditioner diagonal.

States carry a constraint mask over the t=0 plane: those nodes hold the
given initial data and the gradient is projected to zero there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mfg_forecast import calculus, model
from mfg_forecast.carleman import ConvexParams, sample_neumann_field
from mfg_forecast.grid import Field, Grid
from mfg_forecast.model import ProblemSpec


def pinned_mask(grid: Grid) -> np.ndarray:
    """Boolean (nx, nt) mask, True on the fixed t=0 plane."""
    mask = np.zeros((grid.nx, grid.nt), dtype=bool)
    mask[:, 0] = True
    mask.setflags(write=False)
    return mask


@dataclass(frozen=True)
class StatePair:
    """A candidate (u, m) pair sharing one grid.

    ``constraint_mask`` marks nodes whose values are fixed during
    optimization; by construction this is the whole t=0 plane of both
    fields.
    """

    u: Field
    m: Field
    constraint_mask: np.ndarray | None = None

    def __post_init__(self):
        if self.u.grid != self.m.grid:
            raise ValueError("u and m must share a grid")
        mask = self.constraint_mask
        if mask is None:
            mask = pinned_mask(self.u.grid)
        else:
            mask = np.array(mask, dtype=bool)
            if mask.shape != self.u.values.shape:
                raise ValueError("constraint mask shape must match the fields")
            mask.setflags(write=False)
        object.__setattr__(self, "constraint_mask", mask)

    @property
    def grid(self) -> Grid:
        return self.u.grid

    def nodal_norm(self) -> float:
        return math.sqrt(float(np.sum(self.u.values**2) + np.sum(self.m.values**2)))


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """The three nonnegative parts of the objective and their sum."""

    j1: float
    j2: float
    j3: float
    total: float

    def to_dict(self) -> dict:
        return {"j1": self.j1, "j2": self.j2, "j3": self.j3, "total": self.total}


class Objective:
    """Evaluator bound to one problem and one parameter set.

    Precomputes stencil matrices and combined quadrature-times-weight
    arrays; evaluations are then a handful of small dense products.
    ``residual_weight`` scales the two residual terms and exists so tests
    can isolate the quadratic regularizer (residual_weight=0); it is 1 in
    production use.
    """

    def __init__(self, spec: ProblemSpec, params: ConvexParams,
                 residual_weight: float = 1.0):
        grid = spec.grid
        if abs(params.t_max - grid.t_max) > 1e-12:
            raise ValueError(
                f"params.t_max={params.t_max} does not match grid t_max={grid.t_max}")
        self.spec = spec
        self.params = params
        self.grid = grid
        self.dtm, self.dxm, self.dxxm = calculus.diff_matrices(grid)
        wx, wt = calculus.weights_x(grid), calculus.weights_t(grid)
        wq = np.outer(wx, wt)
        profile = params.weight_profile(grid.t_nodes())
        self.w1 = wq * profile[None, :] * residual_weight
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

    def residual_arrays(self, u: np.ndarray, m: np.ndarray):
        ux = self.dxm @ u
        r1 = u @ self.dtm.T + self.dxxm @ u - 0.5 * self.r * ux * ux
        r1 += model.apply_interaction(self.kernel, self.grid, m)
        r1 += self.f * m
        flux = self.r * m * ux
        r2 = m @ self.dtm.T - self.dxxm @ m - self.dxm @ flux
        return r1, r2, ux

    def _h2_apply(self, f: np.ndarray) -> np.ndarray:
        """H f, so that |f|_H2^2 = <f, H f> and its gradient is 2 H f."""
        out = self.wx_col * (f @ self.ct)
        out += (self.bx @ f) * self.wt_row
        return out

    def _h2_quadratic(self, f: np.ndarray) -> float:
        return float(np.vdot(f, self._h2_apply(f)))

    def _evaluate(self, u: np.ndarray, m: np.ndarray):
        """Breakdown plus the intermediates the gradient reuses.

        Returns (breakdown, ux, w1*r1, w2*r2, H u, H m); the value and the
        value-and-gradient paths share it, so both report identical parts.
        """
        r1, r2, ux = self.residual_arrays(u, m)
        wr1, wr2 = self.w1 * r1, self.w2 * r2
        hu, hm = self._h2_apply(u), self._h2_apply(m)
        j1 = float(np.vdot(wr1, r1))
        j2 = float(np.vdot(wr2, r2))
        j3 = self.alpha * (float(np.vdot(u, hu)) + float(np.vdot(m, hm)))
        for name, v in (("j1", j1), ("j2", j2), ("j3", j3)):
            if not math.isfinite(v):
                raise ValueError(f"objective term {name} is non-finite")
        return ObjectiveBreakdown(j1, j2, j3, j1 + j2 + j3), ux, wr1, wr2, hu, hm

    # -- public evaluations ---------------------------------------------

    def value_arrays(self, u: np.ndarray, m: np.ndarray) -> ObjectiveBreakdown:
        return self._evaluate(u, m)[0]

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
        if self.kernel.constant is not None:
            dm += 2.0 * self.kernel.constant**2 * (wx_sq * self.w1.sum(axis=0))
        else:
            dm += 2.0 * wx_sq * ((self.kernel.table**2).T @ self.w1)
        dm += 2.0 * self.w1 * self.f**2
        reg = 2.0 * self.alpha * (self.wx_col * np.diag(self.ct) +
                                  np.diag(self.bx)[:, None] * self.wt_row)
        return du + reg, dm + reg

    def value_and_gradient_arrays(self, u: np.ndarray, m: np.ndarray,
                                  masked: bool = True):
        """Objective breakdown plus exact partials for every node value."""
        breakdown, ux, g1, g2, hu, hm = self._evaluate(u, m)
        g1 *= 2.0  # dJ/dr1 = 2*w1*r1, doubled in place to spare an array
        g2 *= 2.0
        # Value-equation residual: adjoints of d_dt, d2_dx2, the gradient
        # square, the interaction integral, and the f*m coupling.
        gu = g1 @ self.dtm + self.dxxm.T @ g1 - self.dxm.T @ (self.r * ux * g1)
        gm = model.interaction_adjoint(self.kernel, self.grid, g1) + self.f * g1
        # Density-equation residual: adjoints of d_dt, d2_dx2 and the
        # flux-form divergence, in both arguments.
        dxt_g2 = self.dxm.T @ g2
        gu -= self.dxm.T @ (self.r * m * dxt_g2)
        gm += g2 @ self.dtm - self.dxxm.T @ g2 - (self.r * ux) * dxt_g2
        two_alpha = 2.0 * self.alpha
        gu += two_alpha * hu
        gm += two_alpha * hm
        if masked:
            gu[:, 0] = 0.0
            gm[:, 0] = 0.0
        if not (np.isfinite(gu).all() and np.isfinite(gm).all()):
            raise ValueError("objective gradient is non-finite")
        return breakdown, gu, gm


def eval_objective(state: StatePair, params: ConvexParams, spec: ProblemSpec,
                   residual_weight: float = 1.0) -> ObjectiveBreakdown:
    obj = Objective(spec, params, residual_weight)
    return obj.value_arrays(state.u.values, state.m.values)


def objective_gradient(state: StatePair, params: ConvexParams, spec: ProblemSpec,
                       masked: bool = True,
                       residual_weight: float = 1.0) -> StatePair:
    """Exact gradient, returned in state shape (masked entries zeroed)."""
    obj = Objective(spec, params, residual_weight)
    _, gu, gm = obj.value_and_gradient_arrays(state.u.values, state.m.values,
                                              masked=masked)
    return StatePair(Field(spec.grid, gu), Field(spec.grid, gm),
                     state.constraint_mask)


def first_order_optimality(grad_now: StatePair, grad_start: StatePair) -> float:
    """Norm of the projected current gradient over the initial full-gradient norm.

    Raises if the starting gradient vanishes; callers treat that start as
    already optimal.
    """
    mask = grad_now.constraint_mask
    gu = np.where(mask, 0.0, grad_now.u.values)
    gm = np.where(mask, 0.0, grad_now.m.values)
    num = math.sqrt(float(np.sum(gu**2) + np.sum(gm**2)))
    den = grad_start.nodal_norm()
    if den == 0.0:
        raise ValueError("starting gradient is zero; the start is already optimal")
    return num / den


@dataclass(frozen=True)
class ConvexityGap:
    """Bregman gap between two states and its theoretical floor."""

    gap: float
    floor: float


def convexity_probe(state1: StatePair, state2: StatePair, params: ConvexParams,
                    spec: ProblemSpec, residual_weight: float = 1.0) -> ConvexityGap:
    """J(s2) - J(s1) - <J'(s1), s2 - s1>, with floor (alpha/2)*|s2 - s1|^2.

    Both states must share the grid and carry identical pinned t=0 data;
    the strong-convexity comparison is only defined for such pairs.
    """
    if state1.grid != state2.grid:
        raise ValueError("states must share a grid")
    if not (np.array_equal(state1.u.values[:, 0], state2.u.values[:, 0]) and
            np.array_equal(state1.m.values[:, 0], state2.m.values[:, 0])):
        raise ValueError("states must carry identical pinned initial data")
    obj = Objective(spec, params, residual_weight)
    u1, m1 = state1.u.values, state1.m.values
    u2, m2 = state2.u.values, state2.m.values
    b1, gu, gm = obj.value_and_gradient_arrays(u1, m1, masked=True)
    b2 = obj.value_arrays(u2, m2)
    inner = float(np.sum(gu * (u2 - u1)) + np.sum(gm * (m2 - m1)))
    gap = b2.total - b1.total - inner
    floor = 0.5 * params.alpha * (obj._h2_quadratic(u2 - u1) +
                                  obj._h2_quadratic(m2 - m1))
    return ConvexityGap(gap, floor)


def gradient_fd_check(spec: ProblemSpec, params: ConvexParams,
                      n_states: int = 10, n_directions: int = 50,
                      seed: int = 7, amplitude: float = 1.0) -> dict:
    """Compare the analytic gradient against five-point finite differences.

    Random smooth states, random unit directions supported off the pinned
    plane, step h = 1e-2*(1 + max|state|).  The residuals are quadratic in
    (u, m), so J is a quartic polynomial along any line and the five-point
    derivative (8(J(h) - J(-h)) - (J(2h) - J(-2h))) / (12h) carries no
    truncation error; the large step keeps round-off small.  Returns the
    worst relative disagreement over all (state, direction) pairs.
    """
    rng = np.random.default_rng(seed)
    grid = spec.grid
    obj = Objective(spec, params)
    worst = 0.0
    for _ in range(n_states):
        u = sample_neumann_field(grid, rng, amplitude=amplitude)
        m = sample_neumann_field(grid, rng, amplitude=amplitude)
        _, gu, gm = obj.value_and_gradient_arrays(u, m, masked=True)
        h = 1e-2 * (1.0 + max(np.abs(u).max(), np.abs(m).max()))
        for _ in range(n_directions):
            du = rng.standard_normal((grid.nx, grid.nt))
            dm = rng.standard_normal((grid.nx, grid.nt))
            du[:, 0] = 0.0
            dm[:, 0] = 0.0
            scale = math.sqrt(float(np.sum(du**2) + np.sum(dm**2)))
            du /= scale
            dm /= scale
            analytic = float(np.sum(gu * du) + np.sum(gm * dm))

            def j_at(step):
                return obj.value_arrays(u + step * du, m + step * dm).total

            fd = (8.0 * (j_at(h) - j_at(-h)) - (j_at(2 * h) - j_at(-2 * h))) / (12 * h)
            rel = abs(analytic - fd) / (abs(analytic) + 1e-12)
            worst = max(worst, rel)
    return {"max_rel_error": worst, "n_states": n_states,
            "n_directions": n_directions, "seed": seed,
            "step_rule": "five-point, 1e-2*(1+max|state|)"}
