"""Projected descent over states with pinned initial data.

The reference scheme is plain gradient descent with Armijo backtracking,
projected after every step so the t=0 slices hold the given data exactly.
The stopping rule is the first-order optimality ratio: the projected
gradient norm over the full gradient norm at the start state.

A limited-memory quasi-Newton accelerator shares the projection, line
search, stopping rule, and trace format; the plain descent path remains
the reference implementation of the analyzed scheme.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from mfg_forecast.carleman import ConvexParams
from mfg_forecast.grid import Field
from mfg_forecast.model import ProblemSpec
from mfg_forecast.objective import Objective, StatePair

CONVERGED = "converged"
BUDGET = "budget"
STALLED = "stalled"


@dataclass(frozen=True)
class OptimizerConfig:
    step0: float = 1.0
    tol: float = 1e-5
    max_iters: int = 20000
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5
    max_backtracks: int = 60
    method: str = "gd"  # "gd" (reference scheme) or "lbfgs" (accelerator)
    lbfgs_memory: int = 10

    def __post_init__(self):
        if self.step0 <= 0 or self.tol <= 0:
            raise ValueError("step0 and tol must be positive")
        if not 0 < self.armijo_c < 1:
            raise ValueError(f"armijo_c must lie in (0, 1), got {self.armijo_c}")
        if not 0 < self.backtrack_factor < 1:
            raise ValueError(
                f"backtrack_factor must lie in (0, 1), got {self.backtrack_factor}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.method not in ("gd", "lbfgs"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    j1: float
    j2: float
    j3: float
    total: float
    grad_norm: float
    foo_ratio: float
    step: float
    state_norm: float


@dataclass
class IterationTrace:
    rows: list[TraceRow] = dataclass_field(default_factory=list)

    def append(self, row: TraceRow) -> None:
        self.rows.append(row)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("iter,j1,j2,j3,total,grad_norm,foo_ratio,step\n")
            for r in self.rows:
                fh.write(f"{r.iteration},{r.j1:.17g},{r.j2:.17g},{r.j3:.17g},"
                         f"{r.total:.17g},{r.grad_norm:.17g},{r.foo_ratio:.17g},"
                         f"{r.step:.17g}\n")

    def summary_dict(self) -> dict:
        if not self.rows:
            return {"iterations": 0}
        last = self.rows[-1]
        return {"iterations": len(self.rows),
                "final_objective": {"j1": last.j1, "j2": last.j2, "j3": last.j3,
                                    "total": last.total},
                "final_grad_norm": last.grad_norm,
                "final_first_order_optimality": last.foo_ratio,
                "final_state_norm": last.state_norm}

    def to_json(self) -> str:
        return json.dumps(self.summary_dict(), indent=2, sort_keys=True)


@dataclass(frozen=True)
class MinimizeResult:
    state: StatePair
    trace: IterationTrace
    status: str
    message: str = ""


def make_start(spec: ProblemSpec) -> StatePair:
    """Constant-in-time extension of the initial data."""
    u = np.tile(spec.u0[:, None], (1, spec.grid.nt))
    m = np.tile(spec.m0[:, None], (1, spec.grid.nt))
    return StatePair(Field(spec.grid, u), Field(spec.grid, m))


def project(state: StatePair, spec: ProblemSpec) -> StatePair:
    """Restore the pinned t=0 slices; all other entries pass through.

    Idempotent; an already-feasible state is returned unchanged.
    """
    if state.grid != spec.grid:
        raise ValueError("state must live on the spec grid")
    if (np.array_equal(state.u.values[:, 0], spec.u0) and
            np.array_equal(state.m.values[:, 0], spec.m0)):
        return state
    u = state.u.values.copy()
    m = state.m.values.copy()
    u[:, 0] = spec.u0
    m[:, 0] = spec.m0
    return StatePair(Field(spec.grid, u), Field(spec.grid, m),
                     state.constraint_mask)


def minimize(spec: ProblemSpec, params: ConvexParams, config: OptimizerConfig,
             start: StatePair | None = None,
             residual_weight: float = 1.0) -> MinimizeResult:
    """Minimize the weighted objective over states with pinned t=0 data.

    Iterates s_n = project(s_{n-1} - xi_n * grad), with xi_n from Armijo
    backtracking over {step0 * factor^k}.  Stops when the first-order
    optimality ratio falls below config.tol (converged), the iteration
    budget runs out (budget), or the line search cannot make progress
    within the backtrack limit (stalled, surfaced with a diagnostic).
    """
    obj = Objective(spec, params, residual_weight)
    state0 = project(start if start is not None else make_start(spec), spec)
    u = state0.u.values.copy()
    m = state0.m.values.copy()
    nx, nt = spec.grid.nx, spec.grid.nt

    _, gu0, gm0 = obj.value_and_gradient_arrays(u, m, masked=False)
    g0_norm = math.sqrt(float(np.sum(gu0**2) + np.sum(gm0**2)))
    trace = IterationTrace()
    if g0_norm == 0.0:
        bd = obj.value_arrays(u, m)
        trace.append(TraceRow(0, bd.j1, bd.j2, bd.j3, bd.total, 0.0, 0.0, 0.0,
                              _nodal_norm(u, m)))
        return MinimizeResult(_wrap(u, m, spec), trace, CONVERGED,
                              "start state is already stationary")

    if config.method == "lbfgs":
        return _run_lbfgs(obj, spec, config, u, m, g0_norm, trace)
    return _run_gd(obj, spec, config, u, m, g0_norm, trace)


def _nodal_norm(u, m) -> float:
    return math.sqrt(float(np.sum(u**2) + np.sum(m**2)))


def _wrap(u, m, spec) -> StatePair:
    return StatePair(Field(spec.grid, u), Field(spec.grid, m))


def _run_gd(obj: Objective, spec: ProblemSpec, config: OptimizerConfig,
            u, m, g0_norm, trace) -> MinimizeResult:
    beta = config.backtrack_factor
    k = 0  # warm-started backtrack exponent: step = step0 * beta^k
    accepted_step = 0.0
    status, message = BUDGET, "iteration budget exhausted"
    for it in range(config.max_iters):
        bd, gu, gm = obj.value_and_gradient_arrays(u, m, masked=True)
        g_sq = float(np.sum(gu**2) + np.sum(gm**2))
        g_norm = math.sqrt(g_sq)
        foo = g_norm / g0_norm
        trace.append(TraceRow(it, bd.j1, bd.j2, bd.j3, bd.total, g_norm, foo,
                              accepted_step, _nodal_norm(u, m)))
        if foo < config.tol:
            status, message = CONVERGED, ""
            break

        def armijo_ok(kk: int):
            xi = config.step0 * beta**kk
            trial = obj.value_arrays(u - xi * gu, m - xi * gm).total
            return trial <= bd.total - config.armijo_c * xi * g_sq, xi

        ok, xi = armijo_ok(k)
        if ok:
            while k > 0:
                ok_up, xi_up = armijo_ok(k - 1)
                if not ok_up:
                    break
                k, xi = k - 1, xi_up
        else:
            while not ok:
                k += 1
                if k > config.max_backtracks:
                    return MinimizeResult(
                        _wrap(u, m, spec), trace, STALLED,
                        f"line search failed after {config.max_backtracks} "
                        "backtracks; gradient and objective are likely inconsistent")
                ok, xi = armijo_ok(k)
        u = u - xi * gu
        m = m - xi * gm
        u[:, 0] = spec.u0  # masked gradient keeps these slices; re-pin exactly
        m[:, 0] = spec.m0
        accepted_step = xi
    return MinimizeResult(_wrap(u, m, spec), trace, status, message)


def _run_lbfgs(obj: Objective, spec: ProblemSpec, config: OptimizerConfig,
               u, m, g0_norm, trace) -> MinimizeResult:
    nx, nt = spec.grid.nx, spec.grid.nt
    n = nx * nt

    def split(z):
        return z[:n].reshape(nx, nt), z[n:].reshape(nx, nt)

    def value(z):
        zu, zm = split(z)
        return obj.value_arrays(zu, zm).total

    def value_and_grad(z):
        zu, zm = split(z)
        bd, gu, gm = obj.value_and_gradient_arrays(zu, zm, masked=True)
        return bd, np.concatenate([gu.ravel(), gm.ravel()])

    # Fixed diagonal preconditioner from the start state; the weight
    # profile makes the raw problem too ill-conditioned for plain scaling.
    diag_u, diag_m = obj.hessian_diag(u, m)
    h0 = 1.0 / np.concatenate([diag_u.ravel(), diag_m.ravel()])

    z = np.concatenate([u.ravel(), m.ravel()])
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    accepted_step = 0.0
    status, message = BUDGET, "iteration budget exhausted"
    bd, g = value_and_grad(z)
    for it in range(config.max_iters):
        g_norm = math.sqrt(float(g @ g))
        foo = g_norm / g0_norm
        zu, zm = split(z)
        trace.append(TraceRow(it, bd.j1, bd.j2, bd.j3, bd.total, g_norm, foo,
                              accepted_step, _nodal_norm(zu, zm)))
        if foo < config.tol:
            status, message = CONVERGED, ""
            break

        p = _two_loop_direction(g, s_hist, y_hist, h0)
        slope = float(p @ g)
        if slope >= 0.0:  # not a descent direction; fall back to scaled steepest
            s_hist.clear()
            y_hist.clear()
            p = -h0 * g
            slope = float(p @ g)

        xi = config.step0
        backtracks = 0
        while True:
            z_new = z + xi * p
            trial = value(z_new)
            if trial <= bd.total + config.armijo_c * xi * slope:
                break
            backtracks += 1
            if backtracks > config.max_backtracks:
                return MinimizeResult(
                    StatePair(Field(spec.grid, zu), Field(spec.grid, zm)),
                    trace, STALLED,
                    f"line search failed after {config.max_backtracks} "
                    "backtracks; gradient and objective are likely inconsistent")
            xi *= config.backtrack_factor
        # Direction is zero on the pinned plane; re-pin exactly anyway.
        zu_new, zm_new = split(z_new)
        zu_new[:, 0] = spec.u0
        zm_new[:, 0] = spec.m0
        bd_new, g_new = value_and_grad(z_new)
        s = z_new - z
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12 * math.sqrt(float(s @ s)) * math.sqrt(float(y @ y)):
            s_hist.append(s)
            y_hist.append(y)
            if len(s_hist) > config.lbfgs_memory:
                s_hist.pop(0)
                y_hist.pop(0)
        z, bd, g = z_new, bd_new, g_new
        accepted_step = xi
    zu, zm = split(z)
    return MinimizeResult(StatePair(Field(spec.grid, zu), Field(spec.grid, zm)),
                          trace, status, message)


def _two_loop_direction(g, s_hist, y_hist, h0):
    q = -g.copy()
    if not s_hist:
        return h0 * q
    alphas = []
    rhos = [1.0 / float(y @ s) for s, y in zip(s_hist, y_hist)]
    for i in range(len(s_hist) - 1, -1, -1):
        a = rhos[i] * float(s_hist[i] @ q)
        alphas.append(a)
        q -= a * y_hist[i]
    alphas.reverse()
    q = h0 * q
    for i in range(len(s_hist)):
        b = rhos[i] * float(y_hist[i] @ q)
        q += (alphas[i] - b) * s_hist[i]
    return q
