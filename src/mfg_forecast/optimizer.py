"""Preconditioned L-BFGS over states with pinned initial data.

The t=0 plane (column 0 of both fields) holds the given data and is never
moved: the gradient the iteration steps along is zero there, and every
trial state is pinned exactly before it is evaluated.  The paper proves
global convergence for gradient projection on this feasible set; the
shipped solver is limited-memory BFGS (Nocedal & Wright, Alg. 7.4) with
Armijo backtracking from a unit step, preconditioned by the Gauss-Newton
diagonal at the start state.  The stopping rule is the first-order
optimality ratio: the norm of the gradient on the free nodes over the full
gradient norm at the start state.

Each state is evaluated once (``Objective.value_arrays``), and the
iteration hands that evaluation on: the gradient at an accepted trial is
taken from the trial's evaluation, and the line quartic from the
evaluations at z and at the unit trial.

The residuals are quadratic, so J is an exact quartic along the search
line.  Once the unit step is rejected, the line search builds that quartic
(``Objective.line_quartic``) and skips every later trial it rejects by
more than a rounding margin; the trial it predicts to pass is evaluated
directly, and the direct value decides.  The steps, and so every iterate,
are those of plain Armijo backtracking, at fewer evaluations.
"""

from __future__ import annotations

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

ARMIJO_C = 1e-4  # sufficient-decrease constant
# A trial is skipped only when the line quartic rejects it by more than
# this fraction of the size of its terms (LineQuartic.size).
QUARTIC_MARGIN = 1e-9
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 60
LBFGS_MEMORY = 10  # curvature pairs kept


@dataclass(frozen=True)
class OptimizerConfig:
    tol: float = 1e-5
    max_iters: int = 20000

    def __post_init__(self):
        if not 0.0 < self.tol < 1.0:
            raise ValueError(f"tol must lie in (0, 1), got {self.tol}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


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
    evaluations: int  # direct J evaluations of the line search for this step


@dataclass
class IterationTrace:
    rows: list[TraceRow] = dataclass_field(default_factory=list)

    def append(self, row: TraceRow) -> None:
        self.rows.append(row)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("iter,j1,j2,j3,total,grad_norm,foo_ratio,step,evaluations\n")
            for r in self.rows:
                fh.write(f"{r.iteration},{r.j1:.17g},{r.j2:.17g},{r.j3:.17g},"
                         f"{r.total:.17g},{r.grad_norm:.17g},{r.foo_ratio:.17g},"
                         f"{r.step:.17g},{r.evaluations}\n")

    def summary_dict(self) -> dict:
        if not self.rows:
            return {"iterations": 0}
        last = self.rows[-1]
        return {"iterations": len(self.rows),
                "final_objective": {"j1": last.j1, "j2": last.j2, "j3": last.j3,
                                    "total": last.total},
                "final_grad_norm": last.grad_norm,
                "final_first_order_optimality": last.foo_ratio}


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


def minimize(spec: ProblemSpec, params: ConvexParams,
             config: OptimizerConfig) -> MinimizeResult:
    """Minimize the weighted objective from ``make_start(spec)``.

    Each iteration steps along the two-loop L-BFGS direction, with the
    step from Armijo backtracking over {BACKTRACK_FACTOR^k}; after the first
    rejection, trials the line quartic rejects are counted as backtracks
    without being evaluated.  Stops when the first-order optimality ratio
    falls below config.tol (converged), config.max_iters steps have been
    taken (budget), or the line search cannot make progress within the
    backtrack limit (stalled, surfaced with a diagnostic).  The trace has
    one row per state, the returned one last, with the direct evaluations
    of the step that reached it.
    """
    obj = Objective(spec, params)
    start = make_start(spec)
    u, m = start.u.values, start.m.values
    nx, nt = spec.grid.nx, spec.grid.nt
    n = nx * nt

    def split(z):
        return z[:n].reshape(nx, nt), z[n:].reshape(nx, nt)

    def pinned(gu, gm):
        """The gradient as one vector, zeroed on the fixed t=0 column."""
        gu[:, 0] = 0.0
        gm[:, 0] = 0.0
        return np.concatenate([gu.ravel(), gm.ravel()])

    trace = IterationTrace()
    ev = obj.value_arrays(u, m)  # the evaluation at z, the current state
    gu, gm = obj.value_and_gradient_arrays(ev)[1:]
    g0_norm = _nodal_norm(gu, gm)  # the full gradient, pinned column included
    if g0_norm == 0.0:
        trace.append(TraceRow(0, ev.j1, ev.j2, ev.j3, ev.total, 0.0, 0.0, 0.0, 0))
        return MinimizeResult(start, trace, CONVERGED,
                              "start state is already stationary")
    g = pinned(gu, gm)

    # Fixed diagonal preconditioner from the start state; the weight
    # profile makes the raw problem too ill-conditioned for plain scaling.
    diag_u, diag_m = obj.hessian_diag(u, m)
    h0 = 1.0 / np.concatenate([diag_u.ravel(), diag_m.ravel()])

    z = np.concatenate([u.ravel(), m.ravel()])
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho_hist: list[float] = []  # 1 / (y^T s) of each stored pair
    accepted_step, evaluations = 0.0, 0
    status, message = BUDGET, "iteration budget exhausted"
    # One row per state, the returned one included: rows = steps + 1.
    for it in range(config.max_iters + 1):
        g_norm = math.sqrt(float(g @ g))
        foo = g_norm / g0_norm
        trace.append(TraceRow(it, ev.j1, ev.j2, ev.j3, ev.total, g_norm, foo,
                              accepted_step, evaluations))
        if foo < config.tol:
            status, message = CONVERGED, ""
            break
        if it == config.max_iters:
            break

        p = _two_loop_direction(g, s_hist, y_hist, rho_hist, h0)
        slope = float(p @ g)
        if slope >= 0.0:  # not a descent direction; fall back to scaled steepest
            s_hist.clear()
            y_hist.clear()
            rho_hist.clear()
            p = -h0 * g
            slope = float(p @ g)

        xi = 1.0
        backtracks = evaluations = 0
        quartic = None
        while True:
            threshold = ARMIJO_C * xi * slope
            if quartic is None or not _quartic_rejects(quartic, xi, threshold):
                z_new = z + xi * p
                # Direction is zero on the pinned plane; re-pin exactly anyway.
                zu_new, zm_new = split(z_new)
                zu_new[:, 0] = spec.u0
                zm_new[:, 0] = spec.m0
                trial = obj.value_arrays(zu_new, zm_new)
                evaluations += 1
                if trial.total <= ev.total + threshold:
                    break
                if backtracks == 0:  # the trial is the unit step z + p
                    quartic = obj.line_quartic(ev, trial, *split(p))
                    if not quartic.is_finite():
                        quartic = None
            backtracks += 1
            if backtracks > MAX_BACKTRACKS:
                return MinimizeResult(
                    _wrap(ev.u, ev.m, spec), trace, STALLED,
                    f"line search failed after {MAX_BACKTRACKS} "
                    "backtracks; gradient and objective are likely inconsistent")
            xi *= BACKTRACK_FACTOR
        # Only the accepted trial's evaluation stays referenced: the one at
        # the old z is freed before the gradient's arrays are made.
        ev = trial
        gu, gm = obj.value_and_gradient_arrays(ev)[1:]
        g_new = pinned(gu, gm)
        s = z_new - z
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12 * math.sqrt(float(s @ s)) * math.sqrt(float(y @ y)):
            s_hist.append(s)
            y_hist.append(y)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > LBFGS_MEMORY:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)
        z, g = z_new, g_new
        accepted_step = xi
    return MinimizeResult(_wrap(ev.u, ev.m, spec), trace, status, message)


def _quartic_rejects(quartic, xi, threshold) -> bool:
    """Whether J(z + xi p) - J(z) certainly exceeds the Armijo threshold."""
    return quartic.phi(xi) > threshold + QUARTIC_MARGIN * quartic.size(xi)


def _nodal_norm(u, m) -> float:
    return math.sqrt(float(np.sum(u**2) + np.sum(m**2)))


def _wrap(u, m, spec) -> StatePair:
    return StatePair(Field(spec.grid, u), Field(spec.grid, m))


def _two_loop_direction(g, s_hist, y_hist, rhos, h0):
    """-H g by the two-loop recursion (Nocedal & Wright, Alg. 7.4).

    ``rhos`` holds 1 / (y^T s) for each stored pair, kept with the pair.
    """
    q = -g.copy()
    if not s_hist:
        return h0 * q
    alphas = []
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
