"""Preconditioned L-BFGS over states with pinned initial data.

The state is the objective's (2, nx, nt) array z, and every vector of the
iteration (gradient, direction, curvature pairs) has its shape.  The t=0
plane z[:, :, 0] holds the given data and is never moved: the gradient the
iteration steps along is zero there, and every trial state is pinned
exactly before it is evaluated.  The paper proves global convergence for
gradient projection on this feasible set; the shipped solver is
limited-memory BFGS (Nocedal & Wright, Alg. 7.4) with Armijo backtracking
from a unit step.  Its initial inverse Hessian H0 (N&W, section 7.2) is
the inverse of ``Objective.hessian_diag``: the block diagonal, in time, of
the kernel-free Gauss-Newton matrix, applied by a banded Cholesky solve.
It is built at the start state and rebuilt at the current state after
SHORT_RUN accepted steps in a row shorter than SHORT_STEP, the sign that
the blocks have gone stale and the direction is far too long; the
curvature pairs are kept.  A run of short steps rebuilds once, however
long it lasts.  A trial must also lower J: a tie with J(z)
makes no progress, however small its step.  The
stopping rule is the first-order optimality ratio: the norm of the
gradient on the free nodes over the full gradient norm at the start state.

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
from collections import deque
from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple

import numpy as np

from mfg_forecast.calculus import inner
from mfg_forecast.carleman import ConvexParams
from mfg_forecast.model import ProblemSpec
from mfg_forecast.objective import Objective

CONVERGED = "converged"
BUDGET = "budget"
STALLED = "stalled"

ARMIJO_C = 1e-4  # sufficient-decrease constant
# A trial is skipped only when the line quartic rejects it by more than
# this fraction of the size of its terms (LineQuartic.size).
QUARTIC_MARGIN = 1e-9
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 60
# Curvature pairs kept.  Over the block preconditioner, T2_1 at noise shifts
# 0 to 4 took at most 638 iterations with 3 to 5 pairs, up to 1400 with 6
# or 7, and up to 4379 with 10.
LBFGS_MEMORY = 5
# H0 is rebuilt when the last SHORT_RUN accepted steps were all shorter
# than SHORT_STEP.  The canned set's trace rows at noise shifts 0 to 7 fell
# from 399-1037 with H0 from the start state alone to 345-538; 2 or 5 steps,
# or a threshold of 1/8, did worse at some shift.
SHORT_STEP = 0.25
SHORT_RUN = 3


@dataclass(frozen=True)
class OptimizerConfig:
    tol: float = 1e-5
    max_iters: int = 20000

    def __post_init__(self):
        if not 0.0 < self.tol < 1.0:
            raise ValueError(f"tol must lie in (0, 1), got {self.tol}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


class TraceRow(NamedTuple):
    """One state of the iteration; a row of ``trace.csv`` as it stands."""

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
    preconditioner_builds: int = 0  # calls of Objective.hessian_diag

    def summary_dict(self) -> dict:
        last = self.rows[-1]
        return {"iterations": len(self.rows),
                "preconditioner_builds": self.preconditioner_builds,
                "final_objective": {"j1": last.j1, "j2": last.j2, "j3": last.j3,
                                    "total": last.total},
                "final_grad_norm": last.grad_norm,
                "final_first_order_optimality": last.foo_ratio}


@dataclass(frozen=True)
class MinimizeResult:
    state: np.ndarray  # the returned z, (2, nx, nt)
    trace: IterationTrace
    status: str
    message: str = ""


def make_start(spec: ProblemSpec) -> np.ndarray:
    """Constant-in-time extension of the initial data, as a state z."""
    data = np.stack((spec.u0, spec.m0))[:, :, None]
    return np.repeat(data, spec.grid.nt, axis=2)


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
    z = make_start(spec)
    data = z[:, :, 0].copy()

    trace = IterationTrace()
    ev = obj.value_arrays(z)  # the evaluation at z, the current state
    g = obj.value_and_gradient_arrays(ev)
    # the full gradient's norm, pinned column included, summed per field
    g0_norm = math.sqrt(float(np.sum(g[0]**2) + np.sum(g[1]**2)))
    if g0_norm == 0.0:
        trace.rows.append(TraceRow(0, ev.j1, ev.j2, ev.j3, ev.total, 0.0, 0.0, 0.0, 0))
        return MinimizeResult(z, trace, CONVERGED,
                              "start state is already stationary")
    g[:, :, 0] = 0.0

    # The weight profile makes the raw problem too ill-conditioned for
    # plain scaling: H0 is the Gauss-Newton blocks' solve, first at the start.
    h0 = obj.hessian_diag(z).solve
    trace.preconditioner_builds = 1

    pairs = deque(maxlen=LBFGS_MEMORY)  # (s, y, 1 / (y^T s)), oldest first
    accepted_step, evaluations = 0.0, 0
    short = 0  # accepted steps in a row shorter than SHORT_STEP
    status, message = BUDGET, "iteration budget exhausted"
    # One row per state, the returned one included: rows = steps + 1.
    for it in range(config.max_iters + 1):
        g_norm = math.sqrt(inner(g, g))
        foo = g_norm / g0_norm
        trace.rows.append(TraceRow(it, ev.j1, ev.j2, ev.j3, ev.total, g_norm,
                                   foo, accepted_step, evaluations))
        if foo < config.tol:
            status, message = CONVERGED, ""
            break
        if it == config.max_iters:
            break
        if short == SHORT_RUN:  # once per run of short steps
            h0 = None  # the old factor is freed before the new one is built
            h0 = obj.hessian_diag(z).solve
            trace.preconditioner_builds += 1

        p = _two_loop_direction(g, pairs, h0)
        slope = inner(p, g)
        if slope >= 0.0:  # not a descent direction; fall back to scaled steepest
            pairs.clear()
            p = -h0(g)
            slope = inner(p, g)

        xi = 1.0
        backtracks = evaluations = 0
        quartic = None
        while True:
            threshold = ARMIJO_C * xi * slope
            if quartic is None or not _quartic_rejects(quartic, xi, threshold):
                z_new = z + xi * p
                # Direction is zero on the pinned plane; re-pin exactly anyway.
                z_new[:, :, 0] = data
                trial = obj.value_arrays(z_new)
                evaluations += 1
                # Once the threshold is below half an ulp of J, a tie with
                # J(z) would pass the Armijo test alone.
                if trial.total <= ev.total + threshold and trial.total < ev.total:
                    break
                if backtracks == 0:  # the trial is the unit step z + p
                    quartic = obj.line_quartic(ev, trial, p)
                    if not quartic.is_finite():
                        quartic = None
            backtracks += 1
            if backtracks > MAX_BACKTRACKS:
                return MinimizeResult(
                    ev.z, trace, STALLED,
                    f"line search failed after {MAX_BACKTRACKS} "
                    "backtracks; gradient and objective are likely inconsistent")
            xi *= BACKTRACK_FACTOR
        # Only the accepted trial's evaluation stays referenced: the one at
        # the old z is freed before the gradient's arrays are made.
        ev = trial
        g_new = obj.value_and_gradient_arrays(ev)
        g_new[:, :, 0] = 0.0
        s = z_new - z
        y = g_new - g
        sy = inner(s, y)
        if sy > 1e-12 * math.sqrt(inner(s, s)) * math.sqrt(inner(y, y)):
            pairs.append((s, y, 1.0 / sy))  # evicts the oldest when full
        z, g = z_new, g_new
        accepted_step = xi
        short = short + 1 if xi < SHORT_STEP else 0
    return MinimizeResult(ev.z, trace, status, message)


def _quartic_rejects(quartic, xi, threshold) -> bool:
    """Whether J(z + xi p) - J(z) certainly exceeds the Armijo threshold."""
    return quartic.phi(xi) > threshold + QUARTIC_MARGIN * quartic.size(xi)


def _two_loop_direction(g, pairs, h0):
    """-H g by the two-loop recursion (Nocedal & Wright, Alg. 7.4) over
    the stored (s, y, 1 / (y^T s)) pairs, oldest first; ``h0`` applies the
    initial inverse Hessian H0."""
    q = -g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * inner(s, q)
        alphas.append(a)
        q -= a * y
    q = h0(q)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * inner(y, q)) * s
    return q
