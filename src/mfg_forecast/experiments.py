"""The canned experiment suite: noise model, diagnostics, and runners.

Seven run identifiers are supported.  Two are manufactured ("ideal")
cases with known ground truth, three are realistic cases (zero source,
truth unknown), one extends the first manufactured case to a doubled time
horizon to expose the late-time breakdown, and one runs the same
realistic case under both signs of the constant interaction kernel.

Working defaults: lam=2, c=3, a=1.1, alpha=1e-5, d=1, grid step 0.1 on
[-1,1] x [0,1], 3% data noise.  Each test id carries a fixed noise seed
so shipped numbers reproduce exactly; all of it can be overridden per run.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from mfg_forecast import calculus, model
from mfg_forecast.carleman import ConvexParams, min_c
from mfg_forecast.grid import Field, Grid, make_grid, write_field_csv, \
    write_json, write_table_csv
from mfg_forecast.model import ManufacturedCase, ProblemSpec, \
    build_manufactured_case, make_problem_spec
from mfg_forecast.optimizer import IterationTrace, OptimizerConfig, minimize

DEFAULTS = {
    "t_max": 1.0, "dx": 0.1, "dt": 0.1, "gamma": 0.6, "lam": 2.0, "c": 3.0,
    "a": 1.1, "d": 1.0, "alpha": 1e-5, "kernel": 1.0, "noise": 0.03,
    "tol": 1e-5, "max_iters": 20000,
}


@dataclass(frozen=True)
class NoiseSpec:
    level: float
    seed: int

    def __post_init__(self):
        if not self.level >= 0:
            raise ValueError(f"noise level must be nonnegative, got {self.level}")
        if not math.isfinite(self.level):
            raise ValueError(f"noise level must be finite, got {self.level}")
        if self.seed < 0:
            raise ValueError(f"noise seed must be nonnegative, got {self.seed}")


def add_noise(data: np.ndarray, noise: NoiseSpec) -> np.ndarray:
    """data + level * |data|_2 * r with r uniform in [-1, 1], seeded."""
    data = np.asarray(data, dtype=float)
    if not np.isfinite(data).all():
        raise ValueError("data contains non-finite entries")
    if noise.level == 0.0:
        return data.copy()
    rng = np.random.default_rng(noise.seed)
    r = rng.uniform(-1.0, 1.0, size=data.shape)
    return data + noise.level * float(np.linalg.norm(data)) * r


# -- initial data of the canned tests ------------------------------------

def _u_t11(x: float, t: float) -> float:
    return (x * x - 1.0) ** 2 * (t * t + 1.0)


def _m0_t11(x: float) -> float:
    s = x * x - 1.0
    core = math.exp(1.0 / s) if s < 0 else 0.0  # 0 at the endpoints by continuity
    return core + 0.28


def _u_t12(x: float, t: float) -> float:
    return 0.1 * math.cos(2.0 * math.pi * x) * (t + 1.0)


BUMP_HALF_WIDTH = 0.4
BUMP_SCALE = 5.57  # gives the bump a mass of about 1


def compact_bump(x: float, center: float = 0.0) -> float:
    """Compactly supported density bump, zero at and outside the support edge."""
    s = (x - center) ** 2 - BUMP_HALF_WIDTH**2
    return BUMP_SCALE * math.exp(BUMP_HALF_WIDTH**2 / s) if s < 0 else 0.0


def smooth_transition(x: float) -> float:
    """Smooth step from -0.5 at x=-1 to +0.5 at x=+1, flat at both ends."""
    def tau(s: float) -> float:
        return math.exp(-1.0 / (s * s)) if s > 0 else 0.0

    a = tau((1.0 + x) / 2.0)
    b = tau((1.0 - x) / 2.0)
    return a / (a + b) - 0.5


@dataclass(frozen=True)
class CaseDef:
    test_id: str
    kind: str  # "ideal" or "realistic"
    m0_fn: Callable[[float], float]
    u_fn: Callable[[float, float], float] | None = None  # ideal cases
    u0_fn: Callable[[float], float] | None = None  # realistic cases
    t_max: float = 1.0
    seed: int = 0


CASES = {
    "T1_1": CaseDef("T1_1", "ideal", _m0_t11, u_fn=_u_t11, seed=101),
    "T1_2": CaseDef("T1_2", "ideal", lambda x: 0.5, u_fn=_u_t12, seed=102),
    "T2_1": CaseDef("T2_1", "realistic", compact_bump,
                    u0_fn=lambda x: (x * x - 1.0) ** 2, seed=201),
    "T2_2": CaseDef("T2_2", "realistic", lambda x: 0.5,
                    u0_fn=lambda x: math.cos(2.0 * math.pi * x), seed=202),
    "T3_1": CaseDef("T3_1", "realistic", lambda x: compact_bump(x, center=0.5),
                    u0_fn=smooth_transition, seed=301),
    "T1_1_extended": CaseDef("T1_1_extended", "ideal", _m0_t11, u_fn=_u_t11,
                             t_max=2.0, seed=111),
}

KERNEL_COMPARE = "kernel_compare"
RUN_IDS = tuple(CASES) + (KERNEL_COMPARE,)


@dataclass(frozen=True)
class RecoveryErrors:
    """Distance from a prediction to manufactured truth."""

    u_h10: float
    m_h10: float
    u_rel_l2: np.ndarray
    m_rel_l2: np.ndarray


def relative_cost_curve(z: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Per-time residual norm of a state z = (u, m), normalized by the data
    norm.

        F(t) = sqrt( int [R1^2 + R2^2](x, t) dx / int [u^2 + m^2](x, 0) dx )

    Neither the exponential weight nor the regularizer enters; this
    diagnoses how well a state satisfies the system at each time.
    """
    grid = spec.grid
    if z.shape != (2, grid.nx, grid.nt):
        raise ValueError("state must live on the spec grid")
    u, m = z
    squared = model.residuals(z, spec, calculus.stencil_products(grid))[0] ** 2
    wx = calculus.weights_x(grid)
    numerator = wx @ (squared[0] + squared[1])  # (nt,)
    denominator = float(wx @ (u[:, 0] ** 2 + m[:, 0] ** 2))
    if denominator <= 0.0:
        raise ValueError("zero initial data; the relative cost is undefined")
    return np.sqrt(numerator / denominator)


def recovery_errors(z: np.ndarray, truth: ManufacturedCase) -> RecoveryErrors:
    """Early-time H^{1,0} errors of a predicted state z = (u, m) plus
    per-time relative L2 error curves."""
    grid = truth.spec.grid
    if z.shape != (2, grid.nx, grid.nt):
        raise ValueError("prediction and truth must share a grid")
    du = z[0] - truth.u_true.values
    dm = z[1] - truth.m_true.values
    u_h10 = calculus.h10_norm_gamma(Field(grid, du))
    m_h10 = calculus.h10_norm_gamma(Field(grid, dm))
    wx = calculus.weights_x(grid)
    u_rel = np.sqrt(wx @ du**2) / np.sqrt(np.maximum(wx @ truth.u_true.values**2, 1e-300))
    m_rel = np.sqrt(wx @ dm**2) / np.sqrt(np.maximum(wx @ truth.m_true.values**2, 1e-300))
    return RecoveryErrors(u_h10, m_h10, u_rel, m_rel)


@dataclass(frozen=True)
class RunReport:
    """Everything one run produces, exportable as a stable file layout.

    ``predicted`` is the returned state z, (2, nx, nt), on ``grid``.
    """

    test_id: str
    config: dict
    grid: Grid
    predicted: np.ndarray
    truth: ManufacturedCase | None
    rel_cost: np.ndarray  # F at each of grid.t_nodes()
    errors: RecoveryErrors | None
    trace: IterationTrace
    status: str
    message: str = ""

    def summary_dict(self) -> dict:
        out = {"test_id": self.test_id, "status": self.status,
               "config": self.config}
        out.update(self.trace.summary_dict())
        # search-ball diagnostics: monitored, never enforced
        u, m = self.predicted
        out["final_state_norm"] = math.sqrt(float(np.sum(u**2) + np.sum(m**2)))
        # j3 = alpha * (|u|_H2^2 + |m|_H2^2); the last row is the returned state
        out["state_h2_norm"] = math.sqrt(self.trace.rows[-1].j3 / self.config["alpha"])
        out["rel_cost"] = {"max": float(self.rel_cost.max()),
                           "min": float(self.rel_cost.min()),
                           "mean": float(self.rel_cost.mean())}
        if self.errors is not None:
            out["errors"] = {"u_h10": self.errors.u_h10,
                             "m_h10": self.errors.m_h10}
        if self.message:
            out["message"] = self.message
        return out

    def export(self, outdir) -> None:
        """Write the documented file layout under ``outdir``."""
        os.makedirs(outdir, exist_ok=True)
        write_json(os.path.join(outdir, "config.json"), self.config)
        write_json(os.path.join(outdir, "summary.json"), self.summary_dict())
        for name, values in zip(("u_pred.csv", "m_pred.csv"), self.predicted):
            write_field_csv(Field(self.grid, values), os.path.join(outdir, name))
        write_table_csv(os.path.join(outdir, "rel_cost.csv"), "t,F",
                        zip(self.grid.t_nodes(), self.rel_cost))
        write_table_csv(os.path.join(outdir, "trace.csv"),
                        "iter,j1,j2,j3,total,grad_norm,foo_ratio,step,evaluations",
                        self.trace.rows)
        if self.truth is not None:
            write_field_csv(self.truth.u_true, os.path.join(outdir, "u_true.csv"))
            write_field_csv(self.truth.m_true, os.path.join(outdir, "m_true.csv"))
            write_field_csv(self.truth.spec.f_field,
                            os.path.join(outdir, "source_f.csv"))
        if self.errors is not None:
            write_table_csv(os.path.join(outdir, "error_curves.csv"),
                            "t,u_rel_l2,m_rel_l2",
                            zip(self.grid.t_nodes(), self.errors.u_rel_l2,
                                self.errors.m_rel_l2))


@dataclass(frozen=True)
class KernelComparison:
    """Paired runs of one test under kernel constants +1 and -1."""

    plus: RunReport
    minus: RunReport

    def export(self, outdir) -> None:
        self.plus.export(os.path.join(outdir, "kernel_plus"))
        self.minus.export(os.path.join(outdir, "kernel_minus"))
        write_table_csv(os.path.join(outdir, "comparison.csv"), "t,F_plus,F_minus",
                        zip(self.plus.grid.t_nodes(), self.plus.rel_cost,
                            self.minus.rel_cost))


def resolve_config(test_id: str, overrides: dict | None = None) -> dict:
    """Package defaults, then per-test settings, then caller overrides.

    The shift constant c is raised to its admissible floor for the run's
    horizon unless the caller pins it explicitly.  Every value is checked
    here, so each command refuses the same inputs: a bad one raises a
    ValueError that names it.
    """
    if test_id not in RUN_IDS:
        raise ValueError(f"unknown test id {test_id!r}; choose from {RUN_IDS}")
    overrides = dict(overrides or {})
    unknown = set(overrides) - set(DEFAULTS) - {"seed"}
    if unknown:
        raise ValueError(f"unknown override keys: {sorted(unknown)}")
    base_id = "T2_2" if test_id == KERNEL_COMPARE else test_id
    case = CASES[base_id]
    cfg = dict(DEFAULTS)
    cfg["t_max"] = case.t_max
    cfg["seed"] = case.seed
    cfg.update(overrides, x_min=-1.0, x_max=1.0)  # every case's data is on [-1, 1]
    if "c" not in overrides:
        cfg["c"] = max(cfg["c"], min_c(cfg["t_max"]))
    cfg["test_id"] = test_id
    cfg["kind"] = case.kind
    params = convex_params(cfg)
    OptimizerConfig(tol=cfg["tol"], max_iters=int(cfg["max_iters"]))
    NoiseSpec(cfg["noise"], cfg["seed"])
    grid = make_grid(cfg["x_min"], cfg["x_max"], cfg["t_max"], cfg["dx"],
                     cfg["dt"], cfg["gamma"])
    params.weight_profile(grid.t_nodes())  # refuses a weight that overflows
    if not math.isfinite(cfg["kernel"]):
        raise ValueError(f"kernel must be finite, got {cfg['kernel']}")
    return cfg


def convex_params(cfg: dict) -> ConvexParams:
    """The functional's parameters from a resolved config."""
    return ConvexParams(lam=cfg["lam"], c=cfg["c"], a=cfg["a"], d=cfg["d"],
                        alpha=cfg["alpha"], gamma=cfg["gamma"],
                        t_max=cfg["t_max"])


def _build_problem(test_id: str, cfg: dict):
    """Grid, noisy spec, truth (if manufactured) for one resolved config."""
    case = CASES[test_id]
    grid = make_grid(cfg["x_min"], cfg["x_max"], cfg["t_max"], cfg["dx"],
                     cfg["dt"], cfg["gamma"])
    if case.kind == "ideal":
        truth = build_manufactured_case(case.u_fn, case.m0_fn, cfg["kernel"],
                                        grid, label=test_id)
        u0_clean, m0_clean = truth.spec.u0, truth.spec.m0
        f_field = truth.spec.f_field
    else:
        truth = f_field = None
        xs = grid.x_nodes().tolist()
        u0_clean = np.array([case.u0_fn(x) for x in xs])
        m0_clean = np.array([case.m0_fn(x) for x in xs])
    u0 = add_noise(u0_clean, NoiseSpec(cfg["noise"], cfg["seed"]))
    m0 = add_noise(m0_clean, NoiseSpec(cfg["noise"], cfg["seed"] + 1))
    spec = make_problem_spec(grid, u0, m0, cfg["kernel"], f_field=f_field)
    return grid, spec, truth


def run_test(test_id: str, **overrides):
    """Run one canned experiment; returns a RunReport.

    ``kernel_compare`` runs the oscillatory realistic case under both
    kernel signs and returns a KernelComparison instead.
    """
    if test_id == KERNEL_COMPARE:
        if "kernel" in overrides:
            raise ValueError(f"{KERNEL_COMPARE} runs kernel +1 and kernel -1; it "
                             f"takes no kernel override, got {overrides['kernel']}")
        plus = run_test("T2_2", kernel=1.0, **overrides)
        minus = run_test("T2_2", kernel=-1.0, **overrides)
        return KernelComparison(plus, minus)

    cfg = resolve_config(test_id, overrides)
    grid, spec, truth = _build_problem(test_id, cfg)
    opt = OptimizerConfig(tol=cfg["tol"], max_iters=int(cfg["max_iters"]))
    result = minimize(spec, convex_params(cfg), opt)
    rel = relative_cost_curve(result.state, spec)
    errors = recovery_errors(result.state, truth) if truth is not None else None
    return RunReport(test_id, cfg, grid, result.state, truth, rel, errors,
                     result.trace, result.status, result.message)
