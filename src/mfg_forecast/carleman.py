"""Carleman weight function, its derived parameters, and estimate checkers.

The weight exp[(t_max - t + c)^lam] decays in time, so the weighted
least-squares functional concentrates its attention near t=0 where the
data live.  For large exponents the raw weight overflows double precision;
every consumer in this package therefore works with ratios: either the
weight relative to the balancing multiplier exp(-2*a*c^lam) (the
objective) or relative to the peak weight at t=0 (the estimate checkers,
where the rescaling divides both sides of the inequality and leaves the
fitted constants unchanged).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from mfg_forecast import calculus
from mfg_forecast.grid import Field, Grid

# exp() overflows just above 709; route through ratios beyond this.
_EXP_LIMIT = 700.0
# Random test fields: cosine modes 0..4 in x times powers 0..3 of t.
_N_MODES = 4
_T_DEGREE = 3


def min_c(t_max: float) -> float:
    """Smallest admissible shift constant, 1 + sqrt(1 + 2*t_max)."""
    if t_max <= 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    return 1.0 + math.sqrt(1.0 + 2.0 * t_max)


def log_cwf(t, lam: float, c: float, t_max: float):
    """log of the weight: (t_max - t + c)^lam.  Always finite."""
    return (t_max - t + c) ** lam


def cwf(t: float, lam: float, c: float, t_max: float) -> float:
    """The weight exp[(t_max - t + c)^lam].

    Beyond double range the overflow is reported (a warning) and inf is
    returned; ratio-based consumers should evaluate in log space instead
    (log_cwf, or ConvexParams.weight_profile for the balanced weight).
    """
    e = log_cwf(t, lam, c, t_max)
    if e > _EXP_LIMIT:
        warnings.warn(
            f"weight exponent {e:.3g} exceeds double range; evaluate in "
            "log space (log_cwf) or as a ratio (ConvexParams.weight_profile)",
            RuntimeWarning, stacklevel=2)
        return math.inf
    return math.exp(e)


def q_factor(lam: float, c: float, t_max: float) -> float:
    """Balancing factor 1 / (lam * (t_max + c)^(lam - 1)) for the density term."""
    return 1.0 / (lam * (t_max + c) ** (lam - 1.0))


def alpha_min(lam: float, c: float, a: float) -> float:
    """Theoretical floor 2*exp(-(a-1)*c^lam) for the regularization weight.

    The working numerics run far below this floor (alpha = 1e-5 at lam=2);
    callers may override, this only reports the bound.
    """
    if a <= 1:
        raise ValueError(f"balancing exponent a must exceed 1, got {a}")
    return 2.0 * math.exp(-(a - 1.0) * c**lam)


@dataclass(frozen=True)
class ConvexParams:
    """Parameters of the weighted convex functional.

    Derived quantities (q, balance, the alpha floor) are recomputed on
    access, never stored.
    """

    lam: float
    c: float
    a: float
    d: float
    alpha: float
    gamma: float
    t_max: float

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.c < min_c(self.t_max) - 1e-12:
            raise ValueError(
                f"c={self.c} is below the admissible floor "
                f"{min_c(self.t_max):.6f} for t_max={self.t_max}")
        if self.a <= 1:
            raise ValueError(f"a must exceed 1, got {self.a}")
        if self.d <= 0:
            raise ValueError(f"d must be positive, got {self.d}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")

    @property
    def q(self) -> float:
        return q_factor(self.lam, self.c, self.t_max)

    @property
    def balance(self) -> float:
        return math.exp(-2.0 * self.a * self.c**self.lam)

    @property
    def log_balance(self) -> float:
        return -2.0 * self.a * self.c**self.lam

    @property
    def alpha_floor(self) -> float:
        return alpha_min(self.lam, self.c, self.a)

    def alpha_respects_floor(self) -> bool:
        return self.alpha >= self.alpha_floor

    def weight_profile(self, t_nodes: np.ndarray) -> np.ndarray:
        """balance * cwf(t)^2 over the given times, formed in log space.

        This is the only weight combination the objective needs; it stays
        finite whenever the functional itself is representable.
        """
        exponent = 2.0 * log_cwf(np.asarray(t_nodes, float), self.lam, self.c,
                                 self.t_max) + self.log_balance
        if np.any(exponent > _EXP_LIMIT):
            raise ValueError(
                f"combined weight exponent reaches {exponent.max():.3g}; the "
                f"functional is not representable at lam={self.lam}")
        return np.exp(exponent)


@dataclass(frozen=True)
class EstimateCheckReport:
    """Outcome of a randomized weighted-inequality check.

    ``fitted_c`` is the best uniform constant over the sample set (None
    when no sample constrains it, i.e. the inequality held with room for
    any constant).  ``min_gap`` is the worst left-minus-right gap at the
    fitted constant, in peak-weight-rescaled units.
    """

    lambda_tested: float
    samples: int
    min_gap: float
    fitted_c: float | None
    passed: bool
    kind: str
    seed: int

    def to_dict(self) -> dict:
        return {"lambda": self.lambda_tested, "samples": self.samples,
                "min_gap": self.min_gap, "fitted_c": self.fitted_c,
                "pass": self.passed, "kind": self.kind, "seed": self.seed}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def sample_neumann_field(grid: Grid, rng: np.random.Generator,
                         n_modes: int = _N_MODES, t_degree: int = _T_DEGREE,
                         amplitude: float = 1.0) -> np.ndarray:
    """Random smooth field with exact zero-slope spatial boundaries.

    A truncated cosine series in x (automatically Neumann on the grid)
    times polynomials in t, coefficients uniform in [-amplitude, amplitude].
    """
    xs = grid.x_nodes()
    ts = grid.t_nodes()
    length = grid.x_max - grid.x_min
    coeffs = rng.uniform(-amplitude, amplitude, size=(n_modes + 1, t_degree + 1))
    tpow = np.vstack([ts**p for p in range(t_degree + 1)])  # (deg+1, nt)
    vals = np.zeros((grid.nx, grid.nt))
    for k in range(n_modes + 1):
        mode = np.cos(k * math.pi * (xs - grid.x_min) / length)
        vals += np.outer(mode, coeffs[k] @ tpow)
    return vals


def _neumann_field_stack(grid: Grid, rng: np.random.Generator, samples: int,
                         fields_per_sample: int = 1) -> np.ndarray:
    """``samples`` draws of ``fields_per_sample`` Neumann fields, as one stack.

    Returns shape (samples, fields_per_sample, nx, nt).  One ``rng.uniform``
    call draws every coefficient, in the order that ``samples *
    fields_per_sample`` sequential ``sample_neumann_field`` calls would, so
    field k of the stack is the k-th sequential draw (up to round-off).  A
    sample with any field below 1e-12 in max norm is degenerate; all of its
    fields are redrawn, after the batch, until no sample is degenerate.
    """
    xs = grid.x_nodes()
    ts = grid.t_nodes()
    length = grid.x_max - grid.x_min
    modes = np.cos(np.multiply.outer(np.arange(_N_MODES + 1) * math.pi,
                                     xs - grid.x_min) / length)  # (modes, nx)
    tpow = np.vstack([ts**p for p in range(_T_DEGREE + 1)])  # (deg+1, nt)

    def draw(count):
        coeffs = rng.uniform(-1.0, 1.0, size=(count, fields_per_sample,
                                             _N_MODES + 1, _T_DEGREE + 1))
        return modes.T @ (coeffs @ tpow)

    def degenerate(stack):
        return np.abs(stack).max(axis=(2, 3)).min(axis=1) < 1e-12

    fields = draw(samples)
    bad = degenerate(fields)
    while bad.any():
        fields[bad] = draw(int(bad.sum()))
        bad = degenerate(fields)
    return fields


def _rescaled_weight_sq(grid: Grid, lam: float, c: float) -> np.ndarray:
    """cwf(t)^2 divided by its peak value at t=0; in (0, 1], never overflows."""
    logw = log_cwf(grid.t_nodes(), lam, c, grid.t_max)
    return np.exp(2.0 * (logw - logw[0]))


def _check_inputs(samples: int, lam: float) -> None:
    if samples < 1:
        raise ValueError(f"checker needs samples >= 1, got {samples}")
    if lam < 1:
        raise ValueError(f"checker expects lam >= 1, got {lam}")


def check_carleman_estimate(samples: int, lam: float, c: float, grid: Grid,
                            seed: int = 0, tol: float = 1e-9) -> EstimateCheckReport:
    """Randomized check of the weighted heat-operator energy inequality.

    For each random Neumann field u both sides of the estimate are formed
    with trapezoid quadrature (rescaled by the peak weight, which divides
    the inequality through and leaves constants unchanged):

        LHS  = int (u_t + u_xx)^2 w
        RHS  = C1 * [ sqrt(lam) int u_x^2 w + lam^2 c^lam int u^2 w
                      - boundary terms at t=t_max and t=0 ]

    The report carries the largest C1 for which LHS >= RHS across all
    samples and the residual gap at that constant.  The fields are drawn
    as one batch whose coefficient stream is that of ``samples``
    sequential ``sample_neumann_field`` calls from ``default_rng(seed)``;
    degenerate (all but zero) draws are redrawn.
    """
    _check_inputs(samples, lam)
    rng = np.random.default_rng(seed)
    dtm, dxm, dxxm = calculus.diff_matrices(grid)
    wx = calculus.weights_x(grid)
    wtw = calculus.weights_t(grid) * _rescaled_weight_sq(grid, lam, c)  # t quadrature
    t_max = grid.t_max
    # Boundary-term prefactors after rescaling by exp(2*(T+c)^lam).
    log_peak = log_cwf(0.0, lam, c, t_max)
    end_factor = math.exp(2.0 * (c**lam - log_peak))
    init_factor = lam * (t_max + c) ** lam

    u = _neumann_field_stack(grid, rng, samples)[:, 0]  # (samples, nx, nt)
    ut = u @ dtm.T
    ux = dxm @ u
    uxx = dxxm @ u
    lhs = (wx @ (ut + uxx) ** 2) @ wtw
    s = math.sqrt(lam) * ((wx @ ux**2) @ wtw)
    s += lam**2 * c**lam * ((wx @ u**2) @ wtw)
    s -= end_factor * ((ux[:, :, -1] ** 2 + u[:, :, -1] ** 2) @ wx)
    s -= init_factor * (u[:, :, 0] ** 2 @ wx)
    return _fit_lower_constant(lhs, s, lam, samples, seed, tol, kind="carleman")


def check_quasi_carleman(samples: int, g: Field, lam: float, c: float,
                         grid: Grid, seed: int = 0,
                         tol: float = 1e-9) -> EstimateCheckReport:
    """Randomized check of the two-test-function (quasi) estimate.

    Random pairs (u, v); the left side couples them through the bounded
    multiplier g:

        LHS = int (u_t - u_xx + g * v_xx)^2 w

    The two positive right-hand terms carry explicit constants
    (lam*c^(lam-1) and lam^2 c^(2lam-2)/4); only the negative v-gradient
    and initial-data terms carry the fitted constant C2, here the smallest
    C2 >= 0 restoring the inequality across all samples.  The pairs are
    drawn as one batch whose coefficient stream is that of sequential
    ``sample_neumann_field`` calls u, v, u, v, ... from
    ``default_rng(seed)``; a pair with a degenerate field is redrawn.
    """
    _check_inputs(samples, lam)
    if g.grid != grid:
        raise ValueError("g must live on the checker grid")
    rng = np.random.default_rng(seed)
    dtm, dxm, dxxm = calculus.diff_matrices(grid)
    wx = calculus.weights_x(grid)
    wtw = calculus.weights_t(grid) * _rescaled_weight_sq(grid, lam, c)  # t quadrature
    t_max = grid.t_max
    init_factor = lam * (t_max + c) ** lam
    vgrad_factor = lam * (t_max + c) ** lam

    pairs = _neumann_field_stack(grid, rng, samples, fields_per_sample=2)
    u, v = pairs[:, 0], pairs[:, 1]
    ut = u @ dtm.T
    ux = dxm @ u
    uxx = dxxm @ u
    vx = dxm @ v
    vxx = dxxm @ v
    lhs = (wx @ (ut - uxx + g.values * vxx) ** 2) @ wtw
    explicit = lam * c ** (lam - 1.0) * ((wx @ ux**2) @ wtw)
    explicit += 0.25 * lam**2 * c ** (2.0 * lam - 2.0) * ((wx @ u**2) @ wtw)
    d_term = vgrad_factor * ((wx @ vx**2) @ wtw)
    d_term += init_factor * (u[:, :, 0] ** 2 @ wx)

    rescue = d_term > 0
    deficits = (explicit[rescue] - lhs[rescue]) / d_term[rescue]
    # Back off the tight constant by a hair so the reported gap is
    # nonnegative despite rounding (a larger rescue constant only helps).
    fitted = max(0.0, float(deficits.max())) * (1.0 + 1e-9) if deficits.size else 0.0
    min_gap = float((lhs - explicit + fitted * d_term).min())
    scale = max(1.0, float(np.abs(lhs).max()))
    passed = min_gap >= -tol * scale
    return EstimateCheckReport(lam, samples, min_gap, fitted, passed,
                               "quasi_carleman", seed)


def _fit_lower_constant(lhs: np.ndarray, s: np.ndarray, lam, samples, seed,
                        tol, kind) -> EstimateCheckReport:
    """Largest C with lhs >= C * s over all samples, from per-sample arrays."""
    scale = max(1.0, float(np.abs(lhs).max()))
    constrains = s > 0
    if constrains.any():
        # Back off the tight constant by a hair so the reported gap is
        # nonnegative despite rounding.
        fitted = float((lhs[constrains] / s[constrains]).min()) * (1.0 - 1e-9)
        min_gap = float((lhs - fitted * s).min())
        passed = fitted > 0 and min_gap >= -tol * scale
        return EstimateCheckReport(lam, samples, min_gap, fitted, passed,
                                   kind, seed)
    # No sample constrains the constant: the negative terms dominate and
    # the inequality holds with room for any C > 0.
    min_gap = float((lhs - s).min())
    return EstimateCheckReport(lam, samples, min_gap, None,
                               min_gap >= -tol * scale, kind, seed)


def lambda_sweep(grid: Grid, c: float, lambdas, samples: int = 100,
                 seed: int = 0, quasi_g: Field | None = None) -> list[EstimateCheckReport]:
    """Run the estimate checker over a list of weight exponents.

    Each exponent is one checker call on the same seed, so every exponent
    sees the same sample fields, drawn afresh as one batch per call
    (degenerate draws redrawn) in the stream of the sequential sampler.
    """
    reports = []
    for lam in lambdas:
        if quasi_g is None:
            reports.append(check_carleman_estimate(samples, lam, c, grid, seed))
        else:
            reports.append(check_quasi_carleman(samples, quasi_g, lam, c, grid, seed))
    return reports


def first_passing_lambda(reports: list[EstimateCheckReport]) -> float | None:
    """Smallest tested exponent whose report passed with a positive constant.

    The fitted constant must be strictly positive; an unbounded fit (None)
    counts, since the inequality then holds with room for every positive
    constant.
    """
    for rep in reports:
        if rep.passed and (rep.fitted_c is None or rep.fitted_c > 0):
            return rep.lambda_tested
    return None
