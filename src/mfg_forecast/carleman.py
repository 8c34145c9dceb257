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

import math
from dataclasses import dataclass

import numpy as np

from mfg_forecast import calculus
from mfg_forecast.grid import Field, Grid

# exp() overflows just above 709; route through ratios beyond this.
_EXP_LIMIT = 700.0
# The space of smooth Neumann fields: cosine modes 0..4 in x times powers
# 0..3 of t (see _neumann_space).
_N_MODES = 4
_T_DEGREE = 3


def min_c(t_max: float) -> float:
    """Smallest admissible shift constant, 1 + sqrt(1 + 2*t_max)."""
    if not t_max > 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    return 1.0 + math.sqrt(1.0 + 2.0 * t_max)


def log_cwf(t, lam: float, c: float, t_max: float):
    """log of the weight: (t_max - t + c)^lam.  Always finite."""
    return (t_max - t + c) ** lam


def q_factor(lam: float, c: float, t_max: float) -> float:
    """Balancing factor 1 / (lam * (t_max + c)^(lam - 1)) for the density term."""
    return 1.0 / (lam * (t_max + c) ** (lam - 1.0))


def alpha_min(lam: float, c: float, a: float) -> float:
    """Theoretical floor 2*exp(-(a-1)*c^lam) for the regularization weight.

    The working numerics run far below this floor (alpha = 1e-5 at lam=2);
    callers may override, this only reports the bound.
    """
    if not a > 1:
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
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if not self.c >= min_c(self.t_max) - 1e-12:
            raise ValueError(
                f"c={self.c} must reach the admissible floor "
                f"{min_c(self.t_max):.6f} for t_max={self.t_max}")
        if not self.a > 1:
            raise ValueError(f"a must exceed 1, got {self.a}")
        if not self.d > 0:
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
    """Outcome of an exact weighted-inequality check at one exponent.

    ``status`` says what ``fitted_c`` holds:

    - ``"constant"``: the best constant, the largest C1 or the smallest
      rescue constant C2 >= 0;
    - ``"unbounded"``: the standard estimate's right side is nowhere
      positive, so every constant passes; ``fitted_c`` is None;
    - ``"infeasible"``: no rescue constant restores the quasi estimate;
      ``fitted_c`` is None;
    - ``"unresolved"``: the weight's range leaves the basis numerically
      dependent in double precision, so the constant cannot be told apart
      from rounding; ``fitted_c`` is None and the check does not pass.
    """

    lambda_tested: float
    fitted_c: float | None
    status: str
    passed: bool
    kind: str

    def to_dict(self) -> dict:
        return {"lambda": self.lambda_tested, "fitted_c": self.fitted_c,
                "status": self.status, "pass": self.passed, "kind": self.kind}


def _neumann_space(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The factors of the smooth Neumann fields, (modes, powers).

    Rows of ``modes`` are the cosine modes 0.._N_MODES in x (each Neumann on
    the grid by construction); rows of ``powers`` are t^0..t^_T_DEGREE.
    ``sample_neumann_field`` draws from the span of their products, and the
    checkers take the products as their basis (``_neumann_basis``).
    """
    xs = grid.x_nodes()
    length = grid.x_max - grid.x_min
    modes = np.array([np.cos(k * math.pi * (xs - grid.x_min) / length)
                      for k in range(_N_MODES + 1)])
    powers = np.vstack([grid.t_nodes()**p for p in range(_T_DEGREE + 1)])
    return modes, powers


def sample_neumann_field(grid: Grid, rng: np.random.Generator,
                         amplitude: float = 1.0) -> np.ndarray:
    """Random smooth field with exact zero-slope spatial boundaries.

    A truncated cosine series in x times polynomials in t (the span of
    ``_neumann_space``), coefficients uniform in [-amplitude, amplitude].
    """
    modes, powers = _neumann_space(grid)
    coeffs = rng.uniform(-amplitude, amplitude, size=(len(modes), len(powers)))
    vals = np.zeros((grid.nx, grid.nt))
    for mode, row in zip(modes, coeffs):
        vals += np.outer(mode, row @ powers)
    return vals


def _neumann_basis(grid: Grid) -> np.ndarray:
    """The products mode_k(x) * t^p as an (n, nx, nt) stack, k-major.

    This is the order of ``sample_neumann_field``'s coefficients, so the
    first _T_DEGREE + 1 fields are the ones constant in x (k = 0).
    """
    modes, powers = _neumann_space(grid)
    return (modes[:, None, :, None] * powers[None, :, None, :]).reshape(
        -1, grid.nx, grid.nt)


def _weighted_basis(grid: Grid, lam: float, c: float):
    """(u, u_t, u_x, u_xx, wx, wq): the basis, its stencil images, and the
    trapezoid weights in x and over the cylinder.

    wq carries cwf(t)^2 divided by its peak value at t=0, which lies in
    (0, 1] and never overflows.
    """
    dtm, dxm, dxxm = calculus.diff_matrices(grid)
    logw = log_cwf(grid.t_nodes(), lam, c, grid.t_max)
    wx = calculus.weights_x(grid)
    wq = np.outer(wx, calculus.weights_t(grid) * np.exp(2.0 * (logw - logw[0])))
    u = _neumann_basis(grid)
    return u, u @ dtm.T, dxm @ u, dxxm @ u, wx, wq


def _gram(a: np.ndarray, b: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Matrix of sum(weights * a[i] * b[j]) over the stacks a and b."""
    return (a * weights).reshape(len(a), -1) @ b.reshape(len(b), -1).T


def _carleman_forms(lam: float, c: float, grid: Grid):
    """(a, b, scale) of the standard estimate on ``_neumann_basis``.

    b is the left side and a the right side's bracket, negated, so that
    LHS >= C1 * RHS on the span is a + b/C1 >= 0.  ``scale`` is the sum of
    the absolute values of every term.
    """
    u, ut, ux, uxx, wx, wq = _weighted_basis(grid, lam, c)
    # Boundary-term prefactors after rescaling by exp(2*(T+c)^lam).
    end_factor = math.exp(2.0 * (c**lam - log_cwf(0.0, lam, c, grid.t_max)))
    init_factor = lam * (grid.t_max + c) ** lam
    heat = ut + uxx
    left = _gram(heat, heat, wq)
    positive = (math.sqrt(lam) * _gram(ux, ux, wq)
                + lam**2 * c**lam * _gram(u, u, wq))
    end, start = u[:, :, -1], u[:, :, 0]
    negative = (end_factor * (_gram(ux[:, :, -1], ux[:, :, -1], wx)
                              + _gram(end, end, wx))
                + init_factor * _gram(start, start, wx))
    return negative - positive, left, left + positive + negative


def _quasi_forms(g: Field, lam: float, c: float, grid: Grid):
    """(a, b, scale) of the quasi estimate on the pair space.

    A pair (u, v) has coefficients on all of ``_neumann_basis`` for u and
    on its fields with k >= 1 for v: v enters only through v_x and v_xx,
    which vanish for the fields constant in x, so those directions are a
    common null space of every form and are left out.  a is the left side
    minus the explicit right-hand terms, b the term C2 multiplies, and
    ``scale`` the sum of the three.
    """
    u, ut, ux, uxx, wx, wq = _weighted_basis(grid, lam, c)
    factor = lam * (grid.t_max + c) ** lam  # of the v-gradient and initial terms
    n = len(u)
    vx, vxx = ux[_T_DEGREE + 1:], uxx[_T_DEGREE + 1:]
    heat = np.concatenate([ut - uxx, g.values * vxx])
    left = _gram(heat, heat, wq)
    explicit = np.zeros_like(left)
    explicit[:n, :n] = (lam * c ** (lam - 1.0) * _gram(ux, ux, wq)
                        + 0.25 * lam**2 * c ** (2.0 * lam - 2.0) * _gram(u, u, wq))
    rescue = np.zeros_like(left)
    rescue[:n, :n] = factor * _gram(u[:, :, 0], u[:, :, 0], wx)
    rescue[n:, n:] = factor * _gram(vx, vx, wq)
    return left - explicit, rescue, left + explicit + rescue


# Smallest eigenvalue of the Jacobi-scaled ``scale`` form, relative to its
# largest, at which the basis counts as independent.  Whitening multiplies
# the forms' rounding (about 1e-16 once scaled) by its inverse, so above
# this the whitened forms stay good to about 1e-6.
_RESOLUTION = 1e-10
# Whitened eigenvalues below this count as zero.
_NULL_TOL = 1e-8


def _least_multiplier(a: np.ndarray, b: np.ndarray, scale: np.ndarray):
    """Smallest k >= 0 with a + k*b positive semidefinite, for b >= 0.

    ``scale`` is positive semidefinite and bounds |a| and b.  Each basis
    field is rescaled by its norm in ``scale`` and the basis then whitened,
    so that ``scale`` becomes the identity; when the rescaled form is
    numerically singular the forms cannot resolve k (None).  The null space
    of b is deflated by a Schur complement after checking a on it: a must
    be positive definite there, else no k works (inf) or the forms cannot
    tell (None).  One symmetric eigen-solve of the deflated pencil then
    gives k.  Returns (k, coef); coef holds the basis coefficients of a
    field on which a + k*b vanishes, when 0 < k < inf, and is None
    otherwise.
    """
    norms = np.sqrt(np.diag(scale))
    if not norms.min() > 0.0:
        return None, None
    p, vecs = np.linalg.eigh(scale / norms / norms[:, None])
    if p[0] < _RESOLUTION * p[-1]:
        return None, None
    white = vecs / np.sqrt(p) / norms[:, None]  # white.T @ scale @ white = I
    bw, vecs = np.linalg.eigh(white.T @ b @ white)
    white = white @ vecs
    aw = white.T @ a @ white
    null = bw < _NULL_TOL
    rest = ~null
    ann = aw[np.ix_(null, null)]
    anr = aw[np.ix_(null, rest)]
    if null.any():
        low = np.linalg.eigvalsh(ann)[0]
        if low < -_NULL_TOL:
            return math.inf, None
        if low < _NULL_TOL:
            return None, None
    root = np.sqrt(bw[rest])
    schur = aw[np.ix_(rest, rest)] - anr.T @ np.linalg.solve(ann, anr)
    mu, vecs = np.linalg.eigh(schur / root / root[:, None])
    if mu[0] > -_NULL_TOL:
        return 0.0, None
    y = np.empty(len(bw))
    y[rest] = vecs[:, 0] / root
    y[null] = -np.linalg.solve(ann, anr @ y[rest])
    return float(-mu[0]), white @ y


def check_carleman_estimate(lam: float, c: float, grid: Grid) -> EstimateCheckReport:
    """Exact check of the weighted heat-operator energy inequality.

    Both sides are quadratic forms on the span of ``_neumann_basis``,
    formed with trapezoid quadrature (rescaled by the peak weight, which
    divides the inequality through and leaves constants unchanged):

        LHS  = int (u_t + u_xx)^2 w
        RHS  = C1 * [ sqrt(lam) int u_x^2 w + lam^2 c^lam int u^2 w
                      - boundary terms at t=t_max and t=0 ]

    The report carries the largest C1 for which LHS >= RHS on the whole
    span, 1/k for the smallest k with k*LHS - RHS/C1 positive
    semidefinite.  It is 0 (no estimate) when a field with LHS = 0 has a
    positive bracket, and unbounded when the bracket is nowhere positive.
    """
    if lam < 1:
        raise ValueError(f"checker expects lam >= 1, got {lam}")
    k, _ = _least_multiplier(*_carleman_forms(lam, c, grid))
    if k is None:
        return EstimateCheckReport(lam, None, "unresolved", False, "carleman")
    if k == 0.0:
        return EstimateCheckReport(lam, None, "unbounded", True, "carleman")
    return EstimateCheckReport(lam, 1.0 / k, "constant", k < math.inf, "carleman")


def check_quasi_carleman(g: Field, lam: float, c: float,
                         grid: Grid) -> EstimateCheckReport:
    """Exact check of the two-test-function (quasi) estimate.

    Pairs (u, v) span the pair space of ``_quasi_forms``; the left side
    couples them through the bounded multiplier g:

        LHS = int (u_t - u_xx + g * v_xx)^2 w

    The two positive right-hand terms carry explicit constants
    (lam*c^(lam-1) and lam^2 c^(2lam-2)/4); only the negative v-gradient
    and initial-data terms carry the fitted constant C2, here the smallest
    C2 >= 0 restoring the inequality on the whole pair space.
    """
    if lam < 1:
        raise ValueError(f"checker expects lam >= 1, got {lam}")
    if g.grid != grid:
        raise ValueError("g must live on the checker grid")
    k, _ = _least_multiplier(*_quasi_forms(g, lam, c, grid))
    if k is None:
        return EstimateCheckReport(lam, None, "unresolved", False, "quasi_carleman")
    if k == math.inf:
        return EstimateCheckReport(lam, None, "infeasible", False, "quasi_carleman")
    return EstimateCheckReport(lam, k, "constant", True, "quasi_carleman")


def lambda_sweep(grid: Grid, c: float, lambdas,
                 quasi_g: Field | None = None) -> list[EstimateCheckReport]:
    """Run the estimate checker over a list of weight exponents."""
    if quasi_g is None:
        return [check_carleman_estimate(lam, c, grid) for lam in lambdas]
    return [check_quasi_carleman(quasi_g, lam, c, grid) for lam in lambdas]


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
