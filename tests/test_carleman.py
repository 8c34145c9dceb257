import dataclasses
import json
import math

import numpy as np
import pytest

from mfg_forecast.carleman import ConvexParams, EstimateCheckReport, alpha_min, \
    check_carleman_estimate, check_quasi_carleman, cwf, \
    first_passing_lambda, lambda_sweep, log_cwf, min_c, q_factor, \
    sample_neumann_field, _fit_lower_constant, _neumann_field_stack
from mfg_forecast import calculus
from mfg_forecast.grid import Field, make_grid


# Per-sample reference for the batched checkers: one sample_neumann_field
# call per field and the checkers' formulas term by term on each sample.

def _sequential_draws(grid, seed, count):
    rng = np.random.default_rng(seed)
    return [sample_neumann_field(grid, rng) for _ in range(count)]


def _reference_qt(grid, dens, wsq):
    return float(calculus.weights_x(grid) @ dens @ (calculus.weights_t(grid) * wsq))


def _reference_wsq(grid, lam, c):
    logw = log_cwf(grid.t_nodes(), lam, c, grid.t_max)
    return np.exp(2.0 * (logw - logw[0]))


def _reference_carleman_terms(u, lam, c, grid):
    dtm, dxm, dxxm = calculus.diff_matrices(grid)
    wx = calculus.weights_x(grid)
    wsq = _reference_wsq(grid, lam, c)
    end_factor = math.exp(2.0 * (c**lam - log_cwf(0.0, lam, c, grid.t_max)))
    init_factor = lam * (grid.t_max + c) ** lam
    ut, ux, uxx = u @ dtm.T, dxm @ u, dxxm @ u
    lhs = _reference_qt(grid, (ut + uxx) ** 2, wsq)
    s = math.sqrt(lam) * _reference_qt(grid, ux**2, wsq)
    s += lam**2 * c**lam * _reference_qt(grid, u**2, wsq)
    s -= end_factor * float(wx @ (ux[:, -1] ** 2 + u[:, -1] ** 2))
    s -= init_factor * float(wx @ (u[:, 0] ** 2))
    return lhs, s


def _reference_fit(terms, tol=1e-9):
    """(fitted_c, min_gap, passed) of the largest C with lhs >= C*s."""
    scale = max(1.0, max(abs(lhs) for lhs, _ in terms))
    ratios = [lhs / s for lhs, s in terms if s > 0]
    if not ratios:
        min_gap = min(lhs - s for lhs, s in terms)
        return None, min_gap, min_gap >= -tol * scale
    fitted = min(ratios) * (1.0 - 1e-9)
    min_gap = min(lhs - fitted * s for lhs, s in terms)
    return fitted, min_gap, fitted > 0 and min_gap >= -tol * scale


def _reference_quasi_terms(u, v, g, lam, c, grid):
    dtm, dxm, dxxm = calculus.diff_matrices(grid)
    wx = calculus.weights_x(grid)
    wsq = _reference_wsq(grid, lam, c)
    factor = lam * (grid.t_max + c) ** lam
    ut, ux, uxx = u @ dtm.T, dxm @ u, dxxm @ u
    vx, vxx = dxm @ v, dxxm @ v
    lhs = _reference_qt(grid, (ut - uxx + g.values * vxx) ** 2, wsq)
    explicit = lam * c ** (lam - 1.0) * _reference_qt(grid, ux**2, wsq)
    explicit += 0.25 * lam**2 * c ** (2.0 * lam - 2.0) * _reference_qt(grid, u**2, wsq)
    d_term = factor * _reference_qt(grid, vx**2, wsq)
    d_term += factor * float(wx @ (u[:, 0] ** 2))
    return lhs, explicit, d_term


def _reference_quasi_fit(terms, tol=1e-9):
    """(fitted_c, min_gap, passed) of the smallest rescue constant C2 >= 0."""
    deficits = [(explicit - lhs) / d for lhs, explicit, d in terms if d > 0]
    fitted = max(0.0, max(deficits)) * (1.0 + 1e-9) if deficits else 0.0
    min_gap = min(lhs - explicit + fitted * d for lhs, explicit, d in terms)
    scale = max(1.0, max(abs(lhs) for lhs, _, _ in terms))
    return fitted, min_gap, min_gap >= -tol * scale


def _smooth_coupling(grid):
    x, t = np.meshgrid(grid.x_nodes(), grid.t_nodes(), indexing="ij")
    return Field(grid, 1.0 + 0.5 * np.cos(math.pi * x) * (1.0 - t))


class _FirstFieldZeroed:
    """Generator stand-in whose first ``uniform`` batch starts with a zero field."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def uniform(self, low, high, size):
        out = self._rng.uniform(low, high, size)
        if self.calls == 0:
            out.reshape(-1, 5, 4)[0] = 0.0  # the first field's coefficients
        self.calls += 1
        return out


def test_min_c_values():
    assert min_c(1.0) == pytest.approx(1 + math.sqrt(3), abs=1e-12)
    assert min_c(4.0) == pytest.approx(4.0, abs=1e-12)
    assert 3.0 >= min_c(1.0)  # the working c=3 is admissible at t_max=1
    with pytest.raises(ValueError):
        min_c(0.0)


def test_cwf_pointwise_values():
    assert cwf(1.0, 2.0, 3.0, 1.0) == pytest.approx(math.exp(9.0), rel=1e-12)
    assert cwf(0.0, 2.0, 3.0, 1.0) == pytest.approx(math.exp(16.0), rel=1e-12)


def test_cwf_monotone_decreasing_in_time():
    vals = [cwf(t, 2.0, 3.0, 1.0) for t in (0.0, 0.2, 0.8, 1.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_cwf_monotone_increasing_in_exponent():
    # holds wherever the base T - t + c exceeds 1, i.e. t < T + c - 1
    for t in (0.0, 0.5, 1.0):
        vals = [cwf(t, lam, 3.0, 1.0) for lam in (1.0, 2.0, 3.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_cwf_peak_at_initial_time():
    g = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)
    vals = np.array([cwf(t, 2.0, 3.0, g.t_max) for t in g.t_nodes()])
    assert vals[0] == vals.max()
    p = ConvexParams(lam=2, c=3, a=1.1, d=1, alpha=1e-5, gamma=0.6, t_max=1)
    prof = p.weight_profile(g.t_nodes())
    assert prof[0] == prof.max()


def test_cwf_overflow_reported_not_fatal():
    with pytest.warns(RuntimeWarning, match="log space"):
        assert cwf(0.0, 50.0, 3.0, 1.0) == math.inf
    assert log_cwf(0.0, 50.0, 3.0, 1.0) == 4.0**50


def test_q_factor_values():
    assert q_factor(2.0, 3.0, 1.0) == pytest.approx(0.125, abs=1e-15)
    assert q_factor(1.0, 3.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert q_factor(1.0, 7.3, 9.1) == pytest.approx(1.0, abs=1e-15)
    assert q_factor(2.0, 3.0, 2.0) == pytest.approx(0.1, abs=1e-15)


def test_alpha_min_values():
    assert alpha_min(2.0, 3.0, 1.1) == pytest.approx(2 * math.exp(-0.9), rel=1e-12)
    assert alpha_min(2.0, 3.0, 2.0) == pytest.approx(2 * math.exp(-9.0), rel=1e-12)
    with pytest.raises(ValueError):
        alpha_min(2.0, 3.0, 1.0)
    # the shipped working value 1e-5 sits far below the floor; only a report
    params = ConvexParams(lam=2, c=3, a=1.1, d=1, alpha=1e-5, gamma=0.6, t_max=1)
    assert not params.alpha_respects_floor()


def test_convex_params_validation():
    with pytest.raises(ValueError, match="floor"):
        ConvexParams(lam=2, c=2.0, a=1.1, d=1, alpha=0.5, gamma=0.6, t_max=1)
    with pytest.raises(ValueError, match="alpha"):
        ConvexParams(lam=2, c=3, a=1.1, d=1, alpha=1.5, gamma=0.6, t_max=1)
    with pytest.raises(ValueError, match="a must"):
        ConvexParams(lam=2, c=3, a=0.9, d=1, alpha=0.5, gamma=0.6, t_max=1)


def test_derived_quantities_recomputed():
    p = ConvexParams(lam=2, c=3, a=1.1, d=1, alpha=1e-5, gamma=0.6, t_max=1)
    assert p.q == pytest.approx(0.125)
    assert p.balance == pytest.approx(math.exp(-2 * 1.1 * 9), rel=1e-12)


def test_weight_profile_dynamic_range_bound():
    p = ConvexParams(lam=2, c=3, a=1.1, d=1, alpha=1e-5, gamma=0.6, t_max=1)
    ts = np.linspace(0, 1, 11)
    prof = p.weight_profile(ts)
    cap = math.exp(2 * 4.0**2 - 2 * 1.1 * 9.0)
    assert np.all(prof <= cap * (1 + 1e-12))
    assert prof[0] == pytest.approx(cap, rel=1e-12)


def test_weight_ratio_between_endpoints_exact_in_log():
    p = ConvexParams(lam=2, c=3, a=1.1, d=1, alpha=1e-5, gamma=0.6, t_max=1)
    ts = np.array([0.0, 1.0])
    prof = p.weight_profile(ts)
    assert math.log(prof[0] / prof[1]) == pytest.approx(2 * (16.0 - 9.0), rel=1e-12)


def test_weight_profile_overflow_rejected():
    p = ConvexParams(lam=6, c=3, a=1.1, d=1, alpha=1e-5, gamma=0.6, t_max=1)
    with pytest.raises(ValueError, match="exponent"):
        p.weight_profile(np.array([0.0, 1.0]))


def test_sampled_fields_have_vanishing_boundary_slope():
    # the cosine series is flat at both endpoints; a one-sided slope
    # estimate must shrink at second order under refinement
    def boundary_slope(g):
        rng = np.random.default_rng(2)  # same coefficient draw on both grids
        vals = sample_neumann_field(g, rng)
        left = (-3 * vals[0] + 4 * vals[1] - vals[2]) / (2 * g.dx)
        right = (3 * vals[-1] - 4 * vals[-2] + vals[-3]) / (2 * g.dx)
        return max(np.abs(left).max(), np.abs(right).max())

    coarse = boundary_slope(make_grid(-1, 1, 1, 0.1, 0.1, 0.6))
    fine = boundary_slope(make_grid(-1, 1, 1, 0.05, 0.05, 0.6))
    # third order: the odd derivatives of every cosine mode vanish at the
    # endpoints, so the stencil's leading dx^2 term drops out too
    assert 6.0 <= coarse / fine <= 10.0


def test_carleman_checker_zero_field_trivial(monkeypatch):
    # plant an all-zero first field in the batch; the checker must replace
    # it with the next draw of the stream and keep the other fields
    g = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)
    draws = _sequential_draws(g, 3, 7)
    fitted, _, passed = _reference_fit(
        [_reference_carleman_terms(u, 1.0, 3.0, g) for u in [draws[6]] + draws[1:6]])
    stub = _FirstFieldZeroed(seed=3)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: stub)
    rep = check_carleman_estimate(6, 1.0, 3.0, g, seed=3)
    assert stub.calls == 2  # the batch, then one redraw
    assert fitted is not None
    assert rep.passed == passed
    assert rep.fitted_c == pytest.approx(fitted, rel=1e-12)
    # fed to the fit directly, a zero field makes both sides vanish: nothing
    # constrains the constant and the inequality holds with zero gap
    zeros = np.zeros(5)
    rep = _fit_lower_constant(zeros, zeros, 2.0, 5, 0, 1e-9, kind="carleman")
    assert isinstance(rep, EstimateCheckReport)
    assert rep.fitted_c is None
    assert rep.passed
    assert rep.min_gap == 0.0


def test_quasi_checker_redraws_pair_with_degenerate_field(monkeypatch):
    g = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)
    coupling = _smooth_coupling(g)
    draws = _sequential_draws(g, 4, 12)
    pairs = [(draws[10], draws[11])] + [(draws[2 * k], draws[2 * k + 1])
                                        for k in range(1, 5)]
    fitted, _, passed = _reference_quasi_fit(
        [_reference_quasi_terms(u, v, coupling, 3.0, 3.0, g) for u, v in pairs])
    stub = _FirstFieldZeroed(seed=4)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: stub)
    rep = check_quasi_carleman(5, coupling, 3.0, 3.0, g, seed=4)
    assert stub.calls == 2
    assert fitted > 0
    assert rep.passed == passed
    assert rep.fitted_c == pytest.approx(fitted, rel=1e-12)


def test_checkers_reject_empty_sample_set():
    g = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples"):
            check_carleman_estimate(samples, 2.0, 3.0, g)
        with pytest.raises(ValueError, match="samples"):
            check_quasi_carleman(samples, _smooth_coupling(g), 2.0, 3.0, g)


@pytest.mark.parametrize("step", [0.1, 0.05])  # 21x11 and 41x21
def test_batched_draw_matches_sequential_sampler(step):
    g = make_grid(-1, 1, 1, step, step, 0.6)
    draws = _sequential_draws(g, 11, 12)
    for per_sample in (1, 2):  # u only; interleaved u, v
        stack = _neumann_field_stack(g, np.random.default_rng(11),
                                     12 // per_sample, per_sample)
        flat = stack.reshape(12, g.nx, g.nt)
        for k in range(12):
            scale = np.abs(draws[k]).max()
            assert np.abs(flat[k] - draws[k]).max() <= 1e-14 * scale


@pytest.mark.parametrize("step", [0.1, 0.05])
@pytest.mark.parametrize("lam", [1.0, 2.0, 5.0, 20.0])
def test_batched_checkers_match_per_sample_reference(step, lam):
    g = make_grid(-1, 1, 1, step, step, 0.6)
    rep = check_carleman_estimate(40, lam, 3.0, g, seed=2)
    fitted, _, passed = _reference_fit(
        [_reference_carleman_terms(u, lam, 3.0, g)
         for u in _sequential_draws(g, 2, 40)])
    assert rep.passed == passed
    if fitted is None:
        assert rep.fitted_c is None
    else:
        assert rep.fitted_c == pytest.approx(fitted, rel=1e-12, abs=0)

    coupling = _smooth_coupling(g)
    qrep = check_quasi_carleman(40, coupling, lam, 3.0, g, seed=2)
    draws = _sequential_draws(g, 2, 80)
    qfitted, _, qpassed = _reference_quasi_fit(
        [_reference_quasi_terms(draws[2 * k], draws[2 * k + 1], coupling,
                                lam, 3.0, g) for k in range(40)])
    assert qrep.passed == qpassed
    assert qrep.fitted_c == pytest.approx(qfitted, rel=1e-12, abs=0)


def test_carleman_checker_large_lambda_passes():
    g = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)
    rep = check_carleman_estimate(100, 20.0, 3.0, g, seed=0)
    assert rep.passed
    assert rep.min_gap >= 0.0


def test_carleman_checker_reproducible():
    g = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)
    a = check_carleman_estimate(50, 2.0, 3.0, g, seed=123)
    b = check_carleman_estimate(50, 2.0, 3.0, g, seed=123)
    assert a == b
    c = check_carleman_estimate(50, 2.0, 3.0, g, seed=124)
    assert c.min_gap != a.min_gap


def test_carleman_fitted_constant_stabilizes_under_refinement():
    coarse = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)
    fine = make_grid(-1, 1, 1, 0.05, 0.05, 0.6)
    ca = check_carleman_estimate(60, 1.0, 3.0, coarse, seed=7)
    cb = check_carleman_estimate(60, 1.0, 3.0, fine, seed=7)
    assert ca.fitted_c is not None and cb.fitted_c is not None
    assert cb.fitted_c <= ca.fitted_c * 1.05


def test_quasi_checker_zero_coupling_reduces_to_heat_check():
    g = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)
    zero_g = Field(g, np.zeros((g.nx, g.nt)))
    rep = check_quasi_carleman(60, zero_g, 10.0, 3.0, g, seed=1)
    assert rep.passed


def test_quasi_checker_reports_positive_constant_with_coupling(t11_case):
    g = t11_case.spec.grid
    coupling = Field(g, t11_case.spec.r_field.values * t11_case.m_true.values)
    rep = check_quasi_carleman(100, coupling, 2.0, 3.0, g, seed=0)
    assert rep.passed
    assert rep.fitted_c > 0
    assert rep.min_gap >= 0


def test_lambda_sweep_and_threshold():
    g = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)
    reports = lambda_sweep(g, 3.0, [1, 2, 3], samples=40, seed=0)
    assert first_passing_lambda(reports) == 1
    # a passing report with fitted constant 0 needs no rescue constant, so
    # it does not count; an unbounded fit (None) does
    zero_c = dataclasses.replace(reports[0], fitted_c=0.0)
    assert first_passing_lambda([zero_c] + reports[1:]) == 2
    unbounded = dataclasses.replace(reports[0], fitted_c=None)
    assert first_passing_lambda([unbounded]) == 1
    failed = dataclasses.replace(reports[0], passed=False)
    assert first_passing_lambda([failed]) is None


def test_report_json_roundtrip():
    g = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)
    rep = check_carleman_estimate(20, 2.0, 3.0, g, seed=5)
    payload = json.loads(rep.to_json())
    assert payload["lambda"] == 2.0
    assert payload["samples"] == 20
    assert payload["pass"] is True
    assert payload["seed"] == 5
