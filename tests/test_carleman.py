import dataclasses
import json
import math

import numpy as np
import pytest

from mfg_forecast import carleman
from mfg_forecast.carleman import ConvexParams, alpha_min, \
    check_carleman_estimate, check_quasi_carleman, \
    first_passing_lambda, lambda_sweep, log_cwf, min_c, q_factor, \
    sample_neumann_field
from mfg_forecast.grid import Field, make_grid

from carleman_reference import carleman_terms, quasi_terms, sequential_draws


def _smooth_coupling(grid):
    x, t = np.meshgrid(grid.x_nodes(), grid.t_nodes(), indexing="ij")
    return Field(grid, 1.0 + 0.5 * np.cos(math.pi * x) * (1.0 - t))


def _t11_coupling(t11_case):
    return Field(t11_case.spec.grid,
                 t11_case.spec.r_field.values * t11_case.m_true.values)


def _assert_samples_hold(rep, coupling, grid, count):
    """Every sampled field (pair) satisfies the estimate at the constant."""
    draws = sequential_draws(grid, 2, 2 * count)
    if rep.kind == "carleman":
        ratios = [lhs / s for lhs, s in (carleman_terms(u, rep.lambda_tested, 3.0, grid)
                                         for u in draws[:count]) if s > 0]
        assert rep.fitted_c <= min(ratios, default=math.inf)
    else:
        deficits = [(explicit - lhs) / d for lhs, explicit, d in
                    (quasi_terms(draws[2 * k], draws[2 * k + 1], coupling,
                                 rep.lambda_tested, 3.0, grid) for k in range(count))]
        assert rep.fitted_c >= max(deficits)


def test_min_c_values():
    assert min_c(1.0) == pytest.approx(1 + math.sqrt(3), abs=1e-12)
    assert min_c(4.0) == pytest.approx(4.0, abs=1e-12)
    assert 3.0 >= min_c(1.0)  # the working c=3 is admissible at t_max=1
    with pytest.raises(ValueError):
        min_c(0.0)


# The weight cwf = exp(log_cwf) is monotone in its exponent, so each
# property of cwf is checked on log_cwf, which stays finite beyond the
# double range of cwf.

def test_cwf_pointwise_values():
    assert log_cwf(1.0, 2.0, 3.0, 1.0) == pytest.approx(9.0, rel=1e-15)
    assert log_cwf(0.0, 2.0, 3.0, 1.0) == pytest.approx(16.0, rel=1e-15)
    assert log_cwf(0.0, 50.0, 3.0, 1.0) == 4.0**50


def test_cwf_monotone_decreasing_in_time():
    vals = [log_cwf(t, 2.0, 3.0, 1.0) for t in (0.0, 0.2, 0.8, 1.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_cwf_monotone_increasing_in_exponent():
    # holds wherever the base T - t + c exceeds 1, i.e. t < T + c - 1
    for t in (0.0, 0.5, 1.0):
        vals = [log_cwf(t, lam, 3.0, 1.0) for lam in (1.0, 2.0, 3.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_cwf_peak_at_initial_time():
    g = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)
    vals = log_cwf(g.t_nodes(), 2.0, 3.0, g.t_max)
    assert vals[0] == vals.max()
    p = ConvexParams(lam=2, c=3, a=1.1, d=1, alpha=1e-5, gamma=0.6, t_max=1)
    prof = p.weight_profile(g.t_nodes())
    assert prof[0] == prof.max()


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
    assert params.alpha < params.alpha_floor


def test_convex_params_validation():
    with pytest.raises(ValueError, match="floor"):
        ConvexParams(lam=2, c=2.0, a=1.1, d=1, alpha=0.5, gamma=0.6, t_max=1)
    with pytest.raises(ValueError, match="alpha"):
        ConvexParams(lam=2, c=3, a=1.1, d=1, alpha=1.5, gamma=0.6, t_max=1)
    with pytest.raises(ValueError, match="a must"):
        ConvexParams(lam=2, c=3, a=0.9, d=1, alpha=0.5, gamma=0.6, t_max=1)
    # NaN fails every bound, and the message names the parameter
    base = dict(lam=2, c=3, a=1.1, d=1, alpha=0.5, gamma=0.6, t_max=1)
    for name, message in (("lam", "lam must"), ("c", "c=nan"),
                          ("a", "a must"), ("d", "d must")):
        with pytest.raises(ValueError, match=message):
            ConvexParams(**dict(base, **{name: math.nan}))


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


def test_least_multiplier_branches():
    # smallest k >= 0 with a + k*b >= 0, on pencils with known answers
    eye = np.eye(2)
    k, coef = carleman._least_multiplier(np.diag([-1.0, 2.0]), np.diag([1.0, 0.0]),
                                         3 * eye)
    assert k == pytest.approx(1.0, rel=1e-12)
    assert abs(coef[1]) < 1e-12 and abs(coef[0]) > 0
    # a >= 0 already: no multiplier needed
    assert carleman._least_multiplier(eye, eye, 2 * eye) == (0.0, None)
    # a negative where b vanishes: no multiplier works
    k, _ = carleman._least_multiplier(np.diag([1.0, -1.0]), np.diag([1.0, 0.0]),
                                      2 * eye)
    assert k == math.inf
    # a and b both vanish on a direction that scale still counts: unresolved
    k, _ = carleman._least_multiplier(np.diag([-1.0, 0.0]), np.diag([1.0, 0.0]),
                                      2 * eye)
    assert k is None
    # scale numerically singular: unresolved
    nearly = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
    assert carleman._least_multiplier(-nearly, nearly, nearly) == (None, None)


@pytest.mark.parametrize("step", [0.1, 0.05])  # 21x11 and 41x21
@pytest.mark.parametrize("lam", [1.0, 2.0, 3.0, 5.0, 20.0])
def test_batched_checkers_match_per_sample_reference(step, lam):
    # the constants come from quadratic forms over the whole basis at once;
    # every field the per-sample reference draws satisfies the estimate at
    # them, and where the weight's range leaves the forms unresolved no
    # constant is reported and nothing passes
    g = make_grid(-1, 1, 1, step, step, 0.6)
    coupling = _smooth_coupling(g)
    for rep in (check_carleman_estimate(lam, 3.0, g),
                check_quasi_carleman(coupling, lam, 3.0, g)):
        if lam >= 5:
            assert rep.status == "unresolved"
            assert rep.fitted_c is None and not rep.passed
            continue
        assert rep.status == "constant" and rep.passed and rep.fitted_c > 0
        _assert_samples_hold(rep, coupling, g, 100)


@pytest.mark.parametrize("lam", [1.0, 2.0, 3.0])
def test_extremal_field_attains_the_constant(t11_case, lam):
    # the eigenvector behind each constant, evaluated as a field by the
    # per-sample reference, meets the estimate with equality
    g = t11_case.spec.grid
    basis = carleman._neumann_basis(g)
    k, coef = carleman._least_multiplier(*carleman._carleman_forms(lam, 3.0, g))
    lhs, s = carleman_terms(np.tensordot(coef, basis, 1), lam, 3.0, g)
    assert lhs / s == pytest.approx(check_carleman_estimate(lam, 3.0, g).fitted_c,
                                    rel=1e-6)
    coupling = _t11_coupling(t11_case)
    k, coef = carleman._least_multiplier(*carleman._quasi_forms(coupling, lam, 3.0, g))
    u = np.tensordot(coef[:len(basis)], basis, 1)
    v = np.tensordot(coef[len(basis):], basis[carleman._T_DEGREE + 1:], 1)
    lhs, explicit, d = quasi_terms(u, v, coupling, lam, 3.0, g)
    assert (explicit - lhs) / d == pytest.approx(
        check_quasi_carleman(coupling, lam, 3.0, g).fitted_c, rel=1e-6)


def test_unresolved_lambda_reports_no_constant(t11_case):
    # at lambda 4 the weight falls by e^-49 over the first time step, so
    # the basis is dependent to rounding in the weighted norm: the check
    # says so instead of fitting a constant to rounding noise
    g = t11_case.spec.grid
    for rep in (check_carleman_estimate(4.0, 3.0, g),
                check_quasi_carleman(_t11_coupling(t11_case), 4.0, 3.0, g)):
        assert rep.status == "unresolved"
        assert rep.fitted_c is None and not rep.passed
        assert rep.to_dict()["status"] == "unresolved"
    assert first_passing_lambda([rep]) is None


def test_carleman_checker_reproducible():
    # no random draws: repeated checks agree exactly, whatever the global
    # generator state
    g = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)
    a = check_carleman_estimate(2.0, 3.0, g)
    np.random.seed(5)
    np.random.uniform()
    assert check_carleman_estimate(2.0, 3.0, g) == a


def test_carleman_fitted_constant_stabilizes_under_refinement():
    coarse = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)
    fine = make_grid(-1, 1, 1, 0.05, 0.05, 0.6)
    ca = check_carleman_estimate(1.0, 3.0, coarse)
    cb = check_carleman_estimate(1.0, 3.0, fine)
    assert ca.fitted_c is not None and cb.fitted_c is not None
    assert cb.fitted_c <= ca.fitted_c * 1.05


def test_quasi_checker_zero_coupling_reduces_to_heat_check():
    # without coupling v enters only the rescue term, which is then free:
    # the estimate is a heat check on u alone, and the extremal pair has
    # no v part
    g = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)
    zero_g = Field(g, np.zeros((g.nx, g.nt)))
    rep = check_quasi_carleman(zero_g, 2.0, 3.0, g)
    assert rep.passed and rep.status == "constant"
    _, coef = carleman._least_multiplier(*carleman._quasi_forms(zero_g, 2.0, 3.0, g))
    n = len(carleman._neumann_basis(g))
    assert np.abs(coef[n:]).max() <= 1e-8 * np.abs(coef[:n]).max()


def test_quasi_checker_reports_positive_constant_with_coupling(t11_case):
    g = t11_case.spec.grid
    rep = check_quasi_carleman(_t11_coupling(t11_case), 2.0, 3.0, g)
    assert rep.passed
    assert rep.fitted_c > 0


def test_lambda_sweep_and_threshold():
    g = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)
    reports = lambda_sweep(g, 3.0, [1, 2, 3])
    assert first_passing_lambda(reports) == 1
    # a passing report with fitted constant 0 needs no rescue constant, so
    # it does not count; an unbounded fit (None) does
    zero_c = dataclasses.replace(reports[0], fitted_c=0.0)
    assert first_passing_lambda([zero_c] + reports[1:]) == 2
    unbounded = dataclasses.replace(reports[0], fitted_c=None, status="unbounded")
    assert first_passing_lambda([unbounded]) == 1
    failed = dataclasses.replace(reports[0], passed=False)
    assert first_passing_lambda([failed]) is None


def test_report_json_roundtrip():
    g = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)
    rep = check_carleman_estimate(2.0, 3.0, g)
    payload = json.loads(json.dumps(rep.to_dict()))
    assert payload == {"lambda": 2.0, "fitted_c": rep.fitted_c,
                       "status": "constant", "pass": True, "kind": "carleman"}
