"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.  Values marked
"recorded" were produced by this package under the shipped defaults and
are regression-tested so silent drift is caught.
"""

import math
import time

import numpy as np
import pytest

from mfg_forecast.carleman import ConvexParams, alpha_min, \
    check_carleman_estimate, check_quasi_carleman, sample_neumann_field
from mfg_forecast.grid import Field, make_grid
from mfg_forecast.model import solve_fokker_planck
from mfg_forecast.objective import gradient_fd_check
from mfg_forecast.optimizer import CONVERGED
from mfg_forecast.experiments import resolve_config, run_test
import mfg_forecast.experiments as experiments

from carleman_reference import carleman_terms, quasi_terms, sequential_draws
from convexity_reference import convexity_probe
from mass_reference import integrate_x

# Recorded values under the shipped defaults (grid step 0.1, seeds below).
RECORDED_FP_RESIDUAL = 0.87039025753156873
SCHEME_MISMATCH_C = 8.0  # recorded bound constant for |R2| <= C*(dt + dx^2)
RECORDED_CARLEMAN_LAMBDA = 1
RECORDED_CARLEMAN_C1 = 1.2851026349645807
RECORDED_QUASI_LAMBDA = 1
RECORDED_QUASI_C2 = 0.1385678762851406

WORKING_PARAMS = dict(lam=2.0, c=3.0, a=1.1, d=1.0, alpha=1e-5)


def _params(**kw):
    base = dict(WORKING_PARAMS, gamma=0.6, t_max=1.0)
    base.update(kw)
    return ConvexParams(**base)


def test_criterion_01_gradient_correctness(t11_case):
    started = time.time()
    cfg = resolve_config("T1_1", {})
    _, spec, _ = experiments._build_problem("T1_1", cfg)
    report = gradient_fd_check(spec, _params(), seed=7)
    elapsed = time.time() - started
    assert report["max_rel_error"] < 1e-6
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 gradient correctness: PASS "
          f"(max rel err {report['max_rel_error']:.2e}, {elapsed:.1f}s)")


def test_criterion_02_mass_conservation(t11_case):
    grid = t11_case.spec.grid
    m = solve_fokker_planck(t11_case.u_true, t11_case.spec.m0)
    mass0 = integrate_x(grid, m.values[:, 0])
    drift = max(abs(integrate_x(grid, m.values[:, j]) - mass0)
                for j in range(grid.nt))
    assert drift < 1e-8
    print(f"\nACCEPTANCE 2 mass conservation: PASS (max drift {drift:.2e})")


def test_criterion_03_manufactured_identity(t11_case):
    grid = t11_case.spec.grid
    assert t11_case.hjb_residual_norm < 1e-12
    bound = SCHEME_MISMATCH_C * (grid.dt + grid.dx**2)
    assert t11_case.fp_residual_norm < bound
    # regression on the recorded values
    assert t11_case.hjb_residual_norm < 1e-13
    assert t11_case.fp_residual_norm == pytest.approx(RECORDED_FP_RESIDUAL,
                                                      rel=1e-6)
    print(f"\nACCEPTANCE 3 manufactured identity: PASS "
          f"(|R1|={t11_case.hjb_residual_norm:.2e}, "
          f"|R2|={t11_case.fp_residual_norm:.6f} < {bound:.3f})")


@pytest.mark.parametrize("test_id", ["T1_1", "T1_2", "T2_1", "T2_2", "T3_1"])
def test_criterion_04_working_parameter_convergence(test_id):
    report = run_test(test_id)  # defaults: lam=2, c=3, a=1.1, alpha=1e-5,
    assert report.config["lam"] == 2.0  # 3% noise, fixed seed, step 0.1
    assert report.config["noise"] == 0.03
    assert report.status == CONVERGED
    assert report.trace.rows[-1].foo_ratio < 1e-5
    print(f"\nACCEPTANCE 4 convergence {test_id}: PASS "
          f"({len(report.trace.rows)} iterations, "
          f"optimality {report.trace.rows[-1].foo_ratio:.2e})")


def test_criterion_05_recovery_error_noise_trend():
    # Tight optimality so the comparison is between minimizers; at the
    # working tolerance the ordering reflects line-search wander in the
    # nearly flat directions instead of the data error.
    errors = []
    for level in (0.0, 0.015, 0.03, 0.06):
        report = run_test("T1_1", noise=level, tol=1e-7, max_iters=60000)
        assert report.status == CONVERGED
        errors.append((level, report.errors.u_h10, report.errors.m_h10))
    for (l0, u0, m0), (l1, u1, m1) in zip(errors, errors[1:]):
        assert u1 >= u0 - 1e-9, f"u error decreased from noise {l0} to {l1}"
        assert m1 >= m0 - 1e-9, f"m error decreased from noise {l0} to {l1}"
    scale = 10.0 * (1e-12 + RECORDED_FP_RESIDUAL)
    assert errors[0][1] < scale and errors[0][2] < scale
    trend = ", ".join(f"{u:.3f}/{m:.3f}" for _, u, m in errors)
    print(f"\nACCEPTANCE 5 noise trend: PASS (u/m errors {trend})")


def test_criterion_06_extended_time_blowup_shape():
    # The diagnostic shape holds at every budget from 500 iterations on
    # (late/mid 3e4 to 7e5, mid min 1.4 to 2.5 against an early mean of
    # 8.9 at 500 to 4000).  The run is at a relative optimality of 5e-5
    # after 4000 iterations and reaches 1e-5 only after 19845, a limit of
    # the L-BFGS optimizer on the doubled weight range: a
    # Gauss-Newton-then-Newton solver ("switch" in ROADMAP.md) passes that
    # ratio, but stalls at 3.5e-8 and takes more than 300 steps without
    # reaching stationarity (a ratio of 1e-9).
    report = run_test("T1_1_extended", max_iters=4000)
    t, F = report.grid.t_nodes(), report.rel_cost
    mid = F[(t >= 0.3 - 1e-12) & (t <= 1.0 + 1e-12)]
    late = F[t > 1.0 + 1e-12]
    early = F[(t > 1e-12) & (t < 0.3 - 1e-12)]
    assert late.max() >= 5.0 * mid.mean()
    assert mid.min() < early.mean()
    print(f"\nACCEPTANCE 6 extended-time shape: PASS "
          f"(late/mid {late.max() / mid.mean():.0f}x, "
          f"mid min {mid.min():.2f} < early mean {early.mean():.2f})")


def test_criterion_07_carleman_estimate_thresholds(t11_case):
    grid = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)
    threshold = None
    for lam in range(1, 51):
        rep = check_carleman_estimate(lam, 3.0, grid)
        if rep.passed and (rep.fitted_c is None or rep.fitted_c > 0):
            threshold, report = lam, rep
            break
    assert threshold is not None and threshold <= 50
    assert threshold == RECORDED_CARLEMAN_LAMBDA
    assert report.fitted_c == pytest.approx(RECORDED_CARLEMAN_C1, rel=1e-6)
    # the constant holds on 100 sampled fields, checked term by term
    draws = sequential_draws(grid, 0, 200)
    min_gap = min(lhs - report.fitted_c * s for lhs, s in
                  (carleman_terms(u, threshold, 3.0, grid) for u in draws[:100]))
    assert min_gap >= 0.0

    coupling = Field(grid, -t11_case.m_true.values)
    q_threshold = None
    for lam in range(1, 51):
        rep = check_quasi_carleman(coupling, lam, 3.0, grid)
        if rep.passed and rep.fitted_c is not None and rep.fitted_c > 0:
            q_threshold, q_report = lam, rep
            break
    assert q_threshold is not None and q_threshold <= 50
    assert q_threshold == RECORDED_QUASI_LAMBDA
    assert q_report.fitted_c == pytest.approx(RECORDED_QUASI_C2, rel=1e-6)
    q_min_gap = min(lhs - explicit + q_report.fitted_c * d for lhs, explicit, d in
                    (quasi_terms(draws[2 * k], draws[2 * k + 1], coupling,
                                 q_threshold, 3.0, grid) for k in range(100)))
    assert q_min_gap >= 0.0
    print(f"\nACCEPTANCE 7 carleman thresholds: PASS "
          f"(standard lam={threshold} C1={report.fitted_c:.3f}; "
          f"quasi lam={q_threshold} C2={q_report.fitted_c:.4f})")


def _probe_pairs(t11_case, n_pairs=100, seed=42, amplitude=0.3):
    grid = t11_case.spec.grid
    truth = np.stack((t11_case.u_true.values, t11_case.m_true.values))
    rng = np.random.default_rng(seed)
    ramp = (grid.t_nodes() / grid.t_max)[None, :]  # equal pinned slices
    for _ in range(n_pairs):
        states = []
        for _ in range(2):
            du = sample_neumann_field(grid, rng, amplitude=amplitude) * ramp
            dm = sample_neumann_field(grid, rng, amplitude=amplitude) * ramp
            states.append(truth + np.stack((du, dm)))
        yield tuple(states)


def test_criterion_08_convexity_probe(t11_case):
    # The carleman sweep already passes at lam=1, where the admissible
    # regularization floor 2*exp(-(a-1)*c^lam) exceeds 1 and is unusable;
    # the probe therefore runs at the smallest exponent with a usable
    # floor, lam=2, which is also the shipped working exponent.
    lam_conv = max(RECORDED_CARLEMAN_LAMBDA, 2)
    spec = t11_case.spec
    params_floor = _params(lam=float(lam_conv),
                           alpha=alpha_min(lam_conv, 3.0, 1.1))
    worst_slack = math.inf
    for s1, s2 in _probe_pairs(t11_case):
        probe = convexity_probe(s1, s2, params_floor, spec)
        worst_slack = min(worst_slack, probe.gap - probe.floor)
    assert worst_slack >= -1e-10

    params_working = _params()
    worst_gap = math.inf
    for s1, s2 in _probe_pairs(t11_case):
        probe = convexity_probe(s1, s2, params_working, spec)
        worst_gap = min(worst_gap, probe.gap)
    assert worst_gap >= 0.0
    print(f"\nACCEPTANCE 8 convexity probe: PASS "
          f"(floor slack {worst_slack:.1f} at lam={lam_conv} "
          f"alpha={params_floor.alpha:.3f}; min gap {worst_gap:.1f} at "
          f"alpha=1e-5)")


def test_criterion_09_kernel_sign_similarity():
    cmp = run_test("kernel_compare")
    assert cmp.plus.status == CONVERGED
    assert cmp.minus.status == CONVERGED
    t = cmp.plus.grid.t_nodes()
    window = (t >= 0.3 - 1e-12) & (t <= 1.0 + 1e-12)
    fp, fm = cmp.plus.rel_cost[window], cmp.minus.rel_cost[window]
    ratio = float(np.maximum(fp / fm, fm / fp).max())
    assert ratio < 10.0
    print(f"\nACCEPTANCE 9 kernel-sign similarity: PASS "
          f"(max pointwise ratio {ratio:.2f})")


def test_criterion_10_reproducibility(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_test("T1_2").export(out1)
    run_test("T1_2").export(out2)
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    grid = make_grid(-1, 1, 1, 0.1, 0.1, 0.6)
    r1 = check_carleman_estimate(2.0, 3.0, grid)
    r2 = check_carleman_estimate(2.0, 3.0, grid)
    assert r1.to_dict() == r2.to_dict()
    print(f"\nACCEPTANCE 10 reproducibility: PASS "
          f"({len(names)} files bit-identical)")
