"""Forecasting solver for 1-D mean field games via Carleman-weighted convexification."""

from mfg_forecast.calculus import h10_norm_gamma, l2_norm_qt
from mfg_forecast.carleman import ConvexParams, alpha_min, check_carleman_estimate, \
    check_quasi_carleman, min_c, q_factor
from mfg_forecast.experiments import NoiseSpec, RunReport, add_noise, \
    recovery_errors, relative_cost_curve, run_test
from mfg_forecast.grid import Field, Grid, field_from_function, make_grid, \
    write_field_csv
from mfg_forecast.model import ManufacturedCase, ProblemSpec, \
    build_manufactured_case, manufactured_source, solve_fokker_planck
from mfg_forecast.objective import ObjectiveBreakdown
from mfg_forecast.optimizer import IterationTrace, MinimizeResult, OptimizerConfig, \
    make_start, minimize

__version__ = "0.1.0"
