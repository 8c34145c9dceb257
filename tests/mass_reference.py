"""The trapezoid integral in x of one time slice: the tests' mass reference
for the Fokker-Planck solver's conservation."""

import numpy as np

from mfg_forecast.calculus import weights_x
from mfg_forecast.grid import Grid


def integrate_x(grid: Grid, values: np.ndarray) -> float:
    """Trapezoid integral of nodal values over [x_min, x_max]."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.nx,):
        raise ValueError(f"expected {grid.nx} nodal values, got shape {values.shape}")
    return float(weights_x(grid) @ values)
