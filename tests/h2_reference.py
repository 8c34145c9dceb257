"""The discrete H2 norm written out term by term: the tests' independent
reference for the objective's Gram form and for ``state_h2_norm``."""

import math

from mfg_forecast.calculus import diff_matrices, integrate_qt
from mfg_forecast.grid import Field


def h2_norm_discrete(field: Field) -> float:
    """Discrete H^2 surrogate norm over the full cylinder.

    sqrt of the summed squared L2 norms of f, d_dt f, d_dx f, d2_dx2 f.
    This stands in for the high-order Sobolev regularizer: on a fixed
    lattice every discrete norm is equivalent, and second derivatives are
    the highest ones the 21 x 11 working grids can support meaningfully.
    """
    grid = field.grid
    dtm, dxm, dxxm = diff_matrices(grid)
    total = integrate_qt(grid, field.values**2)
    total += integrate_qt(grid, (field.values @ dtm.T) ** 2)
    total += integrate_qt(grid, (dxm @ field.values) ** 2)
    total += integrate_qt(grid, (dxxm @ field.values) ** 2)
    return math.sqrt(total)
