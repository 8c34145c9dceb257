import numpy as np
import pytest

from mfg_forecast.carleman import ConvexParams
from mfg_forecast.grid import make_grid
from mfg_forecast.model import KernelSpec, build_manufactured_case
import mfg_forecast.experiments as experiments


@pytest.fixture(scope="session")
def working_grid():
    """The working grid: step 0.1 on [-1,1] x [0,1], gamma 0.6."""
    return make_grid(-1.0, 1.0, 1.0, 0.1, 0.1, 0.6)


@pytest.fixture(scope="session")
def t11_case(working_grid):
    """Manufactured case of the first ideal test (double-well value fn)."""
    return build_manufactured_case(experiments._u_t11, experiments._m0_t11,
                                   KernelSpec(constant=1.0), working_grid,
                                   label="T1_1")


@pytest.fixture()
def residuals_off(monkeypatch):
    """Zero the Carleman weight profile, so w1 = w2 = 0 and only the H2
    regularizer is left in the objective, its gradient and its diagonal."""
    def zero_profile(self, t_nodes):
        return np.zeros(np.shape(t_nodes))

    monkeypatch.setattr(ConvexParams, "weight_profile", zero_profile)
