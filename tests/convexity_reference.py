"""The Bregman-gap convexity probe of the functional: the tests' check
that J is convex, with the strong-convexity floor its regularizer gives,
between two states."""

from dataclasses import dataclass

import numpy as np

from mfg_forecast import calculus
from mfg_forecast.carleman import ConvexParams
from mfg_forecast.model import ProblemSpec
from mfg_forecast.objective import Objective


@dataclass(frozen=True)
class ConvexityGap:
    """Bregman gap between two states and its theoretical floor."""

    gap: float
    floor: float


def h2_quadratic(obj: Objective, z: np.ndarray) -> float:
    """|u|_H2^2 + |m|_H2^2 for one state z, by the objective's Gram form."""
    h = obj._h2_apply(z)
    return calculus.inner(z[0], h[0]) + calculus.inner(z[1], h[1])


def convexity_probe(z1: np.ndarray, z2: np.ndarray, params: ConvexParams,
                    spec: ProblemSpec) -> ConvexityGap:
    """J(z2) - J(z1) - <J'(z1), z2 - z1>, with floor (alpha/2)*|z2 - z1|^2.

    Both states must be (2, nx, nt) arrays on the spec grid and carry
    identical pinned t=0 data; the strong-convexity comparison is only
    defined for such pairs.
    """
    shape = (2, spec.grid.nx, spec.grid.nt)
    if z1.shape != shape or z2.shape != shape:
        raise ValueError("states must share a grid")
    if not np.array_equal(z1[:, :, 0], z2[:, :, 0]):
        raise ValueError("states must carry identical pinned initial data")
    obj = Objective(spec, params)
    b1 = obj.value_arrays(z1)
    g = obj.value_and_gradient_arrays(b1)
    b2 = obj.value_arrays(z2)
    dz = z2 - z1
    inner = float(np.sum(g[0] * dz[0]) + np.sum(g[1] * dz[1]))
    gap = b2.total - b1.total - inner
    floor = 0.5 * params.alpha * h2_quadratic(obj, dz)
    return ConvexityGap(gap, floor)
