"""The finite-difference oracle as it drew and reduced its directions chunk
by chunk: the tests' reference for ``objective.gradient_fd_check``.

Each chunk of at most ``FD_STACK_NODES`` nodes per field draws its own
directions, takes their analytic derivatives and folds its readings into
the running maximum before the next chunk is drawn.
"""

import numpy as np

from mfg_forecast import objective
from mfg_forecast.carleman import sample_neumann_field


def max_rel_error_by_chunk(spec, params, seed):
    rng = np.random.default_rng(seed)
    grid = spec.grid
    obj = objective.Objective(spec, params)
    chunk = max(1, objective.FD_STACK_NODES // (4 * grid.nx * grid.nt))
    worst = 0.0
    for _ in range(objective.FD_STATES):
        z = np.stack([sample_neumann_field(grid, rng) for _ in range(2)])
        g = obj.value_and_gradient_arrays(obj.value_arrays(z))
        h = 1e-2 * (1.0 + np.abs(z).max())
        steps = np.array([h, -h, 2 * h, -2 * h])[:, None, None, None]
        for start in range(0, objective.FD_DIRECTIONS, chunk):
            d = rng.standard_normal((min(chunk, objective.FD_DIRECTIONS - start), 2,
                                     grid.nx, grid.nt)).swapaxes(0, 1)
            d[..., 0] = 0.0
            scale = np.sqrt(np.sum(d[0]**2, axis=(1, 2)) + np.sum(d[1]**2, axis=(1, 2)))
            d /= scale[:, None, None]
            analytic = (np.sum(g[0] * d[0], axis=(1, 2)) +
                        np.sum(g[1] * d[1], axis=(1, 2)))
            j = obj.value_arrays(z[:, None, None] + steps * d[:, None]).total
            fd = (8.0 * (j[0] - j[1]) - (j[2] - j[3])) / (12 * h)
            rel = np.abs(analytic - fd) / (np.abs(analytic) + 1e-12)
            worst = np.maximum(worst, rel.max())
    return float(worst)
