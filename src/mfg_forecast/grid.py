"""Uniform space-time lattice and scalar fields sampled on it.

Everything downstream (difference operators, residuals, the objective)
shares the geometry defined here.  Grids are vertex-centered: both spatial
endpoints and both t=0, t=t_max are lattice planes, so initial data live
on lattice nodes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Steps must divide the extents this tightly (relative).
_DIVISIBILITY_RTOL = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniform lattice over [x_min, x_max] x [0, t_max].

    Node (i, j) sits at (x_min + i*dx, j*dt).  ``gamma`` in (0, 1) marks the
    early-time sub-cylinder [0, gamma*t_max] used by the recovery-error norm.
    """

    x_min: float
    x_max: float
    t_max: float
    dx: float
    dt: float
    nx: int
    nt: int
    gamma: float

    def x_nodes(self) -> np.ndarray:
        # Direct formula, never cumulative summation: keeps nodes exact.
        return self.x_min + self.dx * np.arange(self.nx)

    def t_nodes(self) -> np.ndarray:
        return self.dt * np.arange(self.nt)

    def n_t_gamma(self) -> int:
        """Number of time nodes with t_j <= gamma * t_max."""
        raw = self.gamma * self.t_max / self.dt
        # Nudge guards against 0.6/0.1 = 5.999... style float droop.
        return int(np.floor(raw + 1e-9 * max(1.0, raw))) + 1


def make_grid(x_min: float, x_max: float, t_max: float, dx: float, dt: float,
              gamma: float) -> Grid:
    """Build a grid, rejecting steps that do not divide the extents.

    Raises ValueError naming the offending axis when (x_max - x_min)/dx or
    t_max/dt is not an integer to within 1e-12 relative, when gamma is
    outside (0, 1), or when the recovery window [0, gamma*t_max] holds fewer
    than two time nodes.
    """
    if not x_min < x_max:
        raise ValueError(f"x_min must be below x_max, got [{x_min}, {x_max}]")
    if not t_max > 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    for name, step in (("dx", dx), ("dt", dt)):
        if not step > 0:
            raise ValueError(f"{name} must be positive, got {step}")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    nx = _count_nodes(x_max - x_min, dx, axis="x")
    nt = _count_nodes(t_max, dt, axis="t")
    grid = Grid(float(x_min), float(x_max), float(t_max), float(dx), float(dt),
                nx, nt, float(gamma))
    if grid.n_t_gamma() < 2:
        raise ValueError(f"gamma={gamma} leaves the recovery window [0, "
                         f"{gamma * t_max:g}] with fewer than two time nodes at dt={dt}")
    return grid


def _count_nodes(extent: float, step: float, axis: str) -> int:
    ratio = extent / step
    n = round(ratio)
    if n < 1 or abs(ratio - n) > _DIVISIBILITY_RTOL * max(1.0, abs(ratio)):
        raise ValueError(
            f"step {step} does not divide the {axis}-extent {extent} "
            f"(ratio {ratio} is not an integer)")
    return n + 1


@dataclass(frozen=True)
class Field:
    """A real scalar sampled on every grid node, immutable once built.

    ``values`` has shape (nx, nt); entry [i, j] is the sample at
    (x_min + i*dx, j*dt).  Construction copies the input, in C order, and
    freezes it, so fields are safe to share across threads.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, order="C")
        if vals.shape != (self.grid.nx, self.grid.nt):
            raise ValueError(
                f"field shape {vals.shape} does not match grid "
                f"({self.grid.nx}, {self.grid.nt})")
        if not np.isfinite(vals).all():
            i, j = np.argwhere(~np.isfinite(vals))[0]
            raise ValueError(
                f"non-finite field value at node (i={i}, j={j}): {vals[i, j]} at "
                f"x={self.grid.x_nodes()[i]}, t={self.grid.t_nodes()[j]}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def field_from_function(grid: Grid, g: Callable[[float, float], float]) -> Field:
    """Sample g(x, t) at every (np.float64) node, one row of x at a time.

    Rejects (ValueError) if g returns a non-finite value; the message names
    the first such node, its value, x and t.
    """
    ts = list(grid.t_nodes())  # iterating a list does not re-box each node
    vals = np.empty((grid.nx, grid.nt))
    for i, x in enumerate(grid.x_nodes()):
        vals[i] = [g(x, t) for t in ts]
    return Field(grid, vals)


def write_field_csv(field: Field, path) -> None:
    """Write `x,t,value` rows, grouped by time slice, 17 significant digits.

    Each coordinate is formatted once per file and each time slice goes
    out in one write.
    """
    xs = [f"{x:.17g}," for x in field.grid.x_nodes().tolist()]
    ts = field.grid.t_nodes().tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,t,value\n")
        for t, column in zip(ts, field.values.T.tolist()):
            tail = f"{t:.17g},"
            fh.write("".join([f"{x}{tail}{v:.17g}\n" for x, v in zip(xs, column)]))


def write_table_csv(path, header: str, rows) -> None:
    """Write a header line, then one line per row of numbers, 17 significant
    digits each."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join([f"{v:.17g}" for v in row]) + "\n" for row in rows)


def write_json(path, payload) -> None:
    """Write ``payload`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
