"""Uniform space-time lattice and scalar fields sampled on it.

Everything downstream (difference operators, residuals, the objective)
shares the geometry defined here.  Grids are vertex-centered: both spatial
endpoints and both t=0, t=t_max are lattice planes, so initial data live
on lattice nodes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
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
    """Sample g(x, t) at every node, one row of x at a time.

    The nodes are plain Python floats (``tolist`` of the node arrays), with
    the values of the np.float64 nodes, so g does plain float arithmetic.
    Rejects (ValueError) if g returns a non-finite value; the message names
    the first such node, its value, x and t.
    """
    ts = grid.t_nodes().tolist()
    vals = np.empty((grid.nx, grid.nt))
    for i, x in enumerate(grid.x_nodes().tolist()):
        vals[i] = [g(x, t) for t in ts]
    return Field(grid, vals)


# Exact 17-significant-digit decimals of many doubles at once (see
# write_field_csv).  10**k is an exact double for k <= 22, and so are the
# halves of its Dekker split by 2**27 + 1.
_SPLITTER = 134217729.0
_POW10 = 10.0 ** np.arange(23)
_POW10_HI = _SPLITTER * _POW10 - (_SPLITTER * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# The ASCII digits of each four-digit group 0000..9999, read as one uint32,
# and the group's count of trailing zero digits.
_GROUP_DIGITS = (np.arange(10000, dtype=np.uint16)[:, None]
                 // np.array([1000, 100, 10, 1], np.uint16) % 10
                 + ord("0")).astype(np.uint8).view(np.uint32).ravel()
_GROUP_TRAILING = sum((np.arange(10000, dtype=np.uint16) % 10 ** k == 0)
                      .astype(np.int8) for k in (1, 2, 3, 4))
# Values formatted per file write: whole time slices, about 2048 values, so
# that a write's buffers stay in cache and are reused from the heap.
_BLOCK_VALUES = 2048
_VALUE_BYTES = 29  # a value's row of bytes; its newline is at column 28 at most


def _layouts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bytes of `f"{v:.17g}\\n"` by (sign, X + 6, n): CONST, FIRST, SECOND.

    X in [-6, 16] is the decimal exponent and n in [0, 17] the number of
    significant digits left after dropping trailing zeros (0 for a zero).
    With the 17 digits at columns 6..22 in A and at 7..23 in B, a value's
    row is CONST + A * FIRST + B * SECOND: the digits from column 6, the
    point before the (X + 1)-th digit (after the first in exponent form,
    none for X < 0), then the exponent of X < -4 and the newline; the
    "0.0..." of -4 <= X < 0 and the sign end at column 5.  Every other
    byte is zero, so the row's characters are contiguous.
    """
    x = np.arange(-6, 17)[:, None]
    n = np.arange(18)
    exponent = x < -4
    point = np.where(exponent, 1, np.where(x < 0, 18, x + 1))
    whole = np.where((x >= -4) & (x < 0), 0, point)  # digits kept in any case
    end = np.where(n > point, n + 1, np.maximum(n, whole))
    end[:, 0] = 1  # a zero is one "0"
    col = np.arange(18)
    kept = (col < end[..., None]) & (n[:, None] > 0)
    first = np.zeros((23, 18, _VALUE_BYTES), np.uint8)
    second = np.zeros((23, 18, _VALUE_BYTES), np.uint8)
    const = np.zeros((2, 23, 18, _VALUE_BYTES), np.uint8)
    first[..., 6:24] = kept & (col < point[..., None])
    second[..., 6:24] = kept & (col > point[..., None])
    const[..., 6:24] = ord(".") * (kept & (col == point[..., None]))
    const[:, :, 0, 6] = ord("0")
    newline = 6 + end
    for q, e in enumerate(x.ravel().tolist()):
        prefix = b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b""
        const[:, q, 1:, 6 - len(prefix):6] = np.frombuffer(prefix, np.uint8)
        const[1, q, 1:, 5 - len(prefix)] = const[1, q, 0, 5] = ord("-")
        if exponent[q, 0]:
            for m in range(1, 18):
                const[:, q, m, newline[q, m]:newline[q, m] + 4] = np.frombuffer(
                    b"e%+03d" % e, np.uint8)
            newline[q, 1:] += 4
    np.put_along_axis(const, np.broadcast_to(newline[..., None], (2, 23, 18, 1)),
                      ord("\n"), axis=3)
    return (const.reshape(-1, _VALUE_BYTES),
            np.tile(first.reshape(-1, _VALUE_BYTES), (2, 1)),
            np.tile(second.reshape(-1, _VALUE_BYTES), (2, 1)))


_CONST, _FIRST, _SECOND = _layouts()


def _significands(mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(D, k): the integer D = |v| 10**k rounded half to even, in
    [1e16, 1e17), of each 1e-6 < |v| < 1e17 (see write_field_csv)."""
    split = _SPLITTER * mag
    mag_hi = split - (split - mag)
    mag_lo = mag - mag_hi
    # k = 16 - X puts |v| 10**k in [1e16, 1e17); log10 may miss X by one.
    k = (16 - np.clip(np.floor(np.log10(mag)), -6, 16)).astype(np.intp)
    while True:
        p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
        hi = mag * _POW10[k]
        lo = ((mag_hi * p_hi - hi) + mag_hi * p_lo + mag_lo * p_hi) + mag_lo * p_lo
        # hi - 1e16 is exact where it is small (Sterbenz), so the sums have
        # the signs of the exact product's distances to 1e16 and 1e17.
        low = (hi - 1e16) + lo < 0
        high = (hi - 1e17) + lo >= 0
        if not (low.any() or high.any()):
            break
        k += low
        k -= high
    digits = hi.astype(np.int64)
    digits += np.rint(lo).astype(np.int64)
    return digits, k


def _digit_rows(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 ASCII digits of each D at columns 7..23 of a row of
    _VALUE_BYTES, the rows in one flat buffer with a spare row at the end,
    and how many digits of each D are left after dropping trailing zeros."""
    n = digits.size
    lead = digits // 10 ** 16
    rest = digits - lead * 10 ** 16
    groups = np.empty((4, n), np.int64)
    np.floor_divide(rest, 10 ** 8, out=groups[0])
    np.subtract(rest, groups[0] * 10 ** 8, out=groups[2])
    groups[1], groups[3] = groups[0], groups[2]
    groups[::2] //= 10 ** 4
    groups[1::2] -= groups[::2] * 10 ** 4
    flat = np.empty((n + 1) * _VALUE_BYTES, np.uint8)
    rows = flat.reshape(n + 1, _VALUE_BYTES)[:n]
    np.add(lead, ord("0"), out=rows[:, 7], casting="unsafe")
    for g in range(4):
        rows[:, 8 + 4 * g:12 + 4 * g].view(np.uint32)[:, 0] = _GROUP_DIGITS[groups[g]]
    trailing = _GROUP_TRAILING[groups]
    zero = groups == 0
    return flat, 17 - (trailing[3] + zero[3] * (trailing[2] + zero[2] * (
        trailing[1] + zero[1] * trailing[0])))


def _format_lines(values: np.ndarray) -> np.ndarray:
    """`f"{v:.17g}\\n"` of each of the 1-D ``values``, one row of _VALUE_BYTES
    bytes each, padded with zero bytes (see write_field_csv)."""
    n = values.size
    mag = np.abs(values)
    fast = (mag > 1e-6) & (mag < 1e17)
    nonzero = mag != 0
    digits, k = _significands(np.where(fast, mag, 1.0))
    flat, n_digits = _digit_rows(digits)
    key = (np.signbit(values) * 23 + 22 - k) * 18
    key += n_digits * nonzero
    # A and B of _layouts are the flat digit rows read one byte apart.
    out = np.take(_CONST, key, axis=0)  # take: rows faster than indexing
    for table, start in ((_FIRST, 1), (_SECOND, 0)):
        part = np.take(table, key, axis=0)
        part *= flat[start:start + n * _VALUE_BYTES].reshape(n, _VALUE_BYTES)
        out += part
    slow = np.flatnonzero(~fast & nonzero)
    if slow.size:
        text = b"".join([f"{v:.17g}\n".encode().ljust(_VALUE_BYTES, b"\0")
                         for v in values[slow].tolist()])
        out[slow] = np.frombuffer(text, np.uint8).reshape(slow.size, _VALUE_BYTES)
    return out


def _padded(strings: list[str], justify) -> np.ndarray:
    """The strings as void items of one width, justified by ``bytes.ljust``
    or ``bytes.rjust`` with zero bytes."""
    data = [s.encode() for s in strings]
    width = max(map(len, data))
    return np.frombuffer(b"".join([justify(s, width, b"\0") for s in data]),
                         f"V{width}")


@lru_cache(maxsize=None)
def _coordinates(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The x and t coordinates of a grid's CSV lines, each followed by its
    comma, padded (see write_field_csv); cached per grid and read-only."""
    return (_padded([f"{x:.17g}," for x in grid.x_nodes().tolist()], bytes.rjust),
            _padded([f"{t:.17g}," for t in grid.t_nodes().tolist()], bytes.ljust))


def write_field_csv(field: Field, path) -> None:
    """Write `x,t,value` rows, grouped by time slice, 17 significant digits.

    Every number is written exactly as `format(v, ".17g")`, so it reads
    back bit for bit.  Each coordinate is formatted by Python once per
    grid (``_coordinates``, cached).  The values go out a block of whole
    time slices at a time: each line is a row of bytes (x right-justified
    against t, then the value and its newline), padded with zero bytes
    that the write drops, and the bytes left are written as they are.

    A value with 1e-6 < |v| < 1e17 or a zero is converted in bulk, exactly:
    - X = floor(log10 |v|), corrected by one until the exact product
      |v| 10**(16 - X) lies in [1e16, 1e17).  Its k = 16 - X is in [0, 22],
      so 10**k is an exact double; the double nearest 1e-6 lies below
      10**-6 (X = -7), hence the open bound.
    - Dekker's TwoProduct (splitter 2**27 + 1) gives hi + lo = |v| 10**k
      exactly.  hi >= 1e16 > 2**53 is an even integer, so
      D = hi + rint(lo) is the product rounded half to even: the
      correctly rounded 17-digit significand CPython prints.  D stays
      below 10**17: the largest double below each power of ten
      10**-5 .. 10**17 lies more than 4e-17 of the power under it, beyond
      the half unit in the 17th digit that rounding up to it would need.
    - The digits are laid out by `%g`'s rules (positional for
      -4 <= X < 17), trailing zeros and a bare point dropped.
    Every other value goes through `format(v, ".17g")` one at a time.
    """
    grid = field.grid
    xs, ts = _coordinates(grid)
    per_block = max(1, _BLOCK_VALUES // grid.nx)
    lines = np.empty((min(per_block, grid.nt), grid.nx),
                     [("x", xs.dtype), ("t", ts.dtype), ("value", f"V{_VALUE_BYTES}")])
    lines["x"] = xs
    columns = field.values.T
    with open(path, "wb") as fh:
        fh.write(b"x,t,value\n")
        for j in range(0, grid.nt, per_block):
            block = lines[:min(per_block, grid.nt - j)]
            block["t"] = ts[j:j + per_block, None]
            block["value"] = _format_lines(columns[j:j + per_block].ravel()).view(
                block.dtype["value"]).reshape(block.shape)
            text = block.view(np.uint8)
            fh.write(text[text != 0])


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
