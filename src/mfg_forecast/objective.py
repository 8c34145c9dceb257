"""The weighted least-squares objective and its exact discrete gradient.

The state is one array z of shape (2, nx, nt): z[0] = u, z[1] = m.  The
scalar being minimized is

    J(z) = balance * int [ R1^2 + q*d*R2^2 ] * cwf^2
           + alpha * ( |u|_H2^2 + |m|_H2^2 )

with R = (R1, R2) the two system residuals as one array laid out like z
(stated once, in ``model.residuals``), cwf the time-decaying exponential
weight, balance = exp(-2*a*c^lam), and |f|_H2^2 the discrete H2 norm: the
summed squared L2 norms of f, d_dt f, d_dx f and d2_dx2 f over the
cylinder.  With W = stack(w1, w2), the weights of R1^2 and R2^2, the
gradient, G = 2 W R through ``model.residual_adjoint`` plus 2*alpha*H z,
differentiates this discrete expression exactly, so the optimizer's descent
directions are consistent with the objective to machine precision; finite
differences are kept only as a verification oracle.

The trapezoid weight is separable, wq = outer(wx, wt), so the discrete H2
norm is a Gram form |f|^2 = <f, H f> with

    H f = wx[:, None] * (f @ ct) + (bx @ f) * wt[None, :],
    ct  = diag(wt) + Dt^T diag(wt) Dt                  (nt x nt),
    bx  = Dx^T diag(wx) Dx + Dxx^T diag(wx) Dxx        (nx x nx).

Both factors are symmetric and banded, and are built once per grid with
the stencil products (``calculus.stencil_products``).  One H f per field
gives the regularizer's value alpha*<f, H f> and its gradient
2*alpha*H f; the preconditioner reads its same-time entries off ct and bx.
Each factor is applied once to the stacked fields, and each field is
reduced on its own (one inner product per field), which fixes the order of
every floating-point sum.

The t=0 plane (z[:, :, 0]) holds the given initial data.  The gradient
here is the full one, column 0 included; the optimizer zeroes that column
before it steps, so the pinned data never move.

``value_arrays`` returns an evaluation: the breakdown of J together with
the state and the intermediates R, u_x and H z.  The gradient and
the line quartic take evaluations, so a caller that already holds the
evaluation at a point hands it over instead of having it recomputed.

Both residuals are quadratic in (u, m), so along a line
R(z + xi p) = R(z) + xi a + xi^2 b exactly, with a = (R(z+p) - R(z-p))/2
and b = (R(z+p) + R(z-p))/2 - R(z), and J(z + xi p) is a quartic in xi.
``line_quartic`` builds its coefficients from the evaluations at z and at
the unit trial z + p, with H p = H(z+p) - H z, and one residual call at
z - p; a, b, W a and W b are formed on R, each inner product per residual.

``model.residuals`` and ``value_arrays`` also take stacks of states, with
the field axis first, (2, ..., nx, nt), and reduce each term per state;
the finite-difference oracle evaluates the line points of many directions
in one such call.

The same exactness gives the Jacobian of the residuals with respect to
the free nodes (t > 0): (r(z + E) - r(z - E))/2 = J E for any E.  A
column reaches rows within two nodes in x at its own time and, through
d_dt, rows of its own x up to two times away; which of these slots each
field reaches in each residual is read off ``model.residuals`` once
(``_reach``): u reaches x -1..+1 and t +-1 in R1 and x -2, 0, +2 in R2,
m its own node in R1 and x -1..+1 and t +-1 in R2, and both reach t +-2
where a one-sided row of t = 0 or t_max does.  So two columns of one
field share a row only at one time with |di| <= 4, or with
1 <= |dj| <= 2 and |di| <= 1, and the columns of one field whose nodes
agree in (i + 2 j) mod 6 touch disjoint rows in the slots their field
reaches (a colouring in the sense of Curtis, Powell and Reid, 1974).
E = 1 on such a colour group gives all of its columns at once, read from
those slots only: 12 groups, two stacked residual states each, give the
whole Jacobian.  Only the perturbed field is stacked: the other goes to
``model.residuals`` once, as a single field, and its terms are computed
once per call.  One field at a time, the J E of its six groups go into
one zero-padded buffer, and each slot the field reaches is then one
gather from it: every free node reads that slot's row in its own
colour's J E.  The constant kernel, which couples every
density node of one time, is left out (evaluated with K = 0).  The
preconditioner (``hessian_diag``) is the block diagonal, in time, of the
kernel-free Gauss-Newton matrix 2 (J^T W J + alpha H) at the state it is
given (the optimizer builds it at the start and again whenever its steps
stay short): one block per free time slice, unknowns ordered by time, then
x, with u and m interleaved per node, so that all blocks are one
symmetric band of half-width 8, factored by LAPACK.  The band takes one
product per x offset over the columns laid out slot by slot.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache, partial

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs

from mfg_forecast import calculus, model
from mfg_forecast.carleman import ConvexParams, sample_neumann_field
from mfg_forecast.grid import Field, make_grid
from mfg_forecast.model import ProblemSpec

# Nodes per field in one stacked evaluation of the finite-difference oracle
# (four line points times a chunk of the directions drawn, in one block,
# for one state) and of the perturbed field in the coloured Jacobian's (two
# states per colour group, up to the six groups of one field per call: all
# six at 21x11, 4 + 2 at 41x21, one at 161x81); bounds their memory.  Its
# stack-sized temporaries (64 KiB at most) are small enough that freeing
# them does not trim the C heap for the next chunk to fault in again: at
# 16384 a 21x11 check took thousands of minor page faults, here fewer than
# ten.  The Jacobian's buffer of one field's J E does not scale with it:
# 36 KiB at 21x11 is below the 128 KiB from which glibc maps an array on
# its own, 1.35 MB at 161x81 is not.  Nor does the oracle's block of one
# state's directions, 185 kB at 21x11.
FD_STACK_NODES = 8192
FD_STATES = 10  # random states of the finite-difference oracle
FD_DIRECTIONS = 50  # random unit directions at each state

_PER_STATE = "...ij,...ij->..."  # einsum of <a, b> for each state of a stack

# The Jacobian's colouring: a free column of field f at node (i, j) is in
# group (f, (i + SHEAR * j) % COLOURS).  In the slots its field reaches
# (``_reach``), two columns of one field share a row only at one time with
# |di| <= 4, or with 1 <= |dj| <= 2 and |di| <= 1; di + 2 dj is then never a
# multiple of 6 unless both are 0.
COLOURS, SHEAR = 6, 2
# The rows a column (i, j) can reach, in each residual: (i + dk, j + dl) for
# the slots (dk, dl) below.  The first five, at the column's own time, are
# the x slots; the last four, at its own x, reach other times through d_dt.
SLOT_DK = np.array([-2, -1, 0, 1, 2, 0, 0, 0, 0])
SLOT_DL = np.array([0, 0, 0, 0, 0, -2, -1, 1, 2])
FAR_SLOTS = np.flatnonzero(np.abs(SLOT_DL) == 2)  # reached from t = 0 and t_max
X_REACH = 2  # |dk| of the widest x slot
X_SLOTS = 2 * X_REACH + 1
# Half-width of the preconditioner's band.  Two columns of one time share a
# row only when their nodes are at most 2 * X_REACH apart: u at both ends
# (through R2's d_dx(m u_x)) are then 8 places apart once u and m are
# interleaved.  u at i and m at i + 4 would be 9, but share no row.
BAND_KD = 4 * X_REACH


@dataclass(frozen=True)
class LineQuartic:
    """phi(xi) = J(z + xi p) - J(z) = c1 xi + c2 xi^2 + c3 xi^3 + c4 xi^4.

    Stack the square roots of the weighted residuals and of the regularizer
    into vectors: J(z + xi p) = |v0 + xi v1 + xi^2 v2|^2, with v0 from R(z)
    and z, v1 from a and p, v2 from b.  ``norms`` holds |v0|, |v1|, |v2|, so
    ``size(xi)`` = (|v0| + xi |v1| + xi^2 |v2|)^2 bounds, by Cauchy-Schwarz,
    every term that enters phi(xi) or a direct evaluation of J(z + xi p);
    the rounding error of both scales with it.
    """

    coefficients: tuple[float, float, float, float]
    norms: tuple[float, float, float]

    def phi(self, xi: float) -> float:
        c1, c2, c3, c4 = self.coefficients
        return xi * (c1 + xi * (c2 + xi * (c3 + xi * c4)))

    def size(self, xi: float) -> float:
        n0, n1, n2 = self.norms
        return (n0 + xi * (n1 + xi * n2)) ** 2

    def is_finite(self) -> bool:
        return all(math.isfinite(v) for v in self.coefficients + self.norms)


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """J at one evaluated state: its three nonnegative parts and their sum,
    with the state and the intermediates the gradient and the line quartic
    take.

    The parts are floats for one state and, for a stack of states, arrays
    over its stack axes.  ``z`` is the evaluated array itself, not a copy.
    The arrays are neither compared nor shown, so two breakdowns are equal
    when their parts are.
    """

    j1: float
    j2: float
    j3: float
    total: float
    z: np.ndarray = dataclass_field(compare=False, repr=False)
    r: np.ndarray = dataclass_field(compare=False, repr=False)  # R1, R2 stacked
    ux: np.ndarray = dataclass_field(compare=False, repr=False)
    h: np.ndarray = dataclass_field(compare=False, repr=False)  # H z, per field


@dataclass(frozen=True)
class BandFactor:
    """The preconditioner M^-1: the Cholesky factor of M as a LAPACK lower
    band (``dpbtrf``), over the free nodes in the band's order."""

    factor: np.ndarray  # (BAND_KD + 1, 2 * nx * (nt - 1)), Fortran order

    def solve(self, v: np.ndarray) -> np.ndarray:
        """M^-1 v for v shaped like z; zero on the pinned plane t = 0."""
        b = v[:, :, 1:].transpose(2, 1, 0).reshape(-1)  # time, x, field
        x, info = dpbtrs(self.factor, b, lower=1, overwrite_b=1)
        if info:
            raise np.linalg.LinAlgError(f"dpbtrs failed with info {info}")
        out = np.zeros_like(v)
        out[:, :, 1:] = x.reshape(v.shape[2] - 1, v.shape[1], 2).transpose(2, 1, 0)
        return out


@lru_cache(maxsize=None)
def _reach() -> np.ndarray:
    """The slots each field reaches in each residual: a boolean (2, 2, 9)
    array, [f, k, s] true where R_k at the row (i + SLOT_DK[s], j +
    SLOT_DL[s]) depends on z[f, i, j].

    Read off ``model.residuals`` itself, by one exact difference per field
    at the middle node of a 7 x 7 grid, at a random state with a nonzero
    source and no kernel.  A middle row's d_dt reaches one time each way;
    the one-sided rows at t = 0 and t_max reach two, so the two-step time
    slots open with the one-step ones (``_coloured_columns`` keeps them
    only where d_dt couples the two times).
    """
    n = 2 * X_REACH + 3
    grid = make_grid(0.0, n - 1.0, n - 1.0, 1.0, 1.0, 0.5)
    rng = np.random.default_rng(0)
    source = Field(grid, rng.uniform(1.0, 2.0, (n, n)))
    spec = model.make_problem_spec(grid, np.zeros(n), np.zeros(n), 0.0, source)
    e = np.zeros((2, 2, n, n))  # [perturbed field, field, i, j]
    e[[0, 1], [0, 1], n // 2, n // 2] = 1.0
    z = rng.uniform(1.0, 2.0, (2, n, n))
    points = np.concatenate((z + e, z - e)).swapaxes(0, 1)
    r = model.residuals(points, spec, calculus.stencil_products(grid))[0]
    je = (r[:, :2] - r[:, 2:]).swapaxes(0, 1)  # [f, k, i, j]
    reach = je[:, :, n // 2 + SLOT_DK, n // 2 + SLOT_DL] != 0.0
    reach[:, :, FAR_SLOTS] = reach[:, :, FAR_SLOTS - np.sign(SLOT_DL[FAR_SLOTS])]
    reach.setflags(write=False)
    return reach


class Objective:
    """Evaluator bound to one problem and one parameter set.

    Precomputes combined quadrature-times-weight arrays and takes the
    grid's blocked stencil products; evaluations are then a handful of
    banded products and inner products.  No call changes the evaluator:
    what one evaluation gives the next call is passed to it as an
    ``ObjectiveBreakdown``.
    """

    def __init__(self, spec: ProblemSpec, params: ConvexParams):
        grid = spec.grid
        if abs(params.t_max - grid.t_max) > 1e-12:
            raise ValueError(
                f"params.t_max={params.t_max} does not match grid t_max={grid.t_max}")
        self.spec = spec
        self.stencils = calculus.stencil_products(grid)
        # tiled to (nx, nt), so a stack of fields is scaled in one contiguous loop
        self.wx_tile = np.repeat(calculus.weights_x(grid)[:, None], grid.nt, axis=1)
        self.wt_tile = np.repeat(calculus.weights_t(grid)[None, :], grid.nx, axis=0)
        w1 = self.wx_tile * self.wt_tile * params.weight_profile(grid.t_nodes())
        self.w = np.multiply.outer((1.0, params.q * params.d), w1)  # W = (w1, w2)
        self.alpha = params.alpha

    # -- pieces ---------------------------------------------------------

    def _h2_apply(self, z: np.ndarray) -> np.ndarray:
        """H f for each field f of z, so that |f|_H2^2 = <f, H f> and its
        gradient is 2 H f; both factors are applied to the stacked fields
        at once."""
        h = self.stencils.gram_t(z)  # scaled and summed in place
        h *= self.wx_tile
        t = self.stencils.gram_x(z)
        t *= self.wt_tile
        h += t
        return h

    # -- public evaluations ---------------------------------------------

    def value_arrays(self, z: np.ndarray) -> ObjectiveBreakdown:
        """J and its parts at z, with the intermediates it computed.

        ``z`` may be a stack of states, (2, ..., nx, nt); each part is then
        an array over the stack axes.  The gradient and the line quartic
        take the evaluation of one state; its caller keeps ``z`` unchanged
        while the evaluation is in use.
        """
        r, ux = model.residuals(z, self.spec, self.stencils)
        h = self._h2_apply(z)
        stacked = z.ndim > 3
        if stacked:  # one inner product per state, over the last two axes
            wr = np.expand_dims(self.w, tuple(range(1, z.ndim - 2))) * r
            inner = partial(np.einsum, _PER_STATE)
        else:
            wr, inner = self.w * r, calculus.inner
        j1 = inner(wr[0], r[0])  # one inner product per residual and field
        j2 = inner(wr[1], r[1])
        j3 = self.alpha * (inner(z[0], h[0]) + inner(z[1], h[1]))
        for name, v in (("j1", j1), ("j2", j2), ("j3", j3)):
            if not (np.isfinite(v).all() if stacked else math.isfinite(v)):
                raise ValueError(f"objective term {name} is non-finite")
        return ObjectiveBreakdown(j1, j2, j3, j1 + j2 + j3, z, r, ux, h)

    def _coloured_columns(self, z: np.ndarray, factor=0.5) -> np.ndarray:
        """The kernel-free Jacobian of both residuals at z by coloured exact
        differences, column by column: an array (2, 2, 9, nt - 1, nx),
        slot-major, whose entry [f, k, s, j - 1, i] is dR_k / dz[f, i, j]
        at the row (i + SLOT_DK[s], j + SLOT_DL[s]), zero where that row is
        off the grid or does not depend on the node, times ``factor``.
        ``factor``, a number or an array shaped like z, multiplies each
        residual row of r(z + E) - r(z - E): the default gives J E.

        One field at a time, its groups go to ``model.residuals`` in stacks
        of z[f] +- E of at most ``FD_STACK_NODES`` nodes (one group at
        least), next to the other field of z, unstacked, and their J E into
        one buffer zero-padded by two nodes; each slot that ``_reach`` opens
        for the field is then one gather from it.  The columns are filled
        as (2, 2, 9, nx, nt - 1) and returned swapped.
        """
        grid = self.spec.grid
        nx, nt = grid.nx, grid.nt
        spec = dataclasses.replace(self.spec, kernel=0.0)
        reach = _reach()
        colour = (np.arange(nx)[:, None] + SHEAR * np.arange(nt)) % COLOURS
        colour[:, 0] = COLOURS  # the pinned plane is in no group
        per_call = min(COLOURS, max(1, FD_STACK_NODES // (2 * nx * nt)))
        je = np.zeros((COLOURS, 2, nx + 4, nt + 4))  # [c, k, x + 2, t + 2]
        step = np.array(je.strides) // je.itemsize
        # each free node's own row in its colour's J E, [i, j - 1], and the
        # distance from it to the row of slot s in residual k
        node = (colour[:, 1:] * step[0] + (np.arange(nx)[:, None] + 2) * step[2]
                + (np.arange(1, nt) + 2) * step[3])
        offset = (np.arange(2)[:, None] * step[1] + SLOT_DK * step[2]
                  + SLOT_DL * step[3])
        # the slots a field does not reach stay zero: there J E may hold
        # another column of the group
        columns = np.zeros((2, 2, SLOT_DK.size, nx, nt - 1))
        for f in range(2):
            for c in range(0, COLOURS, per_call):
                n = min(per_call, COLOURS - c)
                e = colour == np.arange(c, c + n)[:, None, None]
                points = np.empty((2 * n, nx, nt))
                points[:] = z[f]
                points[:n] += e
                points[n:] -= e
                # the other field, unmoved, goes in once as a single field
                pair = (points, z[1]) if f == 0 else (z[0], points)
                r = model.residuals(pair, spec, self.stencils)[0]
                stack = je[c:c + n, :, 2:nx + 2, 2:nt + 2]
                for k in (0, 1):  # per residual: faster than one strided write
                    np.subtract(r[k, :n], r[k, n:], out=stack[:, k])
                stack *= factor
                del r  # freed before the next call, where the build peaks
            for k, s in zip(*np.nonzero(reach[f])):
                je.take(node + offset[k, s], out=columns[f, k, s])
        columns = columns.swapaxes(3, 4)
        # A two-step time slot holds this column's entry where d_dt couples
        # the two times, at the one-sided rows of t = 0 and t_max; elsewhere
        # it may hold another column of the group.
        dtm = np.zeros((nt + 4, nt + 4))  # zero off the grid
        dtm[2:-2, 2:-2] = calculus.diff_matrices(grid)[0]
        j = np.arange(1, nt) + 2
        for s in FAR_SLOTS:
            columns[:, :, s, dtm[j + SLOT_DL[s], j] == 0.0] = 0.0
        return columns

    def jacobian(self, ev: ObjectiveBreakdown):
        """J0, the kernel-free Jacobian of (R1, R2) with respect to the free
        nodes (t > 0) at the state ``ev`` evaluated, as a
        ``scipy.sparse`` CSC matrix.  Rows are R1 then R2, each in C order
        (those of ``R.ravel()``); columns are the free
        nodes in the preconditioner's order: by time, then x, with u and m
        interleaved per node.
        """
        from scipy import sparse  # the runs' path never builds J0 itself

        nx, nt = self.spec.grid.nx, self.spec.grid.nt
        n_free = 2 * nx * (nt - 1)
        values = self._coloured_columns(ev.z)  # [f, k, s, j - 1, i]
        f = np.arange(2)[:, None, None, None, None]
        k = np.arange(2)[:, None, None, None]
        j = np.arange(1, nt)[:, None]
        i = np.arange(nx)
        x, t = i + SLOT_DK[:, None, None], j + SLOT_DL[:, None, None]
        rows = np.broadcast_to(k * (nx * nt) + x * nt + t, values.shape)
        cols = np.broadcast_to(2 * ((j - 1) * nx + i) + f, values.shape)
        on_grid = np.broadcast_to((x >= 0) & (x < nx) & (t >= 0) & (t < nt),
                                  values.shape)
        return sparse.csc_matrix(
            (values[on_grid], (rows[on_grid], cols[on_grid])),
            shape=(2 * nx * nt, n_free))

    def gauss_newton_band(self, z: np.ndarray) -> np.ndarray:
        """The block diagonal, in time, of the kernel-free Gauss-Newton
        matrix M = 2 (J0^T W J0 + alpha H) at z, as the LAPACK lower band
        ab[d, c] = M[c + d, c], d = 0..BAND_KD, over the free nodes in
        ``jacobian``'s column order (Fortran order, ready for ``dpbtrf``).
        Entries that would couple two time slices are zero.
        """
        nx, nt = self.spec.grid.nx, self.spec.grid.nt
        # columns of W^(1/2) J0: their products are those of J0^T W J0
        # (halving is exact, so the 1/2 of J E may join the weight)
        a = self._coloured_columns(z, 0.5 * np.sqrt(self.w))
        # H's entries within one time, per field: wx_i ct_jj on the diagonal
        # and bx[i + di, i] wt_j
        ct, bx = self.stencils.gram_t.matrix, self.stencils.gram_x.matrix
        wx, wt = self.wx_tile[:, 0], self.wt_tile[0, 1:, None]
        band = np.zeros((nt - 1, nx, 2, BAND_KD + 1))  # [j - 1, i, f, d]
        for di in range(min(X_SLOTS, nx)):
            # columns (i, f) and (i + di, g) of one time share the rows
            # where slot s of the first is slot s - di of the second
            if di == 0:
                block = np.einsum("fksji,gksji->jifg", a, a)
            else:
                block = np.einsum("fksji,gksji->jifg", a[:, :, di:X_SLOTS, :, :nx - di],
                                  a[:, :, :X_SLOTS - di, :, di:])
            terms = [np.diag(ct)[1:, None] * wx] if di == 0 else []
            terms.append(np.diagonal(bx, -di) * wt)
            for term in terms:  # added to the pairs f = g, in this order
                term *= self.alpha
                for f in range(2):
                    block[..., f, f] += term
            block *= 2.0
            for f in range(2):
                for g in range(2):
                    d = 2 * di + g - f
                    if 0 <= d <= BAND_KD:
                        band[:, :nx - di, f, d] = block[..., f, g]
            del block  # freed before the next offset's product
        return band.reshape(-1, BAND_KD + 1).T

    def hessian_diag(self, z: np.ndarray) -> BandFactor:
        """The L-BFGS preconditioner at z: the block diagonal, in time, of
        the kernel-free Gauss-Newton matrix (``gauss_newton_band``),
        factored by Cholesky.  Its blocks carry the weight's full dynamic
        range and the 1/dx^4 stiffness of d2_dx2 under it.
        """
        factor, info = dpbtrf(self.gauss_newton_band(z), lower=1, overwrite_ab=1)
        if info:
            raise np.linalg.LinAlgError(
                f"the Gauss-Newton block preconditioner is not positive definite "
                f"(dpbtrf info {info})")
        return BandFactor(factor)

    def value_and_gradient_arrays(self, ev: ObjectiveBreakdown) -> np.ndarray:
        """The exact partials of J, one per node value, at the state that
        ``ev`` evaluated (from ``value_arrays``); shaped like z."""
        g = self.w * ev.r
        g *= 2.0  # dJ/dR = 2 W R, doubled in place to spare an array
        g = model.residual_adjoint(g, ev.ux, ev.z[1], self.spec, self.stencils)
        g += (2.0 * self.alpha) * ev.h
        if not np.isfinite(g).all():
            raise ValueError("objective gradient is non-finite")
        return g

    def line_quartic(self, at_z: ObjectiveBreakdown, at_unit: ObjectiveBreakdown,
                     p: np.ndarray) -> LineQuartic:
        """J(z + xi p) - J(z) as a quartic in xi, for a direction p shaped
        like z.

        ``at_z`` and ``at_unit`` are the evaluations at z and at the unit
        trial z + p; the residuals are evaluated once more, at z - p.  The
        coefficients may be non-finite when z - p overflows.
        """
        d01 = d02 = d11 = d12 = d22 = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            rm = model.residuals(at_z.z - p, self.spec, self.stencils)[0]
            a = 0.5 * (at_unit.r - rm)
            b = 0.5 * (at_unit.r + rm) - at_z.r
            wa, wb = self.w * a, self.w * b
            for wak, wbk, r0k, ak, bk in zip(wa, wb, at_z.r, a, b):  # R1 first
                d01 += calculus.inner(wak, r0k)
                d02 += calculus.inner(wbk, r0k)
                d11 += calculus.inner(wak, ak)
                d12 += calculus.inner(wak, bk)
                d22 += calculus.inner(wbk, bk)
            # the regularizer is quadratic: H p = H(z+p) - H z
            hp = at_unit.h - at_z.h
            d01 += self.alpha * (calculus.inner(p[0], at_z.h[0]) +
                                 calculus.inner(p[1], at_z.h[1]))
            d11 += self.alpha * (calculus.inner(p[0], hp[0]) +
                                 calculus.inner(p[1], hp[1]))
        return LineQuartic((2.0 * d01, d11 + 2.0 * d02, 2.0 * d12, d22),
                           (math.sqrt(at_z.total), math.sqrt(abs(d11)),
                            math.sqrt(abs(d22))))


def gradient_fd_check(spec: ProblemSpec, params: ConvexParams, seed: int = 7) -> dict:
    """Compare the analytic gradient against five-point finite differences.

    Random smooth states, random unit directions supported off the pinned
    plane, step h = 1e-2*(1 + max|state|).  The residuals are quadratic in
    (u, m), so J is a quartic polynomial along any line and the five-point
    derivative (8(J(h) - J(-h)) - (J(2h) - J(-2h))) / (12h) carries no
    truncation error; the large step keeps round-off small.  Each state's
    directions are drawn as one block, and their analytic derivatives taken
    together; the four line points of a chunk of them are evaluated as one
    stack of states of at most ``FD_STACK_NODES`` nodes per field (one
    direction at least).
    Returns the worst relative disagreement over all ``FD_STATES`` x
    ``FD_DIRECTIONS`` (state, direction) pairs, NaN when any reading is NaN,
    so a reading that could not be made fails the gate.
    """
    rng = np.random.default_rng(seed)
    grid = spec.grid
    obj = Objective(spec, params)
    chunk = max(1, FD_STACK_NODES // (4 * grid.nx * grid.nt))
    worst = 0.0
    for _ in range(FD_STATES):
        z = np.stack([sample_neumann_field(grid, rng) for _ in range(2)])
        g = obj.value_and_gradient_arrays(obj.value_arrays(z))
        h = 1e-2 * (1.0 + np.abs(z).max())
        steps = np.array([h, -h, 2 * h, -2 * h])[:, None, None, None]
        # all of the state's directions in one draw, direction by direction,
        # (u, m) each, then viewed field first; sums per field, so every
        # direction and analytic derivative is that of one at a time
        d = rng.standard_normal((FD_DIRECTIONS, 2, grid.nx, grid.nt)).swapaxes(0, 1)
        d[..., 0] = 0.0
        scale = np.sqrt(np.sum(d[0]**2, axis=(1, 2)) + np.sum(d[1]**2, axis=(1, 2)))
        d /= scale[:, None, None]
        analytic = (np.sum(g[0] * d[0], axis=(1, 2)) +
                    np.sum(g[1] * d[1], axis=(1, 2)))
        j = np.empty((4, FD_DIRECTIONS))  # J at the four line points of each
        for start in range(0, FD_DIRECTIONS, chunk):
            # a chunk's line points (2, 4, chunk, nx, nt), C order: each field one block
            cut = slice(start, start + chunk)
            points = np.add(z[:, None, None], steps * d[:, None, cut], order="C")
            j[:, cut] = obj.value_arrays(points).total
        fd = (8.0 * (j[0] - j[1]) - (j[2] - j[3])) / (12 * h)
        rel = np.abs(analytic - fd) / (np.abs(analytic) + 1e-12)
        worst = np.maximum(worst, rel.max())  # max() would drop a NaN
    return {"max_rel_error": float(worst), "n_states": FD_STATES,
            "n_directions": FD_DIRECTIONS, "seed": seed,
            "step_rule": "five-point, 1e-2*(1+max|state|)"}
