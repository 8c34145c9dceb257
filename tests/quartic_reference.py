"""The line quartic's coefficients built one residual at a time: the
tests' reference for ``Objective.line_quartic``, which forms them on the
stacked residual array R.  Each residual is its own (nx, nt) array, and
every product and inner product is taken in the order the objective
module documents, so the two agree bit for bit."""

import math

from mfg_forecast import calculus, model


def line_quartic_per_residual(obj, z, p):
    """(coefficients, norms) of J(z + xi p) - J(z) for the objective
    ``obj``: R1 and R2 at z, z + p and z - p, each from a one-state
    ``model.residuals`` call on the pair (u, m), and the regularizer's
    H p = H(z + p) - H z."""
    r0, rp, rm = (model.residuals((v[0], v[1]), obj.spec, obj.stencils)[0]
                  for v in (z, z + p, z - p))
    d01 = d02 = d11 = d12 = d22 = 0.0
    for k in range(2):
        w = obj.w[k].copy()
        r0k, rpk, rmk = r0[k].copy(), rp[k].copy(), rm[k].copy()
        a = 0.5 * (rpk - rmk)
        b = 0.5 * (rpk + rmk) - r0k
        wa, wb = w * a, w * b
        d01 += calculus.inner(wa, r0k)
        d02 += calculus.inner(wb, r0k)
        d11 += calculus.inner(wa, a)
        d12 += calculus.inner(wa, b)
        d22 += calculus.inner(wb, b)
    hz = obj._h2_apply(z)
    hp = obj._h2_apply(z + p) - hz
    d01 += obj.alpha * (calculus.inner(p[0], hz[0]) + calculus.inner(p[1], hz[1]))
    d11 += obj.alpha * (calculus.inner(p[0], hp[0]) + calculus.inner(p[1], hp[1]))
    total = obj.value_arrays(z).total
    return ((2.0 * d01, d11 + 2.0 * d02, 2.0 * d12, d22),
            (math.sqrt(total), math.sqrt(abs(d11)), math.sqrt(abs(d22))))
