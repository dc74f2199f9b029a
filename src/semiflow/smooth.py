"""The C-infinity step and bump profiles shared by the frequency masks
and the perturbation-direction constructions.

``step`` is the classic exponential partition-of-unity step: exactly 0 for
u <= 0, exactly 1 for u >= 1, strictly monotone in between, all derivatives
vanishing at both ends.
"""

from __future__ import annotations

import numpy as np


def step(u):
    """Smooth step: 0 for u <= 0, 1 for u >= 1, C-infinity everywhere.

    In between it is exp(-1/u) / (exp(-1/u) + exp(-1/(1-u))); the two
    exponentials are evaluated only there, and NaN stays NaN.
    """
    u = np.asarray(u, dtype=float)
    out = np.where(u >= 1.0, 1.0, u)
    out[u <= 0.0] = 0.0
    mid = (u > 0.0) & (u < 1.0)
    with np.errstate(over="ignore"):  # 1/u overflows at subnormal u; exp(-inf) = 0 exactly
        a = np.exp(-1.0 / u[mid])
    out[mid] = a / (a + np.exp(-1.0 / (1.0 - u[mid])))
    return out[()]   # a scalar for 0-d input, like a ufunc's result


def chi(s):
    """Radial cutoff: 1 for s <= 1.5, 0 for s >= 2, smooth in between.

    Only the plateaus at 1 (below 1) and 0 (above 2) are constrained; the
    transition sits in [1.5, 2] so that mid-annulus frequencies such as
    1.5 * 2^n carry a full dyadic bump.
    """
    s = np.asarray(s, dtype=float)
    return step((2.0 - s) / 0.5)


def plateau(u, inner, outer):
    """Even profile equal to 1 on |u| <= inner, 0 on |u| >= outer."""
    if not inner < outer:
        raise ValueError("plateau needs inner < outer")
    r = np.abs(np.asarray(u, dtype=float))
    return step((outer - r) / (outer - inner))


def flat_bump(u, lo, hi, shoulder=0.15):
    """Bump supported on [lo, hi], equal to 1 on the middle (1-2*shoulder)
    fraction; mean value over [lo, hi] is close to 1 - shoulder."""
    if not lo < hi:
        raise ValueError("flat_bump needs lo < hi")
    v = (np.asarray(u, dtype=float) - lo) / (hi - lo)
    return step(v / shoulder) * step((1.0 - v) / shoulder)
