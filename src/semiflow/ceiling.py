"""Ceiling functions for the suspension flow and their class constants.

A ceiling is a strictly positive trigonometric polynomial on the circle,

    f(x) = mean + sum_j ( cos_j * cos(2 pi k_j x) + sin_j * sin(2 pi k_j x) ),

paired with the expansion base ``ell`` of the angle-multiplying map
tau(x) = ell * x mod 1.  Trigonometric polynomials give exact derivatives of
every Birkhoff sum downstream, so no numerical differentiation enters the
slope and cone computations.

``extrema`` certifies the range of f and of f' (grid scan refined by
bisection on the derivative), once per ceiling, and is the one bound on
either in the package; ``classify`` derives from it the constants that
control cone apertures and slope Lipschitz bounds everywhere else.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument

# Order-3 truncation of the smoothness-norm surrogate: reports must carry
# this caveat because derivatives beyond f''' never enter the computations.
CR_TRUNCATION_CAVEAT = "C^r norm surrogate truncated at order 3"

# Harmonic indices stop at a quarter of the certification grid, so that every
# period of every harmonic holds at least four grid points.
MAX_HARMONIC = 1024
_GRID = np.arange(4 * MAX_HARMONIC) / (4 * MAX_HARMONIC)

# Word indices are int64, so ell is at most MAX_WORD_INDEX and a level n needs
# ell^n <= MAX_WORD_INDEX; every sum of branch weights counted in units of
# ell^-n_max then fits too.
MAX_WORD_INDEX = 2 ** 63 - 1


@dataclass(frozen=True)
class TrigPolynomial:
    """Positive trig polynomial ceiling together with the map base ell.

    harmonics is a sequence of (k, cos_coeff, sin_coeff) with distinct
    integer frequencies 1 <= k <= MAX_HARMONIC; it is stored sorted by k,
    and 2 <= ell <= MAX_WORD_INDEX.
    """

    mean_coeff: float
    harmonics: tuple = ()
    ell: int = 2

    def __post_init__(self):
        if int(self.ell) != self.ell or not 2 <= self.ell <= MAX_WORD_INDEX:
            raise InvalidArgument(
                f"ell must be an integer in [2, {MAX_WORD_INDEX}], a 64-bit word index, "
                f"got {self.ell}")
        object.__setattr__(self, "ell", int(self.ell))
        hs = []
        seen = set()
        for k, c, s in self.harmonics:
            if int(k) != k or not 1 <= k <= MAX_HARMONIC:
                raise InvalidArgument(
                    f"harmonic index must be an integer in [1, {MAX_HARMONIC}], got {k}")
            if int(k) in seen:
                raise InvalidArgument(f"duplicate harmonic index {k}")
            seen.add(int(k))
            hs.append((int(k), float(c), float(s)))
        hs.sort(key=lambda h: h[0])
        object.__setattr__(self, "harmonics", tuple(hs))
        object.__setattr__(self, "mean_coeff", float(self.mean_coeff))

    def __call__(self, x, order: int = 0):
        return eval(self, x, order)


def _harmonic(c: float, s: float, arg: np.ndarray, scale: float) -> np.ndarray:
    """scale * (c cos(arg) + s sin(arg)), bit for bit.

    A zero coefficient's product, c cos(arg) say, is a signed zero (or NaN,
    where the other product is NaN too), which moves the sum only where the
    other product is zero: the sign of a zero sum depends on both.  The sum
    is taken in full only there, and elsewhere the zero coefficient's
    transcendental is skipped; a scale of 1 (order 0) is not multiplied.
    """
    if c != 0.0 and s != 0.0:
        term = c * np.cos(arg) + s * np.sin(arg)
    else:
        term = s * np.sin(arg) if c == 0.0 else c * np.cos(arg)
        z = np.nonzero(term == 0.0)
        term[z] = c * np.cos(arg[z]) + s * np.sin(arg[z])
    if scale != 1.0:
        term *= scale
    return term


def eval(f: TrigPolynomial, x, order: int = 0):
    """Derivative of order 0..3 of f at x (scalar or array), in closed form.

    The k-th derivative of cos(w x) is w^k cos(w x + k pi/2), likewise for
    sin, so every value is exact up to rounding.  A zero coefficient's
    transcendental is evaluated only where it can move a bit (``_harmonic``).
    """
    if order not in (0, 1, 2, 3):
        raise InvalidArgument(f"order must be in {{0,1,2,3}}, got {order}")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = x.reshape(-1) if scalar else x
    out = np.full_like(x, f.mean_coeff if order == 0 else 0.0)
    shift = order * math.pi / 2.0
    for k, c, s in f.harmonics:
        w = 2.0 * math.pi * k
        out += _harmonic(c, s, w * x + shift, w ** order)
    if scalar:
        return float(out[0])
    return out


@dataclass(frozen=True)
class CeilingClass:
    """Certified geometric constants of a ceiling.

    theta_f is the invariant-cone aperture max|f'| / (gamma0*ell - 1);
    theta_K = K / (gamma0*ell - 1) is the slope Lipschitz constant used by
    certified grid sweeps and the genericity windows, where K bounds 1/min f,
    max f and the order-<=3 smoothness surrogate.
    """

    theta_f: float
    theta_K: float


def _refine_roots(f: TrigPolynomial, order: int, tol: float = 1e-12):
    """Roots of the order-th derivative of f, bracketed on the certification
    grid and refined by bisection, every bracket at once.  A bracket stops
    once it is narrower than tol, or after 60 halvings.  Returns an array of
    x values in [0, 1)."""
    g = eval(f, _GRID, order)
    idx = np.nonzero(g * np.roll(g, -1) < 0)[0]
    lo = _GRID[idx]
    hi = lo + 1.0 / len(_GRID)
    glo = eval(f, lo, order)
    active = np.arange(idx.size)
    for _ in range(60):
        if not active.size:
            break
        a, b = lo[active], hi[active]
        mid = 0.5 * (a + b)
        gm = eval(f, mid, order)
        left = glo[active] * gm <= 0
        hi[active] = np.where(left, mid, b)
        lo[active] = np.where(left, a, mid)
        glo[active] = np.where(left, glo[active], gm)
        active = active[hi[active] - lo[active] >= tol]
    return np.concatenate([0.5 * (lo + hi) % 1.0, _GRID[g == 0.0]])


@functools.lru_cache(maxsize=256)
def extrema(f: TrigPolynomial, order: int) -> tuple:
    """Certified (min, max) of f (order 0) or f' (order 1) over the circle:
    the grid values together with the bisected critical points.

    The result is cached per ceiling value, so each distinct ceiling is
    certified at most once per order.
    """
    if order not in (0, 1):
        raise InvalidArgument(f"order must be 0 or 1, got {order}")
    candidates = [eval(f, _GRID, order)]
    crit = _refine_roots(f, order + 1)
    if crit.size:
        candidates.append(eval(f, crit, order))
    allv = np.concatenate([np.atleast_1d(v) for v in candidates])
    return float(allv.min()), float(allv.max())


def classify(f: TrigPolynomial, gamma0: float) -> CeilingClass:
    """The class constants of f from the certified extrema of f and f'.

    K is the smallest power of two exceeding 1.01 * max(1/min f, max f,
    max|f'|, grid max of |f''| and |f'''|).  f is strictly positive and
    gamma0 lies in (1/ell, 1), as config parsing checks.
    """
    f_min, f_max = extrema(f, 0)
    max_abs_f1 = max(map(abs, extrema(f, 1)))

    denom = gamma0 * f.ell - 1.0
    base = 1.01 * max(1.0 / f_min, f_max, max_abs_f1,
                      *(float(np.max(np.abs(eval(f, _GRID, order)))) for order in (2, 3)))
    K = 2.0 ** math.ceil(math.log2(base))
    if K <= base:
        K *= 2.0
    return CeilingClass(theta_f=max_abs_f1 / denom, theta_K=K / denom)
