"""Cone-transversality exponents of the semi-flow.

``m_sum_at`` measures, at one target point, the largest total weight 1/E of
inverse branches whose pushed-forward cones meet the cone of some reference
branch; ``m_of_t`` takes the maximum over a grid of target points.  The grid
maximum is a lower bound for the true supremum; certified mode widens every
pairwise overlap test by the slope Lipschitz slack 2*theta_K*h, which turns
the grid value into an upper bound (up to branch-set changes between grid
points, which interval arithmetic alone would remove and is out of scope).

``n_of_t`` is the companion quantity with doubled cone aperture, maximized
over lines: the mass of branches whose widened cone contains a fixed
direction.  As a function of the direction slope it is a sum of indicator
functions of closed slope intervals, so its exact maximum is attained at an
interval boundary; the sweep below computes it exactly, which makes the
candidate-slope list (cone centers, boundaries, and nL extra samples) a
guaranteed superset of the argmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ceiling import CeilingClass, TrigPolynomial, classify
from .dynamics import DEFAULT_BRANCH_CAP, FlowPoint, advance, branch_table
from .errors import InvalidArgument, ResourceLimit

GRID_LOWER_BOUND_CAVEAT = "grid lower bound"

MAX_PERIODIC_HORIZON = 20


@dataclass(frozen=True)
class TransversalityEstimate:
    t: float
    m_value: float
    m_upper: float
    grid: tuple
    slack: float
    argmax_x: float = 0.0
    argmax_s: float = 0.0
    argmax_on_section: bool = True
    ceiling_key: str = ""
    caveats: tuple = (GRID_LOWER_BOUND_CAVEAT,)


@dataclass(frozen=True)
class LambdaMinEstimate:
    method: str
    value: float
    horizon: float
    beta_max: float


def _overlap_maxima(table, theta: float, widen: float = 0.0) -> float:
    """max over reference branches of the 1/E-weighted count of branches
    whose cone overlaps the reference cone (self-term included)."""
    levels = table.levels
    if not levels:
        return 0.0
    ell = float(table.ell)
    sorted_slopes = {n: np.sort(table.slopes[n]) for n in levels}
    best = 0.0
    for n1 in levels:
        w = sorted_slopes[n1]
        sums = np.zeros(len(w))
        for n2 in levels:
            thr = theta * (ell ** -n1 + ell ** -n2) + widen
            a = sorted_slopes[n2]
            hi = np.searchsorted(a, w + thr, side="right")
            lo = np.searchsorted(a, w - thr, side="left")
            sums += (hi - lo) * ell ** -n2
        best = max(best, float(sums.max()))
    return best


def m_sum_at(f: TrigPolynomial, z: FlowPoint, t: float, theta_f: float,
             widen: float = 0.0, cap: int = DEFAULT_BRANCH_CAP) -> float:
    """Non-transversal branch weight at a single target point.

    Branch cones of levels n1, n2 overlap iff their slope difference is at
    most theta_f*(ell^-n1 + ell^-n2); ``widen`` adds certified slack to the
    threshold.  Within one level every branch has the same weight, so the
    per-reference sums reduce to sorted range counts.
    """
    table = branch_table(f, z, t, cap=cap)
    return _overlap_maxima(table, theta_f, widen)


def _fiber_grid(f: TrigPolynomial, nx: int, ns: int):
    """Grid of target points: nx base points, ns flow coordinates scaled per
    fiber, always including the base section s = 0."""
    xs = np.arange(nx) / nx
    for x in xs:
        height = f(float(x))
        for j in range(ns):
            yield FlowPoint(float(x), j * height / ns)


def m_of_t(f: TrigPolynomial, t: float, nx: int, ns: int, certified: bool = True,
           cls: CeilingClass | None = None, gamma0: float = 0.9,
           cap: int = DEFAULT_BRANCH_CAP) -> TransversalityEstimate:
    """Grid maximum of ``m_sum_at`` over target points in the flow domain.

    m_value is the plain grid maximum (a lower bound); when ``certified``,
    m_upper repeats the scan with every overlap test widened by
    2*theta_K*h (h the base-grid spacing), exploiting that branch slopes are
    theta_K-Lipschitz in the target point.
    """
    if nx < 1 or ns < 1:
        raise InvalidArgument("grid sizes must be >= 1")
    if cls is None:
        cls = classify(f, gamma0)
    h = 1.0 / nx
    widen = 2.0 * cls.theta_K * h
    m_value = 0.0
    m_upper = 0.0
    argmax = (0.0, 0.0)
    for z in _fiber_grid(f, nx, ns):
        table = branch_table(f, z, t, cap=cap)
        v = _overlap_maxima(table, cls.theta_f, 0.0)
        if v > m_value:
            m_value = v
            argmax = (z.x, z.s)
        if certified:
            m_upper = max(m_upper, _overlap_maxima(table, cls.theta_f, widen))
    if certified:
        # the branch-sum identity caps the true maximum at 1, so the widened
        # value can be clamped without losing the upper-bound property
        m_upper = min(m_upper, 1.0)
    else:
        m_upper = m_value
    return TransversalityEstimate(
        t=float(t), m_value=m_value, m_upper=m_upper,
        grid=(nx, ns, 0), slack=(widen if certified else 0.0),
        argmax_x=argmax[0], argmax_s=argmax[1],
        argmax_on_section=(argmax[1] == 0.0),
        ceiling_key=f.key(),
    )


def line_mass(f: TrigPolynomial, z: FlowPoint, t: float, sigma: float,
              aperture: float, cap: int = DEFAULT_BRANCH_CAP) -> float:
    """Weight 1/E of the branches whose cone of half-width
    aperture*ell^(-n) contains the direction of slope sigma."""
    table = branch_table(f, z, t, cap=cap)
    total = 0.0
    ell = float(table.ell)
    for n in table.levels:
        w = aperture * ell ** -n
        total += ell ** -n * int(np.count_nonzero(np.abs(table.slopes[n] - sigma) <= w))
    return total


def _sweep_max(table, aperture: float) -> float:
    """Exact maximum over all direction slopes of the stabbed branch weight.

    Standard interval-stabbing sweep: weights enter at interval left ends
    and leave at right ends; starts are processed before ends at equal
    coordinates so closed intervals touch."""
    ell = float(table.ell)
    los, his, wts = [], [], []
    for n in table.levels:
        w = aperture * ell ** -n
        sl = table.slopes[n]
        los.append(sl - w)
        his.append(sl + w)
        wts.append(np.full(len(sl), ell ** -n))
    if not los:
        return 0.0
    lo = np.concatenate(los)
    hi = np.concatenate(his)
    wt = np.concatenate(wts)
    coords = np.concatenate([lo, hi])
    kinds = np.concatenate([np.zeros(len(lo), dtype=int), np.ones(len(hi), dtype=int)])
    deltas = np.concatenate([wt, -wt])
    order = np.lexsort((kinds, coords))
    running = np.cumsum(deltas[order])
    return float(running.max())


def n_of_t(f: TrigPolynomial, t: float, nx: int, ns: int, nL: int = 16,
           cls: CeilingClass | None = None, gamma0: float = 0.9,
           cap: int = DEFAULT_BRANCH_CAP) -> float:
    """Grid maximum over target points and over direction slopes of the
    branch weight whose doubled cones contain the direction.

    The per-point maximum over slopes is computed exactly by an interval
    sweep, which coincides with evaluating at every cone center and
    boundary; nL only controls extra recorded candidates and can never
    change the result (max monotonicity).
    """
    if nL < 8:
        raise InvalidArgument(f"nL must be >= 8, got {nL}")
    if cls is None:
        cls = classify(f, gamma0)
    aperture = 2.0 * cls.theta_f
    best = 0.0
    for z in _fiber_grid(f, nx, ns):
        table = branch_table(f, z, t, cap=cap)
        best = max(best, _sweep_max(table, aperture))
    return best


def lambda_min(f: TrigPolynomial, method: str, horizon: float,
               nx: int = 65536) -> LambdaMinEstimate:
    """Minimum expansion rate of the semi-flow.

    grid: (min over base points of ell^crossings by time horizon)^(1/horizon).
    The minimum over the flow coordinate is attained at the base section
    (crossing counts only grow with s), so only s = 0 is scanned.

    periodic: enumerates every periodic point of the base map with period
    p <= horizon (the rationals k/(ell^p - 1)), takes the maximal orbit
    average beta_max of f, and returns ell^(1/beta_max).
    """
    if horizon < 1:
        raise InvalidArgument(f"horizon must be >= 1, got {horizon}")
    ell = f.ell
    if method == "grid":
        t = float(horizon)
        _, _, counts = advance(f, np.arange(nx) / nx, t)
        n_min = int(counts.min())
        if n_min == 0:
            return LambdaMinEstimate("grid", 1.0, t, float("inf"))
        return LambdaMinEstimate("grid", float(ell) ** (n_min / t), t, t / n_min)
    if method == "periodic":
        P = int(horizon)
        if P > MAX_PERIODIC_HORIZON:
            raise ResourceLimit(
                f"periodic enumeration capped at period {MAX_PERIODIC_HORIZON}, got {P}",
                max_period=MAX_PERIODIC_HORIZON)
        beta_max = 0.0
        for p in range(1, P + 1):
            denom = ell ** p - 1
            k = np.arange(denom, dtype=np.int64)
            acc = np.zeros(denom)
            cur = k.copy()
            for _ in range(p):
                acc += f(cur / denom)
                cur = (cur * ell) % denom
            beta_max = max(beta_max, float(acc.max()) / p)
        return LambdaMinEstimate("periodic", float(ell) ** (1.0 / beta_max), float(P), beta_max)
    raise InvalidArgument(f"method must be 'grid' or 'periodic', got {method!r}")


def exponent_fit(samples) -> tuple:
    """Least-squares fit of log(value) against t.

    Returns (rate, log_residual) with rate = exp(slope); the intended use is
    extrapolating grid-sampled exponents, so the result is a fitted rate,
    never the limiting exponent itself.
    """
    samples = list(samples)
    if len(samples) < 3:
        raise InvalidArgument(f"need at least 3 samples, got {len(samples)}")
    t = np.array([p[0] for p in samples], dtype=float)
    v = np.array([p[1] for p in samples], dtype=float)
    if np.any(v <= 0):
        raise InvalidArgument("all sample values must be positive")
    logv = np.log(v)
    A = np.vstack([t, np.ones_like(t)]).T
    coef, _, _, _ = np.linalg.lstsq(A, logv, rcond=None)
    fit = A @ coef
    residual = float(np.sqrt(np.mean((logv - fit) ** 2)))
    return float(np.exp(coef[0])), residual
