"""Cone-transversality exponents of the semi-flow.

At one target point, m is the largest total weight 1/E of inverse branches
whose pushed-forward cones meet the cone of some reference branch;
``m_of_t`` takes its maximum over a grid of target points.  The grid
maximum is a lower bound for the true supremum; certified mode widens every
pairwise overlap test by the slope Lipschitz slack 2*theta_K*h, which turns
the grid value into an upper bound (up to branch-set changes between grid
points, which interval arithmetic alone would remove and is out of scope).

``n_of_t`` is the companion quantity with doubled cone aperture, maximized
over lines: the mass of branches whose widened cone contains a fixed
direction.  As a function of the direction slope it is a sum of indicator
functions of closed slope intervals, so its exact maximum is attained at an
interval boundary, and the sweep below computes it exactly.

Grid maxima come from one pass (``grid_estimates``; ``m_of_t`` and
``n_of_t`` are views over it): each fiber column is scanned once, by one
``branch_table`` call that serves every (s, t) of the run, and each grid
point's table is a mask over that scan.  Branch weights ell^-n are summed as exact
integer multiples of ell^-n_max and divided once, so m and n are correctly
rounded and the identity n <= 1 holds in floating point too.  The certified
value is reported clamped to 1, the bound of the branch-sum identity, so the
widened pass of a t stops at the first grid point where its running maximum
reaches 1; each chunk of columns stops on its own, and the report does not
depend on the worker count.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .ceiling import CeilingClass, TrigPolynomial
from .dynamics import FlowPoint, branch_table
from .errors import InvalidArgument
from .parallel import pmap

GRID_LOWER_BOUND_CAVEAT = "grid lower bound"

# grid points (nx*ns) of one m(f,t) pass that a config may ask for
MAX_GRID = 2 ** 16


@dataclass(frozen=True)
class TransversalityEstimate:
    t: float
    m_value: float
    m_upper: float
    slack: float
    argmax_x: float = 0.0
    argmax_s: float = 0.0
    argmax_on_section: bool = True


def _weight_units(ell: int, levels) -> tuple:
    """Exact branch weights: a level-n branch weighs ell^(n_max - n) units of
    ell^-n_max.  Returns the unit weight of each level and the denominator
    ell^n_max.  Branches form a prefix-free word set, so any sum of their
    weights is at most ell^n_max units, which the scan keeps within int64."""
    n_max = max(levels)
    return [ell ** (n_max - n) for n in levels], ell ** n_max


def _overlap_maxima(ell: int, levels, counts, slopes, theta: float,
                    widen: float = 0.0) -> float:
    """max over reference branches of the 1/E-weighted count of branches
    whose cone overlaps the reference cone (self-term included).

    ``levels``, ``counts`` and ``slopes`` form a slope profile (see
    ``_ColumnScan.slope_profile``).  One pass per target level n2 counts, for
    every reference at once, the level-n2 slopes within the pair threshold
    theta*(ell^-n1 + ell^-n2); the counts are summed in exact integer weight
    units and divided once.

    A pass is skipped when every reference saturates it, that is, when each
    level-n1 run reaches all of level n2 from both of its ends:
    fl(lo + thr) >= max and fl(hi - thr) <= min.  fl(x + thr) and
    fl(x - thr) are monotone in x, so the ends of a sorted run decide every
    reference in it, and each one counts the whole level, as the search
    would."""
    if not levels:
        return 0.0
    units, denom = _weight_units(ell, levels)
    el = float(ell)
    # the per-level quantities are Python floats, the same IEEE operations
    # as numpy's at a fraction of the call cost on the few levels of a profile
    widths = [el ** -n for n in levels]
    ends = list(itertools.accumulate(counts))
    starts = [end - count for end, count in zip(ends, counts)]
    lo = [slopes.item(start) for start in starts]
    hi = [slopes.item(end - 1) for end in ends]
    whole = 0  # weight units that every reference counts
    sums = np.zeros(len(slopes), dtype=np.int64)
    for w2, start, end, unit, lo2, hi2 in zip(widths, starts, ends, units, lo, hi):
        thr = [theta * (w1 + w2) + widen for w1 in widths]
        if all(lo1 + t >= hi2 and hi1 - t <= lo2 for lo1, hi1, t in zip(lo, hi, thr)):
            whole += (end - start) * unit
            continue
        a = slopes[start:end]
        thr = np.array(thr).repeat(counts)
        hits = (np.searchsorted(a, slopes + thr, side="right")
                - np.searchsorted(a, slopes - thr, side="left"))
        sums += hits * unit
    return (int(sums.max()) + whole) / denom


def _sweep_max(ell: int, levels, counts, slopes, aperture: float) -> float:
    """Exact maximum over all direction slopes of the stabbed branch weight.

    Standard interval-stabbing sweep: weights enter at interval left ends
    and leave at right ends; starts are processed before ends at equal
    coordinates so closed intervals touch.  The slope profile lists each
    level's slopes in ascending order, so the event list is a few sorted
    runs.  A level-n cone has half-width aperture*ell^-n, and the running
    weight is an exact integer count of weight units."""
    if not levels:
        return 0.0
    units, denom = _weight_units(ell, levels)
    half = np.array([aperture * float(ell) ** -n for n in levels]).repeat(counts)
    wt = np.array(units, dtype=np.int64).repeat(counts)
    # a stable sort keeps every start (the first half) ahead of an end at
    # the same coordinate
    order = np.concatenate([slopes - half, slopes + half]).argsort(kind="stable")
    running = np.concatenate([wt, -wt])[order].cumsum()
    return int(running.max()) / denom


def m_of_t(f: TrigPolynomial, t: float, nx: int, ns: int, cls: CeilingClass,
           certified: bool = True) -> TransversalityEstimate:
    """Grid maximum over target points in the flow domain of the
    non-transversal branch weight m.

    m_value is the plain grid maximum (a lower bound); when ``certified``,
    m_upper repeats the overlap test with every threshold widened by
    2*theta_K*h (h the base-grid spacing), exploiting that branch slopes are
    theta_K-Lipschitz in the target point, and otherwise it is 1.0, the
    bound of the branch-sum identity.  The single-t case of
    ``grid_estimates``.
    """
    return grid_estimates(f, [t], nx, ns, cls, certified, 1)[0][0]


def n_of_t(f: TrigPolynomial, t: float, nx: int, ns: int, cls: CeilingClass) -> float:
    """Grid maximum over target points and over direction slopes of the
    branch weight whose doubled cones contain the direction.

    The per-point maximum over slopes is computed exactly by an interval
    sweep, which coincides with evaluating at every cone center and
    boundary.  The single-t case of ``grid_estimates``.
    """
    return grid_estimates(f, [t], nx, ns, cls, False, 1)[0][1]


def grid_estimates(f: TrigPolynomial, t_values, nx: int, ns: int, cls: CeilingClass,
                   certified: bool, workers: int) -> list:
    """``(TransversalityEstimate, n_value)`` for every t of the nonempty
    ``t_values``, in their order: what ``m_of_t`` and ``n_of_t`` give for that
    t, from one grid pass that scans each fiber column once, for all (s, t) pairs.

    The columns are split into contiguous chunks mapped over ``workers``
    processes; chunks are reduced in column order, so the results and the
    argmax tie-breaking do not depend on the worker count.
    """
    ts = [float(t) for t in t_values]
    widen = 2.0 * cls.theta_K * (1.0 / nx) if certified else None
    task = functools.partial(_column_maxima, f, ts, nx, ns, cls, widen)
    chunks = min(workers, nx)
    parts = pmap(task, [range(i * nx // chunks, (i + 1) * nx // chunks)
                        for i in range(chunks)], chunks)
    best = parts[0]
    for part in parts[1:]:
        for b, p in zip(best, part):
            _absorb(b, *p)
    out = []
    for t, (m_value, x, s, m_upper, n_value) in zip(ts, best):
        # the branch-sum identity caps the true maximum at 1: the widened
        # value is clamped to it, and without widening it is the only bound
        m_upper = min(m_upper, 1.0) if certified else 1.0
        est = TransversalityEstimate(
            t=t, m_value=m_value, m_upper=m_upper, slack=(widen if certified else 0.0),
            argmax_x=x, argmax_s=s, argmax_on_section=(s == 0.0))
        out.append((est, n_value))
    return out


def _absorb(best: list, m_value, x, s, m_upper, n_value) -> None:
    """Fold one later grid point (or chunk) into a running maximum; the
    strict > keeps the first argmax in column order."""
    if m_value > best[0]:
        best[0], best[1], best[2] = m_value, x, s
    best[3] = max(best[3], m_upper)
    best[4] = max(best[4], n_value)


def _column_maxima(f, ts, nx, ns, cls, widen, columns) -> list:
    """Per t, [m_value, argmax x, argmax s, widened m, n_value] over the grid
    points of the given columns: x = i/nx and ns flow coordinates scaled
    to the fiber, always including the base section s = 0.

    The widened pass of a t stops once its running maximum reaches 1:
    ``grid_estimates`` reports it clamped to 1, so no later point can change
    the report, whichever chunk of columns the point falls in."""
    aperture = 2.0 * cls.theta_f
    t_hi = max(ts)
    best = [[0.0, 0.0, 0.0, 0.0, 0.0] for _ in ts]
    for i in columns:
        x = i / nx
        height = f(x)
        s_values = [j * height / ns for j in range(ns)]
        # the table at the most permissive pair (s = 0, largest t), whose
        # scan serves every (s, t) of the column
        scan = branch_table(f, FlowPoint(x, 0.0), t_hi, s_values=s_values, t_values=ts).scan
        for s in s_values:
            for b, t in zip(best, ts):
                profile = scan.slope_profile(s, t)
                m_upper = (_overlap_maxima(scan.ell, *profile, cls.theta_f, widen)
                           if widen is not None and b[3] < 1.0 else 0.0)
                _absorb(b, _overlap_maxima(scan.ell, *profile, cls.theta_f), x, s, m_upper,
                        _sweep_max(scan.ell, *profile, aperture))
    return best


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
