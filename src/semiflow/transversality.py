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
``n_of_t`` are views over it).  Each fiber column is scanned once, for every
(s, t) of the run, in a group of columns that one ``branch_table`` call
scans in one level loop: the first column alone, then as many as fit
GROUP_WORDS kept words by the widest column of the group before.  Each
column's words are then put in (level, slope) order.  For each t, the
validity masks of a block of flow coordinates keep the words valid at some s
of the block, and one pass over those words serves every s of it.  The
overlap count searches each reference's window on every target level and
counts the branches of each s in it by a prefix sum of that s's mask; the n
sweep orders the events of all the words by one stable argsort and sums each
s's masked weights along it.  A masked sublist of a sorted list counts what
a search of the sublist counts, and a stable order restricted to a subset is
the subset's own stable order, so each grid point gets the value of a pass
over its own table.  Branch weights ell^-n are summed as exact integer
multiples of ell^-n_max, n_max the deepest level of the block, and divided
once: Python divides integers with correct rounding, so m and n are the
correctly rounded values whichever common power of ell the count uses, and
the identity n <= 1 holds in floating point too.  The passes hold
CHUNK_WORDS words of a block at a time.  The certified value is reported
clamped to 1, the bound of the branch-sum identity, so the widened pass of a
t stops at the first column where its running maximum reaches 1; each chunk
of columns stops on its own, and the report does not depend on the worker
count.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .ceiling import CeilingClass, TrigPolynomial
from .dynamics import FlowPoint, _valid, branch_table
from .errors import InvalidArgument
from .parallel import pmap

GRID_LOWER_BOUND_CAVEAT = "grid lower bound"

# flow coordinates of a column whose validity masks are built together, and
# words (overlap references or sweep events) per temporary of their passes:
# a temporary holds one integer per word and flow coordinate of a block
MASK_BLOCK = 8
CHUNK_WORDS = 2 ** 12

# kept words of the column scans of one group (``_column_maxima``): a group
# holds its scans until its last column is absorbed
GROUP_WORDS = 2 ** 14


@dataclass(frozen=True)
class TransversalityEstimate:
    t: float
    m_value: float
    m_upper: float
    slack: float
    argmax_x: float = 0.0
    argmax_s: float = 0.0


def _overlap_maxima(ell: int, levels, counts, slopes, valid, theta: float,
                    widen: float = 0.0) -> list:
    """m at each flow coordinate of a block: per column of ``valid``, the
    largest 1/E-weighted count, over the references valid there, of the
    valid branches whose cone overlaps the reference cone (self-term
    included).

    ``levels``, ``counts`` and ``slopes`` list the words valid at some flow
    coordinate of the block, each level's slopes ascending and the levels
    concatenated, and ``valid`` is their (word, flow coordinate) validity
    mask.  For every target level n2, one search finds each reference's
    window [lo, hi) of the level-n2 slopes within the pair threshold
    theta*(ell^-n1 + ell^-n2) + widen.  The words valid at one flow
    coordinate are a sorted sublist, so the window holds P[hi] - P[lo] of
    them, P being the cumulative sum of the mask: what a search of that
    sublist alone counts.  As in the sweep, a level-n2 branch weighs
    ell^(n_max - n2) units of ell^-n_max, n_max the deepest level of the
    block, and the sums are divided once.  Every entry, a masked-out
    reference's too, sums branches valid at one flow coordinate, a
    prefix-free word set, so it is at most ell^n_max units, within int64
    since the scan keeps ell^n_max <= MAX_WORD_INDEX.  The references are
    taken CHUNK_WORDS at a time.
    """
    ns = valid.shape[1]
    if not levels:
        return [0.0] * ns
    n_max = levels[-1]
    el = float(ell)
    w = np.array([el ** -n for n in levels])
    pair_thr = theta * (w[:, None] + w[None, :]) + widen
    ends = list(itertools.accumulate(counts))
    starts = [end - count for end, count in zip(ends, counts)]
    level_of = np.repeat(np.arange(len(levels)), counts)
    # P counts words of one scan: at most BRANCH_CAP per level over at most
    # 63 levels, well within int32
    P = np.zeros((len(slopes) + 1, ns), dtype=np.int32)
    np.cumsum(valid, axis=0, dtype=np.int32, out=P[1:])
    best = np.zeros(ns, dtype=np.int64)
    for lo in range(0, len(slopes), CHUNK_WORDS):
        ref = level_of[lo:lo + CHUNK_WORDS]
        needles = slopes[lo:lo + CHUNK_WORDS]
        sums = np.zeros((len(ref), ns), dtype=np.int64)
        for j, (start, end, n2) in enumerate(zip(starts, ends, levels)):
            thr = pair_thr[ref, j]
            a = slopes[start:end]
            first = np.searchsorted(a, needles - thr, side="left") + start
            last = np.searchsorted(a, needles + thr, side="right") + start
            hits = np.take(P, last, axis=0)
            hits -= np.take(P, first, axis=0)
            # an np.int64 weight: with a Python int, NumPy 2 would keep P's
            # int32 and overflow
            sums += hits * np.int64(ell ** (n_max - n2))
        sums *= valid[lo:lo + CHUNK_WORDS]
        # the maximum over words, on a transposed copy: numpy reduces a long
        # contiguous axis several times faster than across short rows
        np.maximum(best, sums.T.copy().max(axis=1), out=best)
    return [v / ell ** n_max for v in best.tolist()]


def _sweep_maxima(ell: int, levels, counts, slopes, valid, aperture: float) -> list:
    """n at each flow coordinate of a block: per column of ``valid``, the
    exact maximum over all direction slopes of the stabbed weight of the
    valid branches, with the words and mask of ``_overlap_maxima``.

    Standard interval-stabbing sweep: a level-n cone has half-width
    aperture*ell^-n, and weights enter at interval left ends and leave at
    right ends.  One stable argsort orders the events of every word of the
    block, each start ahead of an end at the same coordinate, so closed
    intervals touch; restricted to the words valid at one flow coordinate it
    is their own stable order.  The running weight, an exact integer count of
    weight units, is the cumulative sum of the masked weights, taken
    CHUNK_WORDS events at a time with the sum carried across chunks."""
    ns = valid.shape[1]
    if not levels:
        return [0.0] * ns
    n_max = levels[-1]
    half = np.repeat([aperture * float(ell) ** -n for n in levels], counts)
    wt = np.repeat(np.array([ell ** (n_max - n) for n in levels], dtype=np.int64), counts)
    order = np.concatenate([slopes - half, slopes + half]).argsort(kind="stable")
    signed = np.concatenate([wt, -wt])
    # flow coordinates as rows: each row's cumulative sum runs along a long
    # contiguous axis
    valid = valid.T.copy()
    best = np.zeros(ns, dtype=np.int64)
    carry = np.zeros((ns, 1), dtype=np.int64)
    for lo in range(0, len(order), CHUNK_WORDS):
        events = order[lo:lo + CHUNK_WORDS]
        running = np.take(valid, events % len(slopes), axis=1) * signed[events]
        running.cumsum(axis=1, out=running)
        running += carry
        np.maximum(best, running.max(axis=1), out=best)
        carry = running[:, -1:]
    return [v / ell ** n_max for v in best.tolist()]


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
            argmax_x=x, argmax_s=s)
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

    The columns are scanned in groups, each by one ``branch_table`` call at
    the group's first column that serves every (s, t) of the group, and then
    absorbed one by one.  The first column is scanned alone, and each later
    group holds GROUP_WORDS // (the largest kept-word count of the group
    before) columns, at least one.  The widened pass of a t stops once its
    running maximum reaches 1: ``grid_estimates`` reports it clamped to 1,
    so no later point can change the report, whichever chunk of columns the
    point falls in."""
    best = [[0.0, 0.0, 0.0, 0.0, 0.0] for _ in ts]
    columns = list(columns)
    size = 1
    while columns:
        group, columns = columns[:size], columns[size:]
        points = []
        for i in group:
            x = i / nx
            height = f(x)
            points.append((x, [j * height / ns for j in range(ns)]))
        (x, s_values), *rest = points
        # the table at the most permissive pair of the first column (s = 0,
        # largest t), whose level loop scans every column of the group
        scans = list(branch_table(f, FlowPoint(x, 0.0), max(ts), s_values=s_values,
                                  t_values=ts, columns=rest).scans)
        size = max(1, GROUP_WORDS // max(len(scan.k) for scan in scans))
        # each scan leaves the list as its column is absorbed, so that
        # ``_absorb_column`` holds the last reference to it
        for x, s_values in points:
            _absorb_column(best, scans.pop(0), x, s_values, ts, cls, widen)
    return best


def _absorb_column(best, scan, x, s_values, ts, cls, widen) -> None:
    """Fold the grid points (x, s), s in ``s_values``, of one scanned column
    into ``best``.

    The column's words are put in (level, slope) order.  For each t and each
    block of MASK_BLOCK flow coordinates, the block's validity masks
    (``_valid``, bit for bit a scan at each pair alone) keep the words valid
    at some flow coordinate of it, and one overlap pass and one sweep over
    those words serve the whole block.  The points are absorbed in s order
    within each t, so the first argmax wins as it would point by point."""
    ell, levels, starts = scan.ell, scan.levels, scan.starts
    # each level's words by slope (the order of equal slopes changes no
    # count), in copies that replace the scan
    order = np.concatenate([scan.slopes[a:b].argsort() + a
                            for a, b in itertools.pairwise(starts.tolist())])
    slopes, S, S_parent = (a[order] for a in (scan.slopes, scan.S, scan.S_parent))
    del scan, order
    for lo in range(0, len(s_values), MASK_BLOCK):
        block = s_values[lo:lo + MASK_BLOCK]
        valid = np.empty((len(slopes), len(block)), dtype=bool)
        for b, t in zip(best, ts):
            union = np.zeros(len(slopes), dtype=bool)
            for j, s in enumerate(block):
                valid[:, j] = _valid(s, t, S, S_parent)[0]
                union |= valid[:, j]
            counts = np.add.reduceat(union, starts[:-1], dtype=np.int64).tolist()
            union = np.flatnonzero(union)
            words = ([n for n, c in zip(levels, counts) if c], [c for c in counts if c],
                     slopes[union], np.take(valid, union, axis=0))
            m_values = _overlap_maxima(ell, *words, cls.theta_f)
            m_uppers = (_overlap_maxima(ell, *words, cls.theta_f, widen)
                        if widen is not None and b[3] < 1.0 else [0.0] * len(block))
            n_values = _sweep_maxima(ell, *words, 2.0 * cls.theta_f)
            for s, m_value, m_upper, n_value in zip(block, m_values, m_uppers, n_values):
                _absorb(b, m_value, x, s, m_upper, n_value)


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
