"""The suspension semi-flow, its symbolic words, and inverse-branch structure.

Points move upward at unit speed under the graph of the ceiling f; on
reaching the roof at (x, f(x)) they jump to (tau(x), 0) with
tau(x) = ell*x mod 1.  The time-t preimages of a point are indexed by words
over {1..ell}: the word picks one chain of inverse branches of tau, and the
Birkhoff sum of f along the chain fixes the flow coordinate of the preimage.
A word a_1..a_n is its little-endian index k = sum_i (a_i - 1) ell^(i-1),
and its i-th prefix point at x is (x + k mod ell^i)/ell^i.

Slope convention: a branch of length n at target x carries

    slope = sum_{i=1..n} ell^{-i} f'(prefix_i(x)),

the slope of the image of a horizontal tangent vector.  Only slope
differences enter the transversality sums, so a global sign flip would be
immaterial.  The same word-based formula is used for targets off the base
section S^1 x {0}: the horizontal dynamics does not depend on the flow
coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ceiling import MAX_WORD_INDEX, TrigPolynomial, extrema
from .errors import NumericalFailure, ResourceLimit

# Points within ROOF_TOL of the roof are treated as already transferred to
# the base of the next fiber (right-limit convention of the flow).
ROOF_TOL = 1e-12

# Candidate words per level of a branch scan, read when a scan starts.
BRANCH_CAP = 2 ** 20

# Roof crossings of one flow advance; each takes at least min f of flow time.
MAX_CROSSINGS = 2 ** 14


@dataclass(frozen=True)
class FlowPoint:
    """A point (x, s) with 0 <= s < f(x) in the region under the ceiling."""

    x: float
    s: float


def prefix_points(x: float, k, n: int, ell: int) -> np.ndarray:
    """Prefix points of the words with little-endian indices k at the target
    x: a (len(k), n) array whose column i - 1 is the level-i preimage
    (x + k mod ell^i)/ell^i, in the float operations of the level scan, so
    a Birkhoff sum along a row adds up bit for bit to the scan's."""
    k = np.asarray(k, dtype=np.int64)
    pts = np.empty((len(k), n))
    for i in range(1, n + 1):
        pts[:, i - 1] = (x + k % ell ** i) / ell ** i
    return pts


def check_crossings(f: TrigPolynomial, largest: float, start: float = 0.0) -> None:
    """Raise ResourceLimit, naming the largest admissible time, when flowing
    for ``largest`` from a height of at most ``start`` could cross the roof
    more than MAX_CROSSINGS times: each crossing takes at least min f, which
    config parsing certifies positive.  A nan time or limit is refused too."""
    t_limit = MAX_CROSSINGS * extrema(f, 0)[0] - start
    if not largest <= t_limit:
        raise ResourceLimit(
            f"flow time {largest} would cross the roof more than {MAX_CROSSINGS} times",
            t_limit=t_limit, max_crossings=MAX_CROSSINGS)


def _heights(f: TrigPolynomial, x: np.ndarray) -> np.ndarray:
    """f at the 1-d array x, evaluated once per run of bit-equal adjacent
    values and repeated over the run; a plain call when the runs average
    fewer than 2 points.  Equal bits give equal values, so the result is
    f(x) bit for bit."""
    bits = x.view(np.int64)
    starts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    if 2 * (starts.size + 1) > x.size:
        return np.asarray(f(x), dtype=float)
    starts = np.concatenate(([0], starts))
    return np.repeat(f(x[starts]), np.diff(starts, append=x.size))


def advance(f: TrigPolynomial, x, total, fx=None):
    """Flow the base point x for total >= 0 units of flow time measured from
    s = 0.  Returns (x', s', n, f(x')): the landing base point, the remaining
    flow coordinate, the number of roof crossings and the height of the
    landing point.  Vectorized over arrays.

    fx, when given, is f(x) (broadcast like x): the heights are then not
    evaluated again.  f is evaluated at the start and after each roof
    crossing, only at the points that just crossed (a point that does not
    cross is finished), and once per run of bit-equal adjacent x among them
    (``_heights``): points that share a base point, like the nodes of one
    column in flattened order, share its evaluations for as long as they
    cross together.  A partial Birkhoff sum within ROOF_TOL of total counts
    as a crossing, so points landing exactly on the roof come out at the
    base of the next fiber.  Raises ResourceLimit before the first crossing
    when the largest total could take more than MAX_CROSSINGS of them.
    """
    x = np.asarray(x, dtype=float)
    total = np.asarray(total, dtype=float)
    check_crossings(f, float(np.max(total, initial=0.0)))
    x, rem = np.broadcast_arrays(x, total)
    shape = x.shape
    x = x.flatten()
    rem = rem.flatten()
    if fx is None:
        fx = _heights(f, x)
    else:
        fx = np.broadcast_to(np.asarray(fx, dtype=float), shape).flatten()
    n = np.zeros(x.shape, dtype=int)
    live = np.flatnonzero(fx <= rem + ROOF_TOL)
    while live.size:
        rem[live] -= fx[live]
        y = f.ell * x[live]
        y -= np.floor(y)            # the bits of y % 1.0, at less cost
        x[live] = y
        n[live] += 1
        fx[live] = _heights(f, y)
        live = live[fx[live] <= rem[live] + ROOF_TOL]
    rem = np.maximum(rem, 0.0)
    return x.reshape(shape), rem.reshape(shape), n.reshape(shape), fx.reshape(shape)


def advance_through(f: TrigPolynomial, x, s, times, step=advance, fx=None):
    """Sample the flow of the points (x, s) at several times, all >= 0.

    Yields (t, x_t, s_t, f(x_t)) once per distinct time, in increasing
    order; each state is moved from the previous sample by the time
    difference, and the heights f(x_t) are handed on to the next step, so the
    roof crossings cost O(T) in total rather than O(T^2) and f is evaluated
    at most once per point and crossing.  fx, when given, is f(x).  Callers
    that need the samples in their own order (or with repeats) key them by t.
    ``step`` is the advance function to use; callers pass their own module's
    binding of ``advance`` so a wrapper placed on it sees every step.  Raises
    ResourceLimit up front when the largest time could take more than
    MAX_CROSSINGS roof crossings, so no step does.
    """
    t_arr = np.asarray(times, dtype=float).ravel()
    # a step flows from s_k <= s + t_k for t_(k+1) - t_k, so within s + t_(k+1)
    check_crossings(f, float(np.max(t_arr, initial=0.0)), float(np.max(s, initial=0.0)))

    def samples(x, s, fx):
        t_prev = 0.0
        for t in np.unique(t_arr).tolist():
            x, s, _, fx = step(f, x, s + (t - t_prev), fx=fx)
            t_prev = t
            yield t, x, s, fx
    return samples(x, s, fx)


class _BranchTable:
    """Flat arrays describing every time-t inverse branch at one target.

    Parallel arrays, one entry per branch: the level ``n``, the word index
    ``k`` (little-endian), the preimage base point ``y``, its height
    ``fy`` = f(y), its flow coordinate ``s`` and the slope.
    ``branch_table`` lists the branches level ascending and then by word
    index, ``inverse_branches`` in lexicographic word order.  ``scan`` is
    the column scan the table was masked from.
    """

    __slots__ = ("n", "k", "y", "fy", "s", "slopes", "ell", "scan")

    def __init__(self, n, k, y, fy, s, slopes, ell, scan):
        self.n, self.k, self.y, self.fy, self.s, self.slopes = n, k, y, fy, s, slopes
        self.ell = ell
        self.scan = scan

    @property
    def levels(self) -> list:
        """The levels holding a branch, ascending."""
        return np.unique(self.n).tolist()

    @property
    def count(self) -> int:
        return len(self.n)


def _max_admissible_t(f: TrigPolynomial, s: float) -> float:
    """Largest t for which the level scan provably stays under BRANCH_CAP."""
    # level scan reaches depth ~ (t - s)/f_min + 1; ell^depth <= cap, and an
    # ell above the cap leaves no level to reach
    depth = max(0.0, math.log(BRANCH_CAP, f.ell) - 1.0)
    return s + depth * extrema(f, 0)[0]


class _ColumnScan:
    """Every word of one fiber column that some (s, t) pair of a grid can take
    as a branch, from one pruned level scan (see ``_column_scan``).

    Flat arrays, one entry per kept word, grouped by level (``levels[i]``
    owns ``starts[i]:starts[i+1]``) and sorted by word index k within a
    level: the level n, k, the preimage y, the height f(y), the Birkhoff
    sum S, the parent's sum and the slope.  Level 0 is the empty word; its
    parent sum is -inf, so its parent test always passes.
    """

    __slots__ = ("ell", "levels", "starts", "n", "k", "y", "fy", "S", "S_parent", "slopes")

    def __init__(self, ell, levels, blocks):
        self.ell = ell
        self.levels = levels
        self.starts = np.cumsum([0] + [len(block[0]) for block in blocks])
        self.n = np.repeat(np.array(levels, dtype=np.int64), np.diff(self.starts))
        self.k, self.y, self.fy, self.S, self.S_parent, self.slopes = (
            np.concatenate(column) for column in zip(*blocks))

    def table(self, s: float, t: float) -> _BranchTable:
        """The branch table at (x, s) for time t, as ``branch_table`` builds it."""
        valid, d = _valid(s, t, self.S, self.S_parent)
        return _BranchTable(self.n[valid], self.k[valid], self.y[valid], self.fy[valid],
                            np.maximum(d[valid], 0.0), self.slopes[valid], self.ell, self)


def _valid(s: float, t: float, S, S_parent) -> tuple:
    """The words that are time-t branches at (x, s): flow defect
    d = s + S - t at least 0 and the parent's defect still negative, in the
    float operations of a scan at (s, t) alone.  Along a chain of words d
    only grows, so each chain has exactly one branch, the first word to
    reach the roof, however the sums round; that d < f(y) follows from the
    parent's test in exact arithmetic only.  Returns the mask and d."""
    d = s + S - t
    return (d >= -ROOF_TOL) & (s + S_parent - t < -ROOF_TOL), d


def _column_scan(f: TrigPolynomial, x: float, s_values, ts) -> _ColumnScan:
    """One pruned level scan of the column over x, shared by every pair
    (s, t) with s in ``s_values`` and t in ``ts``.

    A word's index, preimage, Birkhoff sum S and slope depend on x alone;
    s and t enter only through its flow defect d = s + S - t, which grows
    along a chain.  The scan therefore runs at the most permissive pair
    (smallest s, largest t): its frontier holds the words still open there
    (d < 0), and level n is built from their children k + j*ell^(n-1), so
    the little-endian word index keeps every level sorted by k.  A level
    keeps only the words that some t can accept: d >= 0 at the largest s and
    the parent open at the smallest s.  Float addition is monotone, so these
    tests are exact supersets of every pair's own.  Raises ResourceLimit,
    naming the largest t, when one level would hold more than BRANCH_CAP
    candidate words or words too long for an int64 index.
    """
    cap = BRANCH_CAP
    ts = np.asarray(ts, dtype=float)
    s_lo, s_hi = float(min(s_values)), float(max(s_values))
    t_hi = float(ts.max())
    ell = f.ell
    levels = [0]
    blocks = [(np.array([0], dtype=np.int64), np.array([x]), np.array([f(x)]),
               np.array([0.0]), np.array([-np.inf]), np.array([0.0]))]
    if s_lo - t_hi >= -ROOF_TOL:
        return _ColumnScan(ell, levels, blocks)

    # the frontier: index, Birkhoff sum and slope of every word open at (s_lo, t_hi)
    k = np.zeros(1, dtype=np.int64)
    S = np.zeros(1)
    sl = np.zeros(1)
    n = 0
    while len(k):
        n += 1
        if len(k) * ell > cap:
            raise ResourceLimit(
                f"branch enumeration at t={t_hi} would exceed the cap of {cap} words per level",
                t_limit=_max_admissible_t(f, s_lo), cap=cap)
        if ell ** n > MAX_WORD_INDEX:
            raise ResourceLimit(
                f"branch enumeration at t={t_hi} would need words of more than {n - 1} "
                f"letters, beyond 64-bit word indices",
                t_limit=_max_admissible_t(f, s_lo), max_length=n - 1)
        k = (k + ell ** (n - 1) * np.arange(ell, dtype=np.int64)[:, None]).ravel()
        y = (x + k) / ell ** n
        fy = f(y)
        S_parent = np.tile(S, ell)
        S = S_parent + fy
        sl = np.tile(sl, ell) + ell ** float(-n) * f(y, 1)
        keep = np.any((s_hi + S - ts[:, None] >= -ROOF_TOL)
                      & (s_lo + S_parent - ts[:, None] < -ROOF_TOL), axis=0)
        if np.any(keep):
            levels.append(n)
            blocks.append((k[keep], y[keep], fy[keep], S[keep], S_parent[keep], sl[keep]))
        open_ = s_lo + S - t_hi < -ROOF_TOL
        k, S, sl = k[open_], S[open_], sl[open_]
    return _ColumnScan(ell, levels, blocks)


def branch_table(f: TrigPolynomial, z: FlowPoint, t: float, *, s_values=(),
                 t_values=()) -> _BranchTable:
    """Every time-t inverse branch at z.

    A word is a branch iff its flow defect d = s + S_n - t is at least 0
    and its parent's defect is still negative.  The table is a mask over one
    pruned level scan of z's fiber column, kept as ``table.scan``.  By
    default the scan serves (z.s, t) alone; ``s_values`` and ``t_values``
    add flow coordinates and times of the same column, and then
    ``table.scan.table(s, t)`` gives the table of every pair (s, t) of the
    grid without a second scan, bit for bit as a scan at that pair alone:
    ``_valid`` on the scan's arrays is each pair's mask.  The times are >= 0
    and the flow coordinates under the roof.  Raises ResourceLimit, naming
    the largest t, when one level would hold more than BRANCH_CAP candidate
    words or words too long for an int64 index.
    """
    return _column_scan(f, z.x, [z.s, *s_values], [t, *t_values]).table(z.s, t)


def inverse_branches(f: TrigPolynomial, z: FlowPoint, t: float) -> tuple:
    """All time-t inverse branches of the flow at z: ``(table, words)``, the
    ``branch_table`` reordered lexicographically by word, and each row's
    word as its letters' decimal digits run together.

    Both come from one digit matrix of the word indices, letter p of a row
    being (k // ell^p) % ell + 1 and 0 past the word's end, so a word sorts
    after its prefixes, as tuples of letters do.

    z lies strictly under the roof, as config parsing checks.  Raises
    NumericalFailure, naming the weight sum, unless the branches under the
    roof, 0 <= s' < f(y), have weights ell^-n that sum to 1, counted exactly
    in units of ell^-n_max: rounding puts s' on the roof when the ceiling is
    so large that s + S - t rounds to S."""
    table = branch_table(f, z, t)
    ell, n_max = table.ell, max(table.levels, default=0)
    levels, counts = np.unique(table.n[table.s < table.fy], return_counts=True)
    units = sum(c * ell ** (n_max - n) for n, c in zip(levels.tolist(), counts.tolist()))
    if units != ell ** n_max:
        roofed = table.count - int(counts.sum())
        cause = f"; rounding puts {roofed} of them at or above the roof" if roofed else ""
        raise NumericalFailure(
            f"the time-{t} inverse branches at (x={z.x}, s={z.s}) weigh "
            f"{units}/{ell}^{n_max}, not 1{cause}", weight_sum=units / ell ** n_max)
    if n_max == 0:
        return table, [""] * table.count
    letters = np.zeros((n_max, table.count), dtype=np.min_scalar_type(ell))
    for p in range(n_max):
        letters[p] = np.where(table.n > p, table.k // ell ** p % ell + 1, 0)
    order = np.lexsort(letters[::-1])
    letters = letters[:, order]
    # each letter as `width` characters, its leading zeros (and a padding
    # letter's every digit) as NUL; a stable sort moves the NULs to the end
    # of the row, where the bytes dtype drops them
    width = len(str(ell))
    tens = (10 ** np.arange(width - 1, -1, -1)).astype(letters.dtype)
    grid = letters.T[:, :, None]
    chars = np.where(grid >= tens, grid // tens % 10 + ord("0"), 0).astype(np.uint8)
    chars = chars.reshape(table.count, n_max * width)
    chars = np.take_along_axis(chars, np.argsort(chars == 0, axis=1, kind="stable"), axis=1)
    words = chars.view(f"S{n_max * width}").ravel().astype(str).tolist()
    return _BranchTable(table.n[order], table.k[order], table.y[order], table.fy[order],
                        table.s[order], table.slopes[order], ell, table.scan), words
