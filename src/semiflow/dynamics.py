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


class _Orbits:
    """The orbits of the base points under a set of flow points: the store
    that ``advance`` steps them through.

    The points are grouped into base points, runs of bit-equal adjacent x;
    the store keeps tau^n(x_b) and f(tau^n x_b) in level-major rows over
    the B base points, a ring of ``width`` rows, row n mod width holding
    level n.  Each point carries one index (n mod width)*B + b into it, and
    f is evaluated once per (base point, level) that some point reaches,
    when the first of them gets there.  An entry not yet built holds NaN,
    which f, a finite trig polynomial, never returns.

    The points of a run follow one orbit and share every height, so one
    whose flow time exceeds another's by at most D is at most
    floor(D/min f) + 1 levels ahead: ``width`` = floor(D/min f) + 3 rows
    hold every level the run's points occupy plus the next, empty one, for
    D the spread of all the flow times (widened by a bound on rounding),
    which bounds the spread within each run.  When B * width would exceed
    twice the points, every point is its own base point, so the store's
    size is O(points) whatever the flow times.
    """

    __slots__ = ("X", "F", "idx", "bases", "ring", "limit", "cross")

    def __init__(self, f: TrigPolynomial, x: np.ndarray, fx, spread: np.ndarray, steps: int):
        """x: the flat points' base coordinates; fx: f(x) or None; spread:
        their flow times up to a shift common to all points, over ``steps``
        calls of ``flow``."""
        size = x.size
        bits = x.view(np.int64)
        starts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
        starts = np.concatenate(([0], starts)) if size else starts
        width = 3
        if size:
            f_min = extrema(f, 0)[0]
            # the spread may grow by rounding: each of at most MAX_CROSSINGS
            # + steps operations on a flow time within MAX_CROSSINGS * f_min
            # (``check_crossings``) rounds by 2^-53 of it, at two points; and
            # clamping a landing within ROOF_TOL under 0 gains up to ROOF_TOL
            slack = (MAX_CROSSINGS + steps) * 2.0 ** -38 + steps * ROOF_TOL / f_min
            width = int(float(spread.max() - spread.min()) / f_min + slack) + 3
        if starts.size * width > 2 * size:
            starts, width = np.arange(size), 3
        bases = starts.size
        self.bases = bases
        self.ring = width * bases
        self.idx = np.repeat(np.arange(bases), np.diff(starts, append=size))
        # scratch of every step, and the flow times ``advance_through``
        # hands to the next: fresh arrays cost page faults at each step
        self.limit = np.empty(size)
        self.cross = np.empty(size, dtype=bool)
        self.X = np.empty(self.ring)
        self.F = np.full(self.ring, np.nan)
        self.X[:bases] = x[starts]
        self.F[:bases] = f(x[starts]) if fx is None else fx[starts]

    def _build(self, f: TrigPolynomial, slots: np.ndarray) -> None:
        """Build the entries at the distinct indices ``slots`` (consumed),
        each the level after a built one, and empty the ring row after
        each: the rows before and after a slot lie within one ring size."""
        y = f.ell * self.X.take(slots - self.bases, mode="wrap")
        y -= np.floor(y)            # the bits of y % 1.0, at less cost
        self.X[slots] = y
        self.F[slots] = f(y)
        slots += self.bases
        slots[slots >= self.ring] -= self.ring
        self.F[slots] = np.nan

    def flow(self, f: TrigPolynomial, rem: np.ndarray, h: np.ndarray) -> tuple:
        """Flow every point from its current base point, of height h, for
        its flow time rem; both flat and consumed.  Returns (x', s', n, f(x'))."""
        X, F, idx, bases, ring = self.X, self.F, self.idx, self.bases, self.ring
        limit, cross = self.limit, self.cross
        step = limit.view(np.int64)
        n = np.zeros(rem.shape, dtype=int)
        while True:
            np.add(rem, ROOF_TOL, out=limit)
            np.less_equal(h, limit, out=cross)
            if not cross.any():
                break
            # products with the mask, not ufuncs masked by it, whose cost
            # grows with how often the mask flips: h * False = +0, and rem
            # - 0 is rem bit for bit
            rem -= np.multiply(h, cross, out=limit)
            n += cross
            idx += np.multiply(cross, bases, out=step)
            np.greater_equal(idx, ring, out=cross)
            np.subtract(idx, ring, out=idx, where=cross)
            F.take(idx, out=h, mode="clip")     # in the ring: no bounds check
            slots = idx[np.isnan(h, out=cross)]     # not yet built
            if slots.size:
                # a base point's points are adjacent, and those that miss
                # this step all entered its one new level: equal slots are
                # adjacent, so comparing neighbours dedupes them
                first = np.empty(slots.size, dtype=bool)
                first[0] = True
                np.not_equal(slots[1:], slots[:-1], out=first[1:])
                self._build(f, slots[first])
                F.take(idx, out=h, mode="clip")
        np.maximum(rem, 0.0, out=rem)
        return X.take(idx, mode="clip"), rem, n, h


def advance(f: TrigPolynomial, x, total, fx=None, *, orbits=None):
    """Flow the base point x for total >= 0 units of flow time measured from
    s = 0.  Returns (x', s', n, f(x')): the landing base point, the remaining
    flow coordinate, the number of roof crossings and the height of the
    landing point.  Vectorized over arrays.

    fx, when given, is f(x) (broadcast like x): the heights are then not
    evaluated again.  The points move through an orbit store (``_Orbits``):
    f is evaluated once per base point, a run of bit-equal adjacent x, and
    level its points reach, so points that share a base point, like the
    nodes of one column in flattened order, share every evaluation.  Each
    step moves all the points at once with whole-array operations on the
    crossing mask: a point whose height h satisfies h <= rem + ROOF_TOL
    crosses, rem -= h, and moves one level up its orbit; the landing
    coordinate is max(rem, 0).  A partial Birkhoff sum within ROOF_TOL of
    total therefore counts as a crossing, so points landing exactly on the
    roof come out at the base of the next fiber.  ``orbits``, when given,
    is the store of ``advance_through`` holding these points, and x and fx
    are their current coordinates; without it the call builds its own
    store.  Raises ResourceLimit before the first crossing when the largest
    total could take more than MAX_CROSSINGS of them.
    """
    x = np.asarray(x, dtype=float)
    total = np.asarray(total, dtype=float)
    check_crossings(f, float(np.max(total, initial=0.0)))
    x, rem = np.broadcast_arrays(x, total)
    shape = x.shape
    rem = rem.flatten()
    if fx is not None:
        fx = np.broadcast_to(np.asarray(fx, dtype=float), shape).flatten()
    if orbits is None:
        orbits = _Orbits(f, x.ravel(), fx, rem, 1)
    if fx is None:
        fx = orbits.F.take(orbits.idx)
    x, rem, n, fx = orbits.flow(f, rem, fx)
    return x.reshape(shape), rem.reshape(shape), n.reshape(shape), fx.reshape(shape)


def advance_through(f: TrigPolynomial, x, s, times, step=advance, fx=None):
    """Sample the flow of the points (x, s) at several times, all >= 0.

    Yields (t, x_t, s_t, f(x_t)) once per distinct time, in increasing
    order; each state is moved from the previous sample by the time
    difference, so the roof crossings cost O(T) in total rather than O(T^2).
    One orbit store (``_Orbits``), built here from x, s and fx (f(x), when
    given), serves every step: f is evaluated once per base point and level
    that some point reaches over all the samples, and the store's ring of
    rows keeps its memory O(points).  Callers that need the samples in their
    own order (or with repeats) key them by t.  ``step`` is the advance
    function to use; callers pass their own module's binding of ``advance``
    so a wrapper placed on it sees every step.  Each step gets the store as
    ``orbits`` together with the points' current x and heights, so a step
    that ignores the store returns the same values.  Raises ResourceLimit up
    front when the largest time could take more than MAX_CROSSINGS roof
    crossings, so no step does.

    A caller that drops a sample's arrays before it asks for the next lets
    the step reuse their memory.  Otherwise every sample grows the heap by
    its arrays, the C allocator may return that memory at the next sample,
    and the arrays of each sample fault their pages in again.
    """
    t_arr = np.asarray(times, dtype=float).ravel()
    # a step flows from s_k <= s + t_k for t_(k+1) - t_k, so within s + t_(k+1)
    check_crossings(f, float(np.max(t_arr, initial=0.0)), float(np.max(s, initial=0.0)))

    def samples(x, s, fx):
        x, s = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(s, dtype=float))
        if fx is not None:
            fx = np.broadcast_to(np.asarray(fx, dtype=float), x.shape)
        # not np.unique, which imports numpy.ma on its first call
        ts = sorted(set(t_arr.tolist()))
        orbits = _Orbits(f, x.ravel(), None if fx is None else fx.ravel(), s.ravel(), len(ts))
        t_prev = 0.0
        # each step's flow times go in the store's scratch, which a step
        # reads before it overwrites: no fresh array per step
        total = orbits.limit.reshape(x.shape)
        for t in ts:
            np.add(s, t - t_prev, out=total)
            # the previous sample's s and crossing counts go before the step
            # allocates the next sample (see the docstring)
            del s
            x, s, n, fx = step(f, x, total, fx=fx, orbits=orbits)
            del n
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
    the column scan the table was masked from, and ``scans`` holds it
    followed by the scans of any other columns of the same level loop.
    """

    __slots__ = ("n", "k", "y", "fy", "s", "slopes", "ell", "scans")

    def __init__(self, n, k, y, fy, s, slopes, ell, *scans):
        self.n, self.k, self.y, self.fy, self.s, self.slopes = n, k, y, fy, s, slopes
        self.ell = ell
        self.scans = scans

    @property
    def scan(self):
        return self.scans[0]

    @property
    def levels(self) -> list:
        """The levels holding a branch, ascending."""
        return sorted(set(self.n.tolist()))  # np.unique would import numpy.ma

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
    as a branch: the column's share of one pruned level scan (see
    ``_column_scan``).

    Flat arrays, one entry per kept word, grouped by level (``levels[i]``
    owns ``starts[i]:starts[i+1]``) and sorted by word index k within a
    level: the level n, k, the preimage y, the height f(y), the Birkhoff
    sum S, the parent's sum and the slope.  Level 0 is the empty word; its
    parent sum is -inf, so its parent test always passes.
    """

    __slots__ = ("ell", "levels", "starts", "n", "k", "y", "fy", "S", "S_parent", "slopes")

    def __init__(self, ell, levels, counts, k, y, fy, S, S_parent, slopes):
        self.ell = ell
        self.levels = levels
        self.starts = np.cumsum([0] + counts)
        self.n = np.repeat(np.array(levels, dtype=np.int64), counts)
        self.k, self.y, self.fy, self.S, self.S_parent, self.slopes = k, y, fy, S, S_parent, slopes

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


def _column_scan(f: TrigPolynomial, columns, ts) -> list:
    """One pruned level scan of several fiber columns, given as (x, s_values)
    pairs: for each column, the ``_ColumnScan`` shared by every pair (s, t)
    with s in its ``s_values`` and t in ``ts``.

    A word's index, preimage, Birkhoff sum S and slope depend on x alone;
    s and t enter only through its flow defect d = s + S - t, which grows
    along a chain.  Each column is therefore scanned at its most permissive
    pair (its smallest s, the largest t): the frontier holds the words still
    open there (d < 0), each with its column's index, and level n is built
    from their children k + j*ell^(n-1), j-major, so the little-endian word
    index keeps every column's words of a level sorted by k.  A level keeps
    only the words that some t can accept: d >= 0 at the column's largest s
    and the parent open at its smallest.  Float addition is monotone, so
    these tests are exact supersets of every pair's own, and they are the
    elementwise float operations of a column scanned alone: a column's scan
    does not depend on the others.  A stable sort on the column index splits
    the kept words into the columns, level ascending and by k within a
    level.  Raises ResourceLimit, naming the largest t, when one level of a
    column would hold more than BRANCH_CAP candidate words or words too long
    for an int64 index.
    """
    cap = BRANCH_CAP
    ts = np.asarray(ts, dtype=float)
    t_hi = float(ts.max())
    ell = f.ell
    x = np.array([float(c[0]) for c in columns])
    s_lo = np.array([float(min(c[1])) for c in columns])
    s_hi = np.array([float(max(c[1])) for c in columns])
    size = len(columns)
    # level 0, the empty word of every column, then one entry per level
    col = np.arange(size)
    k = np.zeros(size, dtype=np.int64)
    S = np.zeros(size)
    sl = np.zeros(size)
    levels = [0]
    kept = [(col, k, x, f(x), S, np.full(size, -np.inf), sl)]
    # the frontier: column, index, Birkhoff sum and slope of every word open
    # at its column's (s_lo, t_hi)
    open_ = s_lo + S - t_hi < -ROOF_TOL
    col, k, S, sl = col[open_], k[open_], S[open_], sl[open_]
    n = 0
    while len(k):
        n += 1
        over = np.flatnonzero(np.bincount(col, minlength=size) * ell > cap)
        if over.size:
            raise ResourceLimit(
                f"branch enumeration at t={t_hi} would exceed the cap of {cap} words per level",
                t_limit=_max_admissible_t(f, float(s_lo[over[0]])), cap=cap)
        if ell ** n > MAX_WORD_INDEX:
            raise ResourceLimit(
                f"branch enumeration at t={t_hi} would need words of more than {n - 1} "
                f"letters, beyond 64-bit word indices",
                t_limit=_max_admissible_t(f, float(s_lo[col.min()])), max_length=n - 1)
        k = (k + ell ** (n - 1) * np.arange(ell, dtype=np.int64)[:, None]).ravel()
        col = np.concatenate([col] * ell)
        y = (x[col] + k) / ell ** n
        fy = f(y)
        S_parent = np.concatenate([S] * ell)
        S = S_parent + fy
        sl = np.concatenate([sl] * ell) + ell ** float(-n) * f(y, 1)
        keep = np.any((s_hi[col] + S - ts[:, None] >= -ROOF_TOL)
                      & (s_lo[col] + S_parent - ts[:, None] < -ROOF_TOL), axis=0)
        if np.any(keep):
            levels.append(n)
            kept.append((col[keep], k[keep], y[keep], fy[keep], S[keep], S_parent[keep],
                         sl[keep]))
        open_ = s_lo[col] + S - t_hi < -ROOF_TOL
        col, k, S, sl = col[open_], k[open_], S[open_], sl[open_]
    # each level's words of one column per (level, column) cell; the stable
    # sort keeps the levels ascending and each level sorted by k
    cells = np.array([np.bincount(block[0], minlength=size) for block in kept]).T.tolist()
    order = np.concatenate([block[0] for block in kept]).argsort(kind="stable")
    arrays = [np.concatenate(a)[order] for a in list(zip(*kept))[1:]]
    scans, lo = [], 0
    for counts in cells:
        hi = lo + sum(counts)
        scans.append(_ColumnScan(ell, [m for m, c in zip(levels, counts) if c],
                                 [c for c in counts if c], *(a[lo:hi] for a in arrays)))
        lo = hi
    return scans


def branch_table(f: TrigPolynomial, z: FlowPoint, t: float, *, s_values=(),
                 t_values=(), columns=()) -> _BranchTable:
    """Every time-t inverse branch at z.

    A word is a branch iff its flow defect d = s + S_n - t is at least 0
    and its parent's defect is still negative.  The table is a mask over one
    pruned level scan of z's fiber column, kept as ``table.scan``.  By
    default the scan serves (z.s, t) alone; ``s_values`` and ``t_values``
    add flow coordinates and times of the same column, and then
    ``table.scan.table(s, t)`` gives the table of every pair (s, t) of the
    grid without a second scan, bit for bit as a scan at that pair alone:
    ``_valid`` on the scan's arrays is each pair's mask.  ``columns``
    adds further fiber columns as (x, s_values) pairs, scanned in the same
    level loop for the same times: ``table.scans`` holds one scan per
    column, z's first, each bit for bit the scan of that column alone, so
    a single column is the one-column case of the same loop.  The times are
    >= 0 and the flow coordinates under the roof.  Raises ResourceLimit,
    naming the largest t, when one level of a column would hold more than
    BRANCH_CAP candidate words or words too long for an int64 index.
    """
    scans = _column_scan(f, [(z.x, [z.s, *s_values]), *columns], [t, *t_values])
    table = scans[0].table(z.s, t)
    table.scans = tuple(scans)
    return table


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
