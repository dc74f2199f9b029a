"""The suspension semi-flow, its symbolic words, and inverse-branch structure.

Points move upward at unit speed under the graph of the ceiling f; on
reaching the roof at (x, f(x)) they jump to (tau(x), 0) with
tau(x) = ell*x mod 1.  The time-t preimages of a point are indexed by words
over {1..ell}: the word picks one chain of inverse branches of tau, and the
Birkhoff sum of f along the chain fixes the flow coordinate of the preimage.

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

from .ceiling import TrigPolynomial
from .errors import DomainViolation, InvalidArgument, ResourceLimit

# Points within ROOF_TOL of the roof are treated as already transferred to
# the base of the next fiber (right-limit convention of the flow).
ROOF_TOL = 1e-12

DEFAULT_BRANCH_CAP = 2 ** 24


@dataclass(frozen=True)
class Word:
    """A word over the alphabet {1..ell}; indexes one inverse branch chain."""

    letters: tuple
    ell: int

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(int(a) for a in self.letters))
        if any(not 1 <= a <= self.ell for a in self.letters):
            raise InvalidArgument(f"letters must lie in 1..{self.ell}: {self.letters}")

    def __len__(self):
        return len(self.letters)

    def prefix(self, p: int) -> "Word":
        if not 0 <= p <= len(self.letters):
            raise InvalidArgument(f"prefix length {p} out of range 0..{len(self.letters)}")
        return Word(self.letters[:p], self.ell)

    @property
    def index(self) -> int:
        """Little-endian digit encoding: sum (a_p - 1) ell^(p-1)."""
        k = 0
        for p, a in enumerate(self.letters):
            k += (a - 1) * self.ell ** p
        return k

    @classmethod
    def from_index(cls, k: int, n: int, ell: int) -> "Word":
        letters = []
        for _ in range(n):
            letters.append(k % ell + 1)
            k //= ell
        return cls(tuple(letters), ell)

    def __str__(self):
        return "".join(str(a) for a in self.letters)


@dataclass(frozen=True)
class FlowPoint:
    """A point (x, s) with 0 <= s < f(x) in the region under the ceiling."""

    x: float
    s: float


@dataclass(frozen=True)
class Cone:
    """Slope cone {(xi, eta): |eta - center*xi| <= width*|xi|}."""

    center_slope: float
    half_width: float

    def intersects(self, other: "Cone") -> bool:
        """Two such cones share a nonzero vector iff the center distance is
        at most the sum of the widths."""
        return abs(self.center_slope - other.center_slope) <= self.half_width + other.half_width

    def contains_slope(self, sigma: float) -> bool:
        return abs(sigma - self.center_slope) <= self.half_width


@dataclass(frozen=True)
class Branch:
    """One time-t inverse branch of the flow at a target point."""

    word: Word
    preimage: FlowPoint
    expansion: float
    slope: float
    level: int
    cone: Cone


def validate_point(f: TrigPolynomial, z: FlowPoint) -> float:
    """Raise DomainViolation unless 0 <= s < f(x); returns the height f(x)."""
    fx = f(z.x)
    if not (0.0 <= z.s < fx + ROOF_TOL):
        raise DomainViolation(f"point (x={z.x}, s={z.s}) is outside the region under the ceiling")
    return fx


def word_interval(a: Word):
    """(left endpoint, width) of the cylinder interval of the word.

    The cylinder is the set of points whose inverse-branch chain follows the
    word; its width is ell^(-n) and the left endpoint is the chain applied
    to 0.
    """
    if len(a) == 0:
        raise InvalidArgument("word_interval requires a nonempty word")
    return branch_point(a, 0.0), a.ell ** -len(a)


def branch_point(a: Word, x):
    """The unique preimage of x under tau^n lying in the word's cylinder.

    Reads the word letter by letter, each step applying the affine inverse
    branch y -> (y + letter - 1)/ell; the intermediate values are exactly
    the prefix points entering the Birkhoff sums.
    """
    y = np.asarray(x, dtype=float)
    for letter in a.letters:
        y = (y + (letter - 1)) / a.ell
    if y.ndim == 0:
        return float(y)
    return y


def _prefix_points(a: Word, x) -> list:
    """Prefix points [a]_i(x) for i = 1..n."""
    pts = []
    y = x
    for letter in a.letters:
        y = (y + (letter - 1)) / a.ell
        pts.append(y)
    return pts


def birkhoff(f: TrigPolynomial, a: Word, x: float, order: int = 0) -> float:
    """Birkhoff sum of f along the branch chain of the word, or its first
    or second derivative with respect to the target point:

        order 0:  sum_i f(prefix_i(x))
        order 1:  sum_i ell^(-i)  f'(prefix_i(x))
        order 2:  sum_i ell^(-2i) f''(prefix_i(x))
    """
    if order not in (0, 1, 2):
        raise InvalidArgument(f"birkhoff order must be 0, 1 or 2, got {order}")
    if a.ell != f.ell:
        raise InvalidArgument("word and ceiling use different ell")
    total = 0.0
    for i, y in enumerate(_prefix_points(a, x), start=1):
        total += f.ell ** (-order * i) * f(y, order)
    return total


def advance(f: TrigPolynomial, x, total):
    """Flow the base point x for total >= 0 units of flow time measured from
    s = 0.  Returns (x', s', n): the landing base point, the remaining flow
    coordinate, and the number of roof crossings.  Vectorized over arrays.

    A partial Birkhoff sum within ROOF_TOL of total counts as a crossing, so
    points landing exactly on the roof come out at the base of the next
    fiber.
    """
    x = np.asarray(x, dtype=float)
    total = np.asarray(total, dtype=float)
    x, rem = np.broadcast_arrays(x, total)
    x = x.copy()
    rem = rem.astype(float).copy()
    n = np.zeros(x.shape, dtype=int)
    while True:
        fx = f(x)
        fx = np.asarray(fx, dtype=float)
        cross = fx <= rem + ROOF_TOL
        if not np.any(cross):
            break
        rem = np.where(cross, rem - fx, rem)
        x = np.where(cross, (f.ell * x) % 1.0, x)
        n = n + cross
    rem = np.maximum(rem, 0.0)
    return x, rem, n


def advance_through(f: TrigPolynomial, x, s, times, step=advance):
    """Sample the flow of the points (x, s) at several times.

    Yields (t, x_t, s_t) once per distinct time, in increasing order; each
    state is moved from the previous sample by the time difference, so the
    roof crossings cost O(T) in total rather than O(T^2).  Callers that need
    the samples in their own order (or with repeats) key them by t.  ``step``
    is the advance function to use; callers pass their own module's binding
    of ``advance`` so a wrapper placed on it sees every step.
    """
    t_arr = np.asarray(times, dtype=float).ravel()
    if not np.all(np.isfinite(t_arr) & (t_arr >= 0.0)):
        raise InvalidArgument(f"times must be finite and >= 0, got {times}")

    def samples(x, s):
        t_prev = 0.0
        for t in np.unique(t_arr).tolist():
            x, s, _ = step(f, x, s + (t - t_prev))
            t_prev = t
            yield t, x, s
    return samples(x, s)


def flow_count(f: TrigPolynomial, x: float, T: float) -> int:
    """Largest n with Birkhoff sum f^(n)(x) <= T (number of roof crossings
    accumulated by flow time T starting from the base)."""
    if T < 0:
        raise InvalidArgument(f"T must be >= 0, got {T}")
    _, _, n = advance(f, x, T)
    return int(n)


def time_t_map(f: TrigPolynomial, z: FlowPoint, t: float) -> FlowPoint:
    """The time-t map of the semi-flow."""
    if t < 0:
        raise InvalidArgument(f"t must be >= 0, got {t}")
    validate_point(f, z)
    x, s, _ = advance(f, z.x, z.s + t)
    return FlowPoint(float(x), float(s))


class _BranchTable:
    """Flat arrays describing every time-t inverse branch at one target.

    Columns (parallel arrays): level n, word index k (little-endian), the
    preimage base point y, the flow coordinate s', and the slope.  Grouped
    by level; within a level the word index enumerates the branch.
    """

    __slots__ = ("levels", "indices", "points", "s_values", "slopes", "ell")

    def __init__(self, levels, indices, points, s_values, slopes, ell):
        self.levels = levels
        self.indices = indices
        self.points = points
        self.s_values = s_values
        self.slopes = slopes
        self.ell = ell

    @property
    def count(self) -> int:
        return sum(len(ix) for ix in self.indices.values())

    def weight_sum(self) -> float:
        return sum(float(self.ell) ** -n * len(self.indices[n]) for n in self.levels)


def _max_admissible_t(f: TrigPolynomial, s: float, cap: int) -> float:
    """Largest t for which the level scan provably stays under the cap."""
    f_min = f.mean_coeff - sum(abs(c) + abs(s_) for _, c, s_ in f.harmonics)
    f_min = max(f_min, 1e-9)
    # level scan reaches depth ~ (t - s)/f_min + 1; ell^depth <= cap
    depth = math.log(cap, f.ell) - 1.0
    return s + depth * f_min


def branch_table(f: TrigPolynomial, z: FlowPoint, t: float,
                 cap: int = DEFAULT_BRANCH_CAP) -> _BranchTable:
    """Enumerate every time-t inverse branch at z by a pruned level scan.

    A word is a branch iff its flow defect d = s + S_n - t lies in [0, f(y))
    and its parent's defect is still negative.  Defects grow along a chain,
    so the scan keeps only the open words (d < 0) as the frontier and builds
    level n from their children k + j*ell^(n-1); the little-endian word
    index keeps every level sorted by k.  Raises DomainViolation when z lies
    outside the region under the ceiling, and ResourceLimit when one level
    would hold more than ``cap`` candidate words.
    """
    if t < 0:
        raise InvalidArgument(f"t must be >= 0, got {t}")
    ell = f.ell
    x, s = z.x, z.s
    fx = validate_point(f, z)

    levels, indices, points, s_values, slopes = [], {}, {}, {}, {}

    # level 0: the empty word
    d0 = s - t
    if -ROOF_TOL <= d0 < fx - ROOF_TOL:
        levels.append(0)
        indices[0] = np.array([0], dtype=np.int64)
        points[0] = np.array([x])
        s_values[0] = np.array([max(d0, 0.0)])
        slopes[0] = np.array([0.0])
    if d0 >= -ROOF_TOL:
        return _BranchTable(levels, indices, points, s_values, slopes, ell)

    # the frontier: index, Birkhoff sum and slope of every open word
    k = np.zeros(1, dtype=np.int64)
    S = np.zeros(1)
    sl = np.zeros(1)
    n = 0
    while len(k):
        n += 1
        if len(k) * ell > cap:
            raise ResourceLimit(
                f"branch enumeration at t={t} would exceed the cap of {cap} words per level",
                t_limit=_max_admissible_t(f, s, cap), cap=cap)
        k = (k + ell ** (n - 1) * np.arange(ell, dtype=np.int64)[:, None]).ravel()
        y = (x + k) / ell ** n
        fy = f(y)
        S = np.tile(S, ell) + fy
        sl = np.tile(sl, ell) + ell ** float(-n) * f(y, 1)
        d = s + S - t
        valid = (d >= -ROOF_TOL) & (d < fy - ROOF_TOL)
        if np.any(valid):
            levels.append(n)
            indices[n] = k[valid]
            points[n] = y[valid]
            s_values[n] = np.maximum(d[valid], 0.0)
            slopes[n] = sl[valid]
        open_ = d < -ROOF_TOL
        k, S, sl = k[open_], S[open_], sl[open_]
    return _BranchTable(levels, indices, points, s_values, slopes, ell)


def inverse_branches(f: TrigPolynomial, z: FlowPoint, t: float, theta: float,
                     cap: int = DEFAULT_BRANCH_CAP) -> list:
    """All time-t inverse branches of the flow at z, as Branch records sorted
    lexicographically by word: a view over ``branch_table``.

    theta sets the cone aperture at level 0; level-n branches carry cones of
    half-width theta * ell^(-n).
    """
    if theta < 0:
        raise InvalidArgument(f"theta must be >= 0, got {theta}")
    table = branch_table(f, z, t, cap=cap)
    ell = table.ell
    out = []
    for n in table.levels:
        for k, y, s_prime, slope in zip(table.indices[n].tolist(), table.points[n].tolist(),
                                        table.s_values[n].tolist(), table.slopes[n].tolist()):
            out.append(Branch(word=Word.from_index(k, n, ell), preimage=FlowPoint(y, s_prime),
                              expansion=float(ell) ** n, slope=slope, level=n,
                              cone=Cone(slope, theta * float(ell) ** -n)))
    out.sort(key=lambda b: b.word.letters)
    return out
