"""Independent reference implementations, and the paper constructions that
no subcommand runs.

References.  Everything here deliberately avoids the library's
computational paths: branches are enumerated by flat integer indexing with
forward orbit sums, pair sums are full quadratic scans, the flow is
simulated crossing by crossing, words are letter tuples whose inverse
branches are applied one letter at a time, masks are evaluated by their
pointwise formula, extrema come from dense grids, and the cobounding
potential is the preimage series of its derivative integrated by FFT
(``fft_potential``).  ``band_norms`` keeps every masked dyadic piece of a
function, which the library folds into two weight arrays: the norms agree
to rounding, and ``mask_sum`` adds the masks in the library's order.  A few
references keep a loop that the library replaced, so each pair can be compared bit for bit: ``per_point_grid`` builds one
branch table per grid point and reads its slope profile with per-table
passes, one search pass per target level (``overlap_maxima``) and one
stable argsort (``sweep_max``), where the library serves a block of flow
coordinates with each pass (``point_m`` is its single-point case),
``per_letter_g_matrix`` makes one scalar ``bump_deriv`` call per word,
letter and direction, ``per_bracket_roots`` bisects one bracket at a time,
``branches_payload`` builds a ``Word`` per branch row, ``dense_ulam``
accumulates the Ulam matrix into a dense array with ``np.add.at`` and
``exp_step`` evaluates both exponentials of the smooth step at every
point, ``eval_full`` evaluates both transcendentals
of every harmonic and ``advance_per_point`` evaluates f at every point and
roof crossing.  ``birkhoff`` and ``per_letter_g_matrix`` read
a word letter by letter but place prefix i at (x + k_i)/ell^i, k_i being
the index of the first i letters, which is the library's float expression.

Paper constructions.  The cone filter with the transversal orthogonality of
paired minus bands, the strict ordering of polarizations, the members of a
slope cluster with their prefix classes, the order-separated bump family
with its (nu+1)-predecessor bound, and the constant chain of the bad-set
measure bound are checked by the tests on the library's masks, words and
bump directions; no report depends on them.  The genericity probe reads
only the chain's combination size p, which it derives from ell itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from semiflow.aniso import GridFunction2D
from semiflow.dynamics import FlowPoint, _valid, advance, branch_table, check_crossings
from semiflow.errors import InvalidArgument, PreconditionViolation
from semiflow.genericity import BumpDirection, _profile
from semiflow.smooth import chi
from semiflow.spectral import BoxPartition

ROOF_TOL = 1e-12

# deepest level of unstable_slope: ell^depth preimages enumerated at once
PREIMAGE_CAP = 2 ** 24


def eval_full(f, x, order=0):
    """Derivative of order 0..4 of f at x by the closed form with every
    transcendental evaluated, zero coefficients included."""
    x = np.asarray(x, dtype=float)
    out = np.full_like(x, f.mean_coeff if order == 0 else 0.0)
    shift = order * math.pi / 2.0
    for k, c, s in f.harmonics:
        w = 2.0 * math.pi * k
        arg = w * x + shift
        out = out + (w ** order) * (c * np.cos(arg) + s * np.sin(arg))
    if out.ndim == 0:
        return float(out)
    return out


def dense_max_abs_deriv(f, order=1, points=1_000_000):
    grid = np.arange(points) / points
    return float(np.max(np.abs(f(grid, order))))


def per_bracket_roots(f, order, tol=1e-12):
    """Roots of the order-th derivative of f bracketed on the certification
    grid of ``ceiling``, each bracket bisected by scalar ``eval`` calls until
    narrower than tol or after 60 halvings."""
    from semiflow.ceiling import _GRID, eval

    g = eval(f, _GRID, order)
    idx = np.nonzero(g * np.roll(g, -1) < 0)[0]
    h = 1.0 / len(_GRID)
    roots = []
    for i in idx:
        lo, hi = _GRID[i], _GRID[i] + h
        glo = eval(f, lo, order)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            gm = eval(f, mid, order)
            if glo * gm <= 0:
                hi = mid
            else:
                lo, glo = mid, gm
            if hi - lo < tol:
                break
        roots.append(0.5 * (lo + hi) % 1.0)
    roots.extend(_GRID[g == 0.0])
    return np.asarray(roots, dtype=float)


def unstable_slope(f, x, depth):
    """Truncated preimage series sum_{n<=depth} ell^(-2n) sum f'(y) over the
    ell^n preimages y = (x + k)/ell^n of a single point, every level
    enumerated directly (no level is skipped)."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if f.ell ** depth > PREIMAGE_CAP:
        raise ValueError(f"ell^depth = {f.ell}^{depth} exceeds the preimage cap {PREIMAGE_CAP}")
    total = 0.0
    for n in range(1, depth + 1):
        M = f.ell ** n
        total += f.ell ** (-2.0 * n) * float(np.sum(f((x + np.arange(M, dtype=float)) / M, 1)))
    return total



def series_psi(f, xs, depth):
    """Psi' by the truncated preimage series on an array of points: level n
    adds ell^(-2n) times the sum of f' over the ell^n preimages
    (x + k)/ell^n, enumerated at once.  A level whose every harmonic
    frequency is indivisible by ell^n sums to zero identically (equally
    spaced cosine sums) and is skipped."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    out = np.zeros_like(xs, dtype=float)
    for n in range(1, depth + 1):
        M = f.ell ** n
        if all(k % M != 0 for k, _, _ in f.harmonics):
            continue
        k = np.arange(M, dtype=float)[None, :]
        for i in range(0, xs.size, 256):  # 256 points at a time bound the memory
            pts = (xs[i:i + 256, None] + k) / M
            out[i:i + 256] += f.ell ** (-2.0 * n) * np.sum(f(pts, 1), axis=1)
    return out


def fft_potential(f, grid, depth):
    """Psi on the uniform grid of ``grid`` points: the series samples of
    Psi', antidifferentiated spectrally (discrete Fourier coefficients of
    the mean-removed samples divided by 2 pi i k), anchored at Psi(0) = 0.
    Exact only while the top frequency of Psi stays below grid/2."""
    psi = series_psi(f, np.arange(grid) / grid, depth)
    coeffs = np.fft.fft(psi)
    coeffs[0] = 0.0
    denom = 2j * np.pi * np.fft.fftfreq(grid, d=1.0 / grid)
    denom[0] = 1.0
    Psi = np.real(np.fft.ifft(coeffs / denom))
    return Psi - Psi[0]


def trig_interpolate(samples, xq):
    """Trigonometric interpolation of uniform periodic samples at arbitrary
    points (spectral synthesis; reproduces the samples at the nodes)."""
    G = len(samples)
    coeffs = np.fft.fft(samples) / G
    freqs = np.fft.fftfreq(G, d=1.0 / G)
    xq = np.atleast_1d(np.asarray(xq, dtype=float))
    return np.real(np.exp(2j * np.pi * np.outer(xq, freqs)) @ coeffs)

@dataclass(frozen=True)
class Word:
    """A word over the alphabet {1..ell}, as a tuple of letters."""

    letters: tuple
    ell: int

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(int(a) for a in self.letters))
        if any(not 1 <= a <= self.ell for a in self.letters):
            raise InvalidArgument(f"letters must lie in 1..{self.ell}: {self.letters}")

    def __len__(self):
        return len(self.letters)

    @classmethod
    def from_index(cls, k, n, ell):
        letters = []
        for _ in range(n):
            letters.append(k % ell + 1)
            k //= ell
        return cls(tuple(letters), ell)

    @property
    def index(self):
        """The little-endian index sum_i (a_i - 1) ell^(i-1)."""
        return sum((a - 1) * self.ell ** i for i, a in enumerate(self.letters))

    def __str__(self):
        """The letters run together, each zero-padded to the digits of ell."""
        width = len(str(self.ell))
        return "".join(f"{a:0{width}d}" for a in self.letters)


def branch_point(a, x):
    """The preimage of x under tau^n in the word's cylinder, one inverse
    branch y -> (y + letter - 1)/ell per letter."""
    y = x
    for letter in a.letters:
        y = (y + (letter - 1)) / a.ell
    return y


def word_interval(a):
    """(left endpoint, width) of the word's cylinder interval: the chain
    applied to 0, and ell^(-n)."""
    if len(a) == 0:
        raise InvalidArgument("word_interval requires a nonempty word")
    return branch_point(a, 0.0), a.ell ** -len(a)


def birkhoff(f, a, x, order=0):
    """sum_i ell^(-order*i) f^(order)(prefix_i(x)) along the word a: the
    Birkhoff sum of f (order 0) or its first or second derivative in the
    target point, letter by letter, prefix i at (x + k_i)/ell^i with k_i
    the index of the first i letters."""
    total = 0.0
    k = 0
    for i, letter in enumerate(a.letters, start=1):
        k += (letter - 1) * a.ell ** (i - 1)
        total += a.ell ** (-order * i) * f((x + k) / a.ell ** i, order)
    return total


def crossing_simulation(f, x, s, t):
    """Flow (x, s) for time t by simulating one roof crossing at a time."""
    remaining = float(t)
    x = float(x)
    s = float(s)
    n = 0
    while True:
        gap = f(x) - s
        if remaining < gap - ROOF_TOL:
            return x, s + remaining, n
        remaining -= gap
        x = (f.ell * x) % 1.0
        s = 0.0
        n += 1


def flow_points(f, x, s, t):
    """crossing_simulation for arrays of points: every point flows for time
    t from (x, s), one roof crossing per pass."""
    x = np.array(x, dtype=float)
    s = np.array(s, dtype=float)
    remaining = np.full(x.shape, float(t))
    while True:
        gap = f(x) - s
        cross = remaining >= gap - ROOF_TOL
        if not np.any(cross):
            return x, s + remaining
        remaining = np.where(cross, remaining - gap, remaining)
        x = np.where(cross, (f.ell * x) % 1.0, x)
        s = np.where(cross, 0.0, s)


def advance_per_point(f, x, total, fx=None, *, orbits=None):
    """``dynamics.advance`` with f evaluated at every point and every roof
    crossing, shared base points or not: the same (x', s', n, f(x')).
    ``orbits``, the orbit store ``advance_through`` hands to every step, is
    ignored: x and fx are the points' current coordinates."""
    x = np.asarray(x, dtype=float)
    total = np.asarray(total, dtype=float)
    check_crossings(f, float(np.max(total, initial=0.0)))
    x, rem = np.broadcast_arrays(x, total)
    shape = x.shape
    x = x.flatten()
    rem = rem.flatten()
    if fx is None:
        fx = np.asarray(f(x), dtype=float)
    else:
        fx = np.broadcast_to(np.asarray(fx, dtype=float), shape).flatten()
    n = np.zeros(x.shape, dtype=int)
    live = np.flatnonzero(fx <= rem + ROOF_TOL)
    while live.size:
        rem[live] -= fx[live]
        y = f.ell * x[live]
        x[live] = y - np.floor(y)
        n[live] += 1
        fx[live] = f(x[live])
        live = live[fx[live] <= rem[live] + ROOF_TOL]
    rem = np.maximum(rem, 0.0)
    return x.reshape(shape), rem.reshape(shape), n.reshape(shape), fx.reshape(shape)


def correlation_from_zero(f, psi, phi, t_list, nx, ns, margin):
    """Midpoint-quadrature correlation curve with every node flowed from
    time 0 to each sample time; returns [(t, value)] in the order of t_list."""
    mids = (np.arange(nx) + 0.5) / nx
    fx = np.repeat(f(mids), ns)
    x = np.repeat(mids, ns)
    s = np.tile((np.arange(ns) + 0.5) / ns, nx) * fx
    w = fx / fx.sum()
    psi_vals = psi.values(x, s, fx, margin)
    out = []
    for t in t_list:
        x1, s1 = flow_points(f, x, s, t)
        phi_vals = phi.values(x1, s1, f(x1), margin)
        cor = np.sum(w * psi_vals * phi_vals) - np.sum(w * phi_vals) * np.sum(w * psi_vals)
        out.append((float(t), float(cor)))
    return out


def ulam_samples(part, points_per_box):
    """Every Ulam sample point at once, box-major: the golden-ratio lattice
    tiled over the boxes."""
    dim = part.dim
    k = np.arange(points_per_box)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    u = np.tile((k + 0.5) / points_per_box, (dim, 1))
    v = np.tile(((k + 0.5) * golden) % 1.0, (dim, 1))
    cols = np.repeat(np.arange(part.nx), part.ns)
    slices = np.tile(np.arange(part.ns), part.nx)
    heights = part.column_heights[cols]
    x0 = (cols[:, None] + u) / part.nx
    s0 = (slices[:, None] + v) * (heights[:, None] / part.ns)
    return x0.ravel(), s0.ravel()


def dense_ulam(f, t, nx, ns, points_per_box):
    """The Ulam matrix of ``spectral.build_ulam`` assembled densely in one
    pass: every sample point (``ulam_samples``) flowed at once by the
    library's advance, then ``np.add.at`` adds 1/points_per_box into a
    dim x dim array once per sample point."""
    part = BoxPartition.build(f, nx, ns)
    dim = part.dim
    if t == 0.0:
        return np.eye(dim)
    x0, s0 = ulam_samples(part, points_per_box)
    x1, s1, _, _ = advance(f, x0, s0 + t)
    land_col = np.minimum((x1 * nx).astype(int), nx - 1)
    land_slice = np.minimum((s1 * ns / part.column_heights[land_col]).astype(int), ns - 1)
    matrix = np.zeros((dim, dim))
    np.add.at(matrix, (land_col * ns + land_slice, np.repeat(np.arange(dim), points_per_box)),
              1.0 / points_per_box)
    return matrix


def exp_step(u):
    """The smooth step by its formula at every point: a / (a + b) with
    a = exp(-1/u) and b = exp(-1/(1-u)), each 0 where its argument is not
    positive."""
    u = np.asarray(u, dtype=float)

    def g(v):
        out = np.zeros_like(v)
        pos = v > 0
        with np.errstate(over="ignore"):  # exp(-inf) = 0 is the limit at subnormal v
            out[pos] = np.exp(-1.0 / v[pos])
        return out
    a = g(u)
    return a / (a + g(1.0 - u))


def enumerate_branches(f, x, s, t, n_max=40):
    """Every inverse branch by flat enumeration: for each level n and word
    index k, the preimage is (x+k)/ell^n, the roof sum S adds f at its
    prefix points (x + k mod ell^i)/ell^i from i = 1 up, as a scan does, and
    a word is a branch when its flow defect d = s + S - t is at least
    -ROOF_TOL and its parent's is below: the first word of each chain to
    reach the roof, so the branches partition the chains whatever the
    rounding.

    Level n visits only the children k + j*ell^(n-1) of the words of level
    n - 1 that were still open (d < -ROOF_TOL).

    Returns a list of (n, k, y, s_prime, slope) tuples.
    """
    ell = f.ell
    out = []
    open_ = [0]
    for n in range(n_max + 1):
        size = ell ** n
        if n == 0:
            candidates = [0]
        else:
            candidates = [k + j * ell ** (n - 1) for j in range(ell) for k in open_]
        open_ = []
        for k in candidates:
            y = (x + k) / size
            # the forward orbit of y, deepest level first
            orbit = [(x + k % ell ** i) / ell ** i for i in range(n, 0, -1)]
            S = 0.0
            for p in reversed(orbit):
                S = S + float(f(p))
            d = s + S - t
            if d < -ROOF_TOL:
                open_.append(k)
                continue
            slope = sum(ell ** (-(n - j)) * f(orbit[j], 1) for j in range(n))
            out.append((n, k, y, max(d, 0.0), slope))
        if not open_:
            break
    return out


def pair_scan_m(branches, theta, ell, widen=0.0):
    """Quadratic-scan non-transversal weight maximum: every reference slope
    s against every slope within fl(s - thr) and fl(s + thr), the pair
    threshold thr = theta*(ell^-n1 + ell^-n2) + widen in the library's float
    operations, weights summed in exact units of ell^-n_max."""
    if not branches:
        return 0.0
    levels = np.array([b[0] for b in branches])
    slopes = np.array([b[4] for b in branches])
    width = {n: float(ell) ** -n for n in set(levels.tolist())}
    w = np.array([width[n] for n in levels.tolist()])
    thr = theta * (w[:, None] + w[None, :]) + widen
    overlap = ((slopes[None, :] <= slopes[:, None] + thr)
               & (slopes[None, :] >= slopes[:, None] - thr))
    n_max = max(width)
    sums = sum(np.count_nonzero(overlap[:, levels == n], axis=1) * ell ** (n_max - n)
               for n in width)
    return int(np.max(sums)) / ell ** n_max


def branches_payload(f, z, t):
    """The ``branches`` report payload built row by row: a validated
    ``Word`` per branch of ``branch_table``, rows sorted by the word's
    letters, and the weight sum added exactly, as fractions."""
    table = branch_table(f, z, t)
    keyed = []
    for n, k, y, s_prime, slope in zip(table.n.tolist(), table.k.tolist(), table.y.tolist(),
                                       table.s.tolist(), table.slopes.tolist()):
        word = Word.from_index(k, n, table.ell)
        keyed.append((word.letters, {"word": str(word), "n": n, "y": y, "s_prime": s_prime,
                                     "slope": slope}))
    keyed.sort(key=lambda item: item[0])
    rows = [row for _, row in keyed]
    return {"rows": rows,
            "weight_sum": float(sum(Fraction(1, table.ell ** row["n"]) for row in rows))}


def line_scan_n(branches, theta, ell):
    """Max over candidate directions of the contained branch weight, with
    candidates at every cone center and boundary."""
    if not branches:
        return 0.0
    levels = np.array([b[0] for b in branches], dtype=float)
    slopes = np.array([b[4] for b in branches])
    widths = 2.0 * theta * float(ell) ** -levels
    weights = float(ell) ** -levels
    candidates = np.concatenate([slopes, slopes - widths, slopes + widths])
    best = 0.0
    for sigma in candidates:
        mass = float(np.sum(weights[np.abs(slopes - sigma) <= widths]))
        best = max(best, mass)
    return best


def periodic_beta_max(f, max_period):
    """Maximal periodic orbit average of f, integer orbit arithmetic."""
    ell = f.ell
    best = -np.inf
    for p in range(1, max_period + 1):
        denom = ell ** p - 1
        for k in range(denom):
            total = 0.0
            cur = k
            for _ in range(p):
                total += f(cur / denom)
                cur = (cur * ell) % denom
            best = max(best, total / p)
    return best


def window_cluster_scan(slopes, window):
    """Largest count of slope values within a closed window, brute force."""
    svals = np.sort(np.asarray(slopes, dtype=float))
    best = 0
    for v in svals:
        best = max(best, int(np.count_nonzero((svals >= v) & (svals <= v + window))))
    return best


def slope_profile(scan, s, t):
    """(levels, branch count per level, slopes) of the table at (s, t) of a
    column scan: the slopes of each level in ascending order, levels
    concatenated, masked by ``_valid`` on slope-ordered copies of the scan's
    arrays, element for element the mask ``scan.table`` builds."""
    order = np.lexsort((scan.slopes, scan.n))
    valid = _valid(s, t, scan.S[order], scan.S_parent[order])[0]
    counts = np.add.reduceat(valid, scan.starts[:-1], dtype=np.int64).tolist()
    levels = [n for n, c in zip(scan.levels, counts) if c]
    return levels, [c for c in counts if c], scan.slopes[order][valid]


def weight_units(ell, levels):
    """Exact branch weights of a slope profile: a level-n branch weighs
    ell^(n_max - n) units of ell^-n_max.  Returns the unit weight of each
    level and the denominator ell^n_max."""
    n_max = max(levels)
    return [ell ** (n_max - n) for n in levels], ell ** n_max


def overlap_maxima(ell, levels, counts, slopes, theta, widen=0.0):
    """m of one slope profile: max over reference branches of the
    1/E-weighted count of branches whose cone overlaps the reference cone
    (self-term included).  One search pass per target level n2 counts, for
    every reference at once, the level-n2 slopes within fl(s - thr) and
    fl(s + thr), thr = theta*(ell^-n1 + ell^-n2) + widen; the counts are
    summed in exact integer weight units and divided once."""
    if not levels:
        return 0.0
    units, denom = weight_units(ell, levels)
    widths = [float(ell) ** -n for n in levels]
    sums = np.zeros(len(slopes), dtype=np.int64)
    start = 0
    for w2, count, unit in zip(widths, counts, units):
        a = slopes[start:start + count]
        start += count
        thr = np.array([theta * (w1 + w2) + widen for w1 in widths]).repeat(counts)
        hits = (np.searchsorted(a, slopes + thr, side="right")
                - np.searchsorted(a, slopes - thr, side="left"))
        sums += hits * unit
    return int(sums.max()) / denom


def sweep_max(ell, levels, counts, slopes, aperture):
    """n of one slope profile: the exact maximum over all direction slopes
    of the stabbed branch weight.  A level-n cone has half-width
    aperture*ell^-n; weights enter at interval left ends and leave at right
    ends, and a stable argsort puts every start ahead of an end at the same
    coordinate, so closed intervals touch."""
    if not levels:
        return 0.0
    units, denom = weight_units(ell, levels)
    half = np.array([aperture * float(ell) ** -n for n in levels]).repeat(counts)
    wt = np.array(units, dtype=np.int64).repeat(counts)
    order = np.concatenate([slopes - half, slopes + half]).argsort(kind="stable")
    running = np.concatenate([wt, -wt])[order].cumsum()
    return int(running.max()) / denom


def per_point_grid(f, t, nx, ns, cls, certified):
    """Transversality grid maxima with one ``branch_table`` per grid point,
    visited column by column: (m_value, m_upper, n_value, argmax x,
    argmax s), the first strict maximum winning ties."""
    widen = 2.0 * cls.theta_K * (1.0 / nx)
    m_value = m_upper = n_value = 0.0
    argmax = (0.0, 0.0)
    for x in (np.arange(nx) / nx).tolist():
        height = f(x)
        for j in range(ns):
            z = FlowPoint(x, j * height / ns)
            table = branch_table(f, z, t)
            profile = slope_profile(table.scan, z.s, t)
            v = overlap_maxima(table.ell, *profile, cls.theta_f)
            if v > m_value:
                m_value, argmax = v, (z.x, z.s)
            m_upper = max(m_upper, overlap_maxima(table.ell, *profile, cls.theta_f, widen))
            n_value = max(n_value, sweep_max(table.ell, *profile, 2.0 * cls.theta_f))
    m_upper = min(m_upper, 1.0) if certified else 1.0
    return m_value, m_upper, n_value, argmax[0], argmax[1]


def point_m(f, z, t, theta):
    """The library's overlap maximum m at one target point, from one branch
    table: the single-point case of ``per_point_grid``."""
    table = branch_table(f, z, t)
    return overlap_maxima(table.ell, *slope_profile(table.scan, z.s, t), theta)


def bump_deriv(direction, x):
    """The derivative of one bump direction at x, from its own centre,
    radius and plateau alone: the single-direction case of the family's
    stacked evaluation."""
    u = ((np.asarray(x, dtype=float) - direction.center + 0.5) % 1.0 - 0.5) / direction.radius
    return direction.deriv_plateau * _profile(u)


def per_letter_g_matrix(x, sigma, family):
    """Slope-difference matrix of ``genericity.g_matrix``, one scalar
    ``bump_deriv`` call per (word, letter, direction)."""
    words = list(sigma)
    ell = words[0].ell

    def weighted_prefix_derivs(word):
        out = np.zeros(family.m)
        k = 0
        for i, letter in enumerate(word.letters, start=1):
            k += (letter - 1) * ell ** (i - 1)
            y = (x + k) / ell ** i
            for j, d in enumerate(family.directions):
                out[j] += ell ** float(-i) * float(bump_deriv(d, y))
        return out

    base_row = weighted_prefix_derivs(words[0])
    return np.asarray([weighted_prefix_derivs(w) - base_row for w in words[1:]])


def angular_profile(theta, sigma, beta):
    """The angular profile of sigma at direction angle(s) beta: phi_plus on
    the plus side and its complement 1 - phi_plus on the minus side."""
    phi = theta.phi_plus(beta)
    return phi if sigma == "+" else 1.0 - phi


def mask_value(theta, n, sigma, xi1, xi2):
    """psi_{Theta,n,sigma} at the frequencies (xi1, xi2) by its formula:
    chi(|xi|)/2 at n = 0, and above it the angular profile of sigma times
    the annulus bump chi(2^-n |xi|) - chi(2^(1-n) |xi|)."""
    xi1, xi2 = np.asarray(xi1, dtype=float), np.asarray(xi2, dtype=float)
    r = np.hypot(xi1, xi2)
    if n == 0:
        return chi(r) / 2.0
    angular = angular_profile(theta, sigma, np.arctan2(xi2, xi1) % math.pi)
    return angular * (chi(r * 2.0 ** -n) - chi(r * 2.0 ** (1 - n)))


def band_masks(theta, grid):
    """((n, sigma), psi_{Theta,n,sigma}) on the grid's frequency lattice by
    ``mask_value``, n ascending and '+' before '-', up to the first level n
    whose outer bump chi(2^-n |xi|) is 1 at every grid frequency: every
    later mask vanishes there."""
    xi1, xi2 = grid.freqs()
    r = np.hypot(xi1, xi2)
    n = 0
    while True:
        for sigma in ("+", "-"):
            yield (n, sigma), mask_value(theta, n, sigma, xi1, xi2)
        if np.all(chi(r * 2.0 ** -n) == 1.0):
            return
        n += 1


def mask_sum(theta, grid):
    """The sum of every mask of theta on the grid's frequency lattice,
    accumulated from 0 in mask order."""
    return sum(m for _, m in band_masks(theta, grid))


def band_norms(u, theta):
    """Squared L2 norms of every masked dyadic piece of u, keyed (n, sigma):
    the decomposition the anisotropic norms weight."""
    F = u.fft()
    scale = (u.spacing ** 2) / (u.N ** 2)  # discrete Parseval factor
    return {key: float(np.sum(np.abs(m * F) ** 2)) * scale
            for key, m in band_masks(theta, u)}


def weighted_norm(bands, weights):
    """sqrt of the sum over the ``band_norms`` of 2^(2pn) times the plus
    bands and 2^(2qn) times the minus bands, for weights (p, q)."""
    p, q = weights
    return math.sqrt(sum(2.0 ** (2.0 * (p if sigma == "+" else q) * n) * sq
                         for (n, sigma), sq in bands.items()))


# ---------------------------------------------------------------------------
# paper constructions


def cone_filter(u, cone):
    """Sharp frequency-side restriction of u to a cone (zero frequency
    removed, since the origin belongs to every cone)."""
    xi1, xi2 = u.freqs()
    keep = cone.contains_angle(np.arctan2(xi2, xi1) % math.pi)
    keep[0, 0] = False
    vals = np.fft.ifft2(u.fft() * keep)
    if np.isrealobj(u.values):
        vals = vals.real
    return GridFunction2D(values=vals, spacing=u.spacing, rect=u.rect)


def paired_band_inner(u, v, theta):
    """max over n of |(psi_{n,-}(D)u, psi_{n,-}(D)v)_{L2}|, frequency-side,
    with the masks of the polarization theta."""
    Fu, Fv = u.fft(), v.fft()
    scale = (u.spacing ** 2) / (u.N ** 2)
    return max(float(abs(np.sum(m * Fu * np.conj(m * Fv)) * scale))
               for (_, sigma), m in band_masks(theta, u) if sigma == "-")


def transversal_orthogonality(u, v, theta, cone_u, cone_v):
    """Paired minus-band inner products of u and v, sharply filtered into
    the cones cone_u and cone_v (see ``cone_filter``).  When the cones are
    disjoint the Fourier supports are disjoint, so every paired term
    vanishes to rounding."""
    if cone_u.intersects(cone_v):
        raise PreconditionViolation("cone_u and cone_v must meet only at the origin")
    return paired_band_inner(u, v, theta)


def strictly_precedes(theta, theta_prime, margin=1e-12):
    """Ordering of polarizations: the closure of the complement of the finer
    plus cone lies compactly inside the coarser minus cone."""
    a, b = theta_prime.cone_plus.arc
    start, width = b % math.pi, math.pi - (b - a)
    oa, ob = theta.cone_minus.arc
    if width >= ob - oa:
        return False
    rel = (start - oa) % math.pi
    return margin < rel and rel + width < (ob - oa) - margin


def cluster_words(f, n, c, window):
    """The words of a maximal slope cluster of ``genericity.slope_clusters``:
    every length-n word's slope at the cylinder endpoint of c as its
    Birkhoff sum, then the first longest run of sorted slopes within
    ``window`` of the run's smallest.  Words in little-endian index order."""
    words = [Word.from_index(k, n, f.ell) for k in range(f.ell ** n)]
    x_c, _ = word_interval(c)
    slopes = [birkhoff(f, w, x_c, 1) for w in words]
    order = sorted(range(len(words)), key=slopes.__getitem__)
    best = []
    for i, k in enumerate(order):
        run = [j for j in order[i:] if slopes[j] <= slopes[k] + window]
        if len(run) > len(best):
            best = run
    return tuple(words[j] for j in sorted(best))


def prefix_refinement(f, n, c, window, p):
    """Split the maximal cluster (see ``cluster_words``) into the classes of
    words sharing a common length-p prefix, largest first.  Several large
    classes with pairwise distinct prefixes witness the stronger clustering
    degeneracy that the perturbation argument excludes."""
    if not 0 <= p <= n:
        raise InvalidArgument(f"prefix length must lie in 0..{n}, got {p}")
    classes = {}
    for w in cluster_words(f, n, c, window):
        classes.setdefault(w.letters[:p], []).append(w)
    return sorted(classes.values(), key=lambda ws: (-len(ws), ws[0].letters))


@dataclass(frozen=True)
class BumpFamilyData:
    """Order-separated bump directions at the level-nu preimages of y."""

    y: float
    nu: int
    eps_max: float
    directions: tuple            # one BumpDirection per word of length nu
    words: tuple                 # matching Word records
    predecessors: dict           # word letters -> tuple of word letters below it
    neighborhood: tuple          # (y, eps0/3): where the separation holds

    def maximal_in(self, subset) -> list:
        """Maximal elements of a subset of words under the orbit order."""
        letters = [w.letters for w in subset]
        return [w for w in subset
                if not any(w.letters in self.predecessors[other] and other != w.letters
                           for other in letters)]


def default_mu(ell, nu, p):
    """Smallest separation horizon making the off-plateau slope tail at most
    1/(4p): 2 ell^(nu - mu) / (1 - 1/ell) <= 1/(4p)."""
    bound = 8.0 * p * ell ** nu * ell / (ell - 1.0)
    return max(nu + 1, math.ceil(math.log(bound, ell)))


def bump_family(y, nu, eps0, mu, amplitude=1.0, ell=2):
    """Bumps phi_a at every level-nu preimage of y, derivative plateau
    amplitude * ell^nu on the inner third of each support.

    The supports are the branch images of the eps0-neighborhood of y, so
    they have radius eps0 * ell^(-nu); eps0 must keep them pairwise
    disjoint, and any forward image tau^i (i <= mu) of one support may meet
    another only along the orbit partial order.  Violations raise with the
    maximal admissible eps0.  amplitude = 2 realizes the doubling that
    upgrades the Jacobian lower bound from 1/2 to 1.
    """
    if nu < 1:
        raise InvalidArgument(f"nu must be >= 1, got {nu}")
    if mu <= nu:
        raise InvalidArgument(f"mu must exceed nu, got mu={mu}, nu={nu}")
    if not 0 < eps0 < 0.5:
        raise InvalidArgument(f"eps0 must lie in (0, 1/2), got {eps0}")
    count = ell ** nu
    points = (y + np.arange(count)) / count
    words = tuple(Word.from_index(k, nu, ell) for k in range(count))

    # orbit partial order: b below a iff some forward image of a's point
    # hits b's point
    tol = 1e-11
    predecessors = {}
    for a_idx, a in enumerate(words):
        below = set()
        z = points[a_idx]
        for _ in range(2 * nu + 4):
            d = np.abs((z - points + 0.5) % 1.0 - 0.5)
            below.update(words[int(h)].letters for h in np.nonzero(d <= tol)[0])
            z = (ell * z) % 1.0
        predecessors[a.letters] = tuple(sorted(below))

    # admissible eps0: support disjointness plus the order condition
    gaps = np.abs((points[:, None] - points[None, :] + 0.5) % 1.0 - 0.5)
    eps_max = float(np.min(gaps[np.triu_indices(count, k=1)])) * count / 2.0
    allowed = np.array([[wa.letters in predecessors[wb.letters] for wa in words]
                        for wb in words])                # [b, a]: a below b
    for i in range(1, mu + 1):
        scale = float(ell) ** i
        images = (points * scale) % 1.0
        d = np.abs((images[:, None] - points[None, :] + 0.5) % 1.0 - 0.5)
        relevant = d[~allowed & (d > tol)]
        if relevant.size:
            eps_max = min(eps_max, float(relevant.min()) * count / (scale + 1.0))
    if eps0 >= eps_max:
        raise InvalidArgument(
            f"eps0 = {eps0} too large for separation; maximal admissible eps0 is {eps_max:.6g}")

    directions = tuple(BumpDirection(center=float(c), radius=eps0 / count,
                                     deriv_plateau=amplitude * count) for c in points)
    return BumpFamilyData(y=y, nu=nu, eps_max=eps_max, directions=directions, words=words,
                          predecessors=predecessors, neighborhood=(y, eps0 / 3.0))


@dataclass(frozen=True)
class GenericityParams:
    """The constant chain governing the bad-set measure bound.

    Validity (checked by ``validate``): 1 < beta < alpha < gamma < ell,
    beta^(-p) ell^2 < 1, (nu+1)(p+1) alpha^(-nu) < 1, and delta is the
    derived exponent (log gamma - log alpha)/(log ell - log alpha).
    """

    rho: float
    gamma: float
    alpha: float
    beta: float
    p: int
    nu: int
    delta: float
    N: int

    def validate(self, ell: int) -> list:
        problems = []
        if not 1.0 < self.beta < self.alpha < self.gamma:
            problems.append("need 1 < beta < alpha < gamma")
        if not self.gamma < ell:
            problems.append(f"gamma must be < ell = {ell}")
        if not self.beta ** -self.p * ell ** 2 < 1.0:
            problems.append("need beta^(-p) ell^2 < 1")
        if not (self.nu + 1) * (self.p + 1) * self.alpha ** -self.nu < 1.0:
            problems.append("need (nu+1)(p+1) alpha^(-nu) < 1")
        delta = (math.log(self.gamma) - math.log(self.alpha)) / (math.log(ell) - math.log(self.alpha))
        if abs(delta - self.delta) > 1e-9 or not 0.0 < delta < 1.0:
            problems.append("delta must equal (log gamma - log alpha)/(log ell - log alpha) in (0,1)")
        if self.N <= self.nu:
            problems.append("need N > nu")
        else:
            if not ell ** self.nu * self.alpha ** self.N < self.gamma ** self.N:
                problems.append("need ell^nu alpha^n < gamma^n for n >= N")
            factor = 1.0 - (self.nu + 1) * (self.p + 1) * self.alpha ** -self.nu
            nprime = self.delta * self.N
            if not ell ** -self.nu * (self.gamma / self.beta) ** nprime * factor >= 1.0:
                problems.append("need ell^-nu (gamma/beta)^(delta N) (1 - (nu+1)(p+1) alpha^-nu) >= 1")
        return problems


def default_params(ell, rho=2.0, gamma=None, alpha=None, beta=None):
    """A valid constant chain for the given ell, at desk scale."""
    if gamma is None:
        gamma = 1.0 + 0.9 * (ell - 1.0)
    if alpha is None:
        alpha = 1.0 + 0.8 * (ell - 1.0)
    if beta is None:
        beta = 1.0 + 0.4 * (ell - 1.0)
    p = 1
    while beta ** -p * ell ** 2 >= 1.0:
        p += 1
    nu = 1
    while (nu + 1) * (p + 1) * alpha ** -nu >= 1.0:
        nu += 1
    delta = (math.log(gamma) - math.log(alpha)) / (math.log(ell) - math.log(alpha))
    N = nu + 1
    factor = 1.0 - (nu + 1) * (p + 1) * alpha ** -nu
    while (ell ** nu * alpha ** N >= gamma ** N
           or ell ** -nu * (gamma / beta) ** (delta * N) * factor < 1.0):
        N += 1
    params = GenericityParams(rho=rho, gamma=gamma, alpha=alpha, beta=beta,
                              p=p, nu=nu, delta=delta, N=N)
    problems = params.validate(ell)
    if problems:
        raise InvalidArgument("default parameter chain failed validation: " + "; ".join(problems))
    return params
