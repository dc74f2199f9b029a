"""Independent reference implementations used to pin expected values.

Everything here deliberately avoids the library's computational paths:
branches are enumerated by flat integer indexing with forward orbit sums,
pair sums are full quadratic scans, the flow is simulated crossing by
crossing, and extrema come from dense grids.  ``per_point_grid`` is the one
exception: it keeps the per-point loop that the shared column scan replaced
(one branch table per grid point, read by the library's per-table passes),
so the grid pass's sharing and reduction can be pinned exactly.
``per_letter_g_matrix`` likewise keeps the scalar loop that the array
evaluation of ``g_matrix`` replaced, one derivative call per word, letter
and direction, and ``per_bracket_roots`` the scalar bisection loop that the
array bisection of ``ceiling._refine_roots`` replaced, so each pair can be
compared bit for bit.
"""

from __future__ import annotations

import numpy as np

ROOF_TOL = 1e-12

# deepest level of unstable_slope: ell^depth preimages enumerated at once
PREIMAGE_CAP = 2 ** 24


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


def enumerate_branches(f, x, s, t, n_max=40):
    """Every inverse branch by flat enumeration: for each level n and word
    index k, the preimage is (x+k)/ell^n, the roof sum is accumulated along
    the forward orbit, and validity is 0 <= s + S - t < f(y).

    Returns a list of (n, k, y, s_prime, slope) tuples.
    """
    ell = f.ell
    out = []
    for n in range(n_max + 1):
        size = ell ** n
        found_low = False
        for k in range(size):
            y = (x + k) / size
            orbit = [y]
            for _ in range(n - 1):
                orbit.append((ell * orbit[-1]) % 1.0)
            S = sum(f(p) for p in orbit) if n else 0.0
            d = s + S - t
            if d < -ROOF_TOL:
                found_low = True
                continue
            if d < f(y) - ROOF_TOL:
                # a valid node must extend a still-open prefix
                if n > 0:
                    parent_y = (ell * y) % 1.0
                    S_parent = S - f(y)
                    if s + S_parent - t >= -ROOF_TOL:
                        continue
                slope = sum(ell ** (-(n - j)) * f(orbit[j], 1) for j in range(n))
                out.append((n, k, y, max(d, 0.0), slope))
        if n > 0 and not found_low:
            break
    return out


def pair_scan_m(branches, theta, ell):
    """Quadratic-scan non-transversal weight maximum."""
    if not branches:
        return 0.0
    levels = np.array([b[0] for b in branches])
    slopes = np.array([b[4] for b in branches])
    widths = theta * float(ell) ** -levels.astype(float)
    weights = float(ell) ** -levels.astype(float)
    diff = np.abs(slopes[:, None] - slopes[None, :])
    overlap = diff <= widths[:, None] + widths[None, :]
    sums = overlap @ weights
    return float(np.max(sums))


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


def per_point_grid(f, t, nx, ns, cls, certified):
    """Transversality grid maxima with one ``branch_table`` per grid point,
    visited column by column: (m_value, m_upper, n_value, argmax x,
    argmax s), the first strict maximum winning ties."""
    from semiflow import FlowPoint, branch_table
    from semiflow.transversality import _overlap_maxima, _sweep_max

    widen = 2.0 * cls.theta_K * (1.0 / nx)
    m_value = m_upper = n_value = 0.0
    argmax = (0.0, 0.0)
    for x in (np.arange(nx) / nx).tolist():
        height = f(x)
        for j in range(ns):
            z = FlowPoint(x, j * height / ns)
            table = branch_table(f, z, t)
            profile = table.scan.slope_profile(z.s, t)
            v = _overlap_maxima(table.ell, *profile, cls.theta_f)
            if v > m_value:
                m_value, argmax = v, (z.x, z.s)
            m_upper = max(m_upper, _overlap_maxima(table.ell, *profile, cls.theta_f, widen))
            n_value = max(n_value, _sweep_max(table.ell, *profile, 2.0 * cls.theta_f))
    m_upper = min(m_upper, 1.0) if certified else m_value
    return m_value, m_upper, n_value, argmax[0], argmax[1]


def per_letter_g_matrix(x, sigma, family):
    """Slope-difference matrix of ``genericity.g_matrix``, one scalar
    ``deriv`` call per (word, letter, direction)."""
    words = list(sigma)
    ell = words[0].ell

    def weighted_prefix_derivs(word):
        out = np.zeros(family.m)
        y = x
        for k, letter in enumerate(word.letters, start=1):
            y = (y + (letter - 1)) / ell
            for j, d in enumerate(family.directions):
                out[j] += ell ** float(-k) * float(d.deriv(y))
        return out

    base_row = weighted_prefix_derivs(words[0])
    return np.asarray([weighted_prefix_derivs(w) - base_row for w in words[1:]])
