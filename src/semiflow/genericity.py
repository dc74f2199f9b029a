"""Perturbation machinery: slope clusters, direction families, Jacobians,
and the bad-set measure probe.

Slope clusters diagnose the degeneracy that obstructs transversality: the
largest set of equal-length words whose branch slopes at a cylinder
endpoint fall inside a window shrinking like ell^(-n).  For constant
ceilings the cluster is everything; ceilings with transversal branch
geometry show cluster growth rates strictly below ell.

Perturbation families f_t = f + sum t_i phi_i move branch slopes linearly
in t; ``g_matrix`` is the (base-independent) linear part of the
slope-difference map, and ``bad_set_probe`` estimates the measure of the
parameters whose slope differences stay degenerate.  A family stacks the
centres, radii and plateaus of its bump directions once, so ``g_matrix``
evaluates every direction's derivative at every prefix point in one call
of the profile, and the positivity check every bump on its grid at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# the module never calls classify: every caller passes the class.  The
# traced benchmark (bench/spans.py) wraps genericity.classify by name.
from .ceiling import CeilingClass, TrigPolynomial, classify  # noqa: F401
from .dynamics import prefix_points
from .errors import DomainViolation, InvalidArgument
from .smooth import flat_bump, plateau

# Normalized bump-derivative profile on [-1, 1]: a plateau of height 1 on
# |u| <= 1/3 and a compensating negative collar on 2/3 <= |u| <= 1 chosen so
# the profile integrates to zero exactly; the collar amplitude is
# (1/3 + 1/6) / ((1/3) * 0.85) = 30/17 < 2, so |profile| < 2 everywhere.
_COLLAR_AMPLITUDE = 30.0 / 17.0
_PROFILE_TABLE_SIZE = (1 << 14) + 1


def _profile(u):
    u = np.asarray(u, dtype=float)
    return plateau(u, 1.0 / 3.0, 2.0 / 3.0) - _COLLAR_AMPLITUDE * flat_bump(np.abs(u), 2.0 / 3.0, 1.0)


def _profile_antiderivative_table():
    grid = np.linspace(-1.0, 1.0, _PROFILE_TABLE_SIZE)
    vals = _profile(grid)
    du = grid[1] - grid[0]
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * du)])
    # the analytic integral is exactly zero; spread the quadrature defect so
    # the cached antiderivative vanishes at both support ends
    cum -= (grid + 1.0) / 2.0 * cum[-1]
    return grid, cum


_PROFILE_GRID, _PROFILE_CUM = _profile_antiderivative_table()


@dataclass(frozen=True)
class BumpDirection:
    """Smooth circle bump phi around ``center``, supported within ``radius``.

    Its derivative is ``deriv_plateau`` times the profile of the offset from
    the centre over the radius: exactly ``deriv_plateau`` on the inner third
    of the support and below twice that value in absolute value; the bump
    itself is the cached antiderivative of the profile.  A
    ``PerturbationFamily`` evaluates its directions together.
    """

    center: float
    radius: float
    deriv_plateau: float


@dataclass(frozen=True)
class PerturbationFamily:
    """f_t = base + sum_i t_i * directions_i for t in [-epsilon, epsilon]^m.

    The directions' centres, radii and plateaus are stacked once, as
    (m, 1) columns, so every direction is evaluated in one array operation
    and each element goes through the float operations of a single bump.
    Positivity of f_t over the whole parameter box is checked on a dense
    grid at construction.
    """

    base: TrigPolynomial
    directions: tuple
    epsilon: float
    # center, radius and deriv_plateau of every direction, each of shape (m, 1)
    _bumps: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.epsilon < 0:
            raise InvalidArgument("epsilon must be >= 0")
        stacked = np.array([(d.center, d.radius, d.deriv_plateau) for d in self.directions],
                           dtype=float).reshape(-1, 3)
        object.__setattr__(self, "_bumps", tuple(stacked.T[:, :, None]))
        if self.directions and self.epsilon > 0:
            grid = np.arange(8192) / 8192
            _, radius, plateau_height = self._bumps
            u = np.clip(self._offsets(grid), -1.0, 1.0)
            values = plateau_height * radius * np.interp(u, _PROFILE_GRID, _PROFILE_CUM)
            worst = np.asarray(self.base(grid), dtype=float)
            # in direction order, so the margin rounds as a direction-by-direction sum
            for value in values:
                worst = worst - self.epsilon * np.abs(value)
            if float(worst.min()) <= 0.0:
                raise DomainViolation(
                    "family leaves the positive ceilings inside the parameter box "
                    f"(worst margin {float(worst.min()):.3g})")

    @property
    def m(self) -> int:
        return len(self.directions)

    def _offsets(self, x: np.ndarray) -> np.ndarray:
        """Signed circle offset of x from each centre, in [-1/2, 1/2), over
        that direction's radius: shape (m, x.size), x flattened."""
        center, radius, _ = self._bumps
        return ((x.reshape(1, -1) - center + 0.5) % 1.0 - 0.5) / radius

    def _derivs(self, x: np.ndarray) -> np.ndarray:
        """phi_j'(x) for every direction j: shape (m, *x.shape)."""
        plateau_height = self._bumps[2]
        return (plateau_height * _profile(self._offsets(x))).reshape(-1, *x.shape)


@dataclass(frozen=True)
class SlopeClusterReport:
    """The window width and the size of the maximal cluster."""

    window: float
    max_cluster: int


def _all_slopes(f: TrigPolynomial, x: float, n: int) -> np.ndarray:
    """Branch slopes at x for every word of length n, indexed little-endian."""
    ell = f.ell
    slopes = np.zeros(1)
    for i in range(1, n + 1):
        size = ell ** i
        pts = (x + np.arange(size)) / size
        slopes = np.tile(slopes, ell) + ell ** float(-i) * f(pts, 1)
    return slopes


def slope_clusters(f: TrigPolynomial, n: int, letters, cls: CeilingClass,
                   window_factor: float) -> SlopeClusterReport:
    """Size of the largest set of length-n words whose slopes at the
    cylinder endpoint of the base word ``letters`` (over 1..ell) fall in a
    sliding window of width window_factor * theta_K * ell^(-n) (anchored at
    the sorted slope values, which is exact for the max-pairwise-difference
    criterion); theta_K is read from ``cls``, the class of f.  The endpoint
    of a word of m letters with index k is k/ell^m.  Config parsing checks
    the letters, ell^m <= 2^63 - 1 and ell^n <= cli.MAX_CLUSTER_WORDS."""
    ell = f.ell
    k = sum((a - 1) * ell ** i for i, a in enumerate(letters))
    x_c = k / ell ** len(letters)
    sorted_slopes = np.sort(_all_slopes(f, x_c, n))
    window = window_factor * cls.theta_K * ell ** float(-n)
    hi = np.searchsorted(sorted_slopes, sorted_slopes + window, side="right")
    counts = hi - np.arange(len(sorted_slopes))
    return SlopeClusterReport(window=window, max_cluster=int(counts.max()))


def g_matrix(x: float, sigma, n: int, family: PerturbationFamily) -> np.ndarray:
    """Linear part of the slope-difference map of the family at x.

    sigma holds the indices of words of length n; rows follow sigma[1:],
    the reference word is sigma[0]; entry (r, j) is
    sum_i ell^(-i) (phi_j'(prefix_i of sigma[r+1]) - phi_j'(prefix_i of sigma[0])).
    Independent of the base ceiling by construction.  Every direction's
    derivative comes from one evaluation on the (m, words, n) stack of
    offsets from the prefix points.
    """
    ell = family.base.ell
    derivs = family._derivs(prefix_points(x, sigma, n, ell))
    sums = _weighted_sum(derivs.transpose(1, 0, 2), ell)
    return sums[1:] - sums[0]


def _weighted_sum(values: np.ndarray, ell: int) -> np.ndarray:
    """sum_k ell^(-k) values[..., k-1] over the last axis, added in the
    order k = 1..n as the scalar Birkhoff sums add."""
    total = np.zeros(values.shape[:-1])
    for k in range(values.shape[-1]):
        total += ell ** float(-(k + 1)) * values[..., k]
    return total


def jacobian(L: np.ndarray) -> float:
    """sqrt(det(L L^T)) for a full-rank p x m matrix with p <= m, else 0."""
    L = np.asarray(L, dtype=float)
    if L.ndim != 2:
        raise InvalidArgument("jacobian expects a matrix")
    p, m = L.shape
    if p > m:
        raise InvalidArgument(f"jacobian needs p <= m, got {p} x {m}")
    if p == 0:
        return 1.0
    s = np.linalg.svd(L, compute_uv=False)
    if s[-1] <= 1e-12 * max(1.0, s[0]):
        return 0.0
    return float(np.prod(s))


@dataclass(frozen=True)
class ProbeResult:
    fraction: float
    ci_low: float
    ci_high: float
    combos_used: int
    window: float


def _wilson_interval(k: int, n: int, z: float = 1.96) -> tuple:
    if n == 0:
        return 0.0, 1.0
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def combination_size(ell: int) -> int:
    """The number p of slope differences one probe combination holds: the
    smallest p with beta^(-p) ell^2 < 1 at beta = 1 + 0.4 (ell - 1), as in
    the paper's constant chain (5 at ell = 2, 4 at ell = 3..10)."""
    beta = 1.0 + 0.4 * (ell - 1.0)
    p = 1
    while beta ** -p * ell ** 2 >= 1.0:
        p += 1
    return p


def bad_set_probe(family: PerturbationFamily, n: int, samples: int, seed: int,
                  cls: CeilingClass, combos: int) -> ProbeResult:
    """Monte Carlo measure of the degenerate parameter set.

    Draws random (word, sigma) combinations at level n, keeps those whose
    slope-difference map has Jacobian >= 1 (skipped when the family has no
    directions, where the parameter box is a single point), and estimates
    the fraction of parameters t whose perturbed ceiling keeps all sigma
    slope differences inside the window 10 * theta_K * ell^(-n), with
    theta_K read from ``cls``, the base ceiling's class.  A combination is
    a base word and p + 1 distinct words, p = ``combination_size(ell)``;
    config parsing checks p + 1 <= ell^n <= 2^63 - 1.  Reported with a 95%
    Wilson interval.  Full enumeration of all combinations is out of
    computational reach; only the measure trend is probed.
    """
    f = family.base
    ell = f.ell
    p = combination_size(ell)
    if 0 < family.m < p:
        raise InvalidArgument(
            f"family provides {family.m} directions but a combination needs p = {p}; "
            "no slope-difference map can reach Jacobian 1")
    window = 10.0 * cls.theta_K * ell ** float(-n)
    rng = np.random.default_rng([seed, n, family.m])

    events = []
    attempts = 0
    while len(events) < combos and attempts < 20 * combos:
        attempts += 1
        c_idx = int(rng.integers(ell ** n))
        sig_idx = rng.choice(ell ** n, size=p + 1, replace=False)
        x_c = c_idx / ell ** n
        if family.m > 0:
            G = g_matrix(x_c, sig_idx, n, family)
            if jacobian(G) < 1.0:
                continue
        else:
            G = np.zeros((p, 0))
        slopes = _weighted_sum(f(prefix_points(x_c, sig_idx, n, ell), 1), ell)
        d0 = slopes[1:] - slopes[0]
        events.append((G, d0))

    if family.m == 0:
        inside_any = any(np.all(np.abs(d0) <= window) for _, d0 in events)
        frac = 1.0 if inside_any else 0.0
        return ProbeResult(frac, frac, frac, len(events), window)

    T = rng.uniform(-family.epsilon, family.epsilon, size=(samples, family.m))
    hit = np.zeros(samples, dtype=bool)
    for G, d0 in events:
        D = T @ G.T + d0
        hit |= np.all(np.abs(D) <= window, axis=1)
    k = int(np.count_nonzero(hit))
    lo, hi = _wilson_interval(k, samples)
    return ProbeResult(k / samples, lo, hi, len(events), window)
