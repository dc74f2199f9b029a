"""Anisotropic Sobolev norms on a discrete Fourier grid.

Frequency space is split by a polarization: two closed cones meeting only
at the origin, with smooth angular profiles that are 1 on one cone and 0 on
the other.  Crossed with a dyadic annulus decomposition this yields the
mask family psi_{n,sigma}; the anisotropic norm weights the masked L2
pieces by 2^(2pn) in the plus cone and 2^(2qn) in the minus cone.

Everything lives on an N x N periodic grid (functions supported in a
designated rectangle with at least 25% zero padding per side), so the
continuum statements are tested as grid statements: the masks form an exact
partition of unity at every representable frequency, and Parseval ties the
space and frequency sides.

Cones are given by closed slope intervals; an interval with lo > hi wraps
through the vertical direction (the infinite-slope convention).  Internally
every cone is an arc of direction angles modulo pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, InvalidArgument, NumericalFailure
from .smooth import chi, step

_PI = math.pi


def _slope_angle(slope: float) -> float:
    """Direction angle in [0, pi) of the line of the given slope."""
    return math.atan(slope) % _PI


@dataclass(frozen=True)
class ConeSpec:
    """Closed cone in the plane given by a slope interval.

    lo <= hi is the cone of directions with slope in [lo, hi]; lo > hi wraps
    through the vertical line (slopes >= lo together with slopes <= hi and
    the vertical direction itself).  Cones are symmetric through the origin,
    so all tests live on arcs of angles modulo pi.
    """

    slope_lo: float
    slope_hi: float

    @property
    def arc(self) -> tuple:
        """(start, end) with start in [0, pi), start < end <= start + pi."""
        a = _slope_angle(self.slope_lo)
        b = _slope_angle(self.slope_hi)
        if self.slope_lo <= self.slope_hi:
            if b < a:
                b += _PI
        else:
            b = a + ((b - a) % _PI)
            if b == a:
                b = a + _PI
        return a, b

    def contains_angle(self, beta):
        a, b = self.arc
        return (np.asarray(beta, dtype=float) - a) % _PI <= b - a

    def intersects(self, other: "ConeSpec") -> bool:
        """Nontrivial intersection as sets of lines: the angle arcs meet, as
        two closed arcs do iff one of them contains the other's start."""
        return bool(self.contains_angle(other.arc[0])) or bool(other.contains_angle(self.arc[0]))

@dataclass(frozen=True)
class Polarization:
    """Pair of transversal closed cones with smooth angular profiles.

    The plus profile is exactly 1 on the plus cone, exactly 0 on the minus
    cone, and follows the shared smooth step across the two gaps; the minus
    profile is literally 1 minus the plus profile.
    """

    cone_plus: ConeSpec
    cone_minus: ConeSpec

    def __post_init__(self):
        if self.cone_plus.intersects(self.cone_minus):
            raise InvalidArgument("polarization cones must meet only at the origin")

    def _gap_data(self):
        p0, p1 = self.cone_plus.arc
        m0, m1 = self.cone_minus.arc
        # position the minus arc inside (p1, p0 + pi)
        shift0 = (m0 - p0) % _PI
        shift1 = shift0 + (m1 - m0)
        return p0, p1 - p0, shift0, shift1

    def phi_plus(self, beta):
        """Angular profile at direction angle(s) beta."""
        p0, pw, m0, m1 = self._gap_data()
        rel = (np.asarray(beta, dtype=float) - p0) % _PI
        out = np.empty_like(rel)
        in_plus = rel <= pw
        in_minus = (rel >= m0) & (rel <= m1)
        gap1 = (rel > pw) & (rel < m0)
        gap2 = rel > m1
        out[in_plus] = 1.0
        out[in_minus] = 0.0
        if np.any(gap1):
            out[gap1] = 1.0 - step((rel[gap1] - pw) / (m0 - pw))
        if np.any(gap2):
            out[gap2] = step((rel[gap2] - m1) / (_PI - m1))
        return out


# Dyadic weights (p, q): 2^(2pn) on the plus pieces, 2^(2qn) on the minus.
STRONG = (1.0, 0.0)
WEAK = (0.75, -0.25)

PARTITION_TOL = 1e-12  # the masks sum to 1 to rounding: 2.2e-16 on the bench grids


@dataclass
class GridFunction2D:
    """Space-side samples on an N x N periodic grid covering a centered
    square.

    ``rect`` gives the half-widths of the designated support rectangle; the
    square side is four times the larger half-width, leaving at least a 25%
    zero-padding margin per side.
    """

    values: np.ndarray
    spacing: float
    rect: tuple

    def __post_init__(self):
        self.values = np.asarray(self.values)

    @property
    def N(self) -> int:
        return self.values.shape[0]

    def axis(self) -> np.ndarray:
        """Physical coordinates along each side of the lattice (origin at center)."""
        return (np.arange(self.N) - self.N // 2) * self.spacing

    def coords(self):
        """Physical coordinates of the sample lattice."""
        return np.meshgrid(self.axis(), self.axis(), indexing="ij")

    def freqs(self):
        """Angular frequency lattice matching numpy's FFT layout."""
        axis = 2.0 * _PI * np.fft.fftfreq(self.N, d=self.spacing)
        return np.meshgrid(axis, axis, indexing="ij")

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2)) * self.spacing)

    def fft(self) -> np.ndarray:
        return np.fft.fft2(self.values)


def make_grid(rx: float, ry: float, N: int) -> GridFunction2D:
    """Empty space-side grid for functions supported in the centered
    rectangle of half-widths (rx, ry)."""
    side = 4.0 * max(rx, ry)
    return GridFunction2D(values=np.zeros((N, N)), spacing=side / N, rect=(rx, ry))


def _support_ok(u: GridFunction2D, tol: float = 1e-12) -> bool:
    amax = float(np.max(np.abs(u.values)))
    if amax == 0.0:
        return True
    axis = np.abs(u.axis())
    outside = ((axis > u.rect[0] + u.spacing / 2)[:, None]
               | (axis > u.rect[1] + u.spacing / 2)[None, :])
    return float(np.max(np.abs(u.values[outside]), initial=0.0)) <= tol * amax


def _masks(theta: Polarization, xi1, xi2, top: int):
    """((n, sigma), psi_{Theta,n,sigma}) at the frequencies (xi1, xi2) for
    n = 0..top, n ascending and '+' before '-'.

    n = 0: chi(|xi|)/2 for each sign; n >= 1: angular profile (phi_plus, or
    1 - phi_plus for the minus sign) times the dyadic annulus bump
    chi(2^-n |xi|) - chi(2^-n+1 |xi|).  Each radial bump is evaluated once
    and shared by the two signs of its level and by the next level.  The
    angular factor at the origin is irrelevant because the annulus bump
    vanishes there.
    """
    r = np.hypot(xi1, xi2)
    phi = theta.phi_plus(np.arctan2(xi2, xi1) % _PI)
    del xi1, xi2            # the caller keeps no reference to the grids
    inner = chi(r)
    half = inner / 2.0
    yield (0, "+"), half
    yield (0, "-"), half
    del half
    for n in range(1, top + 1):
        outer = chi(r * 2.0 ** -n)
        annulus = outer - inner
        yield (n, "+"), phi * annulus
        yield (n, "-"), (1.0 - phi) * annulus
        inner = outer


def _top_band(grid: GridFunction2D) -> int:
    """Smallest n beyond which every mask vanishes on the grid."""
    xi_max = math.sqrt(2.0) * (_PI / grid.spacing)
    return max(1, math.ceil(math.log2(xi_max))) + 1


@dataclass(frozen=True)
class MaskBank:
    """The norm weights sum_{n,sigma} w_{n,sigma} psi_{n,sigma}^2 of one
    polarization (``strong``, ``weak``) and its partition ``defect`` on the
    frequency lattice of one grid size N and spacing."""

    N: int
    spacing: float
    defect: float
    strong: np.ndarray
    weak: np.ndarray


def mask_bank(theta: Polarization, grid: GridFunction2D) -> MaskBank:
    """The bank of theta on the grid's frequency lattice, from one pass over
    its masks.  Raises NumericalFailure, naming the defect, unless the masks
    sum to 1 within PARTITION_TOL at every grid frequency."""
    total, strong, weak = (np.zeros((grid.N, grid.N)) for _ in range(3))
    for (n, sigma), m in _masks(theta, *grid.freqs(), _top_band(grid)):
        total += m
        sq = m * m
        for acc, (p, q) in ((strong, STRONG), (weak, WEAK)):
            acc += 2.0 ** (2.0 * (p if sigma == "+" else q) * n) * sq
    defect = float(np.max(np.abs(total - 1.0)))
    if not defect <= PARTITION_TOL:
        raise NumericalFailure(f"the masks sum to 1 only within {defect!r}",
                               partition_defect=defect)
    return MaskBank(grid.N, grid.spacing, defect, strong, weak)


def _check_bank(bank: MaskBank, u: GridFunction2D) -> None:
    if bank.N != u.N or bank.spacing != u.spacing:
        raise InvalidArgument("mask bank was built for another grid size or spacing")


def partition_defect(bank: MaskBank) -> float:
    """max over grid frequencies of |sum of all masks - 1|."""
    return bank.defect


def aniso_norm(u: GridFunction2D, bank: MaskBank) -> tuple:
    """(strong, weak): the anisotropic norms of u for the bank's
    polarization with the STRONG and WEAK weights, both from one power
    spectrum of u."""
    if not _support_ok(u):
        raise DomainViolation("function is not supported in the designated rectangle")
    _check_bank(bank, u)
    power = np.abs(u.fft()) ** 2 * ((u.spacing ** 2) / (u.N ** 2))  # discrete Parseval
    return tuple(math.sqrt(float(np.sum(w * power))) for w in (bank.strong, bank.weak))


def embedding_check(u: GridFunction2D, strong: float) -> float:
    """Ratio of the plain L2 norm of u to its strong anisotropic norm
    ``strong`` (the first value of ``aniso_norm``); bounded by sqrt(6), the
    intersection multiplicity of the mask supports."""
    l2 = u.l2_norm()
    if l2 == 0.0:
        raise InvalidArgument("embedding_check needs a nonzero function")
    return l2 / strong
