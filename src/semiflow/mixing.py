"""Weak-mixing detection through the canonical cobounding potential.

If the flow fails to be weakly mixing, f - c is a coboundary:
Psi(tau x) - Psi(x) = f(x) - c with c the mean of f, and
Phi(x, s) = exp((2 pi i / c)(Psi(x) + s)) is an eigenfunction of the flow.
The canonical Psi = sum_{n>=1} L^n (f - c), L the transfer operator of tau,
is a trigonometric polynomial: L e_k = e_{k/ell} when ell divides k and 0
otherwise, so ``depth`` levels of coefficient arithmetic give it exactly
(every level past log_ell of the top harmonic is empty).  The computable
obstruction is the sup-norm residual of the cocycle equation on a uniform
``grid``: it vanishes exactly in the degenerate case, so thresholding it
yields the weak-mixing verdict.

The converse detection route through eigenfunctions with an arbitrary
frequency parameter is not implemented; ceilings that are degenerate only
for some other frequency would land in the Inconclusive band rather than be
misclassified.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ceiling import TrigPolynomial, extrema
from .dynamics import advance, advance_through
from .errors import InvalidArgument, PreconditionViolation


class Verdict(Enum):
    NOT_WEAKLY_MIXING = "NotWeaklyMixing"
    WEAKLY_MIXING = "WeaklyMixing"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class CoboundaryReport:
    """Psi as a trigonometric polynomial, the mean c of f, the residual grid
    and the series depth; the residual and verdict fields are set later."""

    grid: int
    Psi: TrigPolynomial
    c: float
    depth: int
    tail_bound: float
    residual_sup: float | None = None
    verdict: Verdict | None = None
    tol_strict: float | None = None
    tol_clear: float | None = None

    @property
    def grid_points(self) -> np.ndarray:
        return np.arange(self.grid) / self.grid


def tail_bound(f: TrigPolynomial, depth: int) -> float:
    """Truncation error of the preimage series of Psi' after ``depth``
    levels: the level-n block is bounded by ell^(-n) max|f'|, so the tail
    is max|f'| * ell^(-depth) / (ell - 1), with the certified max|f'|."""
    return max(map(abs, extrema(f, 1))) * f.ell ** float(-depth) / (f.ell - 1)


def sample_psi(f: TrigPolynomial, depth: int) -> TrigPolynomial:
    """Psi = sum_{n=1}^{depth} L^n (f - c), anchored at Psi(0) = 0.

    Level n keeps the harmonics of f whose frequency ell^n divides, at
    frequency k/ell^n with unchanged coefficients; the levels stop after
    ``depth`` or at the first empty one.  Coefficients landing on the same
    frequency add, and the mean coefficient is minus the cosine sum.
    """
    if depth < 1:
        raise InvalidArgument(f"depth must be >= 1, got {depth}")
    coeffs = {}
    level = f.harmonics
    for _ in range(depth):
        level = [(k // f.ell, c, s) for k, c, s in level if k % f.ell == 0]
        if not level:
            break
        for k, c, s in level:
            a, b = coeffs.get(k, (0.0, 0.0))
            coeffs[k] = (a + c, b + s)
    harmonics = tuple((k, a, b) for k, (a, b) in coeffs.items())
    return TrigPolynomial(-sum(a for _, a, _ in harmonics), harmonics, f.ell)


def cobounding_potential(f: TrigPolynomial, grid: int, depth: int) -> CoboundaryReport:
    """The potential Psi of f, with the grid its residual is read on; c is
    the mean coefficient of f exactly."""
    if grid < 256 or grid & (grid - 1) != 0:
        raise InvalidArgument(f"grid must be a power of two >= 256, got {grid}")
    return CoboundaryReport(grid=grid, Psi=sample_psi(f, depth), c=f.mean_coeff,
                            depth=depth, tail_bound=tail_bound(f, depth))


def cocycle_residual(report: CoboundaryReport, f: TrigPolynomial) -> float:
    """sup over the grid of |Psi(tau x) - Psi(x) - f(x) + c|.

    tau maps the uniform grid into itself exactly ((ell*j) mod G over G), so
    Psi is evaluated once on the grid and read at tau(x_j) by an index
    lookup.  Vanishes iff the canonical unstable line field is invariant.
    """
    G = report.grid
    idx = (f.ell * np.arange(G)) % G
    xs = report.grid_points
    Psi = report.Psi(xs)
    res = Psi[idx] - Psi - f(xs) + report.c
    value = float(np.max(np.abs(res)))
    report.residual_sup = value
    return value


def default_tolerances(f: TrigPolynomial, depth: int) -> tuple:
    """(tol_strict, tol_clear) for the verdict thresholds."""
    strict = 1e-6 + tail_bound(f, depth)
    return strict, 1e3 * strict


def weak_mixing_test(f: TrigPolynomial, tol_strict: float | None = None,
                     tol_clear: float | None = None, grid: int = 4096,
                     depth: int = 24) -> CoboundaryReport:
    """Full dichotomy test; the returned report carries the verdict, the
    residual, and both tolerances."""
    ts, tc = default_tolerances(f, depth)
    if tol_strict is None:
        tol_strict = ts
    if tol_clear is None:
        tol_clear = tc
    if not tol_strict < tol_clear:
        raise InvalidArgument(f"tol_strict ({tol_strict}) must be < tol_clear ({tol_clear})")
    report = cobounding_potential(f, grid, depth)
    residual = cocycle_residual(report, f)
    if residual <= tol_strict:
        report.verdict = Verdict.NOT_WEAKLY_MIXING
    elif residual >= tol_clear:
        report.verdict = Verdict.WEAKLY_MIXING
    else:
        report.verdict = Verdict.INCONCLUSIVE
    report.tol_strict = tol_strict
    report.tol_clear = tol_clear
    return report


def eigenfunction_check(report: CoboundaryReport, f: TrigPolynomial, t_samples) -> float:
    """Defect of the candidate eigenfunction Phi(x,s) =
    exp((2 pi i / c)(Psi(x) + s)) under the flow:
    max |Phi(T^t z) - exp(2 pi i t / c) Phi(z)| over the points z with
    x = k/24 and s at the 6 slice midpoints below f(x), and the given times,
    sampled in increasing time, each from the previous one
    (``advance_through``).  Only meaningful when the residual is within the
    report's tol_strict (the default one when the report has none)."""
    if report.residual_sup is None:
        raise PreconditionViolation("run cocycle_residual before eigenfunction_check")
    tol_strict = report.tol_strict if report.tol_strict is not None \
        else default_tolerances(f, report.depth)[0]
    if report.residual_sup > tol_strict:
        raise PreconditionViolation(
            f"residual {report.residual_sup:.3g} exceeds tol_strict {tol_strict:.3g}; "
            "there is no eigenfunction to check")
    c = report.c
    nx, ns = 24, 6
    xs = np.arange(nx) / nx
    pts_x = np.repeat(xs, ns)
    heights = f(xs)
    pts_s = ((np.arange(ns) + 0.5)[None, :] * heights[:, None] / ns).ravel()
    Psi_at = report.Psi(pts_x)
    phi0 = np.exp(2j * np.pi / c * (Psi_at + pts_s))
    defect = 0.0
    for t, x1, s1, _ in advance_through(f, pts_x, pts_s, t_samples, step=advance,
                                        fx=np.repeat(heights, ns)):
        Psi1 = report.Psi(x1)
        phi1 = np.exp(2j * np.pi / c * (Psi1 + s1))
        defect = max(defect, float(np.max(np.abs(phi1 - np.exp(2j * np.pi * t / c) * phi0))))
    return defect
