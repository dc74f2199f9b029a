"""Weak-mixing detection through the canonical cobounding potential.

If the flow fails to be weakly mixing, the slopes of the unstable line
field on the base section are given by the preimage series

    psi(x) = sum_{n>=1} sum_{tau^n y = x} ell^(-2n) f'(y),

its antiderivative Psi satisfies the cocycle equation
Psi(tau x) - Psi(x) = f(x) - c with c the mean of f, and
Phi(x, s) = exp((2 pi i / c)(Psi(x) + s)) is an eigenfunction of the flow.
The computable obstruction is the sup-norm residual of the cocycle
equation: it vanishes exactly in the degenerate case, so thresholding it
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
    grid: int
    Psi: np.ndarray
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
    """Truncation error of the preimage series after ``depth`` levels: the
    level-n block is bounded by ell^(-n) max|f'|, so the tail is
    max|f'| * ell^(-depth) / (ell - 1), with the certified max|f'|."""
    return max(map(abs, extrema(f, 1))) * f.ell ** float(-depth) / (f.ell - 1)


def _level_sum(f: TrigPolynomial, x: np.ndarray, n: int) -> np.ndarray:
    """sum over the ell^n preimages y of x of f'(y), by direct enumeration
    of the points (x + k)/ell^n."""
    M = f.ell ** n
    k = np.arange(M, dtype=float)
    pts = (x[:, None] + k[None, :]) / M
    return np.sum(f(pts, 1), axis=1)


def _level_vanishes(f: TrigPolynomial, n: int) -> bool:
    """A level-n preimage sum of a pure harmonic of frequency k over the
    ell^n equally spaced points vanishes identically unless ell^n divides
    k; with every frequency below ell^n the whole level is exactly zero."""
    M = f.ell ** n
    return all(k % M != 0 for k, _, _ in f.harmonics) or not f.harmonics


def sample_psi(f: TrigPolynomial, xs: np.ndarray, depth: int) -> np.ndarray:
    """Truncated preimage series on an array of points.

    Levels whose preimage sums vanish identically (no harmonic frequency
    divisible by ell^n) contribute exactly zero and are skipped; this is an
    identity of the equally spaced cosine sums, not an approximation, and
    every remaining level has at most max-harmonic many points, so deep
    truncations stay cheap.
    """
    if depth < 1:
        raise InvalidArgument(f"depth must be >= 1, got {depth}")
    out = np.zeros_like(xs, dtype=float)
    for n in range(1, depth + 1):
        if _level_vanishes(f, n):
            continue
        out += f.ell ** (-2.0 * n) * _level_sum(f, xs, n)
    return out


def cobounding_potential(f: TrigPolynomial, grid: int, depth: int) -> CoboundaryReport:
    """Sample psi on a uniform circle grid and antidifferentiate spectrally.

    The antiderivative divides the discrete Fourier coefficients of the
    mean-removed samples by 2 pi i k and anchors Psi(0) = 0; c is the mean
    coefficient of f exactly.
    """
    if grid < 256 or grid & (grid - 1) != 0:
        raise InvalidArgument(f"grid must be a power of two >= 256, got {grid}")
    xs = np.arange(grid) / grid
    psi = sample_psi(f, xs, depth)

    coeffs = np.fft.fft(psi)
    coeffs[0] = 0.0
    freqs = np.fft.fftfreq(grid, d=1.0 / grid)  # integer frequencies
    denom = 2j * np.pi * freqs
    denom[0] = 1.0
    Psi_coeffs = coeffs / denom
    Psi = np.real(np.fft.ifft(Psi_coeffs))
    Psi -= Psi[0]
    return CoboundaryReport(grid=grid, Psi=Psi, c=f.mean_coeff, depth=depth,
                            tail_bound=tail_bound(f, depth))


def eval_periodic_samples(samples: np.ndarray, xq) -> np.ndarray:
    """Trigonometric interpolation of uniform periodic samples at arbitrary
    points (spectral synthesis; reproduces the samples at the nodes)."""
    G = len(samples)
    coeffs = np.fft.fft(samples) / G
    freqs = np.fft.fftfreq(G, d=1.0 / G)
    xq = np.atleast_1d(np.asarray(xq, dtype=float))
    phases = np.exp(2j * np.pi * np.outer(xq, freqs))
    return np.real(phases @ coeffs)


def cocycle_residual(report: CoboundaryReport, f: TrigPolynomial) -> float:
    """sup over the grid of |Psi(tau x) - Psi(x) - f(x) + c|.

    tau maps the uniform grid into itself exactly ((ell*j) mod G over G), so
    the trigonometric interpolant of Psi at tau(x_j) reduces to an index
    lookup.  Vanishes iff the canonical unstable line field is invariant.
    """
    G = report.grid
    idx = (f.ell * np.arange(G)) % G
    xs = report.grid_points
    res = report.Psi[idx] - report.Psi - f(xs) + report.c
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
    Psi_at = eval_periodic_samples(report.Psi, pts_x)
    phi0 = np.exp(2j * np.pi / c * (Psi_at + pts_s))
    defect = 0.0
    for t, x1, s1, _ in advance_through(f, pts_x, pts_s, t_samples, step=advance,
                                        fx=np.repeat(heights, ns)):
        Psi1 = eval_periodic_samples(report.Psi, x1)
        phi1 = np.exp(2j * np.pi / c * (Psi1 + s1))
        defect = max(defect, float(np.max(np.abs(phi1 - np.exp(2j * np.pi * t / c) * phi0))))
    return defect
