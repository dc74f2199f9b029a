"""Ulam discretization of the transfer operator, spectra, and correlations.

The flow domain is tiled by nx columns of ns rectangular boxes whose
heights follow the ceiling at the column midpoint.  The Ulam matrix entry
(i, j) is the fraction of a deterministic rank-1 lattice of points seeded
in box j that the time-t map sends into box i; columns therefore sum to one
exactly and the leading eigenvalue sits at 1 up to solver tolerance.  A
column is nonzero only in the few boxes its points land in, so the matrix is
assembled and kept sparse (CSR).

Ulam eigenvalues approximate transfer-operator resonances only
heuristically; every spectrum report carries the "discretized spectrum"
caveat.

scipy is the only heavy import here and is loaded inside the functions that
use it, so the subcommands that never build an Ulam matrix never pay its
start-up cost.  ``build_ulam`` loads all of it first thing, before any
sample-point array exists.  Loading ``scipy.linalg`` later, in ``spectrum``
once those arrays are freed, left the flow-transport benchmark's peak RSS
about 1 MiB higher (103.2-103.3 against 102.2-102.3 MiB on a 2-core Linux
machine); with glibc's dynamic mmap threshold pinned (MALLOC_MMAP_THRESHOLD_)
both placements read 102.4 MiB, so the threshold, moved by the freed arrays,
is the cause.  ``spectrum`` imports again for callers that hand it an
operator built elsewhere; once loaded that is a lookup in ``sys.modules``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ceiling import TrigPolynomial, extrema
from .dynamics import advance, advance_through
from .errors import InvalidArgument, NumericalFailure, ResourceLimit
from .smooth import step
from .transversality import exponent_fit

DISCRETIZED_SPECTRUM_CAVEAT = "discretized spectrum"

GOLDEN_FRAC = (math.sqrt(5.0) - 1.0) / 2.0

MAX_DIM = 2 ** 16
MEM_CAP_BYTES = 2 ** 31
# correlation quadrature nodes: a few arrays of this many floats each
MAX_NODES = 2 ** 22

# observables vanish within this fraction of min f near the top and bottom
# of each fiber, keeping them smooth and supported in the interior
CUTOFF_MARGIN_FRACTION = 0.05


@dataclass(frozen=True)
class BoxPartition:
    """Rectangles tiling the flow domain: per column, ns equal slices of
    [0, f(column midpoint))."""

    nx: int
    ns: int
    column_heights: np.ndarray

    @classmethod
    def build(cls, f: TrigPolynomial, nx: int, ns: int) -> "BoxPartition":
        mids = (np.arange(nx) + 0.5) / nx
        return cls(nx=nx, ns=ns, column_heights=np.asarray(f(mids), dtype=float))

    @property
    def dim(self) -> int:
        return self.nx * self.ns


@dataclass(frozen=True)
class UlamOperator:
    """The time-t Ulam matrix, stored sparse (CSR) as assembled."""

    sparse: scipy.sparse.csr_array
    t: float

    @property
    def matrix(self) -> np.ndarray:
        """Dense copy of the matrix, for the small-problem eigensolve."""
        return self.sparse.toarray()


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: tuple          # complex, sorted by decreasing modulus
    multiplicities: tuple
    t: float
    caveats: tuple = (DISCRETIZED_SPECTRUM_CAVEAT,)


@dataclass(frozen=True)
class Observable:
    """Closed-form observable: optional trig factor in x, optional trig
    factor in s, times a smooth interior cutoff in s."""

    x_wave: tuple | None = None   # ("cos"|"sin", integer frequency)
    s_wave: tuple | None = None   # ("cos"|"sin", real frequency)
    cutoff: bool = True

    @property
    def id(self) -> str:
        parts = []
        if self.x_wave:
            parts.append(f"{self.x_wave[0]}_x({self.x_wave[1]:g})")
        if self.s_wave:
            parts.append(f"{self.s_wave[0]}_s({self.s_wave[1]:g})")
        if not parts:
            parts.append("one")
        if self.cutoff:
            parts.append("cutoff")
        return "*".join(parts)

    def values(self, x: np.ndarray, s: np.ndarray, fx: np.ndarray, margin: float) -> np.ndarray:
        v = np.ones_like(np.asarray(x, dtype=float))
        if self.x_wave:
            kind, k = self.x_wave
            arg = 2.0 * np.pi * k * x
            v = v * (np.cos(arg) if kind == "cos" else np.sin(arg))
        if self.s_wave:
            kind, a = self.s_wave
            arg = 2.0 * np.pi * a * s
            v = v * (np.cos(arg) if kind == "cos" else np.sin(arg))
        if self.cutoff:
            v = v * step(s / margin) * step((fx - s) / margin)
        return v


@dataclass(frozen=True)
class CorrelationCurve:
    samples: tuple              # of (t, value)
    psi_id: str
    phi_id: str


def _lattice(points: int, seed: int, mode: str, count: int):
    """(u, v) in [0,1)^2 per box: a golden-ratio rank-1 lattice in the
    deterministic default, or seeded uniforms in Monte Carlo mode (one
    independent stream per box, stable under any evaluation order)."""
    if mode == "lattice":
        k = np.arange(points)
        u = (k + 0.5) / points
        v = ((k + 0.5) * GOLDEN_FRAC) % 1.0
        return np.tile(u, (count, 1)), np.tile(v, (count, 1))
    if mode == "monte-carlo":
        rng = np.random.default_rng(seed)
        pts = rng.random((count, points, 2))
        return pts[:, :, 0], pts[:, :, 1]
    raise InvalidArgument(f"mode must be 'lattice' or 'monte-carlo', got {mode!r}")


def build_ulam(f: TrigPolynomial, t: float, nx: int, ns: int,
               points_per_box: int, seed: int = 0,
               mode: str = "lattice") -> UlamOperator:
    """Ulam matrix of the time-t map on the box partition, assembled sparse.

    Sample points in a box may stick out above the true ceiling when f dips
    below the column-midpoint height; the flow advance handles any s >= 0
    and lands inside the domain, and landing coordinates above the landing
    column's height are assigned to its top slice, so every sampled point is
    accounted for and columns sum to one exactly.  An entry hit by c of a
    box's points holds c additions of 1/points_per_box in sequence, the sum a
    dense accumulation would make.  MEM_CAP_BYTES bounds the dense copy that
    ``UlamOperator.matrix`` makes.
    """
    import scipy.linalg          # every scipy module spectrum uses, before any array
    import scipy.sparse
    import scipy.sparse.linalg

    if t < 0:
        raise InvalidArgument(f"t must be >= 0, got {t}")
    if points_per_box < 16:
        raise InvalidArgument(f"points_per_box must be >= 16, got {points_per_box}")
    part = BoxPartition.build(f, nx, ns)
    dim = part.dim
    if dim > MAX_DIM:
        raise ResourceLimit(f"nx*ns = {dim} exceeds the cap {MAX_DIM}", max_dim=MAX_DIM)
    if dim * dim * 8 > MEM_CAP_BYTES:
        raise ResourceLimit(
            f"dense Ulam matrix of dimension {dim} exceeds the memory cap",
            max_dim=int(math.isqrt(MEM_CAP_BYTES // 8)))

    if t == 0.0:
        # the time-0 map is the identity on the domain; sampling would only
        # move the few points that stick out above the true ceiling
        return UlamOperator(sparse=scipy.sparse.eye_array(dim, format="csr"), t=0.0)

    u, v = _lattice(points_per_box, seed, mode, dim)
    cols = np.repeat(np.arange(nx), ns)
    slices = np.tile(np.arange(ns), nx)
    heights = part.column_heights[cols]
    x0 = (cols[:, None] + u) / nx
    s0 = (slices[:, None] + v) * (heights[:, None] / ns)

    # the crossing cap bounds s0 + t, so a refusal's t_limit is net of the tallest s0
    ((_, x1, s1, _),) = advance_through(f, x0.ravel(), s0.ravel(), [t], step=advance)
    land_col = np.minimum((x1 * nx).astype(int), nx - 1)
    land_height = part.column_heights[land_col]
    land_slice = np.minimum((s1 * ns / land_height).astype(int), ns - 1)
    land_idx = land_col * ns + land_slice
    src_idx = np.repeat(np.arange(dim), points_per_box)

    # entries in row-major order, each with the number of points it received
    entry, count = np.unique(land_idx * dim + src_idx, return_counts=True)
    row, col = np.divmod(entry, dim)
    values = np.cumsum(np.full(points_per_box, 1.0 / points_per_box))[count - 1]
    indptr = np.searchsorted(row, np.arange(dim + 1))
    return UlamOperator(sparse=scipy.sparse.csr_array((values, col, indptr), shape=(dim, dim)),
                        t=float(t))


def spectrum(op: UlamOperator, k: int) -> SpectrumReport:
    """Top-k eigenvalues of the Ulam matrix by modulus.

    Small problems (dim <= 128) go through the dense LAPACK path on the
    matrix's dense copy; larger ones run the implicitly restarted Arnoldi
    iteration with a fixed start vector on the CSR matrix itself, so the
    result is deterministic given the matrix and a matrix-vector product
    costs O(nonzeros), not O(dim^2).
    """
    import scipy.linalg
    import scipy.sparse.linalg

    if k > 32:
        raise InvalidArgument(f"k must be <= 32, got {k}")
    dim = op.sparse.shape[0]
    if dim <= 128 or k >= dim - 1:
        vals = scipy.linalg.eigvals(op.matrix)
    else:
        v0 = np.full(dim, 1.0 / math.sqrt(dim))
        try:
            vals = scipy.sparse.linalg.eigs(
                op.sparse, k=min(k + 2, dim - 2), which="LM",
                v0=v0, return_eigenvectors=False)
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            # the report keeps k values, so k converged ones are enough
            if len(exc.eigenvalues) < k:
                raise NumericalFailure(
                    "Arnoldi iteration did not converge",
                    converged=len(exc.eigenvalues), requested=k) from exc
            vals = exc.eigenvalues
    order = np.lexsort((-vals.imag, -vals.real, -np.abs(vals)))
    vals = vals[order][:k]

    mults = []
    tol = 1e-8
    i = 0
    while i < len(vals):
        j = i + 1
        while j < len(vals) and abs(vals[j] - vals[i]) <= tol * max(1.0, abs(vals[i])):
            j += 1
        mults.extend([j - i] * (j - i))
        i = j
    return SpectrumReport(
        eigenvalues=tuple(complex(v) for v in vals),
        multiplicities=tuple(mults), t=op.t)


def _quadrature_nodes(f: TrigPolynomial, nx: int, ns: int):
    """Midpoint nodes and normalized weights for the flow-invariant measure
    (Lebesgue under the ceiling, normalized)."""
    mids = (np.arange(nx) + 0.5) / nx
    heights = np.asarray(f(mids), dtype=float)
    x = np.repeat(mids, ns)
    fx = np.repeat(heights, ns)
    frac = (np.tile(np.arange(ns), nx) + 0.5) / ns
    s = frac * fx
    w = fx / (nx * ns)
    w = w / w.sum()
    return x, s, fx, w


def correlation(f: TrigPolynomial, psi: Observable, phi: Observable,
                t_list, nx: int, ns: int) -> CorrelationCurve:
    """Correlation of two observables along the flow by midpoint quadrature
    on the box grid.

    The nodes are sampled in increasing time, each sample flowed on from the
    previous one (``advance_through``); the curve lists the samples in the
    order, and with the repeats, of ``t_list``.  The heights f at the nodes
    and at every sample come from the flow advance, so f is evaluated once
    per node and roof crossing.
    """
    x, s, fx, w = _quadrature_nodes(f, nx, ns)
    margin = CUTOFF_MARGIN_FRACTION * extrema(f, 0)[0]
    psi_vals = psi.values(x, s, fx, margin)
    mean_psi = float(np.sum(w * psi_vals))
    cor_at = {}
    for t, x1, s1, fx1 in advance_through(f, x, s, t_list, step=advance, fx=fx):
        phi_vals = phi.values(x1, s1, fx1, margin)
        mean_phi = float(np.sum(w * phi_vals))
        cor_at[t] = float(np.sum(w * psi_vals * phi_vals) - mean_phi * mean_psi)
    samples = tuple((float(t), cor_at[float(t)]) for t in t_list)
    return CorrelationCurve(samples=samples, psi_id=psi.id, phi_id=phi.id)


def decay_fit(curve: CorrelationCurve) -> tuple:
    """Fitted exponential rate of |Cor_t| with zero values masked."""
    pts = [(t, abs(v)) for t, v in curve.samples if abs(v) > 1e-15]
    return exponent_fit(pts)

