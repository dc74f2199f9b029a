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
start-up cost: ``build_ulam`` loads ``scipy.sparse`` and ``spectrum`` the
solvers.  The assembly holds one chunk of sample points at a time, so where
the solvers load no longer moves the peak RSS: the flow-transport benchmark
read 80.2-80.7 MiB with them loaded in either function (2-core Linux
machine), where the one-shot assembly's freed arrays had made the placement
worth about 1 MiB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ceiling import TrigPolynomial, extrema
from .dynamics import advance, advance_through, check_crossings
from .errors import NumericalFailure, ResourceLimit
from .smooth import step
from .transversality import exponent_fit

DISCRETIZED_SPECTRUM_CAVEAT = "discretized spectrum"

GOLDEN_FRAC = (math.sqrt(5.0) - 1.0) / 2.0

# Ulam dimension nx*ns, refused at run time with a ResourceLimit; the dense
# float64 copy of a matrix this size (``UlamOperator.matrix``) takes 2 GiB
MAX_DIM = 2 ** 14
# Ulam sample points sampled, flowed and binned at once, in whole boxes (one
# box when a box holds more): bounds the assembly's working arrays
CHUNK_POINTS = 2 ** 13

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
        """The observable at the points (x, s) of heights fx, arrays of one
        shape; the cutoff vanishes within margin of s = 0 and s = fx."""
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
            # both steps are 1 outside the band near the bottom and the top
            # of the fiber, where multiplying by them changes no bit
            lo, hi = s / margin, (fx - s) / margin
            band = np.nonzero(~((lo >= 1.0) & (hi >= 1.0)))
            v[band] = v[band] * step(lo[band]) * step(hi[band])
        return v


@dataclass(frozen=True)
class CorrelationCurve:
    samples: tuple              # of (t, value)
    psi_id: str
    phi_id: str


def _sample_chunks(part: BoxPartition, points: int, seed: int, mode: str):
    """Sample points of the boxes, in chunks of whole boxes taken in box
    order: yields (boxes, x0, s0), the box indices of the chunk and its
    points' coordinates, point-major: the chunk's boxes for the first
    offset, then for the second, and so on, so the point of box b at offset
    j sits at j * len(boxes) + b - boxes[0].  A chunk holds at most
    CHUNK_POINTS points, or one box when a box alone holds more.

    The offsets (u, v) in [0,1)^2 of a box's points are a golden-ratio
    rank-1 lattice, the same row for every box, in the deterministic
    default.  The ns boxes of a column then give each offset one x, which
    point-major order puts side by side: ``advance`` evaluates f once per
    such run.  Monte Carlo mode draws the offsets from one default_rng(seed)
    stream, box by box; the chunks draw that stream in box order, so the
    points are those of a single draw over all boxes.
    """
    if mode == "lattice":
        k = np.arange(points)
        u = ((k + 0.5) / points)[:, None]
        v = (((k + 0.5) * GOLDEN_FRAC) % 1.0)[:, None]
    else:
        rng = np.random.default_rng(seed)
    per_chunk = max(1, CHUNK_POINTS // points)
    for start in range(0, part.dim, per_chunk):
        boxes = np.arange(start, min(start + per_chunk, part.dim))
        if mode != "lattice":
            uv = rng.random((len(boxes), points, 2))
            u, v = uv[:, :, 0].T, uv[:, :, 1].T
        cols, slices = np.divmod(boxes, part.ns)
        x0 = (cols + u) / part.nx
        s0 = (slices + v) * (part.column_heights[cols] / part.ns)
        yield boxes, x0.ravel(), s0.ravel()


def build_ulam(f: TrigPolynomial, t: float, nx: int, ns: int, points_per_box: int,
               seed: int, mode: str) -> UlamOperator:
    """Ulam matrix of the time-t map on the box partition, assembled sparse.

    Sample points in a box may stick out above the true ceiling when f dips
    below the column-midpoint height; the flow advance handles any s >= 0
    and lands inside the domain, and landing coordinates above the landing
    column's height are assigned to its top slice, so every sampled point is
    accounted for and columns sum to one exactly.  An entry hit by c of a
    box's points holds c additions of 1/points_per_box in sequence, the sum a
    dense accumulation would make.

    The points are sampled, flowed and binned one chunk of boxes at a time
    (``_sample_chunks``), so at most one chunk of points is held at once;
    the chunks' entries, merged in entry order, are those of a single pass
    over all points.  Raises ResourceLimit, before anything is built, when
    nx*ns exceeds MAX_DIM, and before any point flows when t could cross the
    roof more than MAX_CROSSINGS times from the tallest sample point.
    """
    if nx * ns > MAX_DIM:
        raise ResourceLimit(f"nx*ns = {nx * ns} exceeds the cap {MAX_DIM}", max_dim=MAX_DIM)
    import scipy.sparse

    part = BoxPartition.build(f, nx, ns)
    dim = part.dim
    if t == 0.0:
        # the time-0 map is the identity on the domain; sampling would only
        # move the few points that stick out above the true ceiling
        return UlamOperator(sparse=scipy.sparse.eye_array(dim, format="csr"), t=0.0)

    # the crossing cap bounds s0 + t, so a refusal's t_limit is net of the
    # tallest s0 over all boxes, decided once before any chunk flows
    tallest = max(float(np.max(s0)) for _, _, s0 in
                  _sample_chunks(part, points_per_box, seed, mode))
    check_crossings(f, t, tallest)

    keys, counts = [], []
    for boxes, x0, s0 in _sample_chunks(part, points_per_box, seed, mode):
        x1, s1, _, _ = advance(f, x0, s0 + t)
        land_col = np.minimum((x1 * nx).astype(int), nx - 1)
        land_slice = np.minimum((s1 * ns / part.column_heights[land_col]).astype(int), ns - 1)
        land_idx = land_col * ns + land_slice
        # the chunk's entries, keyed row-major, each with its number of points
        key, count = np.unique(land_idx * dim + np.tile(boxes, points_per_box),
                               return_counts=True)
        keys.append(key)
        counts.append(count)
    # chunks hold disjoint columns, so their keys are distinct and one sort
    # puts the entries in row-major order
    key = np.concatenate(keys)
    order = np.argsort(key)
    row, col = np.divmod(key[order], dim)
    partial_sums = np.cumsum(np.full(points_per_box, 1.0 / points_per_box))
    values = partial_sums[np.concatenate(counts)[order] - 1]
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
    and at every sample come from the flow advance.  The nodes are
    column-major, so the ns nodes of a column start at one x and ``advance``
    evaluates f once per column and roof crossing for as long as they cross
    together, not once per node.
    """
    x, s, fx, w = _quadrature_nodes(f, nx, ns)
    margin = CUTOFF_MARGIN_FRACTION * extrema(f, 0)[0]
    w_psi = w * psi.values(x, s, fx, margin)
    mean_psi = float(np.sum(w_psi))
    cor_at = {}
    for t, x1, s1, fx1 in advance_through(f, x, s, t_list, step=advance, fx=fx):
        phi_vals = phi.values(x1, s1, fx1, margin)
        mean_phi = float(np.sum(w * phi_vals))
        cor_at[t] = float(np.sum(w_psi * phi_vals) - mean_phi * mean_psi)
    samples = tuple((float(t), cor_at[float(t)]) for t in t_list)
    return CorrelationCurve(samples=samples, psi_id=psi.id, phi_id=phi.id)


def decay_fit(curve: CorrelationCurve) -> tuple:
    """Fitted exponential rate of |Cor_t| with zero values masked."""
    pts = [(t, abs(v)) for t, v in curve.samples if abs(v) > 1e-15]
    return exponent_fit(pts)

