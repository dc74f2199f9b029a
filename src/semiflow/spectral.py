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
solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ceiling import TrigPolynomial, extrema
from .dynamics import advance, advance_through, check_crossings
from .errors import NumericalFailure, ResourceLimit
from .smooth import step

DISCRETIZED_SPECTRUM_CAVEAT = "discretized spectrum"

GOLDEN_FRAC = (math.sqrt(5.0) - 1.0) / 2.0

# Ulam dimension nx*ns, refused with a ResourceLimit.  The library densifies
# only at dim <= 128 (LAPACK); the value stays for the bench tracer, which
# densifies each traced matrix, and bench/test_bench.py (nx=256, ns=128 exits 2)
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
        v = None
        if self.x_wave:
            kind, k = self.x_wave
            arg = 2.0 * np.pi * k * x
            v = (np.cos if kind == "cos" else np.sin)(arg, out=arg)
        if self.s_wave:
            kind, a = self.s_wave
            arg = 2.0 * np.pi * a * s
            wave = (np.cos if kind == "cos" else np.sin)(arg, out=arg)
            v = wave if v is None else np.multiply(v, wave, out=v)
        if v is None:
            v = np.ones_like(np.asarray(x, dtype=float))
        if self.cutoff:
            # each step is 1 outside its own band, where multiplying by it
            # changes no bit: s >= margin gives s/margin >= 1, and likewise
            # at the top, while nan stays in both bands; a point in both
            # takes the two factors in the order of the full product
            low = np.nonzero(~(s >= margin))
            v[low] = v[low] * step(s[low] / margin)
            gap = fx - s
            high = np.nonzero(~(gap >= margin))
            v[high] = v[high] * step(gap[high] / margin)
        return v


def build_ulam(f: TrigPolynomial, t: float, nx: int, ns: int,
               points_per_box: int) -> UlamOperator:
    """Ulam matrix of the time-t map on the box partition, assembled sparse.

    A box's sample points sit at the offsets (u, v) in [0,1)^2 of one
    golden-ratio rank-1 lattice, the same for every box.  Points that stick
    out above the true ceiling (f below the column-midpoint height) flow and
    land inside the domain, and a landing point above its column's height
    goes to the top slice, so columns sum to one exactly.  An entry hit by c
    of a box's points holds c additions of 1/points_per_box in sequence, the
    sum a dense accumulation would make.

    The points are sampled, flowed and binned in chunks of whole boxes, at
    most CHUNK_POINTS points (or one box), point-major: the chunk's boxes at
    the first offset, then at the second, and so on, so the ns boxes of a
    column at one offset form one base point of the orbit store of
    ``advance``.  The chunks' entries, merged in entry order, are those of
    one pass over all points.  Raises ResourceLimit, before anything is
    built, when nx*ns exceeds MAX_DIM, and before any point flows when t
    could cross the roof more than MAX_CROSSINGS times from the tallest
    sample point.
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

    k = np.arange(points_per_box)
    u = ((k + 0.5) / points_per_box)[:, None]
    v = (((k + 0.5) * GOLDEN_FRAC) % 1.0)[:, None]
    heights = part.column_heights / ns
    # the crossing cap bounds s0 + t: the tallest s0 is the top slice's at
    # the largest v in the tallest column, since each rounding is monotone
    check_crossings(f, t, float((ns - 1 + v.max()) * heights.max()))

    keys, counts = [], []
    per_chunk = max(1, CHUNK_POINTS // points_per_box)
    for start in range(0, dim, per_chunk):
        boxes = np.arange(start, min(start + per_chunk, dim))
        cols, slices = np.divmod(boxes, ns)
        x0 = ((cols + u) / nx).ravel()
        s0 = ((slices + v) * heights[cols]).ravel()
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

    Small problems (dim <= 128), and any k >= dim - 1, go through the dense
    LAPACK path on the matrix's dense copy; the rest run the implicitly
    restarted Arnoldi iteration with a fixed start vector on the CSR matrix
    itself, where a matrix-vector product costs O(nonzeros), not O(dim^2).
    The generator ARPACK draws a new vector from when its basis meets an
    invariant subspace (a low-rank matrix, such as f = 1's) is seeded too, so
    the eigenvalues repeat bit for bit from run to run.
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
                v0=v0, return_eigenvectors=False, rng=0)
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            # the report keeps k values, so k converged ones are enough
            if len(exc.eigenvalues) < k:
                raise NumericalFailure(
                    "Arnoldi iteration did not converge",
                    converged=len(exc.eigenvalues), requested=k) from exc
            vals = exc.eigenvalues
    order = np.lexsort((-vals.imag, -vals.real, -np.abs(vals)))
    vals = vals[order][:k]

    # each value's multiplicity counts the listed values within tol of it,
    # wherever rounding put them in the modulus order
    tol = 1e-8
    near = np.abs(vals[:, None] - vals[None, :]) <= tol * np.maximum(1.0, np.abs(vals))[:, None]
    return SpectrumReport(
        eigenvalues=tuple(complex(v) for v in vals),
        multiplicities=tuple(near.sum(axis=1).tolist()), t=op.t)


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
                t_list, nx: int, ns: int) -> tuple:
    """Correlation of two observables along the flow by midpoint quadrature
    on the box grid.

    Returns the (t, value) samples in the order, and with the repeats, of
    ``t_list``.  The nodes are sampled in increasing time, each sample
    flowed on from the previous one (``advance_through``).  The heights f
    at the nodes and at every sample come from the flow advance.  The nodes
    are column-major, so the ns nodes of a column start at one x and form one
    base point of the orbit store that ``advance_through`` builds once for
    all the samples: f is evaluated once per column and level that one of
    its nodes reaches, and the store's ring of levels keeps the flow's
    memory O(nodes) at any time.
    """
    x, s, fx, w = _quadrature_nodes(f, nx, ns)
    margin = CUTOFF_MARGIN_FRACTION * extrema(f, 0)[0]
    w_psi = w * psi.values(x, s, fx, margin)
    mean_psi = float(np.sum(w_psi))
    cor_at = {}
    product = np.empty_like(w)      # both weighted products of every sample
    for t, x1, s1, fx1 in advance_through(f, x, s, t_list, step=advance, fx=fx):
        phi_vals = phi.values(x1, s1, fx1, margin)
        mean_phi = float(np.sum(np.multiply(w, phi_vals, out=product)))
        cor_at[t] = float(np.sum(np.multiply(w_psi, phi_vals, out=product))
                          - mean_phi * mean_psi)
        del x1, s1, fx1, phi_vals       # before the next step (``advance_through``)
    return tuple((float(t), cor_at[float(t)]) for t in t_list)

