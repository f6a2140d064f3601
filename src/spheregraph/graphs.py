"""k-nearest-neighbor graphs on sphere samplings and their combinatorial Laplacians.

Two edge-weight schemes are supported: inverse chordal distance w = 1/|x_i - x_j|
and the Gaussian kernel w = exp(-|x_i - x_j|^2 / (4 t)). The Laplacian is the
combinatorial L = D - A; no normalization is applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .errors import (InvalidArgumentError, NumericalFailureError, SingularWeightError,
                     check_memory)
from .samplings import Sampling

WEIGHT_KINDS = ("inverse-distance", "gaussian")
KERNEL_HEURISTICS = ("half-mean-square", "mean-distance")


@dataclass(frozen=True)
class WeightScheme:
    """Edge weighting: 'inverse-distance' (no parameter) or 'gaussian' with width t."""

    kind: str
    kernel_width: Optional[float] = None

    def __post_init__(self):
        if self.kind not in WEIGHT_KINDS:
            raise InvalidArgumentError(f"unknown weight kind {self.kind!r}")
        if self.kind == "gaussian":
            if self.kernel_width is None or not self.kernel_width > 0:
                raise InvalidArgumentError("gaussian weights need kernel_width > 0")
        elif self.kernel_width is not None:
            raise InvalidArgumentError("inverse-distance weights carry no kernel width")


@dataclass(frozen=True)
class Graph:
    """Symmetric weighted kNN graph: adjacency (CSR), degrees, and the k used to build it."""

    n: int
    adjacency: sp.csr_matrix
    degrees: np.ndarray
    k: int
    weights: WeightScheme


_TIE_REL_TOL = 1e-12
_BLOCK_ROWS = 1 << 14  # vertices whose kNN query, or whose symmetrization, runs at a time


def knn_support(s: Sampling, k: int):
    """Directed edge support as CSR arrays (indptr, cols, dists): all
    neighbors within the k-th-nearest distance, ties included.

    Row i is cols[indptr[i]:indptr[i + 1]]; indptr is int64, cols int32 (the
    adjacency's index type) and dists float64. Including every vertex tied
    with the k-th distance keeps the support a pure function of pairwise
    distances, so any rotation that permutes the sampling permutes the graph
    exactly. Vertices at tie boundaries may select slightly more than k
    neighbors. Each row comes out ranked by (squared distance, index);
    knn_edges and the heuristic widths read this.

    Vertices are queried, tie-checked and ranked _BLOCK_ROWS at a time, and a
    block widens its query window only while one of its own tie groups
    straddles it. Each point's search is independent, so the support does not
    depend on the block size. Only one block's (rows, window) arrays exist at
    a time, and its entries go straight into cols and dists: those are
    allocated once at k + 1 entries a vertex (doubled if ties need more) and
    trimmed in place, so no per-block pieces are kept and joined.
    InvalidArgumentError, before the tree is built, when the graph layer's
    estimated peak exceeds physical memory.
    """
    n = s.n
    if not 1 <= k < n:
        raise InvalidArgumentError(f"need 1 <= k < n, got k={k}, n={n}")
    check_memory(_graph_bytes(n, k), f"the k={k} graph on n={n} vertices")
    tree = cKDTree(s.points)
    indptr = np.zeros(n + 1, np.int64)
    cols, dists = np.empty(n * (k + 1), np.int32), np.empty(n * (k + 1), np.float64)
    for start in range(0, n, _BLOCK_ROWS):
        points = s.points[start:start + _BLOCK_ROWS]
        pad = 8
        while True:
            kq = min(n, k + 1 + pad)
            # each point's search is independent: the result is the same on any number of threads
            dist, idx = tree.query(points, k=kq, workers=-1)
            thresh = dist[:, k] * (1.0 + _TIE_REL_TOL)
            if kq == n or not np.any(dist[:, -1] <= thresh):
                break
            pad *= 2  # a tie group straddles this block's query window; widen it
        stop = start + len(points)
        keep = (dist <= thresh[:, None]) & (idx != np.arange(start, stop)[:, None])
        diffs = s.points[start + np.nonzero(keep)[0]] - s.points[idx[keep]]
        d2 = np.full(idx.shape, np.inf)  # dropped entries rank last
        d2[keep] = np.einsum("ij,ij->i", diffs, diffs)
        order = np.lexsort((idx, d2), axis=1)
        d2 = np.take_along_axis(d2, order, axis=1)
        keep = d2 < np.inf
        indptr[start + 1:stop + 1] = indptr[start] + np.cumsum(keep.sum(axis=1))
        begin, end = indptr[start], indptr[stop]
        if end > len(cols):  # ties gave more than k + 1 neighbours a vertex so far
            for out in (cols, dists):
                out.resize(2 * end, refcheck=False)
        cols[begin:end] = np.take_along_axis(idx, order, axis=1)[keep]
        dists[begin:end] = np.sqrt(d2[keep])
    for out in (cols, dists):
        out.resize(indptr[-1], refcheck=False)  # in place: the unused tail is given back
    return indptr, cols, dists


def _graph_bytes(n: int, k: int) -> int:
    """Estimated peak bytes of the graph layer on n vertices: 40 per vertex
    and neighbor (k + 1, leaving room for ties). Each phase holds about 24:
    the 12-byte support beside its transpose or its union, then the union
    beside the weights and their own index copy. Under tracemalloc build_graph
    peaked at 25-36 bytes on samplings of 100,000 points and more at k 8-40;
    smaller ones add one block's query arrays."""
    return 40 * n * (k + 1)


def _k_nearest(indptr, values, k: int, dtype) -> np.ndarray:
    """(n, k) `dtype` array of a support's `values` (its columns or distances)
    at each vertex's first k entries, filled one rank at a time."""
    out = np.empty((indptr.size - 1, k), dtype)
    for rank in range(k):
        out[:, rank] = values[indptr[:-1] + rank]
    return out


def knn_edges(s: Sampling, k: int) -> np.ndarray:
    """(n, k) int64 indices of each vertex's k nearest neighbors by chordal distance.

    Self-pairs are excluded. Ties are broken deterministically toward the
    lower index. The result is directed; build_graph symmetrizes by union.
    """
    indptr, cols, _ = knn_support(s, k)
    return _k_nearest(indptr, cols, k, np.int64)


def _heuristic_widths(indptr, dists, k: int) -> dict:
    """Both KERNEL_HEURISTICS widths of a ranked support."""
    d = _k_nearest(indptr, dists, k, np.float64)
    return {"half-mean-square": float(0.5 * np.mean(d**2)), "mean-distance": float(np.mean(d))}


def _width(widths: dict, kind: str) -> float:
    if kind not in KERNEL_HEURISTICS:
        raise InvalidArgumentError(f"unknown heuristic {kind!r}")
    return widths[kind]


def _weights_from_distances(dists: np.ndarray, w: WeightScheme) -> np.ndarray:
    if w.kind == "inverse-distance":
        return 1.0 / dists
    weights = -(dists**2) / (4.0 * w.kernel_width)  # one temporary, then exp in place
    return np.exp(weights, out=weights)


def _union(n: int, indptr, cols, dists, kind: str) -> sp.csr_matrix:
    """Union-symmetrized distance matrix of a directed support (its rows are
    sorted in place). d_ij and d_ji come from the same two points, bit-identical,
    so the union is the directed matrix plus the entries of its transpose that
    it lacks: one disjoint sum, with exact-size arrays. Those entries come from
    the transpose minus the matrix, _BLOCK_ROWS rows at a time, where an edge
    held both ways cancels to an exact zero. The sum would drop zero distances,
    so coincident points are rejected first, with the error of weight `kind`."""
    if np.any(dists < 1e-14):
        if kind == "inverse-distance":
            raise SingularWeightError("coincident points give singular 1/d weights")
        raise InvalidArgumentError("coincident points in sampling")
    a = sp.csr_matrix((dists, cols, indptr), shape=(n, n))
    a.sort_indices()
    at = a.T.tocsr()
    missing = [(at[i:i + _BLOCK_ROWS] - a[i:i + _BLOCK_ROWS]).maximum(0)  # only in the transpose
               for i in range(0, n, _BLOCK_ROWS)]
    del at
    return a + sp.vstack(missing, format="csr")


def _graph(union: sp.csr_matrix, k: int, w: WeightScheme) -> Graph:
    """Graph of weights w on a distance union: its data mapped to weights and
    the degrees summed, on exact-size arrays that the union does not share."""
    a = sp.csr_matrix((_weights_from_distances(union.data, w), union.indices.copy(),
                       union.indptr.copy()), shape=union.shape)
    if not a.data.all():  # Gaussian weights that underflow to 0 are no edge either way round
        a.eliminate_zeros()
        a = a.copy()  # exact-size arrays, not views of the longer ones
    return Graph(union.shape[0], a, np.asarray(a.sum(axis=1)).ravel(), k, w)


def build_graph(s: Sampling, k: int, w: WeightScheme) -> Graph:
    """Weighted kNN graph, union-symmetrized, self-loops excluded.

    The support comes from knn_support, so it is determined by pairwise
    distances alone (k-th-distance ties are all kept).
    """
    return _graph(_union(s.n, *knn_support(s, k), w.kind), k, w)


def laplacian(g: Graph) -> sp.csr_matrix:
    """Combinatorial Laplacian L = D - A (sparse, symmetric, PSD)."""
    lap = (sp.diags(g.degrees) - g.adjacency).tocsr()
    lap.sum_duplicates()
    return lap


class GaussianGraphFamily:
    """kNN support queried and symmetrized once; Gaussian graphs for many
    widths and the heuristic widths all derive from it.

    Kernel-width searches evaluate dozens of widths on one sampling; the
    neighbor sets and distances do not depend on t, so the family keeps the
    union of distances (12 bytes an entry) and both heuristic widths.
    """

    def __init__(self, s: Sampling, k: int):
        self.sampling, self.k = s, k
        indptr, cols, dists = knn_support(s, k)
        self._widths = _heuristic_widths(indptr, dists, k)
        self._union = _union(s.n, indptr, cols, dists, "gaussian")

    def graph(self, t: float) -> Graph:
        return _graph(self._union, self.k, WeightScheme("gaussian", t))

    def laplacian(self, t: float) -> sp.csr_matrix:
        return laplacian(self.graph(t))

    def heuristic_width(self, kind: str = "half-mean-square") -> float:
        """heuristic_kernel_width of this family's sampling and k."""
        return _width(self._widths, kind)


def heuristic_kernel_width(s: Sampling, k: int, kind: str = "half-mean-square") -> float:
    """Data-driven Gaussian kernel width.

    'half-mean-square' is half the average squared chordal distance over
    directed kNN pairs; 'mean-distance' is the plain average distance. Both
    conventions appear in practice, so each is exposed under its own name.

    This runs its own kNN query, so following it with build_graph on the same
    sampling and k queries twice; GaussianGraphFamily(s, k) gives the width
    (heuristic_width) and the graph from one query.
    """
    indptr, _, dists = knn_support(s, k)
    return _width(_heuristic_widths(indptr, dists, k), kind)


# Relative accuracy and safety inflation of largest_eigenvalue, and the
# step cap of its first Lanczos pass.
_EIG_TOL = 1e-6
_EIG_MAX_ITER = 20000


def largest_eigenvalue(L) -> float:
    """Largest eigenvalue of a symmetric PSD matrix (sparse or dense), upper-biased.

    A two-pass Lanczos run from a deterministic start vector. Pass 1 runs the
    three-term recurrence without reorthogonalization and keeps only the
    tridiagonal T_j (alpha, beta). After each step it takes the top
    eigenpair (theta, s) of T_j and stops once beta_j |s_j| <= tol * theta,
    the Lanczos estimate of the Ritz residual, or once beta_j = 0 (an
    invariant subspace). Pass 2 regenerates the same Lanczos vectors from
    the stored alpha and beta and sums the Ritz vector x = sum_i s_i q_i,
    so the basis is never stored: the run holds a few n-vectors.

    The result is certified from x itself: with theta' = x'Lx / x'x and
    r = |L x - theta' x| / |x|, some eigenvalue of L lies within r of
    theta'. That inclusion holds for any nonzero x, so the loss of
    orthogonality that the recurrence suffers can only enlarge r and loosen
    the bound, never break it. Lanczos from a start vector that is not
    orthogonal to the top eigenvector finds the top of the spectrum first,
    in floating point as in exact arithmetic (Paige 1976), so that
    eigenvalue is the largest one and theta' + r bounds it. The result is
    that bound times (1 + 1e-6), which Chebyshev scaling can trust.

    L is first multiplied by the exact power of two that puts its largest
    |entry| in [0.5, 1). For a PSD matrix that entry is on the diagonal, so
    the top eigenvalue is at least 0.5: the recurrence neither underflows
    for tiny L nor overflows for huge L, and the answer scales exactly with
    L. A matrix whose entries are all zero returns 0.

    Raises InvalidArgumentError for a non-square or non-finite matrix, and
    NumericalFailureError, with diagnostics, if pass 1 reaches its step cap.
    """
    from scipy.linalg import eigh_tridiagonal

    if sp.issparse(L):
        L = sp.csr_matrix(L, dtype=np.float64)  # shares the caller's arrays; none is written
        values = L.data
    else:
        L = values = np.asarray(L, dtype=np.float64)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise InvalidArgumentError(f"largest_eigenvalue needs a square matrix, got shape {L.shape}")
    if not np.isfinite(values).all():
        raise InvalidArgumentError("largest_eigenvalue needs a finite matrix")
    n = L.shape[0]
    if n == 0:
        return 0.0
    L = sp.csr_matrix(L)
    amax = float(np.abs(L.data).max(initial=0.0))
    if amax == 0.0:
        return 0.0
    e = int(np.frexp(amax)[1])
    L.data = np.ldexp(L.data, -e)
    q0 = np.cos(np.arange(n, dtype=np.float64) + 0.5)
    q0 /= np.linalg.norm(q0)
    tol = 0.1 * _EIG_TOL

    # Pass 1: alpha and beta only.
    alpha, beta = np.empty(_EIG_MAX_ITER), np.empty(_EIG_MAX_ITER)
    q_prev, q, b = np.zeros(n), q0, 0.0
    for j in range(_EIG_MAX_ITER):
        w = L @ q
        w -= b * q_prev
        a = float(q @ w)
        w -= a * q
        b = float(np.linalg.norm(w))
        alpha[j], beta[j] = a, b
        theta, s = eigh_tridiagonal(alpha[:j + 1], beta[:j], select="i",
                                    select_range=(j, j), check_finite=False)
        theta, s = float(theta[0]), s[:, 0]
        estimate = b * abs(s[j])
        if estimate <= tol * theta or b == 0.0:
            break
        w *= 1.0 / b
        q_prev, q = q, w
    else:
        raise NumericalFailureError(
            "Lanczos iteration for the largest eigenvalue did not converge",
            {"n": n, "nnz": L.nnz, "scale_exponent": e, "tolerance": tol,
             "steps": _EIG_MAX_ITER, "ritz_value": theta, "residual_estimate": estimate},
        )

    # Pass 2: the same vectors again, with the same arithmetic, summed into x.
    x = s[0] * q0
    q_prev, q, b = np.zeros(n), q0, 0.0
    for i in range(j):
        w = L @ q
        w -= b * q_prev
        w -= alpha[i] * q
        b = beta[i]
        w *= 1.0 / b
        q_prev, q = q, w
        x += s[i + 1] * q

    lx = L @ x
    xx = float(x @ x)
    theta = float(x @ lx) / xx
    lx -= theta * x
    res = float(np.linalg.norm(lx)) / np.sqrt(xx)
    return float(np.ldexp((theta + res) * (1.0 + _EIG_TOL), e))
