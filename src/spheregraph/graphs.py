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

from .errors import InvalidArgumentError, NumericalFailureError, SingularWeightError
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


def knn_support(s: Sampling, k: int):
    """Directed edge support (rows, cols, dists): all neighbors within the
    k-th-nearest distance, ties included.

    Including every vertex tied with the k-th distance keeps the support a
    pure function of pairwise distances, so any rotation that permutes the
    sampling permutes the graph exactly. Vertices at tie boundaries may select
    slightly more than k neighbors. Each vertex's neighbors come out ranked by
    (squared distance, index); knn_edges and the heuristic widths read this.
    """
    n = s.n
    if not 1 <= k < n:
        raise InvalidArgumentError(f"need 1 <= k < n, got k={k}, n={n}")
    tree = cKDTree(s.points)
    pad = 8
    while True:
        kq = min(n, k + 1 + pad)
        # each point's search is independent: the result is the same on any number of threads
        dist, idx = tree.query(s.points, k=kq, workers=-1)
        thresh = dist[:, k] * (1.0 + _TIE_REL_TOL)
        if kq == n or not np.any(dist[:, -1] <= thresh):
            break
        pad *= 2  # a tie group straddles the query window; widen it
    keep = (dist <= thresh[:, None]) & (idx != np.arange(n)[:, None])
    rows = np.repeat(np.arange(n, dtype=np.int64), keep.sum(axis=1))
    diffs = s.points[rows] - s.points[idx[keep]]
    d2 = np.full(idx.shape, np.inf)  # dropped entries rank last
    d2[keep] = np.einsum("ij,ij->i", diffs, diffs)
    order = np.lexsort((idx, d2), axis=1)
    d2 = np.take_along_axis(d2, order, axis=1)
    keep = d2 < np.inf
    return rows, np.take_along_axis(idx, order, axis=1)[keep], np.sqrt(d2[keep])


def _k_nearest(support, k: int):
    """(n, k) indices and distances of each vertex's first k support entries."""
    rows, cols, dists = support
    pos = np.flatnonzero(np.diff(rows, prepend=-1))[:, None] + np.arange(k)
    return cols[pos], dists[pos]


def knn_edges(s: Sampling, k: int) -> np.ndarray:
    """(n, k) indices of each vertex's k nearest neighbors by chordal distance.

    Self-pairs are excluded. Ties are broken deterministically toward the
    lower index. The result is directed; build_graph symmetrizes by union.
    """
    return _k_nearest(knn_support(s, k), k)[0]


def _weights_from_distances(dists: np.ndarray, w: WeightScheme) -> np.ndarray:
    if np.any(dists < 1e-14):
        if w.kind == "inverse-distance":
            raise SingularWeightError("coincident points give singular 1/d weights")
        raise InvalidArgumentError("coincident points in sampling")
    if w.kind == "inverse-distance":
        return 1.0 / dists
    return np.exp(-(dists**2) / (4.0 * w.kernel_width))


def _assemble(n: int, rows, cols, vals, k: int, w: WeightScheme) -> Graph:
    a = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    a = a.maximum(a.T)  # union symmetrization; weights are distance-determined
    a.eliminate_zeros()
    degrees = np.asarray(a.sum(axis=1)).ravel()
    return Graph(n, a, degrees, k, w)


def build_graph(s: Sampling, k: int, w: WeightScheme) -> Graph:
    """Weighted kNN graph, union-symmetrized, self-loops excluded.

    The support comes from knn_support, so it is determined by pairwise
    distances alone (k-th-distance ties are all kept).
    """
    rows, cols, dists = knn_support(s, k)
    return _assemble(s.n, rows, cols, _weights_from_distances(dists, w), k, w)


def laplacian(g: Graph) -> sp.csr_matrix:
    """Combinatorial Laplacian L = D - A (sparse, symmetric, PSD)."""
    lap = (sp.diags(g.degrees) - g.adjacency).tocsr()
    lap.sum_duplicates()
    return lap


class GaussianGraphFamily:
    """kNN support computed once; Gaussian graphs for many widths and the
    heuristic widths all derive from it.

    Kernel-width searches evaluate dozens of widths on one sampling; the
    neighbor sets and distances do not depend on t, so they are kept here.
    """

    def __init__(self, s: Sampling, k: int):
        self.sampling = s
        self.k = k
        self._support = knn_support(s, k)

    def graph(self, t: float) -> Graph:
        w = WeightScheme("gaussian", t)
        rows, cols, dists = self._support
        return _assemble(self.sampling.n, rows, cols, _weights_from_distances(dists, w),
                         self.k, w)

    def laplacian(self, t: float) -> sp.csr_matrix:
        return laplacian(self.graph(t))

    def heuristic_width(self, kind: str = "half-mean-square") -> float:
        """heuristic_kernel_width of this family's sampling and k."""
        if kind not in KERNEL_HEURISTICS:
            raise InvalidArgumentError(f"unknown heuristic {kind!r}")
        dist = _k_nearest(self._support, self.k)[1]
        if kind == "half-mean-square":
            return float(0.5 * np.mean(dist**2))
        return float(np.mean(dist))


def heuristic_kernel_width(s: Sampling, k: int, kind: str = "half-mean-square") -> float:
    """Data-driven Gaussian kernel width.

    'half-mean-square' is half the average squared chordal distance over
    directed kNN pairs; 'mean-distance' is the plain average distance. Both
    conventions appear in practice, so each is exposed under its own name.

    This runs its own kNN query, so following it with build_graph on the same
    sampling and k queries twice; GaussianGraphFamily(s, k) gives the width
    (heuristic_width) and the graph from one query.
    """
    return GaussianGraphFamily(s, k).heuristic_width(kind)


# Relative accuracy and safety inflation of largest_eigenvalue, and the
# iteration cap of its Lanczos run.
_EIG_TOL = 1e-6
_EIG_MAX_ITER = 20000


def largest_eigenvalue(L) -> float:
    """Largest eigenvalue of a symmetric PSD matrix (sparse or dense), upper-biased.

    Matrices up to 32 rows are solved densely. Larger ones get one Lanczos
    run (ARPACK, one wanted eigenvalue, deterministic start vector) for the
    top Ritz pair (theta, x) with residual r = L x - theta x. Some eigenvalue
    of L lies within |r| of theta; Lanczos from a start vector that is not
    orthogonal to the top eigenvector converges to the top of the spectrum
    first, so that eigenvalue is the largest one and theta + |r| bounds it.
    The result is that bound times (1 + 1e-6), which Chebyshev scaling can
    trust.

    ARPACK stops when |r| <= tol * max(eps^(2/3), |theta|). The eps^(2/3)
    floor is absolute, so L is first multiplied by the exact power of two
    that puts its largest |entry| in [0.5, 1). For a PSD matrix that entry
    is on the diagonal and the top eigenvalue is at least 0.5, so the test
    is relative, and the answer scales exactly with L (no underflowing
    residual for tiny L, no overflowing one for huge L). A matrix whose
    entries are all zero returns 0.

    Raises NumericalFailureError, with diagnostics, if ARPACK fails or does
    not converge.
    """
    import scipy.sparse.linalg as spla

    n = L.shape[0]
    if n == 0:
        return 0.0
    if n <= 32:
        dense = L.toarray() if sp.issparse(L) else np.asarray(L)
        return float(np.linalg.eigvalsh(dense).max()) * (1.0 + _EIG_TOL)
    L = sp.csr_matrix(L, dtype=np.float64, copy=True)
    amax = float(np.abs(L.data).max(initial=0.0))
    if amax == 0.0:
        return 0.0
    e = int(np.frexp(amax)[1])
    L.data = np.ldexp(L.data, -e)
    v0 = np.cos(np.arange(n, dtype=np.float64) + 0.5)
    tol = 0.1 * _EIG_TOL
    try:
        vals, vecs = spla.eigsh(L, k=1, which="LA", tol=tol, v0=v0, maxiter=_EIG_MAX_ITER)
    except spla.ArpackError as exc:
        raise NumericalFailureError(
            "Lanczos iteration for the largest eigenvalue failed",
            {"n": n, "nnz": L.nnz, "scale_exponent": e, "tolerance": tol,
             "max_iter": _EIG_MAX_ITER, "arpack": str(exc)},
        ) from exc
    theta, x = float(vals[0]), vecs[:, 0]
    res = float(np.linalg.norm(L @ x - theta * x))
    return float(np.ldexp((theta + res) * (1.0 + _EIG_TOL), e))
