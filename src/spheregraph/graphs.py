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
        dist, idx = tree.query(s.points, k=kq)
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
    a.setdiag(0.0)
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
    """
    return GaussianGraphFamily(s, k).heuristic_width(kind)


# Relative accuracy and safety inflation of largest_eigenvalue, its iteration
# cap, and the block size of its block-power fallback.
_EIG_TOL = 1e-6
_EIG_MAX_ITER = 20000
_EIG_BLOCK = 12


def largest_eigenvalue(L) -> float:
    """Largest eigenvalue of a symmetric PSD operator, upper-biased.

    Graph Laplacians on near-uniform samplings have a tightly clustered top
    spectrum, which defeats single-vector power iteration, so the estimate
    comes from Lanczos (deterministic start vector) with a block-power-
    iteration fallback. The residual of the converged Ritz pair is added and
    the result inflated by (1 + 1e-6) so Chebyshev scaling stays valid.
    Raises NumericalFailureError if neither method converges.
    """
    import scipy.sparse.linalg as spla

    n = L.shape[0]
    if n == 0:
        return 0.0
    if sp.issparse(L) and L.nnz == 0:
        return 0.0
    if n <= 32:
        dense = L.toarray() if sp.issparse(L) else np.asarray(L)
        return float(np.linalg.eigvalsh(dense).max()) * (1.0 + _EIG_TOL)
    v0 = np.cos(np.arange(n, dtype=np.float64) + 0.5)
    try:
        k = min(6, n - 1)
        vals, vecs = spla.eigsh(
            L, k=k, which="LA", tol=0.1 * _EIG_TOL, v0=v0,
            ncv=min(n, max(4 * k + 1, 40)), maxiter=_EIG_MAX_ITER,
        )
        i = int(np.argmax(vals))
        theta = float(vals[i])
        res = float(np.linalg.norm(L @ vecs[:, i] - theta * vecs[:, i]))
        return (theta + res) * (1.0 + _EIG_TOL)
    except spla.ArpackError:
        return _block_power_largest(L)


def _block_power_largest(L) -> float:
    n = L.shape[0]
    rng = np.random.default_rng(0x5EED)
    V = np.linalg.qr(rng.standard_normal((n, min(_EIG_BLOCK, n))))[0]
    theta, res = 0.0, np.inf
    for _ in range(_EIG_MAX_ITER):
        W = L @ V
        evals, U = np.linalg.eigh(V.T @ W)
        theta = float(evals[-1])
        res = float(np.linalg.norm(W @ U[:, -1] - theta * (V @ U[:, -1])))
        if theta == 0.0 and np.linalg.norm(W) == 0.0:
            return 0.0
        if res <= _EIG_TOL * abs(theta):
            return (theta + res) * (1.0 + _EIG_TOL)
        V = np.linalg.qr(W)[0]
    raise NumericalFailureError(
        "largest-eigenvalue iteration did not converge",
        {"iterations": _EIG_MAX_ITER, "last_estimate": theta, "residual": res,
         "tolerance": _EIG_TOL},
    )
