"""k-nearest-neighbor graphs on sphere samplings and their combinatorial Laplacians.

Two edge-weight schemes are supported: inverse chordal distance w = 1/|x_i - x_j|
and the Gaussian kernel w = exp(-|x_i - x_j|^2 / (4 t)). The Laplacian is the
combinatorial L = D - A; no normalization is applied.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
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
_BLOCK_ROWS = 1 << 14  # vertices whose symmetrization runs at a time
_KNN_ROWS = 1 << 12  # vertices that one kNN task queries, widens and ranks
_KNN_PAD = 1  # the start window: k + 1 + _KNN_PAD entries a vertex, itself included


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

    Vertices are queried, tie-checked and ranked _KNN_ROWS at a time, one
    task each (_ranked_rows), in rounds of one task per core on the row-chunk
    pool (_run_rows); a sampling of at most _REDUCE_ROWS vertices, or a
    process with one usable core, runs every task on the calling thread. A
    row's query window starts at k + 1 + _KNN_PAD entries and widens only
    while its own tie group straddles it. Each point's search is independent,
    so the support depends on none of the task size, the start window and
    the core count. After each round the calling thread copies the finished
    tasks, in order, into cols and dists: those are allocated once at k + 1
    entries a vertex (doubled if ties need more) and trimmed in place, so no
    per-task pieces are kept and joined.
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
    blocks = [(start, min(n, start + _KNN_ROWS)) for start in range(0, n, _KNN_ROWS)]
    per_round = _cores() if n > _REDUCE_ROWS else 1
    for first in range(0, len(blocks), per_round):
        tasks = blocks[first:first + per_round]
        ranked = _run_rows([(tree, s.points, k, *block) for block in tasks], _ranked_rows)
        for (start, stop), (counts, block_cols, block_dists) in zip(tasks, ranked):
            indptr[start + 1:stop + 1] = indptr[start] + np.cumsum(counts)
            begin, end = indptr[start], indptr[stop]
            if end > len(cols):  # ties gave more than k + 1 neighbours a vertex so far
                for out in (cols, dists):
                    out.resize(2 * end, refcheck=False)
            cols[begin:end], dists[begin:end] = block_cols, block_dists
    for out in (cols, dists):
        out.resize(indptr[-1], refcheck=False)  # in place: the unused tail is given back
    return indptr, cols, dists


def _ranked_rows(tree, points, k: int, start: int, stop: int):
    """Support rows [start, stop) of knn_support as (counts, cols, dists):
    each row's entry count, then its entries ranked by (squared distance,
    index), row after row. The tree query runs on this thread alone."""
    n = len(points)
    x = points[start:stop]
    pad = _KNN_PAD
    kq = min(n, k + 1 + pad)
    dist, idx = tree.query(x, k=kq, workers=1)
    thresh = dist[:, k] * (1.0 + _TIE_REL_TOL)
    wide = np.nonzero(dist[:, -1] <= thresh)[0]
    while kq < n and wide.size:
        # a tie group straddles these rows' window: re-query them alone, wider
        # (the other rows' new columns hold inf, which is never kept)
        pad *= 2
        kq = min(n, k + 1 + pad)
        d, i = tree.query(x[wide], k=kq, workers=1)
        grow = ((0, 0), (0, kq - dist.shape[1]))
        dist, idx = np.pad(dist, grow, constant_values=np.inf), np.pad(idx, grow, constant_values=n)
        dist[wide], idx[wide] = d, i
        thresh[wide] = d[:, k] * (1.0 + _TIE_REL_TOL)
        wide = wide[d[:, -1] <= thresh[wide]]
    keep = (dist <= thresh[:, None]) & (idx != np.arange(start, stop)[:, None])
    # np.take gathers rows about three times faster than fancy indexing
    diffs = np.take(x, np.nonzero(keep)[0], axis=0) - np.take(points, idx[keep], axis=0)
    d2 = np.full(idx.shape, np.inf)  # dropped entries rank last
    d2[keep] = np.einsum("ij,ij->i", diffs, diffs)
    order = np.lexsort((idx, d2), axis=1)
    d2 = np.take_along_axis(d2, order, axis=1)
    keep = d2 < np.inf
    return keep.sum(axis=1), np.take_along_axis(idx, order, axis=1)[keep], np.sqrt(d2[keep])


def _graph_bytes(n: int, k: int) -> int:
    """Estimated peak bytes of the graph layer on n vertices: 40 per vertex
    and neighbor (k + 1, leaving room for ties). Each phase holds about 24:
    the 12-byte support beside its transpose or its union, then the union
    beside the weights and their own index copy. Under tracemalloc build_graph
    peaked at 25-36 bytes on samplings of 100,000 points and more at k 8-40;
    smaller ones add the arrays of one round of kNN tasks, one _KNN_ROWS-row
    task a core (38-43 bytes on HEALPix nside 64 and icosahedral level 6)."""
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


# Row chunks of a graph operator, each a whole number of _REDUCE_ROWS-row
# blocks. Filters and the Lanczos bound run each step of their recurrences as
# one task per chunk on a module thread pool, the first chunk on the calling
# thread. Every row's matvec and vector updates are the same arithmetic in any
# chunk, and reductions run over whole vectors between tasks, so no result
# depends on the number of chunks or on the block size. knn_support ranks its
# row blocks on the same pool, and takes the same route to the calling thread
# alone for an n of at most _REDUCE_ROWS.
_REDUCE_ROWS = 1 << 14
_POOL = None
_POOL_LOCK = threading.Lock()


def _forget_pool() -> None:
    """A forked child has none of its parent's pool threads: it makes its own."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _row_chunks(L, n: int) -> list:
    """(start, stop, rows) chunks of the n x n operator L, one per core, each a
    whole number of _REDUCE_ROWS-row blocks; rows is a CSR matrix of L's rows
    [start, stop) on L's own data and index arrays. A single chunk, with L
    itself as its rows, when n fits one block, one core is usable, or L is
    not a scipy CSR matrix (dense arrays and other operators run whole)."""
    blocks = -(-n // _REDUCE_ROWS)
    count = min(_cores(), blocks)
    if count <= 1 or not (sp.issparse(L) and L.format == "csr"):
        return [(0, n, L)]
    chunks = []
    for i in range(count):
        start = blocks * i // count * _REDUCE_ROWS
        stop = min(n, blocks * (i + 1) // count * _REDUCE_ROWS)
        lo, hi = L.indptr[start], L.indptr[stop]
        # set after construction: the constructor copies a view of less than
        # half its base array
        rows = sp.csr_matrix((stop - start, L.shape[1]), dtype=L.dtype)
        rows.data, rows.indices = L.data[lo:hi], L.indices[lo:hi]
        rows.indptr = L.indptr[start:stop + 1] - lo
        chunks.append((start, stop, rows))
    return chunks


def _run_rows(tasks: list, task) -> list:
    """task(*args) for every args in tasks (row chunks, or one round of
    knn_support's blocks): the first on this thread, the others on the
    module pool. Returns their results, in order, once all have finished."""
    global _POOL
    futures = []
    if len(tasks) > 1:
        with _POOL_LOCK:
            if _POOL is None:
                _POOL = ThreadPoolExecutor(max(1, _cores() - 1), "spheregraph-rows")
        futures = [_POOL.submit(task, *args) for args in tasks[1:]]
    try:
        first = task(*tasks[0])
    finally:
        wait(futures)
    return [first] + [future.result() for future in futures]


def _dot(u, v) -> float:
    """u . v over the whole vectors by np.einsum, which calls no BLAS (whose
    sums depend on its thread count)."""
    return float(np.einsum("i,i->", u, v))


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
    so the basis is never stored: each pass holds three n-vectors and the
    certificate four.

    Each step's matvec runs on L's row chunks (_row_chunks), one task per
    core: pass 1's task also applies the beta q_prev update, and pass 2's
    regenerates each chunk's rows of q and adds them into x. Between tasks,
    on the calling thread, pass 1 applies the alpha q update to the whole
    vector, and every dot product and norm, the start vector's and the
    certificate's included, is one np.einsum over the whole vectors (no
    BLAS call). So alpha, beta and the result depend on L alone, not on
    the number of chunks, the block size or the BLAS thread count.

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
    chunks = _row_chunks(L, n)
    q0 = np.cos(np.arange(n, dtype=np.float64) + 0.5)
    q0 /= math.sqrt(_dot(q0, q0))
    tol = 0.1 * _EIG_TOL

    # Each task writes its rows of w = L q - b q_prev over its rows of q_prev,
    # which no other task reads, and allocates one chunk-sized array.
    def lanczos_matvec(start, stop, rows):
        w = rows @ q
        out = q_prev[start:stop]
        out *= b
        w -= out
        out[...] = w

    # Pass 1: alpha and beta only; q_prev holds w until it is scaled to the next q.
    alpha, beta = np.empty(_EIG_MAX_ITER), np.empty(_EIG_MAX_ITER)
    q_prev, q, b = np.zeros(n), q0.copy(), 0.0
    for j in range(_EIG_MAX_ITER):
        _run_rows(chunks, lanczos_matvec)
        a = _dot(q, q_prev)
        q_prev -= a * q
        b = math.sqrt(_dot(q_prev, q_prev))
        alpha[j], beta[j] = a, b
        theta, s = eigh_tridiagonal(alpha[:j + 1], beta[:j], select="i",
                                    select_range=(j, j), check_finite=False)
        theta, s = float(theta[0]), s[:, 0]
        estimate = b * abs(s[j])
        if estimate <= tol * theta or b == 0.0:
            break
        q_prev *= 1.0 / b
        q_prev, q = q, q_prev
    else:
        raise NumericalFailureError(
            "Lanczos iteration for the largest eigenvalue did not converge",
            {"n": n, "nnz": L.nnz, "scale_exponent": e, "tolerance": tol,
             "steps": _EIG_MAX_ITER, "ritz_value": theta, "residual_estimate": estimate},
        )

    # Pass 2: the same vectors again, with the same arithmetic, summed into x.
    def regenerate(start, stop, rows):
        w = rows @ q
        out = q_prev[start:stop]
        out *= b
        w -= out
        np.multiply(q[start:stop], a, out=out)
        w -= out
        w *= 1.0 / b_next
        out[...] = w
        w *= s_next
        x[start:stop] += w

    x = np.multiply(s[0], q0, out=q)  # pass 1's vectors hold x and the new q_prev
    q_prev.fill(0.0)
    q, b = q0, 0.0
    for i in range(j):
        a, b_next, s_next = alpha[i], beta[i], s[i + 1]
        _run_rows(chunks, regenerate)
        q_prev, q, b = q, q_prev, b_next

    lx = L @ x
    xx = _dot(x, x)
    theta = _dot(x, lx) / xx
    lx -= np.multiply(theta, x, out=q)
    res = math.sqrt(_dot(lx, lx)) / math.sqrt(xx)
    return float(np.ldexp((theta + res) * (1.0 + _EIG_TOL), e))
