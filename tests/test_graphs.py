import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from click.testing import CliRunner
from scipy.spatial import cKDTree
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_neighbors
from spheregraph import cli, errors, graphs
from spheregraph.errors import InvalidArgumentError, NumericalFailureError, SingularWeightError
from spheregraph.graphs import (
    GaussianGraphFamily,
    Graph,
    WeightScheme,
    _weights_from_distances,
    build_graph,
    heuristic_kernel_width,
    knn_edges,
    laplacian,
    largest_eigenvalue,
)
from spheregraph.io import read_sparse_csv, write_sparse_csv
from spheregraph.samplings import (
    Sampling,
    equiangular_sampling,
    healpix_sampling,
    icosahedral_sampling,
    random_uniform_sampling,
)


def two_point_graph(w: float) -> Graph:
    a = sp.coo_matrix((np.array([w, w]), ([0, 1], [1, 0])), shape=(2, 2)).tocsr()
    return Graph(2, a, np.array([w, w]), 1, WeightScheme("inverse-distance"))


class TestKnnEdges:
    def test_cardinality(self):
        nb = knn_edges(healpix_sampling(1), 4)
        assert nb.shape == (12, 4)
        assert not np.any(nb == np.arange(12)[:, None])

    def test_icosahedron_adjacency(self, ico0):
        nb = knn_edges(ico0, 5)
        for i in range(12):
            assert set(nb[i]) == brute_force_neighbors(ico0.points, i, 5)

    def test_matches_exhaustive_scan(self):
        s = equiangular_sampling(2)
        nb = knn_edges(s, 4)
        d = np.linalg.norm(s.points[:, None] - s.points[None, :], axis=2)
        for i in range(s.n):
            mine = np.sort(d[i, nb[i]])
            brute = np.sort(d[i, sorted(brute_force_neighbors(s.points, i, 4))])
            np.testing.assert_allclose(mine, brute, atol=1e-12)

    def test_tie_break_prefers_lower_index(self):
        # a regular square: both antipodal-ring neighbors are equidistant
        s = equiangular_sampling(1)
        nb = knn_edges(s, 2)
        d = np.linalg.norm(s.points[:, None] - s.points[None, :], axis=2)
        for i in range(s.n):
            ranked = sorted((d[i, j], j) for j in range(s.n) if j != i)[:2]
            assert set(nb[i]) == {j for _, j in ranked}

    def test_k_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            knn_edges(healpix_sampling(1), 12)

    def test_support_is_csr(self):
        # row i of the support is cols[indptr[i]:indptr[i + 1]], nearest first
        s, k = icosahedral_sampling(2), 6
        indptr, cols, dists = graphs.knn_support(s, k)
        assert (indptr.dtype, cols.dtype, dists.dtype) == (np.int64, np.int32, np.float64)
        assert indptr.shape == (s.n + 1,) and indptr[0] == 0
        assert indptr[-1] == cols.size == dists.size and np.all(np.diff(indptr) >= k)
        for i in range(s.n):
            row = slice(indptr[i], indptr[i + 1])
            np.testing.assert_allclose(
                dists[row], np.linalg.norm(s.points[cols[row]] - s.points[i], axis=1), rtol=1e-14)
            assert np.all(np.diff(dists[row]) >= 0) and i not in cols[row]
        nb = knn_edges(s, k)
        assert nb.dtype == np.int64
        assert np.array_equal(nb, cols[indptr[:-1, None] + np.arange(k)])

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: healpix_sampling(64), id="healpix-64-ring"),
        pytest.param(lambda: healpix_sampling(64, "nested"), id="healpix-64-nested"),
        pytest.param(lambda: icosahedral_sampling(4), id="icosahedral-4"),
        pytest.param(lambda: equiangular_sampling(32), id="equiangular-32"),
        pytest.param(lambda: random_uniform_sampling(5000, seed=7), id="random-5000"),
    ])
    @pytest.mark.parametrize("k", [8, 40])
    def test_support_independent_of_thread_count(self, monkeypatch, make, k):
        s = make()
        all_cores = graphs.knn_support(s, k)
        workers = []

        class SingleWorkerTree(cKDTree):
            def query(self, x, **kwargs):
                workers.append(kwargs.get("workers"))
                return super().query(x, **{**kwargs, "workers": 1})

        monkeypatch.setattr(graphs, "cKDTree", SingleWorkerTree)
        monkeypatch.setattr(graphs, "_BLOCK_ROWS", 1000)  # and in blocks of 1,000 rows
        one_worker = graphs.knn_support(s, k)
        assert workers and all(w == -1 for w in workers)  # the library asks for every core
        for got, want in zip(all_cores, one_worker):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


TIE_HEAVY = {  # samplings full of distance ties: the `graph` command's options, the sampling
    "healpix-16-ring": (["--scheme", "healpix", "--nside", "16"], lambda: healpix_sampling(16)),
    "healpix-16-nested": (["--scheme", "healpix", "--nside", "16", "--indexing", "nested"],
                          lambda: healpix_sampling(16, "nested")),
    "icosahedral-3": (["--scheme", "icosahedral", "--level", "3"],
                      lambda: icosahedral_sampling(3)),
    "equiangular-24": (["--scheme", "equiangular", "--bandwidth", "24"],
                       lambda: equiangular_sampling(24)),
}


class TestBlocks:
    @pytest.mark.parametrize("k", [8, 40])
    @pytest.mark.parametrize("name", list(TIE_HEAVY))
    def test_block_size_changes_nothing(self, monkeypatch, tmp_path, name, k):
        # tie groups straddle block edges, and some blocks widen their query
        # window while their neighbours do not
        options, make = TIE_HEAVY[name]
        s = make()
        runs = []
        for rows in (s.n, 37):  # one block, then blocks of 37 rows
            monkeypatch.setattr(graphs, "_BLOCK_ROWS", rows)
            support = graphs.knn_support(s, k)
            a = build_graph(s, k, WeightScheme("inverse-distance")).adjacency
            out = tmp_path / f"graph-{rows}.csv"
            result = CliRunner().invoke(cli.main, ["graph", *options, "--k", str(k),
                                                   "--out", str(out)], catch_exceptions=False)
            assert result.exit_code == 0, result.output
            runs.append(([*support, a.data, a.indices, a.indptr], out.read_bytes()))
        (one, one_csv), (blocked, blocked_csv) = runs
        for got, want in zip(blocked, one):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert blocked_csv == one_csv

    def test_memory_per_vertex(self, tmp_path):
        # build_graph then the CSV export at HEALPix nside 64, k 8 (n 49,152), under
        # tracemalloc. The kNN query over all n rows at once peaked at 1,033 bytes
        # per vertex by itself. In blocks the two calls peak near 530: at this size
        # one block is a third of the rows, beside the support's arrays, which
        # are allocated at k + 1 entries a vertex.
        s, k = healpix_sampling(64), 8
        w = WeightScheme("gaussian", heuristic_kernel_width(s, k))
        tracemalloc.start()
        try:
            a = build_graph(s, k, w).adjacency
            write_sparse_csv(a, tmp_path / "graph.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / s.n < 720
        for array in (a.data, a.indices):  # exact-size arrays, not views of larger buffers
            assert array.base is None or array.base.nbytes == array.nbytes

    def test_memory_guard(self, monkeypatch, capsys, tmp_path):
        s, k = healpix_sampling(256), 40  # the graph layer's estimate is 1.2 GiB
        queries = []

        class CountingTree(cKDTree):
            def query(self, x, **kwargs):
                queries.append(len(x))
                return super().query(x, **kwargs)

        monkeypatch.setattr(graphs, "cKDTree", CountingTree)
        monkeypatch.setattr(errors, "_physical_memory_bytes", lambda: 2**30)
        estimate = f"needs about {graphs._graph_bytes(s.n, k) / 2**30:.1f} GiB"
        assert estimate == "needs about 1.2 GiB"
        for call in (lambda: build_graph(s, k, WeightScheme("inverse-distance")),
                     lambda: GaussianGraphFamily(s, k),
                     lambda: graphs.knn_support(s, k)):
            with pytest.raises(InvalidArgumentError, match=estimate):
                call()
        monkeypatch.setattr(sys, "argv", ["spheregraph", "graph", "--scheme", "healpix",
                                          "--nside", "256", "--k", "40",
                                          "--out", str(tmp_path / "graph.csv")])
        with pytest.raises(SystemExit) as info:
            cli.run()
        assert info.value.code == 2
        assert estimate in capsys.readouterr().err
        assert queries == [] and not (tmp_path / "graph.csv").exists()


class TestBuildGraph:
    def test_inverse_distance_formula(self):
        # two vertices at chordal distance exactly 0.5 (plus two far-away fillers)
        theta = 2.0 * np.arcsin(0.25)
        pts = np.array([
            [0.0, 0.0, 1.0],
            [np.sin(theta), 0.0, np.cos(theta)],
            [0.0, np.sin(2.0), np.cos(2.0)],
            [np.sin(2.5), 0.0, np.cos(2.5)],
        ])
        s = Sampling(pts, "custom", 4)
        g = build_graph(s, 1, WeightScheme("inverse-distance"))
        assert abs(g.adjacency[0, 1] - 2.0) < 1e-12

    def test_weight_values(self, healpix4_ring):
        g = build_graph(healpix4_ring, 6, WeightScheme("inverse-distance"))
        i, j = g.adjacency.nonzero()[0][0], g.adjacency.nonzero()[1][0]
        dist = np.linalg.norm(healpix4_ring.points[i] - healpix4_ring.points[j])
        assert abs(g.adjacency[i, j] - 1.0 / dist) < 1e-14

        t = 0.25
        g = build_graph(healpix4_ring, 6, WeightScheme("gaussian", t))
        dist = np.linalg.norm(healpix4_ring.points[i] - healpix4_ring.points[j])
        assert abs(g.adjacency[i, j] - np.exp(-dist**2 / (4 * t))) < 1e-14

    def test_gaussian_unit_distance_quarter_width(self):
        assert abs(np.exp(-(1.0**2) / (4 * 0.25)) - np.exp(-1.0)) < 1e-15

    def test_dense_oracle_healpix8(self, healpix8_ring):
        s = healpix8_ring
        k = 8
        t = heuristic_kernel_width(s, k)
        g = build_graph(s, k, WeightScheme("gaussian", t))
        # dense brute-force construction of the same tie-inclusive union support
        d = np.linalg.norm(s.points[:, None] - s.points[None, :], axis=2)
        full = np.exp(-(d**2) / (4 * t))
        np.fill_diagonal(full, 0.0)
        support = np.zeros((s.n, s.n), dtype=bool)
        for i in range(s.n):
            nonself = np.sort(d[i][np.arange(s.n) != i])
            thresh = nonself[k - 1] * (1 + 1e-12)
            for j in range(s.n):
                if j != i and d[i, j] <= thresh:
                    support[i, j] = support[j, i] = True
        expected = np.where(support, full, 0.0)
        np.testing.assert_allclose(g.adjacency.toarray(), expected, atol=1e-12)

    def test_support_is_distance_determined(self):
        # a rotation that permutes the sampling must permute the graph exactly
        from spheregraph.samplings import rotation_permutation, z_rotation_matrix

        for nside, k in ((2, 8), (4, 8), (4, 7), (8, 20)):
            s = healpix_sampling(nside)
            perm = rotation_permutation(s, z_rotation_matrix(np.pi / 2))
            a = build_graph(s, k, WeightScheme("inverse-distance")).adjacency.toarray()
            assert np.abs(a[np.ix_(perm, perm)] - a).max() < 1e-12

    def test_sparsity_bound(self):
        for s, k in ((healpix_sampling(4), 8), (healpix_sampling(8), 8),
                     (healpix_sampling(8), 20), (equiangular_sampling(8), 4),
                     (icosahedral_sampling(2), 6)):
            g = build_graph(s, k, WeightScheme("inverse-distance"))
            assert g.adjacency.nnz <= 2 * k * s.n

    def test_symmetry_and_invariants(self):
        for s, k in ((healpix_sampling(2), 8), (icosahedral_sampling(1), 5)):
            g = build_graph(s, k, WeightScheme("gaussian", heuristic_kernel_width(s, k)))
            assert (g.adjacency != g.adjacency.T).nnz == 0
            assert np.all(g.adjacency.diagonal() == 0.0)
            assert np.all(g.adjacency.data > 0)
            assert g.adjacency.nnz <= 2 * k * s.n
            np.testing.assert_allclose(
                g.degrees, np.asarray(g.adjacency.sum(axis=1)).ravel(), rtol=1e-12
            )

    def test_every_vertex_keeps_k_nearest(self, healpix4_ring):
        # union symmetrization only adds edges: the k nearest of each vertex stay
        g = build_graph(healpix4_ring, 6, WeightScheme("inverse-distance"))
        nb = knn_edges(healpix4_ring, 6)
        for i in range(healpix4_ring.n):
            assert set(nb[i]) <= set(g.adjacency[i].indices)

    def test_coincident_points_inverse_distance(self):
        pts = np.array([[0, 0, 1.0], [0, 0, 1.0], [1, 0, 0.0], [0, 1, 0.0]])
        s = Sampling(pts, "custom", 4)
        with pytest.raises(SingularWeightError):
            build_graph(s, 2, WeightScheme("inverse-distance"))

    def test_weight_scheme_validation(self):
        with pytest.raises(InvalidArgumentError):
            WeightScheme("gaussian")
        with pytest.raises(InvalidArgumentError):
            WeightScheme("gaussian", -1.0)
        with pytest.raises(InvalidArgumentError):
            WeightScheme("inverse-distance", 0.3)

    @given(st.floats(0.05, 1.9), st.floats(0.05, 1.9), st.floats(1e-3, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_gaussian_weight_monotone_in_distance(self, d1, d2, t):
        dists = np.array(sorted((d1, d2)))
        near, far = _weights_from_distances(dists, WeightScheme("gaussian", t))
        assert near >= far
        # exp rounds, so exponent arguments a few ulps apart (or weights in
        # the subnormal range) may tie; beyond 4 eps apart the exact ratio
        # exp(gap) exceeds the rounding of both weights
        near_arg, far_arg = -(dists**2) / (4.0 * t)
        if near_arg - far_arg > 4 * np.finfo(float).eps and far >= np.finfo(float).tiny:
            assert near > far


class TestLaplacian:
    def test_single_edge(self):
        lap = laplacian(two_point_graph(0.7)).toarray()
        np.testing.assert_allclose(lap, [[0.7, -0.7], [-0.7, 0.7]], atol=0)

    def test_annihilates_constants(self, healpix8_ring):
        g = build_graph(healpix8_ring, 8, WeightScheme("inverse-distance"))
        lap = laplacian(g)
        ones = np.ones(healpix8_ring.n)
        row_scale = np.abs(lap).sum(axis=1).max()
        assert np.abs(lap @ ones).max() < 1e-10 * row_scale

    def test_psd_dense_oracle(self):
        s = healpix_sampling(2)
        lap = laplacian(build_graph(s, 8, WeightScheme("gaussian", heuristic_kernel_width(s, 8))))
        eigs = np.linalg.eigvalsh(lap.toarray())
        assert eigs.min() >= -1e-9

    def test_psd_random_quadratic_forms(self, healpix4_ring):
        lap = laplacian(build_graph(healpix4_ring, 8, WeightScheme("inverse-distance")))
        rng = np.random.default_rng(0)
        for _ in range(100):
            f = rng.standard_normal(healpix4_ring.n)
            assert f @ (lap @ f) >= -1e-10 * (f @ f)

    def test_sparse_csv_round_trip(self, tmp_path):
        s = healpix_sampling(2)
        lap = laplacian(build_graph(s, 4, WeightScheme("inverse-distance")))
        path = tmp_path / "lap.csv"
        write_sparse_csv(lap, path)
        first = path.read_text().splitlines()[0]
        assert first == f"{s.n},{lap.nnz}"
        back = read_sparse_csv(path)
        assert (back != lap).nnz == 0


class TestHeuristicKernelWidth:
    def test_equal_distances(self, ico0):
        # all icosahedron edges have the same length d: t = d^2 / 2
        d = np.linalg.norm(ico0.points[0] - ico0.points[1])
        t = heuristic_kernel_width(ico0, 5)
        assert abs(t - d * d / 2.0) < 1e-14

    def test_direct_recomputation(self, healpix8_ring):
        k = 8
        t = heuristic_kernel_width(healpix8_ring, k)
        nb = knn_edges(healpix8_ring, k)
        total = 0.0
        for i in range(healpix8_ring.n):
            for j in nb[i]:
                total += np.sum((healpix8_ring.points[i] - healpix8_ring.points[j]) ** 2)
        expected = 0.5 * total / (healpix8_ring.n * k)
        assert abs(t - expected) < 1e-12

    def test_mean_distance_variant(self, healpix8_ring):
        t_hms = heuristic_kernel_width(healpix8_ring, 8, "half-mean-square")
        t_md = heuristic_kernel_width(healpix8_ring, 8, "mean-distance")
        assert t_md > t_hms > 0

    def test_unknown_kind(self, healpix8_ring):
        with pytest.raises(InvalidArgumentError):
            heuristic_kernel_width(healpix8_ring, 8, "median")


class TestLargestEigenvalue:
    def test_two_vertex_analytic(self):
        lam = largest_eigenvalue(laplacian(two_point_graph(0.7)))
        assert abs(lam - 1.4) <= 1.4 * 2e-6

    @pytest.mark.parametrize("sampling, k, kind", [
        (lambda: healpix_sampling(2), 8, "gaussian"),
        (lambda: icosahedral_sampling(2), 8, "gaussian"),
        (lambda: equiangular_sampling(8), 20, "inverse-distance"),
        (lambda: random_uniform_sampling(300, seed=0), 40, "gaussian"),
        (lambda: healpix_sampling(4, "nested"), 8, "gaussian"),
        (lambda: healpix_sampling(8), 40, "gaussian"),
        (lambda: healpix_sampling(16), 40, "gaussian"),
        (lambda: healpix_sampling(1), 8, "gaussian"),
    ], ids=["healpix-ring-2", "icosahedral-2", "equiangular-8", "random-300", "healpix-nested-4",
            "healpix-ring-8-k40", "healpix-ring-16-k40", "healpix-ring-1"])
    def test_dense_oracle(self, sampling, k, kind):
        s = sampling()
        w = WeightScheme(kind, heuristic_kernel_width(s, k) if kind == "gaussian" else None)
        lap = laplacian(build_graph(s, k, w))
        lam = largest_eigenvalue(lap)
        dense = np.linalg.eigvalsh(lap.toarray()).max()
        assert abs(lam - dense) < 1e-5 * dense
        assert lam >= dense

    @pytest.mark.parametrize("matrix", [
        lambda: 3.0 * sp.identity(40, format="csr"),
        lambda: sp.diags(np.linspace(0.5, 7.0, 40)).tocsr(),
        lambda: np.array([[2.0]]),
        lambda: 3.0 * np.eye(3),
        lambda: sp.diags(np.arange(1.0, 33.0)).tocsr(),
        lambda: sp.block_diag([
            laplacian(build_graph(healpix_sampling(2), 8, WeightScheme("inverse-distance"))),
            laplacian(build_graph(icosahedral_sampling(1), 6, WeightScheme("inverse-distance"))),
        ]).tocsr(),
    ], ids=["scaled-identity", "distinct-diagonal", "one-by-one", "scaled-identity-3",
            "distinct-diagonal-32", "two-components"])
    def test_exact_breakdown(self, matrix):
        # Krylov spaces that close within n steps (beta = 0 in exact arithmetic);
        # small matrices take the same Lanczos route as large ones
        lap = matrix()
        lam = largest_eigenvalue(lap)
        dense = np.linalg.eigvalsh(lap.toarray() if sp.issparse(lap) else lap).max()
        assert abs(lam - dense) < 1e-5 * dense
        assert lam >= dense

    @pytest.mark.parametrize("c", [1e-300, 1e-20, 1.0, 1e200])
    def test_power_of_two_scale(self, c):
        s = healpix_sampling(4)
        lap = laplacian(build_graph(s, 8, WeightScheme("gaussian", heuristic_kernel_width(s, 8))))
        top = np.linalg.eigvalsh(lap.toarray()).max()
        lam = largest_eigenvalue(c * lap)
        assert c * top <= lam <= c * top * (1 + 1e-5)

    @pytest.mark.parametrize("zero", [
        sp.csr_matrix((40, 40)),
        np.zeros((40, 40)),
        sp.csr_matrix((np.zeros(40), np.arange(40), np.arange(41)), shape=(40, 40)),
        np.zeros((5, 5)),
    ], ids=["empty-csr", "dense", "explicit-zero-csr", "dense-5"])
    def test_zero_matrix(self, zero):
        assert largest_eigenvalue(zero) == 0.0

    def test_caller_matrix_untouched(self):
        s = healpix_sampling(8)
        lap = laplacian(build_graph(s, 8, WeightScheme("gaussian", heuristic_kernel_width(s, 8))))
        arrays = (lap.data, lap.indices, lap.indptr)
        copies = [x.copy() for x in arrays]
        lam = largest_eigenvalue(lap)
        assert lam == largest_eigenvalue(lap.copy())
        for x, before, copy in zip((lap.data, lap.indices, lap.indptr), arrays, copies):
            assert x is before and np.array_equal(x, copy)

    def test_no_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(graphs, "_EIG_MAX_ITER", 3)
        lap = laplacian(build_graph(healpix_sampling(4), 8, WeightScheme("inverse-distance")))
        with pytest.raises(NumericalFailureError) as info:
            largest_eigenvalue(lap)
        diag = info.value.diagnostics
        assert (diag["n"], diag["nnz"], diag["steps"]) == (192, lap.nnz, 3)
        assert diag["scale_exponent"] == int(np.frexp(abs(lap.data).max())[1])
        assert diag["residual_estimate"] > diag["tolerance"] * diag["ritz_value"] > 0

    @pytest.mark.parametrize("matrix", [
        lambda: np.ones((10, 11)),
        lambda: sp.csr_matrix((40, 41)),
        lambda: np.ones(40),
        lambda: np.where(np.eye(10) > 0, np.nan, 0.0),
        lambda: sp.csr_matrix(np.where(np.eye(10) > 0, np.inf, 0.0)),
        lambda: sp.diags(np.r_[np.ones(39), np.nan]).tocsr(),
        lambda: np.diag(np.r_[np.ones(39), -np.inf]),
    ], ids=["non-square-dense", "non-square-csr", "vector", "nan-dense-10", "inf-csr-10",
            "nan-csr-40", "inf-dense-40"])
    def test_invalid_matrix_rejected(self, matrix):
        with pytest.raises(InvalidArgumentError):
            largest_eigenvalue(matrix())


class TestGaussianGraphFamily:
    @pytest.mark.parametrize("k", [8, 40])
    @pytest.mark.parametrize("name", list(TIE_HEAVY))
    def test_matches_build_graph(self, name, k):
        s = TIE_HEAVY[name][1]()
        fam = GaussianGraphFamily(s, k)
        t_h = fam.heuristic_width()
        dmax2 = float(graphs.knn_support(s, k)[2].max()) ** 2
        # the heuristic widths, then widths where the longest edges' weights,
        # exp(-800) and exp(-1000), underflow to 0
        for t in (t_h, fam.heuristic_width("mean-distance"), dmax2 / 3200, dmax2 / 4000):
            g, h = fam.graph(t), build_graph(s, k, WeightScheme("gaussian", t))
            for got, want in ((g.adjacency.data, h.adjacency.data),
                              (g.adjacency.indices, h.adjacency.indices),
                              (g.adjacency.indptr, h.adjacency.indptr), (g.degrees, h.degrees)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            for array in (g.adjacency.data, g.adjacency.indices):  # exact-size arrays
                assert array.base is None or array.base.nbytes == array.nbytes
        assert g.adjacency.nnz < fam.graph(t_h).adjacency.nnz  # some weights did underflow
        assert (g.adjacency != g.adjacency.T).nnz == 0

    def test_widths_reuse_the_union(self, monkeypatch):
        s = healpix_sampling(16)
        fam = GaussianGraphFamily(s, 8)
        first = fam.graph(0.01).adjacency
        want = [array.copy() for array in (first.data, first.indices, first.indptr)]
        for array in (first.indices, first.indptr):
            array[:] = 0  # the adjacency's index arrays are its own, not the family's

        def forbidden(name):
            def fail(*args, **kwargs):
                raise AssertionError(f"{name} called after the family was built")
            return fail

        monkeypatch.setattr(graphs, "cKDTree", forbidden("cKDTree"))
        monkeypatch.setattr(graphs, "knn_support", forbidden("knn_support"))
        for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix):
            monkeypatch.setattr(cls, "transpose", forbidden(f"{cls.__name__}.transpose"))
        for t in (1e-4, 1e-3, fam.heuristic_width(), 0.1, 0.01):
            a = fam.graph(t).adjacency
        for got, array in zip((a.data, a.indices, a.indptr), want):
            assert got.tobytes() == array.tobytes()
