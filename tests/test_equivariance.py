import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from spheregraph import equivariance
from spheregraph.equivariance import (
    EquivarianceConfig,
    SweepEngine,
    equivariance_error,
    equivariance_sweep,
    extended_equivariance_check,
    extended_laplacian_apply,
    fit_power_law,
    mean_equivariance_error,
    optimize_kernel_width,
)
from spheregraph.errors import InvalidArgumentError, UndefinedNormalizationError
from spheregraph.graphs import (
    GaussianGraphFamily,
    WeightScheme,
    build_graph,
    heuristic_kernel_width,
    laplacian,
)
from spheregraph.harmonics import (
    Rotation,
    RotationOperator,
    degree_slice,
    evaluate_basis,
    random_degree_signal,
    random_rotation,
)
from spheregraph.samplings import (
    equiangular_sampling,
    healpix_sampling,
    icosahedral_sampling,
    random_uniform_sampling,
    reliable_band,
    rotation_permutation,
    z_rotation_matrix,
)


@pytest.fixture(scope="module")
def hp4_setup():
    s = healpix_sampling(4)
    t = heuristic_kernel_width(s, 8)
    lap = laplacian(build_graph(s, 8, WeightScheme("gaussian", t)))
    return s, lap


class TestEquivarianceError:
    def test_identity_rotation_is_exact_zero(self, hp4_setup):
        s, lap = hp4_setup
        f = random_degree_signal(s, 3, 0)
        assert equivariance_error(lap, lambda v: v, f) < 1e-16

    def test_scale_invariance(self, hp4_setup):
        s, lap = hp4_setup
        perm = rotation_permutation(s, z_rotation_matrix(np.pi / 2))
        op = RotationOperator(s, random_rotation(3), 8)
        f = random_degree_signal(s, 4, 1)
        for R in (lambda v: v[perm], op):
            assert equivariance_error(lap, R, f) == pytest.approx(
                equivariance_error(lap, R, 3.0 * f), rel=1e-12
            )

    @given(st.floats(-1e3, 1e3).filter(lambda c: abs(c) > 1e-6))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance_property(self, c):
        s = healpix_sampling(2)
        lap = laplacian(build_graph(s, 6, WeightScheme("inverse-distance")))
        perm = rotation_permutation(s, z_rotation_matrix(np.pi / 2))
        f = random_degree_signal(s, 2, 5)
        base = equivariance_error(lap, lambda v: v[perm], f)
        scaled = equivariance_error(lap, lambda v: v[perm], c * f)
        assert scaled == pytest.approx(base, rel=1e-9, abs=1e-30)

    @pytest.mark.parametrize("c", [1e-20, 1.0, 1e20])
    def test_scale_invariance_in_laplacian(self, hp4_setup, c):
        s, lap = hp4_setup
        op = RotationOperator(s, random_rotation(3), 8)
        f = random_degree_signal(s, 4, 1)
        assert equivariance_error(c * lap, op, f) == pytest.approx(
            equivariance_error(lap, op, f), rel=1e-12
        )

    def test_automorphism_exactness(self, hp4_setup):
        s, lap = hp4_setup
        perm = rotation_permutation(s, z_rotation_matrix(np.pi / 2))
        f = random_degree_signal(s, 3, 7)
        assert equivariance_error(lap, lambda v: v[perm], f) < 1e-10

    def test_constant_signal_rejected(self, hp4_setup):
        s, lap = hp4_setup
        with pytest.raises(UndefinedNormalizationError):
            equivariance_error(lap, lambda v: v, np.ones(s.n))

    def test_accepts_matrix_operator(self, hp4_setup):
        s, lap = hp4_setup
        perm = rotation_permutation(s, z_rotation_matrix(np.pi / 2))
        P = np.eye(s.n)[perm]
        f = random_degree_signal(s, 2, 9)
        assert equivariance_error(lap, P, f) < 1e-10


class TestMeanEquivarianceError:
    def test_seed_ids_pinned(self):
        # every cell's seed substream hashes these ids: changing one redraws its cells
        assert equivariance._SCHEME_IDS == {"healpix-ring": 0, "healpix-nested": 1,
                                            "equiangular": 2, "icosahedral": 3,
                                            "random": 4, "custom": 5}
        assert equivariance._WEIGHT_IDS == {"inverse-distance": 0, "gaussian": 1}

    def test_degree_zero_rejected(self, hp4_setup):
        s, _ = hp4_setup
        cfg = EquivarianceConfig(2, 2, 0, 8)
        with pytest.raises(InvalidArgumentError):
            mean_equivariance_error(s, 8, WeightScheme("inverse-distance"), 0, cfg)

    def test_degree_beyond_band_rejected(self, hp4_setup):
        s, _ = hp4_setup
        cfg = EquivarianceConfig(2, 2, 0, 8)
        with pytest.raises(InvalidArgumentError):
            mean_equivariance_error(s, 8, WeightScheme("inverse-distance"), 12, cfg)

    def test_deterministic(self, hp4_setup):
        s, _ = hp4_setup
        cfg = EquivarianceConfig(3, 3, 11, 9)
        w = WeightScheme("gaussian", 0.02)
        a = mean_equivariance_error(s, 8, w, 3, cfg)
        b = mean_equivariance_error(s, 8, w, 3, cfg)
        assert a == b

    @pytest.mark.parametrize("sampling, lmax", [
        pytest.param(lambda: healpix_sampling(4, "ring"), 11, id="healpix-ring"),
        pytest.param(lambda: healpix_sampling(4, "nested"), 11, id="healpix-nested"),
        pytest.param(lambda: equiangular_sampling(8), 7, id="equiangular"),
        pytest.param(lambda: icosahedral_sampling(2), 11, id="icosahedral"),
    ])
    def test_matches_per_draw_oracle(self, sampling, lmax):
        # the blocked real coefficient-space path must average the direct
        # per-draw metric (pixel-space commutator through RotationOperator)
        s = sampling()
        cfg = EquivarianceConfig(4, 3, 123, lmax)
        w = WeightScheme("gaussian", 0.02)
        engine = SweepEngine(s, lmax)
        fast = mean_equivariance_error(s, 8, w, 3, cfg, engine=engine)
        lap = laplacian(build_graph(s, 8, w))
        draws = engine.draws(8, "gaussian", 3, cfg)
        errs = []
        for g in draws.rotations:
            op = RotationOperator(s, g, lmax, plan=engine.plan)
            for i in range(draws.signals.shape[1]):
                f = engine.plan.basis[:, degree_slice(3)] @ draws.signals[:, i]
                errs.append(equivariance_error(lap, op, f))
        assert fast.samples == len(errs)
        assert fast.mean == pytest.approx(np.mean(errs), rel=1e-6)
        assert fast.std == pytest.approx(np.std(errs, ddof=1), rel=1e-5)

    @pytest.mark.parametrize("c", [1e-20, 1.0, 1e20])
    def test_cell_error_scale_invariance_in_laplacian(self, hp4_setup, c):
        s, lap = hp4_setup
        engine = SweepEngine(s, 11)
        draws = engine.draws(8, "gaussian", 3, EquivarianceConfig(4, 3, 17, 11))
        base = engine.cell_error(engine.degree_ops(lap, 3), draws, 3)
        scaled = engine.cell_error(engine.degree_ops(c * lap, 3), draws, 3)
        assert scaled.samples == base.samples == 12
        assert scaled.mean == pytest.approx(base.mean, rel=1e-12)

    @pytest.mark.parametrize("c", [1e-20, 1.0, 1e20])
    @pytest.mark.parametrize("l", [1, 3, 5])
    def test_scaled_identity_commutes_to_ridge_level(self, hp4_setup, c, l):
        # c I commutes with every rotation; what is left is the analysis
        # ridge (1e-12 relative), squared, and it must not depend on c
        s, _ = hp4_setup
        engine = SweepEngine(s, 11)
        ops = engine.degree_ops(c * scipy.sparse.identity(s.n, format="csr"), l)
        res = engine.cell_error(ops, engine.draws(8, "gaussian", l, EquivarianceConfig(seed=3)), l)
        assert res.samples == 100
        assert res.mean < 1e-20

    def test_cell_error_degree_beyond_ops_rejected(self, hp4_setup):
        s, lap = hp4_setup
        engine = SweepEngine(s, 11)
        ops = engine.degree_ops(lap, 3)
        with pytest.raises(InvalidArgumentError, match="max degree 3"):
            engine.cell_error(ops, engine.draws(8, "gaussian", 4, EquivarianceConfig()), 4)

    @pytest.mark.parametrize("make, k", [(lambda: healpix_sampling(4), 8),
                                         (lambda: healpix_sampling(8), 20)])
    def test_first_and_repeated_use_agree(self, make, k):
        # the first cell_error on a draw set rotates through the Wigner
        # factors, later ones through the formed block stacks
        s = make()
        engine = SweepEngine(s, reliable_band(s))
        lap = laplacian(build_graph(s, k, WeightScheme("gaussian", heuristic_kernel_width(s, k))))
        ops = engine.degree_ops(lap, 5)
        draws = engine.draws(k, "gaussian", 5, EquivarianceConfig(seed=5))
        first = engine.cell_error(ops, draws, 5)
        again = engine.cell_error(ops, draws, 5)
        assert again.samples == first.samples
        assert again.mean == pytest.approx(first.mean, rel=1e-12)
        assert again.std == pytest.approx(first.std, rel=1e-12)

    def test_samples_counted(self, hp4_setup):
        s, _ = hp4_setup
        cfg = EquivarianceConfig(5, 4, 2, 9)
        res = mean_equivariance_error(s, 8, WeightScheme("inverse-distance"), 2, cfg)
        assert res.samples == 20
        assert res.mean >= 0 and res.std >= 0


class TestOptimizeKernelWidth:
    def test_positive_and_beats_heuristic(self):
        s = healpix_sampling(4)
        cfg = EquivarianceConfig(4, 4, 21, 11)
        engine = SweepEngine(s, 11)
        degrees = [2, 3, 5]
        t_opt = optimize_kernel_width(s, 8, degrees, cfg, engine=engine)
        assert t_opt > 0
        t_h = heuristic_kernel_width(s, 8)
        assert t_opt < t_h  # the heuristic over-estimates

        def objective(t):
            ops = engine.degree_ops(laplacian(build_graph(s, 8, WeightScheme("gaussian", t))), 5)
            return np.mean([
                engine.cell_error(ops, engine.draws(8, "gaussian", l, cfg), l).mean
                for l in degrees
            ])

        assert objective(t_opt) <= objective(t_h)

    def test_empty_degrees_rejected(self):
        s = healpix_sampling(2)
        with pytest.raises(InvalidArgumentError):
            optimize_kernel_width(s, 4, [], EquivarianceConfig(2, 2, 0, 5))

    def test_prebuilt_family(self):
        s = healpix_sampling(2)
        cfg = EquivarianceConfig(2, 2, 0, 5)
        family = GaussianGraphFamily(s, 4)
        assert optimize_kernel_width(s, 4, [2], cfg, family=family) == \
            optimize_kernel_width(s, 4, [2], cfg)
        with pytest.raises(InvalidArgumentError):
            optimize_kernel_width(s, 5, [2], cfg, family=family)
        with pytest.raises(InvalidArgumentError):
            optimize_kernel_width(healpix_sampling(2), 4, [2], cfg, family=family)

    def test_engine_of_other_sampling_rejected(self):
        s = healpix_sampling(2)
        engine = SweepEngine(healpix_sampling(2), 5)
        with pytest.raises(InvalidArgumentError, match="engine"):
            optimize_kernel_width(s, 4, [2], EquivarianceConfig(2, 2, 0, 5), engine=engine)

    def test_search_calls_nothing_in_scipy_linalg(self, monkeypatch):
        # numpy and scipy each load their own OpenBLAS with its own thread
        # pool; once the plan is built, the objective loop stays on numpy's
        s = healpix_sampling(4)
        band = reliable_band(s)
        engine = SweepEngine(s, band)

        def forbidden(*args, **kwargs):
            raise AssertionError("scipy.linalg called after the plan was built")

        for name in scipy.linalg.__all__:
            obj = getattr(scipy.linalg, name)
            if callable(obj) and not isinstance(obj, type):
                monkeypatch.setattr(scipy.linalg, name, forbidden)
        degrees = list(range(1, min(15, band) + 1))
        assert optimize_kernel_width(s, 8, degrees, EquivarianceConfig(), engine=engine) > 0

    @pytest.mark.parametrize("make, k", [
        # not unimodal: a second basin below a bump near t_h/21
        (lambda: equiangular_sampling(8), 8),
        (lambda: healpix_sampling(2), 4),
        (lambda: icosahedral_sampling(2), 8),
        (lambda: random_uniform_sampling(300, 0), 8),
    ], ids=["equiangular8-k8", "healpix2-k4", "icosahedral2-k8", "random300-k8"])
    def test_search_beats_fine_grid(self, make, k):
        s = make()
        band = reliable_band(s)
        degrees = list(range(1, min(15, band) + 1))
        cfg = EquivarianceConfig()
        engine = SweepEngine(s, band)
        family = GaussianGraphFamily(s, k)
        calls = []
        degree_ops = engine.degree_ops

        def counted(L, max_degree):
            calls.append(max_degree)
            return degree_ops(L, max_degree)

        engine.degree_ops = counted
        t_opt = optimize_kernel_width(s, k, degrees, cfg, engine=engine, family=family)
        assert len(calls) <= 21
        draws = {l: engine.draws(k, "gaussian", l, cfg) for l in degrees}

        def objective(t):
            ops = degree_ops(family.laplacian(t), max(degrees))
            return np.mean([engine.cell_error(ops, draws[l], l).mean for l in degrees])

        t_h = family.heuristic_width()
        grid_min = min(objective(t) for t in np.geomspace(t_h / 100.0, 100.0 * t_h, 49))
        assert objective(t_opt) <= grid_min * (1.0 + 1e-9)

    def test_optimal_sweep_draws_each_cell_once(self, monkeypatch):
        # the final pass at t_opt reuses the search's draws
        calls = []
        draws = SweepEngine.draws

        def counted(engine, k, weight_kind, l, cfg):
            calls.append(l)
            return draws(engine, k, weight_kind, l, cfg)

        monkeypatch.setattr(SweepEngine, "draws", counted)
        samplings = [healpix_sampling(4), healpix_sampling(8)]
        rows = equivariance_sweep(samplings, [8], "gaussian", "optimal", range(1, 16),
                                  EquivarianceConfig(2, 2, 0))
        assert len(rows) == 11 + 15
        assert len(calls) == len(rows)

    def test_edge_minimum_warns(self):
        # equiangular b = 4, k = 8: the error keeps falling up to 100 t_h
        s = equiangular_sampling(4)
        family = GaussianGraphFamily(s, 8)
        with pytest.warns(UserWarning, match="bracket edge"):
            t = optimize_kernel_width(s, 8, [1, 2, 3], EquivarianceConfig(seed=42), family=family)
        assert abs(np.log(t / (100.0 * family.heuristic_width()))) <= 1e-3


class TestFitPowerLaw:
    def test_exact_synthetic(self):
        n = np.array([10.0, 100.0, 1000.0, 10000.0])
        pairs = np.column_stack([n, 4.0 * n**-0.3])
        beta, pref, r2 = fit_power_law(pairs)
        assert beta == pytest.approx(-0.3, abs=1e-10)
        assert pref == pytest.approx(4.0, rel=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-10)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        n = np.array([16.0, 64.0, 256.0, 1024.0])
        pairs = np.column_stack([n, 2.0 * n**-0.7 * np.exp(rng.normal(0, 0.05, 4))])
        direct = fit_power_law(pairs)
        shuffled = fit_power_law(pairs[[2, 0, 3, 1]])
        assert direct == shuffled

    def test_too_few_points(self):
        with pytest.raises(InvalidArgumentError):
            fit_power_law([(10.0, 1.0), (100.0, 0.5)])

    def test_one_distinct_n_rejected(self):
        with pytest.raises(InvalidArgumentError, match="distinct n"):
            fit_power_law([(48.0, 0.3), (48.0, 0.2), (48.0, 0.25)])

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidArgumentError):
            fit_power_law([(10.0, 1.0), (100.0, 0.5), (1000.0, -0.1)])


class TestExtendedLaplacian:
    def test_constant_is_exactly_zero(self):
        s = healpix_sampling(4)
        y = np.array([0.0, 0.0, 1.0])
        assert extended_laplacian_apply(s, 0.1, np.full(s.n, 3.3), y, 3.3) == 0.0

    def test_brute_force_double_loop_oracle(self):
        s = healpix_sampling(8)
        rng = np.random.default_rng(4)
        f = rng.standard_normal(s.n)
        probes = random_uniform_sampling(5, 6).points
        fy = rng.standard_normal(5)
        t = 0.07
        got = extended_laplacian_apply(s, t, f, probes, fy, scaled=False)
        for q in range(5):
            total = 0.0
            for i in range(s.n):
                d2 = float(np.sum((s.points[i] - probes[q]) ** 2))
                total += np.exp(-d2 / (4 * t)) * (fy[q] - f[i])
            assert got[q] == pytest.approx(total / s.n, rel=1e-12)
        scaled = extended_laplacian_apply(s, t, f, probes, fy, scaled=True)
        np.testing.assert_allclose(scaled, got / t**2, rtol=1e-14)

    def test_eigenfunction_limit_improves_with_resolution(self):
        # Lhat applied to a degree-1 harmonic approaches eigenvalue l(l+1) = 2
        probes = random_uniform_sampling(20, 8).points
        errs = []
        for nside in (8, 16):
            s = healpix_sampling(nside)
            t = s.n**-0.25
            basis_pix = evaluate_basis(s, 1)
            basis_probe = evaluate_basis(probes, 1)
            f = np.sqrt(3 / (4 * np.pi)) * s.points[:, 2]
            fy = np.sqrt(3 / (4 * np.pi)) * probes[:, 2]
            got = extended_laplacian_apply(s, t, f, probes, fy)
            errs.append(np.linalg.norm(got - 2 * fy) / np.linalg.norm(2 * fy))
        assert errs[1] < errs[0] < 0.2

    def test_probe_blocks_match_single_probes_and_bound_memory(self):
        # 400 probes at n = 3072 span several probe blocks; held at once, their
        # kernel temporaries would take about 4 * 400 * 3072 doubles (39 MB)
        s = healpix_sampling(16)
        rng = np.random.default_rng(5)
        probes = random_uniform_sampling(400, 7).points
        f, fy = rng.standard_normal(s.n), rng.standard_normal(400)
        assert 400 * s.n > 4 * equivariance._PROBE_PAIRS
        tracemalloc.start()
        try:
            got = extended_laplacian_apply(s, 0.05, f, probes, fy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 8 * equivariance._PROBE_PAIRS
        one_at_a_time = [extended_laplacian_apply(s, 0.05, f, y, v) for y, v in zip(probes, fy)]
        np.testing.assert_array_equal(got, one_at_a_time)

    def test_invalid_width(self):
        s = healpix_sampling(2)
        with pytest.raises(InvalidArgumentError):
            extended_laplacian_apply(s, 0.0, np.zeros(s.n), np.array([0, 0, 1.0]), 0.0)


class TestExtendedEquivarianceCheck:
    def test_identity_rotation(self):
        s = healpix_sampling(4)
        probes = random_uniform_sampling(10, 9).points
        res = extended_equivariance_check(s, 0.05, 2, Rotation(0, 0, 0), probes, seed=1)
        assert res < 1e-14

    def test_probe_order_irrelevant(self):
        s = healpix_sampling(4)
        probes = random_uniform_sampling(10, 10).points
        g = random_rotation(11)
        a = extended_equivariance_check(s, 0.05, 2, g, probes, seed=2)
        b = extended_equivariance_check(s, 0.05, 2, g, probes[::-1], seed=2)
        assert a == pytest.approx(b, rel=1e-12)


class TestSweepDriver:
    def test_rows_sorted_and_complete(self):
        cfg = EquivarianceConfig(2, 2, 5, None)
        sams = [healpix_sampling(2), healpix_sampling(4)]
        rows = equivariance_sweep(sams, [4, 8], "gaussian", "heuristic", [2, 3], cfg)
        assert len(rows) == 8
        keys = [(r.scheme, r.n, r.k, r.ell) for r in rows]
        assert keys == sorted(keys)
        assert all(r.samples == 4 and r.mean_err >= 0 for r in rows)

    def test_thread_count_does_not_change_values(self):
        cfg = EquivarianceConfig(2, 2, 7, None)
        sams = [healpix_sampling(2), healpix_sampling(4)]
        args = (sams, [4, 8], "gaussian", "heuristic", [2, 3], cfg)
        serial = equivariance_sweep(*args, threads=1)
        threaded = equivariance_sweep(*args, threads=4)
        assert serial == threaded

    def test_inverse_distance_rows(self):
        cfg = EquivarianceConfig(2, 2, 5, None)
        rows = equivariance_sweep([healpix_sampling(2)], [6], "inverse-distance",
                                  "heuristic", [2], cfg)
        assert rows[0].weight == "inverse-distance"
        assert rows[0].t == 0.0

    def test_degrees_filtered_to_band(self):
        cfg = EquivarianceConfig(2, 2, 5, None)
        rows = equivariance_sweep([healpix_sampling(2)], [6], "gaussian",
                                  "heuristic", [2, 5, 9], cfg)
        # band of nside=2 is 5: degree 9 cells must be dropped
        assert [r.ell for r in rows] == [2, 5]
        for t_mode in ("optimal", "heuristic"):
            with pytest.raises(InvalidArgumentError):
                equivariance_sweep([healpix_sampling(2)], [6], "gaussian", t_mode, [9], cfg)
