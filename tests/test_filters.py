import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheregraph.errors import InvalidArgumentError
from spheregraph.filters import (
    FilterCoeffs,
    chebyshev_from_monomial,
    filter_apply,
    monomial_from_chebyshev,
    pool,
    unpool,
)
from spheregraph.graphs import (
    WeightScheme,
    build_graph,
    heuristic_kernel_width,
    laplacian,
    largest_eigenvalue,
)
from spheregraph.io import read_filter_csv, write_filter_csv
from spheregraph.samplings import (
    equiangular_sampling,
    healpix_sampling,
    icosahedral_sampling,
    rotation_permutation,
    z_rotation_matrix,
)


@pytest.fixture(scope="module")
def small_lap():
    s = healpix_sampling(2)
    lap = laplacian(build_graph(s, 8, WeightScheme("gaussian", heuristic_kernel_width(s, 8))))
    return lap, largest_eigenvalue(lap) * 1.01


class CountingOperator:
    def __init__(self, matrix):
        self.matrix = matrix
        self.shape = matrix.shape
        self.count = 0

    def __matmul__(self, v):
        self.count += 1
        return self.matrix @ v


class TestFilterApply:
    def test_degree_zero_scales(self, small_lap):
        lap, _ = small_lap
        f = np.arange(lap.shape[0], dtype=float)
        out = filter_apply(lap, FilterCoeffs("monomial", [2.5]), f)
        np.testing.assert_array_equal(out, 2.5 * f)

    def test_constant_signal_keeps_alpha0(self, small_lap):
        lap, _ = small_lap
        f = np.full(lap.shape[0], 3.0)
        out = filter_apply(lap, FilterCoeffs("monomial", [1.5, 0.3, -0.2, 0.9]), f)
        np.testing.assert_allclose(out, 1.5 * f, atol=1e-10)

    def test_dense_matrix_power_oracle(self, small_lap):
        lap, _ = small_lap
        rng = np.random.default_rng(2)
        alphas = rng.standard_normal(4)
        f = rng.standard_normal(lap.shape[0])
        dense = lap.toarray()
        expected = sum(alphas[i] * np.linalg.matrix_power(dense, i) @ f for i in range(4))
        got = filter_apply(lap, FilterCoeffs("monomial", alphas), f)
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9 * np.abs(expected).max())

    def test_chebyshev_dense_oracle(self, small_lap):
        lap, lam = small_lap
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal(5)
        f = rng.standard_normal(lap.shape[0])
        dense = 2.0 * lap.toarray() / lam - np.eye(lap.shape[0])
        t_prev, t_curr = np.eye(lap.shape[0]), dense
        expected = coeffs[0] * f + coeffs[1] * (dense @ f)
        for c in coeffs[2:]:
            t_prev, t_curr = t_curr, 2 * dense @ t_curr - t_prev
            expected = expected + c * (t_curr @ f)
        got = filter_apply(lap, FilterCoeffs("chebyshev", coeffs, lam), f)
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9 * np.abs(expected).max())

    def test_exactly_p_matvecs(self, small_lap):
        lap, lam = small_lap
        f = np.ones(lap.shape[0])
        for h in (FilterCoeffs("monomial", [1.0, 0.2, 0.3, 0.1, 0.5]),
                  FilterCoeffs("chebyshev", [1.0, 0.2, 0.3, 0.1, 0.5], lam)):
            op = CountingOperator(lap)
            filter_apply(op, h, f)
            assert op.count == h.order

    def test_linearity(self, small_lap):
        lap, lam = small_lap
        rng = np.random.default_rng(4)
        h = chebyshev_from_monomial(rng.standard_normal(5), lam)
        f, g = rng.standard_normal((2, lap.shape[0]))
        a, b = 1.7, -0.4
        lhs = filter_apply(lap, h, a * f + b * g)
        rhs = a * filter_apply(lap, h, f) + b * filter_apply(lap, h, g)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10 * np.abs(rhs).max())

    def test_dimension_mismatch(self, small_lap):
        lap, _ = small_lap
        with pytest.raises(InvalidArgumentError):
            filter_apply(lap, FilterCoeffs("monomial", [1.0]), np.ones(5))

    def test_commutes_with_automorphism_permutation(self):
        # the exact fragment of rotation equivariance: z-rotation by pi/2
        s = healpix_sampling(4, "ring")
        lap = laplacian(build_graph(s, 8, WeightScheme("gaussian", heuristic_kernel_width(s, 8))))
        perm = rotation_permutation(s, z_rotation_matrix(np.pi / 2))
        rng = np.random.default_rng(5)
        h = FilterCoeffs("monomial", rng.standard_normal(5))
        f = rng.standard_normal(s.n)
        lhs = filter_apply(lap, h, f)[perm]
        rhs = filter_apply(lap, h, f[perm])
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10 * np.abs(rhs).max())


class TestBasisChange:
    def test_identity_filter(self):
        h = chebyshev_from_monomial([1.0, 0.0, 0.0], 2.0)
        f = np.array([0.3, -1.2, 4.0])
        lap = np.zeros((3, 3))
        np.testing.assert_allclose(filter_apply(lap, h, f), f, atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        coeffs = rng.standard_normal(6)
        back = monomial_from_chebyshev(chebyshev_from_monomial(coeffs, 3.7))
        np.testing.assert_allclose(back.coeffs, coeffs, atol=1e-10)

    @given(st.lists(st.floats(-3, 3), min_size=1, max_size=7),
           st.floats(0.5, 20.0))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, coeffs, lam):
        # Both basis changes are exact up to one rounding per output
        # coefficient. The round trip therefore carries only the rounding of
        # the stored Chebyshev coefficients, whose size grows like
        # sum_i |a_i| (lam/2)^i. Bounding |b_im| |a_jm| over the exact change
        # of basis matrices for orders <= 6 gives, for every coefficient j,
        #   |err_j| <= (C + 1)/2 * eps * sum_i |a_i| max(1, lam/2)^i,  C = 240,
        # plus an absolute term for results in the subnormal range.
        back = monomial_from_chebyshev(chebyshev_from_monomial(coeffs, lam))
        scale = np.sum(np.abs(coeffs) * np.maximum(1.0, lam / 2.0) ** np.arange(len(coeffs)))
        tol = 121 * np.finfo(float).eps * scale + 1e-300
        np.testing.assert_allclose(back.coeffs, coeffs, rtol=0, atol=tol)

    def test_bases_agree_on_signals(self, small_lap):
        lap, lam = small_lap
        rng = np.random.default_rng(7)
        mono = rng.standard_normal(5)
        cheb = chebyshev_from_monomial(mono, lam)
        f = rng.standard_normal(lap.shape[0])
        a = filter_apply(lap, FilterCoeffs("monomial", mono), f)
        b = filter_apply(lap, cheb, f)
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9 * np.abs(a).max())

    def test_lambda_max_required(self):
        with pytest.raises(InvalidArgumentError):
            chebyshev_from_monomial([1.0, 2.0], 0.0)
        with pytest.raises(InvalidArgumentError):
            FilterCoeffs("chebyshev", [1.0, 2.0])

    @pytest.mark.parametrize("basis, coeffs, lambda_max", [
        ("chebyshev", [1.0, 2.0], np.inf),
        ("chebyshev", [1.0, 2.0], np.nan),
        ("monomial", [1.0, 2.0], np.inf),
        ("monomial", [1.0, np.nan], None),
        ("monomial", [np.inf], None),
        ("chebyshev", [1.0, -np.inf], 2.0),
    ])
    def test_non_finite_values_rejected(self, basis, coeffs, lambda_max):
        # an infinite lambda_max would make filter_apply return h(-I) f whatever L is
        with pytest.raises(InvalidArgumentError, match="finite"):
            FilterCoeffs(basis, coeffs, lambda_max)


class TestPooling:
    def test_constant_round_trip(self):
        s = healpix_sampling(2, "nested")
        const = np.full(s.n, 2.25)
        coarse = pool(s, const, "average")
        np.testing.assert_array_equal(coarse, np.full(12, 2.25))
        np.testing.assert_array_equal(unpool(s, coarse), const)

    def test_pool_after_unpool_is_identity(self):
        s = healpix_sampling(4, "nested")
        rng = np.random.default_rng(8)
        coarse = rng.standard_normal(48)
        np.testing.assert_array_equal(pool(s, unpool(s, coarse), "average"), coarse)

    def test_max_pool_indicator(self):
        s = healpix_sampling(2, "nested")
        for pixel in (0, 5, 17, 47):
            f = np.zeros(s.n)
            f[pixel] = 1.0
            pooled = pool(s, f, "max")
            expected_parent = pixel // 4
            assert pooled[expected_parent] == 1.0
            assert np.count_nonzero(pooled) == 1

    def test_average_pool_values(self):
        s = healpix_sampling(2, "nested")
        f = np.arange(s.n, dtype=float)
        pooled = pool(s, f, "average")
        np.testing.assert_allclose(pooled, 4.0 * np.arange(12) + 1.5)

    def test_missing_hierarchy(self):
        s = healpix_sampling(2, "ring")
        with pytest.raises(InvalidArgumentError):
            pool(s, np.zeros(s.n), "average")
        with pytest.raises(InvalidArgumentError):
            unpool(s, np.zeros(12))

    def test_equiangular_blocks(self):
        s = equiangular_sampling(2)
        f = np.arange(s.n, dtype=float)
        pooled = pool(s, f, "average")
        assert pooled.shape == (4,)
        np.testing.assert_allclose(pooled[0], np.mean([f[0], f[1], f[4], f[5]]))

    def test_icosahedral_groups(self):
        s = icosahedral_sampling(1)
        pooled = pool(s, np.ones(s.n), "average")
        assert pooled.shape == (12,)
        np.testing.assert_array_equal(pooled, np.ones(12))

    def test_bad_mode(self):
        s = healpix_sampling(2, "nested")
        with pytest.raises(InvalidArgumentError):
            pool(s, np.zeros(s.n), "median")


def test_filter_csv_round_trip(tmp_path):
    for h in (FilterCoeffs("monomial", [0.5, -1.5, 2.0]),
              FilterCoeffs("chebyshev", [1.0, 0.0, 0.25], 2.125)):
        path = tmp_path / "h.csv"
        write_filter_csv(h, path)
        back = read_filter_csv(path)
        assert back.basis == h.basis
        assert back.lambda_max == h.lambda_max
        np.testing.assert_array_equal(back.coeffs, h.coeffs)
