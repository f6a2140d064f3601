import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.special import sph_harm_y
from scipy.stats import kstest

from spheregraph import harmonics
from spheregraph.errors import IllPosedAnalysisError, InvalidArgumentError, NumericalFailureError
from spheregraph.harmonics import (
    _RIDGE_REL,
    AnalysisPlan,
    HarmonicCoeffs,
    Rotation,
    RotationOperator,
    analysis,
    coeff_index,
    degree_slice,
    draw_degree_coeffs,
    _physical_memory_bytes,
    equiangular_quadrature_weights,
    evaluate_basis,
    evaluate_real_basis,
    power_spectrum,
    quadrature_energy,
    random_degree_signal,
    random_rotation,
    rotate_coeffs,
    synthesis,
    wigner_D_blocks,
    wigner_D_matrix,
)
from spheregraph.io import read_coeffs_csv, write_coeffs_csv
from spheregraph.samplings import (
    equiangular_sampling,
    healpix_sampling,
    icosahedral_sampling,
    random_uniform_sampling,
    reliable_band,
    rotation_permutation,
    z_rotation_matrix,
)


def random_coeffs(lmax: int, seed: int) -> HarmonicCoeffs:
    rng = np.random.default_rng(seed)
    values = np.zeros((lmax + 1) ** 2, dtype=np.complex128)
    for l in range(lmax + 1):
        values[degree_slice(l)] = draw_degree_coeffs(l, rng)
    return HarmonicCoeffs(lmax, values)


def random_and_gimbal_rotations() -> list:
    """Four Haar draws, the identity, and the beta = 0 and beta = pi cases."""
    rotations = [random_rotation(seed) for seed in range(4)]
    return rotations + [Rotation(0.0, 0.0, 0.0), Rotation(1.2, 0.0, 0.4), Rotation(0.7, np.pi, 0.3)]


def _ridged_gram(plan: AnalysisPlan) -> np.ndarray:
    """G + ridge I, the matrix the plan solves with, formed from the plan's basis."""
    gram = plan.basis.T @ plan.basis
    gram[np.diag_indices_from(gram)] += _RIDGE_REL * np.mean(gram.diagonal())
    return gram


def unitary(l: int) -> np.ndarray:
    """U of degree l: column j is the complex table of the j-th real unit table."""
    columns = []
    for j in range(2 * l + 1):
        real = np.zeros((l + 1) ** 2)
        real[l * l + j] = 1.0
        columns.append(HarmonicCoeffs.from_real(l, real).degree(l))
    return np.column_stack(columns)


# Per-degree copies of the converters that the row map replaced: the oracle
# that the whole-table versions must match bit for bit.
def per_degree_real_from_complex(a, l):
    m = np.arange(1, l + 1)
    sign = ((-1.0) ** m)[(slice(None),) + (None,) * (a.ndim - 1)]
    p, q = a[l + m], sign * a[l - m]
    r = np.empty(a.shape, dtype=np.complex128)
    r[l] = a[l]
    r[l + m] = (p + q) / np.sqrt(2.0)
    r[l - m] = 1j * (p - q) / np.sqrt(2.0)
    return r


def per_degree_complex_from_real(r, l):
    m = np.arange(1, l + 1)
    sign = (-1.0) ** m
    p, q = r[l + m], r[l - m]
    a = np.empty(r.shape, dtype=np.complex128)
    a[l] = r[l]
    a[l + m] = (p - 1j * q) / np.sqrt(2.0)
    a[l - m] = sign * (p + 1j * q) / np.sqrt(2.0)
    return a


def by_degree(convert, values, lmax):
    return np.concatenate([convert(values[degree_slice(l)], l) for l in range(lmax + 1)])


def per_degree_defect(values, lmax):
    worst = 0.0
    for l in range(lmax + 1):
        block = values[degree_slice(l)]
        m = np.arange(-l, l + 1)
        worst = max(worst, float(np.abs(block - ((-1.0) ** m) * np.conj(block[::-1])).max()))
    return worst


def per_degree_jy_real_schur(l):
    w = per_degree_real_from_complex(harmonics._jy_eigenbasis(l)[1], l)
    axis = w[:, l]
    j = int(np.argmax(np.abs(axis)))
    axis = (axis * np.conj(axis[j]) / abs(axis[j])).real
    turning = w[:, l + 1:]
    return np.column_stack([np.sqrt(2.0) * turning.imag[:, ::-1], axis,
                            np.sqrt(2.0) * turning.real])


class TestRowMap:
    @pytest.mark.parametrize("lo, hi", [(0, 0), (0, 1), (0, 12), (1, 1), (7, 7), (3, 9)])
    def test_inverts_coeff_index(self, lo, hi):
        l, m, mirror = harmonics._row_map(lo, hi)
        rows = np.arange((hi + 1) ** 2 - lo * lo)
        np.testing.assert_array_equal(coeff_index(l, m) - lo * lo, rows)
        np.testing.assert_array_equal(coeff_index(l, -m) - lo * lo, mirror)
        assert np.all(np.abs(m) <= l) and l[0] == lo and l[-1] == hi
        assert not any(a.flags.writeable for a in (l, m, mirror))  # shared through the cache

    def test_converters_match_per_degree_oracle(self):
        rng = np.random.default_rng(11)
        for lmax in range(48):
            size = (lmax + 1) ** 2
            table = HarmonicCoeffs(lmax, rng.standard_normal(size) + 1j * rng.standard_normal(size))
            real = rng.standard_normal(size)
            np.testing.assert_array_equal(
                table.real_values(), by_degree(per_degree_real_from_complex, table.values, lmax))
            np.testing.assert_array_equal(
                HarmonicCoeffs.from_real(lmax, real).values,
                by_degree(per_degree_complex_from_real, real, lmax))
            symmetric = random_coeffs(lmax, lmax)
            for coeffs in (table, symmetric):
                assert coeffs.conjugate_symmetry_defect() == per_degree_defect(coeffs.values, lmax)

    def test_jy_real_schur_matches_per_degree_oracle(self):
        for l in range(48):
            np.testing.assert_array_equal(harmonics._jy_real_schur(l), per_degree_jy_real_schur(l))

    def test_negative_lmax_or_wrong_length_rejected(self):
        with pytest.raises(InvalidArgumentError, match="lmax must be >= 0"):
            HarmonicCoeffs(-1, [])
        with pytest.raises(InvalidArgumentError, match="lmax must be >= 0"):
            HarmonicCoeffs.from_real(-1, np.zeros(0))
        for size in (3, 5):  # lmax 1 needs 4 values
            with pytest.raises(InvalidArgumentError, match="must have length 4"):
                HarmonicCoeffs.from_real(1, np.zeros(size))


class TestBasis:
    def test_y00_constant(self, random200):
        B = evaluate_basis(random200, 0)
        np.testing.assert_allclose(B[:, 0], 1.0 / np.sqrt(4 * np.pi), atol=1e-15)

    def test_y10_closed_form(self):
        s = random_uniform_sampling(10, 5)
        B = evaluate_basis(s, 1)
        np.testing.assert_allclose(
            B[:, coeff_index(1, 0)], np.sqrt(3 / (4 * np.pi)) * s.points[:, 2], atol=1e-12
        )

    def test_against_scipy(self, random200):
        B = evaluate_basis(random200, 6)
        theta = np.arccos(np.clip(random200.points[:, 2], -1, 1))
        phi = np.arctan2(random200.points[:, 1], random200.points[:, 0])
        for l, m in ((2, 1), (3, -2), (4, 4), (6, 0), (5, -5)):
            ref = sph_harm_y(l, m, theta, phi)
            np.testing.assert_allclose(B[:, coeff_index(l, m)], ref, atol=1e-13)

    def test_real_basis_is_complex_basis_times_unitary(self, random200):
        B = evaluate_basis(random200, 6)
        R = evaluate_real_basis(random200, 6)
        assert R.dtype == np.float64
        for l in range(7):
            U = unitary(l)
            np.testing.assert_allclose(U.conj().T @ U, np.eye(2 * l + 1), atol=1e-15)
            np.testing.assert_allclose(B[:, degree_slice(l)] @ U, R[:, degree_slice(l)],
                                       atol=1e-13)

    def test_monte_carlo_gram_near_identity(self):
        # (4 pi / n) B^H B approximates the continuous orthonormality relation.
        # The spectral defect of an empirical covariance of m-dimensional unit-
        # trace draws concentrates at ~ 2 sqrt(m/n) + m/n (~1.2 at n=500, m=121);
        # measured values over seeds are 1.3-1.7.
        s = random_uniform_sampling(500, 21)
        B = evaluate_basis(s, 10)
        gram = (4 * np.pi / s.n) * (B.conj().T @ B)
        defect = np.linalg.norm(gram - np.eye(121), 2)
        assert defect < 2.0

    def test_monte_carlo_gram_tightens_with_n(self):
        s = random_uniform_sampling(25_000, 21)
        B = evaluate_basis(s, 10)
        gram = (4 * np.pi / s.n) * (B.conj().T @ B)
        assert np.linalg.norm(gram - np.eye(121), 2) < 0.25


class TestAnalysisSynthesis:
    def test_round_trip(self, equiangular8):
        c0 = random_coeffs(5, 1)
        f = synthesis(equiangular8, c0)
        c1 = analysis(equiangular8, f, 5)
        np.testing.assert_allclose(c1.values, c0.values, atol=1e-8)

    def test_constant_signal(self, healpix4_ring):
        c = analysis(healpix4_ring, np.full(healpix4_ring.n, 2.5), 3)
        assert abs(c.values[0] - 2.5 * np.sqrt(4 * np.pi)) < 1e-8
        assert np.abs(c.values[1:]).max() < 1e-8

    def test_single_harmonic_dense_lstsq_oracle(self):
        s = equiangular_sampling(8)
        B = evaluate_basis(s, 6)
        f = B[:, coeff_index(5, 3)].real
        c = analysis(s, f, 6)
        # independent dense least-squares route
        oracle, *_ = np.linalg.lstsq(B, f.astype(complex), rcond=None)
        np.testing.assert_allclose(c.values, oracle, atol=1e-9)
        # real part of Y_53 analyses to (a_{5,3}, a_{5,-3}) = (1/2, -1/2)
        assert abs(c.values[coeff_index(5, 3)] - 0.5) < 1e-8
        assert abs(c.values[coeff_index(5, -3)] + 0.5) < 1e-8
        others = np.abs(c.values).copy()
        others[coeff_index(5, 3)] = others[coeff_index(5, -3)] = 0.0
        assert others.max() < 1e-8
        # the complex Y_53 samples themselves give a single unit coefficient
        cc = analysis(s, B[:, coeff_index(5, 3)], 6)
        assert abs(cc.values[coeff_index(5, 3)] - 1.0) < 1e-8
        rest = np.abs(cc.values).copy()
        rest[coeff_index(5, 3)] = 0.0
        assert rest.max() < 1e-8

    def test_synthesis_constant(self, healpix4_ring):
        values = np.zeros(1, dtype=complex)
        values[0] = np.sqrt(4 * np.pi)
        f = synthesis(healpix4_ring, HarmonicCoeffs(0, values))
        np.testing.assert_allclose(f, 1.0, atol=1e-14)

    def test_synthesis_naive_double_loop_oracle(self):
        s = healpix_sampling(4)
        c = random_coeffs(3, 9)
        f = synthesis(s, c)
        theta = np.arccos(np.clip(s.points[:, 2], -1, 1))
        phi = np.arctan2(s.points[:, 1], s.points[:, 0])
        naive = np.zeros(s.n, dtype=complex)
        for l in range(4):
            for m in range(-l, l + 1):
                naive += c.values[coeff_index(l, m)] * sph_harm_y(l, m, theta, phi)
        assert np.abs(naive.imag).max() < 1e-10
        np.testing.assert_allclose(f, naive.real, atol=1e-10)

    def test_rejects_asymmetric_coeffs(self, healpix4_ring):
        values = np.zeros(4, dtype=complex)
        values[coeff_index(1, 1)] = 1.0  # missing the mirrored coefficient
        with pytest.raises(InvalidArgumentError):
            synthesis(healpix4_ring, HarmonicCoeffs(1, values))

    def test_ill_posed_analysis(self):
        s = healpix_sampling(1)
        with pytest.raises((IllPosedAnalysisError, InvalidArgumentError)):
            AnalysisPlan(s, 5)  # 36 coefficients from 12 pixels

    def test_dense_plan_memory_cliff_rejected(self):
        s = equiangular_sampling(256)  # n = 262144; the real basis alone is ~137 GB
        if _physical_memory_bytes() > 2**39:
            pytest.skip("the plan fits in this machine's memory")
        start = time.perf_counter()
        with pytest.raises(InvalidArgumentError, match="needs about 416.0 GiB"):
            AnalysisPlan(s, 255)
        assert time.perf_counter() - start < 0.5

    def test_gram_factored_without_extra_copy(self, monkeypatch):
        # beyond the inverse factor it keeps, building a plan may hold less
        # than one more m x m matrix: G, its factor and the inverse are one
        # array. The basis is evaluated beforehand, so that the complex
        # temporary it is converted from cannot hide an m x m copy.
        s, lmax = healpix_sampling(8), 23
        m = (lmax + 1) ** 2
        basis = evaluate_real_basis(s, lmax)
        monkeypatch.setattr(harmonics, "evaluate_real_basis", lambda *args: basis)
        tracemalloc.start()
        try:
            plan = AnalysisPlan(s, lmax)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert plan.basis is basis
        assert (peak - plan._r_inv.nbytes) / (8 * m * m) < 0.9

    def test_failed_factor_inversion_raises(self, monkeypatch):
        monkeypatch.setattr(sla.lapack, "dtrtri", lambda c, lower, overwrite_c: (c, 3))
        with pytest.raises(NumericalFailureError, match="LAPACK info 3"):
            AnalysisPlan(healpix_sampling(2), 5)

    @pytest.mark.parametrize("make", [
        lambda: healpix_sampling(8),
        lambda: healpix_sampling(16),
        lambda: equiangular_sampling(16),
    ], ids=["healpix-8", "healpix-16", "equiangular-16"])
    def test_solve_matches_cholesky_solve(self, make):
        s = make()
        plan = AnalysisPlan(s, reliable_band(s))
        rhs = plan.basis.T @ np.random.default_rng(3).standard_normal((s.n, 5))
        want = sla.cho_solve(sla.cho_factor(_ridged_gram(plan)), rhs)
        got = plan.solve(rhs)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("make", [
        lambda: icosahedral_sampling(3),
        lambda: icosahedral_sampling(4),
        lambda: random_uniform_sampling(800, 0),
    ], ids=["icosahedral-3", "icosahedral-4", "random-800"])
    def test_solve_residual_on_ill_conditioned_gram(self, make):
        # right-hand sides B^T f, as analysis and degree_ops pass them
        s = make()
        plan = AnalysisPlan(s, reliable_band(s))
        rhs = plan.basis.T @ np.random.default_rng(3).standard_normal((s.n, 5))
        residual = _ridged_gram(plan) @ plan.solve(rhs) - rhs
        assert np.linalg.norm(residual) <= 1e-11 * np.linalg.norm(rhs)

    def test_condition_estimate_reported(self):
        s = random_uniform_sampling(40, 2)
        try:
            AnalysisPlan(s, 5)  # 36 coefficients from 40 random points: near-singular
        except IllPosedAnalysisError as err:
            assert err.condition_estimate > 1e12


class TestRotations:
    def test_identity_rotation_fixes_coeffs(self):
        c = random_coeffs(4, 3)
        r = rotate_coeffs(c, Rotation(0, 0, 0))
        np.testing.assert_allclose(r.values, c.values, atol=1e-12)

    def test_z_rotation_is_phase(self):
        c = random_coeffs(4, 4)
        g = Rotation(0.0, 0.0, 1.1)
        r = rotate_coeffs(c, g)
        for l in range(5):
            m = np.arange(-l, l + 1)
            ratio = r.degree(l) / c.degree(l)
            np.testing.assert_allclose(np.abs(ratio), 1.0, atol=1e-12)
            np.testing.assert_allclose(ratio, np.exp(-1j * m * 1.1), atol=1e-12)
            assert abs(np.sum(np.abs(r.degree(l)) ** 2) - np.sum(np.abs(c.degree(l)) ** 2)) < 1e-12

    def test_pointwise_rotation_oracle(self):
        # synthesis of rotated coefficients equals evaluation at inversely rotated points
        g = random_rotation(17)
        values = np.zeros(25, dtype=complex)
        values[degree_slice(4)] = draw_degree_coeffs(4, np.random.default_rng(8))
        c = HarmonicCoeffs(4, values)
        probe = random_uniform_sampling(40, 6)
        lhs = (evaluate_basis(probe, 4) @ rotate_coeffs(c, g).values).real
        rhs = (evaluate_basis(probe.points @ g.matrix, 4) @ c.values).real
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)

    def test_unitarity(self):
        g = random_rotation(5)
        for l in (1, 3, 10, 25):
            D = wigner_D_matrix(l, g)
            np.testing.assert_allclose(D @ D.conj().T, np.eye(2 * l + 1), atol=1e-12)

    def test_composition(self):
        g1, g2 = random_rotation(1), random_rotation(2)
        for l in (1, 4, 12):
            lhs = wigner_D_matrix(l, g1.compose(g2))
            rhs = wigner_D_matrix(l, g1) @ wigner_D_matrix(l, g2)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_real_blocks_orthogonal_and_compose(self):
        g1, g2 = random_rotation(1), random_rotation(2)
        stacks = wigner_D_blocks(25, [g1, g2, g1.compose(g2)])
        for l in (0, 1, 4, 12, 25):
            d1, d2, d12 = stacks[l]
            assert stacks[l].dtype == np.float64
            np.testing.assert_allclose(d1 @ d1.T, np.eye(2 * l + 1), atol=1e-12)
            np.testing.assert_allclose(d12, d1 @ d2, atol=1e-10)

    def test_real_blocks_are_converted_complex_blocks(self):
        rotations = random_and_gimbal_rotations()
        stacks = wigner_D_blocks(20, rotations)
        for l in (0, 1, 2, 7, 20):
            U = unitary(l)
            for g, block in zip(rotations, stacks[l]):
                np.testing.assert_allclose(block, U.conj().T @ wigner_D_matrix(l, g) @ U,
                                           atol=1e-12)

    def test_factored_apply_matches_formed_blocks(self):
        # both routes against U^H D U from the complex Wigner-D, which is built
        # without the factored kernel; the gimbal rotations cover beta = 0 and pi
        lmax = 47
        rotations = random_and_gimbal_rotations()
        blocks = wigner_D_blocks(lmax, rotations)
        table = np.random.default_rng(6).standard_normal(((lmax + 1) ** 2, 3))
        factored = blocks.apply(table)  # first use: through the factors
        assert not blocks._stacks  # no block was formed
        formed = blocks.apply(table)  # reuse: through the formed stacks
        for l in range(lmax + 1):
            sl = degree_slice(l)
            U = unitary(l)
            real_blocks = np.stack([(U.conj().T @ wigner_D_matrix(l, g) @ U).real
                                    for g in rotations])
            expected = np.matmul(real_blocks, table[sl]).transpose(1, 0, 2)
            np.testing.assert_allclose(factored[sl], expected, rtol=0, atol=1e-12)
            np.testing.assert_allclose(formed[sl], expected, rtol=0, atol=1e-12)

    def test_inverse(self):
        g = random_rotation(9)
        np.testing.assert_allclose(g.compose(g.inverse()).matrix, np.eye(3), atol=1e-12)

    def test_gimbal_cases(self):
        for g in (Rotation(1.2, 0.0, 0.0), Rotation(0.7, np.pi, 0.0)):
            back = Rotation.from_matrix(g.matrix)
            np.testing.assert_allclose(back.matrix, g.matrix, atol=1e-12)


class TestRotationOperator:
    def test_identity_on_band_limited(self, equiangular8):
        f = synthesis(equiangular8, random_coeffs(5, 12))
        op = RotationOperator(equiangular8, Rotation(0, 0, 0), 5)
        np.testing.assert_allclose(op(f), f, atol=1e-8)

    def test_inverse_composition(self, equiangular8):
        g = random_rotation(33)
        f = synthesis(equiangular8, random_coeffs(5, 13))
        plan = AnalysisPlan(equiangular8, 5)
        forward = RotationOperator(equiangular8, g, 5, plan=plan)
        backward = RotationOperator(equiangular8, g.inverse(), 5, plan=plan)
        np.testing.assert_allclose(backward(forward(f)), f, atol=1e-7)

    def test_automorphism_matches_permutation(self):
        s = healpix_sampling(4, "ring")
        perm = rotation_permutation(s, z_rotation_matrix(np.pi / 2))
        g = Rotation(np.pi / 2, 0.0, 0.0)
        f = synthesis(s, random_coeffs(7, 14))
        op = RotationOperator(s, g, 11)
        np.testing.assert_allclose(op(f), f[perm], atol=1e-8)


class TestSpectra:
    def test_single_coefficient(self):
        values = np.zeros(16, dtype=complex)
        values[coeff_index(2, 1)] = 1.0
        spec = power_spectrum(HarmonicCoeffs(3, values))
        np.testing.assert_allclose(spec, [0, 0, 1 / 5.0, 0], atol=1e-15)

    def test_rotation_invariance(self):
        c = random_coeffs(5, 15)
        r = rotate_coeffs(c, random_rotation(16))
        np.testing.assert_allclose(power_spectrum(r), power_spectrum(c), atol=1e-12)

    def test_brute_force_oracle(self):
        c = random_coeffs(4, 17)
        spec = power_spectrum(c)
        for l in range(5):
            expected = sum(
                abs(c.values[coeff_index(l, m)]) ** 2 for m in range(-l, l + 1)
            ) / (2 * l + 1)
            assert spec[l] == pytest.approx(expected, rel=1e-13)


class TestRandomDraws:
    def test_reproducible(self):
        assert random_rotation(4) == random_rotation(4)
        s = healpix_sampling(2)
        np.testing.assert_array_equal(
            random_degree_signal(s, 3, 7), random_degree_signal(s, 3, 7)
        )

    def test_degree_signal_spectrum_support(self):
        s = healpix_sampling(4)
        f = random_degree_signal(s, 5, 3)
        spec = power_spectrum(analysis(s, f, 8))
        assert spec[5] > 1e-3
        off = np.delete(spec, 5)
        assert off.max() < 1e-12 * spec[5]

    def test_degree_outside_band_rejected(self):
        with pytest.raises(InvalidArgumentError):
            random_degree_signal(healpix_sampling(2), 6, 0)  # band is 3*2-1 = 5

    def test_haar_cos_beta_uniform(self):
        rng = np.random.default_rng(100)
        cos_betas = [np.cos(random_rotation(rng).beta) for _ in range(10_000)]
        stat = kstest(cos_betas, "uniform", args=(-1.0, 2.0))
        assert stat.pvalue > 0.01


class TestQuadrature:
    def test_weights_integrate_constants(self):
        w = equiangular_quadrature_weights(8)
        assert abs(w.sum() - 4 * np.pi) < 1e-10

    def test_parseval(self, equiangular8):
        c = random_coeffs(7, 19)
        f = synthesis(equiangular8, c)
        assert abs(quadrature_energy(equiangular8, f) - np.sum(np.abs(c.values) ** 2)) < 1e-8

    def test_non_equiangular_rejected(self, healpix4_ring):
        with pytest.raises(InvalidArgumentError):
            quadrature_energy(healpix4_ring, np.ones(healpix4_ring.n))


def test_coeffs_csv_round_trip(tmp_path):
    c = random_coeffs(3, 23)
    path = tmp_path / "c.csv"
    write_coeffs_csv(c, path)
    back = read_coeffs_csv(path)
    assert back.lmax == 3
    np.testing.assert_array_equal(back.values, c.values)
