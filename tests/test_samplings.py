import numpy as np
import pytest
from scipy.spatial import ConvexHull

from spheregraph.errors import InvalidArgumentError
from spheregraph.io import write_sampling_csv
from spheregraph.samplings import (
    Sampling,
    equiangular_sampling,
    healpix_sampling,
    icosahedral_sampling,
    random_uniform_sampling,
    reliable_band,
    rotation_permutation,
    sampling_geometry,
    z_rotation_matrix,
)


def ring_walk_healpix_oracle(nside: int) -> np.ndarray:
    """Independent HEALPix ring-scheme construction: walk rings north to south.

    Cap ring i (1 <= i < nside) holds 4i pixels at z = 1 - i^2/(3 nside^2),
    phi = (j - 1/2) pi / (2i); belt ring i (nside <= i <= 3 nside) holds
    4 nside pixels at z = (2 nside - i) * 2 / (3 nside) with a half-pixel
    phase when (i + nside) is even; the south cap mirrors the north.
    """
    pts = []
    for i in range(1, 4 * nside):
        if i < nside:
            npix_ring, z = 4 * i, 1.0 - i * i / (3.0 * nside**2)
            shift = 0.5
            step = np.pi / (2 * i)
        elif i <= 3 * nside:
            npix_ring, z = 4 * nside, (2.0 * nside - i) * 2.0 / (3.0 * nside)
            shift = 0.5 if (i + nside) % 2 == 0 else 1.0
            step = np.pi / (2 * nside)
        else:
            i_s = 4 * nside - i
            npix_ring, z = 4 * i_s, -1.0 + i_s * i_s / (3.0 * nside**2)
            shift = 0.5
            step = np.pi / (2 * i_s)
        s = np.sqrt(1.0 - z * z)
        for j in range(1, npix_ring + 1):
            phi = (j - shift) * step
            pts.append((s * np.cos(phi), s * np.sin(phi), z))
    return np.array(pts)


class TestHealpix:
    def test_pixel_counts(self):
        assert healpix_sampling(1).n == 12
        assert healpix_sampling(2).n == 48
        assert healpix_sampling(4).n == 12 * 16

    def test_unit_norms(self):
        s = healpix_sampling(2)
        assert np.abs(np.linalg.norm(s.points, axis=1) - 1.0).max() < 1e-12

    def test_matches_independent_ring_walk(self):
        for nside in (1, 2, 4, 8):
            expected = ring_walk_healpix_oracle(nside)
            got = healpix_sampling(nside, "ring").points
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_reference_pixel_centers(self):
        # frozen values from the reference HEALPix implementation
        s1 = healpix_sampling(1, "ring")
        np.testing.assert_allclose(s1.points[4], [1.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(
            s1.points[0],
            [np.sqrt(1 - 4 / 9.0) * np.cos(np.pi / 4), np.sqrt(1 - 4 / 9.0) * np.sin(np.pi / 4), 2 / 3.0],
            atol=1e-12,
        )
        s2 = healpix_sampling(2, "ring")
        z0 = 1.0 - 1.0 / 12.0  # first cap ring of nside=2
        np.testing.assert_allclose(
            s2.points[0],
            [np.sqrt(1 - z0 * z0) * np.cos(np.pi / 4), np.sqrt(1 - z0 * z0) * np.sin(np.pi / 4), z0],
            atol=1e-12,
        )
        z4 = 2.0 / 3.0  # first belt ring, first pixel at phi = pi/8
        np.testing.assert_allclose(
            s2.points[4],
            [np.sqrt(1 - z4 * z4) * np.cos(np.pi / 8), np.sqrt(1 - z4 * z4) * np.sin(np.pi / 8), z4],
            atol=1e-12,
        )

    def test_nested_is_permutation_of_ring(self):
        for nside in (1, 2, 4, 8):
            ring = healpix_sampling(nside, "ring").points
            nest = healpix_sampling(nside, "nested").points
            a = np.lexsort((ring[:, 0], ring[:, 1], ring[:, 2]))
            b = np.lexsort((nest[:, 0], nest[:, 1], nest[:, 2]))
            np.testing.assert_allclose(ring[a], nest[b], atol=1e-12)

    def test_nested_equals_ring_at_nside1(self):
        np.testing.assert_allclose(
            healpix_sampling(1, "ring").points, healpix_sampling(1, "nested").points, atol=1e-15
        )

    def test_nested_hierarchy_four_children(self):
        s = healpix_sampling(4, "nested")
        assert s.hierarchy is not None
        for p in range(48):
            children = np.nonzero(s.hierarchy == p)[0]
            np.testing.assert_array_equal(children, [4 * p, 4 * p + 1, 4 * p + 2, 4 * p + 3])

    def test_ring_has_no_hierarchy(self):
        assert healpix_sampling(4, "ring").hierarchy is None

    def test_quarter_turn_automorphism(self):
        for indexing in ("ring", "nested"):
            s = healpix_sampling(4, indexing)
            perm = rotation_permutation(s, z_rotation_matrix(np.pi / 2), tol=1e-9)
            assert len(np.unique(perm)) == s.n

    def test_invalid_nside(self):
        for bad in (0, 3, -2, 6):
            with pytest.raises(InvalidArgumentError):
                healpix_sampling(bad)

    def test_reliable_band(self):
        assert reliable_band(healpix_sampling(4)) == 11


class TestEquiangular:
    def test_counts_and_rings(self):
        s = equiangular_sampling(2)
        assert s.n == 16
        thetas = np.unique(np.round(np.arccos(s.points[:, 2]), 12))
        assert len(thetas) == 4

    def test_paper_resolution(self):
        assert equiangular_sampling(64).n == 16384

    def test_first_colatitude(self):
        s = equiangular_sampling(1)
        assert abs(np.arccos(s.points[0, 2]) - np.pi / 4) < 1e-14

    def test_colatitude_formula_and_no_poles(self):
        b = 4
        s = equiangular_sampling(b)
        theta = np.arccos(np.clip(s.points[:, 2], -1, 1)).reshape(2 * b, 2 * b)
        expected = np.pi * (2 * np.arange(2 * b) + 1) / (4.0 * b)
        np.testing.assert_allclose(theta[:, 0], expected, atol=1e-12)
        assert np.abs(s.points[:, 2]).max() < 1.0

    def test_hierarchy_blocks(self):
        s = equiangular_sampling(4)
        assert s.hierarchy is not None
        # children of parent 0 are the 2x2 corner block of the 8x8 grid
        np.testing.assert_array_equal(np.nonzero(s.hierarchy == 0)[0], [0, 1, 8, 9])

    def test_invalid_bandwidth(self):
        with pytest.raises(InvalidArgumentError):
            equiangular_sampling(0)


class TestIcosahedral:
    def test_counts(self):
        assert icosahedral_sampling(0).n == 12
        assert icosahedral_sampling(1).n == 42
        assert icosahedral_sampling(5).n == 10242

    def test_poles_present(self):
        s = icosahedral_sampling(0)
        np.testing.assert_allclose(s.points[0], [0, 0, 1], atol=1e-15)
        np.testing.assert_allclose(s.points[11], [0, 0, -1], atol=1e-15)

    def test_level_prefix_nesting(self):
        coarse = icosahedral_sampling(1).points
        fine = icosahedral_sampling(2).points
        np.testing.assert_allclose(fine[: len(coarse)], coarse, atol=1e-15)

    def test_hierarchy_parents_in_coarse_range(self):
        s = icosahedral_sampling(2)
        assert s.hierarchy is not None
        assert s.hierarchy.max() < 42
        np.testing.assert_array_equal(s.hierarchy[:42], np.arange(42))

    def test_invalid_level(self):
        with pytest.raises(InvalidArgumentError):
            icosahedral_sampling(-1)


class TestRandomUniform:
    def test_deterministic(self):
        a = random_uniform_sampling(1000, 7).points
        b = random_uniform_sampling(1000, 7).points
        assert np.array_equal(a, b)

    def test_mean_norm_bound(self):
        # ||mean|| concentrates at ~n^{-1/2}; 0.05 is a ~5 sigma bound at n=1e4
        s = random_uniform_sampling(10_000, 3)
        assert np.linalg.norm(s.points.mean(axis=0)) < 0.05

    def test_unit_norms(self):
        s = random_uniform_sampling(12, 0)
        assert np.abs(np.linalg.norm(s.points, axis=1) - 1.0).max() < 1e-12

    def test_invalid_n(self):
        with pytest.raises(InvalidArgumentError):
            random_uniform_sampling(0, 1)


class TestSamplingGeometry:
    def test_healpix_equal_areas(self):
        g = sampling_geometry(healpix_sampling(1))
        np.testing.assert_allclose(g.patch_areas, 4 * np.pi / 12, rtol=1e-15)

    def test_area_sums(self):
        for s in (healpix_sampling(2), equiangular_sampling(4), icosahedral_sampling(1)):
            g = sampling_geometry(s)
            assert abs(g.patch_areas.sum() - 4 * np.pi) < 0.01 * 4 * np.pi

    def test_max_diameter_dominates(self):
        g = sampling_geometry(healpix_sampling(4))
        assert np.all(g.max_diameter >= g.patch_diameters - 1e-15)

    def test_diameter_scaling_exponent(self):
        # d^(n) ~ C n^alpha with alpha close to -1/2 for HEALPix
        ns, ds = [], []
        for nside in (1, 2, 4, 8):
            s = healpix_sampling(nside)
            ns.append(s.n)
            ds.append(sampling_geometry(s).max_diameter)
        slope = np.polyfit(np.log(ns), np.log(ds), 1)[0]
        assert abs(slope - (-0.5)) < 0.1

    def test_diameters_match_edge_loop(self):
        # reference: half the longest hull edge at each point, one edge at a time
        for s in (healpix_sampling(4), icosahedral_sampling(2), random_uniform_sampling(300, 5)):
            longest = np.zeros(s.n)
            for a, b, c in ConvexHull(s.points).simplices:
                for i, j in ((a, b), (b, c), (c, a)):
                    d = np.linalg.norm(s.points[i] - s.points[j])
                    longest[i], longest[j] = max(longest[i], d), max(longest[j], d)
            # the row-wise norm may round differently from the 1-D one: allow a few ulps
            np.testing.assert_allclose(sampling_geometry(s).patch_diameters, 0.5 * longest,
                                       rtol=4 * np.finfo(float).eps, atol=0)

    def test_duplicate_points_rejected(self):
        pts = np.array([[0, 0, 1.0], [0, 0, 1.0], [1, 0, 0], [0, 1, 0]])
        s = Sampling(pts, "custom", 4)
        with pytest.raises(InvalidArgumentError):
            sampling_geometry(s)


class TestAutomorphismFinder:
    def test_rejects_non_automorphism(self):
        s = healpix_sampling(2)
        with pytest.raises(InvalidArgumentError):
            rotation_permutation(s, z_rotation_matrix(0.37), tol=1e-9)

    def test_permutation_applies_rotation(self):
        s = healpix_sampling(4, "ring")
        perm = rotation_permutation(s, z_rotation_matrix(np.pi / 2))
        rotated = s.points @ z_rotation_matrix(np.pi / 2)  # rows R^T x_i = g^{-1} x_i
        np.testing.assert_allclose(s.points[perm], rotated, atol=1e-12)


def test_csv_export_round_trips_doubles(tmp_path):
    s = random_uniform_sampling(5, 11)
    path = tmp_path / "s.csv"
    write_sampling_csv(s, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,x,y,z"
    parsed = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
    assert np.array_equal(parsed, s.points)
