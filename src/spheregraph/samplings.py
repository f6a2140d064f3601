"""Sphere samplings: point-set generation, hierarchy metadata, and patch geometry.

All samplings are ordered sets of unit vectors in R^3. HEALPix pixel centers
follow the standard ring/nested index arithmetic (Gorski et al. conventions);
the equiangular grid uses the offset colatitudes theta_j = pi*(2j+1)/(4b) so
no sample sits on a pole; the icosahedral sampling is the repeatedly
subdivided icosahedron re-projected to the sphere, oriented with two vertices
on +-z.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt
from typing import Optional

import numpy as np
from scipy.spatial import ConvexHull, SphericalVoronoi, cKDTree

from .errors import InvalidArgumentError

SCHEMES = ("healpix-ring", "healpix-nested", "equiangular", "icosahedral", "random", "custom")


@dataclass(frozen=True)
class Sampling:
    """An ordered set of n unit vectors on the sphere.

    points     -- (n, 3) float64, each row unit norm
    scheme     -- one of SCHEMES
    resolution -- scheme-specific integer (Nside, bandwidth b, subdivision
                  level, or n for random/custom)
    hierarchy  -- optional (n,) int array mapping each pixel to its parent in
                  the next-coarser sampling of the same scheme; None when the
                  scheme has no usable pooling hierarchy at this resolution
    """

    points: np.ndarray
    scheme: str
    resolution: int
    hierarchy: Optional[np.ndarray] = None
    seed: Optional[int] = field(default=None, compare=False)

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.hierarchy is not None:
            h = np.ascontiguousarray(self.hierarchy, dtype=np.int64)
            h.setflags(write=False)
            object.__setattr__(self, "hierarchy", h)
        if self.scheme not in SCHEMES:
            raise InvalidArgumentError(f"unknown scheme {self.scheme!r}")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def __len__(self) -> int:
        return self.n


@dataclass(frozen=True)
class SamplingGeometry:
    """Per-pixel patch estimates: areas A_i (steradians) and radii d_i (chordal)."""

    patch_areas: np.ndarray
    patch_diameters: np.ndarray
    max_diameter: float
    max_area: float


# ---------------------------------------------------------------------------
# HEALPix
# ---------------------------------------------------------------------------

def _is_power_of_two(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


def _zphi_to_xyz(z: np.ndarray, phi: np.ndarray) -> np.ndarray:
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack((s * np.cos(phi), s * np.sin(phi), z))


def _ring_layout(nside: int):
    """Rings 1..4*nside-1 from the north pole, a quarter of each one's pixel count, its first index."""
    rings = np.arange(1, 4 * nside, dtype=np.int64)
    nr = np.minimum(np.minimum(rings, 4 * nside - rings), nside)
    return rings, nr, np.cumsum(4 * nr) - 4 * nr


def _ring_zphi(nside: int, rings, nr, start):
    """(z, phi) of the pixel centers on consecutive rings, given each ring's
    number, quarter pixel count and first index from _ring_layout."""
    i = np.repeat(rings, 4 * nr)  # ring of each pixel
    iphi = np.arange(start[0], start[-1] + 4 * nr[-1]) - np.repeat(start, 4 * nr) + 1  # position in its ring, from 1
    nr = np.repeat(nr, 4 * nr)
    north, south = i < nside, i > 3 * nside
    cap = nr**2 / (3.0 * nside**2)
    z = np.select([north, south], [1.0 - cap, -1.0 + cap], (2.0 * nside - i) * 2.0 / (3.0 * nside))
    fodd = 0.5 * (1 + (i + nside) % 2)
    phi = np.where(north | south, (iphi - 0.5) * np.pi / (2.0 * nr), (iphi - fodd) * np.pi / (2.0 * nside))
    return z, phi


_RING_PIXELS = 1 << 18  # pixels at most whose ring-walk temporaries exist at a time


def _healpix_ring_points(nside: int) -> np.ndarray:
    """(n, 3) ring-ordered pixel centers. The rings are walked north to south
    in blocks of at most _RING_PIXELS pixels, each copied into the result, so
    the walk's temporaries (about 75 bytes a pixel, the block's points
    included) cover one block. A lone block is the result itself, with no
    copy."""
    rings, nr, start = _ring_layout(nside)
    step = max(1, _RING_PIXELS // (4 * nside))  # rings a block; a ring has at most 4 nside pixels
    if step >= rings.size:
        return _zphi_to_xyz(*_ring_zphi(nside, rings, nr, start))
    points = np.empty((12 * nside * nside, 3))
    for first in range(0, rings.size, step):
        block = slice(first, first + step)
        xyz = _zphi_to_xyz(*_ring_zphi(nside, rings[block], nr[block], start[block]))
        points[start[first]:start[first] + len(xyz)] = xyz
    return points


_JRLL = np.array([2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4], dtype=np.int64)
_JPLL = np.array([1, 3, 5, 7, 0, 2, 4, 6, 1, 3, 5, 7], dtype=np.int64)


def _compress_even_bits(v: np.ndarray) -> np.ndarray:
    v = v & np.uint64(0x5555555555555555)
    v = (v | (v >> np.uint64(1))) & np.uint64(0x3333333333333333)
    v = (v | (v >> np.uint64(2))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v >> np.uint64(4))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v >> np.uint64(8))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v >> np.uint64(16))) & np.uint64(0x00000000FFFFFFFF)
    return v


def _nest_to_xyf(nside: int, p: np.ndarray):
    """Nested pixel index -> (ix, iy, face)."""
    npface = nside * nside
    face = (p // npface).astype(np.int64)
    pf = (p % npface).astype(np.uint64)
    ix = _compress_even_bits(pf).astype(np.int64)
    iy = _compress_even_bits(pf >> np.uint64(1)).astype(np.int64)
    return ix, iy, face


def _nest_to_ring(nside: int) -> np.ndarray:
    """Ring-order index of every nested pixel, from its face coordinates."""
    ix, iy, face = _nest_to_xyf(nside, np.arange(12 * nside * nside, dtype=np.int64))
    jr = _JRLL[face] * nside - ix - iy - 1  # ring index from the north pole
    _, nr, start = _ring_layout(nside)
    nr, start = nr[jr - 1], start[jr - 1]
    kshift = np.where((jr >= nside) & (jr <= 3 * nside), (jr - nside) & 1, 0)
    jp = (_JPLL[face] * nr + ix - iy + 1 + kshift) // 2  # position in the ring, from 1, before wrapping
    return start + (jp - 1) % (4 * nr)


def healpix_sampling(nside: int, indexing: str = "ring") -> Sampling:
    """HEALPix pixel centers, 12*nside^2 pixels.

    The nested variant is the ring-ordered point set permuted by
    _nest_to_ring, and carries the pooling hierarchy (parent of child c at
    nside/2 is c // 4) whenever nside >= 2.
    """
    if not isinstance(nside, (int, np.integer)) or not _is_power_of_two(int(nside)):
        raise InvalidArgumentError(f"nside must be a positive power of two, got {nside!r}")
    if indexing not in ("ring", "nested"):
        raise InvalidArgumentError(f"indexing must be 'ring' or 'nested', got {indexing!r}")
    nside = int(nside)
    points = _healpix_ring_points(nside)
    if indexing == "ring":
        return Sampling(points, "healpix-ring", nside)
    hierarchy = np.arange(12 * nside * nside, dtype=np.int64) // 4 if nside >= 2 else None
    return Sampling(np.take(points, _nest_to_ring(nside), axis=0), "healpix-nested", nside, hierarchy)


# ---------------------------------------------------------------------------
# Equiangular (Driscoll-Healy style 2b x 2b grid, offset colatitudes)
# ---------------------------------------------------------------------------

def equiangular_sampling(b: int) -> Sampling:
    """2b x 2b iso-latitude grid: theta_j = pi(2j+1)/(4b), phi_k = pi k / b.

    Row-major ordering (theta outer, phi inner). Even b carries the 2x2-block
    pooling hierarchy onto the bandwidth-b/2 grid.
    """
    if not isinstance(b, (int, np.integer)) or b < 1:
        raise InvalidArgumentError(f"bandwidth b must be a positive integer, got {b!r}")
    b = int(b)
    j = np.arange(2 * b)
    theta = np.pi * (2 * j + 1) / (4.0 * b)
    phi = np.pi * np.arange(2 * b) / b
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    pts = _zphi_to_xyz(np.cos(tt.ravel()), pp.ravel())
    hierarchy = None
    if b >= 2 and b % 2 == 0:
        jj, kk = np.divmod(np.arange(4 * b * b), 2 * b)
        hierarchy = (jj // 2) * b + (kk // 2)
    return Sampling(pts, "equiangular", b, hierarchy)


# ---------------------------------------------------------------------------
# Icosahedral
# ---------------------------------------------------------------------------

def _base_icosahedron():
    """12 vertices (two on +-z) and 20 faces of the unit icosahedron."""
    verts = [(0.0, 0.0, 1.0)]
    r, zu = 2.0 / np.sqrt(5.0), 1.0 / np.sqrt(5.0)
    for k in range(5):
        a = 2.0 * np.pi * k / 5.0
        verts.append((r * np.cos(a), r * np.sin(a), zu))
    for k in range(5):
        a = 2.0 * np.pi * k / 5.0 + np.pi / 5.0
        verts.append((r * np.cos(a), r * np.sin(a), -zu))
    verts.append((0.0, 0.0, -1.0))
    faces = []
    for k in range(5):
        kn = (k + 1) % 5
        u, un, l, ln = 1 + k, 1 + kn, 6 + k, 6 + kn
        faces.append((0, u, un))
        faces.append((u, l, un))
        faces.append((l, ln, un))
        faces.append((11, ln, l))
    return np.array(verts), faces


def icosahedral_sampling(level: int) -> Sampling:
    """Icosahedron subdivided `level` times, midpoints projected to the sphere.

    n = 10 * 4**level + 2. Vertices of level l-1 keep their indices, so each
    level's leading block is the previous level's sampling; the hierarchy maps
    an original vertex to itself and an edge midpoint to the lower-indexed
    endpoint of its parent edge.
    """
    if not isinstance(level, (int, np.integer)) or level < 0:
        raise InvalidArgumentError(f"level must be a non-negative integer, got {level!r}")
    verts, faces = _base_icosahedron()
    verts = [tuple(v) for v in verts]
    hierarchy = None
    for _ in range(int(level)):
        n_prev = len(verts)
        parent = list(range(n_prev))
        midpoint = {}

        def midpoint_index(a, b):
            key = (a, b) if a < b else (b, a)
            idx = midpoint.get(key)
            if idx is None:
                m = np.add(verts[a], verts[b])
                m = m / np.linalg.norm(m)
                idx = len(verts)
                verts.append(tuple(m))
                parent.append(key[0])
                midpoint[key] = idx
            return idx

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint_index(a, b), midpoint_index(b, c), midpoint_index(c, a)
            new_faces += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        faces = new_faces
        hierarchy = np.array(parent, dtype=np.int64)
    pts = np.array(verts, dtype=np.float64)
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return Sampling(pts, "icosahedral", int(level), hierarchy)


# ---------------------------------------------------------------------------
# Random uniform
# ---------------------------------------------------------------------------

def random_uniform_sampling(n: int, seed: int) -> Sampling:
    """n i.i.d. uniform points on the sphere (normalized 3D Gaussians)."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidArgumentError(f"n must be a positive integer, got {n!r}")
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((int(n), 3))
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    while np.any(norms < 1e-12):  # astronomically unlikely, but keep it total
        bad = norms[:, 0] < 1e-12
        pts[bad] = rng.standard_normal((int(bad.sum()), 3))
        norms = np.linalg.norm(pts, axis=1, keepdims=True)
    return Sampling(pts / norms, "random", int(n), None, seed=int(seed))


# ---------------------------------------------------------------------------
# Patch geometry
# ---------------------------------------------------------------------------

def sampling_geometry(s: Sampling) -> SamplingGeometry:
    """Estimate per-pixel patch areas and radii.

    Areas are exact 4*pi/n for HEALPix (equal-area by construction) and
    spherical-Voronoi cell areas otherwise. The patch radius d_i is estimated
    as half the largest chordal distance from x_i to its Voronoi-adjacent
    neighbors (Delaunay edges of the convex hull).
    """
    n = s.n
    if n < 4:
        raise InvalidArgumentError(f"sampling_geometry needs n >= 4, got {n}")
    dist, _ = cKDTree(s.points).query(s.points, k=2)
    if np.min(dist[:, 1]) < 1e-12:
        raise InvalidArgumentError("degenerate sampling: duplicate points")

    if s.scheme in ("healpix-ring", "healpix-nested"):
        areas = np.full(n, 4.0 * np.pi / n)
    else:
        sv = SphericalVoronoi(s.points, radius=1.0)
        sv.sort_vertices_of_regions()
        areas = sv.calculate_areas()

    simplices = ConvexHull(s.points).simplices
    i, j = simplices.ravel(), np.roll(simplices, -1, axis=1).ravel()  # the 3 edges of each simplex
    d = np.linalg.norm(s.points[i] - s.points[j], axis=1)
    neighbor_max = np.zeros(n)
    np.maximum.at(neighbor_max, i, d)
    np.maximum.at(neighbor_max, j, d)
    diameters = 0.5 * neighbor_max
    return SamplingGeometry(areas, diameters, float(diameters.max()), float(areas.max()))


# ---------------------------------------------------------------------------
# Band limits and automorphisms
# ---------------------------------------------------------------------------

def reliable_band(s: Sampling) -> int:
    """Largest harmonic degree the sampling supports for analysis.

    3*Nside - 1 for HEALPix, b - 1 for equiangular, floor(sqrt(n)) - 1 as a
    generic invertibility bound otherwise.
    """
    if s.scheme in ("healpix-ring", "healpix-nested"):
        return 3 * s.resolution - 1
    if s.scheme == "equiangular":
        return s.resolution - 1
    return isqrt(s.n) - 1


def _ring_count(s: Sampling) -> Optional[int]:
    """Number of iso-latitude rings that hold the sampling's pixels.

    4*Nside - 1 for HEALPix (ring or nested order), 2b for equiangular, None
    for schemes whose pixels are not laid out on rings.
    """
    if s.scheme in ("healpix-ring", "healpix-nested"):
        return 4 * s.resolution - 1
    if s.scheme == "equiangular":
        return 2 * s.resolution
    return None


@dataclass(frozen=True)
class PointSymmetry:
    """Maps that carry a scheme's point set onto itself by construction: the
    mirror y -> -y, the turn by 2 pi / turn_order about z, and either the
    mirror z -> -z (flip_z) or the inversion x -> -x."""

    turn_order: int
    flip_z: bool

    def generators(self) -> dict:
        """Orthogonal 3x3 matrix of each generator, by name."""
        return {
            "y -> -y": np.diag([1.0, -1.0, 1.0]),
            f"the turn by 2 pi/{self.turn_order} about z": z_rotation_matrix(2.0 * np.pi / self.turn_order),
            **({"z -> -z": np.diag([1.0, 1.0, -1.0])} if self.flip_z else {"x -> -x": -np.eye(3)}),
        }


def point_symmetry(s: Sampling) -> Optional[PointSymmetry]:
    """The symmetry a scheme declares for its point sets: C4 with both mirrors on
    HEALPix (Gorski et al. 2005), C_2b with both mirrors on the equiangular grid,
    C5 with the y mirror and the inversion on the icosahedral sampling (two
    vertices on +-z, the two pentagon rings offset by pi/5); None for random and
    custom samplings. It is a declaration: rotation_permutation verifies it."""
    if s.scheme in ("healpix-ring", "healpix-nested"):
        return PointSymmetry(4, True)
    if s.scheme == "equiangular":
        return PointSymmetry(2 * s.resolution, True)
    if s.scheme == "icosahedral":
        return PointSymmetry(5, False)
    return None


def rotation_permutation(s: Sampling, rotation_matrix: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Permutation realizing a rotation (or any orthogonal map, such as a mirror)
    that maps the sampling onto itself.

    Returns perm with perm[i] = index of the sampling point equal to
    R^T x_i (i.e. g^{-1} x_i), so that composing a sampled signal f as
    f[perm] evaluates f after rotation by g. Raises InvalidArgumentError if
    the rotated point set does not coincide with the sampling within tol.
    """
    R = np.asarray(rotation_matrix, dtype=np.float64)
    if R.shape != (3, 3):
        raise InvalidArgumentError("rotation_matrix must be 3x3")
    rotated = s.points @ R  # rows: R^T x_i
    dist, idx = cKDTree(s.points).query(rotated, k=1)
    if dist.max() > tol:
        raise InvalidArgumentError(
            f"rotation is not a sampling automorphism: max mismatch {dist.max():.3e} > {tol:.1e}"
        )
    if len(np.unique(idx)) != s.n:
        raise InvalidArgumentError("rotation does not permute the sampling bijectively")
    return idx.astype(np.int64)


def z_rotation_matrix(angle: float) -> np.ndarray:
    """Rotation by `angle` about the z axis."""
    c, si = np.cos(angle), np.sin(angle)
    return np.array([[c, -si, 0.0], [si, c, 0.0], [0.0, 0.0, 1.0]])
