"""Band-limited spherical harmonic analysis, synthesis, and exact SO(3) rotation.

Conventions: orthonormal complex harmonics with the Condon-Shortley phase,
so integral(Y_lm * conj(Y_l'm')) = delta. Coefficient tables are flat complex
arrays of length (lmax+1)^2 indexed by l*l + l + m. One cached row map,
_row_map(lo, hi), decodes that layout for a table spanning degrees lo..hi:
each row's degree l, its order m, and the row that holds order -m. The
real/complex conversions, the conjugate-symmetry check, the Wigner turns and
the coefficient CSV columns all read it. Rotations are active ZYZ
Euler triples g = Rz(alpha) Ry(beta) Rz(gamma); the function-space operator is
(R(g) f)(x) = f(g^{-1} x), realized on coefficients by Wigner-D blocks.

Inside the package (AnalysisPlan, RotationOperator, the equivariance engine)
the work is done in the real orthonormal basis R = Y U: R_l0 = Y_l0,
R_lm = sqrt(2) Re Y_lm and R_l,-m = sqrt(2) Im Y_lm for m > 0. evaluate_basis
evaluates R directly from one Legendre recurrence; the complex Y_lm are never
sampled. U is one fixed unitary per degree, so real tables are r = U^H a and
real Wigner blocks are U^H D U (Blanco, Florez & Bermejo 1997). Complex tables
appear only at the HarmonicCoeffs boundary: analysis, synthesis, rotate_coeffs
and the CSV files.

AnalysisPlan reaches the basis only through B u, B^T x, B's columns of a
degree range and the upper triangles of G = B^T B's symmetry-class blocks.
The mirrors and turns a scheme declares (samplings.point_symmetry) part the
rows (l, m) into classes that G does not couple (_symmetry_classes): 12 on
HEALPix and icosahedral samplings, one per order and parity on equiangular
grids below their bandwidth, one class on random and custom samplings. The
plan verifies the declared symmetry on the points once, and keeps one
Cholesky factor per class instead of one of the whole m x m Gram matrix. On
samplings whose pixels lie on iso-latitude rings (HEALPix ring and nested,
equiangular) it keeps B factored into per-ring Legendre values and per-pixel
cos m phi / sin m phi (_RingBasis) and synthesizes ring by ring, never
holding an n x (lmax+1)^2 array; other samplings keep that dense array
(_DenseBasis). _sampled_basis makes that choice and the memory check for
every user of B on a sampling. Both bases form G's class blocks the same way
(_gram_blocks): dsyrk on slabs of a class's columns B[pixels, rows], which
each basis gathers from what it holds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
import scipy.linalg as sla

from .errors import (IllPosedAnalysisError, InvalidArgumentError, NumericalFailureError,
                     check_memory)
from .samplings import (Sampling, _ring_count, _zphi_to_xyz, point_symmetry, reliable_band,
                        rotation_permutation)

_CONDITION_LIMIT = 1e12
_RIDGE_REL = 1e-12
_SQRT2 = np.sqrt(2.0)


def coeff_index(l: int, m: int) -> int:
    """Flat position of (l, m) in a coefficient table."""
    return l * l + l + m


def degree_slice(l: int) -> slice:
    """Flat positions of all orders of degree l."""
    return slice(l * l, (l + 1) * (l + 1))


@functools.lru_cache(maxsize=256)
def _row_map(lo: int, hi: int) -> tuple:
    """Degree l, order m and the row of order -m for each row of a table spanning
    degrees lo..hi (flat positions lo^2 on, counted from 0); cached, read-only."""
    l = np.repeat(np.arange(lo, hi + 1), np.arange(2 * lo + 1, 2 * hi + 2, 2))
    m = np.arange(lo * lo, (hi + 1) ** 2) - l * l - l
    maps = (l, m, np.arange(m.size) - 2 * m)
    for a in maps:
        a.setflags(write=False)
    return maps


def _order_pairs(lo: int, hi: int, ndim: int) -> tuple:
    """Rows m = 0, rows m > 0, their -m rows, and (-1)^m broadcast along axis 0."""
    _, m, mirror = _row_map(lo, hi)
    pos = np.flatnonzero(m > 0)
    return m == 0, pos, mirror[pos], ((-1.0) ** m[pos])[(slice(None),) + (None,) * (ndim - 1)]


def _real_from_complex(a: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """U^H a along axis 0 of a table spanning degrees lo..hi: the real-basis coefficients."""
    centre, pos, neg, sign = _order_pairs(lo, hi, a.ndim)
    p, q = a[pos], sign * a[neg]
    r = np.empty(a.shape, dtype=np.complex128)
    r[centre] = a[centre]
    r[pos] = (p + q) / _SQRT2
    r[neg] = 1j * (p - q) / _SQRT2
    return r


def _complex_from_real(r: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """U r along axis 0 of a table spanning degrees lo..hi: the complex coefficients."""
    centre, pos, neg, sign = _order_pairs(lo, hi, r.ndim)
    p, q = r[pos], r[neg]
    a = np.empty(r.shape, dtype=np.complex128)
    a[centre] = r[centre]
    a[pos] = (p - 1j * q) / _SQRT2
    a[neg] = sign * (p + 1j * q) / _SQRT2
    return a


@dataclass(frozen=True)
class HarmonicCoeffs:
    """Complex coefficients a_lm for 0 <= l <= lmax, -l <= m <= l."""

    lmax: int
    values: np.ndarray

    def __post_init__(self):
        if self.lmax < 0:
            raise InvalidArgumentError(f"lmax must be >= 0, got {self.lmax}")
        v = np.ascontiguousarray(self.values, dtype=np.complex128)
        if v.shape != ((self.lmax + 1) ** 2,):
            raise InvalidArgumentError(
                f"coefficient table must have length {(self.lmax + 1) ** 2}, got {v.shape}"
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_real(cls, lmax: int, real_values: np.ndarray) -> "HarmonicCoeffs":
        """The complex table a = U r of a real-basis table r, checked as a complex table is."""
        return cls(lmax, _complex_from_real(cls(lmax, real_values).values, 0, lmax))

    def real_values(self) -> np.ndarray:
        """The real-basis table r = U^H a (real up to rounding when conjugate-symmetric)."""
        return _real_from_complex(self.values, 0, self.lmax)

    def degree(self, l: int) -> np.ndarray:
        return self.values[degree_slice(l)]

    def conjugate_symmetry_defect(self) -> float:
        """Max |a_{l,-m} - (-1)^m conj(a_lm)| over the table."""
        _, m, mirror = _row_map(0, self.lmax)
        return float(np.abs(self.values - ((-1.0) ** m) * np.conj(self.values[mirror])).max())


@dataclass(frozen=True)
class Rotation:
    """Active ZYZ Euler angles: R = Rz(alpha) Ry(beta) Rz(gamma)."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not (np.isfinite([self.alpha, self.gamma]).all() and -1e-9 <= self.beta <= np.pi + 1e-9):
            raise InvalidArgumentError("alpha and gamma must be finite and beta must lie in "
                                       f"[0, pi], got {self.alpha}, {self.beta}, {self.gamma}")
        object.__setattr__(self, "alpha", float(self.alpha) % (2.0 * np.pi))
        object.__setattr__(self, "beta", float(min(max(self.beta, 0.0), np.pi)))
        object.__setattr__(self, "gamma", float(self.gamma) % (2.0 * np.pi))

    @property
    def matrix(self) -> np.ndarray:
        ca, sa = np.cos(self.alpha), np.sin(self.alpha)
        cb, sb = np.cos(self.beta), np.sin(self.beta)
        cg, sg = np.cos(self.gamma), np.sin(self.gamma)
        return np.array(
            [
                [ca * cb * cg - sa * sg, -ca * cb * sg - sa * cg, ca * sb],
                [sa * cb * cg + ca * sg, -sa * cb * sg + ca * cg, sa * sb],
                [-sb * cg, sb * sg, cb],
            ]
        )

    @staticmethod
    def from_matrix(R: np.ndarray) -> "Rotation":
        R = np.asarray(R, dtype=np.float64)
        # atan2 keeps beta well conditioned near 0 and pi, unlike arccos(R33)
        beta = float(np.arctan2(np.hypot(R[0, 2], R[1, 2]), R[2, 2]))
        if np.sin(beta) > 1e-12:
            alpha = float(np.arctan2(R[1, 2], R[0, 2]))
            gamma = float(np.arctan2(R[2, 1], -R[2, 0]))
        elif R[2, 2] > 0:  # beta = 0: only alpha + gamma matters
            alpha = float(np.arctan2(R[1, 0], R[0, 0]))
            gamma = 0.0
        else:  # beta = pi: only alpha - gamma matters
            alpha = float(np.arctan2(-R[1, 0], -R[0, 0]))
            gamma = 0.0
        return Rotation(alpha, beta, gamma)

    def compose(self, other: "Rotation") -> "Rotation":
        """Rotation with matrix self.matrix @ other.matrix."""
        return Rotation.from_matrix(self.matrix @ other.matrix)

    def inverse(self) -> "Rotation":
        return Rotation.from_matrix(self.matrix.T)


# ---------------------------------------------------------------------------
# Basis evaluation
# ---------------------------------------------------------------------------

def evaluate_basis(s: Union[Sampling, np.ndarray], lmax: int) -> np.ndarray:
    """Real orthonormal basis R = Y U at a Sampling or raw (n,3) points, float64 of
    shape (n, (lmax+1)^2): R_l0 = p_l0, R_lm = sqrt(2) p_lm cos(m phi) and
    R_l,-m = sqrt(2) p_lm sin(m phi) for m > 0, at the flat positions of Y_lm.

    The fully normalized associated Legendre values p_lm (Condon-Shortley phase
    included) come from the standard ascending three-term recurrence, which is
    stable far beyond the desk-scale band limits used here. A running e^{i m phi}
    vector supplies cos and sin; no complex matrix is formed.
    """
    if lmax < 0:
        raise InvalidArgumentError("lmax must be >= 0")
    pts = s.points if isinstance(s, Sampling) else np.asarray(s, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[None, :]
    n = pts.shape[0]
    z = np.clip(pts[:, 2], -1.0, 1.0)
    sin_theta = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = np.arctan2(pts[:, 1], pts[:, 0])

    out = np.empty((n, (lmax + 1) ** 2))
    e_iphi = np.exp(1j * phi)
    phase = np.ones(n, dtype=np.complex128)  # e^{i m phi}
    p_mm = np.full(n, 1.0 / np.sqrt(4.0 * np.pi))  # normalized P_{m,m}
    for m in range(0, lmax + 1):
        if m > 0:
            p_mm = -np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * sin_theta * p_mm
            phase = phase * e_iphi
        p_lm_minus1 = np.zeros(n)
        p_lm = p_mm
        for l in range(m, lmax + 1):
            if l > m:
                a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
                b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
                p_lm, p_lm_minus1 = a * (z * p_lm - b * p_lm_minus1), p_lm
            if m == 0:
                out[:, coeff_index(l, 0)] = p_lm
            else:
                np.multiply(p_lm * phase.real, _SQRT2, out=out[:, coeff_index(l, m)])
                np.multiply(p_lm * phase.imag, _SQRT2, out=out[:, coeff_index(l, -m)])
    if not np.all(np.isfinite(out)):
        raise NumericalFailureError("basis evaluation produced non-finite values",
                                    {"lmax": lmax})
    return out


# ---------------------------------------------------------------------------
# Wigner rotation
# ---------------------------------------------------------------------------

@functools.cache
def _jy_eigenbasis(l: int):
    """Eigendecomposition of the angular-momentum operator J_y at degree l."""
    dim = 2 * l + 1
    m = np.arange(-l, l)
    c = np.sqrt(l * (l + 1.0) - m * (m + 1.0))
    jy = np.zeros((dim, dim), dtype=np.complex128)
    jy[np.arange(1, dim), np.arange(dim - 1)] = -0.5j * c  # <m+1| J_y |m>
    jy[np.arange(dim - 1), np.arange(1, dim)] = 0.5j * c
    evals, evecs = np.linalg.eigh(jy)
    evals = np.round(evals)  # exactly -l..l in exact arithmetic
    return evals, evecs


def wigner_d_matrix(l: int, beta: float) -> np.ndarray:
    """Real (2l+1)x(2l+1) matrix d^l_{m'm}(beta) = <l m'|exp(-i beta J_y)|l m>."""
    evals, evecs = _jy_eigenbasis(l)
    d = (evecs * np.exp(-1j * beta * evals)) @ evecs.conj().T
    return d.real


def wigner_D_matrix(l: int, g: Rotation) -> np.ndarray:
    """Complex Wigner-D block: D^l_{m'm} = e^{-i m' alpha} d^l_{m'm}(beta) e^{-i m gamma}."""
    m = np.arange(-l, l + 1)
    d = wigner_d_matrix(l, g.beta)
    return np.exp(-1j * g.alpha * m)[:, None] * d * np.exp(-1j * g.gamma * m)[None, :]


@functools.cache
def _jy_real_schur(l: int) -> np.ndarray:
    """Real orthogonal Q with d^l(beta) = Q T(beta) Q^T in the real basis.

    T(theta) is the turn of the z-rotations: it maps position m of a degree-l
    block to cos(m theta) x_m - sin(m theta) x_-m. Columns k and -k (k = 1..l)
    are sqrt(2) Re w and sqrt(2) Im w, where w = U^H v is the unit eigenvector
    v of J_y with eigenvalue k in the real basis; column 0 is the fixed axis.
    """
    w = _real_from_complex(_jy_eigenbasis(l)[1], l, l)
    axis = w[:, l]
    j = int(np.argmax(np.abs(axis)))
    axis = (axis * np.conj(axis[j]) / abs(axis[j])).real  # real up to its phase
    turning = w[:, l + 1:]  # eigenvalues 1..l
    return np.column_stack([_SQRT2 * turning.imag[:, ::-1], axis, _SQRT2 * turning.real])


class WignerBlocks:
    """Real Wigner blocks U^H D^l(g) U of a set of rotations, l = 0..lmax.

    _rotate applies each D as its factors T(alpha) Q T(beta) Q^T T(gamma),
    with Q from _jy_real_schur (Blanco, Florez & Bermejo 1997); apply(table)
    runs it on the whole table and forms no block. cos and sin of m times each
    Euler angle are tabulated once for m = 0..lmax, so reusing the rotations
    (once per kernel width in a search) redoes no trigonometry. blocks[l]
    forms the stack of degree l, shape (len(rotations), 2l+1, 2l+1), as
    _rotate of the degree-l identity, and keeps nothing.
    """

    def __init__(self, lmax: int, rotations: Sequence[Rotation]):
        self.lmax = lmax
        self.n_rotations = len(rotations)
        # m theta of shape (3, lmax+1, n_rot) for theta = gamma, beta, alpha, the order of the turns
        euler = np.array([[g.gamma, g.beta, g.alpha] for g in rotations]).reshape(-1, 3).T
        angle = np.arange(lmax + 1)[None, :, None] * euler[:, None, :]
        self._cos, self._sin = np.cos(angle), np.sin(angle)

    def __getitem__(self, l: int) -> np.ndarray:
        if not 0 <= l <= self.lmax:
            raise IndexError(f"degree {l} outside 0..{self.lmax}")
        columns = self._rotate(np.eye(2 * l + 1)[:, None, :], l, l)  # (2l+1, n_rot, 2l+1)
        return np.ascontiguousarray(columns.transpose(1, 0, 2))

    def apply(self, table: np.ndarray) -> np.ndarray:
        """Rotated copies of a table of shape ((lmax+1)^2, ...): out[:, r] is rotation r's."""
        table = np.asarray(table)
        out = self._rotate(table.reshape(table.shape[0], 1, -1), 0, self.lmax)
        return out.reshape((table.shape[0], self.n_rotations) + table.shape[1:])

    def _rotate(self, x: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """D x for each rotation, on rows of x spanning degrees lo..hi; x has
        shape (rows, 1 or n_rot, columns) and the result (rows, n_rot, columns)."""
        x = self._by_q(self._turn(x, 0, lo, hi), lo, hi, transpose=True)
        return self._turn(self._by_q(self._turn(x, 1, lo, hi), lo, hi), 2, lo, hi)

    def _turn(self, x: np.ndarray, angle: int, lo: int, hi: int) -> np.ndarray:
        """T(theta_r) on rows of degrees lo..hi: x_m -> cos(m theta) x_m - sin(m theta) x_-m,
        theta being the tables' angle number `angle` (0 gamma, 1 beta, 2 alpha)."""
        _, m, mirror = _row_map(lo, hi)
        order = np.abs(m)
        out = x[mirror] * (self._sin[angle][order] * -np.sign(m)[:, None])[:, :, None]
        out += self._cos[angle][order][:, :, None] * x  # in place: one table-sized temporary fewer
        return out

    @staticmethod
    def _by_q(x: np.ndarray, lo: int, hi: int, transpose: bool = False) -> np.ndarray:
        """Q (or Q^T) of each degree lo..hi times that degree's rows of x: one GEMM per degree."""
        out = np.empty_like(x)
        for l in range(lo, hi + 1):
            q = _jy_real_schur(l)
            sl = slice(l * l - lo * lo, (l + 1) ** 2 - lo * lo)
            np.matmul(q.T if transpose else q, x[sl].reshape(2 * l + 1, -1),
                      out=out[sl].reshape(2 * l + 1, -1))
        return out


def wigner_D_blocks(lmax: int, rotations: Sequence[Rotation]) -> WignerBlocks:
    """Real Wigner blocks U^H D^l(g) U of the rotations for l = 0..lmax."""
    return WignerBlocks(lmax, rotations)


def rotate_coeffs(coeffs: HarmonicCoeffs, g: Rotation) -> HarmonicCoeffs:
    """Rotate a coefficient table: synthesis(rotate_coeffs(a, g)) = f(g^{-1} x)."""
    rotated = wigner_D_blocks(coeffs.lmax, [g]).apply(coeffs.real_values())[:, 0]
    return HarmonicCoeffs.from_real(coeffs.lmax, rotated)


# ---------------------------------------------------------------------------
# Analysis / synthesis
# ---------------------------------------------------------------------------

def _symmetry_classes(s: Sampling, lmax: int) -> list:
    """Rows of each symmetry class of a table spanning degrees 0..lmax, each in
    flat order; one class of every row where the scheme declares no symmetry.

    A map h that carries the sampling onto itself permutes its pixels, so
    B(h x) = B(x) D(h) and G = B^T B commutes with D(h): G couples only rows
    that h transforms alike. The mirror y -> -y keeps cos m phi and negates
    sin m phi, so it parts the orders m >= 0 from m < 0; the turn by 2 pi / p
    couples |m| only with |m'| = +-|m| (mod p); z -> -z multiplies a row by
    (-1)^(l+|m|) and x -> -x by (-1)^l. The classes depend on the scheme and
    lmax only; _check_symmetry verifies that the points have the symmetry.
    """
    sym = point_symmetry(s)
    if sym is None:
        return [np.arange((lmax + 1) ** 2)]
    l, m, _ = _row_map(0, lmax)
    order = np.abs(m)
    turn = np.minimum(order % sym.turn_order, -order % sym.turn_order)
    parity = (l + order) % 2 if sym.flip_z else l % 2
    _, label = np.unique((turn * 2 + parity) * 2 + (m < 0), return_inverse=True)
    rows = np.argsort(label, kind="stable")
    return np.split(rows, np.cumsum(np.bincount(label))[:-1])


def _check_symmetry(s: Sampling) -> None:
    """InvalidArgumentError unless every generator its scheme declares maps the
    sampling's points onto themselves."""
    sym = point_symmetry(s)
    for name, matrix in ({} if sym is None else sym.generators()).items():
        try:
            rotation_permutation(s, matrix)
        except InvalidArgumentError as err:
            raise InvalidArgumentError(
                f"{s.scheme} sampling at resolution {s.resolution} lacks its scheme's "
                f"symmetry {name}: {err}"
            ) from None


class _DenseBasis:
    """B held whole, as the n x m array evaluate_basis returns: the route of
    samplings without iso-latitude rings."""

    def __init__(self, s: Sampling, lmax: int):
        self.matrix = evaluate_basis(s, lmax)
        self.n = s.n

    @staticmethod
    def nbytes(s: Sampling, lmax: int) -> int:
        """Bytes of the n x m array a dense basis holds."""
        return 8 * s.n * (lmax + 1) ** 2

    def submatrix(self, pixels: slice, rows: np.ndarray) -> np.ndarray:
        """B[pixels, rows], C-contiguous."""
        return self.matrix[pixels].take(rows, axis=1)

    def synthesize(self, table: np.ndarray) -> np.ndarray:
        return self.matrix @ table

    def adjoint(self, values: np.ndarray) -> np.ndarray:
        return self.matrix.T @ values

    def columns(self, lo: int, hi: int) -> np.ndarray:
        return self.matrix[:, lo * lo:(hi + 1) ** 2]


class _RingBasis:
    """B of an iso-latitude sampling in factored form (Gorski et al. 2005;
    Driscoll & Healy 1994).

    A pixel on ring r at longitude phi has B[pixel, (l, m)] =
    lam[|m|, r, l] * trig(m phi): lam[m, r, l] is the real basis at the
    ring's z and phi = 0 (evaluate_basis at one point per ring; zero for
    l < m), and trig is cos(m phi) for m >= 0 and sin(|m| phi) for m < 0.
    The trig table has one row per slot of the rings padded to the longest
    ring, cos(m phi) in column m and sin(m phi) in column lmax + m. Synthesis
    sums over l for each order (one batched GEMM for the cos orders, one for
    the sin orders) and then over orders for each ring (one batched GEMM over
    the rings); the adjoint is the transpose of the two steps. The pixel
    order (ring or nested) is only the map from pixels to slots.
    submatrix(pixels, rows) gathers B's entries as each pixel's ring Legendre
    values times its cos/sin columns: the slabs _gram_blocks runs dsyrk on,
    and (over all pixels) the columns of a degree range. At HEALPix nside 32
    (lmax 95) a plan built that way took 2.5-2.8 s, where forming G one
    degree's block column at a time through the adjoint's two steps took
    3.7-4.4 s.
    """

    def __init__(self, s: Sampling, lmax: int):
        ring_z, ring = np.unique(s.points[:, 2], return_inverse=True)
        rings = _ring_count(s)
        if ring_z.size != rings:
            raise InvalidArgumentError(
                f"{s.scheme} sampling at resolution {s.resolution} has {ring_z.size} distinct "
                f"z values, not the scheme's {rings} rings"
            )
        counts = np.bincount(ring)
        width = int(counts.max())
        place = np.empty(s.n, dtype=np.int64)  # position of each pixel in its ring
        place[np.argsort(ring, kind="stable")] = (np.arange(s.n)
                                                  - np.repeat(np.cumsum(counts) - counts, counts))
        self.n, self.lmax = s.n, lmax
        self._ring = ring
        self._slot = ring * width + place

        orders = lmax + 1
        l, m, _ = _row_map(0, lmax)
        at_phi0 = evaluate_basis(_zphi_to_xyz(ring_z, np.zeros_like(ring_z)), lmax)
        self._lam = np.zeros((orders, rings, orders))
        up = m >= 0
        self._lam[m[up], :, l[up]] = at_phi0[:, up].T
        # row (l, m) of a table is row l of by-order block m (m >= 0) or lmax + |m| (m < 0)
        self._table_row = self._trig_column(m) * orders + l

        angle = np.multiply.outer(np.arctan2(s.points[:, 1], s.points[:, 0]), np.arange(orders))
        trig = np.zeros((rings * width, 2 * lmax + 1))
        trig[self._slot] = np.hstack([np.cos(angle), np.sin(angle[:, 1:])])
        self._trig = trig.reshape(rings, width, 2 * lmax + 1)

    @staticmethod
    def nbytes(s: Sampling, lmax: int) -> int:
        """Bytes of the tables a ring basis holds: lam, the trig table padded to
        the longest ring, and the pixels' ring and slot indices."""
        counts = np.unique(s.points[:, 2], return_counts=True)[1]
        return 8 * (counts.size * ((lmax + 1) ** 2 + int(counts.max()) * (2 * lmax + 1)) + 2 * s.n)

    def synthesize(self, table: np.ndarray) -> np.ndarray:
        orders = self.lmax + 1
        u = table.reshape(table.shape[0], -1)
        dtype = np.result_type(u, 1.0)
        by_order = np.zeros(((2 * orders - 1) * orders, u.shape[1]), dtype)
        by_order[self._table_row] = u
        by_order = by_order.reshape(2 * orders - 1, orders, -1)
        ring_sums = np.empty((2 * orders - 1, self._lam.shape[1], u.shape[1]), dtype)
        np.matmul(self._lam, by_order[:orders], out=ring_sums[:orders])
        np.matmul(self._lam[1:], by_order[orders:], out=ring_sums[orders:])
        del by_order  # each step's input is freed before the next one allocates
        slots = np.matmul(self._trig, ring_sums.transpose(1, 0, 2))
        del ring_sums
        return slots.reshape(-1, u.shape[1])[self._slot].reshape((self.n,) + table.shape[1:])

    def adjoint(self, values: np.ndarray) -> np.ndarray:
        x = values.reshape(self.n, -1)
        dtype = np.result_type(x, 1.0)  # analysis also takes complex pixel values
        slots = np.zeros((self._trig.shape[0] * self._trig.shape[1], x.shape[1]), dtype)
        slots[self._slot] = x
        ring_sums = np.matmul(self._trig.transpose(0, 2, 1),
                              slots.reshape(self._trig.shape[:2] + (-1,)))
        del slots  # each step's input is freed before the next one allocates
        by_order = self._legendre_adjoint(ring_sums)
        del ring_sums
        out = by_order.reshape(-1, x.shape[1])[self._table_row]
        return out.reshape((out.shape[0],) + values.shape[1:])

    def _legendre_adjoint(self, ring_sums: np.ndarray) -> np.ndarray:
        """The adjoint's sum over rings for each order: per-ring cos/sin sums of
        shape (rings, 2 lmax + 1, cols) to by-order blocks (2 lmax + 1, lmax + 1, cols)."""
        orders = self.lmax + 1
        sums = ring_sums.transpose(1, 0, 2)  # (2 lmax + 1, rings, cols)
        lam_t = self._lam.transpose(0, 2, 1)
        by_order = np.empty((2 * orders - 1, orders, ring_sums.shape[2]), ring_sums.dtype)
        np.matmul(lam_t, sums[:orders], out=by_order[:orders])
        np.matmul(lam_t[1:], sums[orders:], out=by_order[orders:])
        return by_order

    def submatrix(self, pixels: slice, rows: np.ndarray) -> np.ndarray:
        """B[pixels, rows], C-contiguous: each pixel's ring Legendre values times
        its cos/sin columns, gathered about 2^20 entries at a time, so that the
        gathered cos/sin columns stay small beside the result."""
        l, m, _ = _row_map(0, self.lmax)
        l, m = l[rows], m[rows]
        lam = np.ascontiguousarray(self._lam[np.abs(m), :, l].T)  # (rings, rows)
        out = lam[self._ring[pixels]]
        trig = self._trig.reshape(-1, self._trig.shape[2])
        slot, column = self._slot[pixels], self._trig_column(m)
        step = max(1, (1 << 20) // column.size)
        for start in range(0, slot.size, step):
            out[start:start + step] *= trig[np.ix_(slot[start:start + step], column)]
        return out

    def columns(self, lo: int, hi: int) -> np.ndarray:
        return self.submatrix(slice(None), np.arange(lo * lo, (hi + 1) ** 2))

    def _trig_column(self, m: np.ndarray) -> np.ndarray:
        """Column of cos(m phi) (m >= 0) or sin(|m| phi) (m < 0) in the trig table."""
        return np.where(m >= 0, m, self.lmax - m)


def _sampled_basis(s: Sampling, lmax: int, extra_bytes: int = 0):
    """B on a sampling, ring-factored where the scheme has rings and dense
    elsewhere; InvalidArgumentError, before anything large is allocated, when
    it and extra_bytes more would exceed physical memory."""
    basis_class = _DenseBasis if _ring_count(s) is None else _RingBasis
    check_memory(basis_class.nbytes(s, lmax) + extra_bytes,
                 f"the basis at n={s.n}, lmax={lmax} with its work arrays")
    return basis_class(s, lmax)


def _gram_blocks(basis, classes: list) -> list:
    """The upper triangle of each class's block of G = B^T B, strict lower
    triangle zero: BLAS dsyrk on the class's columns of B, summed over slabs
    of pixels that the basis gathers, so that neither an n x m nor an m x m
    array is formed. A slab holds at most a quarter of the entries of all
    class blocks together, and at least a quarter as many pixels as the
    class has rows."""
    total = sum(rows.size ** 2 for rows in classes)
    blocks = []
    for rows in classes:
        block = np.zeros((rows.size, rows.size), order="F")  # dsyrk and the factor work in place
        step = max(total // (4 * rows.size), rows.size // 4, 1)
        for start in range(0, basis.n, step):
            slab = basis.submatrix(slice(start, start + step), rows)
            block = sla.blas.dsyrk(1.0, slab.T, beta=1.0, c=block, lower=0, overwrite_c=1)
            del slab  # freed before the next slab is gathered
        blocks.append(block)
    return blocks


class AnalysisPlan:
    """Factorized least-squares analysis for one (sampling, lmax) pair.

    Holds the real basis B and, for each symmetry class of the sampling
    (_symmetry_classes), the inverse R_c^-1 of the upper Cholesky factor of
    G_c + ridge*I = R_c^T R_c, where G_c is the class's block of G = B^T B and
    the ridge is 1e-12 relative to the mean Gram diagonal. G couples no two
    classes, so Cholesky fills in nothing between them: the class factors are
    the blocks of G's own factor, each in flat row order. B is kept as
    _sampled_basis chooses; for either basis _gram_blocks forms the upper
    triangle of each class block by dsyrk on slabs of the class's columns,
    and no m x m array is formed. One array per class holds its block, then
    R_c, then R_c^-1; the memory guard counts them, a slab of at most a quarter of
    their entries and the basis. The condition estimate is read from the factors' diagonals
    before they are inverted. Callers reach B only through synthesize (B u),
    adjoint (B^T x) and columns (B's columns of a degree range). Tables in and
    out are real-basis tables. Where a sampling theorem holds the ridge solve
    reduces to the exact transform; elsewhere it is the regularized
    approximation of the inverse sampling operator.
    """

    def __init__(self, s: Sampling, lmax: int):
        ncoef = (lmax + 1) ** 2
        if ncoef > s.n:
            raise InvalidArgumentError(
                f"analysis needs (lmax+1)^2 <= n: {ncoef} > {s.n}"
            )
        classes = _symmetry_classes(s, lmax)
        # beside the basis: one array per class, which holds G_c, then R_c, then
        # R_c^-1, and a slab of at most a quarter of their entries
        self._basis = _sampled_basis(s, lmax, extra_bytes=10 * sum(c.size ** 2 for c in classes))
        _check_symmetry(s)
        self.sampling = s
        self.lmax = lmax
        self._classes = classes
        # upper triangles; the strict lower triangles stay zero from here to
        # R_c^-1, which solve multiplies by whole
        blocks = _gram_blocks(self._basis, classes)
        ridge = _RIDGE_REL * sum(float(np.trace(block)) for block in blocks) / ncoef
        diag = []
        for block in blocks:
            block[np.diag_indices(block.shape[0])] += ridge
            factor, _ = sla.cho_factor(block, lower=False, overwrite_a=True)
            diag.append(np.abs(np.diag(factor)))
        diag = np.concatenate(diag)
        self.condition_estimate = float((diag.max() / diag.min()) ** 2)
        if self.condition_estimate > _CONDITION_LIMIT:
            raise IllPosedAnalysisError(
                f"basis matrix numerically rank-deficient "
                f"(condition estimate {self.condition_estimate:.2e})",
                condition_estimate=self.condition_estimate,
            )
        # R_c^-1 in place of R_c, so that solve is numpy GEMMs: scipy's
        # triangular solves run on scipy's own OpenBLAS thread pool, which
        # fights numpy's for the cores when the two alternate
        self._r_inv = []
        for factor in blocks:
            r_inv, info = sla.lapack.dtrtri(factor, lower=0, overwrite_c=1)
            if info != 0:
                raise NumericalFailureError(f"inverting the Gram factor failed (LAPACK info {info})",
                                            {"info": info})
            self._r_inv.append(r_inv)

    def synthesize(self, table: np.ndarray) -> np.ndarray:
        """B table: pixel values of real-basis table(s) (m,) or (m, cols)."""
        return self._basis.synthesize(table)

    def adjoint(self, values: np.ndarray) -> np.ndarray:
        """B^T values for pixel values (n,) or (n, cols)."""
        return self._basis.adjoint(values)

    def columns(self, lo: int, hi: int) -> np.ndarray:
        """The (n, (hi+1)^2 - lo^2) columns of B for degrees lo..hi."""
        return self._basis.columns(lo, hi)

    def analyze_table(self, signal: np.ndarray) -> np.ndarray:
        """Least-squares real-basis table(s) for pixel values (n,) or (n, cols)."""
        return self.solve(self.adjoint(signal))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """(G + ridge I)^-1 rhs, class by class: R_c^-1 (R_c^-T rhs_c) for each
        class's rows, for G_c + ridge I = R_c^T R_c.

        Two numpy matrix products per class, and no scipy call. Beside the
        result it holds the class's gathered rows and R_c^-T times them; the
        second product overwrites the gathered rows.
        """
        out = np.empty(rhs.shape, dtype=np.result_type(rhs, 1.0))
        for rows, r_inv in zip(self._classes, self._r_inv):
            part = rhs[rows].astype(out.dtype, copy=False)
            np.matmul(r_inv, r_inv.T @ part, out=part)
            out[rows] = part
        return out


def _checked_plan(plan: AnalysisPlan, s: Sampling, lmax: int) -> AnalysisPlan:
    """plan, if it was built for this very sampling object and band."""
    if plan.sampling is not s or plan.lmax != lmax:
        raise InvalidArgumentError(
            f"the plan was built for another sampling or band (plan lmax {plan.lmax}, "
            f"lmax {lmax}); pass the Sampling object the plan was built from"
        )
    return plan


def analysis(s: Sampling, signal: np.ndarray, lmax: int,
             plan: Optional[AnalysisPlan] = None) -> HarmonicCoeffs:
    """Band-limited coefficients of sampled values by regularized least squares."""
    signal = np.asarray(signal)
    if signal.shape != (s.n,):
        raise InvalidArgumentError(f"signal must have shape ({s.n},)")
    plan = AnalysisPlan(s, lmax) if plan is None else _checked_plan(plan, s, lmax)
    return HarmonicCoeffs.from_real(lmax, plan.analyze_table(signal))


def synthesis(s: Sampling, coeffs: HarmonicCoeffs,
              plan: Optional[AnalysisPlan] = None) -> np.ndarray:
    """Pixel values sum_lm a_lm Y_lm(x_i) of a conjugate-symmetric table."""
    scale = float(np.abs(coeffs.values).max()) if coeffs.values.size else 0.0
    if scale > 0 and coeffs.conjugate_symmetry_defect() > 1e-10 * scale:
        raise InvalidArgumentError(
            "coefficients are not conjugate-symmetric; synthesis would be complex"
        )
    basis = (_sampled_basis(s, coeffs.lmax) if plan is None
             else _checked_plan(plan, s, coeffs.lmax))
    return basis.synthesize(coeffs.real_values().real)


class RotationOperator:
    """Matrix-free sampled rotation operator: synthesis . rotate . analysis."""

    def __init__(self, s: Sampling, g: Rotation, lmax: int,
                 plan: Optional[AnalysisPlan] = None):
        self.sampling = s
        self.rotation = g
        self.lmax = lmax
        self.plan = AnalysisPlan(s, lmax) if plan is None else _checked_plan(plan, s, lmax)
        self.blocks = wigner_D_blocks(lmax, [g])

    def apply(self, f: np.ndarray) -> np.ndarray:
        table = self.plan.analyze_table(np.asarray(f, dtype=np.float64))
        return self.plan.synthesize(self.blocks.apply(table)[:, 0])

    __call__ = apply


# ---------------------------------------------------------------------------
# Spectra and random draws
# ---------------------------------------------------------------------------

def power_spectrum(coeffs: HarmonicCoeffs) -> np.ndarray:
    """C_l = (1/(2l+1)) sum_m |a_lm|^2 for l = 0..lmax."""
    e = np.abs(coeffs.values) ** 2
    return np.array([e[degree_slice(l)].sum() / (2 * l + 1) for l in range(coeffs.lmax + 1)])


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_rotation(seed) -> Rotation:
    """Haar-uniform rotation: alpha, gamma uniform, cos(beta) uniform."""
    rng = _as_rng(seed)
    alpha = rng.uniform(0.0, 2.0 * np.pi)
    beta = float(np.arccos(rng.uniform(-1.0, 1.0)))
    gamma = rng.uniform(0.0, 2.0 * np.pi)
    return Rotation(alpha, beta, gamma)


def draw_real_degree(l: int, rng: np.random.Generator) -> np.ndarray:
    """Random real-basis degree-l block: 2l+1 standard-normal components.

    It is U^H of draw_degree_coeffs(l, rng) for the same generator state.
    """
    z = rng.standard_normal(2 * l + 1)
    block = np.empty(2 * l + 1)
    block[l] = z[0]
    block[l + 1:] = z[1::2]  # sqrt(2) Re a_lm
    block[:l] = -z[2::2][::-1]  # -sqrt(2) Im a_lm, stored at -m
    return block


def draw_degree_coeffs(l: int, rng: np.random.Generator) -> np.ndarray:
    """Random conjugate-symmetric degree-l block (standard-normal components)."""
    return _complex_from_real(draw_real_degree(l, rng), l, l)


def random_degree_signal(s: Sampling, l: int, seed) -> np.ndarray:
    """Random real signal made of degree-l harmonics only.

    l must lie within the sampling's reliable band (3*Nside-1 for HEALPix,
    b-1 for equiangular).
    """
    if not 0 <= l <= reliable_band(s):
        raise InvalidArgumentError(
            f"degree {l} outside the reliable band [0, {reliable_band(s)}] of {s.scheme}"
        )
    block = draw_real_degree(l, _as_rng(seed))
    return _sampled_basis(s, l).columns(l, l) @ block


# ---------------------------------------------------------------------------
# Equiangular quadrature (exact below the grid bandwidth)
# ---------------------------------------------------------------------------

def equiangular_quadrature_weights(b: int) -> np.ndarray:
    """Per-pixel quadrature weights on the 2b x 2b offset grid.

    Exact for integrands of harmonic degree < 2b, which makes Parseval hold
    for band-limited signals with lmax < b.
    """
    j = np.arange(2 * b)
    z = np.cos(np.pi * (2 * j + 1) / (4.0 * b))
    V = np.polynomial.legendre.legvander(z, 2 * b - 1).T
    rhs = np.zeros(2 * b)
    rhs[0] = 2.0
    ring_w = np.linalg.solve(V, rhs)
    return np.repeat(ring_w * (np.pi / b), 2 * b)


def quadrature_energy(s: Sampling, signal: np.ndarray) -> float:
    """Quadrature estimate of integral |f|^2 dOmega (equiangular samplings only)."""
    if s.scheme != "equiangular":
        raise InvalidArgumentError("quadrature weights are defined for equiangular samplings")
    w = equiangular_quadrature_weights(s.resolution)
    return float(np.sum(w * np.abs(signal) ** 2))
