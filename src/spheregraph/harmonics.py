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
R_lm = sqrt(2) Re Y_lm and R_l,-m = sqrt(2) Im Y_lm for m > 0. U is one fixed
unitary per degree, so real tables are r = U^H a and real Wigner blocks are
U^H D U (Blanco, Florez & Bermejo 1997). Complex tables appear only at the
HarmonicCoeffs boundary: analysis, synthesis, rotate_coeffs and the CSV files.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
import scipy.linalg as sla

from .errors import IllPosedAnalysisError, InvalidArgumentError, NumericalFailureError
from .samplings import Sampling, reliable_band

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
        if not -1e-9 <= self.beta <= np.pi + 1e-9:
            raise InvalidArgumentError(f"beta must lie in [0, pi], got {self.beta}")
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
    """Matrix B with B[i, l*l+l+m] = Y_lm(x_i), for a Sampling or raw (n,3) points.

    Fully normalized associated Legendre values come from the standard
    ascending three-term recurrence, which is stable far beyond the desk-scale
    band limits used here.
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

    B = np.empty((n, (lmax + 1) ** 2), dtype=np.complex128)
    e_iphi = np.exp(1j * phi)
    phase = {0: np.ones(n, dtype=np.complex128)}
    for m in range(1, lmax + 1):
        phase[m] = phase[m - 1] * e_iphi

    p_mm = np.full(n, 1.0 / np.sqrt(4.0 * np.pi))  # normalized P_{m,m}
    for m in range(0, lmax + 1):
        if m > 0:
            p_mm = -np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * sin_theta * p_mm
        p_lm_minus1 = np.zeros(n)
        p_lm = p_mm
        for l in range(m, lmax + 1):
            if l > m:
                a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
                b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
                p_lm, p_lm_minus1 = a * (z * p_lm - b * p_lm_minus1), p_lm
            col = p_lm * phase[m]
            B[:, coeff_index(l, m)] = col
            if m > 0:
                B[:, coeff_index(l, -m)] = ((-1.0) ** m) * np.conj(col)
    if not np.all(np.isfinite(B)):
        raise NumericalFailureError("basis evaluation produced non-finite values",
                                    {"lmax": lmax})
    return B


def evaluate_real_basis(s: Union[Sampling, np.ndarray], lmax: int) -> np.ndarray:
    """Real orthonormal basis R = Y U: R_l0 = Y_l0, R_lm = sqrt(2) Re Y_lm and
    R_l,-m = sqrt(2) Im Y_lm for m > 0, at the same flat positions as Y.

    The complex matrix from evaluate_basis is dropped once it is converted.
    """
    complex_basis = evaluate_basis(s, lmax)
    out = np.empty(complex_basis.shape)
    for l in range(lmax + 1):
        centre = coeff_index(l, 0)
        out[:, centre] = complex_basis[:, centre].real
        pos = complex_basis[:, centre + 1:centre + l + 1]
        np.multiply(pos.real, _SQRT2, out=out[:, centre + 1:centre + l + 1])
        np.multiply(pos.imag[:, ::-1], _SQRT2, out=out[:, centre - l:centre])
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
    with Q from _jy_real_schur (Blanco, Florez & Bermejo 1997). blocks[l]
    forms and caches the stack of degree l, shape (len(rotations), 2l+1,
    2l+1), as _rotate of the degree-l identity. apply(table) runs _rotate on
    the whole table the first time, forming no block; a second call means the
    rotations are being reused (once per kernel width in a search), so from
    then on it multiplies by the stacks.
    """

    def __init__(self, lmax: int, rotations: Sequence[Rotation]):
        self.lmax = lmax
        self.alpha, self.beta, self.gamma = (np.array([getattr(g, name) for g in rotations])
                                             for name in ("alpha", "beta", "gamma"))
        self._stacks: dict = {}
        self._applied = 0

    def __getitem__(self, l: int) -> np.ndarray:
        if not 0 <= l <= self.lmax:
            raise IndexError(f"degree {l} outside 0..{self.lmax}")
        got = self._stacks.get(l)
        if got is None:
            columns = self._rotate(np.eye(2 * l + 1)[:, None, :], l, l)  # (2l+1, n_rot, 2l+1)
            got = self._stacks[l] = np.ascontiguousarray(columns.transpose(1, 0, 2))
        return got

    def apply(self, table: np.ndarray) -> np.ndarray:
        """Rotated copies of a table of shape ((lmax+1)^2, ...): out[:, r] is rotation r's."""
        table = np.asarray(table)
        x = table.reshape(table.shape[0], 1, -1)
        self._applied += 1
        if self._applied == 1:
            out = self._rotate(x, 0, self.lmax)
        else:
            out = np.empty(((self.lmax + 1) ** 2, self.alpha.size, x.shape[2]),
                           np.result_type(x, 1.0))
            for l in range(self.lmax + 1):
                sl = degree_slice(l)
                out[sl] = np.matmul(self[l], x[sl, 0]).transpose(1, 0, 2)
        return out.reshape((table.shape[0], self.alpha.size) + table.shape[1:])

    def _rotate(self, x: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """D x for each rotation, on rows of x spanning degrees lo..hi; x has
        shape (rows, 1 or n_rot, columns) and the result (rows, n_rot, columns)."""
        x = self._by_q(self._turn(x, self.gamma, lo, hi), lo, hi, transpose=True)
        return self._turn(self._by_q(self._turn(x, self.beta, lo, hi), lo, hi), self.alpha, lo, hi)

    @staticmethod
    def _turn(x: np.ndarray, theta: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """T(theta_r) on rows of degrees lo..hi: x_m -> cos(m theta) x_m - sin(m theta) x_-m."""
        _, m, mirror = _row_map(lo, hi)
        angle = np.multiply.outer(m, theta)[:, :, None]
        out = x[mirror] * -np.sin(angle)
        out += np.cos(angle) * x  # in place: one table-sized temporary fewer
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

def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


class AnalysisPlan:
    """Factorized least-squares analysis for one (sampling, lmax) pair.

    Holds the real basis matrix B (evaluate_real_basis) and the inverse R^-1
    of the upper Cholesky factor of G + ridge*I = R^T R, where G = B^T B and
    the ridge is 1e-12 relative to the mean Gram diagonal. G is formed,
    factored and inverted in one m x m array and is not kept. The condition
    estimate is read from R's diagonal before it is inverted. Tables in and
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
        # doubles: the real basis (n*m), the complex basis it is converted
        # from (2*n*m), and one m*m array that holds G, then R, then R^-1
        need = 8 * (3 * s.n * ncoef + ncoef * ncoef)
        memory = _physical_memory_bytes()
        if need > memory:
            raise InvalidArgumentError(
                f"an analysis plan for n={s.n}, lmax={lmax} needs about {need / 2**30:.1f} GiB, "
                f"more than this machine's {memory / 2**30:.1f} GiB"
            )
        self.sampling = s
        self.lmax = lmax
        self.basis = evaluate_real_basis(s, lmax)
        # the upper triangle of G; B^T is B in Fortran order, so BLAS reads it
        # in place, and the strict lower triangle stays zero from here to R^-1
        gram = sla.blas.dsyrk(1.0, self.basis.T, lower=0)
        gram[np.diag_indices(ncoef)] += _RIDGE_REL * float(np.mean(gram.diagonal()))
        factor, _ = sla.cho_factor(gram, lower=False, overwrite_a=True)
        diag = np.abs(np.diag(factor))
        self.condition_estimate = float((diag.max() / diag.min()) ** 2)
        if self.condition_estimate > _CONDITION_LIMIT:
            raise IllPosedAnalysisError(
                f"basis matrix numerically rank-deficient "
                f"(condition estimate {self.condition_estimate:.2e})",
                condition_estimate=self.condition_estimate,
            )
        # R^-1 in place of R, so that solve is two numpy GEMMs: scipy's
        # triangular solves run on scipy's own OpenBLAS thread pool, which
        # fights numpy's for the cores when the two alternate
        self._r_inv, info = sla.lapack.dtrtri(factor, lower=0, overwrite_c=1)
        if info != 0:
            raise NumericalFailureError(f"inverting the Gram factor failed (LAPACK info {info})",
                                        {"info": info})

    def analyze_table(self, signal: np.ndarray) -> np.ndarray:
        """Least-squares real-basis table(s) for pixel values (n,) or (n, cols)."""
        return self.solve(self.basis.T @ signal)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """(G + ridge I)^-1 rhs = R^-1 (R^-T rhs), for G + ridge I = R^T R.

        Two numpy matrix products with the inverse factor, and no scipy call.
        """
        return self._r_inv @ (self._r_inv.T @ rhs)


def analysis(s: Sampling, signal: np.ndarray, lmax: int,
             plan: Optional[AnalysisPlan] = None) -> HarmonicCoeffs:
    """Band-limited coefficients of sampled values by regularized least squares."""
    signal = np.asarray(signal)
    if signal.shape != (s.n,):
        raise InvalidArgumentError(f"signal must have shape ({s.n},)")
    if plan is None:
        plan = AnalysisPlan(s, lmax)
    return HarmonicCoeffs.from_real(lmax, plan.analyze_table(signal))


def synthesis(s: Sampling, coeffs: HarmonicCoeffs,
              plan: Optional[AnalysisPlan] = None) -> np.ndarray:
    """Pixel values sum_lm a_lm Y_lm(x_i) of a conjugate-symmetric table."""
    scale = float(np.abs(coeffs.values).max()) if coeffs.values.size else 0.0
    if scale > 0 and coeffs.conjugate_symmetry_defect() > 1e-10 * scale:
        raise InvalidArgumentError(
            "coefficients are not conjugate-symmetric; synthesis would be complex"
        )
    basis = plan.basis if plan is not None else evaluate_real_basis(s, coeffs.lmax)
    return basis @ coeffs.real_values().real


class RotationOperator:
    """Matrix-free sampled rotation operator: synthesis . rotate . analysis."""

    def __init__(self, s: Sampling, g: Rotation, lmax: int,
                 plan: Optional[AnalysisPlan] = None):
        self.sampling = s
        self.rotation = g
        self.lmax = lmax
        self.plan = plan if plan is not None else AnalysisPlan(s, lmax)
        self.blocks = wigner_D_blocks(lmax, [g])

    def apply(self, f: np.ndarray) -> np.ndarray:
        table = self.plan.analyze_table(np.asarray(f, dtype=np.float64))
        return self.plan.basis @ self.blocks.apply(table)[:, 0]

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
    return evaluate_real_basis(s, l)[:, degree_slice(l)] @ block


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
