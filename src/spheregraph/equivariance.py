"""Rotation-equivariance metrics for graph Laplacians and kernel-width search.

The per-draw metric is the normalized commutator error

    E(f, g) = ( |R(g) L f - L R(g) f| / |L f| )^2

with unweighted Euclidean norms over pixel values, where R(g) is the sampled
rotation operator. Monte-Carlo means over random single-degree signals and
Haar-random rotations quantify a construction's overall equivariance; the
Gaussian kernel width t is tuned by minimizing that mean. The extended
kernel-sum operator (a Laplacian defined at every point of the sphere, scaled
by 1/t^2) provides the convergence diagnostics against the Laplace-Beltrami
operator.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import isqrt
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import InvalidArgumentError, UndefinedNormalizationError
from .graphs import WEIGHT_KINDS, GaussianGraphFamily, WeightScheme, build_graph, laplacian
from .harmonics import (
    AnalysisPlan,
    Rotation,
    degree_slice,
    draw_real_degree,
    evaluate_real_basis,
    random_rotation,
    wigner_D_blocks,
)
from .samplings import SCHEMES, Sampling, reliable_band

# every cell's seed substream hashes these positions, so the tuples' order is fixed
_SCHEME_IDS = {name: i for i, name in enumerate(SCHEMES)}
_WEIGHT_IDS = {name: i for i, name in enumerate(WEIGHT_KINDS)}
_PROBE_PAIRS = 1 << 18  # probe-pixel pairs extended_laplacian_apply holds at a time


@dataclass(frozen=True)
class EquivarianceConfig:
    """Monte-Carlo budget and band limit for equivariance estimates."""

    n_signals: int = 10
    n_rotations: int = 10
    seed: int = 0
    lmax_analysis: Optional[int] = None  # None: the sampling's reliable band

    def __post_init__(self):
        if self.n_signals < 1 or self.n_rotations < 1:
            raise InvalidArgumentError("need n_signals >= 1 and n_rotations >= 1")


class MeanError(NamedTuple):
    mean: float
    std: float
    samples: int


@dataclass(frozen=True)
class SweepRow:
    scheme: str
    n: int
    k: int
    weight: str
    t: float
    ell: int
    mean_err: float
    std_err: float
    samples: int


# ---------------------------------------------------------------------------
# Per-draw metric (direct route)
# ---------------------------------------------------------------------------

def equivariance_error(L, R, f: np.ndarray) -> float:
    """Normalized commutator error of one signal under one rotation operator.

    R may be any callable mapping n-vectors to n-vectors (a RotationOperator,
    a permutation closure, ...) or an explicit matrix. Raises
    UndefinedNormalizationError when |L f| vanishes (e.g. constant signals).
    """
    f = np.asarray(f, dtype=np.float64)
    lf = L @ f
    den = float(np.linalg.norm(lf))
    linf = float(np.abs(L).sum(axis=1).max()) if hasattr(L, "sum") else 1.0
    if den <= 1e-12 * linf * float(np.linalg.norm(f)):
        raise UndefinedNormalizationError("L f is numerically zero; error undefined")
    apply_r = R if callable(R) else (lambda v: R @ v)
    num = float(np.linalg.norm(apply_r(lf) - L @ apply_r(f)))
    return (num / den) ** 2


# ---------------------------------------------------------------------------
# Monte-Carlo machinery
# ---------------------------------------------------------------------------

def _cell_seed(seed: int, s: Sampling, k: int, weight_kind: str, l: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        [int(seed), _SCHEME_IDS[s.scheme], int(s.n), int(k), _WEIGHT_IDS[weight_kind], int(l)]
    )


class _CellDraws:
    """Frozen random draws for one sweep cell, reusable across kernel widths.

    Signals are real-basis degree-l blocks; blocks holds the rotations' real
    Wigner blocks up to degree lmax (harmonics.WignerBlocks), which forms its
    block stacks only once the draws are reused.
    """

    def __init__(self, s: Sampling, k: int, weight_kind: str, l: int,
                 cfg: EquivarianceConfig, lmax: int):
        sig_ss, rot_ss = _cell_seed(cfg.seed, s, k, weight_kind, l).spawn(2)
        sig_rng = np.random.default_rng(sig_ss)
        rot_rng = np.random.default_rng(rot_ss)
        self.signals = np.column_stack(
            [draw_real_degree(l, sig_rng) for _ in range(cfg.n_signals)]
        )  # (2l+1, n_signals)
        self.rotations = [random_rotation(rot_rng) for _ in range(cfg.n_rotations)]
        self.blocks = wigner_D_blocks(lmax, self.rotations)


class SweepEngine:
    """Shared factorization for Monte-Carlo equivariance estimates.

    One engine holds the analysis plan (real basis matrix and inverse
    Cholesky factor); every array it computes is real. It keeps no draws:
    `draws` rebuilds a cell's draws bit for bit from the cell's seed, and
    kernel-width optimization holds on to the draws it got, so every width
    sees identical draws (common random numbers). The per-draw numerator is
    the commutator R(g) L f - L R(g) f in pixel values, as in its definition.
    """

    def __init__(self, s: Sampling, lmax_analysis: int):
        self.sampling = s
        self.lmax = lmax_analysis
        self.plan = AnalysisPlan(s, lmax_analysis)

    def draws(self, k: int, weight_kind: str, l: int, cfg: EquivarianceConfig) -> _CellDraws:
        return _CellDraws(self.sampling, k, weight_kind, l, cfg, self.lmax)

    def degree_ops(self, L, max_degree: int):
        """t-dependent matrices for signal degrees up to max_degree: M = L B_sig,
        the Laplacian applied to the basis columns, and Ltil = (G+ridge)^-1 B^T M,
        their analysis tables."""
        if max_degree > self.lmax:
            raise InvalidArgumentError(
                f"degree {max_degree} exceeds lmax_analysis={self.lmax}"
            )
        msig = (max_degree + 1) ** 2
        m_mat = L @ self.plan.basis[:, :msig]
        ltil = self.plan.solve(self.plan.basis.T @ m_mat)
        linf = float(np.abs(L).sum(axis=1).max())
        return _DegreeOps(m_mat, ltil, linf)

    def cell_error(self, ops: "_DegreeOps", draws: _CellDraws, l: int) -> MeanError:
        """Mean and std of the per-draw error over the cell's frozen draws."""
        max_degree = isqrt(ops.ltil.shape[1]) - 1
        if l > max_degree:
            raise InvalidArgumentError(f"degree {l} exceeds the operators' max degree {max_degree}")
        sl = degree_slice(l)
        a = draws.signals  # (2l+1, n_signals)
        m_l = ops.m[:, sl]
        lf = m_l @ a  # L f in pixel values, (n, n_signals)
        f = self.plan.basis[:, sl] @ a
        lf_norm2 = np.einsum("is,is->s", lf, lf)
        f_norm2 = np.einsum("is,is->s", f, f)
        valid = lf_norm2 > (1e-12 * ops.linf) ** 2 * f_norm2

        # column j * n_s + i holds rotation j applied to signal i
        n_s = a.shape[1]
        n_r = len(draws.rotations)
        u_all = draws.blocks.apply(ops.ltil[:, sl] @ a).reshape(-1, n_r * n_s)
        d_all = np.matmul(draws.blocks[l], a).transpose(1, 0, 2).reshape(-1, n_r * n_s)

        diff = self.plan.basis @ u_all  # R(g) L f
        diff -= m_l @ d_all  # L R(g) f
        num2 = np.einsum("ij,ij->j", diff, diff)

        errs = num2.reshape(n_r, n_s) / lf_norm2[None, :]
        errs = errs[:, valid].ravel()
        skipped = int(n_r * (n_s - valid.sum()))
        if skipped:
            warnings.warn(f"skipped {skipped} draws with |L f| ~ 0 at degree {l}")
        if errs.size == 0:
            raise UndefinedNormalizationError(
                f"all degree-{l} draws gave |L f| ~ 0; mean error undefined"
            )
        std = float(errs.std(ddof=1)) if errs.size > 1 else 0.0
        return MeanError(float(errs.mean()), std, int(errs.size))


class _DegreeOps(NamedTuple):
    m: np.ndarray
    ltil: np.ndarray
    linf: float


def _resolve_lmax(s: Sampling, cfg: EquivarianceConfig) -> int:
    return reliable_band(s) if cfg.lmax_analysis is None else cfg.lmax_analysis


def _check_degree(s: Sampling, l: int):
    if l == 0:
        raise InvalidArgumentError("degree 0 signals are constant; the error is undefined")
    if not 1 <= l <= reliable_band(s):
        raise InvalidArgumentError(
            f"degree {l} outside the reliable band [1, {reliable_band(s)}] of {s.scheme}"
        )


def mean_equivariance_error(s: Sampling, k: int, w: WeightScheme, l: int,
                            cfg: EquivarianceConfig,
                            engine: Optional[SweepEngine] = None) -> MeanError:
    """Monte-Carlo mean of the normalized error over random signals and rotations.

    Deterministic given cfg.seed: the cell (scheme, n, k, weight, l) selects an
    independent substream, so sweeps may run cells in any order.
    """
    _check_degree(s, l)
    if engine is None:
        engine = SweepEngine(s, _resolve_lmax(s, cfg))
    L = laplacian(build_graph(s, k, w))
    ops = engine.degree_ops(L, l)
    draws = engine.draws(k, w.kind, l, cfg)
    return engine.cell_error(ops, draws, l)


# ---------------------------------------------------------------------------
# Kernel-width optimization
# ---------------------------------------------------------------------------

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_LOG_TOL = 1e-3


def optimize_kernel_width(s: Sampling, k: int, degrees: Sequence[int],
                          cfg: EquivarianceConfig,
                          engine: Optional[SweepEngine] = None,
                          family: Optional[GaussianGraphFamily] = None,
                          draws: Optional[dict] = None) -> float:
    """Gaussian kernel width minimizing the mean error over the given degrees.

    One golden-section search on log t over [t_h/100, 100 t_h], started at
    the half-mean-square heuristic t_h, to a log-width tolerance of 1e-3 (at
    most 21 objective evaluations). t_h is evaluated first, all evaluations
    use identical random draws, and the best evaluated width is returned, so
    the result never loses to the heuristic on the same draws.
    A result within the tolerance of either end of the range is the bracket
    edge and draws a warning: the minimum may lie outside. A caller that also
    needs t_h passes the GaussianGraphFamily(s, k) it built, so the kNN query
    runs once; a caller that goes on to use the draws passes the dict
    {l: engine.draws(k, "gaussian", l, cfg)} it built, so they are drawn once
    and their Wigner stacks are formed once.
    """
    degrees = list(degrees)
    if not degrees:
        raise InvalidArgumentError("need a non-empty degree list")
    for l in degrees:
        _check_degree(s, l)
    if family is None:
        family = GaussianGraphFamily(s, k)
    elif family.sampling is not s or family.k != k:
        raise InvalidArgumentError("family must be GaussianGraphFamily(s, k) of this sampling and k")
    if engine is None:
        engine = SweepEngine(s, _resolve_lmax(s, cfg))
    elif engine.sampling is not s:
        raise InvalidArgumentError("engine must be a SweepEngine of this sampling")
    if draws is None:
        draws = {l: engine.draws(k, "gaussian", l, cfg) for l in degrees}

    def objective(log_t: float) -> float:
        ops = engine.degree_ops(family.laplacian(float(np.exp(log_t))), max(degrees))
        try:
            return float(np.mean([engine.cell_error(ops, draws[l], l).mean for l in degrees]))
        except UndefinedNormalizationError:
            return np.inf  # width so small the operator underflowed to zero

    # Bracket (lo, best, hi): best has the lowest objective seen so far. Each
    # step probes the larger side at the golden ratio and keeps the sub-bracket
    # around the lower of the two values.
    best = float(np.log(family.heuristic_width()))
    f_best = objective(best)
    edges = (best - np.log(100.0), best + np.log(100.0))
    lo, hi = edges
    while hi - lo > _LOG_TOL:
        if hi - best > best - lo:
            x = best + (1.0 - _GOLDEN) * (hi - best)
        else:
            x = best - (1.0 - _GOLDEN) * (best - lo)
        f_x = objective(x)
        if f_x < f_best:
            lo, hi = (best, hi) if x > best else (lo, best)
            best, f_best = x, f_x
        else:
            lo, hi = (lo, x) if x > best else (x, hi)
    if min(best - edges[0], edges[1] - best) <= _LOG_TOL:
        warnings.warn(
            "objective minimized at the bracket edge of [t_h/100, 100 t_h]; "
            "the minimum may lie outside the searched range"
        )
    return float(np.exp(best))


def fit_power_law(pairs: Sequence) -> tuple:
    """OLS fit t = prefactor * n^beta on log-log axes; returns (beta, prefactor, R^2)."""
    pairs = np.asarray(pairs, dtype=np.float64)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] < 3:
        raise InvalidArgumentError("need at least 3 (n, t) pairs")
    if np.any(pairs <= 0):
        raise InvalidArgumentError("all (n, t) values must be positive")
    if np.unique(pairs[:, 0]).size < 2:
        raise InvalidArgumentError("need at least 2 distinct n to fit a power law")
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]  # order-independent result
    x = np.log(pairs[:, 0])
    y = np.log(pairs[:, 1])
    beta, intercept = np.polyfit(x, y, 1)
    resid = y - (beta * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(beta), float(np.exp(intercept)), r2


# ---------------------------------------------------------------------------
# Extended (every-point) kernel Laplacian
# ---------------------------------------------------------------------------

def extended_laplacian_apply(s: Sampling, t: float, f_pixels: np.ndarray,
                             y: np.ndarray, f_y, scaled: bool = True):
    """Kernel-sum Laplacian at arbitrary evaluation points.

    raw(y)    = (1/n) sum_i exp(-|x_i - y|^2 / (4 t)) (f(y) - f(x_i))
    scaled(y) = raw(y) / t^2   (converges to the Laplace-Beltrami value)

    y may be one point (3,) or a stack (q, 3); f_y must match. Probes run in
    blocks of _PROBE_PAIRS probe-pixel pairs, which leaves every value as is.
    """
    if not t > 0:
        raise InvalidArgumentError("kernel width t must be positive")
    f_pixels = np.asarray(f_pixels, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    single = y.ndim == 1
    ys = y[None, :] if single else y
    fy = np.atleast_1d(np.asarray(f_y, dtype=np.float64))
    raw = np.empty(ys.shape[0])
    step = max(1, _PROBE_PAIRS // s.n)
    for rows in (slice(i, i + step) for i in range(0, ys.shape[0], step)):
        d2 = ((ys[rows, None, :] - s.points[None, :, :]) ** 2).sum(axis=2)
        kern = np.exp(-d2 / (4.0 * t))
        raw[rows] = (kern * (fy[rows, None] - f_pixels[None, :])).mean(axis=1)
        del d2, kern  # not held while the next block is formed
    out = raw / t**2 if scaled else raw
    return float(out[0]) if single else out


def extended_equivariance_check(s: Sampling, t: float, l: int, g: Rotation,
                                probes: np.ndarray, seed: int = 0) -> float:
    """Max |R(g) Lhat f (y) - Lhat R(g) f (y)| over a probe grid.

    f is a random degree-l harmonic combination; R(g) f is evaluated
    analytically by rotating its coefficients. Both sides use the scaled
    operator.
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=np.float64))
    rng = np.random.default_rng(seed)
    block = draw_real_degree(l, rng)

    sl = degree_slice(l)
    basis_pix = evaluate_real_basis(s, l)[:, sl]
    f_pix = basis_pix @ block

    rot_block = wigner_D_blocks(l, [g])[l][0] @ block
    f_rot_pix = basis_pix @ rot_block

    ginv_probes = probes @ g.matrix  # rows g^{-1} y
    f_probes_ginv = evaluate_real_basis(ginv_probes, l)[:, sl] @ block
    f_rot_probes = evaluate_real_basis(probes, l)[:, sl] @ rot_block

    lhs = extended_laplacian_apply(s, t, f_pix, ginv_probes, f_probes_ginv)
    rhs = extended_laplacian_apply(s, t, f_rot_pix, probes, f_rot_probes)
    return float(np.abs(lhs - rhs).max())


# ---------------------------------------------------------------------------
# Sweep driver
# ---------------------------------------------------------------------------

def equivariance_sweep(samplings: Sequence[Sampling], ks: Sequence[int],
                       weight_kind: str, t_mode, degrees: Sequence[int],
                       cfg: EquivarianceConfig, threads: int = 1) -> list:
    """One SweepRow per (sampling, k, degree) cell, sorted for stable output.

    t_mode applies to gaussian weights: 'optimal' (per-(sampling, k)
    kernel-width optimization over the sweep degrees), 'heuristic'
    (half-mean-square), 'mean-distance', or an explicit positive float.
    """
    if weight_kind not in _WEIGHT_IDS:
        raise InvalidArgumentError(f"unknown weight kind {weight_kind!r}")
    degrees = list(degrees)
    engines = {id(s): SweepEngine(s, _resolve_lmax(s, cfg)) for s in samplings}

    def run_pair(s: Sampling, k: int) -> list:
        engine = engines[id(s)]
        usable = [l for l in degrees if 1 <= l <= reliable_band(s)]
        if not usable:
            raise InvalidArgumentError(f"no sweep degree lies in the reliable band of {s.scheme}")
        draws = {l: engine.draws(k, weight_kind, l, cfg) for l in usable}
        if weight_kind == "gaussian":
            family = GaussianGraphFamily(s, k)
            if t_mode == "optimal":
                t = optimize_kernel_width(s, k, usable, cfg, engine=engine, family=family,
                                          draws=draws)
            elif t_mode == "heuristic":
                t = family.heuristic_width("half-mean-square")
            elif t_mode == "mean-distance":
                t = family.heuristic_width("mean-distance")
            else:
                t = float(t_mode)
            L = family.laplacian(t)
        else:
            t = 0.0
            L = laplacian(build_graph(s, k, WeightScheme("inverse-distance")))
        ops = engine.degree_ops(L, max(usable))
        rows = []
        for l in usable:
            res = engine.cell_error(ops, draws[l], l)
            rows.append(SweepRow(s.scheme, s.n, k, weight_kind, t, l,
                                 res.mean, res.std, res.samples))
        return rows

    pairs = [(s, k) for s in samplings for k in ks]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(lambda p: run_pair(*p), pairs))
    else:
        chunks = [run_pair(*p) for p in pairs]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r.scheme, r.n, r.k, r.ell))
    return rows
