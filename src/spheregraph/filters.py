"""Polynomial graph-Laplacian filters and hierarchical pooling.

A filter h(L) f = sum_i alpha_i L^i f is applied by recursive sparse matvecs
(never by forming matrix powers), in either the monomial basis or the
Chebyshev basis of the rescaled operator 2 L / lambda_max - I. Both cost
exactly P operator applications for order P. Each step runs on the
operator's row chunks across cores (graphs._row_chunks), with the same
arithmetic for every row, so outputs are bit-identical for any core count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
from numpy.polynomial import chebyshev as C
from numpy.polynomial import polynomial as P

from .errors import InvalidArgumentError
from .graphs import _row_chunks, _run_rows
from .samplings import Sampling

FILTER_BASES = ("monomial", "chebyshev")


@dataclass(frozen=True)
class FilterCoeffs:
    """Polynomial filter of order P = len(coeffs) - 1 in one of two bases."""

    basis: str
    coeffs: np.ndarray
    lambda_max: Optional[float] = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=np.float64))
        if c.ndim != 1 or c.size == 0:
            raise InvalidArgumentError("coeffs must be a non-empty 1-d vector")
        if not np.all(np.isfinite(c)):
            raise InvalidArgumentError("filter coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        if self.basis not in FILTER_BASES:
            raise InvalidArgumentError(f"unknown filter basis {self.basis!r}")
        if self.lambda_max is not None and not np.isfinite(self.lambda_max):
            raise InvalidArgumentError(f"lambda_max must be finite, got {self.lambda_max}")
        if self.basis == "chebyshev":
            if self.lambda_max is None or not self.lambda_max > 0:
                raise InvalidArgumentError("chebyshev filters need lambda_max > 0")

    @property
    def order(self) -> int:
        return self.coeffs.size - 1


def filter_apply(L, h: FilterCoeffs, f: np.ndarray) -> np.ndarray:
    """Apply h(L) to a signal with exactly h.order operator applications.

    L is a square operator with `shape` and `@` (a scipy sparse or dense
    matrix, or any object that multiplies a vector). Each step of the
    recurrence runs on L's row chunks (graphs._row_chunks), one task per
    core: the chunk's rows of the matvec and of the vector updates, in one
    fixed operation order, written into preallocated vectors. Every entry
    therefore comes out bit-identical for any number of chunks. Raises
    InvalidArgumentError, before any matvec, for a non-square L or a signal
    of the wrong shape.
    """
    shape = tuple(L.shape)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise InvalidArgumentError(f"filter_apply needs a square operator, got shape {shape}")
    n = shape[0]
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (n,):
        raise InvalidArgumentError(f"signal must have shape ({n},), got {f.shape}")
    c = h.coeffs
    y = c[0] * f
    if h.order == 0:
        return y
    chunks = _row_chunks(L, n)
    scale = 2.0 / h.lambda_max if h.basis == "chebyshev" else None

    # Each task allocates only its rows of L t_curr, and turns them in place
    # into its rows of the next term, written over t_prev's rows (which only
    # this task reads), and then of alpha times that term, added into y.
    def step(start, stop, rows):
        t = rows @ t_curr
        if scale is not None:
            # Chebyshev recurrence on Lt = 2 L / lambda_max - I:
            # T_1 = Lt f and T_{i+1} = 2 Lt T_i - T_{i-1}, with T_0 = f
            t *= scale
            t -= t_curr[start:stop]
            if t_prev is not None:
                t *= 2.0
                t -= t_prev[start:stop]
        t_next[start:stop] = t
        t *= alpha
        y[start:stop] += t

    t_prev, t_curr = None, f
    for alpha in c[1:]:
        t_next = np.empty(n) if t_prev is None or t_prev is f else t_prev
        _run_rows(chunks, step)
        t_prev, t_curr = t_curr, t_next
    return y


# Both basis changes run numpy.polynomial's recurrences on exact Fraction
# coefficients and round once at the end, so the only error left is the
# rounding of the stored coefficients themselves.

def _exact(values) -> np.ndarray:
    values = np.atleast_1d(np.asarray(values, dtype=np.float64))
    if not np.all(np.isfinite(values)):
        raise InvalidArgumentError("filter coefficients must be finite")
    return np.array([Fraction(v) for v in values.tolist()], dtype=object)


def _substitute(coeffs: np.ndarray, a: Fraction, b: Fraction) -> np.ndarray:
    """Monomial coefficients of p(a + b x), where p has coefficients `coeffs`."""
    out = np.array([Fraction(0)], dtype=object)
    for c in coeffs[::-1]:  # Horner
        out = P.polyadd(P.polymul(out, [a, b]), [c])
    return out


def _rounded(exact: np.ndarray, size: int) -> np.ndarray:
    out = np.zeros(size)  # the recurrences drop trailing zero coefficients
    out[: len(exact)] = [float(c) for c in exact]
    return out


def chebyshev_from_monomial(coeffs: np.ndarray, lambda_max: float) -> FilterCoeffs:
    """Re-express monomial coefficients in L as Chebyshev coefficients in 2L/lmax - I."""
    if not 0 < lambda_max < np.inf:
        raise InvalidArgumentError("lambda_max must be positive and finite")
    exact = _exact(coeffs)
    half = Fraction(float(lambda_max)) / 2
    cheb = np.array([Fraction(0)], dtype=object)
    for c in _substitute(exact, half, half)[::-1]:  # L = (lambda_max / 2) (u + 1)
        cheb = C.chebadd(C.chebmulx(cheb), c)  # C.poly2cheb's loop, from an exact zero
    return FilterCoeffs("chebyshev", _rounded(cheb, len(exact)), lambda_max)


def monomial_from_chebyshev(h: FilterCoeffs) -> FilterCoeffs:
    """Inverse basis change, back to monomial coefficients in L."""
    if h.basis != "chebyshev":
        raise InvalidArgumentError("expected a chebyshev filter")
    # u = (2 / lambda_max) L - 1
    p_in_l = _substitute(C.cheb2poly(_exact(h.coeffs)), Fraction(-1),
                         2 / Fraction(float(h.lambda_max)))
    return FilterCoeffs("monomial", _rounded(p_in_l, h.coeffs.size))


# ---------------------------------------------------------------------------
# Hierarchical pooling
# ---------------------------------------------------------------------------

def _require_hierarchy(s: Sampling) -> np.ndarray:
    if s.hierarchy is None:
        raise InvalidArgumentError(
            f"{s.scheme} sampling at resolution {s.resolution} carries no pooling hierarchy"
        )
    return s.hierarchy


def pool(s: Sampling, f: np.ndarray, mode: str = "average") -> np.ndarray:
    """Coarsen a signal by reducing each parent's children with max or average.

    HEALPix-nested and equiangular hierarchies have exactly 4 children per
    parent; the icosahedral child map has variable group sizes (original
    vertices plus the edge midpoints assigned to them).
    """
    parent = _require_hierarchy(s)
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (s.n,):
        raise InvalidArgumentError(f"signal must have shape ({s.n},)")
    n_coarse = int(parent.max()) + 1
    if mode == "average":
        sums = np.zeros(n_coarse)
        counts = np.zeros(n_coarse)
        np.add.at(sums, parent, f)
        np.add.at(counts, parent, 1.0)
        return sums / counts
    if mode == "max":
        out = np.full(n_coarse, -np.inf)
        np.maximum.at(out, parent, f)
        return out
    raise InvalidArgumentError(f"unknown pooling mode {mode!r}")


def unpool(s: Sampling, f_coarse: np.ndarray) -> np.ndarray:
    """Refine a coarse signal by copying each parent's value to its children."""
    parent = _require_hierarchy(s)
    f_coarse = np.asarray(f_coarse, dtype=np.float64)
    n_coarse = int(parent.max()) + 1
    if f_coarse.shape != (n_coarse,):
        raise InvalidArgumentError(f"coarse signal must have shape ({n_coarse},)")
    return f_coarse[parent]
