"""CSV readers and writers for every artifact the package produces.

All floats are written with 17 significant digits so files round-trip the
underlying doubles exactly. Writers accept an optional list of header comment
lines (each emitted prefixed with '# ') so the CLI can embed its full
configuration in every output.
"""

from __future__ import annotations

import csv
from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import InvalidArgumentError
from .filters import FilterCoeffs
from .harmonics import HarmonicCoeffs, coeff_index
from .samplings import Sampling


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _open_write(path, comments: Optional[Sequence[str]]):
    fh = open(path, "w", newline="")
    for line in comments or ():
        fh.write(f"# {line}\n")
    return fh


def write_sampling_csv(s: Sampling, path, comments: Optional[Sequence[str]] = None) -> None:
    """`index,x,y,z`, one row per pixel."""
    with _open_write(path, comments) as fh:
        fh.write("index,x,y,z\n")
        for i, (x, y, z) in enumerate(s.points):
            fh.write(f"{i},{_fmt(x)},{_fmt(y)},{_fmt(z)}\n")


def write_sparse_csv(matrix, path, comments: Optional[Sequence[str]] = None) -> None:
    """Coordinate-format export: one `n,nnz` header line, then `row,col,value` rows."""
    coo = sp.coo_matrix(matrix)
    order = np.lexsort((coo.col, coo.row))
    with _open_write(path, comments) as fh:
        fh.write(f"{coo.shape[0]},{coo.nnz}\n")
        for i in order:
            fh.write(f"{coo.row[i]},{coo.col[i]},{_fmt(coo.data[i])}\n")


def read_sparse_csv(path):
    """Inverse of write_sparse_csv; the `n,nnz` line must match the triplets."""
    with open(path) as fh:
        rows = list(_data_lines(fh))
    n, nnz = (int(v) for v in rows[0].split(","))
    triplets = [line.split(",") for line in rows[1:]]
    if len(triplets) != nnz:
        raise InvalidArgumentError(f"{path}: header announces {nnz} entries, found {len(triplets)}")
    ii = np.array([int(a) for a, _, _ in triplets], dtype=np.int64)
    jj = np.array([int(b) for _, b, _ in triplets], dtype=np.int64)
    data = np.array([float(v) for _, _, v in triplets])
    if np.any((ii < 0) | (ii >= n) | (jj < 0) | (jj >= n)):
        raise InvalidArgumentError(f"{path}: entry index outside [0, {n})")
    return sp.coo_matrix((data, (ii, jj)), shape=(n, n)).tocsr()


def write_coeffs_csv(coeffs: HarmonicCoeffs, path,
                     comments: Optional[Sequence[str]] = None) -> None:
    """`l,m,re,im` for every coefficient up to lmax."""
    with _open_write(path, comments) as fh:
        fh.write("l,m,re,im\n")
        for l in range(coeffs.lmax + 1):
            for m in range(-l, l + 1):
                a = coeffs.values[coeff_index(l, m)]
                fh.write(f"{l},{m},{_fmt(a.real)},{_fmt(a.imag)}\n")


def read_coeffs_csv(path) -> HarmonicCoeffs:
    """Inverse of write_coeffs_csv: one row per (l, m) with |m| <= l <= lmax, each once."""
    entries = {}
    lmax = 0
    with open(path) as fh:
        for row in csv.reader(_data_lines(fh)):
            if row[0] == "l":
                continue
            l, m = int(row[0]), int(row[1])
            if abs(m) > l:
                raise InvalidArgumentError(f"{path}: row (l={l}, m={m}) has |m| > l")
            if (l, m) in entries:
                raise InvalidArgumentError(f"{path}: duplicate row (l={l}, m={m})")
            entries[(l, m)] = float(row[2]) + 1j * float(row[3])
            lmax = max(lmax, l)
    if len(entries) != (lmax + 1) ** 2:
        raise InvalidArgumentError(
            f"{path}: {len(entries)} rows, but lmax={lmax} needs all {(lmax + 1) ** 2} (l, m) rows"
        )
    values = np.zeros((lmax + 1) ** 2, dtype=np.complex128)
    for (l, m), v in entries.items():
        values[coeff_index(l, m)] = v
    return HarmonicCoeffs(lmax, values)


def write_spectrum_csv(spectrum: np.ndarray, path,
                       comments: Optional[Sequence[str]] = None) -> None:
    """`l,C_l` rows."""
    with _open_write(path, comments) as fh:
        fh.write("l,C_l\n")
        for l, c in enumerate(spectrum):
            fh.write(f"{l},{_fmt(c)}\n")


def write_signal_csv(values: np.ndarray, path,
                     comments: Optional[Sequence[str]] = None) -> None:
    """`index,value` rows for a sampled signal."""
    with _open_write(path, comments) as fh:
        fh.write("index,value\n")
        for i, v in enumerate(values):
            fh.write(f"{i},{_fmt(v)}\n")


def read_signal_csv(path) -> np.ndarray:
    out = []
    with open(path) as fh:
        for row in csv.reader(_data_lines(fh)):
            if row[0] == "index":
                continue
            out.append((int(row[0]), float(row[1])))
    out.sort()
    if [i for i, _ in out] != list(range(len(out))):
        raise InvalidArgumentError(f"{path}: signal indices must be 0..n-1, each once")
    return np.array([v for _, v in out])


def write_filter_csv(h: FilterCoeffs, path,
                     comments: Optional[Sequence[str]] = None) -> None:
    """One data row: `basis,P,lambda_max,alpha_0..alpha_P`."""
    names = ",".join(f"alpha_{i}" for i in range(h.order + 1))
    lam = "" if h.lambda_max is None else _fmt(h.lambda_max)
    with _open_write(path, comments) as fh:
        fh.write(f"basis,P,lambda_max,{names}\n")
        alphas = ",".join(_fmt(a) for a in h.coeffs)
        fh.write(f"{h.basis},{h.order},{lam},{alphas}\n")


def read_filter_csv(path) -> FilterCoeffs:
    """Inverse of write_filter_csv: the data row must carry exactly P+1 alphas."""
    with open(path) as fh:
        rows = [r for r in csv.reader(_data_lines(fh))]
    data = None
    for row in rows:
        if row and row[0] in ("monomial", "chebyshev"):
            data = row
            break
    if data is None:
        raise InvalidArgumentError(f"no filter row found in {path}")
    basis, order = data[0], int(data[1])
    lam = float(data[2]) if data[2] else None
    if len(data) - 3 != order + 1:
        raise InvalidArgumentError(
            f"{path}: a P={order} filter needs {order + 1} alphas, found {len(data) - 3}"
        )
    coeffs = np.array([float(v) for v in data[3:]])
    return FilterCoeffs(basis, coeffs, lam)


SWEEP_HEADER = "scheme,n,k,weight,t,ell,mean_err,std_err,samples"


def write_sweep_csv(rows: Iterable, path, comments: Optional[Sequence[str]] = None) -> None:
    with _open_write(path, comments) as fh:
        fh.write(SWEEP_HEADER + "\n")
        for r in rows:
            fh.write(
                f"{r.scheme},{r.n},{r.k},{r.weight},{_fmt(r.t)},{r.ell},"
                f"{_fmt(r.mean_err)},{_fmt(r.std_err)},{r.samples}\n"
            )


def write_kernel_width_csv(rows: Iterable, path,
                           comments: Optional[Sequence[str]] = None,
                           footer: Optional[Sequence[str]] = None) -> None:
    """`scheme,n,k,t_opt,t_heuristic` rows plus '#' footer lines (power-law fit)."""
    with _open_write(path, comments) as fh:
        fh.write("scheme,n,k,t_opt,t_heuristic\n")
        for scheme, n, k, t_opt, t_heur in rows:
            fh.write(f"{scheme},{n},{k},{_fmt(t_opt)},{_fmt(t_heur)}\n")
        for line in footer or ():
            fh.write(f"# {line}\n")


def _data_lines(fh):
    for line in fh:
        line = line.strip()
        if line and not line.startswith("#"):
            yield line
