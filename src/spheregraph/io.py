"""CSV readers and writers for every artifact the package produces.

Every file has one layout: optional '# ' comment lines, one header line, then
one comma-separated data row per line, and for kernel widths '# ' footer
lines. Floats are written with 17 significant digits so files round-trip the
underlying doubles exactly; the comment lines let the CLI embed its full
configuration in every output. Readers skip blank lines, '#' lines and the
header line, and reject a row with the wrong number of fields or an
unparsable number with an InvalidArgumentError naming the file and line.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import InvalidArgumentError
from .filters import FilterCoeffs
from .harmonics import HarmonicCoeffs
from .samplings import Sampling

_CHUNK_ROWS = 65536  # rows turned into Python objects and text at a time


def _write_table(path, comments, header, row_format, columns, footer=None) -> None:
    """Write '# ' comments, the header, `row_format % row` for each row of the
    equal-length column sequences, then '# ' footer lines."""
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {line}\n" for line in comments or ())
        fh.write(f"{header}\n")
        for start in range(0, len(columns[0]), _CHUNK_ROWS):
            chunk = (np.asarray(c[start:start + _CHUNK_ROWS]).tolist() for c in columns)
            fh.write("".join(map(row_format.__mod__, zip(*chunk))))
        fh.writelines(f"# {line}\n" for line in footer or ())


def _read_rows(path, header, *layouts) -> list:
    """The data rows of the CSV at `path` as tuples of parsed fields.

    Blank lines, '#' lines and a `header` line (or a longer one that starts
    with its fields) are skipped. Data row i is split on ',' and parsed with
    one parser per field from layouts[i]; the last layout serves all later
    rows, and a layout ending in `...` repeats its last parser for any
    further fields.
    """
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#") or header and f"{line},".startswith(f"{header},"):
                continue
            fields = line.split(",")
            layout = layouts[min(len(rows), len(layouts) - 1)]
            if layout[-1] is ...:
                layout = layout[:-2] + layout[-2:-1] * (len(fields) - len(layout) + 2)
            if len(fields) != len(layout):
                raise InvalidArgumentError(
                    f"{path}, line {lineno}: expected {len(layout)} fields, found {len(fields)}")
            try:
                rows.append(tuple(parse(v) for parse, v in zip(layout, fields)))
            except ValueError:
                raise InvalidArgumentError(
                    f"{path}, line {lineno}: unparsable number in {line!r}") from None
    return rows


def write_sampling_csv(s: Sampling, path, comments: Optional[Sequence[str]] = None) -> None:
    """`index,x,y,z`, one row per pixel."""
    _write_table(path, comments, "index,x,y,z", "%d,%.17g,%.17g,%.17g\n",
                 [np.arange(s.n), *s.points.T])


def write_sparse_csv(matrix, path, comments: Optional[Sequence[str]] = None) -> None:
    """Coordinate-format export: one `n,nnz` header line, then `row,col,value` rows."""
    coo = sp.coo_matrix(matrix)
    order = np.lexsort((coo.col, coo.row))
    _write_table(path, comments, f"{coo.shape[0]},{coo.nnz}", "%d,%d,%.17g\n",
                 [coo.row[order], coo.col[order], coo.data[order]])


def read_sparse_csv(path):
    """Inverse of write_sparse_csv; the `n,nnz` line must match the triplets."""
    rows = _read_rows(path, None, (int, int), (int, int, float))
    if not rows:
        raise InvalidArgumentError(f"{path}: no n,nnz line")
    (n, nnz), triplets = rows[0], rows[1:]
    if len(triplets) != nnz:
        raise InvalidArgumentError(f"{path}: header announces {nnz} entries, found {len(triplets)}")
    ii = np.array([i for i, _, _ in triplets], dtype=np.int64)
    jj = np.array([j for _, j, _ in triplets], dtype=np.int64)
    data = np.array([v for _, _, v in triplets], dtype=np.float64)
    if np.any((ii < 0) | (ii >= n) | (jj < 0) | (jj >= n)):
        raise InvalidArgumentError(f"{path}: entry index outside [0, {n})")
    return sp.coo_matrix((data, (ii, jj)), shape=(n, n)).tocsr()


def write_coeffs_csv(coeffs: HarmonicCoeffs, path,
                     comments: Optional[Sequence[str]] = None) -> None:
    """`l,m,re,im` for every coefficient up to lmax."""
    degrees = np.arange(coeffs.lmax + 1)
    l = np.repeat(degrees, 2 * degrees + 1)
    m = np.arange(l.size) - l * l - l  # rows in coeff_index order
    _write_table(path, comments, "l,m,re,im", "%d,%d,%.17g,%.17g\n",
                 [l, m, coeffs.values.real, coeffs.values.imag])


def read_coeffs_csv(path) -> HarmonicCoeffs:
    """Inverse of write_coeffs_csv: one row per (l, m) with |m| <= l <= lmax, each once."""
    entries = {}
    for l, m, re, im in _read_rows(path, "l,m,re,im", (int, int, float, float)):
        if abs(m) > l:
            raise InvalidArgumentError(f"{path}: row (l={l}, m={m}) has |m| > l")
        if (l, m) in entries:
            raise InvalidArgumentError(f"{path}: duplicate row (l={l}, m={m})")
        entries[(l, m)] = complex(re, im)
    lmax = max((l for l, _ in entries), default=0)
    if len(entries) != (lmax + 1) ** 2:
        raise InvalidArgumentError(
            f"{path}: {len(entries)} rows, but lmax={lmax} needs all {(lmax + 1) ** 2} (l, m) rows"
        )
    return HarmonicCoeffs(lmax, [entries[lm] for lm in sorted(entries)])  # coeff_index order


def write_spectrum_csv(spectrum: np.ndarray, path,
                       comments: Optional[Sequence[str]] = None) -> None:
    """`l,C_l` rows."""
    _write_table(path, comments, "l,C_l", "%d,%.17g\n", [np.arange(len(spectrum)), spectrum])


def write_signal_csv(values: np.ndarray, path,
                     comments: Optional[Sequence[str]] = None) -> None:
    """`index,value` rows for a sampled signal."""
    _write_table(path, comments, "index,value", "%d,%.17g\n", [np.arange(len(values)), values])


def read_signal_csv(path) -> np.ndarray:
    """Inverse of write_signal_csv: each index 0..n-1 exactly once, rows in any order."""
    rows = sorted(_read_rows(path, "index,value", (int, float)))
    if [i for i, _ in rows] != list(range(len(rows))):
        raise InvalidArgumentError(f"{path}: signal indices must be 0..n-1, each once")
    return np.array([v for _, v in rows], dtype=np.float64)


def write_filter_csv(h: FilterCoeffs, path,
                     comments: Optional[Sequence[str]] = None) -> None:
    """One data row: `basis,P,lambda_max,alpha_0..alpha_P`."""
    names = ",".join(f"alpha_{i}" for i in range(h.order + 1))
    lam = [] if h.lambda_max is None else [[h.lambda_max]]
    row_format = "%s,%d," + "%.17g" * len(lam) + ",%.17g" * (h.order + 1) + "\n"
    _write_table(path, comments, f"basis,P,lambda_max,{names}", row_format,
                 [[h.basis], [h.order], *lam, *h.coeffs.reshape(-1, 1)])


def read_filter_csv(path) -> FilterCoeffs:
    """Inverse of write_filter_csv: one data row carrying exactly P+1 alphas."""
    rows = _read_rows(path, "basis,P,lambda_max",
                      (str, int, lambda v: float(v) if v else None, float, ...))
    if len(rows) != 1:
        raise InvalidArgumentError(f"{path}: needs exactly one filter row, found {len(rows)}")
    basis, order, lam, *alphas = rows[0]
    if len(alphas) != order + 1:
        raise InvalidArgumentError(
            f"{path}: a P={order} filter needs {order + 1} alphas, found {len(alphas)}"
        )
    return FilterCoeffs(basis, alphas, lam)


SWEEP_HEADER = "scheme,n,k,weight,t,ell,mean_err,std_err,samples"


def write_sweep_csv(rows: Iterable, path, comments: Optional[Sequence[str]] = None) -> None:
    """One row per SweepRow, its fields in SWEEP_HEADER order."""
    rows = list(rows)
    _write_table(path, comments, SWEEP_HEADER, "%s,%d,%d,%s,%.17g,%d,%.17g,%.17g,%d\n",
                 [[getattr(r, name) for r in rows] for name in SWEEP_HEADER.split(",")])


def write_kernel_width_csv(rows: Iterable, path,
                           comments: Optional[Sequence[str]] = None,
                           footer: Optional[Sequence[str]] = None) -> None:
    """`scheme,n,k,t_opt,t_heuristic` rows plus '#' footer lines (power-law fit)."""
    rows = list(rows)
    _write_table(path, comments, "scheme,n,k,t_opt,t_heuristic", "%s,%d,%d,%.17g,%.17g\n",
                 [[r[i] for r in rows] for i in range(5)], footer)
