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

from itertools import islice, repeat
from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import InvalidArgumentError
from .filters import FilterCoeffs
from .harmonics import HarmonicCoeffs, _row_map
from .samplings import Sampling

_CHUNK_ROWS = 65536  # rows written, or lines parsed, at a time


def _distinct(column):
    """The distinct values of `column`, or for a column of indices the range
    that holds them, and the inverse indices that rebuild it from them.

    A nonnegative integer column whose largest value is below its length,
    such as a sparse matrix's row or column indices, is its own inverse into
    range(max + 1), with no sort. Other columns are sorted once; floats are
    told apart by bit pattern, so -0.0 and 0.0, and NaNs with different signs
    or payloads, keep their own strings. The inverse is in the narrowest
    unsigned type that holds it, and the sort's temporaries are one index and
    one key array beside the column.
    """
    column = np.asarray(column)
    indices = column.dtype.kind in "iu" and column.size and 0 <= column.min()
    if indices and column.max() < column.size:
        return range(int(column.max()) + 1), column
    floats = column.dtype.kind == "f"
    keys = np.ascontiguousarray(column, np.float64).view(np.int64) if floats else column.ravel()
    order = np.argsort(keys)
    ranked = keys[order]
    first = np.empty(ranked.size, bool)
    first[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    values = ranked[first]
    del ranked
    ranks = np.cumsum(first, dtype=np.min_scalar_type(values.size))
    ranks -= 1
    inverse = np.empty_like(ranks)
    inverse[order] = ranks
    return (values.view(np.float64) if floats else values).tolist(), inverse


def _write_table(path, comments, header, row_format, columns, footer=None) -> None:
    """Write '# ' comments, the header, one row per index of the equal-length
    columns, then '# ' footer lines. `row_format` is the ','-joined '%'
    formats of the fields, one per column; `columns` is iterated once.

    Each column's distinct values are formatted once, with the ',' or newline
    that follows the field, and rows are gathered from those strings: a
    symmetric sparse matrix repeats every value and vertex index, so its
    export formats about a tenth of its fields, and its row and column
    indices share one set of strings. All columns are sorted for their
    distinct values before any string exists, which keeps the sorts'
    temporaries and the strings apart in memory.
    """
    formats = row_format.split(",")
    ends = [","] * (len(formats) - 1) + ["\n"]
    distinct = [_distinct(column) for column in columns]
    made, strings = {}, []  # index columns of one range and format share their strings
    for fmt, end, (values, _) in zip(formats, ends, distinct):
        key = (fmt + end, values) if isinstance(values, range) else len(strings)
        if key not in made:
            made[key] = np.fromiter(map((fmt + end).__mod__, values), object, len(values))
        strings.append(made[key])
    inverses = [inverse for _, inverse in distinct]
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {line}\n" for line in comments or ())
        fh.write(f"{header}\n")
        for start in range(0, len(inverses[0]), _CHUNK_ROWS):
            rows = np.column_stack([s[i[start:start + _CHUNK_ROWS]]
                                    for s, i in zip(strings, inverses)])
            fh.write("".join(rows.ravel().tolist()))
        fh.writelines(f"# {line}\n" for line in footer or ())


def _data_rows(lines, header) -> list:
    """The data lines among the stripped `lines`: blank lines, '#' lines and a
    `header` line (or a longer one that starts with its fields) are dropped."""
    rows = [line for line in lines if line and line[0] != "#"]
    return [row for row in rows if not f"{row},".startswith(f"{header},")] if header else rows


def _data_lines(fh, header):
    """(line number, stripped line) for each data line of the open CSV `fh`."""
    for lineno, line in enumerate(fh, 1):
        for row in _data_rows([line.strip()], header):
            yield lineno, row


def _parse_row(path, lineno, line, layout) -> tuple:
    """The fields of data line `line`, split on ',' and parsed with one parser
    each from `layout`; a layout ending in `...` repeats its last parser for
    any further fields."""
    fields = line.split(",")
    if layout[-1] is ...:
        layout = layout[:-2] + layout[-2:-1] * (len(fields) - len(layout) + 2)
    if len(fields) != len(layout):
        raise InvalidArgumentError(
            f"{path}, line {lineno}: expected {len(layout)} fields, found {len(fields)}")
    try:
        values = tuple(parse(v) for parse, v in zip(layout, fields))
    except ValueError:
        raise InvalidArgumentError(
            f"{path}, line {lineno}: unparsable number in {line!r}") from None
    if any(type(v) is int and not -2**63 <= v < 2**63 for v in values):
        raise InvalidArgumentError(f"{path}, line {lineno}: integer outside int64 in {line!r}")
    return values


def _read_columns(path, fh, lineno, header, layout) -> list:
    """One array per field of the data rows in the rest of the open CSV `fh`,
    whose next line is line `lineno`: int64 for `int` fields, float64 for
    `float` ones.

    Lines are read and parsed _CHUNK_ROWS at a time, and a chunk's rows are
    joined and split as one string: only strings are made per row, and none
    outlives its chunk.
    """
    width = len(layout)
    dtypes = [np.int64 if parse is int else np.float64 for parse in layout]
    chunks = [[np.empty(0, dtype) for dtype in dtypes]]
    while lines := [line.strip() for line in islice(fh, _CHUNK_ROWS)]:
        rows = _data_rows(lines, header)
        try:
            if set(map(str.count, rows, repeat(","))) - {width - 1}:
                raise ValueError("wrong field count")
            fields = ",".join(rows).split(",") if rows else []
            chunks.append([np.fromiter(map(parse, fields[j::width]), dtype, len(rows))
                           for j, (parse, dtype) in enumerate(zip(layout, dtypes))])
        except (ValueError, OverflowError):
            for number, line in enumerate(lines, lineno):  # the row parser names the bad line
                for row in _data_rows([line], header):
                    _parse_row(path, number, row, layout)
            raise
        lineno += len(lines)
    return [np.concatenate(column) for column in zip(*chunks)]


def write_sampling_csv(s: Sampling, path, comments: Optional[Sequence[str]] = None) -> None:
    """`index,x,y,z`, one row per pixel."""
    _write_table(path, comments, "index,x,y,z", "%d,%.17g,%.17g,%.17g",
                 [np.arange(s.n), *s.points.T])


def write_sparse_csv(matrix, path, comments: Optional[Sequence[str]] = None) -> None:
    """Coordinate-format export of a square matrix: one `n,nnz` header line, then
    row-major `row,col,value` rows, repeated (row, col) entries summed as scipy does
    and explicit zeros kept; a canonical CSR matrix is written from its own arrays."""
    canonical = sp.issparse(matrix) and matrix.format == "csr" and matrix.has_canonical_format
    coo = matrix.tocoo() if canonical else sp.coo_matrix(matrix)
    if coo.shape[0] != coo.shape[1]:
        raise InvalidArgumentError(f"the matrix must be square, got shape {coo.shape}")
    if not canonical:
        coo.sum_duplicates()  # sorts row-major into new arrays; the caller's matrix stays
    _write_table(path, comments, f"{coo.shape[0]},{coo.nnz}", "%d,%d,%.17g",
                 [coo.row, coo.col, coo.data])


def read_sparse_csv(path):
    """Inverse of write_sparse_csv; the `n,nnz` line must match the triplets, and
    no (row, col) may repeat."""
    with open(path) as fh:
        lines = _data_lines(fh, None)
        first = next(lines, None)
        if first is None:
            raise InvalidArgumentError(f"{path}: no n,nnz line")
        n, nnz = _parse_row(path, *first, (int, int))
        if n < 0:
            raise InvalidArgumentError(f"{path}: matrix size n={n} is negative")
        ii, jj, data = _read_columns(path, fh, first[0] + 1, None, (int, int, float))
    if ii.size != nnz:
        raise InvalidArgumentError(f"{path}: header announces {nnz} entries, found {ii.size}")
    if np.any((ii < 0) | (ii >= n) | (jj < 0) | (jj >= n)):
        raise InvalidArgumentError(f"{path}: entry index outside [0, {n})")
    matrix = sp.coo_matrix((data, (ii, jj)), shape=(n, n)).tocsr()
    if matrix.nnz != nnz:  # the conversion sums repeated (row, col) entries into one
        raise InvalidArgumentError(
            f"{path}: repeated (row, col) entries: {nnz} triplets hold {matrix.nnz} positions")
    return matrix


def write_coeffs_csv(coeffs: HarmonicCoeffs, path,
                     comments: Optional[Sequence[str]] = None) -> None:
    """`l,m,re,im` for every coefficient up to lmax, in table order."""
    l, m, _ = _row_map(0, coeffs.lmax)
    _write_table(path, comments, "l,m,re,im", "%d,%d,%.17g,%.17g",
                 [l, m, coeffs.values.real, coeffs.values.imag])


def read_coeffs_csv(path) -> HarmonicCoeffs:
    """Inverse of write_coeffs_csv: one row per (l, m) with |m| <= l <= lmax, each once."""
    with open(path) as fh:
        l, m, re, im = _read_columns(path, fh, 1, "l,m,re,im", (int, int, float, float))
    lmax = int(l.max(initial=0))
    if l.size != (lmax + 1) ** 2:
        raise InvalidArgumentError(
            f"{path}: {l.size} rows, but lmax={lmax} needs all {(lmax + 1) ** 2} (l, m) rows")
    table_l, table_m, _ = _row_map(0, lmax)
    order = np.lexsort((m, l))  # the table lists (l, m) in ascending order
    if not (np.array_equal(l[order], table_l) and np.array_equal(m[order], table_m)):
        raise InvalidArgumentError(
            f"{path}: needs each (l, m) with |m| <= l <= {lmax} exactly once")
    values = np.empty(order.size, np.complex128)
    values.real, values.imag = re[order], im[order]
    return HarmonicCoeffs(lmax, values)


def write_spectrum_csv(spectrum: np.ndarray, path,
                       comments: Optional[Sequence[str]] = None) -> None:
    """`l,C_l` rows."""
    _write_table(path, comments, "l,C_l", "%d,%.17g", [np.arange(len(spectrum)), spectrum])


def write_signal_csv(values: np.ndarray, path,
                     comments: Optional[Sequence[str]] = None) -> None:
    """`index,value` rows for a sampled signal."""
    _write_table(path, comments, "index,value", "%d,%.17g", [np.arange(len(values)), values])


def read_signal_csv(path) -> np.ndarray:
    """Inverse of write_signal_csv: each index 0..n-1 exactly once, rows in any order."""
    with open(path) as fh:
        index, values = _read_columns(path, fh, 1, "index,value", (int, float))
    order = np.argsort(index, kind="stable")
    if not np.array_equal(index[order], np.arange(index.size)):
        raise InvalidArgumentError(f"{path}: signal indices must be 0..n-1, each once")
    return values[order]


def write_filter_csv(h: FilterCoeffs, path,
                     comments: Optional[Sequence[str]] = None) -> None:
    """One data row: `basis,P,lambda_max,alpha_0..alpha_P`."""
    names = ",".join(f"alpha_{i}" for i in range(h.order + 1))
    lam, lam_format = ("", "%s") if h.lambda_max is None else (h.lambda_max, "%.17g")
    row_format = f"%s,%d,{lam_format}" + ",%.17g" * (h.order + 1)
    _write_table(path, comments, f"basis,P,lambda_max,{names}", row_format,
                 [[h.basis], [h.order], [lam], *h.coeffs.reshape(-1, 1)])


def read_filter_csv(path) -> FilterCoeffs:
    """Inverse of write_filter_csv: one data row carrying exactly P+1 alphas."""
    layout = (str, int, lambda v: float(v) if v else None, float, ...)
    with open(path) as fh:
        rows = [_parse_row(path, lineno, line, layout)
                for lineno, line in _data_lines(fh, "basis,P,lambda_max")]
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
    _write_table(path, comments, SWEEP_HEADER, "%s,%d,%d,%s,%.17g,%d,%.17g,%.17g,%d",
                 [[getattr(r, name) for r in rows] for name in SWEEP_HEADER.split(",")])


def write_kernel_width_csv(rows: Iterable, path,
                           comments: Optional[Sequence[str]] = None,
                           footer: Optional[Sequence[str]] = None) -> None:
    """`scheme,n,k,t_opt,t_heuristic` rows plus '#' footer lines (power-law fit)."""
    rows = list(rows)
    _write_table(path, comments, "scheme,n,k,t_opt,t_heuristic", "%s,%d,%d,%.17g,%.17g",
                 [[r[i] for r in rows] for i in range(5)], footer)
