import math

import numpy as np
import pytest
import scipy.sparse as sp

from spheregraph import io
from spheregraph.equivariance import SweepRow
from spheregraph.errors import InvalidArgumentError
from spheregraph.filters import FilterCoeffs
from spheregraph.harmonics import HarmonicCoeffs, coeff_index
from spheregraph.io import read_coeffs_csv, read_filter_csv, read_signal_csv, read_sparse_csv
from spheregraph.samplings import Sampling


def write(path, text):
    path.write_text(text)
    return path


class TestReadSignalCsv:
    def test_rows_in_any_order(self, tmp_path):
        path = write(tmp_path / "f.csv", "# c\nindex,value\n2,0.5\n0,1.5\n1,-2\n")
        np.testing.assert_array_equal(read_signal_csv(path), [1.5, -2.0, 0.5])

    def test_duplicate_index_rejected(self, tmp_path):
        path = write(tmp_path / "f.csv", "index,value\n0,1\n0,2\n1,3\n")
        with pytest.raises(InvalidArgumentError):
            read_signal_csv(path)

    def test_missing_index_rejected(self, tmp_path):
        path = write(tmp_path / "f.csv", "index,value\n0,1\n0,2\n5,3\n")
        with pytest.raises(InvalidArgumentError):
            read_signal_csv(path)
        path = write(tmp_path / "g.csv", "index,value\n0,1\n2,3\n")
        with pytest.raises(InvalidArgumentError):
            read_signal_csv(path)


class TestReadSparseCsv:
    def test_well_formed(self, tmp_path):
        path = write(tmp_path / "m.csv", "# c\n3,2\n0,1,0.5\n2,0,-1\n")
        dense = read_sparse_csv(path).toarray()
        np.testing.assert_array_equal(dense, [[0, 0.5, 0], [0, 0, 0], [-1, 0, 0]])

    def test_fewer_triplets_than_header_rejected(self, tmp_path):
        path = write(tmp_path / "m.csv", "4,99\n0,1,0.5\n")
        with pytest.raises(InvalidArgumentError):
            read_sparse_csv(path)

    def test_more_triplets_than_header_rejected(self, tmp_path):
        path = write(tmp_path / "m.csv", "4,1\n0,1,0.5\n1,0,0.5\n")
        with pytest.raises(InvalidArgumentError):
            read_sparse_csv(path)

    @pytest.mark.parametrize("triplet", ["4,0,1.0", "0,4,1.0", "-1,0,1.0", "0,-1,1.0"])
    def test_index_out_of_range_rejected(self, tmp_path, triplet):
        path = write(tmp_path / "m.csv", f"4,1\n{triplet}\n")
        with pytest.raises(InvalidArgumentError):
            read_sparse_csv(path)


COEFF_ROWS = ["0,0,1.5,0", "1,-1,0.5,0.25", "1,0,2,0", "1,1,-0.5,0.25"]


class TestReadCoeffsCsv:
    def test_well_formed(self, tmp_path):
        path = write(tmp_path / "c.csv", "# c\nl,m,re,im\n" + "\n".join(COEFF_ROWS[::-1]) + "\n")
        table = read_coeffs_csv(path)
        assert table.lmax == 1
        np.testing.assert_array_equal(table.values, [1.5, 0.5 + 0.25j, 2, -0.5 + 0.25j])

    @pytest.mark.parametrize("rows", [
        pytest.param(COEFF_ROWS[:1] + COEFF_ROWS[2:], id="missing"),
        pytest.param(COEFF_ROWS[:3], id="missing-last-order"),
        pytest.param(COEFF_ROWS + ["1,0,3,0"], id="duplicate"),
        pytest.param(COEFF_ROWS + ["1,2,0,0"], id="m-above-l"),
        pytest.param(COEFF_ROWS + ["1,-2,0,0"], id="m-below-minus-l"),
        pytest.param(COEFF_ROWS[:3] + ["100000,0,0,0"], id="l-far-above-row-count"),
        pytest.param(COEFF_ROWS[:3] + ["-1,0,0,0"], id="negative-l"),
    ])
    def test_malformed_rejected(self, tmp_path, rows):
        path = write(tmp_path / "c.csv", "l,m,re,im\n" + "\n".join(rows) + "\n")
        with pytest.raises(InvalidArgumentError):
            read_coeffs_csv(path)


class TestReadFilterCsv:
    def test_well_formed(self, tmp_path):
        path = write(tmp_path / "h.csv", "basis,P,lambda_max,alpha_0,alpha_1\nmonomial,1,,1.0,2.0\n")
        h = read_filter_csv(path)
        assert h.order == 1
        np.testing.assert_array_equal(h.coeffs, [1.0, 2.0])

    @pytest.mark.parametrize("row", ["monomial,3,,1.0,2.0", "monomial,0,,1.0,2.0",
                                     "chebyshev,1,4.0,1.0"])
    def test_alpha_count_must_be_order_plus_one(self, tmp_path, row):
        path = write(tmp_path / "h.csv", f"basis,P,lambda_max\n{row}\n")
        with pytest.raises(InvalidArgumentError):
            read_filter_csv(path)


PAST_CHUNK = io._CHUNK_ROWS + 10  # data lines before the bad one


@pytest.mark.parametrize("reader, text, where", [
    pytest.param(read_signal_csv, "index,value\n1\n", "line 2", id="signal-short-row"),
    pytest.param(read_signal_csv, "index,value\n1,abc\n", "line 2", id="signal-non-numeric"),
    pytest.param(read_signal_csv, "index,value\n0,1.0,7\n", "line 2", id="signal-extra-field"),
    pytest.param(read_coeffs_csv, "l,m,re,im\n0,0,1.5\n", "line 2", id="coeffs-short-row"),
    pytest.param(read_sparse_csv, "", "n,nnz", id="sparse-empty-file"),
    pytest.param(read_sparse_csv, "4,1,0\n0,1,0.5\n", "line 1", id="sparse-three-field-count"),
    pytest.param(read_filter_csv, "basis,P,lambda_max\nmonomial,x,,1.0\n", "line 2",
                 id="filter-non-integer-order"),
    pytest.param(read_signal_csv, f"index,value\n0,1\n{2**63},2\n", "line 3",
                 id="signal-index-past-int64"),
    pytest.param(read_sparse_csv, f"3,1\n0,{-2**63 - 1},1\n", "line 2",
                 id="sparse-index-past-int64"),
    # past the first chunk of lines, after comment and blank lines
    pytest.param(read_sparse_csv, "# c\n3,9\n" + "0,1,0.5\n" * PAST_CHUNK + "# c\n\n0,1\n",
                 f"line {PAST_CHUNK + 5}", id="sparse-short-row-past-chunk"),
    pytest.param(read_signal_csv, "index,value\n" + "0,1\n" * PAST_CHUNK + "\n# c\n1,abc\n",
                 f"line {PAST_CHUNK + 4}", id="signal-non-numeric-past-chunk"),
])
def test_malformed_row_names_file_and_line(tmp_path, reader, text, where):
    path = write(tmp_path / "bad.csv", text)
    with pytest.raises(InvalidArgumentError) as exc:
        reader(path)
    assert str(path) in str(exc.value)
    assert where in str(exc.value)


# Reference writers: the per-row f-string formatting the table writer replaced.
# Every writer must reproduce their bytes exactly.

def _ref_fmt(x):
    return f"{float(x):.17g}"


def _ref_open(path, comments):
    fh = open(path, "w", newline="")
    for line in comments or ():
        fh.write(f"# {line}\n")
    return fh


def ref_write_sampling_csv(s, path, comments=None):
    with _ref_open(path, comments) as fh:
        fh.write("index,x,y,z\n")
        for i, (x, y, z) in enumerate(s.points):
            fh.write(f"{i},{_ref_fmt(x)},{_ref_fmt(y)},{_ref_fmt(z)}\n")


def ref_write_sparse_csv(matrix, path, comments=None):
    coo = sp.coo_matrix(matrix)
    order = np.lexsort((coo.col, coo.row))
    with _ref_open(path, comments) as fh:
        fh.write(f"{coo.shape[0]},{coo.nnz}\n")
        for i in order:
            fh.write(f"{coo.row[i]},{coo.col[i]},{_ref_fmt(coo.data[i])}\n")


def ref_write_coeffs_csv(coeffs, path, comments=None):
    with _ref_open(path, comments) as fh:
        fh.write("l,m,re,im\n")
        for l in range(coeffs.lmax + 1):
            for m in range(-l, l + 1):
                a = coeffs.values[coeff_index(l, m)]
                fh.write(f"{l},{m},{_ref_fmt(a.real)},{_ref_fmt(a.imag)}\n")


def ref_write_spectrum_csv(spectrum, path, comments=None):
    with _ref_open(path, comments) as fh:
        fh.write("l,C_l\n")
        for l, c in enumerate(spectrum):
            fh.write(f"{l},{_ref_fmt(c)}\n")


def ref_write_signal_csv(values, path, comments=None):
    with _ref_open(path, comments) as fh:
        fh.write("index,value\n")
        for i, v in enumerate(values):
            fh.write(f"{i},{_ref_fmt(v)}\n")


def ref_write_filter_csv(h, path, comments=None):
    names = ",".join(f"alpha_{i}" for i in range(h.order + 1))
    lam = "" if h.lambda_max is None else _ref_fmt(h.lambda_max)
    with _ref_open(path, comments) as fh:
        fh.write(f"basis,P,lambda_max,{names}\n")
        alphas = ",".join(_ref_fmt(a) for a in h.coeffs)
        fh.write(f"{h.basis},{h.order},{lam},{alphas}\n")


def ref_write_sweep_csv(rows, path, comments=None):
    with _ref_open(path, comments) as fh:
        fh.write("scheme,n,k,weight,t,ell,mean_err,std_err,samples\n")
        for r in rows:
            fh.write(
                f"{r.scheme},{r.n},{r.k},{r.weight},{_ref_fmt(r.t)},{r.ell},"
                f"{_ref_fmt(r.mean_err)},{_ref_fmt(r.std_err)},{r.samples}\n"
            )


def ref_write_kernel_width_csv(rows, path, comments=None, footer=None):
    with _ref_open(path, comments) as fh:
        fh.write("scheme,n,k,t_opt,t_heuristic\n")
        for scheme, n, k, t_opt, t_heur in rows:
            fh.write(f"{scheme},{n},{k},{_ref_fmt(t_opt)},{_ref_fmt(t_heur)}\n")
        for line in footer or ():
            fh.write(f"# {line}\n")


SPECIAL = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308,
           -1.7976931348623157e308, 2.2250738585072014e-308, 0.1, -1 / 3]
# Few distinct values, repeated: the table writer formats each distinct value
# once, so values that compare equal but print differently (0.0 and -0.0) must
# keep their own strings. The NaNs are quiet NaNs of both signs and two payloads.
REPEATED = [0.0, -0.0, 0.5, -1 / 3, *np.array(
    [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0xFFF8000000000001],
    dtype=np.uint64).view(np.float64)]
BIG = 2**31  # int64 indices from here up do not fit in 32 bits


def _writer_args(name, n, values, period):
    """Arguments for writer `name` giving a table of about n rows built from
    `values`; with a `period`, the indices repeat with that period, so each
    one recurs in every chunk."""
    v = np.resize(np.array(values), n)
    w = v[::-1].copy()
    ints = BIG + np.arange(n, dtype=np.int64) % (period or max(n, 1)) * 7919
    if name == "sampling":
        return (Sampling(np.column_stack([v, w, -v]), "custom", n),)
    if name == "sparse":
        shape = (int(BIG + 7919 * n + 1),) * 2
        if period:  # distinct (row, col) pairs, each col in every row block
            rows = BIG + np.arange(n, dtype=np.int64) // period * 7919
        else:
            rows = np.roll(ints, 3)  # unsorted, so the writer's row-major order shows
        return (sp.coo_matrix((v, (rows, ints)), shape=shape),)
    if name == "coeffs":
        lmax = math.isqrt(max(n - 1, 0))  # (lmax + 1)**2 >= n rows
        m = (lmax + 1) ** 2
        pairs = np.column_stack([np.resize(v, m), np.resize(w, m)])  # no complex arithmetic
        return (HarmonicCoeffs(lmax, pairs.view(np.complex128)[:, 0]),)
    if name == "spectrum":
        return (v,)
    if name == "signal":
        return (w,)
    if name == "filter":
        return (FilterCoeffs("chebyshev", np.resize(v, max(n, 1)), 5e-324),)
    if name == "sweep":
        return ([SweepRow("healpix-ring", int(a), 8, "gaussian", float(x), 3, float(y),
                          float(x), 100) for a, x, y in zip(ints, v, w)],)
    return ([("healpix-ring", int(a), 40, float(x), float(y)) for a, x, y in zip(ints, v, w)],)


WRITERS = {
    "sampling": (io.write_sampling_csv, ref_write_sampling_csv),
    "sparse": (io.write_sparse_csv, ref_write_sparse_csv),
    "coeffs": (io.write_coeffs_csv, ref_write_coeffs_csv),
    "spectrum": (io.write_spectrum_csv, ref_write_spectrum_csv),
    "signal": (io.write_signal_csv, ref_write_signal_csv),
    "filter": (io.write_filter_csv, ref_write_filter_csv),
    "sweep": (io.write_sweep_csv, ref_write_sweep_csv),
    "kernel_width": (io.write_kernel_width_csv, ref_write_kernel_width_csv),
}


TABLES = {  # rows, values, index period
    "special-values": (len(SPECIAL), SPECIAL, None),
    "zero-rows": (0, SPECIAL, None),
    "past-two-chunks": (2 * io._CHUNK_ROWS + 3, SPECIAL, None),
    "repeats-past-two-chunks": (2 * io._CHUNK_ROWS + 3, REPEATED, 7),
}


@pytest.mark.parametrize("table", list(TABLES))
@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writer_matches_reference_bytes(tmp_path, name, table):
    writer, reference = WRITERS[name]
    args = _writer_args(name, *TABLES[table])
    comments = ["spheregraph 0.1.0", "t=50%"]  # '%' must pass through verbatim
    extra = {"footer": ["power-law beta=nan", "r2=100%"]} if name == "kernel_width" else {}
    writer(*args, tmp_path / "new.csv", comments, **extra)
    reference(*args, tmp_path / "ref.csv", comments, **extra)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
