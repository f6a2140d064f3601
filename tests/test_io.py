import numpy as np
import pytest

from spheregraph.errors import InvalidArgumentError
from spheregraph.io import read_coeffs_csv, read_filter_csv, read_signal_csv, read_sparse_csv


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
