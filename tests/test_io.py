import numpy as np
import pytest

from spheregraph.errors import InvalidArgumentError
from spheregraph.io import read_signal_csv, read_sparse_csv


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
