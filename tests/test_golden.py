"""Golden-byte oracle for the graph layer.

Each case runs one CLI command at HEALPix nside 8 and compares the sha256 of
the CSV it writes with a digest recorded before the kNN pipeline was folded
into a single tree query. A changed digest means changed output bytes: a
different neighbour set, weight, tie order or float formatting.

The digests hold for IEEE double arithmetic with numpy's float64 exp, sin
and cos; a platform whose math library rounds differently may need them
re-recorded from a trusted checkout.
"""

import hashlib

import numpy as np
import pytest
from click.testing import CliRunner

from spheregraph.cli import main
from spheregraph.filters import FilterCoeffs
from spheregraph.io import write_filter_csv, write_signal_csv

GRAPH = ["graph", "--scheme", "healpix", "--nside", "8", "--k", "8"]

GOLDEN = {
    "graph-gaussian-heuristic": (
        GRAPH + ["--weight", "gaussian", "--t", "heuristic"],
        "3bacceb245aaa93da4c3d5a58688cff5ad1f44bd2cae25327dd4a99cea208086",
    ),
    "graph-gaussian-mean-distance": (
        GRAPH + ["--weight", "gaussian", "--t", "mean-distance"],
        "b576026d5a26721d6db66fb17b0039d0f0e3fda46aa18feb8b948136c4273bf5",
    ),
    "graph-inverse-distance": (
        GRAPH + ["--weight", "inverse-distance"],
        "e5a008e41c7264b9bfe84675aa33e57640db8ad026b14032c295eeb3f1c6aa2f",
    ),
    "graph-laplacian": (
        GRAPH + ["--weight", "gaussian", "--t", "heuristic", "--matrix", "laplacian"],
        "c16788da395cd482e53b52c33795bb35f68f93f7fd09c810d7b77e1fcfd1bc87",
    ),
    "filter-monomial": (
        ["filter", "--scheme", "healpix", "--nside", "8", "--k", "8",
         "--weight", "gaussian", "--t", "heuristic", "--spec", "h.csv",
         "--signal", "f.csv"],
        "12250953dc174ca0d5962baedf2f08adc2056bc0a4166c45085e373b14d98786",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_bytes(name, tmp_path, monkeypatch):
    # relative paths: the filter command records its signal path in the header
    monkeypatch.chdir(tmp_path)
    write_filter_csv(FilterCoeffs("monomial", [0.5, -0.25, 0.125, -0.0625]), "h.csv")
    write_signal_csv((np.arange(768) % 17 - 8) / 4.0, "f.csv")  # exact binary fractions
    args, digest = GOLDEN[name]
    argv = ["--seed", "3"] + args + ["--out", "out.csv"]
    result = CliRunner().invoke(main, argv, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest() == digest
