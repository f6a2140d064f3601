"""Golden-byte oracle for the graph layer and the CSV layer.

Each case runs one CLI command and compares the sha256 of the CSV it writes
with a recorded digest. The graph and filter digests were recorded before the
kNN pipeline was folded into a single tree query; the sample and pool digests
before the CSV writers were rebuilt around one table writer; the nested sample
digest before nested pixel centres became a permutation of the ring centres.
The filter digest was re-recorded when the filter header gained its `spec=`
line, the only bytes that changed.
A changed digest means changed output bytes: a different sampling, neighbour
set, weight, tie order, pooled value or float formatting.

Commands whose last bits depend on the CPU's BLAS kernels (sht, psd,
equiv-sweep, opt-t) are left out; tests/test_io.py checks every writer's
formatting against a per-row reference instead.

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
POOL = ["pool", "--scheme", "healpix", "--nside", "8", "--indexing", "nested", "--signal", "f.csv"]

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
        "fa85ac8dee68cb9343f372f935ebc09e46daa1739d80522b09216af899969072",
    ),
    "sample-healpix": (
        ["sample", "--scheme", "healpix", "--nside", "8"],
        "d23f267214b0b7aaab97057d62bc79caf3528025da2a46489be360c4cafc1da3",
    ),
    "sample-healpix-nested": (
        ["sample", "--scheme", "healpix", "--nside", "8", "--indexing", "nested"],
        "f033727c57ef54cb85a9261f961f8bbe794695f1d09211a81ad4775f741006c9",
    ),
    "sample-equiangular": (
        ["sample", "--scheme", "equiangular", "--bandwidth", "4"],
        "b01b6d5e305b542ffc278509555eee04ee0df51103adb20865e1d3efbd70c96f",
    ),
    "sample-icosahedral": (
        ["sample", "--scheme", "icosahedral", "--level", "2"],
        "661ed4d445f4b816f850d6409ead8d55df5978b52d8e143bbfaf80c5995dff1c",
    ),
    "pool-average": (
        POOL + ["--mode", "average"],
        "9eed451fb01d26f5e17bca406d32860f1afd49e97958fd538b0e7764e9927558",
    ),
    "pool-max": (
        POOL + ["--mode", "max"],
        "3244651d5f13fc3f2995cb8fa4eb3c2d446d5c2cfa734fd2e86280f0db586372",
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
