import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from spheregraph.cli import main
from spheregraph.filters import FilterCoeffs, filter_apply
from spheregraph.graphs import WeightScheme, build_graph, heuristic_kernel_width, laplacian
from spheregraph.harmonics import analysis, random_degree_signal
from spheregraph.io import (
    read_signal_csv,
    read_sparse_csv,
    write_coeffs_csv,
    write_filter_csv,
    write_signal_csv,
)
from spheregraph.samplings import healpix_sampling


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def data_lines(path):
    return [l for l in path.read_text().splitlines() if l and not l.startswith("#")]


class TestSampleCommand:
    def test_healpix_row_count(self, runner, tmp_path):
        out = tmp_path / "s.csv"
        invoke(runner, ["sample", "--scheme", "healpix", "--nside", "2", "--out", str(out)])
        lines = data_lines(out)
        assert lines[0] == "index,x,y,z"
        assert len(lines) == 49

    def test_header_records_config(self, runner, tmp_path):
        out = tmp_path / "s.csv"
        invoke(runner, ["--seed", "9", "sample", "--scheme", "icosahedral",
                        "--level", "1", "--out", str(out)])
        header = [l for l in out.read_text().splitlines() if l.startswith("#")]
        assert any("seed=9" in l for l in header)
        assert any("command=sample" in l for l in header)
        assert any(l.startswith("# spheregraph ") for l in header)

    def test_usage_error_exit_code(self, runner):
        result = runner.invoke(main, ["sample", "--scheme", "healpix"])
        assert result.exit_code == 2


class TestGraphCommand:
    def test_sparsity_bound_and_round_trip(self, runner, tmp_path):
        out = tmp_path / "g.csv"
        invoke(runner, ["graph", "--scheme", "healpix", "--nside", "8", "--k", "8",
                        "--weight", "gaussian", "--t", "heuristic", "--out", str(out)])
        mat = read_sparse_csv(out)
        assert mat.shape == (768, 768)
        assert mat.nnz <= 2 * 8 * 768
        s = healpix_sampling(8)
        expected = build_graph(s, 8, WeightScheme("gaussian", heuristic_kernel_width(s, 8)))
        assert (mat != expected.adjacency).nnz == 0

    def test_laplacian_export(self, runner, tmp_path):
        out = tmp_path / "l.csv"
        invoke(runner, ["graph", "--scheme", "healpix", "--nside", "2", "--k", "4",
                        "--weight", "inverse-distance", "--matrix", "laplacian",
                        "--out", str(out)])
        lap = read_sparse_csv(out)
        assert np.abs(lap @ np.ones(48)).max() < 1e-10


class TestShtAndPsd:
    def test_analyze_then_synth_round_trip(self, runner, tmp_path):
        s = healpix_sampling(4)
        f = random_degree_signal(s, 3, 77)
        sig = tmp_path / "f.csv"
        write_signal_csv(f, sig)
        coeffs = tmp_path / "c.csv"
        invoke(runner, ["sht", "--scheme", "healpix", "--nside", "4", "--lmax", "5",
                        "--signal", str(sig), "--out", str(coeffs)])
        back = tmp_path / "f2.csv"
        invoke(runner, ["sht", "--scheme", "healpix", "--nside", "4", "--lmax", "5",
                        "--mode", "synth", "--coeffs", str(coeffs), "--out", str(back)])
        np.testing.assert_allclose(read_signal_csv(back), f, atol=1e-8)

    def test_synth_header_records_coeffs(self, runner, tmp_path):
        coeffs = tmp_path / "c.csv"
        write_coeffs_csv(analysis(healpix_sampling(2), np.ones(48), 2), coeffs)
        out = tmp_path / "f.csv"
        invoke(runner, ["sht", "--scheme", "healpix", "--nside", "2", "--lmax", "2",
                        "--mode", "synth", "--coeffs", str(coeffs), "--out", str(out)])
        assert f"# coeffs={coeffs}" in out.read_text().splitlines()

    def test_psd_degree_signal_support(self, runner, tmp_path):
        out = tmp_path / "p.csv"
        invoke(runner, ["--seed", "3", "psd", "--scheme", "healpix", "--nside", "8",
                        "--lmax", "10", "--degree", "5", "--out", str(out)])
        lines = data_lines(out)
        assert lines[0] == "l,C_l"
        spec = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert spec[5] > 1e-6
        off = np.delete(spec, 5)
        assert off.max() < 1e-12 * spec[5]


class TestFilterAndPool:
    def test_filter_matches_library(self, runner, tmp_path):
        h = FilterCoeffs("monomial", [0.5, -0.25, 0.1])
        spec_path = tmp_path / "h.csv"
        write_filter_csv(h, spec_path)
        s = healpix_sampling(4)
        f = random_degree_signal(s, 4, 5)
        sig = tmp_path / "f.csv"
        write_signal_csv(f, sig)
        out = tmp_path / "y.csv"
        invoke(runner, ["filter", "--scheme", "healpix", "--nside", "4", "--k", "8",
                        "--weight", "gaussian", "--t", "heuristic",
                        "--spec", str(spec_path), "--signal", str(sig), "--out", str(out)])
        lap = laplacian(build_graph(s, 8, WeightScheme("gaussian", heuristic_kernel_width(s, 8))))
        np.testing.assert_allclose(read_signal_csv(out), filter_apply(lap, h, f), atol=1e-12)

    def test_chebyshev_spec_needs_lambda_max(self, tmp_path):
        spec = tmp_path / "h.csv"
        spec.write_text("basis,P,lambda_max,alpha_0,alpha_1\nchebyshev,1,,1.0,0.5\n")
        result = subprocess.run(
            [sys.executable, "-m", "spheregraph.cli", "filter", "--scheme", "healpix",
             "--nside", "2", "--k", "4", "--spec", str(spec), "--degree", "2",
             "--out", str(tmp_path / "y.csv")],
            capture_output=True, text=True)
        assert result.returncode == 2
        assert "chebyshev filters need lambda_max > 0" in result.stderr
        assert not (tmp_path / "y.csv").exists()

    def test_pool_average(self, runner, tmp_path):
        s = healpix_sampling(2, "nested")
        f = np.arange(s.n, dtype=float)
        sig = tmp_path / "f.csv"
        write_signal_csv(f, sig)
        out = tmp_path / "p.csv"
        invoke(runner, ["pool", "--scheme", "healpix", "--nside", "2",
                        "--indexing", "nested", "--mode", "average",
                        "--signal", str(sig), "--out", str(out)])
        np.testing.assert_allclose(read_signal_csv(out), 4.0 * np.arange(12) + 1.5)

    def test_pool_requires_nested(self, runner, tmp_path):
        sig = tmp_path / "f.csv"
        write_signal_csv(np.zeros(48), sig)
        result = runner.invoke(main, ["pool", "--scheme", "healpix", "--nside", "2",
                                      "--mode", "max", "--signal", str(sig)])
        assert result.exit_code == 2


class TestSweepCommands:
    def test_sweep_row_cardinality(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        invoke(runner, ["--seed", "12", "equiv-sweep", "--scheme", "healpix",
                        "--nside", "2,4", "--k", "4,8", "--weight", "gaussian",
                        "--t", "heuristic", "--degrees", "2,3",
                        "--n-signals", "2", "--n-rotations", "2", "--out", str(out)])
        lines = data_lines(out)
        assert lines[0] == "scheme,n,k,weight,t,ell,mean_err,std_err,samples"
        assert len(lines) == 1 + 2 * 2 * 2

    def test_sweep_reruns_byte_identical(self, runner, tmp_path):
        args = ["--seed", "12", "equiv-sweep", "--scheme", "healpix", "--nside", "2",
                "--k", "4", "--weight", "gaussian", "--t", "heuristic",
                "--degrees", "2,3", "--n-signals", "2", "--n-rotations", "2"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        invoke(runner, args + ["--out", str(out1)])
        invoke(runner, args + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_opt_t_footer_fit(self, runner, tmp_path):
        out = tmp_path / "w.csv"
        invoke(runner, ["--seed", "4", "opt-t", "--scheme", "healpix",
                        "--nside", "2,4,8", "--k", "6", "--degrees", "2,3",
                        "--n-signals", "2", "--n-rotations", "2", "--out", str(out)])
        text = out.read_text()
        lines = data_lines(out)
        assert lines[0] == "scheme,n,k,t_opt,t_heuristic"
        assert len(lines) == 4
        t_opt = [float(l.split(",")[3]) for l in lines[1:]]
        assert all(v > 0 for v in t_opt)
        assert "power-law beta=" in text

    def test_opt_t_header_records_indexing_and_band(self, runner, tmp_path):
        out = tmp_path / "w.csv"
        invoke(runner, ["--seed", "4", "opt-t", "--scheme", "healpix", "--indexing", "nested",
                        "--nside", "2,4,8", "--k", "6", "--degrees", "2,3", "--n-signals", "2",
                        "--n-rotations", "2", "--lmax-analysis", "3", "--out", str(out)])
        header = [l for l in out.read_text().splitlines() if l.startswith("#")]
        assert "# indexing=nested" in header
        assert "# lmax_analysis=3" in header

    def test_threads_below_one_rejected(self, runner):
        result = runner.invoke(main, ["--threads", "0", "equiv-sweep", "--scheme", "healpix",
                                      "--nside", "2", "--k", "4", "--degrees", "2"])
        assert result.exit_code == 2
        assert "--threads" in result.output

    def test_sweep_with_no_k_rejected(self, tmp_path):
        # `--k ,` parses to no k at all: a usage error, like `--nside ,`, and no CSV
        out = tmp_path / "sweep.csv"
        for nside, k in (("2", ","), (",", "4")):
            bad = subprocess.run(
                [sys.executable, "-m", "spheregraph.cli", "equiv-sweep", "--scheme", "healpix",
                 "--nside", nside, "--k", k, "--t", "heuristic", "--out", str(out)],
                capture_output=True, text=True)
            assert bad.returncode == 2, bad.stderr
            assert not out.exists()

    def test_opt_t_needs_three_resolutions(self, runner):
        result = runner.invoke(main, ["opt-t", "--scheme", "healpix", "--nside", "2,4",
                                      "--k", "4"])
        assert result.exit_code == 2


def test_console_entry_exit_codes(tmp_path):
    env_cmd = [sys.executable, "-m", "spheregraph.cli"]
    signal = tmp_path / "bad_signal.csv"
    signal.write_text("index,value\n0,1.0\n1,abc\n")
    for args, message in [
        (["sample", "--scheme", "healpix", "--nside", "3"], "power of two"),
        (["opt-t", "--scheme", "healpix", "--nside", "2,4,8", "--k", "8",
          "--degrees", "1,x"], "'1,x'"),
        (["pool", "--scheme", "healpix", "--nside", "2", "--indexing", "nested",
          "--signal", str(signal)], "line 3"),
        (["opt-t", "--scheme", "healpix", "--nside", "2,2,2", "--k", "8"], "distinct n"),
    ]:
        bad = subprocess.run(env_cmd + args + ["--out", str(tmp_path / "x.csv")],
                             capture_output=True, text=True)
        assert bad.returncode == 2, bad.stderr
        assert message in bad.stderr + bad.stdout
    ok = subprocess.run(env_cmd + ["sample", "--scheme", "healpix", "--nside", "2",
                                   "--out", str(tmp_path / "ok.csv")],
                        capture_output=True, text=True)
    assert ok.returncode == 0
