"""The benchmark's workloads.

Each workload makes its inputs from a seed (`setup`), makes one timed call
into the program (`run`), and checks the outputs against references recorded
at the seed commit (`check`). `record_references.py` records the references
with the same code. Functions are looked up on the program's modules at call
time, so a traced run goes through the tracer's wrappers.

- kwidth: `spheregraph opt-t` at HEALPix nside 2,4,8, k 8, run in-process.
  Three kernel-width searches: the paper's Monte-Carlo objective inside the
  search is the hot loop (equivariance engine, cell_error).
- sweep: `spheregraph equiv-sweep` at nside 4,8,16, k 8,20,40, heuristic
  width. The same engine without a search; the reliable band reaches lmax 47,
  so the harmonics layer (basis, Gram factorization, Wigner blocks) and the
  dense-plan memory carry a large share.
- graph-filter: the calls of `spheregraph graph` and `spheregraph filter` at
  nside 128, k 8 as a library pipeline: graphs, io and filters, no harmonics.
  The Chebyshev filter uses a fixed recorded lambda_max so its outputs do not
  depend on the eigenvalue estimate.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import math
import os
import sys

import numpy as np


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _data_rows(path: str):
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a)


class _CliWorkload:
    """One in-process `spheregraph` command that writes a CSV."""

    argv: tuple = ()
    out_name = ""

    def setup(self, sg, seed: int, workdir: str, shared: dict) -> dict:
        path = os.path.join(workdir, self.out_name)
        argv = ["--seed", str(seed), "--threads", "1", *self.argv, "--out", path]
        return {"sg": sg, "argv": argv, "path": path}

    def run(self, state: dict) -> dict:
        # the command's progress line goes to stderr; stdout ends with the result
        with contextlib.redirect_stdout(sys.stderr):
            state["sg"].cli.main(state["argv"], standalone_mode=False)
        return {"path": state["path"]}


class KernelWidth(_CliWorkload):
    name = "kwidth"
    why = ("opt-t at HEALPix nside 2,4,8, k 8: three kernel-width searches, "
           "the paper's Monte-Carlo objective loop (equivariance engine)")
    argv = ("opt-t", "--scheme", "healpix", "--nside", "2,4,8", "--k", "8")
    out_name = "kernel_widths.csv"
    # Layers the traced run must see called: this workload is where they dominate.
    required = ("equivariance.optimize_kernel_width.calls", "equivariance.degree_ops.calls",
                "equivariance.objective_evals", "equivariance.cell_error.calls")

    def reference(self, state: dict, out: dict) -> dict:
        rows = _data_rows(out["path"])
        with open(out["path"]) as fh:
            footer = [line for line in fh if line.startswith("# power-law")][-1]
        beta = float(footer.split("beta=")[1].split()[0])
        return {
            "keys": [[r["scheme"], int(r["n"]), int(r["k"])] for r in rows],
            "t_opt": [float(r["t_opt"]) for r in rows],
            "t_heuristic": [float(r["t_heuristic"]) for r in rows],
            "beta": beta,
        }

    def check(self, state: dict, out: dict, ref: dict) -> list:
        got = self.reference(state, out)
        problems = []
        if got["keys"] != ref["keys"]:
            return [f"row keys {got['keys']} != {ref['keys']}"]
        for key, t, t_ref in zip(ref["keys"], got["t_opt"], ref["t_opt"]):
            if not abs(math.log(t) - math.log(t_ref)) <= 1e-3:  # the search's log_tol
                problems.append(f"t_opt {key}: {t!r} vs {t_ref!r}")
        for key, t, t_ref in zip(ref["keys"], got["t_heuristic"], ref["t_heuristic"]):
            if not _rel(t, t_ref) <= 1e-12:
                problems.append(f"t_heuristic {key}: {t!r} vs {t_ref!r}")
        if not abs(got["beta"] - ref["beta"]) <= 1e-3:
            problems.append(f"power-law beta {got['beta']!r} vs {ref['beta']!r}")
        return problems


class Sweep(_CliWorkload):
    name = "sweep"
    why = ("equiv-sweep at nside 4,8,16, k 8,20,40, heuristic width: the same "
           "engine without a search, harmonics-heavy (lmax 47, dense plan memory)")
    argv = ("equiv-sweep", "--scheme", "healpix", "--nside", "4,8,16",
            "--k", "8,20,40", "--t", "heuristic")
    out_name = "sweep.csv"
    required = ("equivariance.cell_error.calls", "harmonics.wigner_D_blocks.calls",
                "harmonics.AnalysisPlan.calls", "harmonics.evaluate_basis.calls")

    def reference(self, state: dict, out: dict) -> dict:
        rows = _data_rows(out["path"])
        return {
            "keys": [[r["scheme"], int(r["n"]), int(r["k"]), r["weight"], int(r["ell"])]
                     for r in rows],
            "t": [float(r["t"]) for r in rows],
            "mean_err": [float(r["mean_err"]) for r in rows],
            "std_err": [float(r["std_err"]) for r in rows],
            "samples": [int(r["samples"]) for r in rows],
        }

    def check(self, state: dict, out: dict, ref: dict) -> list:
        got = self.reference(state, out)
        if got["keys"] != ref["keys"]:
            return [f"sweep row keys differ ({len(got['keys'])} rows vs {len(ref['keys'])})"]
        problems = []
        for i, key in enumerate(ref["keys"]):
            if not _rel(got["t"][i], ref["t"][i]) <= 1e-12:
                problems.append(f"t {key}: {got['t'][i]!r} vs {ref['t'][i]!r}")
            if got["samples"][i] != ref["samples"][i]:
                problems.append(f"samples {key}: {got['samples'][i]} vs {ref['samples'][i]}")
            for col in ("mean_err", "std_err"):
                if not _rel(got[col][i], ref[col][i]) <= 1e-6:
                    problems.append(f"{col} {key}: {got[col][i]!r} vs {ref[col][i]!r}")
        return problems


class GraphFilter:
    name = "graph-filter"
    why = ("graph + filter pipeline at nside 128, k 8 (n 196608): kNN, Laplacian, "
           "CSV export, Lanczos and Chebyshev filtering, no harmonics")
    nside, k, n_signals = 128, 8, 32
    required = ("samplings.healpix_sampling.calls", "graphs.knn_support.calls",
                "graphs.build_graph.calls",
                "graphs.largest_eigenvalue.calls", "io.write_sparse_csv.calls",
                "filters.filter_apply.calls")
    # Fixed probe vectors that fingerprint each filter output.
    probe_seed = 20201230

    def setup(self, sg, seed: int, workdir: str, shared: dict) -> dict:
        s = sg.samplings.healpix_sampling(self.nside)
        signals = np.random.default_rng(seed).standard_normal((self.n_signals, s.n))
        return {"sg": sg, "sampling": s, "seed": seed, "signals": signals,
                "coeffs": np.array(shared["coeffs"]), "lambda_max": shared["lambda_max"],
                "lambda_top": shared["lambda_top"], "path": os.path.join(workdir, "graph.csv")}

    def _header(self, state: dict, t: float) -> list:
        # the header lines `spheregraph --seed S graph` writes
        s = state["sampling"]
        return [f"spheregraph {state['sg'].__version__}", "command=graph",
                f"seed={state['seed']}", f"scheme={s.scheme}",
                f"resolution={s.resolution}", f"n={s.n}", f"k={self.k}",
                "weight=gaussian", f"t={t}", "matrix=adjacency"]

    def run(self, state: dict) -> dict:
        sg = state["sg"]
        graphs = sg.graphs
        s = state["sampling"]
        t = graphs.heuristic_kernel_width(s, self.k)
        g = graphs.build_graph(s, self.k, graphs.WeightScheme("gaussian", t))
        lap = graphs.laplacian(g)
        sg.io.write_sparse_csv(g.adjacency, state["path"], self._header(state, t))
        lam = graphs.largest_eigenvalue(lap)
        h = sg.filters.FilterCoeffs("chebyshev", state["coeffs"], state["lambda_max"])
        outputs = [sg.filters.filter_apply(lap, h, f) for f in state["signals"]]
        return {"path": state["path"], "lambda": lam, "outputs": outputs}

    def _fingerprints(self, outputs) -> list:
        probes = np.random.default_rng(self.probe_seed).standard_normal((2, outputs[0].size))
        return [[float(np.linalg.norm(y)), *(float(p @ y) for p in probes)] for y in outputs]

    def reference(self, state: dict, out: dict) -> dict:
        return {"adjacency_sha256": file_sha256(out["path"]),
                "fingerprints": self._fingerprints(out["outputs"])}

    def check(self, state: dict, out: dict, ref: dict) -> list:
        problems = []
        if file_sha256(out["path"]) != ref["adjacency_sha256"]:
            problems.append("adjacency CSV bytes differ from the reference")
        top = state["lambda_top"]
        if not top <= out["lambda"] <= 1.05 * top:
            problems.append(f"largest_eigenvalue {out['lambda']!r} outside [{top!r}, 1.05 x]")
        # A standard-normal probe p gives p.dy ~ N(0, |dy|^2), so each bound
        # tests |dy| <= 1e-10 |y|.
        for i, (got, want) in enumerate(zip(self._fingerprints(out["outputs"]),
                                            ref["fingerprints"])):
            tol = 1e-10 * want[0]
            if not all(abs(a - b) <= tol for a, b in zip(got, want)):
                problems.append(f"filter output {i} differs: {got} vs {want}")
        return problems


WORKLOADS = {w.name: w for w in (KernelWidth(), Sweep(), GraphFilter())}
