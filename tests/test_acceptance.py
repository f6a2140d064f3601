"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[criterion NN] PASS/FAIL` line (visible with -s, or on
failure). Monte-Carlo settings: seed 42, 10 signals x 10 rotations per cell
(100 draws), degrees 1..min(15, band), rotation-operator band limit
min(3*Nside - 1, 30). The shared store caches kernel-width optimizations so
criteria 1-3 reuse each other's work.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from spheregraph.equivariance import (
    EquivarianceConfig,
    SweepEngine,
    equivariance_error,
    extended_equivariance_check,
    extended_laplacian_apply,
    fit_power_law,
    optimize_kernel_width,
)
from spheregraph.filters import FilterCoeffs, chebyshev_from_monomial, filter_apply
from spheregraph.graphs import (
    GaussianGraphFamily,
    WeightScheme,
    build_graph,
    heuristic_kernel_width,
    laplacian,
    largest_eigenvalue,
)
from spheregraph.harmonics import (
    AnalysisPlan,
    HarmonicCoeffs,
    analysis,
    coeff_index,
    draw_degree_coeffs,
    draw_real_degree,
    evaluate_basis,
    random_rotation,
    synthesis,
    wigner_D_matrix,
)
from spheregraph.samplings import (
    equiangular_sampling,
    healpix_sampling,
    icosahedral_sampling,
    random_uniform_sampling,
    reliable_band,
    rotation_permutation,
    z_rotation_matrix,
)

SEED = 42
CFG_DRAWS = dict(n_signals=10, n_rotations=10)


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _lmax_for(nside: int) -> int:
    return min(3 * nside - 1, 30)


def _degrees_for(nside: int):
    return list(range(1, min(15, 3 * nside - 1) + 1))


class _Store:
    """Caches engines and kernel-width optimizations across criteria."""

    def __init__(self):
        self.engines = {}
        self.opts = {}
        self.wall = {}

    def engine(self, nside: int) -> SweepEngine:
        if nside not in self.engines:
            self.engines[nside] = SweepEngine(healpix_sampling(nside), _lmax_for(nside))
        return self.engines[nside]

    def optimized(self, nside: int, k: int):
        """(t_opt, t_heur, mean error at t_opt, mean error at t_heur, cell stats)."""
        key = (nside, k)
        if key not in self.opts:
            t0 = time.perf_counter()
            engine = self.engine(nside)
            s = engine.sampling
            degrees = _degrees_for(nside)
            cfg = EquivarianceConfig(seed=SEED, lmax_analysis=_lmax_for(nside), **CFG_DRAWS)
            t_opt = optimize_kernel_width(s, k, degrees, cfg, engine=engine)
            t_heur = heuristic_kernel_width(s, k, "half-mean-square")
            family = GaussianGraphFamily(s, k)

            def stats(t):
                ops = engine.degree_ops(family.laplacian(t), max(degrees))
                cells = [engine.cell_error(ops, engine.draws(k, "gaussian", l, cfg), l)
                         for l in degrees]
                means = np.array([c.mean for c in cells])
                ses = np.array([c.std / np.sqrt(c.samples) for c in cells])
                return float(means.mean()), float(np.sqrt(np.sum(ses**2)) / len(cells))

            e_opt, se_opt = stats(t_opt)
            e_heur, se_heur = stats(t_heur)
            self.opts[key] = dict(t_opt=t_opt, t_heur=t_heur, e_opt=e_opt,
                                  se_opt=se_opt, e_heur=e_heur, se_heur=se_heur)
            self.wall[key] = time.perf_counter() - t0
        return self.opts[key]


@pytest.fixture(scope="module")
def store():
    return _Store()


def test_criterion_01_neighbor_count_monotonicity(store):
    t0 = time.perf_counter()
    res = {k: store.optimized(16, k) for k in (8, 20, 40)}
    wall = time.perf_counter() - t0
    means = {k: res[k]["e_opt"] for k in res}
    ses = {k: res[k]["se_opt"] for k in res}
    gap_8_20 = means[8] - means[20]
    gap_20_40 = means[20] - means[40]
    pooled_8_20 = float(np.hypot(ses[8], ses[20]))
    pooled_20_40 = float(np.hypot(ses[20], ses[40]))
    ok = (means[40] < means[20] < means[8]
          and gap_8_20 > pooled_8_20 and gap_20_40 > pooled_20_40
          and wall < 600.0)
    _report(1, "neighbor-count monotonicity", ok,
            f"E(k=8)={means[8]:.3e} E(k=20)={means[20]:.3e} E(k=40)={means[40]:.3e}, "
            f"gaps {gap_8_20 / pooled_8_20:.0f} and {gap_20_40 / pooled_20_40:.0f} pooled SEs, "
            f"runtime {wall:.0f}s (< 600s)")


def test_criterion_02_heuristic_overestimates(store):
    results = {nside: store.optimized(nside, 8) for nside in (4, 8, 16)}
    not_worse = all(r["e_opt"] <= r["e_heur"] for r in results.values())
    strict = sum(r["e_opt"] < r["e_heur"] for r in results.values())
    widths_smaller = all(r["t_opt"] < r["t_heur"] for r in results.values())
    ok = not_worse and strict >= 2
    detail = "; ".join(
        f"nside={ns}: E(t*)={r['e_opt']:.3e} vs E(t_h)={r['e_heur']:.3e}, "
        f"t*={r['t_opt']:.2e} t_h={r['t_heur']:.2e}"
        for ns, r in results.items())
    _report(2, "optimized width beats half-mean-square heuristic", ok,
            detail + f"; strictly better in {strict}/3, t*<t_h in all: {widths_smaller}")


def test_criterion_03_kernel_width_power_law(store):
    pairs = []
    for nside in (4, 8, 16, 32):
        r = store.optimized(nside, 8)
        pairs.append((12 * nside * nside, r["t_opt"]))
    beta, prefactor, r2 = fit_power_law(pairs)
    ok = beta < 0 and r2 > 0.9
    _report(3, "optimal width follows a power law in n", ok,
            f"beta={beta:.4f} (<0), R^2={r2:.5f} (>0.9), widths={[f'{t:.2e}' for _, t in pairs]}")


def test_criterion_04_inverse_distance_selectivity():
    s = equiangular_sampling(16)
    k = 4
    lap = laplacian(build_graph(s, k, WeightScheme("inverse-distance")))
    basis = evaluate_basis(s, 10)
    rng = np.random.default_rng(SEED)

    floor = 0.0
    for j in (1, 5, 16):  # grid steps of the 32-fold longitudinal symmetry
        perm = rotation_permutation(s, z_rotation_matrix(np.pi * j / 16.0))
        for _ in range(5):
            vals = np.concatenate([draw_real_degree(l, rng) for l in range(11)])
            f = basis @ vals
            floor = max(floor, equivariance_error(lap, lambda v: v[perm], f))

    cfg = EquivarianceConfig(seed=SEED, lmax_analysis=15, **CFG_DRAWS)
    engine = SweepEngine(s, 15)
    ops = engine.degree_ops(lap, 10)
    haar_means = [engine.cell_error(ops, engine.draws(k, "inverse-distance", l, cfg), l).mean
                  for l in range(1, 11)]
    haar = float(np.mean(haar_means))
    ok = floor < 1e-10 and haar >= 10.0 * 1e-10
    _report(4, "1/d weights: exact for z-grid rotations only", ok,
            f"z-grid floor={floor:.2e} (<1e-10), Haar mean={haar:.3e} (>=1e-9)")


def test_criterion_05_automorphism_exactness():
    worst = 0.0
    rng = np.random.default_rng(SEED)
    for nside in (2, 4, 8):
        s = healpix_sampling(nside)
        perm = rotation_permutation(s, z_rotation_matrix(np.pi / 2))
        band = reliable_band(s)
        basis = evaluate_basis(s, band)
        for w in (WeightScheme("inverse-distance"),
                  WeightScheme("gaussian", heuristic_kernel_width(s, 8))):
            lap = laplacian(build_graph(s, 8, w))
            for _ in range(20):
                vals = np.concatenate([draw_real_degree(l, rng) for l in range(band + 1)])
                f = basis @ vals
                worst = max(worst, equivariance_error(lap, lambda v: v[perm], f))
    ok = worst < 1e-10
    _report(5, "quarter-turn automorphism commutes exactly", ok,
            f"max error {worst:.2e} (<1e-10) over nside 2/4/8, both weight schemes")


def test_criterion_06_laplace_beltrami_convergence():
    probes = random_uniform_sampling(50, 99).points
    details = []
    ok = True
    for l, m in ((1, 0), (2, 1)):
        # R_lm = (Y_lm + (-1)^m Y_l,-m) / sqrt(2), a real eigenfunction of degree l
        col = coeff_index(l, m)
        errs = []
        for nside in (8, 16, 32):
            s = healpix_sampling(nside)
            t = s.n ** -0.25
            f_pix = evaluate_basis(s, l)[:, col]
            f_y = evaluate_basis(probes, l)[:, col]
            vals = extended_laplacian_apply(s, t, f_pix, probes, f_y)
            target = l * (l + 1) * f_y
            errs.append(float(np.linalg.norm(vals - target) / np.linalg.norm(target)))
        ok = ok and errs[0] > errs[1] > errs[2]
        details.append(f"Y_{l}{m}: " + "->".join(f"{e:.4f}" for e in errs))
    _report(6, "scaled kernel operator converges to l(l+1)", ok,
            "; ".join(details) + " (t scaled as n^-0.25, strictly decreasing)")


def test_criterion_07_extended_operator_equivariance_trend():
    probes = random_uniform_sampling(50, 99).points
    residues = {}
    for nside in (4, 16):
        s = healpix_sampling(nside)
        t = s.n ** -0.25
        residues[nside] = max(
            extended_equivariance_check(s, t, 2, random_rotation(100 + j), probes, seed=j)
            for j in range(5))
    ok = residues[16] < residues[4]
    _report(7, "extended-operator commutator shrinks with resolution", ok,
            f"max residue nside=4: {residues[4]:.4e}, nside=16: {residues[16]:.4e}")


def test_criterion_08_sht_round_trip_and_wigner():
    rng = np.random.default_rng(SEED)

    def random_table(lmax):
        return HarmonicCoeffs(lmax, np.concatenate(
            [draw_degree_coeffs(l, rng) for l in range(lmax + 1)]))

    errs = {}
    for name, s, lmax in (("equiangular b=16", equiangular_sampling(16), 15),
                          ("healpix nside=8", healpix_sampling(8), 23)):
        plan = AnalysisPlan(s, lmax)
        c0 = random_table(lmax)
        back = analysis(s, synthesis(s, c0, plan=plan), lmax, plan=plan)
        errs[name] = float(np.abs(back.values - c0.values).max())
    round_ok = all(e < 1e-8 for e in errs.values())

    uni_worst = comp_worst = 0.0
    g1, g2 = random_rotation(7), random_rotation(8)
    for l in (1, 5, 12, 23):
        D1, D2 = wigner_D_matrix(l, g1), wigner_D_matrix(l, g2)
        uni_worst = max(uni_worst, float(np.abs(D1 @ D1.conj().T - np.eye(2 * l + 1)).max()))
        comp = wigner_D_matrix(l, g1.compose(g2))
        comp_worst = max(comp_worst, float(np.abs(comp - D1 @ D2).max()))
    ok = round_ok and uni_worst < 1e-12 and comp_worst < 1e-10
    _report(8, "SHT round trip and Wigner algebra", ok,
            f"round-trip errors {errs} (<1e-8), unitarity {uni_worst:.1e} (<1e-12), "
            f"composition {comp_worst:.1e} (<1e-10)")


def test_criterion_09_filter_correctness_and_cost():
    rng = np.random.default_rng(SEED)
    oracle_worst = 0.0
    for s, k in ((equiangular_sampling(7), 6), (icosahedral_sampling(2), 6)):
        lap = laplacian(build_graph(s, k, WeightScheme("gaussian", heuristic_kernel_width(s, k))))
        lam = largest_eigenvalue(lap) * 1.01
        dense = lap.toarray()
        for order in (3, 6):
            alphas = rng.standard_normal(order + 1)
            f = rng.standard_normal(s.n)
            expected = sum(alphas[i] * np.linalg.matrix_power(dense, i) @ f
                           for i in range(order + 1))
            scale = float(np.abs(expected).max())
            for h in (FilterCoeffs("monomial", alphas), chebyshev_from_monomial(alphas, lam)):
                got = filter_apply(lap, h, f)
                oracle_worst = max(oracle_worst, float(np.abs(got - expected).max() / scale))
    oracle_ok = oracle_worst < 1e-9

    h = FilterCoeffs("monomial", rng.standard_normal(5))
    cases = []
    for nside, calls in ((8, 20), (16, 10), (32, 4), (64, 2)):
        s = healpix_sampling(nside)
        lap = laplacian(build_graph(s, 8, WeightScheme("gaussian",
                                                       heuristic_kernel_width(s, 8))))
        f = rng.standard_normal(s.n)
        filter_apply(lap, h, f)  # warm up
        cases.append((lap, f, calls))
    sizes = [lap.shape[0] for lap, _, _ in cases]
    # each size's cost is its best call; the sizes take turns over the rounds,
    # so a slow stretch of a shared CPU slows them all rather than one
    times = [np.inf] * len(cases)
    for _ in range(20):
        for i, (lap, f, calls) in enumerate(cases):
            times[i] = min([times[i]] + [_time_once(lap, h, f) for _ in range(calls)])
    # n quadruples per step: the O(n) claim allows <= 2.5 per doubling = 6.25 per step
    ratios = [times[i + 1] / times[i] for i in range(3)]
    cost_ok = all(r <= 6.25 for r in ratios)
    _report(9, "filters match dense oracle and scale linearly", oracle_ok and cost_ok,
            f"oracle max rel err {oracle_worst:.1e} (<1e-9); times(us) "
            f"{[f'{t * 1e6:.0f}' for t in times]} for n={sizes}, step ratios "
            f"{[f'{r:.2f}' for r in ratios]} (<=6.25 each)")


def _time_once(lap, h, f):
    t0 = time.perf_counter()
    filter_apply(lap, h, f)
    return time.perf_counter() - t0


def test_criterion_10_sweep_determinism(tmp_path):
    base = [sys.executable, "-m", "spheregraph.cli", "--seed", "77"]
    sweep = ["equiv-sweep", "--scheme", "healpix", "--nside", "4,8", "--k", "8",
             "--weight", "gaussian", "--t", "heuristic", "--degrees", "1,2,3,4,5",
             "--n-signals", "3", "--n-rotations", "3"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    for path, extra in zip(paths, ([], [], ["--threads", "8"])):
        cmd = base + (["--threads", "1"] if not extra else extra) + sweep + ["--out", str(path)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    rows_a = [l for l in paths[0].read_text().splitlines() if not l.startswith("#")]
    rows_c = [l for l in paths[2].read_text().splitlines() if not l.startswith("#")]
    threads_match = rows_a == rows_c
    _report(10, "sweeps are deterministic and thread-invariant",
            identical and threads_match,
            f"same-seed reruns byte-identical: {identical}; "
            f"--threads 1 vs 8 row-identical: {threads_match}")
