"""Command-line front end producing reproducible CSV artifacts.

Every output file starts with '#' comment lines carrying the tool version,
the full command configuration, and the master seed, so any file can be
regenerated exactly from its own header. Exit codes: 0 success, 1 numerical
failure, 2 usage error.
"""

from __future__ import annotations

import sys

import click

from . import __version__, equivariance, filters, graphs, harmonics, io, samplings
from .errors import InvalidArgumentError, SphereGraphError

_WEIGHT_CHOICES = click.Choice(["gaussian", "inverse-distance"])
_SCHEME_CHOICES = click.Choice(["healpix", "equiangular", "icosahedral", "random"])


def _int_list(_ctx, _param, value):
    if value is None:
        return None
    try:
        return [int(v) for v in str(value).split(",") if v != ""]
    except ValueError:
        raise click.BadParameter(f"expected a comma-separated integer list, got {value!r}")


def _sampling_at(scheme, r, indexing, seed):
    """The sampling of `scheme` at resolution r (its nside, bandwidth, level or n)."""
    if scheme == "healpix":
        return samplings.healpix_sampling(r, indexing)
    if scheme == "equiangular":
        return samplings.equiangular_sampling(r)
    if scheme == "icosahedral":
        return samplings.icosahedral_sampling(r)
    return samplings.random_uniform_sampling(r, seed)


def _resolution(scheme, nside, bandwidth, level, n):
    """The value (or list) given for the scheme's resolution option."""
    r = {"healpix": nside, "equiangular": bandwidth, "icosahedral": level, "random": n}[scheme]
    if r is None or r == []:
        flag = {"healpix": "--nside", "equiangular": "--bandwidth",
                "icosahedral": "--level", "random": "--n"}[scheme]
        raise click.UsageError(f"{flag} is required for {scheme}")
    return r


def _build_sampling(scheme, nside, bandwidth, level, n, indexing, seed):
    return _sampling_at(scheme, _resolution(scheme, nside, bandwidth, level, n), indexing, seed)


def _header(ctx, command, **params):
    lines = [f"spheregraph {__version__}", f"command={command}", f"seed={ctx.obj['seed']}"]
    for key, value in params.items():
        lines.append(f"{key}={value}")
    return lines


def _out_option(fn):
    return click.option("--out", "out_override", type=click.Path(dir_okay=False, writable=True),
                        default=None, help="output CSV path (overrides the global --out)")(fn)


def _sampling_options(multi=False):
    cast = (_int_list, None) if multi else (None, int)

    def wrap(fn):
        fn = click.option("--scheme", type=_SCHEME_CHOICES, required=True)(fn)
        for name in ("--nside", "--bandwidth", "--level", "--n"):
            if multi:
                fn = click.option(name, callback=cast[0], default=None,
                                  help="comma-separated list")(fn)
            else:
                fn = click.option(name, type=cast[1], default=None)(fn)
        fn = click.option("--indexing", type=click.Choice(["ring", "nested"]),
                          default="ring", show_default=True)(fn)
        return fn

    return wrap


def _t_number(t_text, names):
    try:
        return float(t_text)
    except ValueError:
        raise click.UsageError(f"--t must be {names}, or a number, got {t_text!r}")


def _build_graph(s, k, weight, t_text):
    """The command's kNN graph and its kernel width (0 for inverse-distance weights)."""
    if weight == "inverse-distance":
        return graphs.build_graph(s, k, graphs.WeightScheme("inverse-distance")), 0.0
    family = graphs.GaussianGraphFamily(s, k)
    kind = {"heuristic": "half-mean-square", "mean-distance": "mean-distance"}.get(t_text)
    t = family.heuristic_width(kind) if kind else _t_number(t_text, "'heuristic', 'mean-distance'")
    return family.graph(t), t


def _input_signal(s, signal, degree, seed):
    """The --signal file, checked against the sampling, or a random degree-l signal."""
    if (signal is None) == (degree is None):
        raise click.UsageError("provide exactly one of --signal or --degree")
    if signal is not None:
        values = io.read_signal_csv(signal)
        if values.shape != (s.n,):
            raise click.UsageError(f"signal has {values.shape[0]} rows, sampling has {s.n}")
        return values
    return harmonics.random_degree_signal(s, degree, seed)


@click.group()
@click.version_option(__version__)
@click.option("--seed", type=int, default=0, show_default=True, help="master random seed")
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None,
              help="output CSV path")
@click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True,
              help="worker threads for sweep cells")
@click.pass_context
def main(ctx, seed, out, threads):
    """Sphere-graph experiments: samplings, Laplacians, filters, equivariance."""
    ctx.ensure_object(dict)
    ctx.obj.update(seed=seed, out=out, threads=threads)


def _out_path(ctx, default_name, override=None):
    return override or ctx.obj["out"] or default_name


@main.command()
@_sampling_options()
@_out_option
@click.pass_context
def sample(ctx, scheme, nside, bandwidth, level, n, indexing, out_override):
    """Write a sampling as index,x,y,z rows."""
    s = _build_sampling(scheme, nside, bandwidth, level, n, indexing, ctx.obj["seed"])
    path = _out_path(ctx, "sampling.csv", out_override)
    io.write_sampling_csv(s, path, _header(
        ctx, "sample", scheme=s.scheme, resolution=s.resolution, n=s.n))
    click.echo(f"wrote {s.n} pixels to {path}")


@main.command()
@_sampling_options()
@click.option("--k", type=int, required=True)
@click.option("--weight", type=_WEIGHT_CHOICES, default="gaussian", show_default=True)
@click.option("--t", "t_text", default="heuristic", show_default=True,
              help="'heuristic', 'mean-distance', or a kernel width")
@click.option("--matrix", type=click.Choice(["adjacency", "laplacian"]),
              default="adjacency", show_default=True)
@_out_option
@click.pass_context
def graph(ctx, scheme, nside, bandwidth, level, n, indexing, k, weight, t_text, matrix, out_override):
    """Build the kNN graph and export it in coordinate format."""
    s = _build_sampling(scheme, nside, bandwidth, level, n, indexing, ctx.obj["seed"])
    g, t = _build_graph(s, k, weight, t_text)
    mat = graphs.laplacian(g) if matrix == "laplacian" else g.adjacency
    path = _out_path(ctx, "graph.csv", out_override)
    io.write_sparse_csv(mat, path, _header(
        ctx, "graph", scheme=s.scheme, resolution=s.resolution, n=s.n,
        k=k, weight=weight, t=t, matrix=matrix))
    click.echo(
        f"wrote {matrix} ({s.n} vertices, {mat.nnz} stored nonzeros, t={t:.6g}) to {path}\n"
        f"degrees: min={g.degrees.min():.6g} mean={g.degrees.mean():.6g} max={g.degrees.max():.6g}"
    )


@main.command()
@_sampling_options()
@click.option("--lmax", type=int, required=True)
@click.option("--mode", type=click.Choice(["analyze", "synth"]), default="analyze",
              show_default=True)
@click.option("--signal", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--degree", type=int, default=None, help="analyze a random degree-l signal")
@click.option("--coeffs", type=click.Path(exists=True, dir_okay=False), default=None,
              help="coefficient CSV for synth mode")
@_out_option
@click.pass_context
def sht(ctx, scheme, nside, bandwidth, level, n, indexing, lmax, mode, signal, degree, coeffs, out_override):
    """Harmonic analysis of a signal, or synthesis from coefficients."""
    s = _build_sampling(scheme, nside, bandwidth, level, n, indexing, ctx.obj["seed"])
    if mode == "synth":
        if coeffs is None:
            raise click.UsageError("synth mode needs --coeffs")
        table = io.read_coeffs_csv(coeffs)
        values = harmonics.synthesis(s, table)
        path = _out_path(ctx, "signal.csv", out_override)
        io.write_signal_csv(values, path, _header(
            ctx, "sht", mode=mode, scheme=s.scheme, resolution=s.resolution,
            lmax=table.lmax, coeffs=coeffs))
        click.echo(f"wrote synthesized signal to {path}")
        return
    values = _input_signal(s, signal, degree, ctx.obj["seed"])
    table = harmonics.analysis(s, values, lmax)
    path = _out_path(ctx, "coeffs.csv", out_override)
    io.write_coeffs_csv(table, path, _header(
        ctx, "sht", mode=mode, scheme=s.scheme, resolution=s.resolution,
        lmax=lmax, signal=signal or f"random-degree-{degree}"))
    click.echo(f"wrote {(lmax + 1) ** 2} coefficients to {path}")


@main.command()
@_sampling_options()
@click.option("--lmax", type=int, required=True)
@click.option("--signal", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--degree", type=int, default=None)
@_out_option
@click.pass_context
def psd(ctx, scheme, nside, bandwidth, level, n, indexing, lmax, signal, degree, out_override):
    """Power spectral density C_l of a signal."""
    s = _build_sampling(scheme, nside, bandwidth, level, n, indexing, ctx.obj["seed"])
    values = _input_signal(s, signal, degree, ctx.obj["seed"])
    table = harmonics.analysis(s, values, lmax)
    spec = harmonics.power_spectrum(table)
    path = _out_path(ctx, "spectrum.csv", out_override)
    io.write_spectrum_csv(spec, path, _header(
        ctx, "psd", scheme=s.scheme, resolution=s.resolution, lmax=lmax,
        signal=signal or f"random-degree-{degree}"))
    click.echo(f"wrote spectrum (lmax={lmax}) to {path}")


def _parse_degrees(text, band):
    if text == "auto":
        return list(range(1, min(15, band) + 1))
    degs = _int_list(None, None, text)
    if not degs:
        raise click.UsageError("empty degree list")
    return degs


@main.command("equiv-sweep")
@_sampling_options(multi=True)
@click.option("--k", "ks", callback=_int_list, required=True, help="comma-separated list")
@click.option("--weight", type=_WEIGHT_CHOICES, default="gaussian", show_default=True)
@click.option("--t", "t_text", default="optimal", show_default=True,
              help="'optimal', 'heuristic', 'mean-distance', or a kernel width")
@click.option("--degrees", default="auto", show_default=True,
              help="comma-separated degrees, or 'auto' for 1..min(15, band)")
@click.option("--n-signals", type=int, default=10, show_default=True)
@click.option("--n-rotations", type=int, default=10, show_default=True)
@click.option("--lmax-analysis", type=int, default=None,
              help="band limit of the rotation operator (default: reliable band)")
@_out_option
@click.pass_context
def equiv_sweep(ctx, scheme, nside, bandwidth, level, n, indexing, ks, weight,
                t_text, degrees, n_signals, n_rotations, lmax_analysis, out_override):
    """Mean equivariance error over a (resolution, k, degree) grid."""
    resolutions = _resolution(scheme, nside, bandwidth, level, n)
    sam_list = [_sampling_at(scheme, r, indexing, ctx.obj["seed"]) for r in resolutions]
    cfg = equivariance.EquivarianceConfig(
        n_signals=n_signals, n_rotations=n_rotations, seed=ctx.obj["seed"],
        lmax_analysis=lmax_analysis)
    degs = _parse_degrees(degrees, max(samplings.reliable_band(s) for s in sam_list))
    if t_text in ("optimal", "heuristic", "mean-distance"):
        t_mode = t_text
    else:
        t_mode = _t_number(t_text, "'optimal', 'heuristic', 'mean-distance'")
    rows = equivariance.equivariance_sweep(
        sam_list, ks, weight, t_mode, degs, cfg, threads=ctx.obj["threads"])
    path = _out_path(ctx, "sweep.csv", out_override)
    io.write_sweep_csv(rows, path, _header(
        ctx, "equiv-sweep", scheme=scheme, resolutions=",".join(map(str, resolutions)),
        indexing=indexing, k=",".join(map(str, ks)), weight=weight, t=t_text,
        degrees=",".join(map(str, degs)), n_signals=n_signals,
        n_rotations=n_rotations,
        lmax_analysis="auto" if lmax_analysis is None else lmax_analysis))
    click.echo(f"wrote {len(rows)} sweep rows to {path}")


@main.command("opt-t")
@_sampling_options(multi=True)
@click.option("--k", type=int, required=True)
@click.option("--degrees", default="auto", show_default=True)
@click.option("--n-signals", type=int, default=10, show_default=True)
@click.option("--n-rotations", type=int, default=10, show_default=True)
@click.option("--lmax-analysis", type=int, default=None)
@_out_option
@click.pass_context
def opt_t(ctx, scheme, nside, bandwidth, level, n, indexing, k, degrees,
          n_signals, n_rotations, lmax_analysis, out_override):
    """Optimal Gaussian kernel widths over resolutions, with a power-law fit."""
    resolutions = _resolution(scheme, nside, bandwidth, level, n)
    if len(resolutions) < 3:
        raise click.UsageError("opt-t needs at least 3 resolutions for the power-law fit")
    cfg = equivariance.EquivarianceConfig(
        n_signals=n_signals, n_rotations=n_rotations, seed=ctx.obj["seed"],
        lmax_analysis=lmax_analysis)
    rows = []
    pairs = []
    for r in resolutions:
        s = _sampling_at(scheme, r, indexing, ctx.obj["seed"])
        degs = _parse_degrees(degrees, samplings.reliable_band(s))
        family = graphs.GaussianGraphFamily(s, k)
        t_opt = equivariance.optimize_kernel_width(s, k, degs, cfg, family=family)
        t_heur = family.heuristic_width("half-mean-square")
        rows.append((s.scheme, s.n, k, t_opt, t_heur))
        pairs.append((s.n, t_opt))
    beta, prefactor, r2 = equivariance.fit_power_law(pairs)
    path = _out_path(ctx, "kernel_widths.csv", out_override)
    io.write_kernel_width_csv(
        rows, path,
        comments=_header(ctx, "opt-t", scheme=scheme,
                         resolutions=",".join(map(str, resolutions)), indexing=indexing, k=k,
                         degrees=degrees, n_signals=n_signals, n_rotations=n_rotations,
                         lmax_analysis="auto" if lmax_analysis is None else lmax_analysis),
        footer=[f"power-law beta={beta:.6g} prefactor={prefactor:.6g} r2={r2:.6g}"])
    click.echo(f"wrote kernel widths to {path} (beta={beta:.4f}, R^2={r2:.4f})")


@main.command("filter")
@_sampling_options()
@click.option("--k", type=int, required=True)
@click.option("--weight", type=_WEIGHT_CHOICES, default="gaussian", show_default=True)
@click.option("--t", "t_text", default="heuristic", show_default=True)
@click.option("--spec", type=click.Path(exists=True, dir_okay=False), required=True,
              help="filter coefficient CSV (basis,P,lambda_max,alpha_0..alpha_P)")
@click.option("--signal", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--degree", type=int, default=None)
@_out_option
@click.pass_context
def filter_cmd(ctx, scheme, nside, bandwidth, level, n, indexing, k, weight,
               t_text, spec, signal, degree, out_override):
    """Apply a polynomial Laplacian filter to a signal."""
    s = _build_sampling(scheme, nside, bandwidth, level, n, indexing, ctx.obj["seed"])
    g, t = _build_graph(s, k, weight, t_text)
    lap = graphs.laplacian(g)
    h = io.read_filter_csv(spec)
    values = _input_signal(s, signal, degree, ctx.obj["seed"])
    out_values = filters.filter_apply(lap, h, values)
    path = _out_path(ctx, "filtered.csv", out_override)
    io.write_signal_csv(out_values, path, _header(
        ctx, "filter", scheme=s.scheme, resolution=s.resolution, k=k, weight=weight,
        t=t, spec=spec, basis=h.basis, order=h.order,
        signal=signal or f"random-degree-{degree}"))
    click.echo(f"wrote filtered signal to {path}")


@main.command()
@_sampling_options()
@click.option("--mode", type=click.Choice(["average", "max"]), default="average",
              show_default=True)
@click.option("--signal", type=click.Path(exists=True, dir_okay=False), required=True)
@_out_option
@click.pass_context
def pool(ctx, scheme, nside, bandwidth, level, n, indexing, mode, signal, out_override):
    """Pool a signal one hierarchy level down (4 children per parent)."""
    if scheme == "healpix" and indexing != "nested":
        raise click.UsageError("healpix pooling needs --indexing nested")
    s = _build_sampling(scheme, nside, bandwidth, level, n, indexing, ctx.obj["seed"])
    values = _input_signal(s, signal, None, ctx.obj["seed"])
    pooled = filters.pool(s, values, mode)
    path = _out_path(ctx, "pooled.csv", out_override)
    io.write_signal_csv(pooled, path, _header(
        ctx, "pool", scheme=s.scheme, resolution=s.resolution, mode=mode, signal=signal))
    click.echo(f"wrote {pooled.shape[0]} pooled values to {path}")


def run():
    """Entry point with the documented exit-code mapping."""
    try:
        main(standalone_mode=False)
    except click.exceptions.Abort:
        sys.exit(1)
    except click.ClickException as exc:
        exc.show()
        sys.exit(2)
    except InvalidArgumentError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except SphereGraphError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    run()
