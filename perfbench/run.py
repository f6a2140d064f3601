"""spheregraph benchmark: one workload per fresh process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kwidth --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): kwidth, sweep, graph-filter. A run is a closed
loop with one caller: it repeats the workload's operation until the next one
would end after --seconds, and at least twice so that no median rests on one
sample. It checks every output against the recorded references, and prints
report lines followed, as the last line of stdout, by one JSON object with the
keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics with tracing off:
  wall_s        median wall time of one operation (set-up and checks excluded)
  setup_s       median over fresh interpreters of the time from start to ready
                to run: imports of spheregraph, numpy, scipy and click, the
                workload's inputs and its working directory
  peak_rss_mib  ru_maxrss of this process after set-up and the first
                operation (later operations can only add allocator slack)
--trace 1 reports the per-layer metrics of tracer.py: the first operation runs
untraced, the rest traced; trace.overhead_s is traced minus untraced wall time.

The workload's input seed is --seed when references are recorded for it, and
otherwise the recorded seed at index (--seed mod the number of recorded seeds).
Failed operations (an exception or a failed check) count in `failed`; the
fail ratio is failed / attempted.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings

import tracer as tracing
from workloads import WORKLOADS, file_sha256

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
REFERENCES = os.path.join(HERE, "references.json")
SETUP_PROBES = 5

_SKIPPED = re.compile(r"skipped (\d+) draws")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print 'ready' and exit (used to time set-up)")
    return p.parse_args(argv)


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def input_seed(seed: int, refs: dict) -> int:
    recorded = refs["seeds"]
    return seed if seed in recorded else recorded[seed % len(recorded)]


def import_program():
    """Import spheregraph from the checkout's sources."""
    sys.path.insert(0, SRC)
    import spheregraph
    import spheregraph.cli  # noqa: F401  (click)

    return spheregraph


def make_workdir() -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)


def setup_probe(args) -> None:
    refs = load_references()
    workload = WORKLOADS[args.workload]
    sg = import_program()
    workdir = make_workdir()
    try:
        workload.setup(sg, input_seed(args.seed, refs), workdir, refs[workload.name]["shared"])
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def time_setup(args) -> float:
    """Seconds from starting a fresh interpreter until it reports ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


def environment(seed: int, in_seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    nproc = os.cpu_count()
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    sources = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "spheregraph", "*.py"))):
        with open(path, "rb") as fh:
            sources.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {
        "git_commit": git_commit(),
        "source_sha256": sources.hexdigest(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        # threadpoolctl is not available; this is the environment's setting
        "blas_threads": threads or f"default (nproc={nproc})",
        "seed": seed,
        "input_seed": in_seed,
    }


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def warning_counts(caught) -> dict:
    """Counters the engine reports only through warnings."""
    skipped = edges = 0
    for w in caught:
        text = str(w.message)
        m = _SKIPPED.search(text)
        if m:
            skipped += int(m.group(1))
        elif "bracket edge" in text:
            edges += 1
    return {"equivariance.skipped_draws": skipped, "equivariance.bracket_edge_exits": edges}


def tail_percentile(values: list):
    """Highest of p50..p99 with at least ten samples beyond it, or None."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def check_names(trace: int, metrics: dict) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in metrics.items()}
    if want != got:
        raise SystemExit(f"perfbench: metrics {sorted(set(got) ^ set(want))} "
                         "do not match BENCHMARK.json")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spheregraph", "__init__.py")):
        print(f"perfbench: no spheregraph sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args)
        return 0

    refs = load_references()
    workload = WORKLOADS[args.workload]
    in_seed = input_seed(args.seed, refs)
    reference = refs[workload.name]["by_seed"][str(in_seed)]
    setup_times = [time_setup(args) for _ in range(SETUP_PROBES)] if not args.trace else []

    sg = import_program()
    env = environment(args.seed, in_seed)
    tracer = tracing.Tracer(sg) if args.trace else None
    workdir = make_workdir()
    walls, traced_walls, problems = [], [], []
    attempted = failed = 0
    untraced_digest = None
    try:
        if tracer:
            tracer.install()
            state = tracer.run("setup", workload.setup, sg, in_seed, workdir,
                               refs[workload.name]["shared"])
            tracer.uninstall()
        else:
            state = workload.setup(sg, in_seed, workdir, refs[workload.name]["shared"])

        deadline = time.perf_counter() + args.seconds
        longest = 0.0
        while attempted < 2 or time.perf_counter() + longest <= deadline:
            traced = tracer is not None and attempted > 0
            if traced:
                tracer.install()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                start = time.perf_counter()
                try:
                    out = (tracer.run(attempted, workload.run, state) if traced
                           else workload.run(state))
                    error = None
                except Exception:  # a failed operation is counted, not fatal
                    error = traceback.format_exc()
                wall = time.perf_counter() - start
            if traced:
                tracer.uninstall()
                for name, value in warning_counts(caught).items():
                    tracer.counts[attempted][name] += value
            attempted += 1
            if attempted == 1:
                peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            longest = max(longest, wall)
            (traced_walls if traced else walls).append(wall)

            op_problems = [error] if error else workload.check(state, out, reference)
            if not error and tracer:
                digest = file_sha256(out["path"])
                if untraced_digest is None:
                    untraced_digest = digest
                elif digest != untraced_digest:
                    op_problems.append("traced and untraced runs wrote different CSV bytes")
            if op_problems:
                failed += 1
                problems.extend(f"op {attempted - 1}: {p}" for p in op_problems)
            out = None  # so the next operation's peak memory does not include this output
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps({"env": env}))
    report = {"workload": workload.name, "fail_ratio": failed / attempted,
              "attempted": attempted, "failed": failed}

    if tracer:
        ops = [tracer.op_metrics(op) for op in range(1, attempted)]
        values = tracing.combine(tracer.op_metrics("setup"), ops)
        values["trace.overhead_s"] = statistics.median(traced_walls) - walls[0]
        missing = [name for name in workload.required if not values[name]]
        if missing:
            print(f"perfbench: traced run saw no calls of {missing}", file=sys.stderr)
            return 1
        units = tracing.metric_units()
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        trace_path = os.path.join(
            OUT_DIR, f"trace-{workload.name}-seed{args.seed}-{os.getpid()}.jsonl")
        tracer.write(trace_path, {"env": env, "report": report})
        report.update(traced_wall_s=traced_walls, untraced_wall_s=walls, spans=trace_path)
    else:
        tail = tail_percentile(walls)
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
        report.update(
            wall_s_samples=walls,
            wall_s_tail=(f"p{tail[0]}={tail[1]}" if tail else
                         f"none: {len(walls)} samples leave no percentile above the "
                         "median with ten beyond it"),
            setup_s_samples=setup_times)
    check_names(args.trace, metrics)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
