"""Outside-in tracer for spheregraph.

The tracer wraps the program's layer functions from outside: every module
attribute that holds a hooked function (the defining module, modules that
imported it by name, the package namespace) is replaced by one wrapper, and
hooked methods are replaced on their class. Spans (op, name, start, end,
parent) are kept in memory and written out when the run ends. A layer's self
time is its span duration minus the durations of its child layer spans.

Counters are observed at the same boundaries from call arguments and return
values; nothing inside the program is changed.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict

MODULES = ("samplings", "graphs", "harmonics", "equivariance", "filters", "io", "cli")

# (module, attribute or Class.method, span name). Tiny helpers called inside
# inner loops (degree_slice, coeff_index, reliable_band, wigner_D_matrix) are
# left out: wrapping them would cost more than the work they do.
LAYER_HOOKS = (
    ("samplings", "healpix_sampling", "samplings.healpix_sampling"),
    ("graphs", "knn_support", "graphs.knn_support"),
    ("graphs", "knn_edges", "graphs.knn_edges"),
    ("graphs", "build_graph", "graphs.build_graph"),
    ("graphs", "laplacian", "graphs.laplacian"),
    ("graphs", "heuristic_kernel_width", "graphs.heuristic_kernel_width"),
    ("graphs", "largest_eigenvalue", "graphs.largest_eigenvalue"),
    ("graphs", "GaussianGraphFamily.__init__", "graphs.GaussianGraphFamily"),
    ("graphs", "GaussianGraphFamily.laplacian", "graphs.GaussianGraphFamily.laplacian"),
    ("harmonics", "evaluate_basis", "harmonics.evaluate_basis"),
    ("harmonics", "wigner_D_blocks", "harmonics.wigner_D_blocks"),
    ("harmonics", "AnalysisPlan.__init__", "harmonics.AnalysisPlan"),
    ("equivariance", "SweepEngine.__init__", "equivariance.SweepEngine"),
    ("equivariance", "SweepEngine.draws", "equivariance.SweepEngine.draws"),
    ("equivariance", "SweepEngine.degree_ops", "equivariance.degree_ops"),
    ("equivariance", "SweepEngine.cell_error", "equivariance.cell_error"),
    ("equivariance", "optimize_kernel_width", "equivariance.optimize_kernel_width"),
    ("equivariance", "equivariance_sweep", "equivariance.equivariance_sweep"),
    ("equivariance", "fit_power_law", "equivariance.fit_power_law"),
    ("filters", "filter_apply", "filters.filter_apply"),
    ("io", "write_sparse_csv", "io.write_sparse_csv"),
    ("io", "write_sweep_csv", "io.write_sweep_csv"),
    ("io", "write_kernel_width_csv", "io.write_kernel_width_csv"),
)
# The click group's entry point and the command callbacks are hooked on their
# click objects.
CLI_ROOT = "cli.main"
CLI_COMMANDS = ("cli.opt_t", "cli.equiv_sweep")
# Name of the root span the benchmark opens around each operation; its self
# time is the part of the operation no layer accounts for.
ROOT = "op"

# Hooks that only observe: their time stays in the calling layer, so
# degree_ops self time covers its whole body whether or not it calls
# analyze_table.
OBSERVE_HOOKS = (
    ("harmonics", "AnalysisPlan.analyze_table", "harmonics.AnalysisPlan.analyze_table"),
)

LAYERS = tuple(name for _, _, name in LAYER_HOOKS) + (CLI_ROOT,) + CLI_COMMANDS

COUNTERS = (
    # (metric, unit)
    ("equivariance.objective_evals", "count"),
    ("equivariance.skipped_draws", "count"),
    ("equivariance.bracket_edge_exits", "count"),
    ("harmonics.AnalysisPlan.condition_estimate", "ratio"),
    ("graphs.knn_passes", "count"),
    ("graphs.nnz", "count"),
    ("filters.matvecs", "count"),
    ("io.write_sparse_csv.bytes", "B"),
    # Computed from argument sizes and dtypes, not measured.
    ("equivariance.degree_ops.computed_flops_per_call", "flop"),
    ("equivariance.cell_error.computed_flops_per_call", "flop"),
)
# Counters that keep the largest value seen in an operation instead of a sum.
_MAX_COUNTERS = ("harmonics.AnalysisPlan.condition_estimate", "graphs.nnz")

TRACE_METRICS = (
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("unattributed.self_s", "s"),
)


def metric_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units[layer + ".self_s"] = "s"
        units[layer + ".calls"] = "count"
    for _, _, name in OBSERVE_HOOKS:
        units[name + ".calls"] = "count"
    for module in MODULES:
        units[module + ".self_s"] = "s"
    units.update(COUNTERS)
    units.update(TRACE_METRICS)
    return units


def _fma_flops(complex_arith: bool) -> int:
    """Real flops of one multiply-add: 8 for complex, 2 for real operands."""
    return 8 if complex_arith else 2


def _is_complex(array) -> bool:
    return bool(getattr(getattr(array, "dtype", None), "kind", "c") == "c")


class Tracer:
    """Span and counter recorder installed around spheregraph's layers."""

    def __init__(self, sg):
        self.sg = sg
        self.spans = []  # [op, name, start, end, parent index]
        self.counts = defaultdict(lambda: defaultdict(float))  # op -> counter -> value
        self.op = None
        self._stack = []
        self._patches = []  # (owner, attribute, original or None to delete)
        self._layer = {name: True for name in LAYERS}
        self._layer.update({name: False for _, _, name in OBSERVE_HOOKS})

    # -- recording -------------------------------------------------------
    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self.op, name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def run(self, op, fn, *args, **kwargs):
        """Call fn inside the root span of operation `op`."""
        self.op = op
        idx = self._enter(ROOT)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(idx)

    def add(self, name: str, value: float) -> None:
        bucket = self.counts[self.op]
        if name in _MAX_COUNTERS:
            bucket[name] = max(bucket[name], value)
        else:
            bucket[name] += value

    def _open_names(self):
        return [self.spans[i][1] for i in self._stack]

    def wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if observe is not None:
                observe(tracer, idx, args, kwargs, result)
            return result

        return traced

    # -- installation ----------------------------------------------------
    def _program_modules(self):
        return [m for key, m in sorted(sys.modules.items())
                if m is not None and (key == "spheregraph" or key.startswith("spheregraph."))]

    def _patch_function(self, home, attr, wrapper):
        original = getattr(home, attr)
        wrapped = wrapper(original)
        bound = 0
        for module in self._program_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapped)
                    bound += 1
        if not bound:
            raise RuntimeError(f"no binding of {home.__name__}.{attr} found")

    def _patch_method(self, home, path, make):
        cls_name, meth = path.split(".")
        cls = getattr(home, cls_name)
        original = cls.__dict__[meth]
        self._patches.append((cls, meth, original))
        setattr(cls, meth, make(original))

    def install(self) -> None:
        """Wrap every hooked function at every binding the program looks up."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        observers = _observers()
        for module_name, path, name in LAYER_HOOKS + OBSERVE_HOOKS:
            home = getattr(self.sg, module_name)
            make = functools.partial(self.wrap, name, observe=observers.get(name))
            if "." in path:
                self._patch_method(home, path, make)
            else:
                self._patch_function(home, path, make)
        group = self.sg.cli.main
        self._patches.append((group, "main", None))
        group.main = self.wrap(CLI_ROOT, group.main)
        for command in group.commands.values():
            name = "cli." + command.callback.__name__
            if name in CLI_COMMANDS:
                self._patches.append((command, "callback", command.callback))
                command.callback = self.wrap(name, command.callback)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches = []

    # -- results ---------------------------------------------------------
    def op_metrics(self, op) -> dict:
        """Per-layer self time, calls and counters of one operation."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[0] == op]
        # Observe-only spans are transparent: their children belong to the
        # nearest layer (or root) ancestor.
        owner = {}
        for i, (_, name, _, _, parent) in spans:
            while parent is not None and not self._is_layer_or_root(parent):
                parent = self.spans[parent][4]
            owner[i] = parent
        child_time = defaultdict(float)
        for i, (_, name, start, end, _) in spans:
            if self._is_layer_or_root(i) and owner[i] is not None:
                child_time[owner[i]] += end - start
        out = {}
        for layer in LAYERS:
            out[layer + ".self_s"] = 0.0
            out[layer + ".calls"] = 0
        for _, _, name in OBSERVE_HOOKS:
            out[name + ".calls"] = 0
        for module in MODULES:
            out[module + ".self_s"] = 0.0
        out["unattributed.self_s"] = 0.0
        for i, (_, name, start, end, parent) in spans:
            if not self._is_layer_or_root(i):
                out[name + ".calls"] += 1
                continue
            self_time = (end - start) - child_time[i]
            if parent is None:
                out["unattributed.self_s"] += self_time
                continue
            out[name + ".self_s"] += self_time
            out[name + ".calls"] += 1
            out[name.split(".")[0] + ".self_s"] += self_time
        out["trace.spans"] = len(spans)
        counts = self.counts[op]
        for name, _ in COUNTERS:
            out[name] = counts.get(name, 0.0)
        out["graphs.knn_passes"] = out["graphs.knn_support.calls"] + out["graphs.knn_edges.calls"]
        for layer in ("equivariance.degree_ops", "equivariance.cell_error"):
            calls = out[layer + ".calls"]
            key = layer + ".computed_flops_per_call"
            out[key] = counts.get(key, 0.0) / calls if calls else 0.0
        return out

    def _is_layer_or_root(self, idx: int) -> bool:
        span = self.spans[idx]
        return span[4] is None or self._layer.get(span[1], True)

    def write(self, path: str, header: dict) -> None:
        """Write the recorded spans as JSON lines, after a header line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (op, name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "op": op, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def combine(setup: dict, ops: list) -> dict:
    """Median over traced operations, plus the layer work done during set-up."""
    out = {}
    for key in ops[0]:
        value = statistics.median(op[key] for op in ops)
        if key in _MAX_COUNTERS:
            value = max(value, setup[key])
        elif key.endswith((".self_s", ".calls")) and key != "unattributed.self_s":
            value += setup[key]
        out[key] = value
    return out


# -- observers: counters read off arguments and return values -------------

def _observers() -> dict:
    return {
        "equivariance.degree_ops": _observe_degree_ops,
        "equivariance.cell_error": _observe_cell_error,
        "harmonics.AnalysisPlan": _observe_plan,
        "graphs.laplacian": _observe_laplacian,
        "filters.filter_apply": _observe_filter_apply,
        "io.write_sparse_csv": _observe_write_sparse_csv,
    }


def _observe_degree_ops(tracer, idx, args, kwargs, result):
    engine, lap = args[0], args[1]
    max_degree = args[2] if len(args) > 2 else kwargs["max_degree"]
    if "equivariance.optimize_kernel_width" in tracer._open_names():
        tracer.add("equivariance.objective_evals", 1)
    n = engine.sampling.n
    m = (engine.lmax + 1) ** 2
    msig = (max_degree + 1) ** 2
    complex_arith = _is_complex(result[0])
    fma = _fma_flops(complex_arith)
    flops = (
        (4 if complex_arith else 2) * lap.nnz * msig  # real sparse L times B_sig
        + fma * n * m * msig             # B^H (L B_sig)
        + fma * m * m * msig             # two triangular solves
        + fma * n * msig * msig          # (L B_sig)^H (L B_sig)
        + 2 * lap.nnz                    # row sums of |L|
    )
    # A duplicate B^H (L B_sig) product, when degree_ops re-analyzes L B_sig.
    dup = sum(1 for s in tracer.spans[idx + 1:]
              if s[4] == idx and s[1] == "harmonics.AnalysisPlan.analyze_table")
    flops += dup * fma * n * m * msig
    tracer.add("equivariance.degree_ops.computed_flops_per_call", flops)


def _observe_cell_error(tracer, idx, args, kwargs, result):
    engine, ops, draws = args[0], args[1], args[2]
    l = args[3] if len(args) > 3 else kwargs["l"]
    m = (engine.lmax + 1) ** 2
    d = 2 * l + 1
    n_sig = draws.signals.shape[1]
    n_rot = len(draws.rotations)
    rs = n_rot * n_sig
    w = sum((2 * lp + 1) ** 2 for lp in range(engine.lmax + 1))  # Wigner block sizes
    fma = _fma_flops(_is_complex(ops[0]))
    flops = fma * (
        m * d * n_sig                    # Ltil_l a
        + 2 * (d * d + d) * n_sig        # |L f|^2 and |f|^2
        + n_rot * (w + d * d) * n_sig    # rotate coefficients and signals
        + m * m * rs                     # G u
        + m * d * rs                     # H_l d
        + d * d * rs                     # N_ll d
        + 2 * m * rs + d * rs            # three column dot products
    )
    tracer.add("equivariance.cell_error.computed_flops_per_call", flops)


def _observe_plan(tracer, idx, args, kwargs, result):
    tracer.add("harmonics.AnalysisPlan.condition_estimate", float(args[0].condition_estimate))


def _observe_laplacian(tracer, idx, args, kwargs, result):
    tracer.add("graphs.nnz", args[0].adjacency.nnz)


def _observe_filter_apply(tracer, idx, args, kwargs, result):
    h = args[1] if len(args) > 1 else kwargs["h"]
    tracer.add("filters.matvecs", h.order)


def _observe_write_sparse_csv(tracer, idx, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.add("io.write_sparse_csv.bytes", os.path.getsize(path))
