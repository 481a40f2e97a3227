"""Span recorder for the traced benchmark run.

The package has no tracing of its own, so the benchmark wraps the public
functions of each layer from outside.  A wrapper replaces the function in
every airymax module that binds it, including names bound by
`from .x import y`, and records a span (name, start, end, parent) plus the
layer's work counters.  Spans stay in memory; `layer_times()` reduces them to
per-layer times and `dump()` writes them out at the end of a run.
"""

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np


def _size(x):
    return int(np.size(x))


def _mc_gaussians(args, kwargs, ens):
    # one scalar bridge of `steps` normals per matrix entry per draw; the
    # cycle-shift sampler (N = 1) draws N bridges per attempt
    dim = 2 * ens.N + 1
    per_draw = ens.N if ens.method == "rejection" else dim * (dim - 1) // 2
    return ens.attempts * per_draw * ens.steps


def _psi_grid_mb(grid):
    arrays = (grid.phi1, grid.phi2, grid.zeta_nodes, grid.zeta_weights, grid.s_grid)
    return sum(a.nbytes for a in arrays) / 1e6


# (module, function, span name, {counter: fn(args, kwargs, result)})
LAYERS = [
    ("special", "airy_ai", "special.airy", {"special.airy_points": lambda a, k, r: _size(a[0])}),
    ("special", "airy_ai_prime", "special.airy", {"special.airy_points": lambda a, k, r: _size(a[0])}),
    ("special", "airy_both", "special.airy", {"special.airy_points": lambda a, k, r: _size(a[0])}),
    ("painleve", "solve_hastings_mcleod", "painleve.solve", {}),
    ("fredholm", "f1_fredholm", "fredholm.f1", {}),
    ("fredholm", "mfqr_jpdf", "fredholm.mfqr", {}),
    ("lax", "build_psi_grid", "lax.psi_grid", {"lax.psi_grid_mb": lambda a, k, r: _psi_grid_mb(r)}),
    ("lax", "psi_at_s", "lax.psi_at_s", {"lax.zeta_nodes": lambda a, k, r: _size(a[1])}),
    ("airy2", "transport_profile", "airy2.transport",
     {"airy2.transport_columns": lambda a, k, r: _size(a[0])}),
    ("airy2", "build_joint_density_grid", "airy2.grid",
     {"airy2.points": lambda a, k, r: r.values.size}),
    ("airy2", "marginal_w", "airy2.marginal", {"airy2.points": lambda a, k, r: 1}),
    ("airy2", "f_function", "airy2.f", {"airy2.points": lambda a, k, r: 1}),
    ("airy2", "joint_pdf", "airy2.joint_pdf", {"airy2.points": lambda a, k, r: 1}),
    ("finite_n", "build_op_table", "finite_n.op_table",
     {"finite_n.dd_tables": lambda a, k, r: int(r.used_extended_precision)}),
    ("finite_n", "g_function", "finite_n.g", {}),
    ("finite_n", "g_function_vector", "finite_n.g", {}),
    ("finite_n", "recurrence_table", "finite_n.recurrence", {}),
    ("mc", "sample_ensemble", "mc.sample", {"mc.gaussians_drawn": _mc_gaussians}),
    ("mc", "exact_marginals", "mc.exact_marginals", {}),
    ("cli", "write_csv", "cli.write", {"cli.rows_written": lambda a, k, r: len(a[2])}),
    ("cli", "write_json", "cli.write", {"cli.rows_written": lambda a, k, r: len(a[1])}),
]


class Tracer:
    """Records spans while installed; a no-op for code it has not wrapped."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or None]
        self.counts = defaultdict(float)
        self._stack = []
        self._patched = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, fn, name, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            for key, count in counters.items():
                self.counts[key] += count(args, kwargs, result)
            return result
        return traced

    def install(self):
        """Wrap every LAYERS function wherever an airymax module binds it."""
        by_id = {}
        for mod_name, attr, name, counters in LAYERS:
            fn = getattr(importlib.import_module(f"airymax.{mod_name}"), attr)
            by_id[id(fn)] = (fn, self._wrap(fn, name, counters))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "airymax" and not mod_name.startswith("airymax."):
                continue
            for attr, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def layer_times(self):
        """Per span name: (calls, inclusive seconds, self seconds).

        Inclusive time counts only spans with no ancestor of the same name, so
        a layer that calls itself is not counted twice; self time is a span's
        duration minus the time covered by its direct children."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            acc = out[name]
            acc[0] += 1
            acc[2] += (t1 - t0) - child[i]
            p = parent
            while p is not None and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p is None:
                acc[1] += t1 - t0
        return {k: tuple(v) for k, v in out.items()}

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)
