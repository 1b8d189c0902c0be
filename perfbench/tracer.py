"""Span tracer for the benchmark's traced run.

``Tracer.install`` wraps every public function of the ``esn_tucker``
layer modules and rebinds each wrapped function object everywhere the
package holds it.  Rebinding the module attribute alone is not enough:
``harness`` binds ``hooi`` and ``fit_per_class`` by name and ``numlin``
binds ``as_matrix`` by name, so calls through those names would bypass
a wrapper installed only on ``tucker`` or ``tensor_ops``.

Each call records one span (name, start, end, parent) in memory; spans
are written out with :meth:`Tracer.write` once the run is over.  Counts
that the span alone does not give (reservoir steps, HOOI iterations and
convergence, bytes parsed) are read from arguments and return values.

A span's self time is its duration minus the durations of its child
spans, so the self times of all spans under a root add up to the root.
"""

import functools
import inspect
import json
import os
import sys
import time

import numpy as np

PACKAGE = "esn_tucker"
# the modules of src/esn_tucker timed as layers; cli is a thin argparse
# shell over harness and is not timed separately
LAYERS = ("data", "esn", "classify", "tucker", "numlin", "tensor_ops",
          "harness")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _files_parsed(*paths):
    return {"parse_calls": len(paths),
            "bytes_parsed": sum(os.path.getsize(p) for p in paths)}


# span name -> function of (args, kwargs, return value) giving counter
# increments for that call
COUNTERS = {
    "esn.run": lambda args, kwargs, out: {"steps": out.shape[1]},
    "tucker.hooi": lambda args, kwargs, out: {
        "iters": out.iterations, "unconverged": int(not out.converged)},
    "data.load_usps": lambda args, kwargs, out: _files_parsed(
        _arg(args, kwargs, 0, "path")),
    "data.load_jv": lambda args, kwargs, out: _files_parsed(
        _arg(args, kwargs, 0, "train_path"),
        _arg(args, kwargs, 1, "test_path"),
        f"{_arg(args, kwargs, 1, 'test_path')}.counts"),
}


class Tracer:
    """Records a span per call into the package's public functions."""

    def __init__(self):
        self.names = []               # span name table
        self.span_name = []           # per span: index into ``names``
        self.span_start = []
        self.span_end = []
        self.span_parent = []         # index of the enclosing span, or -1
        self.counters = {}            # "<span name>.<counter>" -> total
        self._stack = [-1]
        self._wrappers = None         # id(original) -> (original, wrapper)
        self._rebound = []            # (module, attribute, original)

    def _package_modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None
                and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def _build_wrappers(self):
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(fn)] = (fn, self._wrap(fn, name,
                                                   COUNTERS.get(name)))
        return wrappers

    def _wrap(self, fn, name, count):
        nid = len(self.names)
        self.names.append(name)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, stack, counters = self.span_parent, self._stack, \
            self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = start
                stack.pop()
            if count is not None:
                for key, value in count(args, kwargs, out).items():
                    key = f"{name}.{key}"
                    counters[key] = counters.get(key, 0) + value
            return out

        return traced

    def install(self):
        """Rebind every public layer function, in every package module."""
        if self._wrappers is None:
            self._wrappers = self._build_wrappers()
        for module in self._package_modules():
            for attr, obj in list(vars(module).items()):
                entry = self._wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._rebound.append((module, attr, obj))

    def uninstall(self):
        """Restore every binding :meth:`install` replaced."""
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound = []

    def mark(self):
        """Position to pass to :meth:`summary` for spans recorded after it."""
        return len(self.span_name), dict(self.counters)

    def summary(self, mark, grid_s):
        """Per-name and per-layer times and counts of spans since ``mark``.

        ``grid_s`` is the wall time the spans ran under; the harness's
        own time is ``grid_s`` minus every non-harness span called
        directly from the harness or from the benchmark.
        """
        first, counters_before = mark
        ids = np.asarray(self.span_name[first:], dtype=np.int64)
        dur = (np.asarray(self.span_end[first:])
               - np.asarray(self.span_start[first:]))
        parent = np.asarray(self.span_parent[first:], dtype=np.int64) - first
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=len(ids))
        own = dur - child
        n_names = len(self.names)
        calls = np.bincount(ids, minlength=n_names)
        incl = np.bincount(ids, weights=dur, minlength=n_names)
        self_s = np.bincount(ids, weights=own, minlength=n_names)
        layer_of = np.array([n.split(".")[0] for n in self.names])
        is_harness = layer_of[ids] == "harness"
        parent_harness = np.ones(len(ids), dtype=bool)
        parent_harness[nested] = is_harness[parent[nested]]
        top_level = ~is_harness & parent_harness

        layer_self = dict.fromkeys(LAYERS, 0.0)
        for layer, s in zip(layer_of, self_s):
            layer_self[layer] += float(s)
        layer_self["harness"] = float(grid_s - dur[top_level].sum())
        counters = {k: v - counters_before.get(k, 0)
                    for k, v in self.counters.items()}
        return {
            "grid_s": grid_s,
            "spans": int(len(ids)),
            "by_name": {name: {"calls": int(calls[i]),
                               "incl_s": float(incl[i]),
                               "self_s": float(self_s[i])}
                        for i, name in enumerate(self.names) if calls[i]},
            "layer_self_s": layer_self,
            "counters": counters,
        }

    def write(self, path):
        """Write every recorded span as one JSON object per line."""
        with open(path, "w") as fh:
            for nid, start, end, parent in zip(
                    self.span_name, self.span_start, self.span_end,
                    self.span_parent):
                fh.write(json.dumps({"name": self.names[nid],
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")


def layer_metrics(summary):
    """The benchmark's per-layer metrics for one traced grid."""
    by_name = summary["by_name"]
    counters = summary["counters"]

    def total(key, *names):
        return sum(by_name.get(n, {}).get(key, 0) for n in names)

    out = {f"{layer}.self_s": s for layer, s in
           summary["layer_self_s"].items()}
    out.update({
        "trace.grid_s": summary["grid_s"],
        "trace.spans": summary["spans"],
        "esn.run_s": total("incl_s", "esn.run"),
        "esn.run_calls": total("calls", "esn.run"),
        "esn.steps": counters.get("esn.run.steps", 0),
        "esn.stack_s": total("incl_s", "esn.stack_states"),
        "esn.reservoir_s": total("incl_s", "esn.make_reservoir"),
        "tucker.hooi_s": total("incl_s", "tucker.hooi"),
        "tucker.hooi_self_s": total("self_s", "tucker.hooi"),
        "tucker.hooi_calls": total("calls", "tucker.hooi"),
        "tucker.hooi_iters": counters.get("tucker.hooi.iters", 0),
        "tucker.unconverged": counters.get("tucker.hooi.unconverged", 0),
        "numlin.svd_s": total("incl_s", "numlin.truncated_svd"),
        "numlin.svd_calls": total("calls", "numlin.truncated_svd"),
        "numlin.ridge_s": total("incl_s", "numlin.ridge_solve"),
        "tensor_ops.mode_product_s": total("incl_s",
                                           "tensor_ops.mode_product"),
        "tensor_ops.unfold_s": total("incl_s", "tensor_ops.unfold"),
        "tensor_ops.validate_s": total("incl_s", "tensor_ops.as_tensor3",
                                       "tensor_ops.as_matrix"),
        "tensor_ops.validate_calls": total("calls", "tensor_ops.as_tensor3",
                                           "tensor_ops.as_matrix"),
        "data.ingest_s": total("incl_s", "data.load_usps", "data.load_jv"),
        "data.parse_calls": sum(counters.get(f"{n}.parse_calls", 0) for n in
                                ("data.load_usps", "data.load_jv")),
        "data.bytes_parsed": sum(counters.get(f"{n}.bytes_parsed", 0)
                                 for n in ("data.load_usps", "data.load_jv")),
        "classify.readout_fit_s": total("incl_s",
                                        "classify.train_output_weights"),
        "classify.block_s": total("incl_s", "classify.classify_block"),
        "classify.block_calls": total("calls", "classify.classify_block"),
    })
    return out
